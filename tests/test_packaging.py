"""The package has no runtime dependency: its modules import only the
standard library and each other, and pyproject.toml declares none."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_modules_import_only_the_standard_library():
    sources = sorted((ROOT / "src" / "swqseries").glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"swqseries"}
    ]
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert [line for line in lines if line.startswith("dependencies")] == ["dependencies = []"]
