"""The package has no runtime dependency: its modules import only the
standard library and each other, and pyproject.toml declares none; its
`swq` script is `swqseries.cli.main`.  No
module imports dataclasses, the modules behind --help, gm and zhu do
not load qseries, every value type derives from report.value_type,
`characters` and `fermionic` build no infinite product, no builder
outside `qseries` truncates a series, only `forms` and numeric's S- and
T-laws build a theta series, only `forms.eta_quotient` inverts a series,
only `numeric`, the one floating-point module, imports cmath, and only
its S-law checker evaluates a series at a point."""

import ast
import importlib
import itertools
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


def _imports_at_load(path):
    """Absolute names of the modules `path` imports when it is loaded:
    from its body, class bodies and if/try blocks, not function bodies."""
    nodes = list(ast.parse(path.read_text(), str(path)).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["swqseries" if node.level else "", node.module]))
            yield from (module, *(f"{module}.{alias.name}" for alias in node.names))
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))


def test_no_dataclasses_and_light_commands_skip_qseries():
    # dataclasses loads inspect, ast, dis and tokenize, ~11 ms a process,
    # and compiles generated code for every class; --help, gm and zhu
    # run no code of qseries, the largest module
    sources = sorted((ROOT / "src" / "swqseries").glob("*.py"))
    users = [path.name for path in sources if "dataclasses" in _absolute_imports(path)]
    assert users == []
    eager = [
        name
        for name in ("cli", "zhupoly", "gmverify")
        if "swqseries.qseries" in _imports_at_load(ROOT / "src" / "swqseries" / f"{name}.py")
    ]
    assert eager == []


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert [line for line in lines if line.startswith("dependencies")] == ["dependencies = []"]


def test_swq_script_resolves_to_cli_main():
    # the [project.scripts] entry an installed `swq` runs; tomllib needs 3.11
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    section = itertools.takewhile(bool, lines[lines.index("[project.scripts]") + 1 :])
    target = dict(line.split(" = ") for line in section)["swq"].strip('"')
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is importlib.import_module("swqseries.cli").main


def test_only_report_builds_namedtuples():
    # report.value_type is a namedtuple whose _make runs the subclass's
    # checked constructor; a value type built on namedtuple (or
    # typing.NamedTuple) directly would let _make and _replace skip it
    sources = sorted((ROOT / "src" / "swqseries").glob("*.py"))
    users = sorted(
        {
            path.name
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if (isinstance(node, ast.Name) and node.id in ("namedtuple", "NamedTuple"))
            or (isinstance(node, ast.Attribute) and node.attr in ("namedtuple", "NamedTuple"))
            or (isinstance(node, ast.alias) and node.name in ("namedtuple", "NamedTuple"))
        }
    )
    assert users == ["report.py"]


def test_characters_and_fermionic_build_no_infinite_product():
    # their bosonic products are eta quotients from forms.eta_quotient, and
    # every product with one is a forms.eta_product, so neither multiplies
    # series; the two uncalled Pochhammer caches stay while the benchmark
    # tracer reads them
    banned = {"weber", "pochhammer", "invert", "mul"}
    found = []
    for name in ("characters.py", "fermionic.py"):
        tree = ast.parse((ROOT / "src" / "swqseries" / name).read_text(), name)
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name in ("_finite_poch", "_finite_poch_inv"):
                continue
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Attribute) and node.attr in banned)
                or (isinstance(node, ast.ImportFrom) and banned & {alias.name for alias in node.names})
            ]
    assert found == []


def test_characters_and_fermionic_type_no_order_margin():
    # forms.eta_product derives each factor's order from the leads, so no
    # builder here types f/eta's lead 1/16 or clamps a lead with min(..., 0)
    found = []
    for name in ("characters.py", "fermionic.py"):
        for node in ast.walk(ast.parse((ROOT / "src" / "swqseries" / name).read_text(), name)):
            if not isinstance(node, ast.Call):
                continue
            call, args = ast.unparse(node.func), [ast.unparse(arg) for arg in node.args]
            if (call == "min" and {"0", "Fraction(0)"} & set(args)) or (call == "Fraction" and args == ["1", "16"]):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_only_qseries_truncates():
    # every builder is exact to the order it is given: it derives its
    # factors' orders from their leads, so none builds past the order and
    # cuts the result back
    found = []
    for path in sorted((ROOT / "src" / "swqseries").glob("*.py")):
        if path.name == "qseries.py":
            continue
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if (isinstance(node, ast.Attribute) and node.attr == "truncate")
            or (isinstance(node, ast.Name) and node.id == "truncate")
            or (isinstance(node, ast.alias) and node.name == "truncate")
        ]
    assert found == []


def test_only_forms_and_the_s_laws_build_theta():
    # every other theta sum is a forms.ThetaForm, built by forms.theta_form
    # with its order rule; numeric's S- and T-laws check Theta and dTheta
    # themselves
    names = {"theta", "dtheta"}
    found = []
    for path in sorted((ROOT / "src" / "swqseries").glob("*.py")):
        if path.name == "forms.py":
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            if path.name == "numeric.py" and getattr(top, "name", None) == "verify_s_t_laws":
                continue
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Attribute) and node.attr in names)
                or (isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.alias) and node.name in names)
            ]
    assert found == []


def test_only_eta_quotient_inverts():
    # every inverse in the package is of eta's O(sqrt(order)) nonzero terms,
    # taken where eta_quotient meets a negative power; the uncalled
    # _finite_poch_inv stays while the benchmark tracer reads its cache
    found = []
    for path in sorted((ROOT / "src" / "swqseries").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            found += [
                f"{path.name}:{getattr(top, 'name', top.lineno)}"
                for node in ast.walk(top)
                if (isinstance(node, ast.Attribute) and node.attr == "invert")
                or (isinstance(node, ast.Name) and node.id == "invert")
                or (isinstance(node, ast.alias) and node.name == "invert")
            ]
    assert sorted(set(found)) == ["fermionic.py:_finite_poch_inv", "forms.py:eta_quotient"]


def test_only_numeric_imports_cmath():
    # every law outside numeric's S-laws is checked exactly
    sources = sorted((ROOT / "src" / "swqseries").glob("*.py"))
    users = [path.name for path in sources if "cmath" in _absolute_imports(path)]
    assert users == ["numeric.py"]


def test_only_the_s_law_checker_evaluates():
    # floats reach no verdict but an S-law's: the T-laws and the ns-space rank are exact
    found = []
    for path in sorted((ROOT / "src" / "swqseries").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            found += [
                f"{path.name}:{getattr(top, 'name', top.lineno)}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "eval_series"
            ]
    assert sorted(set(found)) == ["numeric.py:_law"]
