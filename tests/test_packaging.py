"""The package has no runtime dependency: its modules import only the
standard library and each other, and pyproject.toml declares none; its
`swq` script is `swqseries.cli.main`.  The modules behind --help, gm and
zhu do not load qseries, and `characters` and `fermionic` type no order
margin.  Each row of `_RULES` names some identifiers and the exact places
of the package that name them: no module imports dataclasses, every value
type derives from report.value_type, `characters` and `fermionic` build
no infinite product, no builder outside `qseries` truncates a series,
only `forms` and numeric's S- and T-laws build a theta series, only
`forms.eta_quotient` inverts a series, only `numeric`, the one
floating-point module, imports cmath, and only its S-law checker
evaluates a series at a point."""

import ast
import importlib
import itertools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "swqseries"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_modules_import_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
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


def test_light_commands_skip_qseries():
    # --help, gm and zhu run no code of qseries, the largest module
    eager = [
        name for name in ("cli", "zhupoly", "gmverify") if "swqseries.qseries" in _imports_at_load(SRC / f"{name}.py")
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


def test_characters_and_fermionic_type_no_order_margin():
    # forms.eta_product derives each factor's order from the leads, so no
    # builder here types f/eta's lead 1/16 or clamps a lead with min(..., 0)
    found = []
    for name in ("characters.py", "fermionic.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text(), name)):
            if not isinstance(node, ast.Call):
                continue
            call, args = ast.unparse(node.func), [ast.unparse(arg) for arg in node.args]
            if (call == "min" and {"0", "Fraction(0)"} & set(args)) or (call == "Fraction" and args == ["1", "16"]):
                found.append(f"{name}:{node.lineno}")
    assert found == []


_FILES = tuple(sorted(path.name for path in SRC.glob("*.py")))
_SOURCES = {name: (SRC / name).read_text() for name in _FILES}


def _outside(name):
    return tuple(other for other in _FILES if other != name)


# rule -> (identifiers, files it scans, the exact places there that name
# them: file:def, file:<module> for module-level code, or a whole file)
_RULES = {
    # dataclasses loads inspect, ast, dis and tokenize, ~11 ms a process,
    # and compiles generated code for every class
    "no_dataclasses": ({"dataclasses"}, _FILES, set()),
    # report.value_type is a namedtuple whose _make runs the subclass's
    # checked constructor; a value type built on namedtuple (or
    # typing.NamedTuple) directly would let _make and _replace skip it
    "only_report_builds_namedtuples": (
        {"namedtuple", "NamedTuple"}, _FILES, {"report.py:<module>", "report.py:value_type"},
    ),
    # their bosonic products are eta quotients from forms.eta_quotient, and
    # every product with one is a forms.eta_product, so neither multiplies
    # series; the two uncalled Pochhammer caches stay while the benchmark
    # tracer reads them
    "characters_and_fermionic_build_no_infinite_product": (
        {"weber", "pochhammer", "invert", "mul"},
        ("characters.py", "fermionic.py"),
        {"fermionic.py:_finite_poch", "fermionic.py:_finite_poch_inv"},
    ),
    # every builder is exact to the order it is given: it derives its
    # factors' orders from their leads, so none builds past the order and
    # cuts the result back
    "only_qseries_truncates": ({"truncate"}, _outside("qseries.py"), set()),
    # every other theta sum is a forms.ThetaForm, built by forms.theta_form
    # with its order rule; numeric's S- and T-laws check Theta and dTheta
    # themselves
    "only_forms_and_the_s_laws_build_theta": (
        {"theta", "dtheta"}, _outside("forms.py"), {"numeric.py:verify_s_t_laws"},
    ),
    # every inverse in the package is of eta's O(sqrt(order)) nonzero terms,
    # taken where eta_quotient meets a negative power
    "only_eta_quotient_inverts": ({"invert"}, _FILES, {"forms.py:eta_quotient", "fermionic.py:_finite_poch_inv"}),
    # every law outside numeric's S-laws is checked exactly
    "only_numeric_imports_cmath": ({"cmath"}, _FILES, {"numeric.py"}),
    # floats reach no verdict but an S-law's: the T-laws and the ns-space rank are exact
    "only_the_s_law_checker_evaluates": ({"eval_series"}, _FILES, {"numeric.py:_law"}),
}


def _names(name, source):
    """(place, identifier) for every Name, Attribute, import alias and
    ImportFrom module in each top-level statement of `source`: the place
    is name:def for a def or class, name:<module> for module-level code."""
    for top in ast.parse(source, name).body:
        defines = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        place = f"{name}:{top.name if defines else '<module>'}"
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield place, node.id
            elif isinstance(node, ast.Attribute):
                yield place, node.attr
            elif isinstance(node, ast.alias):
                yield place, node.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield place, node.module


def _named(rule, sources):
    """The places of the files `rule` scans in `sources` (file -> text)
    that name one of its identifiers, each place of a file the rule allows
    whole given as that file."""
    identifiers, files, allowed = _RULES[rule]
    return {
        name if name in allowed else place
        for name in files
        for place, identifier in _names(name, sources[name])
        if identifier in identifiers
    }


@pytest.mark.parametrize("rule", list(_RULES))
def test_rule_holds(rule):
    assert _named(rule, _SOURCES) == _RULES[rule][2]


@pytest.mark.parametrize("rule", list(_RULES))
def test_rule_can_fail(rule):
    # a def naming one of the identifiers in each way the walker reads, in
    # the first file the rule scans and does not allow whole
    identifiers, files, allowed = _RULES[rule]
    name, identifier = next(f for f in files if f not in allowed), min(identifiers)
    for line in (
        f"import {identifier}",
        f"from m import {identifier}",
        f"from {identifier} import x",
        f"x = m.{identifier}",
        f"x = {identifier}",
    ):
        sources = {**_SOURCES, name: f"{_SOURCES[name]}\n\ndef _planted():\n    {line}\n"}
        assert _named(rule, sources) == allowed | {f"{name}:_planted"}, line
