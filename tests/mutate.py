"""Mutation check of the order rules, the theta pass, the multi-sum
kernel and table, the supercharacter lead probe's order, the suite
table's `all` column, the NS decomposition's multiplicities, the cube
check's margin, the two inverse-free forms pairs and the s-properties
recursion: every seeded fault must fail a test.

    python3 tests/mutate.py

copies src/, tests/ and pyproject.toml to a temporary directory and runs

    pytest -x -q tests/test_golden.py tests/test_fermionic.py tests/test_characters.py

there, first on the unmutated copy, then once per mutation in MUTATIONS,
each a replacement of a text that must occur exactly once in its file.
A mutant survives when that run passes.  The exit code is 0 when the
unmutated copy passes and every mutant is killed, 1 otherwise, and 2
when a mutation's text no longer occurs exactly once.  pytest does not
collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ["tests/test_golden.py", "tests/test_fermionic.py", "tests/test_characters.py"]

# (name, file under src/swqseries, text, replacement)
MUTATIONS = [
    (
        "eta_product builds the quotient to floor(n)",
        "forms.py", "eta_quotient(powers, math.ceil(n))", "eta_quotient(powers, math.floor(n))",
    ),
    ("eta_product builds inner 1/48 short", "forms.py", "total = inner(n - ", "total = inner(-Fraction(1, 48) + n - "),
    (
        "_grid_sum stops one slot short",
        "fermionic.py", "top = floor(den * (order - lead))", "top = floor(den * (order - lead)) - 1",
    ),
    (
        "_euler_eta_sum's lead is 1 too high",
        "fermionic.py", "_grid_sum(1, Fraction(1, 24), order", "_grid_sum(1, Fraction(1, 24) + 1, order",
    ),
    ("_theta_sum weighs b_j by a + K", "forms.py", "coeffs.get(a * a, 0) + A + B * a", "coeffs.get(a * a, 0) + A + B * (a + K)"),
    (
        "_multi_sum shifts the delta = 0 kernel one slot up",
        "fermionic.py", "2 * (ref_fork_lo - fork_lo)) // 4", "2 * (ref_fork_lo - fork_lo) + 4) // 4",
    ),
    ("_work cuts each table row one slot short", "fermionic.py", "p * b * (b - 2)) // 4 + 1)", "p * b * (b - 2)) // 4)"),
    (
        "superchar_leading_shift builds to an eighth of its order",
        "characters.py", "module_form(module, superchar=True).k)", "module_form(module, superchar=True).k / 8)",
    ),
    (
        "`--suite all` runs fermionic",
        "cli.py", '"fermionic": ("fermionic", False,', '"fermionic": ("fermionic", True,',
    ),
    ("char_by_decomposition weighs the n-th NS character 2n+3", "characters.py", "2 * n + 1 for n", "2 * n + 3 for n"),
    (
        "the cube check builds dTheta without its 1/24 margin",
        "forms.py", "order + Fraction(1, 24)), qs.mul(f, f))", "order), qs.mul(f, f))",
    ),
    (
        "odd-even-split drops prod(1+q^n) from its product side",
        "forms.py", "qs.mul(odd, qs.pochhammer(1, 1, 1, None, order))", "odd",
    ),
    ("eta-half-inverse takes 1/eta^2", "forms.py", "eta_quotient(((1, -1),), n)", "eta_quotient(((1, -2),), n)"),
    ("the s-properties recursion weighs s(t) by m + t + 1", "zhupoly.py", "lhs = (m + t) *", "lhs = (m + t + 1) *"),
]


def _env(copy: Path) -> dict:
    # no bytecode cache, so each run compiles the source as it stands
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def _run(copy: Path) -> tuple[bool, float]:
    """(whether the tests pass on the copy, seconds taken)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=copy, env=_env(copy), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0, time.perf_counter() - t0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="swq-mutate-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        # the copy, not an installed package, must be what the tests import
        where = subprocess.run(
            [sys.executable, "-c", "import swqseries; print(swqseries.__file__)"],
            cwd=copy, env=_env(copy), capture_output=True, text=True,
        ).stdout.strip()
        if not where or not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"the copy imports swqseries from {where!r}", file=sys.stderr)
            return 1
        for _, path, text, _ in MUTATIONS:
            count = (copy / "src" / "swqseries" / path).read_text().count(text)
            if count != 1:
                print(f"{path}: {text!r} occurs {count} times, not once", file=sys.stderr)
                return 2
        passed, seconds = _run(copy)
        print(f"unmutated: {'pass' if passed else 'FAIL'} ({seconds:.1f} s)")
        if not passed:
            return 1
        survivors = []
        for name, path, text, replacement in MUTATIONS:
            target = copy / "src" / "swqseries" / path
            source = target.read_text()
            target.write_text(source.replace(text, replacement))
            passed, seconds = _run(copy)
            target.write_text(source)
            print(f"{name}: {'SURVIVED' if passed else 'killed'} ({seconds:.1f} s)")
            if passed:
                survivors.append(name)
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
