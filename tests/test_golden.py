"""Golden reports: `swq` output pinned byte for byte, apart from runtime_ms.

The files under tests/data were written in one process with runtime_ms
set to 0.  They pin every status, order, mismatch tuple, the reported
shift and every character coefficient byte for byte.  The m=2 files and
numeric-m3-o60.json come from the Fraction-dict series engine.
verify-all-m3-o40.json and the m=3 lambda:2 char and superchar files
(the first to pin a lambda supercharacter) come from the integer engine,
before the theta enumerator, the Weber products and the lambda/pi combination were each
written once.  fermionic-m2-o30.json pins `--suite fermionic`, the one
suite outside `all`, before its products were built as eta quotients.
verify-characters-m6-o61_2.json, superchar-m5-lambda3-o25_2.json and
verify-forms-o21_2.json, the first at a fractional order and the first
characters at m >= 5, come from the builders that built their factors
past the order and truncated the product back.
numeric-m2-o61_2.json, the first numeric laws at a fractional order,
comes from the code that checked the T-laws by floating-point
evaluation at tau+1 and tau+2.
gm-m11.json, zhu-m11.json and verify-all-m2-o50-tau3.json pin the
invocations that swqbench times, written while the CLI still built all
six subparsers and imported json and fractions up front.
verify-warnaar-m1-o61_2.json (p = 3 at a fractional order) and
verify-warnaar-m4-o25.json (p = 9) come from the multi-sum code that
built the 1/(q;q)_b table and the fork kernel of each spec on its own.
Both exit 1: variant 2 at lambda = p fails by design.
The five files with an ns-space-rank report lost its min_singular
param, and nothing else, when the floating-point rank probe beside the
exact rank was deleted.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from swqseries import cli

DATA = Path(__file__).parent / "data"
_RUNTIME = re.compile(r'"runtime_ms":[-0-9.e+]+')

# fixture file -> (argv, exit code)
CASES = {
    "verify-all-m2-o20.json": (["verify", "--suite", "all", "--m", "2", "--order", "20"], 1),
    "numeric-m3-o60.json": (["numeric", "--m", "3", "--order", "60"], 0),
    "char-m2-pi1-o10.json": (["char", "--m", "2", "--module", "pi:1", "--order", "10"], 0),
    "superchar-m2-pi1-o10.json": (["superchar", "--m", "2", "--module", "pi:1", "--order", "10"], 0),
    "verify-all-m3-o40.json": (["verify", "--suite", "all", "--m", "3", "--order", "40"], 1),
    "char-m3-lambda2-o12.json": (["char", "--m", "3", "--module", "lambda:2", "--order", "12"], 0),
    "superchar-m3-lambda2-o12.json": (["superchar", "--m", "3", "--module", "lambda:2", "--order", "12"], 0),
    "fermionic-m2-o30.json": (["verify", "--suite", "fermionic", "--m", "2", "--order", "30"], 0),
    "verify-characters-m6-o61_2.json": (["verify", "--suite", "characters", "--m", "6", "--order", "61/2"], 0),
    "superchar-m5-lambda3-o25_2.json": (["superchar", "--m", "5", "--module", "lambda:3", "--order", "25/2"], 0),
    "verify-forms-o21_2.json": (["verify", "--suite", "forms", "--order", "21/2"], 0),
    "numeric-m2-o61_2.json": (["numeric", "--m", "2", "--order", "61/2", "--tau", "0.3+1.1j", "(-0.4+0.9j)"], 0),
    "gm-m11.json": (["gm", "--m", "11"], 0),
    "zhu-m11.json": (["zhu", "--m", "11"], 0),
    "verify-warnaar-m1-o61_2.json": (["verify", "--suite", "warnaar", "--m", "1", "--order", "61/2"], 1),
    "verify-warnaar-m4-o25.json": (["verify", "--suite", "warnaar", "--m", "4", "--order", "25"], 1),
    "verify-all-m2-o50-tau3.json": (
        ["verify", "--suite", "all", "--m", "2", "--order", "50", "--tau", "0.1+1j", "0.2+0.9j", "(-0.3+1.1j)"],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, capsys):
    argv, code = CASES[name]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    _assert_matches(name, out)


def _assert_matches(name, out):
    assert _RUNTIME.sub('"runtime_ms":0', out) == (DATA / name).read_text()


# swq runs where numpy is not installed: the import is blocked.
_NO_NUMPY = """
import sys
sys.modules["numpy"] = None
from swqseries.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_all_suites_run_without_numpy():
    name = "verify-all-m2-o20.json"
    argv, code = CASES[name]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (code, "")
    _assert_matches(name, proc.stdout)
