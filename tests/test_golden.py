"""Golden reports: `swq` output pinned byte for byte, apart from runtime_ms.

The files under tests/data were written by the Fraction-dict series
engine with SWQ_WORKERS=1 and runtime_ms set to 0; they pin every
status, order, mismatch tuple, the reported shift and every character
coefficient byte for byte.  min_singular, the smallest singular value of
a floating-point SVD of a nearly singular matrix, depends on the LAPACK
build in its last digits, so it is compared to a relative tolerance.
"""

import re
from pathlib import Path

import pytest

from swqseries import cli

DATA = Path(__file__).parent / "data"
_RUNTIME = re.compile(r'"runtime_ms":[-0-9.e+]+')
_MIN_SINGULAR = re.compile(r'"min_singular":([-0-9.e+]+)')

# fixture file -> (argv, exit code)
CASES = {
    "verify-all-m2-o20.json": (["verify", "--suite", "all", "--m", "2", "--order", "20"], 1),
    "numeric-m3-o60.json": (["numeric", "--m", "3", "--order", "60"], 0),
    "char-m2-pi1-o10.json": (["char", "--m", "2", "--module", "pi:1", "--order", "10"], 0),
    "superchar-m2-pi1-o10.json": (["superchar", "--m", "2", "--module", "pi:1", "--order", "10"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_file(name, capsys, monkeypatch):
    argv, code = CASES[name]
    monkeypatch.setenv("SWQ_WORKERS", "1")
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    got = _RUNTIME.sub('"runtime_ms":0', out)
    want = (DATA / name).read_text()
    assert _MIN_SINGULAR.sub('"min_singular":_', got) == _MIN_SINGULAR.sub('"min_singular":_', want)
    singular = [float(x) for x in _MIN_SINGULAR.findall(got)]
    assert singular == pytest.approx([float(x) for x in _MIN_SINGULAR.findall(want)], rel=1e-3)
