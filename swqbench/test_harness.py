"""Self-test of the benchmark harness at smoke sizes.

    python3 -m pytest swqbench/test_harness.py -q

Gates on the harness running and on its output checks, never on timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import REPORT_KEYS, check_invocation  # noqa: E402
from tracer import PER_LAYER, SpanRecorder, layer_metrics  # noqa: E402

WORKLOADS = list(json.loads((HERE / "workloads.json").read_text()))
# Wrong checks per invocation at the seed commit: the ns-space-rank
# false failure at m = 2 appears once in each run of numeric.
KNOWN_WRONG = {"suite-all": 1, "high-order": 1, "multisum": 0, "polynomial": 0}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run(name, trace):
    workload = run.Workload(name, size="smoke")
    out = run.measure(workload, seed=7, seconds=0.1, trace=trace, root=ROOT)
    result = out["result"]
    assert result["correct"], out["problems"]
    assert result["failed"] == 0
    per_rep = sum(sum(e.values()) for e in workload.expected)
    reps = out["samples"]["reps"] + out["samples"]["traced_reps"]
    assert result["attempted"] == per_rep * reps
    assert out["wrong_checks"] == KNOWN_WRONG[name] * reps
    units = PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(values[k] > 0 for k in run.END_TO_END)
        return
    assert out["samples"]["traced_reps"] >= 1
    assert values["cli.self_s"] > 0
    if name == "polynomial":
        assert values["qseries.mul.calls"] == 0 and values["qseries.self_s"] == 0
        assert values["gmverify.gm_value.calls"] > 0 and values["zhupoly.mul.calls"] > 0
    if name == "multisum":
        assert values["fermionic.multisum.calls"] > 0


def _report(identity, params, order="20", status="pass"):
    mismatch = None if status == "pass" else {"exponent": "0", "lhs": "1", "rhs": "0"}
    values = [identity, params, order, status, mismatch, 1.0]
    return dict(zip(REPORT_KEYS, values))


def _good_reports():
    return [
        _report("warnaar-v1", {"p": 5, "lambda": 5, "sigma": 0}),
        _report("warnaar-v2", {"p": 5, "lambda": 5, "sigma": 0}, status="fail"),
        _report("warnaar-v2", {"p": 5, "lambda": 3, "sigma": 0}),
    ]


EXPECTED = {"warnaar-v1@20": 1, "warnaar-v2@20": 2}


def _check(reports, code=1, expected=EXPECTED):
    return check_invocation(json.dumps(reports), code, expected)


def test_checker_accepts_expected_statuses():
    result = _check(_good_reports())
    assert (result.attempted, result.wrong, result.failed) == (3, 0, 0)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda r: r[:2], id="dropped-check"),
        pytest.param(lambda r: r[:2] + [{**r[2], "order": "10"}], id="lowered-order"),
        pytest.param(lambda r: r + [r[0]], id="extra-check"),
        pytest.param(lambda r: [{k: v for k, v in x.items() if k != "runtime_ms"} for x in r], id="missing-key"),
        pytest.param(lambda r: [{**x, "status": "skip"} for x in r], id="bad-status"),
    ],
)
def test_checker_fails_whole_invocation(mutate):
    result = _check(mutate(_good_reports()))
    assert (result.attempted, result.wrong, result.failed) == (3, 3, 3)
    assert result.problems


@pytest.mark.parametrize("code", [None, 2, -9, 0])
def test_checker_fails_on_exit_code(code):
    # 0 is wrong too: the report holds a failing check, so swq must exit 1.
    result = _check(_good_reports(), code=code)
    assert (result.wrong, result.failed) == (3, 3)


def test_checker_counts_wrong_verdicts():
    reports = _good_reports()
    reports[1] = _report("warnaar-v2", {"p": 5, "lambda": 5, "sigma": 0})  # false pass
    reports[2] = _report("warnaar-v2", {"p": 5, "lambda": 3, "sigma": 0}, status="fail")
    result = _check(reports)
    assert (result.attempted, result.wrong, result.failed) == (3, 2, 2)


def test_known_defect_is_wrong_but_not_failed():
    reports = [_report("ns-space-rank", {"m": 2, "rank": 6, "min_singular": 2e-6}, status="fail")]
    result = _check(reports, expected={"ns-space-rank@20": 1})
    assert (result.attempted, result.wrong, result.failed) == (1, 1, 0)
    fixed = [_report("ns-space-rank", {"m": 2, "rank": 7, "min_singular": 0.1})]
    result = _check(fixed, code=0, expected={"ns-space-rank@20": 1})
    assert (result.wrong, result.failed) == (0, 0)
    other_m = [_report("ns-space-rank", {"m": 1, "rank": 3, "min_singular": 1e-9}, status="fail")]
    assert _check(other_m, expected={"ns-space-rank@20": 1}).failed == 1


def test_seeded_taus():
    taus = run.seeded_taus(3)
    assert taus == run.seeded_taus(3)
    assert taus != run.seeded_taus(4)
    assert len(set(taus)) == 3
    for text in taus:
        assert text.startswith("(")
        z = complex(text)
        assert -0.5 <= z.real <= 0.5 and 0.8 <= z.imag <= 1.25


def test_span_self_time():
    recorder = SpanRecorder()

    def leaf():
        time.sleep(0.02)

    leaf_t = recorder.wrap("zhupoly.mul", leaf)

    def outer():
        leaf_t()
        leaf_t()
        time.sleep(0.01)

    recorder.wrap("gmverify.gm_value", outer)()
    names = [s["name"] for s in recorder.spans]
    assert names == ["zhupoly.mul", "zhupoly.mul", "gmverify.gm_value"]
    root = recorder.spans[-1]
    assert root["parent"] == 0
    assert all(s["parent"] == root["id"] for s in recorder.spans[:2])
    m = layer_metrics([{"spans": recorder.spans, "caches": {}}], traced_wall_s=1.0)
    assert m["zhupoly.mul.calls"] == 2
    assert m["gmverify.gm_value.calls"] == 1
    assert 0.04 <= m["zhupoly.mul.self_s"] < 0.2
    assert 0.01 <= m["gmverify.gm_value.self_s"] < 0.04
    assert m["trace.unattributed_s"] == pytest.approx(1.0 - (root["end_ns"] - root["start_ns"]) / 1e9)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_refuses_checkout_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "swqbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "swqbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
