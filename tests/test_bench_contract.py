"""The names the benchmark's tracer wraps and reads must exist in the
package, and a traced run must see the kernels do their work: a rename
or a rebinding that breaks the traced benchmark run fails here."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "swqbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("swqbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_callables():
    missing = [
        f"{module_name}.{name}"
        for module_name, names in _tracer().LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"swqseries.{module_name}"), name, None))
    ]
    assert missing == []


def test_traced_caches_report_statistics():
    missing = []
    for names in _tracer().CACHES.values():
        for full in names:
            module_name, name = full.split(".", 1)
            fn = getattr(importlib.import_module(f"swqseries.{module_name}"), name, None)
            if not callable(getattr(fn, "cache_info", None)):
                missing.append(full)
    assert missing == []


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def _without_runtime(stdout: str) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in json.loads(stdout)]


def test_traced_run_matches_plain_run_and_reaches_every_kernel(tmp_path):
    # A kernel bound to another name before the tracer wraps it (say
    # `from .qseries import mul` in a module the package imports
    # eagerly, or an alias inside qseries) escapes the wrappers and
    # reads as zero work; the traced run must see every kernel and each
    # auxiliary sum (their spans are fermionic.aux.self_s).  The Durfee
    # sums and the eta double sum are single Horner sums: no series
    # product, Pochhammer product or inverse runs inside them.
    args = ["verify", "--suite", "all", "--m", "1", "--order", "12"]
    out = tmp_path / "spans.jsonl"
    traced = _python(str(TRACER), "--out", str(out), "--", *args)
    plain = _python("-m", "swqseries.cli", *args)
    assert traced.returncode == plain.returncode
    assert _without_runtime(traced.stdout) == _without_runtime(plain.stdout)

    trace = _tracer().read_trace(out)
    names = Counter(span["name"] for span in trace["spans"])
    for name in (
        "qseries.mul", "qseries.invert", "qseries.pochhammer", "fermionic._multi_sum",
        "fermionic._durfee_half", "fermionic._durfee_mixed", "fermionic._euler_eta_sum",
        "fermionic._eta_double_sum", "fermionic._theta_double_sum",
    ):
        assert names[name] > 0, name
    by_id = {span["id"]: span["name"] for span in trace["spans"]}
    horner_only = ("fermionic._durfee_half", "fermionic._durfee_mixed", "fermionic._eta_double_sum")
    inside = [
        (span["name"], by_id.get(span["parent"]))
        for span in trace["spans"]
        if span["name"] in ("qseries.mul", "qseries.invert", "qseries.pochhammer")
        and by_id.get(span["parent"]) in horner_only
    ]
    assert inside == []
