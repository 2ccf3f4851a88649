"""The names the benchmark's tracer wraps and reads must exist in the
package: a rename that breaks the traced benchmark run fails here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "swqbench" / "tracer.py"


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
