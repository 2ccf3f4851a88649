"""Span recorder for one traced `swq` invocation, and the per-layer
metrics computed from its spans.

Run as a script it is a traced stand-in for the `swq` entry point:

    PYTHONPATH=src SWQ_WORKERS=1 python3 swqbench/tracer.py --out spans.jsonl -- verify --suite zhu --m 3

It wraps the module attributes listed in LAYERS from outside the package
(nothing under src/ changes), calls `swqseries.cli.main` in-process,
keeps every span in memory and writes them as JSONL when the call
returns, followed by one record of lru_cache statistics.  The report
goes to stdout exactly as `swq` writes it, and the exit code is the one
`swq` returns.

A span is (id, parent, name, start_ns, end_ns) plus optional counters.
A span's self time is its duration minus the durations of its direct
children; spans nest strictly because tracing forces one process and
one thread.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import itertools
import json
import sys
from collections import Counter
from time import perf_counter_ns

# Module -> attributes wrapped in that module.  Public functions of each
# module, plus the private units the per-layer metrics name: the D_p
# multi-sum enumerator, the auxiliary-identity drivers and the CLI's
# per-suite dispatch unit.
LAYERS = {
    "qseries": (
        "make_series", "add", "sub", "scale", "shift", "truncate", "mul", "invert",
        "substitute_power", "pochhammer", "compare", "compare_report",
    ),
    "forms": ("eta", "weber", "theta", "dtheta", "eta_scaled", "verify_form_identities"),
    "characters": (
        "central_data", "f_over_eta", "f2_over_eta", "ns_irr_char", "sw_char",
        "sw_superchar_theta", "char_by_decomposition", "superchar_leading_shift",
        "verify_character_suite",
    ),
    "fermionic": (
        "inverse_cartan_D", "warnaar_lhs", "warnaar_rhs", "verify_warnaar",
        "fermionic_sw_char", "fermionic_char_report", "verify_aux_identities",
        "_multi_sum", "_durfee_half", "_durfee_mixed", "_euler_eta_sum",
        "_eta_double_sum", "_theta_double_sum",
    ),
    "gmverify": ("gm_value", "gm_poly", "verify_gm_conjecture", "gm_mod_p"),
    "zhupoly": (
        "poly", "poly_report", "add", "sub", "mul", "scale", "compose", "shift_arg",
        "from_roots", "binom_poly", "lagrange", "singlet_curve", "f_m_poly",
        "f_m_alt_poly", "phi_tilde", "a_bar_constant", "b_constant",
        "verify_phi_identities", "interpolation_L", "r_poly", "verify_s_properties",
    ),
    "numeric": ("eval_series", "verify_s_t_laws", "ns_space_rank"),
    "cli": ("main", "run", "emit_report", "_suite_reports", "_dispatch"),
}

# lru_caches whose hit ratio the metrics report, by metric.
CACHES = {
    "forms.cache_hit_ratio": ("forms.eta", "forms.weber"),
    "characters.cache_hit_ratio": ("characters.f_over_eta", "characters.f2_over_eta"),
    "fermionic.poch_cache_hit_ratio": ("fermionic._finite_poch", "fermionic._finite_poch_inv"),
}

# Span groups the metrics aggregate over; any other group is one span name.
GROUPS = {
    "qseries.linear": (
        "qseries.add", "qseries.sub", "qseries.scale", "qseries.shift", "qseries.truncate",
        "qseries.substitute_power", "qseries.compare",
    ),
    "fermionic.multisum": ("fermionic._multi_sum",),
    "fermionic.aux": (
        "fermionic._durfee_half", "fermionic._durfee_mixed", "fermionic._euler_eta_sum",
        "fermionic._eta_double_sum", "fermionic._theta_double_sum",
    ),
    "numeric.rank": ("numeric.ns_space_rank",),
}

# Spans recording the counter work itself: excluded from the caller's
# self time and from every layer.
COUNTER_SPAN = "trace.counters"

# Every per-layer metric: name -> unit.  BENCHMARK.json lists the same.
PER_LAYER = {
    "qseries.self_s": "s",
    "qseries.mul.self_s": "s",
    "qseries.mul.calls": "count",
    "qseries.pochhammer.self_s": "s",
    "qseries.invert.self_s": "s",
    "qseries.linear.self_s": "s",
    "qseries.terms_out": "count",
    "qseries.max_coeff_bits": "bits",
    "forms.self_s": "s",
    "forms.cache_hit_ratio": "ratio",
    "characters.self_s": "s",
    "characters.cache_hit_ratio": "ratio",
    "fermionic.self_s": "s",
    "fermionic.multisum.self_s": "s",
    "fermionic.multisum.calls": "count",
    "fermionic.multisum.terms_out": "count",
    "fermionic.aux.self_s": "s",
    "fermionic.poch_cache_hit_ratio": "ratio",
    "gmverify.self_s": "s",
    "gmverify.gm_value.self_s": "s",
    "gmverify.gm_value.calls": "count",
    "zhupoly.self_s": "s",
    "zhupoly.mul.self_s": "s",
    "zhupoly.mul.calls": "count",
    "zhupoly.lagrange.s": "s",
    "numeric.self_s": "s",
    "numeric.eval_series.self_s": "s",
    "numeric.eval_series.calls": "count",
    "numeric.eval_series.terms": "count",
    "numeric.rank.self_s": "s",
    "cli.self_s": "s",
    "cli.critical_path_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "wrong_check_share": "ratio",
}
MODULES = tuple(LAYERS)


def _coeff_bits(series) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in series.coeffs.values()),
        default=0,
    )


def _series_counters(result) -> dict:
    return {"terms": len(result.coeffs), "bits": _coeff_bits(result)}


def _multisum_counters(result) -> dict:
    return {"terms": len(result.coeffs)}


# Counters taken from a wrapped call's result, or, for eval_series, from
# its first argument: the number of retained terms it sums.
RESULT_COUNTERS = {
    "qseries.mul": _series_counters,
    "qseries.invert": _series_counters,
    "qseries.pochhammer": _series_counters,
    "fermionic._multi_sum": _multisum_counters,
}
ARG_COUNTERS = {"numeric.eval_series": lambda series, *rest, **kw: {"terms": len(series.coeffs)}}


class SpanRecorder:
    """Collects spans in memory; `wrap` returns a traced function."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("swqbench_span", default=0)

    def wrap(self, name: str, fn):
        result_counter = RESULT_COUNTERS.get(name)
        arg_counter = ARG_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current.get()
            span_id = next(self._ids)
            token = self._current.set(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._current.reset(token)
            span = {"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
            if arg_counter:
                span.update(arg_counter(*args, **kwargs))
            if result_counter:
                c0 = perf_counter_ns()
                span.update(result_counter(result))
                self.spans.append({
                    "id": next(self._ids), "parent": parent, "name": COUNTER_SPAN,
                    "start_ns": c0, "end_ns": perf_counter_ns(),
                })
            self.spans.append(span)
            return result

        return traced

    def instrument(self) -> dict:
        """Replace every attribute in LAYERS by a traced wrapper; return
        the original objects by span name (for cache statistics)."""
        originals = {}
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"swqseries.{module_name}")
            for name in names:
                fn = getattr(module, name)
                originals[f"{module_name}.{name}"] = fn
                setattr(module, name, self.wrap(f"{module_name}.{name}", fn))
        for names in CACHES.values():
            for full in names:
                module_name, name = full.split(".", 1)
                originals.setdefault(full, getattr(importlib.import_module(f"swqseries.{module_name}"), name))
        return originals


def cache_stats(originals: dict) -> dict:
    stats = {}
    for names in CACHES.values():
        for full in names:
            info = originals[full].cache_info()
            stats[full] = [info.hits, info.misses]
    return stats


# -- per-layer metrics ------------------------------------------------------


def span_times(spans: list[dict]) -> tuple[dict, float]:
    """Self time in seconds by span name, and the time covered by root
    spans, for the spans of one process (ids are unique per process)."""
    child_ns = Counter()
    for s in spans:
        if s["parent"]:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_s = Counter()
    root_ns = 0
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        self_s[s["name"]] += (dur - child_ns[s["id"]]) / 1e9
        if not s["parent"]:
            root_ns += dur
    return self_s, root_ns / 1e9


def layer_metrics(invocations: list[dict], traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition.  Each element of
    invocations holds the "spans" and "caches" of one traced process;
    traced_wall_s is their summed wall time as seen from outside."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    incl_s: Counter = Counter()
    terms: Counter = Counter()
    bits = 0
    covered = 0.0
    suite_tasks = []
    caches: Counter = Counter()
    for inv in invocations:
        spans = inv["spans"]
        s, root = span_times(spans)
        self_s.update(s)
        covered += root
        for span in spans:
            name = span["name"]
            calls[name] += 1
            dur = (span["end_ns"] - span["start_ns"]) / 1e9
            incl_s[name] += dur
            terms[name] += span.get("terms", 0)
            bits = max(bits, span.get("bits", 0))
            if name == "cli._suite_reports":
                suite_tasks.append(dur)
        for full, (hits, misses) in inv["caches"].items():
            caches[(full, "hits")] += hits
            caches[(full, "misses")] += misses

    def group(metric: str, table: Counter) -> float:
        return sum(table[n] for n in GROUPS.get(metric, (metric,)))

    def ratio(names) -> float:
        hits = sum(caches[(n, "hits")] for n in names)
        total = hits + sum(caches[(n, "misses")] for n in names)
        return hits / total if total else 0.0

    out = {f"{m}.self_s": sum(v for n, v in self_s.items() if n.split(".")[0] == m) for m in MODULES}
    out.update({
        "qseries.mul.self_s": group("qseries.mul", self_s),
        "qseries.mul.calls": group("qseries.mul", calls),
        "qseries.pochhammer.self_s": group("qseries.pochhammer", self_s),
        "qseries.invert.self_s": group("qseries.invert", self_s),
        "qseries.linear.self_s": group("qseries.linear", self_s),
        "qseries.terms_out": sum(terms[n] for n in ("qseries.mul", "qseries.invert", "qseries.pochhammer")),
        "qseries.max_coeff_bits": bits,
        "fermionic.multisum.self_s": group("fermionic.multisum", self_s),
        "fermionic.multisum.calls": group("fermionic.multisum", calls),
        "fermionic.multisum.terms_out": group("fermionic.multisum", terms),
        "fermionic.aux.self_s": group("fermionic.aux", self_s),
        "gmverify.gm_value.self_s": group("gmverify.gm_value", self_s),
        "gmverify.gm_value.calls": group("gmverify.gm_value", calls),
        "zhupoly.mul.self_s": group("zhupoly.mul", self_s),
        "zhupoly.mul.calls": group("zhupoly.mul", calls),
        "zhupoly.lagrange.s": group("zhupoly.lagrange", incl_s),
        "numeric.eval_series.self_s": group("numeric.eval_series", self_s),
        "numeric.eval_series.calls": group("numeric.eval_series", calls),
        "numeric.eval_series.terms": group("numeric.eval_series", terms),
        "numeric.rank.self_s": group("numeric.rank", self_s),
        "cli.critical_path_share": max(suite_tasks) / sum(suite_tasks) if suite_tasks else 0.0,
        "trace.wall_s": traced_wall_s,
        "trace.unattributed_s": traced_wall_s - covered,
    })
    out.update({metric: ratio(names) for metric, names in CACHES.items()})
    return out


# -- traced stand-in for the swq entry point ---------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one swq invocation under the span recorder.")
    parser.add_argument("--out", required=True, help="JSONL file for the spans and cache statistics")
    parser.add_argument("swq_args", nargs=argparse.REMAINDER, help="arguments for swq, after --")
    ns = parser.parse_args(argv)
    swq_args = ns.swq_args[1:] if ns.swq_args[:1] == ["--"] else ns.swq_args

    recorder = SpanRecorder()
    originals = recorder.instrument()
    cli = importlib.import_module("swqseries.cli")
    code = cli.main(swq_args)
    sys.stdout.flush()
    with open(ns.out, "w") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        fh.write(json.dumps({"caches": cache_stats(originals)}, separators=(",", ":")) + "\n")
    return code


def read_trace(path) -> dict:
    """Spans and cache statistics written by main()."""
    spans, caches = [], {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if "caches" in record:
                caches = record["caches"]
            else:
                spans.append(record)
    return {"spans": spans, "caches": caches}


if __name__ == "__main__":
    sys.exit(main())
