"""Command-line front end: character tables and verification suites
with JSON or CSV report output.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
precondition error.  The selected suites run one after another in the
calling process, so they share its lru_caches.

Every report comes from `report.run_check`, the only report constructor
and the only timer in the package.  Each suite calls only its own
module; a --tol under numeric's floor fails before any suite runs.

A process imports only the modules its command runs: `report` always, a
suite's module when the suite runs, `characters` for --module and
`numeric` for --tau.  `qseries` loads only with a suite that checks
q-series, so `--help`, `gm` and `zhu` never compile it.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import sys
from fractions import Fraction
from typing import IO, TYPE_CHECKING

from .report import VerificationReport, value_type

if TYPE_CHECKING:
    from .characters import SWModuleId

__all__ = ["RunConfig", "UsageError", "run", "emit_report", "main"]

_COMMANDS = ("char", "superchar", "verify", "gm", "zhu", "numeric")
_DEFAULT_TAUS = ((0.0, 1.0), (0.3, 1.1), (-0.4, 0.9))
_CSV_HEADER = [
    "identity_id",
    "params",
    "order",
    "status",
    "mismatch_exponent",
    "lhs",
    "rhs",
    "runtime_ms",
]


class UsageError(ValueError):
    """Bad flags or violated preconditions; mapped to exit code 2."""


class RunConfig(value_type("RunConfig", "command m module order suite format tol tau")):
    """One resolved invocation.  tau holds (re, im) pairs."""

    __slots__ = ()

    def __new__(
        cls,
        command: str,
        m: int = 1,
        module: SWModuleId | None = None,
        order: Fraction = Fraction(20),
        suite: str = "all",
        format: str = "json",
        tol: float = 1e-8,
        tau: tuple[tuple[float, float], ...] = _DEFAULT_TAUS,
    ):
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        if suite not in ("all", *_SUITES):
            raise UsageError(f"unknown suite {suite!r}")
        if format not in ("json", "csv"):
            raise UsageError(f"unknown format {format!r}")
        if m < 1:
            raise UsageError("m must be positive")
        if order <= 0:
            raise UsageError("order must be positive")
        if command in ("char", "superchar") and module is None:
            raise UsageError(f"{command} requires --module")
        if not tau:
            raise UsageError("at least one tau point required")
        # an infinite tolerance would certify any residual and switch off
        # eval_series' tail-bound refusal
        if not math.isfinite(tol):
            raise UsageError(f"tol must be finite, got {tol}")
        return tuple.__new__(cls, (command, m, module, order, suite, format, tol, tau))


def _json_value(v):
    return str(v) if isinstance(v, Fraction) else v


def _report_payload(r: VerificationReport) -> dict:
    mismatch = None
    if r.first_mismatch is not None:
        e, lhs, rhs = r.first_mismatch
        mismatch = {"exponent": str(e), "lhs": str(lhs), "rhs": str(rhs)}
    return {
        "identity_id": r.identity_id,
        "params": {k: _json_value(v) for k, v in r.params.items()},
        "order": str(r.order),
        "status": r.status,
        "first_mismatch": mismatch,
        "runtime_ms": round(r.runtime_ms, 3),
    }


def emit_report(reports: list[VerificationReport], format: str, sink: IO[str]) -> None:
    """JSON: array of objects with exactly the report fields, rationals
    as "num/den" strings.  CSV: fixed header, params as sorted k=v
    pairs joined by semicolons, empty mismatch columns on a pass."""
    if format == "json":
        # json.dumps runs the C encoder; json.dump would run the Python one
        sink.write(json.dumps([_report_payload(r) for r in reports], separators=(",", ":")) + "\n")
        return
    if format != "csv":
        raise UsageError(f"unknown format {format!r}")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in reports:
        params = ";".join(f"{k}={r.params[k]}" for k in sorted(r.params))
        e, lhs, rhs = ("", "", "")
        if r.first_mismatch is not None:
            e, lhs, rhs = (str(x) for x in r.first_mismatch)
        writer.writerow(
            [r.identity_id, params, str(r.order), r.status, e, lhs, rhs, f"{r.runtime_ms:.3f}"]
        )


# Suite name -> (swqseries module, reports(module, config)); `--suite all` runs
# them in order but fermionic, which the pinned report lists of `all` omit.
_SUITES = {
    "forms": ("forms", lambda forms, c: forms.verify_form_identities(c.order)),
    "characters": ("characters", lambda characters, c: characters.verify_character_suite(c.m, c.order)),
    "warnaar": ("fermionic", lambda fermionic, c: fermionic.verify_warnaar(2 * c.m + 1, c.order)),
    "aux": ("fermionic", lambda fermionic, c: fermionic.verify_aux_identities(c.order)),
    "zhu": ("zhupoly", lambda zhupoly, c: zhupoly.verify_zhu_suite(c.m)),
    "gm": ("gmverify", lambda gmverify, c: gmverify.verify_gm_suite(c.m)),
    "numeric": ("numeric", lambda numeric, c: numeric.verify_numeric_suite(c.m, c.tau, c.order, c.tol)),
    "fermionic": ("fermionic", lambda fermionic, c: fermionic.verify_fermionic_chars(c.m, c.order)),
}


def _suite_reports(name: str, config: RunConfig) -> list[VerificationReport]:
    module, reports = _SUITES[name]
    return reports(importlib.import_module(f"{__package__}.{module}"), config)


def _dispatch(names, config: RunConfig) -> list[VerificationReport]:
    return [r for name in names for r in _suite_reports(name, config)]


def _emit_series(config: RunConfig, sink: IO[str]) -> int:
    from . import characters

    build = characters.sw_char if config.command == "char" else characters.sw_superchar_theta
    series = build(config.module, config.order)
    if config.format == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["exponent", "coefficient"])
        for e, c in series.terms():
            writer.writerow([str(e), str(c)])
    else:
        payload = {
            "module": config.module.label,
            "order": str(config.order),
            "terms": [[str(e), str(c)] for e, c in series.terms()],
        }
        json.dump(payload, sink, separators=(",", ":"))
        sink.write("\n")
    return 0


def run(config: RunConfig, sink: IO[str]) -> int:
    """Execute one invocation, writing the report document to sink."""
    try:
        if config.command in ("char", "superchar"):
            return _emit_series(config, sink)
        names = [n for n in _SUITES if n != "fermionic"] if config.suite == "all" else [config.suite]
        if "numeric" in names:
            # a tolerance numeric cannot certify fails before any suite runs
            importlib.import_module(f"{__package__}.numeric").check_tolerance(config.tol)
        reports = _dispatch(names, config)
        emit_report(reports, config.format, sink)
        return 0 if all(r.status == "pass" for r in reports) else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_module(m: int, text: str) -> SWModuleId:
    from .characters import SWModuleId

    kind, sep, index_text = text.partition(":")
    if not sep or kind not in ("lambda", "pi"):
        raise UsageError(f"bad module selector {text!r}; use lambda:N or pi:N")
    try:
        index = int(index_text)
    except ValueError:
        raise UsageError(f"bad module index {index_text!r}") from None
    try:
        return SWModuleId(m, kind, index)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_tau(text: str) -> tuple[float, float]:
    from .numeric import TauPoint

    try:
        z = complex(text)
        TauPoint(z.real, z.imag)
    except ValueError as exc:
        raise UsageError(f"bad tau {text!r}: {exc}") from None
    return (z.real, z.imag)


def _parse_order(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad order {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swq",
        description="Exact q-series, polynomial, and numeric checks for the "
        "N=1 super-triplet family; see `swq verify --help` for the suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, order_default: str) -> None:
        p.add_argument("--m", type=int, default=1, help="family index, one per odd 2m+1")
        p.add_argument("--order", default=order_default, help="truncation order, e.g. 25 or 51/2")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def numeric_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=1e-8, help="numeric residual tolerance")
        p.add_argument(
            "--tau",
            nargs="+",
            help="upper half-plane points, e.g. 0.3+1.1j; quote a point with a leading "
            "minus in parentheses, e.g. '(-0.4+0.9j)', so it is not read as a flag",
        )

    for name in ("char", "superchar"):
        p = sub.add_parser(name, help=f"print one {name}acter expansion")
        common(p, "10")
        p.add_argument("--module", required=True, help="module selector, lambda:N or pi:N")

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, "20")
    p.add_argument("--suite", choices=("all", *_SUITES), default="all")
    numeric_flags(p)

    p = sub.add_parser("gm", help="shortcut for verify --suite gm")
    common(p, "20")
    p = sub.add_parser("zhu", help="shortcut for verify --suite zhu")
    common(p, "20")
    p = sub.add_parser("numeric", help="shortcut for verify --suite numeric")
    common(p, "300")
    numeric_flags(p)

    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    command = ns.command
    suite = getattr(ns, "suite", None)
    if suite is None:
        suite = command if command in _SUITES else "all"
    module = None
    if getattr(ns, "module", None) is not None:
        module = _parse_module(ns.m, ns.module)
    taus = _DEFAULT_TAUS
    if getattr(ns, "tau", None) is not None:
        taus = tuple(_parse_tau(t) for t in ns.tau)
    return RunConfig(
        command=command,
        m=ns.m,
        module=module,
        order=_parse_order(ns.order),
        suite=suite,
        format=ns.format,
        tol=getattr(ns, "tol", 1e-8),
        tau=taus,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _config_from_args(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
