"""Command-line front end: character tables and verification suites
with JSON or CSV report output.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
precondition error.  A reader that closes stdout early (`swq ... | head`)
changes no exit code and gets no traceback on stderr.  The selected
suites run one after another in the calling process, so they share its
lru_caches.

Every report comes from `report.run_check`, the only report constructor
and the only timer in the package.  One table, `_SUITES`, gives each
suite its module, the only one it calls, and whether `--suite all` runs
it; a --tol under numeric's floor, or an --m or --order over the cost
budget, fails before any suite runs.  `_COMMANDS` gives each command its
help, default --order, suite and flags; one writer serves every document.

A process imports only the modules its command runs: `report` always, a
suite's module when the suite runs, `characters` for --module,
`numeric` for --tau, `json` for JSON output, `csv` for --format csv and
`fractions` once an order is parsed.  `qseries` loads only with a suite
that checks q-series, so `--help`, `gm` and `zhu` never compile it, and
`--help` and usage errors load neither `json` nor `fractions`.  The
parser gives arguments only to the command that argv names.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from typing import IO, TYPE_CHECKING

from .report import VerificationReport, value_type

if TYPE_CHECKING:
    from collections.abc import Container
    from fractions import Fraction

    from .characters import SWModuleId

__all__ = ["RunConfig", "UsageError", "run", "emit_report", "main"]

# Suite name -> (swqseries module, run by `--suite all`, reports(module, config)), in run order
_SUITES = {
    "forms": ("forms", True, lambda forms, c: forms.verify_form_identities(c.order)),
    "characters": ("characters", True, lambda characters, c: characters.verify_character_suite(c.m, c.order)),
    "warnaar": ("fermionic", True, lambda fermionic, c: fermionic.verify_warnaar(2 * c.m + 1, c.order)),
    "aux": ("fermionic", True, lambda fermionic, c: fermionic.verify_aux_identities(c.order)),
    "zhu": ("zhupoly", True, lambda zhupoly, c: zhupoly.verify_zhu_suite(c.m)),
    "gm": ("gmverify", True, lambda gmverify, c: gmverify.verify_gm_suite(c.m)),
    "numeric": ("numeric", True, lambda numeric, c: numeric.verify_numeric_suite(c.m, c.tau, c.order, c.tol)),
    "fermionic": ("fermionic", False, lambda fermionic, c: fermionic.verify_fermionic_chars(c.m, c.order)),
}

# Flag -> add_argument keywords, for the flags beyond --m, --order and --format;
# the defaults of all four come from each subparser's set_defaults.
_FLAGS = {
    "--module": {"required": True, "help": "module selector, lambda:N or pi:N"},
    "--suite": {"choices": ("all", *_SUITES)},
    "--tol": {"type": float, "help": "numeric residual tolerance"},
    "--tau": {
        "nargs": "+",
        "help": "upper half-plane points, e.g. 0.3+1.1j; quote a point with a leading "
        "minus in parentheses, e.g. '(-0.4+0.9j)', so it is not read as a flag",
    },
}

# Command -> (help, default --order, suite it runs, flags it takes from _FLAGS)
_COMMANDS = {
    "char": ("print one character expansion", "10", "all", ("--module",)),
    "superchar": ("print one supercharacter expansion", "10", "all", ("--module",)),
    "verify": ("run a verification suite", "20", "all", ("--suite", "--tol", "--tau")),
    "gm": ("shortcut for verify --suite gm", "20", "gm", ()),
    "zhu": ("shortcut for verify --suite zhu", "20", "zhu", ()),
    "numeric": ("shortcut for verify --suite numeric", "300", "numeric", ("--tol", "--tau")),
}
_DEFAULT_TOL = 1e-8
_DEFAULT_TAUS = ((0.0, 1.0), (0.3, 1.1), (-0.4, 0.9))
_CSV_HEADER = ["identity_id", "params", "order", "status", "mismatch_exponent", "lhs", "rhs", "runtime_ms"]
# Cost preflight: a larger --m, or --m times --order, exits 2 before any work.
# gm costs about m^4.3 and a q-series suite about c*order^2, with c growing
# steeply in m (warnaar about m^4 at order 20), so a run at the corners of the
# budget ends within a minute (the README has the timings), where `gm --m 500`
# would take hours.
_MAX_M = 50
_MAX_M_ORDER = 4000


class UsageError(ValueError):
    """Bad flags or violated preconditions; mapped to exit code 2."""


class RunConfig(value_type("RunConfig", "command m module order suite format tol tau")):
    """One resolved invocation.  tau holds (re, im) pairs.  An order,
    suite or tau left at None takes the command's default."""

    __slots__ = ()

    def __new__(
        cls,
        command: str,
        m: int = 1,
        module: SWModuleId | None = None,
        order: Fraction | None = None,
        suite: str | None = None,
        format: str = "json",
        tol: float = _DEFAULT_TOL,
        tau: tuple[tuple[float, float], ...] | None = None,
    ):
        from fractions import Fraction

        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        _, default_order, default_suite, _ = _COMMANDS[command]
        order = Fraction(default_order) if order is None else order
        suite = default_suite if suite is None else suite
        tau = _DEFAULT_TAUS if tau is None else tau
        if suite not in ("all", *_SUITES):
            raise UsageError(f"unknown suite {suite!r}")
        if format not in ("json", "csv"):
            raise UsageError(f"unknown format {format!r}")
        if m < 1:
            raise UsageError("m must be positive")
        if order <= 0:
            raise UsageError("order must be positive")
        if m > _MAX_M:
            raise UsageError(f"m = {m} is over the budget of {_MAX_M}")
        # gm and zhu do not read the order
        if suite not in ("gm", "zhu") and m * order > _MAX_M_ORDER:
            raise UsageError(f"m * order = {m * order} is over the budget of {_MAX_M_ORDER}")
        if command in ("char", "superchar") and module is None:
            raise UsageError(f"{command} requires --module")
        if not tau:
            raise UsageError("at least one tau point required")
        # an infinite tolerance would certify any residual and switch off
        # eval_series' tail-bound refusal
        if not math.isfinite(tol):
            raise UsageError(f"tol must be finite, got {tol}")
        return tuple.__new__(cls, (command, m, module, order, suite, format, tol, tau))


def _write(format: str, sink: IO[str], payload, header: list[str], rows) -> None:
    """JSON: payload on one line.  CSV: the header, then rows.  If the
    sink's reader has gone, the rest of the document, and the
    interpreter's final flush, go to os.devnull: no traceback, and the
    exit code stays the one the checks earned."""
    if format not in ("json", "csv"):
        raise UsageError(f"unknown format {format!r}")
    try:
        if format == "json":
            import json

            # json.dumps runs the C encoder; json.dump would run the Python one.
            # A Fraction is written as its "num/den" string.
            sink.write(json.dumps(payload, separators=(",", ":"), default=str) + "\n")
        else:
            import csv

            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        sink.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sink.fileno())


def _report_payload(r: VerificationReport) -> dict:
    mismatch = None
    if r.first_mismatch is not None:
        e, lhs, rhs = r.first_mismatch
        mismatch = {"exponent": e, "lhs": lhs, "rhs": rhs}
    return {
        "identity_id": r.identity_id,
        "params": r.params,
        "order": r.order,
        "status": r.status,
        "first_mismatch": mismatch,
        "runtime_ms": round(r.runtime_ms, 3),
    }


def _report_row(r: VerificationReport) -> list[str]:
    params = ";".join(f"{k}={r.params[k]}" for k in sorted(r.params))
    e, lhs, rhs = ("", "", "") if r.first_mismatch is None else (str(x) for x in r.first_mismatch)
    return [r.identity_id, params, str(r.order), r.status, e, lhs, rhs, f"{r.runtime_ms:.3f}"]


def emit_report(reports: list[VerificationReport], format: str, sink: IO[str]) -> None:
    """JSON: array of objects with exactly the report fields, rationals
    as "num/den" strings.  CSV: fixed header, params as sorted k=v
    pairs joined by semicolons, empty mismatch columns on a pass."""
    _write(format, sink, [_report_payload(r) for r in reports], _CSV_HEADER, map(_report_row, reports))


def _suite_reports(name: str, config: RunConfig) -> list[VerificationReport]:
    module, _, reports = _SUITES[name]
    return reports(importlib.import_module(f"{__package__}.{module}"), config)


def _dispatch(names, config: RunConfig) -> list[VerificationReport]:
    return [r for name in names for r in _suite_reports(name, config)]


def _emit_series(config: RunConfig, sink: IO[str]) -> int:
    from . import characters

    build = characters.sw_char if config.command == "char" else characters.sw_superchar_theta
    terms = [[str(e), str(c)] for e, c in build(config.module, config.order).terms()]
    payload = {"module": config.module.label, "order": str(config.order), "terms": terms}
    _write(config.format, sink, payload, ["exponent", "coefficient"], terms)
    return 0


def run(config: RunConfig, sink: IO[str]) -> int:
    """Execute one invocation, writing the report document to sink."""
    try:
        if config.command in ("char", "superchar"):
            return _emit_series(config, sink)
        names = [n for n, (_, in_all, _) in _SUITES.items() if in_all] if config.suite == "all" else [config.suite]
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
    return SWModuleId(m, kind, index)


def _parse_tau(text: str) -> tuple[float, float]:
    from .numeric import TauPoint

    try:
        z = complex(text)
        TauPoint(z.real, z.imag)
    except ValueError as exc:
        raise UsageError(f"bad tau {text!r}: {exc}") from None
    return (z.real, z.imag)


def _parse_order(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad order {text!r}") from None


def _build_parser(commands: Container[str] = _COMMANDS) -> argparse.ArgumentParser:
    """The swq parser.  Every command is a subcommand, so the help texts
    and usage errors do not depend on commands; only the commands in
    commands get their arguments."""
    parser = argparse.ArgumentParser(
        prog="swq",
        description="Exact q-series, polynomial, and numeric checks for the "
        "N=1 super-triplet family; see `swq verify --help` for the suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, order, suite, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name not in commands:
            continue
        p.add_argument("--m", type=int, default=1, help="family index, one per odd 2m+1")
        p.add_argument("--order", default=order, help="truncation order, e.g. 25 or 51/2")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(suite=suite, module=None, tol=_DEFAULT_TOL, tau=None)
    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=ns.command,
        m=ns.m,
        module=None if ns.module is None else _parse_module(ns.m, ns.module),
        order=_parse_order(ns.order),
        suite=ns.suite,
        format=ns.format,
        tol=ns.tol,
        tau=None if ns.tau is None else tuple(_parse_tau(t) for t in ns.tau),
    )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    # argparse hands the rest of argv to the first command in it or fails
    # before it, as no top-level option takes a value: only that command
    # needs its arguments
    try:
        ns = _build_parser([a for a in args if a in _COMMANDS][:1]).parse_args(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _config_from_args(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
