"""The outcome of one identity check and `run_check`, the only report
constructor and the only timer in the package; `value_type`, the base of
every value type in the package; `_unpack`, the Kronecker read-back.

This module imports no other module of the package, so a command that
checks no q-series (`swq --help`, `gm`, `zhu`) never loads `qseries`, and
imports `fractions` only in `run_check`, so `swq --help` never loads it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:
    from fractions import Fraction

RatLike = Union[int, str, "Fraction"]

__all__ = ["RatLike", "VerificationReport", "run_check", "value_type"]


def value_type(name: str, fields: str) -> type:
    """A namedtuple base whose `_make` is cls(*fields).  A subclass's
    __new__ takes exactly its fields, so `_make`, `_replace`, pickle and
    copy all build an instance through that one checked constructor."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class VerificationReport(
    value_type("VerificationReport", "identity_id params order status first_mismatch runtime_ms")
):
    """Outcome of one identity check at one truncation order.

    first_mismatch is the first (exponent, lhs, rhs) disagreement, None
    exactly when status is "pass"."""

    __slots__ = ()

    def __new__(
        cls,
        identity_id: str,
        params: dict[str, object],
        order: Fraction,
        status: str,
        first_mismatch: Optional[tuple[Fraction, Fraction, Fraction]],
        runtime_ms: float = 0.0,
    ):
        if (status == "pass") != (first_mismatch is None):
            raise ValueError("status must be 'pass' exactly when there is no mismatch")
        return tuple.__new__(cls, (identity_id, params, order, status, first_mismatch, runtime_ms))


def _unpack(x: int, width: int, n: int) -> list[int]:
    """The n lowest width-byte digits of x as signed ints, each in
    [-2^(8 width - 1), 2^(8 width - 1)): biased by half a digit they are the
    bytes of x + bias, and xor with the bias gives their two's complement."""
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    buf = (((x + bias) & ((1 << (8 * width * n)) - 1)) ^ bias).to_bytes(width * n, "little")
    return [int.from_bytes(buf[i : i + width], "little", signed=True) for i in range(0, width * n, width)]


def run_check(
    identity_id: str,
    params: dict[str, object],
    check: Callable[[], tuple[RatLike, Optional[tuple[Fraction, Fraction, Fraction]]]],
) -> VerificationReport:
    """Run one identity check and wrap its outcome in a VerificationReport.

    check() builds both sides, compares them and returns (order, first
    mismatch or None); runtime_ms is the time it takes.  A check may add
    data it computes to params while it runs.
    """
    from fractions import Fraction

    t0 = time.perf_counter()
    order, mismatch = check()
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        identity_id=identity_id,
        params=params,
        order=Fraction(order),
        status="pass" if mismatch is None else "fail",
        first_mismatch=mismatch,
        runtime_ms=runtime_ms,
    )
