"""Truncated formal power series in q with exact rational coefficients.

Exponents are rationals with a fixed denominator per series; every series
carries an inclusive truncation order: all terms with exponent <= order are
exactly represented, nothing is claimed beyond it.  Arithmetic propagates the
guaranteed order, so a comparison can refuse to certify more than the operands
support.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

RatLike = Union[int, str, Fraction]

__all__ = [
    "QSeries",
    "VerificationReport",
    "make_series",
    "zero",
    "one",
    "add",
    "sub",
    "scale",
    "shift",
    "truncate",
    "mul",
    "invert",
    "substitute_power",
    "pochhammer",
    "prefix_rank",
    "compare",
    "run_check",
    "compare_report",
]


class QSeries:
    """Finite q-expansion with exponents in (1/denom)*Z and a truncation order.

    `coeffs` maps exponent numerators (exponent = numer/denom) to nonzero
    rational coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("denom", "coeffs", "order")

    def __init__(self, denom: int, coeffs: dict[int, Fraction], order: Fraction):
        self.denom = denom
        self.coeffs = coeffs
        self.order = order

    # -- inspection helpers -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the lowest-order term."""
        if not self.coeffs:
            raise ValueError("zero series has no leading term")
        k = min(self.coeffs)
        return Fraction(k, self.denom), self.coeffs[k]

    def coeff(self, exponent: RatLike) -> Fraction:
        """Coefficient at the given exponent; raises beyond the guarantee."""
        e = Fraction(exponent)
        if e > self.order:
            raise ValueError(f"exponent {e} exceeds truncation order {self.order}")
        k = e * self.denom
        if k.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(int(k), Fraction(0))

    def terms(self) -> list[tuple[Fraction, Fraction]]:
        """Sorted (exponent, coefficient) pairs."""
        return [(Fraction(k, self.denom), c) for k, c in sorted(self.coeffs.items())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.terms() == other.terms()

    def __hash__(self):
        return hash((self.order, tuple(self.terms())))

    def __repr__(self) -> str:
        ts = self.terms()
        shown = ", ".join(f"{c}*q^{e}" for e, c in ts[:6])
        if len(ts) > 6:
            shown += ", ..."
        return f"QSeries([{shown}]; order={self.order})"


def _normalized(denom: int, coeffs: dict[int, Fraction], order: Fraction) -> QSeries:
    """Drop zeros and reduce the exponent denominator by the common gcd."""
    coeffs = {k: c for k, c in coeffs.items() if c}
    g = denom
    for k in coeffs:
        g = math.gcd(g, k)
        if g == 1:
            break
    if g > 1:
        coeffs = {k // g: c for k, c in coeffs.items()}
        denom //= g
    return QSeries(denom, coeffs, order)


def _on_common_grid(a: QSeries, b: QSeries) -> tuple[int, dict[int, Fraction], dict[int, Fraction]]:
    d = math.lcm(a.denom, b.denom)
    ma, mb = d // a.denom, d // b.denom
    ca = {k * ma: v for k, v in a.coeffs.items()} if ma != 1 else a.coeffs
    cb = {k * mb: v for k, v in b.coeffs.items()} if mb != 1 else b.coeffs
    return d, ca, cb


# -- constructors -----------------------------------------------------------


def make_series(terms: Iterable[tuple[RatLike, RatLike]], order: RatLike) -> QSeries:
    """Build a series from (exponent, coefficient) pairs.

    Rejects duplicate exponents and exponents beyond the stated order.
    """
    order_f = Fraction(order)
    pairs: list[tuple[Fraction, Fraction]] = []
    seen: set[Fraction] = set()
    for e_raw, c_raw in terms:
        e = Fraction(e_raw)
        if e in seen:
            raise ValueError(f"duplicate exponent {e}")
        seen.add(e)
        if e > order_f:
            raise ValueError(f"exponent {e} exceeds order {order_f}")
        pairs.append((e, Fraction(c_raw)))
    denom = math.lcm(1, *(e.denominator for e, _ in pairs)) if pairs else 1
    coeffs = {int(e * denom): c for e, c in pairs if c}
    return QSeries(denom, coeffs, order_f)


def zero(order: RatLike) -> QSeries:
    return QSeries(1, {}, Fraction(order))


def one(order: RatLike) -> QSeries:
    return QSeries(1, {0: Fraction(1)}, Fraction(order))


# -- linear operations ------------------------------------------------------


def add(a: QSeries, b: QSeries) -> QSeries:
    """Sum, truncated to the smaller guarantee."""
    order = min(a.order, b.order)
    d, ca, cb = _on_common_grid(a, b)
    limit = math.floor(order * d)
    out = {k: v for k, v in ca.items() if k <= limit}
    for k, v in cb.items():
        if k <= limit:
            out[k] = out.get(k, Fraction(0)) + v
    return _normalized(d, out, order)


def scale(a: QSeries, c: RatLike) -> QSeries:
    c = Fraction(c)
    if not c:
        return QSeries(1, {}, a.order)
    return QSeries(a.denom, {k: v * c for k, v in a.coeffs.items()}, a.order)


def sub(a: QSeries, b: QSeries) -> QSeries:
    return add(a, scale(b, -1))


def shift(a: QSeries, e: RatLike) -> QSeries:
    """Multiply by q^e; the guarantee moves with the terms."""
    e = Fraction(e)
    d = math.lcm(a.denom, e.denominator)
    m, ke = d // a.denom, int(e * d)
    coeffs = {k * m + ke: v for k, v in a.coeffs.items()}
    return _normalized(d, coeffs, a.order + e)


def truncate(a: QSeries, order: RatLike) -> QSeries:
    """Lower the guaranteed order, discarding terms beyond it."""
    order_f = Fraction(order)
    if order_f > a.order:
        raise ValueError(f"cannot raise order {a.order} to {order_f}")
    limit = math.floor(order_f * a.denom)
    return _normalized(a.denom, {k: v for k, v in a.coeffs.items() if k <= limit}, order_f)


# -- multiplicative operations ----------------------------------------------


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Product. Order: min(a.order + lead(b), b.order + lead(a)),
    where a zero factor counts as lead = +infinity; the result is then
    the zero series at order zero.order + lead(other).

    Kronecker substitution: both operands go on their common exponent
    grid, have their denominators cleared into one integer content each
    and are packed into one big integer each; a single integer product
    carries every coefficient of the truncated product as one signed
    digit."""
    if a.is_zero() and b.is_zero():
        return QSeries(1, {}, a.order + b.order)
    if a.is_zero():
        return QSeries(1, {}, a.order + b.leading()[0])
    if b.is_zero():
        return QSeries(1, {}, b.order + a.leading()[0])
    ea, eb = a.leading()[0], b.leading()[0]
    order = min(a.order + eb, b.order + ea)
    d, ca, cb = _on_common_grid(a, b)
    ka, kb = min(ca), min(cb)
    stride = math.gcd(*(k - ka for k in ca), *(k - kb for k in cb)) or 1
    base = ka + kb
    n_out = (order * d - base) // stride + 1
    if n_out <= 0:
        return _normalized(d, {}, order)
    da, va = _dense_ints(ca, ka, stride, n_out)
    db, vb = _dense_ints(cb, kb, stride, n_out)
    n_out = min(n_out, len(va) + len(vb) - 1)
    bits = (
        max(map(abs, va)).bit_length()
        + max(map(abs, vb)).bit_length()
        + min(len(ca), len(cb)).bit_length()
        + 2
    )
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    # Biasing every digit by half makes it nonnegative, so the low
    # n_out digits of the biased product are exactly its bytes.
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n_out, "little")
    low = (_pack(va, width) * _pack(vb, width) + bias) & ((1 << (8 * width * n_out)) - 1)
    buf = low.to_bytes(width * n_out, "little")
    content = da * db
    out: dict[int, Fraction] = {}
    for n in range(n_out):
        c = int.from_bytes(buf[n * width : (n + 1) * width], "little") - half
        if c:
            out[base + n * stride] = Fraction(c, content) if content != 1 else Fraction(c)
    return _normalized(d, out, order)


def _dense_ints(coeffs: dict[int, Fraction], base: int, stride: int, length: int) -> tuple[int, list[int]]:
    """(content, v) with coeffs[base + stride*i] = v[i] / content for
    every i below length; v stops at the last term it holds."""
    content = math.lcm(*(c.denominator for c in coeffs.values()))
    top = (max(coeffs) - base) // stride + 1
    v = [0] * min(length, top)
    for k, c in coeffs.items():
        i = (k - base) // stride
        if i < length:
            v[i] = c.numerator * (content // c.denominator)
    return content, v


def _pack(v: list[int], width: int) -> int:
    """sum v[i] * 256^(width*i) for |v[i]| < 2^(8*width - 1)."""
    zero = bytes(width)
    pos = int.from_bytes(b"".join(x.to_bytes(width, "little") if x > 0 else zero for x in v), "little")
    if min(v) >= 0:
        return pos
    neg = int.from_bytes(b"".join((-x).to_bytes(width, "little") if x < 0 else zero for x in v), "little")
    return pos - neg


def invert(a: QSeries) -> QSeries:
    """Multiplicative inverse; order drops to a.order - 2*lead(a)."""
    if a.is_zero():
        raise ValueError("cannot invert the zero series")
    e0, c0 = a.leading()
    order = a.order - 2 * e0
    d = a.denom
    k0 = min(a.coeffs)
    n_max = int((order + e0) * d)
    # monic tail: a = c0 q^{e0} (1 + sum t_k q^{k/d}),  solve (1+t) * s = 1;
    # an integral t_k is kept as an int, so s stays integral with it
    inv_c0 = 1 / Fraction(c0)
    t = []
    for k, v in sorted(a.coeffs.items()):
        if 0 < k - k0 <= n_max:
            tk = v * inv_c0
            t.append((k - k0, tk.numerator if tk.denominator == 1 else tk))
    s = [1] + [0] * max(n_max, 0)
    for n in range(1, n_max + 1):
        acc = 0
        for k, v in t:
            if k > n:
                break
            acc += v * s[n - k]
        s[n] = -acc
    if inv_c0 == 1:
        coeffs = {n - k0: Fraction(c) for n, c in enumerate(s) if c}
    else:
        coeffs = {n - k0: c * inv_c0 for n, c in enumerate(s) if c}
    return _normalized(d, coeffs, order)


def substitute_power(a: QSeries, r: RatLike) -> QSeries:
    """Substitute q -> q^r for positive rational r; order scales by r."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("substitution power must be positive")
    d = a.denom * r.denominator
    coeffs = {k * r.numerator: v for k, v in a.coeffs.items()}
    return _normalized(d, coeffs, a.order * r)


def pochhammer(
    start: RatLike,
    step: RatLike,
    sign: int,
    count: Optional[int],
    order: RatLike,
) -> QSeries:
    """Product of (1 + sign * q^{start + n*step}) for n = 0..count-1.

    count=None means the infinite product; factors beyond the order are 1.
    """
    start_f, step_f, order_f = Fraction(start), Fraction(step), Fraction(order)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if start_f <= 0:
        raise ValueError("start must be positive")
    if count is None:
        if step_f <= 0:
            raise ValueError("infinite product needs positive step")
        count = 0
        while start_f + count * step_f <= order_f:
            count += 1
    elif count < 0:
        raise ValueError("count must be nonnegative")
    elif step_f < 0 and count > 1:
        raise ValueError("step must be nonnegative for finite products")
    d = math.lcm(start_f.denominator, step_f.denominator)
    top = math.floor(order_f * d)
    # dense coefficients of q^{k/d}, k = 0..top, updated in place per factor
    out = [1] + [0] * max(top, 0)
    ke, ke_step = int(start_f * d), int(step_f * d)
    for _ in range(count):
        if ke > top:
            break
        if sign > 0:
            out[ke:] = [x + y for x, y in zip(out[ke:], out)]
        else:
            out[ke:] = [x - y for x, y in zip(out[ke:], out)]
        ke += ke_step
    return _normalized(d, {k: Fraction(c) for k, c in enumerate(out) if c}, order_f)


# -- comparison and reporting ------------------------------------------------


def prefix_rank(columns: list[QSeries]) -> int:
    """Rank of the coefficient vectors of the given series, by exact
    elimination over exponent rows taken in increasing order up to the
    smallest guaranteed order.  Elimination stops once the rank equals
    the number of series: full rank on a prefix of the rows already
    certifies that the series are linearly independent."""
    if not columns:
        return 0
    d = math.lcm(*(s.denom for s in columns))
    grid = [{k * (d // s.denom): v for k, v in s.coeffs.items()} for s in columns]
    limit = math.floor(min(s.order for s in columns) * d)
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot, row with 1 at pivot)
    for key in sorted({k for c in grid for k in c if k <= limit}):
        row = [c.get(key, Fraction(0)) for c in grid]
        for pivot, b in basis:
            f = row[pivot]
            if f:
                row = [x - f * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, [x / row[pivot] for x in row]))
            if len(basis) == len(columns):
                break
    return len(basis)


def compare(
    a: QSeries, b: QSeries, order: RatLike
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """First (exponent, a-coeff, b-coeff) disagreement at exponents <= order.

    Refuses to certify beyond what both operands guarantee.
    """
    order_f = Fraction(order)
    guarantee = min(a.order, b.order)
    if order_f > guarantee:
        raise ValueError(
            f"order {order_f} exceeds the guaranteed truncation {guarantee}"
        )
    d, ca, cb = _on_common_grid(a, b)
    limit = math.floor(order_f * d)
    for k in sorted(set(ca) | set(cb)):
        if k > limit:
            break
        va = ca.get(k, Fraction(0))
        vb = cb.get(k, Fraction(0))
        if va != vb:
            return (Fraction(k, d), va, vb)
    return None


@dataclass
class VerificationReport:
    """Outcome of one identity check at one truncation order."""

    identity_id: str
    params: dict[str, object]
    order: Fraction
    status: str
    first_mismatch: Optional[tuple[Fraction, Fraction, Fraction]]
    runtime_ms: float = 0.0

    def __post_init__(self):
        if (self.status == "pass") != (self.first_mismatch is None):
            raise ValueError("status must be 'pass' exactly when there is no mismatch")


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


def compare_report(
    identity_id: str,
    params: dict[str, object],
    build: Callable[[], tuple[QSeries, QSeries]],
    order: RatLike,
) -> VerificationReport:
    """Build (lhs, rhs) with build() and compare them up to order."""

    def check():
        lhs, rhs = build()
        return order, compare(lhs, rhs, order)

    return run_check(identity_id, params, check)
