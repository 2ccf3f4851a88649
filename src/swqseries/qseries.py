"""Truncated formal power series in q with exact rational coefficients.

Exponents are rationals with a fixed denominator per series; every series
carries an inclusive truncation order: all terms with exponent <= order are
exactly represented, nothing is claimed beyond it.  Arithmetic propagates the
guaranteed order, so a comparison can refuse to certify more than the operands
support.

A series is a normalised namedtuple QSeries(denom, base, stride, vals,
content, order) over exact integers: slot i of the tuple `vals` is the
coefficient vals[i] / content at exponent (base + i*stride) / denom, so
every kernel works on Python ints and builds no Fraction.  That
constructor is the only way to build one (`_make`, `_replace`, pickle
and copy run it too), and it normalises its fields.  Being a tuple, a
series cannot change once built, so the caches that share one series
across checks hand every caller the same value.

Reports come from `report.run_check`, the only report constructor and the
only timer in the package; `compare_report` runs it on a comparison of two
series.  `VerificationReport`, `run_check` and `RatLike` are defined in
`report` and re-exported here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .report import RatLike, VerificationReport, _pack, _unpack, run_check, value_type

__all__ = [
    "QSeries",
    "VerificationReport",
    "make_series",
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


class QSeries(value_type("QSeries", "denom base stride vals content order")):
    """Finite q-expansion with exponents in (1/denom)*Z and a truncation order.

    QSeries(denom, base, stride, vals, content, order) is the series
    with coefficient vals[i] / content at exponent (base + i*stride) / denom,
    for positive denom, stride and content, stored normalised, so equal
    series have equal fields and hashes: `vals` is a tuple, empty (the
    zero series, with denom 1) or starting and ending with a nonzero
    slot; gcd(content, *vals) == 1, so content is the lcm of the
    coefficient denominators; stride is the gcd of the exponent
    numerator differences of the nonzero slots (1 for a single term);
    denom is the gcd-reduced common denominator of the exponents.
    `coeffs` gives the nonzero coefficients as a dict mapping exponent
    numerators (exponent = numer/denom) to Fractions, built anew on each
    access; no kernel reads it.
    """

    __slots__ = ()

    def __new__(cls, denom: int, base: int, stride: int, vals: Sequence[int], content: int, order):
        if denom < 1 or stride < 1 or content < 1:
            raise ValueError("denom, stride and content must be positive")
        denom, base, stride, vals, content = _normalise(denom, base, stride, vals, content)
        return tuple.__new__(cls, (denom, base, stride, tuple(vals), content, order))

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """Exponent numerator -> nonzero coefficient."""
        base, stride, content = self.base, self.stride, self.content
        return {base + i * stride: Fraction(v, content) for i, v in enumerate(self.vals) if v}

    # -- inspection helpers -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.vals

    def leading(self) -> tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the lowest-order term."""
        if not self.vals:
            raise ValueError("zero series has no leading term")
        return Fraction(self.base, self.denom), Fraction(self.vals[0], self.content)

    def coeff(self, exponent: RatLike) -> Fraction:
        """Coefficient at the given exponent; raises beyond the guarantee."""
        e = Fraction(exponent)
        if e > self.order:
            raise ValueError(f"exponent {e} exceeds truncation order {self.order}")
        k = e * self.denom
        if k.denominator != 1:
            return Fraction(0)
        i, r = divmod(int(k) - self.base, self.stride)
        if r or not 0 <= i < len(self.vals):
            return Fraction(0)
        return Fraction(self.vals[i], self.content)

    def terms(self) -> list[tuple[Fraction, Fraction]]:
        """Sorted (exponent, coefficient) pairs."""
        base, stride, denom, content = self.base, self.stride, self.denom, self.content
        return [
            (Fraction(base + i * stride, denom), Fraction(v, content))
            for i, v in enumerate(self.vals)
            if v
        ]

    def __repr__(self) -> str:
        ts = self.terms()
        shown = ", ".join(f"{c}*q^{e}" for e, c in ts[:6])
        if len(ts) > 6:
            shown += ", ..."
        return f"QSeries([{shown}]; order={self.order})"


def _zero(order) -> QSeries:
    return QSeries(1, 0, 1, (), 1, order)


def _span(a: QSeries) -> int:
    """Exponent numerator step between slots; 0 when it is undetermined."""
    return a.stride if len(a.vals) > 1 else 0


def _normalise(denom: int, base: int, stride: int, vals: Sequence[int], content: int) -> tuple:
    """The normalised (denom, base, stride, vals, content) of the series
    with coefficient vals[i] / content at exponent (base + i*stride) / denom,
    for positive content; vals may be returned as is."""
    hi = len(vals)
    while hi and not vals[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not vals[lo]:
        lo += 1
    if lo == hi:
        return 1, 0, 1, (), 1
    if lo or hi < len(vals):
        vals = vals[lo:hi]
        base += lo * stride
    if content != 1:
        g = math.gcd(content, *vals)
        if g > 1:
            vals = [v // g for v in vals]
            content //= g
    if len(vals) > 2 and not vals[1]:
        # the nonzero slots may sit on a coarser lattice
        g = 0
        for i, v in enumerate(vals):
            if v:
                g = math.gcd(g, i)
                if g == 1:
                    break
        if g > 1:
            vals = vals[::g]
            stride *= g
    # a single term has stride 1 and leaves only denom and base to reduce
    span = stride if len(vals) > 1 else 0
    g = math.gcd(denom, base, span)
    if g > 1:
        denom, base, span = denom // g, base // g, span // g
    return denom, base, span or 1, vals, content


def _on_common_lattice(series: list[QSeries], order) -> tuple[int, int, int, int, list[list[int]]]:
    """(d, base, stride, content, dense) for series on their common
    exponent grid (1/d) Z: dense[j][i] / content is the coefficient of
    series[j] at exponent (base + i*stride) / d, for every such exponent
    up to order, and base + i*stride runs over every key any of them
    holds there."""
    d = math.lcm(*(s.denom for s in series))
    limit = order.numerator * d // order.denominator
    live = [s for s in series if s.vals]
    if not live:
        return d, 0, 1, 1, [[] for _ in series]
    bases = [s.base * (d // s.denom) for s in live]
    spans = [_span(s) * (d // s.denom) for s in live]
    base = min(bases)
    stride = math.gcd(*(b - base for b in bases), *spans) or 1
    top = min(limit, max(b + sp * (len(s.vals) - 1) for b, sp, s in zip(bases, spans, live)))
    n = (top - base) // stride + 1 if top >= base else 0
    content = math.lcm(*(s.content for s in live))
    dense = []
    for s in series:
        v = [0] * n
        m = d // s.denom
        off = (s.base * m - base) // stride
        if s.vals and off < n:
            step = _span(s) * m // stride or 1
            cnt = min(len(s.vals), (n - 1 - off) // step + 1)
            f = content // s.content
            part = s.vals[:cnt] if f == 1 else [x * f for x in s.vals[:cnt]]
            v[off : off + (cnt - 1) * step + 1 : step] = part
        dense.append(v)
    return d, base, stride, content, dense


# -- constructors -----------------------------------------------------------


def make_series(terms: Iterable[tuple[RatLike, RatLike]], order: RatLike) -> QSeries:
    """Build a series from (exponent, coefficient) pairs.

    Rejects duplicate exponents and exponents beyond the stated order.
    """
    order_f = Fraction(order)
    coeffs: dict[Fraction, Fraction] = {}
    for e_raw, c_raw in terms:
        e = Fraction(e_raw)
        if e in coeffs:
            raise ValueError(f"duplicate exponent {e}")
        if e > order_f:
            raise ValueError(f"exponent {e} exceeds order {order_f}")
        coeffs[e] = Fraction(c_raw)
    denom = math.lcm(1, *(e.denominator for e in coeffs))
    return _from_coeffs(denom, {int(e * denom): c for e, c in coeffs.items()}, order_f)


def _from_coeffs(denom: int, coeffs: dict[int, int | Fraction], order) -> QSeries:
    """The series with coefficient coeffs[k] at exponent k/denom, for
    int or Fraction coefficients; the slots lie on the lattice of the
    keys, so sparse exponents stay compact."""
    coeffs = {k: c for k, c in coeffs.items() if c}
    if not coeffs:
        return _zero(order)
    base = min(coeffs)
    stride = math.gcd(*(k - base for k in coeffs)) or 1
    content = math.lcm(*(c.denominator for c in coeffs.values()))
    vals = [0] * ((max(coeffs) - base) // stride + 1)
    for k, c in coeffs.items():
        vals[(k - base) // stride] = c.numerator * (content // c.denominator)
    return QSeries(denom, base, stride, vals, content, order)


def one(order: RatLike) -> QSeries:
    """1, exact to the order: below q^0, the zero series."""
    return QSeries(1, 0, 1, (1,) if Fraction(order) >= 0 else (), 1, Fraction(order))


# -- linear operations ------------------------------------------------------


def add(a: QSeries, b: QSeries) -> QSeries:
    """Sum, truncated to the smaller guarantee."""
    order = min(a.order, b.order)
    d, base, stride, content, (va, vb) = _on_common_lattice([a, b], order)
    return QSeries(d, base, stride, [x + y for x, y in zip(va, vb)], content, order)


def scale(a: QSeries, c: RatLike) -> QSeries:
    c = Fraction(c)
    if not c:
        return _zero(a.order)
    vals = [v * c.numerator for v in a.vals] if c.numerator != 1 else a.vals
    return QSeries(a.denom, a.base, a.stride, vals, a.content * c.denominator, a.order)


def sub(a: QSeries, b: QSeries) -> QSeries:
    return add(a, scale(b, -1))


def shift(a: QSeries, e: RatLike) -> QSeries:
    """Multiply by q^e; the guarantee moves with the terms."""
    e = Fraction(e)
    d = math.lcm(a.denom, e.denominator)
    m = d // a.denom
    base = a.base * m + e.numerator * (d // e.denominator)
    return QSeries(d, base, a.stride * m, a.vals, a.content, a.order + e)


def truncate(a: QSeries, order: RatLike) -> QSeries:
    """Lower the guaranteed order, discarding terms beyond it."""
    order_f = Fraction(order)
    if order_f > a.order:
        raise ValueError(f"cannot raise order {a.order} to {order_f}")
    limit = order_f.numerator * a.denom // order_f.denominator
    n = (limit - a.base) // a.stride + 1 if limit >= a.base else 0
    return QSeries(a.denom, a.base, a.stride, a.vals[:n], a.content, order_f)


# -- multiplicative operations ----------------------------------------------


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Product. Order: min(a.order + lead(b), b.order + lead(a)),
    where a zero factor counts as lead = +infinity; the result is then
    the zero series at order zero.order + lead(other).

    Kronecker substitution: each operand packs its slots below the output
    length into one big integer, step = (its stride / the product's)
    digits apart; a single integer product carries every numerator of
    the truncated product as one signed digit, over a.content * b.content."""
    if a.is_zero() and b.is_zero():
        return _zero(a.order + b.order)
    if a.is_zero():
        return _zero(a.order + b.leading()[0])
    if b.is_zero():
        return _zero(b.order + a.leading()[0])
    oa, ob = a.order, b.order
    order = min(
        Fraction(oa.numerator * b.denom + b.base * oa.denominator, oa.denominator * b.denom),
        Fraction(ob.numerator * a.denom + a.base * ob.denominator, ob.denominator * a.denom),
    )
    d = math.lcm(a.denom, b.denom)
    ma, mb = d // a.denom, d // b.denom
    sa, sb = _span(a) * ma, _span(b) * mb
    stride = math.gcd(sa, sb) or 1
    base = a.base * ma + b.base * mb
    n_out = (order.numerator * d - base * order.denominator) // (stride * order.denominator) + 1
    if n_out <= 0:
        return _zero(order)
    step_a, step_b = sa // stride or 1, sb // stride or 1  # a single slot has span 0
    va = a.vals[: (n_out - 1) // step_a + 1]
    vb = b.vals[: (n_out - 1) // step_b + 1]
    n_out = min(n_out, (len(va) - 1) * step_a + (len(vb) - 1) * step_b + 1)
    # a digit sums at most min(nonzero terms of a, of b) products
    terms = min(len(a.vals) - a.vals.count(0), len(b.vals) - b.vals.count(0))
    bits = max(map(abs, va)).bit_length() + max(map(abs, vb)).bit_length() + terms.bit_length() + 2
    width = (bits + 7) // 8
    vals = _unpack(_pack(va, width, step_a) * _pack(vb, width, step_b), width, n_out)
    return QSeries(d, base, stride, vals, a.content * b.content, order)


def invert(a: QSeries) -> QSeries:
    """Multiplicative inverse of an integer series (content 1) whose
    leading coefficient is +1 or -1; order drops to a.order - 2*lead(a)."""
    if a.is_zero():
        raise ValueError("cannot invert the zero series")
    vals = a.vals
    v0 = vals[0]
    if a.content != 1 or v0 not in (1, -1):
        raise ValueError("invert takes an integer series whose leading coefficient is +1 or -1")
    e0 = Fraction(a.base, a.denom)
    order = a.order - 2 * e0
    span = _span(a)
    top = max(int((order + e0) * a.denom), 0) // span if span else 0
    # slot n of the inverse, r_n, solves sum_k vals[k] r_{n-k} = [n = 0]:
    # r_0 = v0 and r_n = -v0 sum_{k>=1} vals[k] r_{n-k}, as 1/v0 = v0
    w = [(k, v0 * vals[k]) for k in range(1, min(top, len(vals) - 1) + 1) if vals[k]]
    r = [v0] + [0] * top
    for n in range(1, top + 1):
        acc = 0
        for k, x in w:
            if k > n:
                break
            acc += x * r[n - k]
        r[n] = -acc
    return QSeries(a.denom, -a.base, a.stride, r, 1, order)


def substitute_power(a: QSeries, r: RatLike) -> QSeries:
    """Substitute q -> q^r for positive rational r; order scales by r."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("substitution power must be positive")
    return QSeries(
        a.denom * r.denominator, a.base * r.numerator, a.stride * r.numerator, a.vals, a.content, a.order * r
    )


def pochhammer(
    start: RatLike,
    step: RatLike,
    sign: int,
    count: Optional[int],
    order: RatLike,
) -> QSeries:
    """Product of (1 + sign * q^{start + n*step}) for n = 0..count-1.

    count=None means the infinite product; factors beyond the order are 1.
    At a negative order the result keeps its constant term 1 beyond the
    order, so that `invert` still has a leading term to divide by; as
    nothing is claimed beyond the order, that term is not a claim.
    """
    start_f, step_f, order_f = Fraction(start), Fraction(step), Fraction(order)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if start_f <= 0:
        raise ValueError("start must be positive")
    if count is None:
        if step_f <= 0:
            raise ValueError("infinite product needs positive step")
    elif count < 0:
        raise ValueError("count must be nonnegative")
    elif step_f < 0 and count > 1:
        raise ValueError("step must be nonnegative for finite products")
    d = math.lcm(start_f.denominator, step_f.denominator)
    top = order_f.numerator * d // order_f.denominator
    ke, ke_step = start_f.numerator * (d // start_f.denominator), step_f.numerator * (d // step_f.denominator)
    # factors beyond the order are 1; the exponents used never decrease
    if ke > top:
        count = 0
    elif ke_step > 0:
        below = (top - ke) // ke_step + 1
        count = below if count is None else min(count, below)
    # every exponent used is a multiple of g: slot i holds exponent i*g/d
    g = (math.gcd(ke, ke_step) if count > 1 else ke) or 1
    out = [1] + [0] * max(top // g, 0)
    for n in range(count):
        e = (ke + n * ke_step) // g
        if sign > 0:
            out[e:] = [x + y for x, y in zip(out[e:], out)]
        else:
            out[e:] = [x - y for x, y in zip(out[e:], out)]
    return QSeries(d, 0, g, out, 1, order_f)


# -- comparison and reporting ------------------------------------------------


def prefix_rank(columns: list[QSeries]) -> int:
    """Rank of the coefficient vectors of the given series, by exact
    elimination over exponent rows taken in increasing order up to the
    smallest guaranteed order.  Elimination stops once the rank equals
    the number of series: full rank on a prefix of the rows already
    certifies that the series are linearly independent."""
    if not columns:
        return 0
    *_, dense = _on_common_lattice(columns, min(s.order for s in columns))
    # fraction-free: rows are integer multiples of the exact rows, and a
    # basis row is zero at the pivots of the rows before it
    basis: list[tuple[int, list[int]]] = []
    for row in zip(*dense):
        if not any(row):
            continue
        for pivot, b in basis:
            f = row[pivot]
            if f:
                bp = b[pivot]
                row = [x * bp - f * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is not None:
            g = math.gcd(*row)
            basis.append((pivot, [x // g for x in row]))
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
    d, base, stride, content, (va, vb) = _on_common_lattice([a, b], order_f)
    if va == vb:
        return None
    i = next(i for i, (x, y) in enumerate(zip(va, vb)) if x != y)
    return Fraction(base + i * stride, d), Fraction(va[i], content), Fraction(vb[i], content)


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
