"""Exact univariate polynomials over the rationals and the polynomial
identities attached to the genus-zero singlet curve: the curve data
with its parametrization, the weight-root polynomial f_m, the
alternating binomial-sum polynomial with its two factored forms, the
Lagrange interpolation polynomial through the upper weight points, and
the sign recursion that certifies its nonvanishing.

A polynomial RatPoly(vals, content) is stored as `QSeries` stores a
series: integers over one content, coefficient i being vals[i] / content,
normalised by that one constructor, so every kernel works on lists of
Python ints and builds no Fraction."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Sequence

from .report import RatLike, VerificationReport, run_check, value_type

__all__ = [
    "RatPoly",
    "SingletCurve",
    "poly",
    "poly_report",
    "add",
    "sub",
    "mul",
    "scale",
    "compose",
    "shift_arg",
    "from_roots",
    "binom_poly",
    "lagrange",
    "singlet_curve",
    "f_m_poly",
    "f_m_alt_poly",
    "phi_tilde",
    "a_bar_constant",
    "b_constant",
    "verify_phi_identities",
    "interpolation_L",
    "r_poly",
    "verify_s_properties",
    "verify_zhu_suite",
]


class RatPoly(value_type("RatPoly", "vals content")):
    """Dense polynomial, lowest degree first: RatPoly(vals, content) has
    coefficient i equal to vals[i] / content, for integers vals and a
    positive content.  It is stored normalised, so equal polynomials
    have equal fields and hashes: vals is a tuple with no trailing zero
    (() is the zero polynomial, with content 1) and
    gcd(content, *vals) == 1.  `poly` builds one from rational
    coefficients; `coeffs` gives them back as Fractions."""

    __slots__ = ()

    def __new__(cls, vals: Sequence[int], content: int):
        if content < 1:
            raise ValueError("content must be positive")
        hi = len(vals)
        while hi and not vals[hi - 1]:
            hi -= 1
        vals = vals[:hi]
        g = math.gcd(content, *vals)
        if g != 1:
            vals = [v // g for v in vals]
            content //= g
        return tuple.__new__(cls, (tuple(vals), content))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.content) for v in self.vals)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.vals) - 1

    def is_zero(self) -> bool:
        return not self.vals

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.vals[k], self.content) if 0 <= k < len(self.vals) else Fraction(0)

    def __call__(self, t: RatLike) -> Fraction:
        # Horner's rule on integers: with t = num/den and degree n,
        # acc ends at den^n * content * self(t), and power at den^(n+1)
        t = Fraction(t)
        num, den = t.numerator, t.denominator
        acc, power = 0, 1
        for v in reversed(self.vals):
            acc = acc * num + v * power
            power *= den
        return Fraction(acc * den, self.content * power)


def poly(vals: Sequence[RatLike]) -> RatPoly:
    """Build from a coefficient sequence, dropping trailing zeros."""
    cs = [Fraction(v) for v in vals]
    content = math.lcm(*(c.denominator for c in cs))
    return RatPoly([c.numerator * (content // c.denominator) for c in cs], content)


def add(a: RatPoly, b: RatPoly) -> RatPoly:
    """Sum over the lcm of the contents."""
    content = math.lcm(a.content, b.content)
    fa, fb = content // a.content, content // b.content
    return RatPoly([x * fa + y * fb for x, y in zip_longest(a.vals, b.vals, fillvalue=0)], content)


def sub(a: RatPoly, b: RatPoly) -> RatPoly:
    return add(a, scale(b, -1))


def scale(a: RatPoly, c: RatLike) -> RatPoly:
    c = Fraction(c)
    return RatPoly([v * c.numerator for v in a.vals], a.content * c.denominator)


def mul(a: RatPoly, b: RatPoly) -> RatPoly:
    """Product: the integer vectors are convolved over the product of
    the contents."""
    if a.is_zero() or b.is_zero():
        return poly([])
    return RatPoly(_convolve(a.vals, b.vals), a.content * b.content)


def _convolve(va: Sequence[int], vb: Sequence[int]) -> list[int]:
    """Coefficients of the product of two nonempty integer polynomials, a pass per entry of the shorter."""
    long, short = (va, vb) if len(va) >= len(vb) else (vb, va)
    out = [0] * (len(va) + len(vb) - 1)
    for j, y in enumerate(short):
        if y:
            out[j : j + len(long)] = [z + x * y for z, x in zip(out[j : j + len(long)], long)]
    return out


def compose(a: RatPoly, b: RatPoly) -> RatPoly:
    """a(b(t)) by Horner's rule on one integer vector: with
    a = va/da and b = vb/db, acc <- acc*vb + va[k]*db^(n-k) for k from
    n = deg a down to 0 ends at da*db^n * a(b(t))."""
    if a.is_zero() or b.is_zero():
        return poly([a.coeff(0)])
    acc, power = [a.vals[-1]], 1
    for c in reversed(a.vals[:-1]):
        power *= b.content
        acc = _convolve(acc, b.vals)
        acc[0] += c * power
    return RatPoly(acc, a.content * power)


def shift_arg(a: RatPoly, c: RatLike) -> RatPoly:
    """a(t + c)."""
    return compose(a, poly([c, 1]))


def from_roots(roots: Sequence[RatLike]) -> RatPoly:
    """Monic polynomial with the given roots (with multiplicity): one
    integer vector is multiplied in place by den*t - num for each root
    num/den, and the product of the den is the content."""
    acc, content = [1], 1
    for r in roots:
        r = Fraction(r)
        num, den = r.numerator, r.denominator
        acc.append(0)
        acc[1:] = [den * x - num * y for x, y in zip(acc, acc[1:])]
        acc[0] *= -num
        content *= den
    return RatPoly(acc, content)


def binom_poly(r: int, arg_shift: RatLike = 0) -> RatPoly:
    """binom(t + arg_shift, r) as the falling-factorial polynomial
    (t + arg_shift)(t + arg_shift - 1)...(t + arg_shift - r + 1)/r!."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    shift = Fraction(arg_shift)
    return scale(from_roots([j - shift for j in range(r)]), Fraction(1, math.factorial(r)))


def lagrange(points: Sequence[tuple[RatLike, RatLike]]) -> RatPoly:
    """Interpolation polynomial through points with distinct abscissae."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("abscissae must be distinct")
    acc = poly([])
    for i, (_, y) in enumerate(points):
        num = from_roots([x for j, x in enumerate(xs) if j != i])
        acc = add(acc, scale(num, Fraction(y) / num(xs[i])))
    return acc


def _from_values(values: Sequence[int]) -> RatPoly:
    """The polynomial of degree at most n = len(values) - 1 that takes
    the integer value values[t] at t = 0..n.

    With the forward differences D_k of the values at 0,
    g(t) = sum_k D_k binom(t,k), so n! g(t) = sum_k D_k (n!/k!) t(t-1)...(t-k+1);
    that integer polynomial is expanded in Newton-Horner form over content n!."""
    n = len(values) - 1
    diffs = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    # acc holds sum_{j>=k} D_j (n!/j!) (t-k)(t-k-1)...(t-j+1), lowest degree first
    acc = [diffs[n]]
    scale_k = 1
    for k in range(n - 1, -1, -1):
        scale_k *= k + 1
        acc.append(0)
        acc[1:] = [x - k * y for x, y in zip(acc, acc[1:])]
        acc[0] = diffs[k] * scale_k - k * acc[0]
    return RatPoly(acc, scale_k)


def _first_difference(a: RatPoly, b: RatPoly) -> tuple[Fraction, Fraction, Fraction] | None:
    """(index, a-coeff, b-coeff) of the lowest differing coefficient."""
    if a == b:
        return None
    for k, (x, y) in enumerate(zip_longest(a.vals, b.vals, fillvalue=0)):
        if x * b.content != y * a.content:
            return Fraction(k), Fraction(x, a.content), Fraction(y, b.content)
    return None


def poly_report(
    identity_id: str, params: dict[str, object], build: Callable[[], tuple[RatPoly, RatPoly]]
) -> VerificationReport:
    """Build (a, b) with build() and compare them coefficient by
    coefficient; the report order is the larger degree."""

    def check():
        a, b = build()
        return max(a.degree(), b.degree(), 0), _first_difference(a, b)

    return run_check(identity_id, params, check)


# -- singlet curve and weight polynomials -------------------------------------


class SingletCurve(value_type("SingletCurve", "m Cm p_x x_param y_param")):
    """Genus-zero curve y^2 = p_x(x) with its rational parametrization
    x = x_param(t), y = y_param(t); Cm is the leading coefficient of p_x."""

    __slots__ = ()


def _weight(m: int, r: int) -> Fraction:
    """The conformal weight h^{r,1} = ((2m+1-r)^2 - 4m^2) / (8(2m+1))."""
    p = 2 * m + 1
    return Fraction((p - r) ** 2 - 4 * m * m, 8 * p)


def _weights(m: int, count: int) -> list[Fraction]:
    return [_weight(m, 2 * i + 1) for i in range(count)]


def _x_param(m: int) -> RatPoly:
    return scale(poly([0, -2 * m, 1]), Fraction(1, 2 * (2 * m + 1)))


def singlet_curve(m: int) -> SingletCurve:
    """Curve data; the parametrization identity
    y_param^2 = p_x(x_param) is checked symbolically at construction."""
    if m < 1:
        raise ValueError("m must be positive")
    Cm = Fraction((2 * (2 * m + 1)) ** (2 * m + 1), math.factorial(2 * m + 1) ** 2)
    p_x = scale(from_roots(_weights(m, 2 * m + 1)), Cm)
    x_param = _x_param(m)
    y_param = binom_poly(2 * m + 1)
    if not sub(mul(y_param, y_param), compose(p_x, x_param)).is_zero():
        raise AssertionError("curve parametrization check failed")
    return SingletCurve(m, Cm, p_x, x_param, y_param)


def f_m_poly(m: int) -> RatPoly:
    """Monic polynomial of degree 3m+1 whose roots are the weights
    h^{2i+1,1} for i = 0..3m."""
    if m < 1:
        raise ValueError("m must be positive")
    return from_roots(_weights(m, 3 * m + 1))


def f_m_alt_poly(m: int) -> RatPoly:
    """The same polynomial assembled from the squared-factor form:
    (x - h^{2m+1,1}) prod_{i<m} (x - h^{2i+1,1})^2
    prod_{i=2m+1..3m} (x - h^{2i+1,1})."""
    if m < 1:
        raise ValueError("m must be positive")
    ws = _weights(m, 3 * m + 1)
    roots = [ws[m]]
    for i in range(m):
        roots += [ws[i], ws[i]]
    roots += ws[2 * m + 1 :]
    return from_roots(roots)


# -- the alternating binomial-sum polynomial ----------------------------------


def phi_tilde(m: int) -> RatPoly:
    """sum_{k=0}^{2m} (-1)^k binom(2m,k) binom(t,4m+1-k) binom(t,2m+1+k).

    Every term is a product of falling factorials of degrees 4m+1-k and
    2m+1+k, so the sum has degree at most 6m+2, and its 6m+3 integer
    values at t = 0..6m+2 fix it exactly; they are interpolated by the
    Newton expansion `_from_values`."""
    if m < 1:
        raise ValueError("m must be positive")
    return _from_values([
        sum((-1) ** k * math.comb(2 * m, k) * math.comb(t, 4 * m + 1 - k) * math.comb(t, 2 * m + 1 + k)
            for k in range(2 * m + 1))
        for t in range(6 * m + 3)
    ])


def a_bar_constant(m: int) -> Fraction:
    """(-1)^m binom(2m,m) / binom(4m+1,m)."""
    return Fraction((-1) ** m * math.comb(2 * m, m), math.comb(4 * m + 1, m))


def b_constant(m: int) -> Fraction:
    """(-1)^m binom(2m,m) (2(2m+1))^{3m+1} / (binom(4m+1,m) ((3m+1)!)^2)."""
    num = (-1) ** m * math.comb(2 * m, m) * (2 * (2 * m + 1)) ** (3 * m + 1)
    den = math.comb(4 * m + 1, m) * math.factorial(3 * m + 1) ** 2
    return Fraction(num, den)


def verify_phi_identities(m: int) -> list[VerificationReport]:
    """The binomial-sum polynomial against its two factored forms: the
    product binom(t,3m+1)binom(t+m,3m+1) scaled by a_bar_constant, and
    the composition b_constant * f_m(x_param(t))."""
    if m < 1:
        raise ValueError("m must be positive")
    phi = None

    def binom_product():
        nonlocal phi  # built inside the first check's timer and reused by the second
        phi = phi_tilde(m)
        return phi, scale(mul(binom_poly(3 * m + 1), binom_poly(3 * m + 1, arg_shift=m)), a_bar_constant(m))

    def composition():
        return phi, scale(compose(f_m_poly(m), _x_param(m)), b_constant(m))

    return [poly_report("phi-binom-product", {"m": m}, binom_product),
            poly_report("phi-fm-composition", {"m": m}, composition)]


# -- interpolation polynomial and the sign recursion --------------------------


def interpolation_L(m: int) -> RatPoly:
    """Lagrange polynomial through (h^{2i+1,1}, binom(i,2m+1)) for
    i = 2m+1..3m; degree m-1."""
    if m < 1:
        raise ValueError("m must be positive")
    points = [
        (_weight(m, 2 * i + 1), Fraction(math.comb(i, 2 * m + 1)))
        for i in range(2 * m + 1, 3 * m + 1)
    ]
    return lagrange(points)


def _r_closed_form(m: int) -> RatPoly:
    # (1/(2m+1)!) sum_i c_i [(t-2m+i) - (t-i)] prod_{j != i} (t-j)(t-2m+j)
    # over i = 2m+1..3m, with
    # c_i = (i!)^2 (-1)^{i+m} / ((i-2m-1)!^2 (3m-i)! (i+m)!)
    acc = poly([])
    idx = range(2 * m + 1, 3 * m + 1)
    for i in idx:
        c = Fraction(
            math.factorial(i) ** 2 * (-1) ** (i + m),
            math.factorial(i - 2 * m - 1) ** 2
            * math.factorial(3 * m - i)
            * math.factorial(i + m),
        )
        rest = from_roots([j for j in idx if j != i] + [2 * m - j for j in idx if j != i])
        acc = add(acc, scale(rest, c * (2 * i - 2 * m)))
    return scale(acc, Fraction(1, math.factorial(2 * m + 1)))


def r_poly(m: int) -> RatPoly:
    """interpolation_L composed with the curve's x-parametrization;
    checked at construction against the closed-form expansion."""
    r = compose(interpolation_L(m), _x_param(m))
    if not sub(r, _r_closed_form(m)).is_zero():
        raise AssertionError("closed form for the composed interpolant failed")
    return r


def _s_denominator(m: int) -> RatPoly:
    idx = range(2 * m + 1, 3 * m + 1)
    return from_roots([j for j in idx] + [2 * m - j for j in idx])


def verify_s_properties(m: int) -> VerificationReport:
    """One report covering: the three-term recursion
    s(t)(m+t)(2m+1-t)^2 = 2(m+1-t)(2m^2+2tm-2-t^2+2t)s(t-1)
                          + (t-1)^2(3m+2-t)s(t-2)
    for s = r/denominator as an exact rational-function identity, checked
    on exact values at t = 3m+3 .. 3m+3+order, the sign conditions
    s(0) < 0 and s(1) < 0, and interpolation_L being nonzero at
    h^{2i+1,1} for i = 0..m.

    On failure, first_mismatch holds (t, lhs(t), rhs(t)) for the
    recursion, (t, s(t), 0) for a sign check, or (weight, value, 0)
    for a vanishing interpolant value."""
    if m < 1:
        raise ValueError("m must be positive")

    def check():
        r = r_poly(m)
        den = _s_denominator(m)
        # Clearing the denominators, the recursion is P(t) = 0 for a polynomial P of degree
        # at most order = 3 + deg r + 2 deg den.  den's roots lie in [-m, -1] and
        # [2m+1, 3m], so no den(t-j), j = 0..2, vanishes at the order + 1 points
        # t > 3m+2 below: the recursion holding there proves P = 0.
        order = 3 + r.degree() + 2 * den.degree()
        ts = range(3 * m + 1, 3 * m + 4 + order)
        s = {t: r(t) / den(t) for t in ts}
        for t in ts[2:]:
            lhs = (m + t) * (2 * m + 1 - t) ** 2 * s[t]
            rhs = (2 * (m + 1 - t) * (2 * m * m + 2 * t * m - 2 - t * t + 2 * t) * s[t - 1]
                   + (t - 1) ** 2 * (3 * m + 2 - t) * s[t - 2])
            if lhs != rhs:
                return order, (Fraction(t), lhs, rhs)
        for t in (0, 1):
            value = r(t) / den(t)
            if not value < 0:
                return order, (Fraction(t), value, Fraction(0))
        # h^{2i+1,1} = x_param(i), so L(h^{2i+1,1}) = r(i)
        for i in range(m + 1):
            if r(i) == 0:
                return order, (_weight(m, 2 * i + 1), Fraction(0), Fraction(0))
        return order, None

    return run_check("s-properties", {"m": m}, check)


def verify_zhu_suite(m: int) -> list[VerificationReport]:
    """The phi identities, then the s-properties check."""
    return [*verify_phi_identities(m), verify_s_properties(m)]
