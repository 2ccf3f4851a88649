"""The quadruple binomial sum G_m(t): exact evaluation, interpolation
to a polynomial under the proven degree bound, comparison against the
conjectured closed form binom(2m,m)^2 binom(t+m,4m+1), and the mod-p
residue check at t = 3m+1."""

from __future__ import annotations

import math
from fractions import Fraction

from . import zhupoly as zp
from .report import VerificationReport, run_check
from .zhupoly import RatPoly

__all__ = [
    "gm_value",
    "gm_poly",
    "verify_gm_conjecture",
    "gm_mod_p",
    "verify_gm_suite",
]


def _binom(a: int, b: int) -> int:
    """Falling-factorial binomial: a(a-1)...(a-b+1)/b!, zero for b < 0."""
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b)
    return (-1) ** b * math.comb(b - a - 1, b)


def gm_value(m: int, t: int) -> Fraction:
    """Exact value of the quadruple sum at integer t.

    The summand depends on its outer indices l and i only through
    (-1)^l binom(p,l) and d = l - i, with p = 2m+1, so the sum over l
    is done in closed form:
    W_d = sum_{l=d}^{p} (-1)^l binom(p,l) = (-1)^d binom(p-1,d-1), and

    G = sum_{d=1}^{p} W_d sum_{j<=p-d, k<d} a_j a_k binom(t,p-d-j)
        binom(t,d-1-k) binom(2m-t,j+k+p)

    with a_j = (-1)^j binom(-p,j) = binom(p+j-1,j).  The three binomial
    rows are built once, so the sum costs O(p^3) integer products."""
    if m < 1:
        raise ValueError("m must be positive")
    p = 2 * m + 1
    a = [math.comb(p + j - 1, j) for j in range(p)]
    ct = [_binom(t, n) for n in range(p)]
    cs = [_binom(2 * m - t, n + p) for n in range(p)]
    total = 0
    for d in range(1, p + 1):
        v = [a[k] * ct[d - 1 - k] for k in range(d)]
        inner = 0
        for j in range(p - d + 1):
            u = a[j] * ct[p - d - j]
            if u:
                inner += u * sum(x * y for x, y in zip(v, cs[j:]))
        total += (-1) ** d * math.comb(p - 1, d - 1) * inner
    return Fraction(total)


def gm_poly(m: int) -> RatPoly:
    """The unique polynomial of degree at most 4m+1 through the values
    at t = 0..4m+1, consistency-checked at t = 4m+2 and 4m+3.

    With n = 4m+1 and the forward differences D_k of the values at 0,
    g(t) = sum_k D_k binom(t,k), so n! g(t) = sum_k D_k (n!/k!) t(t-1)...(t-k+1);
    that integer polynomial is expanded in Newton-Horner form over content n!."""
    if m < 1:
        raise ValueError("m must be positive")
    n = 4 * m + 1
    diffs = []
    row = [gm_value(m, t).numerator for t in range(n + 1)]
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
    g = zp._normalise(acc, scale_k)
    for t in (4 * m + 2, 4 * m + 3):
        if g(t) != gm_value(m, t):
            raise RuntimeError(f"degree bound violated at t = {t} for m = {m}")
    return g


def verify_gm_conjecture(m: int) -> VerificationReport:
    """gm_poly against binom(2m,m)^2 binom(t+m,4m+1), coefficient by
    coefficient."""

    def build():
        g = gm_poly(m)
        return g, zp.scale(zp.binom_poly(4 * m + 1, arg_shift=m), math.comb(2 * m, m) ** 2)

    return zp.poly_report("gm-conjecture", {"m": m}, build)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def gm_mod_p(m: int) -> VerificationReport:
    """Residue of the value at t = 3m+1 modulo p = 2m+1 (prime): pass
    iff it is 1.  The exact rational is checked to be p-integral before
    reduction.  On failure, first_mismatch is (3m+1, residue, 1)."""
    p = 2 * m + 1
    if not _is_prime(p):
        raise ValueError("mod-p argument requires prime 2m+1")

    def check():
        value = gm_value(m, 3 * m + 1)
        if value.denominator % p == 0:
            raise AssertionError("value is not p-integral")
        residue = value.numerator * pow(value.denominator, -1, p) % p
        at = Fraction(3 * m + 1)
        return at, None if residue == 1 else (at, Fraction(residue), Fraction(1))

    return run_check("gm-mod-p", {"m": m, "p": p}, check)


def verify_gm_suite(m: int) -> list[VerificationReport]:
    """The G_m conjecture, then the mod-p residue check when p = 2m+1 is prime."""
    return [verify_gm_conjecture(m), *([gm_mod_p(m)] if _is_prime(2 * m + 1) else [])]
