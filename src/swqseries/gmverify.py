"""The quadruple binomial sum G_m(t): exact evaluation, interpolation
to a polynomial under the proven degree bound, comparison against the
conjectured closed form binom(2m,m)^2 binom(t+m,4m+1), and the mod-p
residue check at t = 3m+1."""

from __future__ import annotations

import math
from fractions import Fraction

from . import zhupoly as zp
from .qseries import VerificationReport, run_check
from .zhupoly import RatPoly

__all__ = [
    "gm_value",
    "gm_poly",
    "verify_gm_conjecture",
    "gm_mod_p",
]


def _binom(a: int, b: int) -> int:
    """Falling-factorial binomial: a(a-1)...(a-b+1)/b!, zero for b < 0."""
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b)
    return (-1) ** b * math.comb(b - a - 1, b)


def gm_value(m: int, t: int) -> Fraction:
    """Exact value of the quadruple sum at integer t."""
    if m < 1:
        raise ValueError("m must be positive")
    p = 2 * m + 1
    total = 0
    for l in range(1, p + 1):
        cl = math.comb(p, l)
        for i in range(l):
            for j in range(p + i - l + 1):
                cj = _binom(-p, j)
                for k in range(l - i):
                    term = (
                        cl
                        * cj
                        * _binom(-p, k)
                        * _binom(2 * m - t, j + k + p)
                        * _binom(t, i - j - l + p)
                        * _binom(t, l - k - 1 - i)
                    )
                    if (j + k + l) % 2:
                        total -= term
                    else:
                        total += term
    return Fraction(total)


def gm_poly(m: int) -> RatPoly:
    """The unique polynomial of degree at most 4m+1 through the values
    at t = 0..4m+1, consistency-checked at t = 4m+2 and 4m+3."""
    if m < 1:
        raise ValueError("m must be positive")
    points = [(Fraction(t), gm_value(m, t)) for t in range(4 * m + 2)]
    g = zp.lagrange(points)
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
