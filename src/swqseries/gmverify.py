"""The quadruple binomial sum G_m(t): exact evaluation, interpolation
to a polynomial under the proven degree bound, comparison against the
conjectured closed form binom(2m,m)^2 binom(t+m,4m+1), and the mod-p
residue check at t = 3m+1."""

from __future__ import annotations

import math
from fractions import Fraction

from . import zhupoly as zp
from .report import VerificationReport, _unpack, run_check
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


def gm_value(m: int, t: int) -> int:
    """Exact value of the quadruple sum at integer t, an int.

    The summand depends on its outer indices l and i only through
    (-1)^l binom(p,l) and d = l - i, with p = 2m+1, so the sum over l
    is done in closed form:
    W_d = sum_{l=d}^{p} (-1)^l binom(p,l) = (-1)^d binom(p-1,d-1), and

    G = sum_{d=1}^{p} W_d sum_{j<=p-d, k<d} a_j a_k binom(t,p-d-j)
        binom(t,d-1-k) binom(2m-t,j+k+p)

    with a_j = (-1)^j binom(-p,j) = binom(p+j-1,j).  With the polynomials
    U_N(X) = sum_{j<=N} a_j binom(t,N-j) X^j this is

    G = sum_{s<p} binom(2m-t,s+p) [X^s] E(X),  E = sum_d W_d U_{p-d} U_{d-1},

    and E is evaluated at X = 2^w (Kronecker substitution): each U_N
    (as V_N below) is packed into one integer, and as W_{p+1-d} = W_d
    the d and p+1-d terms are equal, so E costs m+1 big-integer
    products.

    Zero points: for 0 <= t <= 2m, 0 <= 2m-t < p, so every
    binom(2m-t,s+p) vanishes and G = 0.

    Signs: for t < 0, binom(t,n) = (-1)^n |binom(t,n)|, so
    U_N(X) = (-1)^N V_N(-X) with V_N built from |binom(t,.)|, and as
    p-1 is even, U_{p-d} U_{d-1} = (V_{p-d} V_{d-1})(-X).  The packed
    digits a_j |binom(t,N-j)| are thus nonnegative for every t, and the
    sign (-1)^s moves onto the read-off.

    Width lemma: let M be the largest coefficient of the V_N, N < p;
    M <= AB with A = max_j a_j = a_{p-1} and B = max_{n<p} |binom(t,n)|.
    [X^s] V_{p-d} V_{d-1} is a sum of at most s+1 <= p products, each
    at most M^2, and sum_d |W_d| = sum_d binom(p-1,d-1) = 2^{p-1}.
    Hence every e_s = [X^s] E satisfies |e_s| <= p M^2 2^{p-1}
    <= p (AB)^2 2^{p-1}, and with 2^{w-1} above that bound
    `report._unpack` reads every e_s of E(2^w) back exactly."""
    if m < 1:
        raise ValueError("m must be positive")
    p = 2 * m + 1
    if 0 <= t <= 2 * m:
        return 0
    a = [math.comb(p + j - 1, j) for j in range(p)]
    ct = [abs(_binom(t, n)) for n in range(p)]
    rows = [[a[j] * ct[n - j] for j in range(n + 1)] for n in range(p)]
    bound = p * max(map(max, rows)) ** 2 << (p - 1)
    width = bound.bit_length() // 8 + 1  # bytes per digit: 2^(8 width - 1) > bound
    u = [int.from_bytes(b"".join(x.to_bytes(width, "little") for x in row), "little") for row in rows]
    e = (-1) ** (m + 1) * math.comb(p - 1, m) * u[m] * u[m]
    for d in range(1, m + 1):
        e += (-1) ** d * 2 * math.comb(p - 1, d - 1) * u[p - d] * u[d - 1]
    sign = -1 if t < 0 else 1
    return sum(sign**s * _binom(2 * m - t, s + p) * e_s for s, e_s in enumerate(_unpack(e, width, p)))


def gm_poly(m: int) -> RatPoly:
    """The unique polynomial of degree at most 4m+1 through the values
    at t = 0..4m+1, consistency-checked at t = 4m+2 and 4m+3."""
    if m < 1:
        raise ValueError("m must be positive")
    g = zp._from_values([gm_value(m, t) for t in range(4 * m + 2)])
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
    """Residue of the integer value at t = 3m+1 modulo p = 2m+1 (prime):
    pass iff it is 1.  On failure, first_mismatch is (3m+1, residue, 1)."""
    p = 2 * m + 1
    if not _is_prime(p):
        raise ValueError("mod-p argument requires prime 2m+1")

    def check():
        residue = gm_value(m, 3 * m + 1) % p
        at = Fraction(3 * m + 1)
        return at, None if residue == 1 else (at, Fraction(residue), Fraction(1))

    return run_check("gm-mod-p", {"m": m, "p": p}, check)


def verify_gm_suite(m: int) -> list[VerificationReport]:
    """The G_m conjecture, then the mod-p residue check when p = 2m+1 is prime."""
    return [verify_gm_conjecture(m), *([gm_mod_p(m)] if _is_prime(2 * m + 1) else [])]
