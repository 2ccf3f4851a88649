"""Floating-point evaluation of truncated q-expansions on the upper
half-plane.  This is the one place the package leaves exact arithmetic:
the S-laws relate values at tau and -1/tau, which no finite q-expansion
can compare exactly.  The T-laws are checked exactly on the exponents,
and so is the span of the characters plus the tau-weighted theta
derivatives: ns_space_rank is an exact rational rank, a function of m
alone, certified on the prefix of exponents that ends at 2m^2/(2m+1),
whatever order the suite runs at."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cache, partial

from . import characters, forms
from . import qseries as qs
from .forms import ThetaForm, ThetaParams
from .qseries import QSeries, RatLike, VerificationReport
from .report import value_type

__all__ = [
    "TauPoint",
    "eval_series",
    "check_tolerance",
    "verify_s_t_laws",
    "ns_space_rank",
    "verify_numeric_suite",
]

# Smallest tolerance double-precision residuals can certify.
_TOL_FLOOR = 1e-13

# Integer theta levels checked: 3 and 5 carry the half-integer grids
# 3/2 and 5/2 (doubling the exponent denominator identifies the two
# families term by term; the identification itself is an exact identity
# in the form suite), 6 and 10 are the even supercharacter grids.
_S_LEVELS = (3, 5, 6, 10)


class TauPoint(value_type("TauPoint", "re im")):
    """A point of the upper half-plane, so |q| = exp(-2 pi im) < 1."""

    __slots__ = ()

    def __new__(cls, re: float, im: float):
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError("tau must be finite")
        if not im > 0:
            raise ValueError("tau must have positive imaginary part")
        return tuple.__new__(cls, (re, im))

    @property
    def tau(self) -> complex:
        return complex(self.re, self.im)

    @property
    def q_abs(self) -> float:
        return math.exp(-2.0 * math.pi * self.im)


def _neg_inv(t: TauPoint) -> TauPoint:
    d = t.re * t.re + t.im * t.im
    if d == 0.0 or t.im / d == 0.0:
        raise ValueError(f"-1/tau {'underflows' if d else 'overflows'} in double precision at tau = {t.tau}")
    return TauPoint(-t.re / d, t.im / d)


def eval_series(a: QSeries, tau: TauPoint, tol: float | None = None) -> tuple[complex, float]:
    """Value of the truncation at tau together with a tail bound.

    The bound is M |q|^(order + 1/denom) / (1 - |q|^(1/denom)) with M
    the largest retained coefficient magnitude (at least 1).  It assumes
    that later coefficients stay below M, which is false for dTheta
    (linear weights) and for the characters (growth like p(n)); see
    ROADMAP item 12.  With tol given, a bound above tol raises
    ValueError naming an order that would suffice.
    """
    log_q = 2.0 * math.pi * complex(-tau.im, tau.re)
    # int true division rounds correctly, so each coefficient and
    # exponent equals float() of its exact Fraction
    base, stride, denom, content, exp = a.base, a.stride, a.denom, a.content, cmath.exp
    value = complex(0.0)
    big = 1.0
    for i, v in enumerate(a.vals):
        if v:
            cf = v / content
            value += cf * exp(log_q * ((base + i * stride) / denom))
            big = max(big, abs(cf))
    step = tau.q_abs ** (1.0 / a.denom)
    if step == 1.0:
        raise ValueError(f"Im tau = {tau.im:.3g} is too small: |q|^(1/{a.denom}) rounds to 1, no tail bound")
    tail = big * tau.q_abs ** (float(a.order) + 1.0 / a.denom) / (1.0 - step)
    if tol is not None and tail > tol:
        need = math.log(tol * (1.0 - step) / big) / math.log(tau.q_abs)
        raise ValueError(f"tail bound {tail:.3e} exceeds tolerance {tol:.3e}; order {need:.1f} would suffice")
    return value, tail


def _first_over(errors: list[float], tol: float) -> tuple[Fraction, Fraction, Fraction] | None:
    """errors holds residual + tail per sub-check; the first one at or
    above tol fails the law, as (position, achieved error, tolerance)."""
    for idx, err in enumerate(errors):
        if not err < tol:
            return Fraction(idx), Fraction(err), Fraction(tol)
    return None


def _law(taus: list[TauPoint], gs: list[QSeries], c, phases, tol: float):
    """_first_over of |g_j(-1/tau) - c(tau) sum_i u_ji g_i(tau)| + tail_{g_j} + |c(tau)| sum_i tail_{g_i}
    at each tau for each row j < len(phases), u_ji = phases[j][i] unit phases.  Each series is evaluated
    once per point and side: g_0 at -1/tau, then every g_i at tau, then g_1, g_2, ... at -1/tau."""
    errors = []
    for t in taus:
        ti = _neg_inv(t)
        left = [eval_series(gs[0], ti, tol)]
        right = [eval_series(g, t, tol) for g in gs]
        left += [eval_series(g, ti, tol) for g in gs[1 : len(phases)]]
        cv = c(t)
        tail = abs(cv) * sum(rt for _, rt in right)
        for (lv, lt), us in zip(left, phases):
            rv = sum(u * v for u, (v, _) in zip(us, right))
            errors.append(abs(lv - cv * rv) + lt + tail)
    return _first_over(errors, tol)


def _off_class(series: list[QSeries], classes: list[Fraction], period: Fraction):
    """The first term of a series[i] off classes[i] + period Z, as (exponent, coefficient, 0),
    or None.  Slot i is at (base + i stride)/denom and slot 0 holds a term, so slot 0
    decides when period divides stride/denom."""
    for s, cls in zip(series, classes):
        n = 1 if Fraction(s.stride, s.denom) / period % 1 == 0 else len(s.vals)
        for i, v in enumerate(s.vals[:n]):
            e = Fraction(s.base + i * s.stride, s.denom)
            if v and (e - cls) / period % 1:
                return e, Fraction(v, s.content), Fraction(0)
    return None


def check_tolerance(tol: float) -> None:
    """Reject a tolerance under 1e-13, which double precision cannot certify, and an
    infinite one, which would pass any residual and switch off eval_series' refusal."""
    if not _TOL_FLOOR <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and at least {_TOL_FLOOR}")


def verify_s_t_laws(taus: list[TauPoint], order: RatLike, tol: float) -> list[VerificationReport]:
    """The S-laws eta(-1/tau) = sqrt(-i tau) eta(tau) and
    Theta_{j,k}(-1/tau) = sqrt(-i tau/2k) sum_{j'=0}^{2k-1} e^{i pi j j'/k} Theta_{j',k}(tau),
    each passing iff residual plus both tail bounds stays below tol at every tau, and,
    exactly, the T-laws eta(tau+1) = e^{i pi/12} eta(tau) and Theta_{j,k}(tau+2) =
    e^{i pi j^2/k} Theta_{j,k}(tau): every exponent lies in 1/24 + Z, or j^2/4k + Z/2.
    Theta laws run over k in _S_LEVELS, j = 0..k, and hold for the weighted sums too,
    whose S-law has the extra factor -tau."""
    order = Fraction(order)
    check_tolerance(tol)

    def s_factor(k: int, weighted: bool, t: TauPoint) -> complex:
        p = cmath.sqrt(-1j * t.tau / (2 * k))
        return -t.tau * p if weighted else p

    # each list is built inside the first report that reads it, its S-law, and
    # shared with the T-law after it, so its time counts in that report
    eta = cache(lambda: [forms.eta(order)])
    laws = [
        ("eta-s-law", {}, lambda: _law(taus, eta(), lambda t: cmath.sqrt(-1j * t.tau), [[1]], tol)),
        ("eta-t-law", {}, lambda: _off_class(eta(), [Fraction(1, 24)], Fraction(1))),
    ]

    def level_laws(k: int) -> list:
        ths = cache(lambda: [forms.theta(ThetaParams(jp, k), order) for jp in range(2 * k)])
        dths = cache(lambda: [forms.dtheta(ThetaParams(jp, k), order) for jp in range(2 * k)])
        phases = [[cmath.exp(1j * math.pi * j * jp / k) for jp in range(2 * k)] for j in range(k + 1)]
        classes, half = [Fraction(j * j, 4 * k) for j in range(k + 1)], Fraction(1, 2)
        c, dc = partial(s_factor, k, False), partial(s_factor, k, True)
        return [
            ("theta-s-law", {"k": k}, lambda: _law(taus, ths(), c, phases, tol)),
            ("dtheta-s-law", {"k": k}, lambda: _law(taus, dths(), dc, phases, tol)),
            ("theta-t2-law", {"k": k}, lambda: _off_class(ths(), classes, half)),
            ("dtheta-t2-law", {"k": k}, lambda: _off_class(dths(), classes, half)),
        ]

    for k in _S_LEVELS:
        laws += level_laws(k)
    return [qs.run_check(law_id, params, lambda: (order, check())) for law_id, params, check in laws]


def ns_space_rank(m: int) -> int:
    """Exact rank of the 2m+1 characters together with the m functions
    tau (f/eta) dTheta_{j,(2m+1)/2}, j = 1..m.

    All exponents lie in (1/D)Z for one D, so F + tau G = 0 with F a
    combination of characters and G one of the products gives, under
    tau -> tau + D, D G = 0; hence G = 0 and F = 0, and the rank is the
    rank of the characters plus the rank of the products.  Multiplying
    by the invertible series f/eta keeps linear (in)dependence, so these
    are the ranks of the theta combinations of the characters and of
    the dTheta_{j,(2m+1)/2}, each certified on a prefix of exponents.
    At k = (2m+1)/2 distinct j have disjoint supports; Theta_{0,k} starts
    at q^0, dTheta_{0,k} = 0, and for j >= 1 the n = 0 and n = -1 terms, at
    j^2/4k and (2k-j)^2/4k, give the block [[1, 1], [j, -(2k-j)]] of
    determinant -2k.  The last of them, Theta_{1,k}'s (2k-1)^2/4k =
    2m^2/(2m+1), fixes the prefix, whatever order other checks run to."""
    k = Fraction(2 * m + 1, 2)
    order = (2 * k - 1) ** 2 / (4 * k)
    combos = [
        forms.theta_form(characters.module_form(mod)._replace(powers=()), order)
        for mod in characters.all_module_ids(m)
    ]
    dthetas = [forms.theta_form(ThetaForm(0, (), k, ((j, 0, 1),)), order) for j in range(1, m + 1)]
    return qs.prefix_rank(combos) + qs.prefix_rank(dthetas)


def _rank_report(m: int, order: Fraction) -> VerificationReport:
    n = 3 * m + 1
    params: dict[str, object] = {"m": m}

    def check():
        rank = ns_space_rank(m)
        params.update(rank=rank)
        return order, None if rank == n else (Fraction(0), Fraction(rank), Fraction(n))

    return qs.run_check("ns-space-rank", params, check)


def verify_numeric_suite(m: int, points, order: RatLike, tol: float) -> list[VerificationReport]:
    """The S/T laws at the (re, im) points, then the exact ns-space-rank check."""
    return [*verify_s_t_laws([TauPoint(*p) for p in points], order, tol), _rank_report(m, order)]
