"""Floating-point evaluation of truncated q-expansions on the upper
half-plane.  This is the one place the package leaves exact arithmetic:
the S- and T-transformation laws relate values at tau and -1/tau, which
no finite q-expansion can compare exactly, and the span of characters
plus tau-weighted theta derivatives is probed by numerical rank."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import characters, forms
from . import qseries as qs
from .forms import ThetaParams
from .qseries import QSeries, RatLike, VerificationReport

__all__ = [
    "TauPoint",
    "eval_series",
    "verify_s_t_laws",
    "ns_space_rank",
]

# Smallest tolerance double-precision residuals can certify.
_TOL_FLOOR = 1e-13

# Integer theta levels checked: 3 and 5 carry the half-integer grids
# 3/2 and 5/2 (doubling the exponent denominator identifies the two
# families term by term; the identification itself is an exact identity
# in the form suite), 6 and 10 are the even supercharacter grids.
_S_LEVELS = (3, 5, 6, 10)


@dataclass(frozen=True)
class TauPoint:
    """A point of the upper half-plane, so |q| = exp(-2 pi im) < 1."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("tau must be finite")
        if not self.im > 0:
            raise ValueError("tau must have positive imaginary part")

    @property
    def tau(self) -> complex:
        return complex(self.re, self.im)

    @property
    def q_abs(self) -> float:
        return math.exp(-2.0 * math.pi * self.im)


def _neg_inv(t: TauPoint) -> TauPoint:
    d = t.re * t.re + t.im * t.im
    return TauPoint(-t.re / d, t.im / d)


def _shifted(t: TauPoint, dx: float) -> TauPoint:
    return TauPoint(t.re + dx, t.im)


def eval_series(a: QSeries, tau: TauPoint, tol: float | None = None) -> tuple[complex, float]:
    """Value of the truncation at tau together with a tail bound.

    The bound is M |q|^(order + 1/denom) / (1 - |q|^(1/denom)) with M
    the largest retained coefficient magnitude (at least 1); it covers
    the dropped tail as long as later coefficients stay below M, which
    holds for every series this package evaluates at the orders the
    callers request.  With tol given, a bound above tol raises
    ValueError naming an order that would suffice.
    """
    log_q = 2.0 * math.pi * complex(-tau.im, tau.re)
    value = complex(0.0)
    big = 1.0
    for cf, e in a.float_terms():
        value += cf * cmath.exp(log_q * e)
        big = max(big, abs(cf))
    step = tau.q_abs ** (1.0 / a.denom)
    tail = big * tau.q_abs ** (float(a.order) + 1.0 / a.denom) / (1.0 - step)
    if tol is not None and tail > tol:
        need = math.log(tol * (1.0 - step) / big) / math.log(tau.q_abs)
        raise ValueError(
            f"tail bound {tail:.3e} exceeds tolerance {tol:.3e}; "
            f"order {need:.1f} would suffice"
        )
    return value, tail


def _first_over(errors: list[float], tol: float) -> tuple[Fraction, Fraction, Fraction] | None:
    """errors holds residual + tail per sub-check; the first one at or
    above tol fails the law, as (position, achieved error, tolerance)."""
    for idx, err in enumerate(errors):
        if not err < tol:
            return Fraction(idx), Fraction(err), Fraction(tol)
    return None


def _s_law(series: list[QSeries], taus: list[TauPoint], k: int, weighted: bool, tol: float) -> list[float]:
    """Residual + tails of the S-law of series[j], j = 0..k, at each tau;
    series holds the level-k sums for j' = 0..2k-1."""
    errors = []
    for t in taus:
        ti = _neg_inv(t)
        tv = [eval_series(s, t, tol) for s in series]
        rtail = sum(v[1] for v in tv)
        pref = cmath.sqrt(-1j * t.tau / (2 * k))
        if weighted:
            pref = -t.tau * pref
        for j in range(k + 1):
            phases = [cmath.exp(1j * math.pi * j * jp / k) for jp in range(2 * k)]
            lv, lt = eval_series(series[j], ti, tol)
            rv = sum(p * v[0] for p, v in zip(phases, tv))
            errors.append(abs(lv - pref * rv) + lt + abs(pref) * rtail)
    return errors


def _t2_law(series: list[QSeries], taus: list[TauPoint], k: int, tol: float) -> list[float]:
    """Residual + tails of the tau -> tau+2 law of series[j], j = 0..k."""
    errors = []
    for t in taus:
        t2 = _shifted(t, 2.0)
        for j in range(k + 1):
            ph = cmath.exp(1j * math.pi * j * j / k)
            lv, lt = eval_series(series[j], t2, tol)
            rv, rt = eval_series(series[j], t, tol)
            errors.append(abs(lv - ph * rv) + lt + rt)
    return errors


def verify_s_t_laws(taus: list[TauPoint], order: RatLike, tol: float) -> list[VerificationReport]:
    """Residual checks of the transformation laws at each tau:

    eta(-1/tau) = sqrt(-i tau) eta(tau), eta(tau+1) = e^{i pi/12} eta(tau),
    Theta_{j,k}(-1/tau) = sqrt(-i tau/2k) sum_{j'=0}^{2k-1} e^{i pi j j'/k} Theta_{j',k}(tau),
    Theta_{j,k}(tau+2) = e^{i pi j^2/k} Theta_{j,k}(tau),

    the last two also for the weighted sums, whose law under
    tau -> -1/tau carries the extra factor (-tau).  Levels run over
    _S_LEVELS with j = 0..k; a law passes iff residual plus both tail
    bounds stays below tol at every point.  Tolerances under 1e-13 are
    rejected: double precision cannot certify them.
    """
    order = Fraction(order)
    if not tol >= _TOL_FLOOR:
        raise ValueError(f"tolerance must be at least {_TOL_FLOOR}")

    def law(identity_id: str, params: dict, errors) -> VerificationReport:
        return qs.run_check(identity_id, params, lambda: (order, _first_over(errors(), tol)))

    eta = forms.eta(order)

    def eta_law(image, factor) -> list[float]:
        # eta(image(tau)) = factor(tau) eta(tau)
        errors = []
        for t in taus:
            lv, lt = eval_series(eta, image(t), tol)
            rv, rt = eval_series(eta, t, tol)
            f = factor(t)
            errors.append(abs(lv - f * rv) + lt + abs(f) * rt)
        return errors

    phase = cmath.exp(1j * math.pi / 12)
    reports = [
        law("eta-s-law", {}, lambda: eta_law(_neg_inv, lambda t: cmath.sqrt(-1j * t.tau))),
        law("eta-t-law", {}, lambda: eta_law(lambda t: _shifted(t, 1.0), lambda t: phase)),
    ]
    for k in _S_LEVELS:
        kf = Fraction(k)
        ths = [forms.theta(ThetaParams(jp, kf), order) for jp in range(2 * k)]
        dths = [forms.dtheta(ThetaParams(jp, kf), order) for jp in range(2 * k)]
        reports += [
            law("theta-s-law", {"k": k}, lambda: _s_law(ths, taus, k, False, tol)),
            law("dtheta-s-law", {"k": k}, lambda: _s_law(dths, taus, k, True, tol)),
            law("theta-t2-law", {"k": k}, lambda: _t2_law(ths, taus, k, tol)),
            law("dtheta-t2-law", {"k": k}, lambda: _t2_law(dths, taus, k, tol)),
        ]
    return reports


def ns_space_rank(
    m: int, taus: list[TauPoint], order: RatLike, tol: float = 1e-8
) -> tuple[int, float]:
    """Numerical rank of the (3m+1) x (3m+1) matrix of values of the
    2m+1 characters and the m functions tau (f/eta) dTheta_{j,(2m+1)/2},
    j = 1..m, at 3m+1 distinct points.  Rank counts singular values
    above 1e-6 times the largest; the smallest is returned alongside.
    """
    import numpy as np  # only the SVD needs it; every other command skips the import

    if m < 1:
        raise ValueError("m must be positive")
    n = 3 * m + 1
    if len(taus) != n:
        raise ValueError(f"need {n} tau points")
    if len(set(taus)) != n:
        raise ValueError("tau points must be distinct")
    order = Fraction(order)
    p = 2 * m + 1
    cols = [characters.sw_char(mod, order) for mod in characters.all_module_ids(m)]
    fe = characters.f_over_eta(order)
    for j in range(1, m + 1):
        cols.append(qs.mul(fe, forms.dtheta(ThetaParams(j, Fraction(p, 2)), order)))
    mat = np.empty((n, n), dtype=complex)
    for r, t in enumerate(taus):
        for c, series in enumerate(cols):
            value, _ = eval_series(series, t, tol)
            mat[r, c] = t.tau * value if c > 2 * m else value
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    return rank, float(sv[-1])
