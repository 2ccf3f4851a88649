"""Floating-point evaluation of truncated q-expansions on the upper
half-plane.  This is the one place the package leaves exact arithmetic:
the S-laws relate values at tau and -1/tau, which no finite q-expansion
can compare exactly, and the span of characters plus tau-weighted theta
derivatives is probed by numerical rank.

The rank probe's singular values come from a pure-Python SVD, Householder
QR with column pivoting followed by one-sided Jacobi rotations (Drmac and
Veselic, 2008).  On the probe's 3m+1 points (`_rank_taus`, one short
segment) its rank, the singular values above 1e-6 sigma_max, is short of
3m+1 from m = 2 on:

    m              2        3        4         5         6
    SVD rank       6 of 7   7 of 10  8 of 13   9 of 16   9 of 19
    min_singular   2.23e-6  9.24e-9  1.76e-11  1.54e-14  4.79e-18

(order 300, 200 at m = 6), and from m = 6 on the smallest value also lies
below rounding noise, about n eps sigma_max (eps = 2.2e-16, n = 3m+1).  So
min_singular is reported data, and only the exact rank, a function of m
alone, decides the ns-space-rank check: characters.ns_space_exact_rank
builds the prefix its proof needs, whatever order the suite runs at."""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import partial

from . import characters, forms
from . import qseries as qs
from .forms import ThetaParams
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

# Jacobi sweeps stop once every pair of columns has |x_p^H x_q| at most
# this multiple of |x_p| |x_q|: about 18 double roundings, above the
# rounding error of an inner product of length 3m+1 <= 37.
_ORTH = 4e-15
_MAX_SWEEPS = 30
# Columns (of a matrix scaled to largest entry 1) whose squared norm is
# below the smallest normal double are left unrotated: their norms are
# under 1.5e-154 and their squares have lost precision.
_TINY = sys.float_info.min

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


def _law(taus: list[TauPoint], fs: list[QSeries], c, phases, gs: list[QSeries], tol: float):
    """_first_over of |f_j(-1/tau) - c(tau) sum_i u_ji g_i(tau)| + tail_{f_j} + |c(tau)| sum_i tail_{g_i}
    at each tau for each row j, u_ji = phases[j][i] unit phases.  Each series is evaluated once per
    point: f_0 at -1/tau, then every g_i at tau, then f_1, f_2, ... at -1/tau."""
    errors = []
    for t in taus:
        ti = _neg_inv(t)
        left = [eval_series(fs[0], ti, tol)]
        right = [eval_series(g, t, tol) for g in gs]
        left += [eval_series(f, ti, tol) for f in fs[1:]]
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

    eta, half = forms.eta(order), Fraction(1, 2)
    laws = [
        ("eta-s-law", {}, partial(_law, taus, [eta], lambda t: cmath.sqrt(-1j * t.tau), [[1]], [eta], tol)),
        ("eta-t-law", {}, partial(_off_class, [eta], [Fraction(1, 24)], Fraction(1))),
    ]
    for k in _S_LEVELS:
        ths = [forms.theta(ThetaParams(jp, k), order) for jp in range(2 * k)]
        dths = [forms.dtheta(ThetaParams(jp, k), order) for jp in range(2 * k)]
        phases = [[cmath.exp(1j * math.pi * j * jp / k) for jp in range(2 * k)] for j in range(k + 1)]
        classes = [Fraction(j * j, 4 * k) for j in range(k + 1)]
        c, dc = partial(s_factor, k, False), partial(s_factor, k, True)
        laws += [
            ("theta-s-law", {"k": k}, partial(_law, taus, ths[: k + 1], c, phases, ths, tol)),
            ("dtheta-s-law", {"k": k}, partial(_law, taus, dths[: k + 1], dc, phases, dths, tol)),
            ("theta-t2-law", {"k": k}, partial(_off_class, ths, classes, half)),
            ("dtheta-t2-law", {"k": k}, partial(_off_class, dths, classes, half)),
        ]
    return [qs.run_check(law_id, params, lambda: (order, check())) for law_id, params, check in laws]


def _norm2(v: list[complex]) -> float:
    return sum(z.real * z.real + z.imag * z.imag for z in v)


def _singular_values(cols: list[list[complex]]) -> list[float]:
    """Singular values, largest first, of the square matrix with these
    columns, by the preconditioned Jacobi SVD of Drmac and Veselic
    (SIAM J. Matrix Anal. Appl. 29, 2008): Householder QR with column
    pivoting, A P = Q R, then one-sided (Hestenes) Jacobi rotations on
    the columns of R^H until every pair is orthogonal to _ORTH, when the
    column norms are the singular values.  The pivoting grades the rows
    of R, so the sweeps converge in a few rounds (every rank-probe matrix
    up to m = 12 takes three, and a fourth that rotates nothing); a
    matrix still not orthogonal after _MAX_SWEEPS sweeps raises
    ArithmeticError."""
    n = len(cols)
    # scale by the largest entry, so squared norms neither overflow nor
    # underflow to zero
    big = max((abs(z) for c in cols for z in c), default=0.0)
    if big == 0.0:
        return [0.0] * n
    a = [[z / big for z in c] for c in cols]
    for k in range(n):
        p = max(range(k, n), key=lambda j: _norm2(a[j][k:]))
        a[k], a[p] = a[p], a[k]
        x = a[k][k:]
        xnorm = math.sqrt(_norm2(x))
        if xnorm == 0.0:
            break  # every remaining column is zero from row k down
        # a subnormal x[0] has an inexact abs(); 2^54 makes it normal, exactly
        x0 = x[0] if abs(x[0]) >= _TINY else x[0] * 2.0**54
        alpha = -xnorm * (x0 / abs(x0) if x0 else 1.0)
        v = [x[0] - alpha, *x[1:]]
        vv = _norm2(v)
        for col in a[k + 1 :]:
            f = 2.0 * sum(vi.conjugate() * ci for vi, ci in zip(v, col[k:])) / vv
            col[k:] = [ci - f * vi for vi, ci in zip(v, col[k:])]
        a[k][k:] = [alpha] + [0j] * (n - k - 1)
    # column i of R^H is the conjugate of row i of R, whose entry j is a[j][i]
    xs = [[a[j][i].conjugate() for j in range(n)] for i in range(n)]
    norms = [_norm2(x) for x in xs]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                xp, xq = xs[p], xs[q]
                if norms[p] < _TINY or norms[q] < _TINY:
                    continue  # a squared norm has underflowed
                g = sum(u.conjugate() * w for u, w in zip(xp, xq))
                ag = abs(g)
                if ag <= _ORTH * math.sqrt(norms[p]) * math.sqrt(norms[q]):
                    continue
                rotated = True
                # rotate x_p and the phase-shifted x_q e^{-i arg g}, whose
                # inner product |g| is real, by the angle that zeroes it
                zeta = (norms[q] - norms[p]) / (2.0 * ag)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                e = g.conjugate() / ag
                xs[p] = [c * u - s * e * w for u, w in zip(xp, xq)]
                xs[q] = [s * u + c * e * w for u, w in zip(xp, xq)]
                norms[p], norms[q] = _norm2(xs[p]), _norm2(xs[q])
        if not rotated:
            return sorted((big * math.sqrt(v) for v in norms), reverse=True)
    raise ArithmeticError(f"Jacobi SVD not converged after {_MAX_SWEEPS} sweeps")


def _rank_columns(m: int, taus: list[TauPoint], order: Fraction, tol: float) -> list[list[complex]]:
    """Columns of the rank probe's matrix: the values of the 2m+1
    characters and of tau (f/eta) dTheta_{j,(2m+1)/2}, j = 1..m, one row
    per point."""
    p = 2 * m + 1
    series = [characters.sw_char(mod, order) for mod in characters.all_module_ids(m)]
    f_dthetas = [forms.ThetaForm(0, characters.F_OVER_ETA, Fraction(p, 2), ((j, 0, 1),)) for j in range(1, m + 1)]
    series += [forms.theta_form(form, order) for form in f_dthetas]
    rows = [[eval_series(s, t, tol)[0] for s in series] for t in taus]
    return [[t.tau * row[c] if c >= p else row[c] for t, row in zip(taus, rows)] for c in range(len(series))]


def ns_space_rank(m: int, taus: list[TauPoint], order: RatLike, tol: float = 1e-8) -> tuple[int, float]:
    """Numerical rank of the (3m+1) x (3m+1) matrix of values of the
    2m+1 characters and the m functions tau (f/eta) dTheta_{j,(2m+1)/2},
    j = 1..m, at 3m+1 distinct points.  Rank counts singular values
    above 1e-6 times the largest; the smallest is returned alongside.
    The module docstring says when the smallest is rounding noise.
    """
    if m < 1:
        raise ValueError("m must be positive")
    n = 3 * m + 1
    if len(taus) != n:
        raise ValueError(f"need {n} tau points")
    if len(set(taus)) != n:
        raise ValueError("tau points must be distinct")
    sv = _singular_values(_rank_columns(m, taus, Fraction(order), tol))
    return sum(s > 1e-6 * sv[0] for s in sv), sv[-1]


def _rank_taus(n: int) -> list[TauPoint]:
    return [TauPoint(-0.37 + 0.11 * i, 0.83 + 0.05 * i) for i in range(n)]


def _rank_report(m: int, order: Fraction, tol: float) -> VerificationReport:
    n = 3 * m + 1
    params: dict[str, object] = {"m": m}

    def check():
        # the exact rank decides; the SVD's smallest value is reported as data
        _, smallest = ns_space_rank(m, _rank_taus(n), order, tol)
        rank = characters.ns_space_exact_rank(m)
        params.update(rank=rank, min_singular=float(f"{smallest:.6g}"))
        return order, None if rank == n else (Fraction(0), Fraction(rank), Fraction(n))

    return qs.run_check("ns-space-rank", params, check)


def verify_numeric_suite(m: int, points, order: RatLike, tol: float) -> list[VerificationReport]:
    """The S/T laws at the (re, im) points, then the ns-space-rank check at its own 3m+1 points."""
    return [*verify_s_t_laws([TauPoint(*p) for p in points], order, tol), _rank_report(m, order, tol)]
