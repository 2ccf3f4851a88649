"""Dedekind eta, the Weber functions, and the indexed theta series
Theta_{j,k} = sum_n q^{(2kn+j)^2/4k} with their weighted variants, together
with an exact identity suite relating them.  Every theta combination, eta
among them, is one weighted pass, `_theta_sum`, and every eta quotient
comes from one cached builder, `eta_quotient`.
Every product q^s (eta quotient) (series from q^0) is one `eta_product`,
with the order rule; with a theta combination it is a `ThetaForm`."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial, reduce
from typing import Callable

from . import qseries as qs
from .qseries import QSeries, RatLike, VerificationReport
from .report import value_type

__all__ = [
    "ThetaParams",
    "ThetaForm",
    "eta",
    "weber",
    "theta",
    "dtheta",
    "eta_scaled",
    "eta_quotient",
    "eta_product",
    "theta_form",
    "verify_form_identities",
]


class ThetaParams(value_type("ThetaParams", "j k")):
    """Index pair (j, k); k a positive integer or half-integer, stored as
    a Fraction."""

    __slots__ = ()

    def __new__(cls, j: int, k: RatLike):
        k = Fraction(k)
        if k <= 0:
            raise ValueError("k must be positive")
        if k.denominator not in (1, 2):
            raise ValueError("k must be an integer or half-integer")
        return tuple.__new__(cls, (j, k))


# Weber function -> (leading exponent, first exponent, sign) of
# q^lead prod_{n>=0} (1 + sign q^{first+n})
_WEBER = {
    "f": (Fraction(-1, 48), Fraction(1, 2), 1),
    "f1": (Fraction(-1, 48), Fraction(1, 2), -1),
    "f2": (Fraction(1, 24), 1, 1),
}


@lru_cache(maxsize=None)
def weber(which: str, order: RatLike) -> QSeries:
    """One of the three Weber functions:

    f  = q^{-1/48} prod_{n>=0} (1 + q^{n+1/2})
    f1 = q^{-1/48} prod_{n>=1} (1 - q^{n-1/2})
    f2 = q^{1/24}  prod_{n>=1} (1 + q^n)
    """
    order_f = Fraction(order)
    if which not in _WEBER:
        raise ValueError(f"unknown Weber function {which!r}")
    lead, first, sign = _WEBER[which]
    if order_f <= lead:
        raise ValueError("order must exceed the leading exponent")
    return qs.shift(qs.pochhammer(first, 1, sign, None, order_f - lead), lead)


def _theta_sum(k: RatLike, weights, order: Fraction) -> QSeries:
    """sum_j (a_j Theta_{j,k} + b_j dTheta_{j,k}) over the (j, a_j, b_j) of `weights`,
    exact to the order, in one pass on integers over one content: a_j + b_j a at
    q^{a^2/2K} for each a = j mod K, K = 2k an integer; lattice (1/2K) Z."""
    K = int(2 * k)
    limit = math.floor(2 * K * order)
    top = math.isqrt(limit) if limit >= 0 else -1
    content = math.lcm(*(Fraction(w).denominator for _, a, b in weights for w in (a, b)))
    coeffs: dict[int, int] = {}
    for j, a_j, b_j in weights:
        A, B = int(a_j * content), int(b_j * content)
        # every a = j mod K with a^2 <= limit, from the least one >= -top up
        for a in range(-top + (j + top) % K, top + 1, K):
            coeffs[a * a] = coeffs.get(a * a, 0) + A + B * a
    return qs.scale(qs._from_coeffs(2 * K, coeffs, order), Fraction(1, content))


def theta(p: ThetaParams, order: RatLike) -> QSeries:
    """Theta_{j,k}: sum over n in Z of q^{(2kn+j)^2/4k}."""
    return _theta_sum(p.k, ((p.j, 1, 0),), Fraction(order))


def dtheta(p: ThetaParams, order: RatLike) -> QSeries:
    """The (2kn+j)-weighted variant of theta."""
    return _theta_sum(p.k, ((p.j, 0, 1),), Fraction(order))


@lru_cache(maxsize=None)
def eta(order: RatLike) -> QSeries:
    """q^{1/24} prod_{n>=1} (1 - q^n), exact to the given order, as
    Theta_{1,6} - Theta_{5,6} = sum_n (-1)^n q^{(6n+1)^2/24} (Euler's
    pentagonal theorem): O(sqrt(order)) nonzero terms, no product."""
    order_f = Fraction(order)
    if order_f <= 0:
        raise ValueError("order must be positive")
    return _theta_sum(6, ((1, 1, 0), (5, -1, 0)), order_f)


def eta_scaled(r: RatLike, order: RatLike) -> QSeries:
    """eta with q replaced by q^r (the tau -> r*tau substitution), exact
    to the given order."""
    r_f = Fraction(r)
    return qs.substitute_power(eta(Fraction(order) / r_f), r_f)


@lru_cache(maxsize=None)
def eta_quotient(powers: tuple[tuple[RatLike, int], ...], order: RatLike) -> QSeries:
    """prod eta(d tau)^{r_d} over the pairs (d, r_d) of `powers`, some r_d
    nonzero, exact to max(order, lead) for its lead sum d r_d / 24.  As
    eta(d tau)^{+-1} leads at +-d/24, each factor is built to the order less
    the other factors' leads (at least to its own lead); a negative power
    is an inverse over the O(sqrt(order)) nonzero terms of eta."""
    if not any(r for _, r in powers):
        raise ValueError("powers must hold a pair (d, r_d) with r_d nonzero")
    for d, r in powers:
        if Fraction(d) <= 0:
            raise ValueError(f"powers must hold pairs (d, r_d) with d > 0, got {(d, r)}")
        if not isinstance(r, int):
            raise ValueError(f"powers must hold pairs (d, r_d) with r_d an int, got {(d, r)}")
    order_f = Fraction(order)
    lead = sum(Fraction(d) * r for d, r in powers) / 24
    factors = []
    for d, r in powers:
        e = eta_scaled(d, max(order_f - lead, 0) + Fraction(d) / 24)
        factors += [e if r > 0 else qs.invert(e)] * abs(r)
    return reduce(qs.mul, factors)


class ThetaForm(value_type("ThetaForm", "shift powers k weights")):
    """q^shift prod eta(d tau)^{r_d} sum_j (a_j Theta_{j,k} + b_j dTheta_{j,k}):
    `powers` holds the (d, r_d) pairs of `eta_quotient`, or none for a bare
    theta sum, k is a level as in ThetaParams, and `weights` holds the
    (j, a_j, b_j) triples."""

    __slots__ = ()

    def __new__(cls, shift: RatLike, powers: tuple, k: RatLike, weights: tuple):
        weights = tuple((j, Fraction(a), Fraction(b)) for j, a, b in weights)
        return tuple.__new__(cls, (Fraction(shift), tuple(powers), ThetaParams(0, k).k, weights))


def eta_product(shift: RatLike, powers: tuple, inner: Callable[[Fraction], QSeries], order: RatLike) -> QSeries:
    """q^shift prod eta(d tau)^{r_d} inner, exact to the given order, for the
    (d, r_d) pairs of `eta_quotient` (or none) and `inner(n)` a series exact to
    n with no term below q^0.  The quotient, exact to n = order - shift, and
    inner, built to n less the quotient's lead, make a product exact to n
    (`qs.mul`'s rule).  The quotient is built to ceil(n), as its terms past n
    meet only inner terms past n, so products whose n differ share a build."""
    n = Fraction(order) - Fraction(shift)
    total = inner(n - sum((Fraction(d) * r for d, r in powers), Fraction(0)) / 24)
    if powers:
        total = qs.mul(eta_quotient(powers, math.ceil(n)), total)
    return qs.shift(total, shift)


def theta_form(form: ThetaForm, order: RatLike) -> QSeries:
    """The series of `form`, exact to the given order: an `eta_product` whose
    inner factor, the theta sum of `form.weights` (one `_theta_sum`), lies at
    q^0 or above."""
    return eta_product(form.shift, form.powers, partial(_theta_sum, form.k, form.weights), order)


# -- identity suite -----------------------------------------------------------


def _pair_dtheta_eta_cube(order: Fraction) -> tuple[QSeries, QSeries]:
    # dTheta_{1,3/2} = eta^3/f^2 as dTheta f^2 = eta^3, exact to the order: f^2 leads at q^{-1/24}
    f = weber("f", order)
    lhs = qs.mul(dtheta(ThetaParams(1, Fraction(3, 2)), order + Fraction(1, 24)), qs.mul(f, f))
    return lhs, eta_quotient(((1, 3),), order)


def _pair_weber_eta_quotient(order: Fraction) -> tuple[QSeries, QSeries]:
    # f = eta(tau)^2 / (eta(tau/2) eta(2 tau))
    return weber("f", order), eta_quotient(((1, 2), (Fraction(1, 2), -1), (2, -1)), order)


def _pair_odd_even_split(order: Fraction) -> tuple[QSeries, QSeries]:
    # prod(1+q^{n-1/2}) / prod(1-q^n) = 1 / [prod(1-q^{n/2})(1+q^n)], checked as
    # prod(1+q^{n-1/2}) prod(1-q^{n/2}) prod(1+q^n) = prod(1-q^n); each factor is 1 + O(q^{1/2})
    half = Fraction(1, 2)
    odd = qs.mul(qs.pochhammer(half, 1, 1, None, order), qs.pochhammer(half, half, -1, None, order))
    return qs.mul(odd, qs.pochhammer(1, 1, 1, None, order)), qs.pochhammer(1, 1, -1, None, order)


def _pair_eta_half_inverse(order: Fraction) -> tuple[QSeries, QSeries]:
    # 1/eta(tau/2) = (f/eta) * f2; f/eta leads at q^{-1/16}
    n = order + Fraction(1, 16)
    rhs = qs.mul(qs.mul(weber("f", order), eta_quotient(((1, -1),), n)), weber("f2", n))
    return eta_quotient(((Fraction(1, 2), -1),), order), rhs


def _pair_half_level(weighted: bool, mm: int, j: int, order: Fraction) -> tuple[QSeries, QSeries]:
    # Theta_{2j,2mm+1}(tau/2) = Theta_{j,(2mm+1)/2}(tau); each weight 2kn+j doubles
    build = dtheta if weighted else theta
    lhs = qs.substitute_power(build(ThetaParams(2 * j, Fraction(2 * mm + 1)), 2 * order), Fraction(1, 2))
    rhs = build(ThetaParams(j, Fraction(2 * mm + 1, 2)), order)
    return lhs, qs.scale(rhs, 2) if weighted else rhs


def _pair_theta_partner(j: int, partner: int, k: Fraction, order: Fraction) -> tuple[QSeries, QSeries]:
    return theta(ThetaParams(j, k), order), theta(ThetaParams(partner, k), order)


def _suite(order: Fraction) -> list[tuple[str, dict, Callable[[], tuple[QSeries, QSeries]]]]:
    items: list[tuple[str, dict, Callable[[], tuple[QSeries, QSeries]]]] = [
        ("dtheta-eta-weber-cube", {}, lambda: _pair_dtheta_eta_cube(order)),
        ("weber-eta-quotient", {}, lambda: _pair_weber_eta_quotient(order)),
        ("odd-even-split", {}, lambda: _pair_odd_even_split(order)),
        ("eta-half-inverse", {}, lambda: _pair_eta_half_inverse(order)),
    ]
    for mm in (1, 2, 3):
        for j in range(0, 2 * mm + 2):
            for identity_id, weighted in (("theta-half-level", False), ("dtheta-half-level", True)):
                items.append((identity_id, {"m": mm, "j": j}, partial(_pair_half_level, weighted, mm, j, order)))
    # Theta_{j,k} is even in j and depends only on j mod 2k
    for j, k in ((1, Fraction(3, 2)), (2, Fraction(3, 2)), (1, Fraction(5, 2)), (2, Fraction(6))):
        for identity_id, partner in (("theta-symmetry-negate", -j), ("theta-symmetry-reflect", int(2 * k) - j)):
            items.append((identity_id, {"j": j, "k": k}, partial(_pair_theta_partner, j, partner, k, order)))
    return items


def verify_form_identities(order: RatLike) -> list[VerificationReport]:
    """Run the fixed identity suite at the given order."""
    order_f = Fraction(order)
    if order_f < 10:
        raise ValueError("order must be at least 10")
    return [
        qs.compare_report(identity_id, params, build, order_f)
        for identity_id, params, build in _suite(order_f)
    ]
