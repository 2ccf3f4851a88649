"""Theta-form characters and supercharacters of the irreducible SW(m)
modules, irreducible Neveu-Schwarz characters, and the decomposition
cross-checks between them.  Each character and supercharacter is data,
a `forms.ThetaForm` from `module_form`, evaluated by `forms.theta_form`."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import forms, qseries as qs
from .forms import ThetaForm
from .qseries import QSeries, RatLike, VerificationReport
from .report import value_type

__all__ = [
    "SWModuleId",
    "CentralData",
    "all_module_ids",
    "central_data",
    "F_OVER_ETA",
    "F2_OVER_ETA",
    "f_over_eta",
    "f2_over_eta",
    "ns_irr_char",
    "module_form",
    "sw_char",
    "sw_superchar_theta",
    "char_by_decomposition",
    "superchar_leading_shift",
    "ns_space_exact_rank",
    "verify_character_suite",
]


class SWModuleId(value_type("SWModuleId", "m kind index")):
    """One of the 2m+1 irreducible modules: lambda:1 .. lambda:m+1 or
    pi:1 .. pi:m."""

    __slots__ = ()

    def __new__(cls, m: int, kind: str, index: int):
        if m < 1:
            raise ValueError("m must be at least 1")
        if kind == "lambda":
            if not 1 <= index <= m + 1:
                raise ValueError("lambda index out of range")
        elif kind == "pi":
            if not 1 <= index <= m:
                raise ValueError("pi index out of range")
        else:
            raise ValueError(f"unknown module kind {kind!r}")
        return tuple.__new__(cls, (m, kind, index))

    @property
    def i(self) -> int:
        """The parameter i: lambda:(i+1) has i in 0..m, pi:(m-i) has i in 0..m-1."""
        if self.kind == "lambda":
            return self.index - 1
        return self.m - self.index

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.index}"


def all_module_ids(m: int) -> list[SWModuleId]:
    ids = [SWModuleId(m, "lambda", j) for j in range(1, m + 2)]
    ids += [SWModuleId(m, "pi", j) for j in range(1, m + 1)]
    return ids


class CentralData(value_type("CentralData", "m c")):
    """Central charge c and conformal weights h^{r,s} for fixed m."""

    __slots__ = ()

    def h(self, r: int, s: int) -> Fraction:
        p = 2 * self.m + 1
        return Fraction((s * p - r) ** 2 - (2 * self.m) ** 2, 8 * p)


@lru_cache(maxsize=None)
def central_data(m: int) -> CentralData:
    if m < 1:
        raise ValueError("m must be at least 1")
    return CentralData(m, Fraction(3, 2) * (1 - Fraction(8 * m * m, 2 * m + 1)))


# f/eta = eta(tau) / (eta(tau/2) eta(2 tau)) = q^{-1/16} prod (1+q^{n-1/2}) / prod (1-q^n)
F_OVER_ETA = ((1, 1), (Fraction(1, 2), -1), (2, -1))
# f2/eta = eta(2 tau) / eta(tau)^2 = prod (1+q^n) / prod (1-q^n)
F2_OVER_ETA = ((2, 1), (1, -2))


@lru_cache(maxsize=None)
def f_over_eta(order: RatLike) -> QSeries:
    """f/eta, exact to max(order, -1/16)."""
    return forms.eta_quotient(F_OVER_ETA, order)


@lru_cache(maxsize=None)
def f2_over_eta(order: RatLike) -> QSeries:
    """f2/eta, exact to max(order, 0)."""
    return forms.eta_quotient(F2_OVER_ETA, order)


def ns_irr_char(m: int, i: int, n: int, order: RatLike) -> QSeries:
    """Character of the irreducible Neveu-Schwarz Virasoro module with
    central charge c(m) and lowest weight h^{2i+1,2n+1}:

    q^{m^2/(2(2m+1))} * (f/eta) * (q^{h^{2i+1,2n+1}} - q^{h^{2i+1,-2n-1}})

    exact to the given order.  With o = m^2/(2(2m+1)), h^{r,s} + o =
    (s(2m+1) - r)^2 / (8(2m+1)) >= 0, so the factor q^{h+o} - q^{h'+o}
    has no term below q^0 and is built past the order by f/eta's lead 1/16.
    """
    if not (m >= 1 and 0 <= i <= m and n >= 0):
        raise ValueError("parameter out of range")
    cd = central_data(m)
    offset = Fraction(m * m, 2 * (2 * m + 1))
    weights = ((cd.h(2 * i + 1, 2 * n + 1) + offset, 1), (cd.h(2 * i + 1, -2 * n - 1) + offset, -1))
    top = Fraction(order) + Fraction(1, 16)
    return qs.mul(f_over_eta(Fraction(order)), qs.make_series([(e, s) for e, s in weights if e <= top], top))


def module_form(module: SWModuleId, superchar: bool = False) -> ThetaForm:
    """The module's character, or with `superchar` its supercharacter
    exactly as displayed, as data.  With (a, b) = (2i+1, c) for lambda
    and (2m-2i, -c) for pi, the character is
    (f/eta) (a Theta_{m-i,k} + b dTheta_{m-i,k}) / (2m+1) at k = (2m+1)/2
    and c = 2, and the supercharacter (f2/eta) (a Theta_- + b dTheta_-) / (2m+1)
    with X_- = X_{2(m-i),k} - X_{2(m+i+1),k} at k = 2(2m+1) and c = 1."""
    m, i = module.m, module.i
    c = 1 if superchar else 2
    a, b = (2 * i + 1, c) if module.kind == "lambda" else (2 * m - 2 * i, -c)
    a, b = Fraction(a, 2 * m + 1), Fraction(b, 2 * m + 1)
    if superchar:
        return ThetaForm(0, F2_OVER_ETA, 2 * (2 * m + 1), ((2 * (m - i), a, b), (2 * (m + i + 1), -a, -b)))
    return ThetaForm(0, F_OVER_ETA, Fraction(2 * m + 1, 2), ((m - i, a, b),))


@lru_cache(maxsize=None)
def sw_char(module: SWModuleId, order: RatLike) -> QSeries:
    """Theta-form character (f/eta) times the level-(2m+1)/2 theta combination."""
    return forms.theta_form(module_form(module), order)


def sw_superchar_theta(module: SWModuleId, order: RatLike) -> QSeries:
    """Supercharacter in theta form: (f2/eta) times the level-2(2m+1)
    theta combination, implemented exactly as displayed."""
    return forms.theta_form(module_form(module, superchar=True), order)


def module_weight(module: SWModuleId) -> Fraction:
    """Lowest conformal weight of the module."""
    cd = central_data(module.m)
    if module.kind == "lambda":
        return cd.h(2 * module.i + 1, 1)
    return cd.h(2 * (2 * module.m + 1 + module.i) + 1, 1)


def char_by_decomposition(module: SWModuleId, order: RatLike) -> QSeries:
    """Sum of (2n+1) copies of the n-th irreducible NS character; valid
    for the lambda variants only."""
    if module.kind != "lambda":
        raise ValueError("decomposition form available for lambda variants only")
    m, i = module.m, module.i
    cd = central_data(m)
    order_f = Fraction(order)
    total = qs.zero(order_f)
    n = 0
    while cd.h(2 * i + 1, 2 * n + 1) - cd.c / 24 <= order_f:
        total = qs.add(total, qs.scale(ns_irr_char(m, i, n, order_f), 2 * n + 1))
        n += 1
    return total


def superchar_leading_shift(module: SWModuleId, order: RatLike = 10) -> Fraction:
    """Leading exponent of the displayed supercharacter minus
    (h - c/24); reported as data, never silently corrected."""
    cd = central_data(module.m)
    sc = sw_superchar_theta(module, order)
    lead, _ = sc.leading()
    return lead - (module_weight(module) - cd.c / 24)


def ns_space_exact_rank(m: int) -> int:
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
    combos = [forms.theta_form(module_form(mod)._replace(powers=()), order) for mod in all_module_ids(m)]
    dthetas = [forms.theta_form(ThetaForm(0, (), k, ((j, 0, 1),)), order) for j in range(1, m + 1)]
    return qs.prefix_rank(combos) + qs.prefix_rank(dthetas)


def _integrality(s: QSeries) -> tuple[Fraction, tuple[Fraction, Fraction, Fraction] | None]:
    """(order, first coefficient that is not a nonnegative integer, as
    (exponent, coefficient, nearest nonnegative integer), or None)."""
    for e, c in s.terms():
        if c.denominator != 1 or c < 0:
            return s.order, (e, c, Fraction(max(0, round(c))))
    return s.order, None


def _pair_sum(m: int, i: int, order: Fraction) -> tuple[QSeries, QSeries]:
    lam = sw_char(SWModuleId(m, "lambda", i + 1), order)
    pi = sw_char(SWModuleId(m, "pi", m - i), order)
    rhs = forms.theta_form(ThetaForm(0, F_OVER_ETA, Fraction(2 * m + 1, 2), ((m - i, 1, 0),)), order)
    return qs.add(lam, pi), rhs


def verify_character_suite(m: int, order: RatLike) -> list[VerificationReport]:
    """Decomposition, pair-sum, and coefficient checks for all modules."""
    if m < 1:
        raise ValueError("m must be at least 1")
    order_f = Fraction(order)
    reports = []
    for i in range(m + 1):
        module = SWModuleId(m, "lambda", i + 1)
        reports.append(
            qs.compare_report(
                "char-decomposition",
                {"m": m, "module": module.label},
                lambda: (char_by_decomposition(module, order_f), sw_char(module, order_f)),
                order_f,
            )
        )
    for i in range(m):
        reports.append(
            qs.compare_report("char-pair-sum", {"m": m, "i": i}, lambda: _pair_sum(m, i, order_f), order_f)
        )
    for module in all_module_ids(m):
        reports.append(
            qs.run_check(
                "char-integrality",
                {"m": m, "module": module.label},
                lambda: _integrality(sw_char(module, order_f)),
            )
        )
    return reports
