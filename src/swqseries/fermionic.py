"""Multi-sum (fermionic) q-series over the inverse Cartan matrix of D_p:
the two one-parameter sum families, fermionic forms of the module
characters, and the auxiliary single- and double-sum identities.

Every sum here runs through one Horner kernel, `_horner`: from the top
term down, acc <- R_k acc + q^{s_k} x_k on one int list, where the
ratio R_k is a product of factors 1 + q^a and divisors 1 - q^b.  A
last term with no x applies its ratio to the whole sum, so a finite
product in front of a sum (the Durfee factors) is one more Horner step,
and a sum whose terms carry another sum as their x is a product of two
sums.  The D_p sums of one p at one order share one cache, `_work`,
which `verify_warnaar` and `verify_fermionic_chars` clear when they
return.  The module multiplies no series: a sum
times an eta quotient is one `forms.eta_product`, every other bosonic
side an eta quotient or a `forms.ThetaForm`, so the order rule of a
product lives in `forms` and the module builds no infinite product."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import floor, isqrt
from operator import add

from . import characters, forms, qseries as qs
from .characters import SWModuleId
from .forms import ThetaForm
from .qseries import QSeries, RatLike, VerificationReport
from .report import value_type

__all__ = [
    "FermionicSumSpec",
    "inverse_cartan_D",
    "warnaar_lhs",
    "warnaar_rhs",
    "verify_warnaar",
    "fermionic_sw_char",
    "fermionic_char_report",
    "verify_fermionic_chars",
    "verify_aux_identities",
]


@lru_cache(maxsize=None)
def inverse_cartan_D(p: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse Cartan matrix B of D_p, a p-tuple of p-tuples of
    Fractions: chain nodes 1..p-2, fork nodes p-1 and p both attached to
    node p-2."""
    if p < 3:
        raise ValueError("p must be at least 3")

    def b(i: int, j: int) -> Fraction:  # 1-based: chain nodes 1..p-2, fork nodes p-1 and p
        if max(i, j) <= p - 2:
            return Fraction(min(i, j))
        if min(i, j) <= p - 2:
            return Fraction(min(i, j), 2)
        return Fraction(p if i == j else p - 2, 4)

    nodes = range(1, p + 1)
    return tuple(tuple(b(i, j) for j in nodes) for i in nodes)


class FermionicSumSpec(value_type("FermionicSumSpec", "p lam sigma variant")):
    """Parameters of one multi-sum: lattice size p, integer lam in 0..p,
    sigma in {0,1} (also the required parity of n_{p-1} + n_p) and
    variant 1 or 2."""

    __slots__ = ()

    def __new__(cls, p: int, lam: int, sigma: int, variant: int):
        if p < 3:
            raise ValueError("p must be at least 3")
        if not 0 <= lam <= p:
            raise ValueError("lam out of range")
        if sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        if variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        return tuple.__new__(cls, (p, lam, sigma, variant))


def _horner(n: int, terms) -> list[int]:
    """Coefficients of q^0..q^{n-1} of t_0 + R_0 (t_1 + R_1 (t_2 + ...)),
    t_k = q^{s_k} x_k, for `terms` (s_k, x_k, ups_k, downs_k) from the top
    term down, x_k a list from q^0 and
    R_k = prod_{a in ups_k} (1 + q^a) / prod_{b in downs_k} (1 - q^b).
    Each step is acc <- R_k acc + t_k: a factor is one shifted add, a
    divisor running sums (`_div`), and both skip acc[:low], which is zero.
    A term with an empty x adds nothing, so as the last term it applies
    R_k to the whole sum."""
    if n <= 0:
        return []
    acc = [0] * n
    low = n  # acc[:low] is zero
    for s, x, ups, downs in terms:
        for a in ups:
            if low + a < n:
                acc[low + a:] = map(add, acc[low + a:], acc[low:n - a])
        for b in downs:
            _div(acc, b, low, n)
        if s < n and x:
            m = min(len(x), n - s)
            acc[s:s + m] = map(add, acc[s:s + m], x)
            low = min(low, s)
    return acc


def _div(acc: list[int], b: int, low: int, n: int) -> None:
    """acc[:n] <- acc[:n] / (1 - q^b) in place, for acc[:low] zero: a
    running sum along each residue class mod b (a no-op for b = 0)."""
    for r in range(low, min(low + b, n - b)):
        acc[r:n:b] = accumulate(acc[r:n:b])


def _frame(spec: FermionicSumSpec, order: Fraction) -> tuple:
    """(fork_lo, lo, top, Ms) of `spec` in `_multi_sum`: twice the lowest fork
    exponent, the lowest exponent, floor(order - lo), and the count of M with d(M) <= top."""
    lam, parity = spec.lam, spec.sigma
    lb2 = lam if spec.variant == 2 else -lam
    b0, f0 = max(0, -lb2 // 2), parity * (parity + lam)  # twice the fork exponent at (0, b0) and (parity, 0)
    fork_lo = f0 - 2 * ((f0 - b0 * (b0 + lb2)) // 2)  # the lower, rounded down into the coset of a+b = parity
    lo = Fraction(parity * (lam - 1) + fork_lo, 2)  # const + (p-2) eps^2 + fork_lo/2
    top, Ms = floor(order - lo), 0
    while Ms * (Ms + parity) <= top:  # M runs over 0..Ms-1, where d(M) <= top
        Ms += 1
    return fork_lo, lo, top, Ms


@lru_cache(maxsize=1)
def _work(p: int, order: Fraction) -> dict:
    """What the D_p sums share at one order, kept for the last (p, order) asked and cleared when
    `verify_warnaar` or `verify_fermionic_chars` returns: "H", row b
    1/(q;q)_b (b < 2 Ms + sigma - 1) to q^{order - p b(b-2)/4}, as a kernel's term at q^E reads it
    with E + (p-2) d(M) >= p b(b-2)/4, but never past the largest top of a variant-1 (kernel) `_frame`."""
    frames = [(_frame(FermionicSumSpec(p, lam, sigma, 1), order), sigma) for lam in range(p + 1) for sigma in (0, 1)]
    n = max(top for (_, _, top, _), _ in frames) + 1
    H = [[1] + [0] * (n - 1)]
    for b in range(1, max(2 * Ms + sigma - 1 for (_, _, _, Ms), sigma in frames)):
        H.append(H[-1][:max(0, (floor(4 * order) - p * b * (b - 2)) // 4 + 1)])
        _div(H[-1], b, 0, len(H[-1]))
    return {"H": H}


def _multi_sum(spec: FermionicSumSpec, order: Fraction) -> QSeries:
    """The multi-sum side of `spec`: the sum over n in Z>=0^p with
    n_{p-1} + n_p = sigma mod 2 of

        q^{n.B.n + l.n + const} / prod_i (q;q)_{n_i},   B = inverse_cartan_D(p),

    with const = sigma (2 lam - p)/4, chain coefficients
    l_i = max(0, i - p + lam + 1) for variant 2 (0 for variant 1) and
    fork pair 2 l_{p-1} = lam, 2 l_p = -lam for variant 1 and lam for
    variant 2, exact to the given order, by
    recursion over partial sums, as for Andrews-Gordon-type multi-sums
    (Andrews, The Theory of Partitions, ch. 7).  With a = n_{p-1},
    b = n_p, eps = sigma/2 and N_i = M_i + eps = n_i + ... + n_{p-2} + (a+b)/2
    for i <= p-2,

        n.B.n = sum_{i<=p-2} N_i^2 + (a^2 + b^2)/2,

    over the chain M_1 >= ... >= M_{p-2} >= M_{p-1} = (a+b-sigma)/2 >= 0.
    So the sum is sum_M G_1(M), where G_{p-1}(M) is the fork kernel

        K(M) = sum_{a+b=2M+sigma} q^{(a^2+b^2)/2 + l_{p-1} a + l_p b + const} / ((q)_a (q)_b),

    G_i(M) = q^{(M+eps)^2} sum_k q^{l_i k} / (q)_k G_{i+1}(M-k), and every
    sum over k (or a) is one `_horner` call, acc <- acc / (1 - q^{k+1}) + x_k.
    G_i(M) is cut (i-1) d(M) below the top, d(M) = (M+eps)^2 - eps^2,
    as each of the i-1 levels above it adds at least d(M).

    All exponents lie in one coset of Z: each chain level adds eps^2
    plus an integer, and as l_{p-1} - l_p and 2 l_p are integers the
    fork exponent moves by integers over the pairs a+b of one parity.
    So the levels are int lists, index j holding exponent lo + j.

    With la2 = 2 l_{p-1}, lb2 = 2 l_p, delta = la2 - lb2 and a+b = 2M+sigma,

        a^2 + b^2 + la2 a + lb2 b = a^2 + b^2 + delta (a-b)/2 + (la2+lb2)(2M+sigma)/2,

    so K(M) is the kernel of the variant-1 spec with lam = delta/2 (whose
    top is at least ours) shifted by (la2+lb2)(2M+sigma)/4 slots plus
    the difference of the two specs' lowest fork exponents.
    `_work(p, order)` holds the table, the delta = 0 kernel of each sigma and one result per DP input.
    The last level, the sum over M, runs in the aux sums' frame, `_grid_sum` on the grid q from lo.
    """
    p, lam, parity = spec.p, spec.lam, spec.sigma
    la2, lb2 = lam, lam if spec.variant == 2 else -lam
    chain = [max(0, i - p + lam + 1) if spec.variant == 2 else 0 for i in range(p - 2, 0, -1)]
    ref = FermionicSumSpec(p, (la2 - lb2) // 2, parity, 1)
    work, key = _work(p, order), (parity, la2, lb2, tuple(chain))
    if key in work:
        return work[key]
    fork_lo, lo, top, Ms = _frame(spec, order)
    ref_fork_lo, _, ref_top, ref_Ms = _frame(ref, order)

    def d(M: int) -> int:  # (M + eps)^2 - eps^2
        return M * M + parity * M

    kernels = work if la2 == lb2 else {}  # only the delta = 0 kernels have two readers
    if parity not in kernels:
        H = work["H"]
        kernels[parity] = [
            _horner(ref_top + 1 - (p - 2) * d(M), (
                ((a * a + b * b + ref.lam * (a - b) - ref_fork_lo) // 2, H[b], (), (a + 1,))
                for a, b in ((a, 2 * M + parity - a) for a in range(2 * M + parity, -1, -1))))
            for M in range(ref_Ms)
        ]
    level = [(((la2 + lb2) * (2 * M + parity) + 2 * (ref_fork_lo - fork_lo)) // 4, kernels[parity][M])
             for M in range(Ms)]
    for i, li in zip(range(p - 2, 0, -1), chain):
        level = [
            (d(M), _horner(top + 1 - i * d(M), (
                (level[M - k][0] + li * k, level[M - k][1], (), (k + 1,)) for k in range(M, -1, -1))))
            for M in range(Ms)
        ]
    work[key] = _grid_sum(1, lo, order, lambda _: ((off, x, (), ()) for off, x in level))
    return work[key]


# -- one-parameter sum families ------------------------------------------------


def warnaar_lhs(spec: FermionicSumSpec, order: RatLike) -> QSeries:
    """The multi-sum side: tuples weighted by 1/prod (q;q)_{n_i}."""
    return _multi_sum(spec, Fraction(order))


def warnaar_rhs(spec: FermionicSumSpec, order: RatLike) -> QSeries:
    """The single-sum side: (1/(q;q)_inf) sum over n in Z of
    q^{p n^2 + (lam - sigma p) n}, weighted by (2n - sigma + 1) for
    variant 2.  With b = lam - sigma p the single sum is
    q^{-b^2/4p} Theta_{b,p}, and its variant-2 weight 2n - sigma + 1 is
    ((2pn + b) + (p - lam)) / p, so the variant-2 sum is
    q^{-b^2/4p} (dTheta_{b,p} + (p - lam) Theta_{b,p}) / p.  With
    1/(q;q)_inf = q^{1/24} / eta, that is one ThetaForm."""
    p, lam = spec.p, spec.lam
    b = lam - spec.sigma * p
    weights = ((b, 1, 0),) if spec.variant == 1 else ((b, Fraction(p - lam, p), Fraction(1, p)),)
    return forms.theta_form(ThetaForm(Fraction(1, 24) - Fraction(b * b, 4 * p), ((1, -1),), p, weights), order)


def verify_warnaar(p: int, order: RatLike) -> list[VerificationReport]:
    """Both variants, all lam in 0..p, sigma in {0,1}; the required
    parity of n_{p-1}+n_p is sigma throughout."""
    if p < 3:
        raise ValueError("p must be at least 3")
    order_f = Fraction(order)
    specs = [FermionicSumSpec(p, lam, sig, variant) for variant in (1, 2) for lam in range(p + 1) for sig in (0, 1)]
    reports = [
        qs.compare_report(
            f"warnaar-v{spec.variant}",
            {"p": p, "lambda": spec.lam, "sigma": spec.sigma},
            lambda: (_multi_sum(spec, order_f), warnaar_rhs(spec, order_f)),
            order_f,
        )
        for spec in specs
    ]
    _work.cache_clear()  # no later suite reads the table, kernels or sums
    return reports


# -- fermionic character forms ---------------------------------------------


def fermionic_sw_char(module: SWModuleId, order: RatLike) -> tuple[QSeries, Fraction]:
    """Multi-sum form of the module character: the variant-2 sum over
    p = 2m+1 coordinates at (lam, sigma) = (2(m-i), 0) for lambda
    modules and (2i+1, 1) for pi modules, taken on the q^{1/2} grid
    and divided by (-q;q)_inf; the required parity of n_{2m}+n_{2m+1}
    equals sigma.

    Returns (series, shift) with the fixed shift of `_char_shift`; the
    fermionic form states series = q^{shift} * sw_char, which
    `fermionic_char_report` checks."""
    order_f = Fraction(order)
    if order_f < 0:
        raise ValueError("order must be nonnegative")
    m, i = module.m, module.i
    lam, sigma = (2 * (m - i), 0) if module.kind == "lambda" else (2 * i + 1, 1)
    wspec = FermionicSumSpec(2 * m + 1, lam, sigma, 2)
    # variant 2 with lam >= 1 where sigma = 1: `_frame` puts every term at
    # q^0 or above; 1/(-q;q)_inf = q^{1/24} eta(tau) / eta(2 tau)
    return forms.eta_product(
        Fraction(1, 24), ((1, 1), (2, -1)),
        lambda n: qs.substitute_power(warnaar_lhs(wspec, 2 * n), Fraction(1, 2)), order_f), _char_shift(module)


def _char_shift(module: SWModuleId) -> Fraction:
    """c/24 - h^{2i+1,1}, derived, not fitted.  sw_char is
    f/eta = q^{-1/16}(1 + O(q^{1/2})) times theta terms at exponents
    (j + (2m+1)n)^2 / (2(2m+1)), j = m - i; with c/24 = 1/16 - m^2/(2(2m+1))
    and h^{2i+1,1} = (j^2 - m^2)/(2(2m+1)), q^{shift} sw_char has its n-th
    term at n(2j + (2m+1)n)/2: the n = 0 term at q^0, where the multi-sum
    has its zero tuple, and every term on its q^{1/2} grid.  For pi modules
    both n = 0 terms vanish (weight (2m - 2i) - 2j = 0; sigma = 1 excludes
    the zero tuple).  So a wrong leading exponent fails the comparison."""
    cd = characters.central_data(module.m)
    return cd.c / 24 - cd.h(2 * module.i + 1, 1)


def fermionic_char_report(module: SWModuleId, order: RatLike) -> VerificationReport:
    """Compare the multi-sum form against q^{shift} * sw_char up to the
    requested order, for the fixed shift that `fermionic_sw_char`
    returns, which is reported in params: the module's form moved by
    q^{shift}, exact to the order."""
    order_f = Fraction(order)
    params = {"m": module.m, "module": module.label}

    def check():
        series, shift = fermionic_sw_char(module, order_f)
        params["shift"] = shift
        char = forms.theta_form(characters.module_form(module)._replace(shift=shift), order_f)
        return order_f, qs.compare(series, char, order_f)

    return qs.run_check("fermionic-char", params, check)


def verify_fermionic_chars(m: int, order: RatLike) -> list[VerificationReport]:
    """fermionic_char_report for each of the 2m+1 modules."""
    reports = [fermionic_char_report(mid, order) for mid in characters.all_module_ids(m)]
    _work.cache_clear()
    return reports


# -- auxiliary identities ---------------------------------------------------


# Uncalled: kept only because swqbench/tracer.py reads their cache_info() (ROADMAP item 2).
@lru_cache(maxsize=None)
def _finite_poch(start: Fraction, step: Fraction, sign: int, count: int, order: Fraction) -> QSeries:
    return qs.pochhammer(start, step, sign, count, order)


@lru_cache(maxsize=None)
def _finite_poch_inv(start: Fraction, step: Fraction, sign: int, count: int, order: Fraction) -> QSeries:
    return qs.invert(qs.pochhammer(start, step, sign, count, order))


def _grid_sum(den: int, lead: int | Fraction, order: Fraction, terms) -> QSeries:
    """q^lead times the `_horner` sum of terms(top) on the grid u = q^{1/den}, exact to
    the order: its last slot is top = floor(den (order - lead)), clamped at 0 for `terms`."""
    top = floor(den * (order - lead))
    acc = _horner(top + 1, terms(max(top, 0)))
    return qs.shift(QSeries(den, 0, 1, acc, 1, order - lead), lead)


# Each sum below is sum_{n>=0} sign^n u^{e(n)} R_0 ... R_{n-1} on one grid
# u (q^{1/2} or q), one `_grid_sum` over the terms
# (e(n), [sign^n], ups_n, downs_n), R_n = prod (1 + u^ups) / prod (1 - u^downs),
# from a bound on the last term within the order down to n = 0.


def _durfee_half(k: int, order: Fraction) -> QSeries:
    # sum_n q^{(n^2+kn)/2} / [(u;u)_n (u;u)_{n+k}],  u = q^{1/2}; the
    # ratios give (u;u)_n (u^{k+1};u)_n, and the last term, with no x,
    # divides by the rest, (u;u)_k
    return _grid_sum(2, 0, order, lambda top: chain(
        ((n * n + k * n, [1], (), (n + 1, n + k + 1)) for n in range(isqrt(top), -1, -1)),
        [(0, (), (), range(1, k + 1))]))


def _durfee_mixed(k: int, order: Fraction) -> QSeries:
    # sum_n (-u;u)_n (-u;u)_{n+k} q^{(n^2+kn)/2} / [(q)_n (q)_{n+k}]; the
    # last term, with no x, applies the rest, (-u;u)_k / (q)_k
    return _grid_sum(2, 0, order, lambda top: chain(
        ((n * n + k * n, [1], (n + 1, n + k + 1), (2 * n + 2, 2 * n + 2 * k + 2))
         for n in range(isqrt(top), -1, -1)),
        [(0, (), range(1, k + 1), range(2, 2 * k + 1, 2))]))


def _euler_eta_sum(order: Fraction) -> QSeries:
    # q^{1/24} sum_n (-1)^n q^{n(n+1)/2} / (q)_n
    return _grid_sum(1, Fraction(1, 24), order, lambda top: (
        (n * (n + 1) // 2, [(-1) ** n], (), (n + 1,)) for n in range(isqrt(2 * top), -1, -1)))


def _eta_double_sum(order: Fraction) -> QSeries:
    # q^{5/48} sum_{m1,m2 >= 0} (-1)^{m1+m2} (-u;u)_{m2}
    #   q^{m1(m1+1) + m2(m2+1)/4} / [(q^2;q^2)_{m1} (q)_{m2}],
    # the sum over m1 with the sum over m2 as the x of its terms
    def terms(top: int):
        s2 = _horner(top + 1, (
            (m * (m + 1) // 2, [(-1) ** m], (m + 1,), (2 * m + 2,)) for m in range(isqrt(2 * top), -1, -1)))
        neg_s2 = [-c for c in s2]
        return ((2 * m * (m + 1), neg_s2 if m % 2 else s2, (), (4 * m + 4,)) for m in range(isqrt(top), -1, -1))

    return _grid_sum(2, Fraction(5, 48), order, terms)


def _theta_double_sum(order: Fraction) -> QSeries:
    # [q^{5/48} / (-q;q)_inf] sum_{m1 = m2 mod 2} (-u;u)_{m1} (-u;u)_{m2}
    #   q^{3(m1-m2)^2/8 + (m1-m2)/2 + m1 m2/2} / [(q)_{m1} (q)_{m2}]
    # With D = |m1 - m2| and j = min(m1, m2) the sum is sum_{D even} S_D c_D H_D,
    # S_D = (-u;u)_D / (q)_D, c_D = u^{3D^2/4} (u^D + u^-D) (1 at D = 0) and
    # H_D = sum_j (-u;u)_j (-u^{D+1};u)_j u^{j^2+Dj} / [(q)_j (q^{D+1};q)_j];
    # the sum over D is one more Horner sum, with ratio S_{D+2} / S_D.
    # Every term lies at q^0 or above (3D^2/4 - D >= 0 for even D), so with
    # 1/(-q;q)_inf = q^{1/24} eta(tau) / eta(2 tau) the side is one
    # `forms.eta_product` at the shift 5/48 + 1/24.
    def terms(top: int):
        # 3D^2/4 - D exceeds top from D = 2 isqrt(top) + 2 on
        for D in range(2 * isqrt(top) + 2, -1, -2):
            c = 3 * D * D // 4
            H = _horner(top - c + D + 1, (
                (j * j + D * j, [1], (j + 1, j + D + 1), (2 * j + 2, 2 * j + 2 * D + 2))
                for j in range(isqrt(max(top - c + D, 0)), -1, -1)))
            yield c - D, H, (D + 1, D + 2), (2 * D + 2, 2 * D + 4)
            if D:
                yield c + D, H, (), ()

    return forms.eta_product(Fraction(7, 48), ((1, 1), (2, -1)), lambda n: _grid_sum(2, 0, n, terms), order)


def verify_aux_identities(order: RatLike) -> list[VerificationReport]:
    """Durfee rectangle sums (both forms, k = 0..3), the alternating-sum
    form of eta, and the two m=1 double-sum identities."""
    order_f = Fraction(order)
    if order_f < 10:
        raise ValueError("order must be at least 10")
    reports = []

    # 1/(u;u)_inf = q^{1/48} / eta(tau/2), u = q^{1/2}
    half_inf = forms.eta_product(Fraction(1, 48), ((Fraction(1, 2), -1),), qs.one, order_f)
    for k in range(4):
        reports.append(
            qs.compare_report("durfee-half", {"k": k}, lambda: (_durfee_half(k, order_f), half_inf), order_f)
        )
        reports.append(
            qs.compare_report("durfee-mixed", {"k": k}, lambda: (_durfee_mixed(k, order_f), half_inf), order_f)
        )
    # (f/eta) dTheta_{1,3/2} and (f/eta) Theta_{1,3/2}
    dth = ThetaForm(0, characters.F_OVER_ETA, Fraction(3, 2), ((1, 0, 1),))
    th = dth._replace(weights=((1, 1, 0),))
    double_product = forms.eta_quotient(((2, 1), (Fraction(1, 2), 1)), order_f)
    checks = [
        ("euler-eta", lambda: (_euler_eta_sum(order_f), forms.eta(order_f))),
        ("dtheta-eta-double-product", lambda: (forms.theta_form(dth, order_f), double_product)),
        ("eta-double-sum", lambda: (_eta_double_sum(order_f), double_product)),
        ("theta-double-sum", lambda: (_theta_double_sum(order_f), forms.theta_form(th, order_f))),
    ]
    reports += [qs.compare_report(name, {}, build, order_f) for name, build in checks]
    return reports
