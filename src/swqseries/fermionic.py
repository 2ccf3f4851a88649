"""Multi-sum (fermionic) q-series over the inverse Cartan matrix of D_p:
the two one-parameter sum families, fermionic forms of the module
characters, and the auxiliary single- and double-sum identities."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import floor
from operator import add, neg

from . import characters, forms, qseries as qs
from .characters import SWModuleId
from .forms import ThetaParams
from .qseries import QSeries, RatLike, VerificationReport

__all__ = [
    "CartanData",
    "FermionicSumSpec",
    "inverse_cartan_D",
    "warnaar_lhs",
    "warnaar_rhs",
    "verify_warnaar",
    "fermionic_sw_char",
    "fermionic_char_report",
    "verify_aux_identities",
]


class CartanData(namedtuple("CartanData", "p B")):
    """Exact inverse Cartan matrix B of D_p, a p-tuple of p-tuples of
    Fractions: chain nodes 1..p-2, fork nodes p-1 and p both attached to
    node p-2."""

    __slots__ = ()


@lru_cache(maxsize=None)
def inverse_cartan_D(p: int) -> CartanData:
    if p < 3:
        raise ValueError("p must be at least 3")
    a = [[Fraction(0)] * p for _ in range(p)]
    for i in range(p):
        a[i][i] = Fraction(2)
    for i in range(p - 3):
        a[i][i + 1] = a[i + 1][i] = Fraction(-1)
    a[p - 3][p - 2] = a[p - 2][p - 3] = Fraction(-1)
    a[p - 3][p - 1] = a[p - 1][p - 3] = Fraction(-1)

    aug = [row[:] + [Fraction(int(i == j)) for j in range(p)] for i, row in enumerate(a)]
    for col in range(p):
        pivot = next(r for r in range(col, p) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(p):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    b = [row[p:] for row in aug]

    for i in range(p):
        for j in range(p):
            prod = sum(b[i][k] * a[k][j] for k in range(p))
            if prod != (1 if i == j else 0):
                raise AssertionError("inverse self-check failed")
            if b[i][j] != b[j][i]:
                raise AssertionError("inverse not symmetric")
            if b[i][j] <= 0:
                raise AssertionError("inverse not elementwise positive")
    return CartanData(p, tuple(tuple(row) for row in b))


class FermionicSumSpec(namedtuple("FermionicSumSpec", "p lam sigma variant parity")):
    """Parameters of one multi-sum: lattice size p, integer lam in 0..p,
    sigma in {0,1}, variant 1 or 2, and the required parity of
    n_{p-1} + n_p."""

    __slots__ = ()

    def __new__(cls, p: int, lam: int, sigma: int, variant: int, parity: int):
        if p < 3:
            raise ValueError("p must be at least 3")
        if not 0 <= lam <= p:
            raise ValueError("lam out of range")
        if sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        if variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        return tuple.__new__(cls, (p, lam, sigma, variant, parity))


def _horner(n: int, terms) -> list[int]:
    """Coefficients of q^0..q^{n-1} of sum_k q^{s_k} x_k / (q;q)_k, for
    `terms` (k, s_k, x_k) at k = K, ..., 0, x_k a list from q^0: add
    q^{s_k} x_k, then divide by 1 - q^k by running sums mod k (Horner)."""
    if n <= 0:
        return []
    acc = [0] * n
    low = n  # acc[:low] is zero
    for k, s, x in terms:
        if s < n and x:
            m = min(len(x), n - s)
            acc[s:s + m] = map(add, acc[s:s + m], x)
            low = min(low, s)
        _div(acc, k, low, n)
    return acc


def _div(acc: list[int], b: int, low: int, n: int) -> None:
    """acc[:n] <- acc[:n] / (1 - q^b) in place, for acc[:low] zero: a
    running sum along each residue class mod b (a no-op for b = 0)."""
    for r in range(low, min(low + b, n - b)):
        acc[r:n:b] = accumulate(acc[r:n:b])


def _multi_sum(p: int, lin: list[Fraction], const: Fraction, parity: int, order: Fraction) -> QSeries:
    """Sum over n in Z>=0^p with n_{p-1} + n_p = parity mod 2 of

        q^{n.B.n + lin.n + const} / prod_i (q;q)_{n_i},   B = inverse_cartan_D(p).B,

    exact to the given order, by recursion over partial sums, as for
    Andrews-Gordon-type multi-sums (Andrews, The Theory of Partitions,
    ch. 7).  With a = n_{p-1}, b = n_p, eps = parity/2 and
    N_i = M_i + eps = n_i + ... + n_{p-2} + (a+b)/2 for i <= p-2,

        n.B.n = sum_{i<=p-2} N_i^2 + (a^2 + b^2)/2,

    over the chain M_1 >= ... >= M_{p-2} >= M_{p-1} = (a+b-parity)/2 >= 0.
    So the sum is sum_M G_1(M), where G_{p-1}(M) is the fork kernel

        K(M) = sum_{a+b=2M+parity} q^{(a^2+b^2)/2 + l_a a + l_b b + const} / ((q)_a (q)_b),

    G_i(M) = q^{(M+eps)^2} sum_k q^{l_i k} / (q)_k G_{i+1}(M-k), and every
    sum over k (or a) runs in Horner form, acc <- x_k + acc / (1 - q^{k+1}).
    G_i(M) is cut (i-1) d(M) below the top, d(M) = (M+eps)^2 - eps^2,
    as each of the i-1 levels above it adds at least d(M).

    All exponents lie in one coset of Z: each chain level adds eps^2
    plus an integer, and with l_a - l_b and 2 l_b integers the fork
    exponent moves by integers over the pairs a+b of one parity.  So the
    levels are int lists, index j holding exponent lo + j.  A chain
    coefficient l_i that is not a nonnegative integer, or a fork pair or
    parity outside this, raises ValueError.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    chain, la, lb = lin[:p - 2], lin[p - 2], lin[p - 1]
    if any(x.denominator != 1 or x < 0 for x in chain):
        raise ValueError("chain linear coefficients must be nonnegative integers")
    if (la - lb).denominator != 1 or (2 * lb).denominator != 1:
        raise ValueError("fork linear coefficients must differ by an integer and lie in Z/2")
    la2, lb2 = int(2 * la), int(2 * lb)

    def twice_fork(a: int, b: int) -> int:
        return a * a + b * b + la2 * a + lb2 * b

    # twice the lowest fork exponent, rounded down into the coset of a+b = parity
    f0 = twice_fork(parity, 0)
    fork_lo = f0 - 2 * ((f0 - twice_fork(max(0, -la2 // 2), max(0, -lb2 // 2))) // 2)
    lo = const + Fraction((p - 2) * parity, 4) + Fraction(fork_lo, 2)
    top = floor(order - lo)

    def d(M: int) -> int:  # (M + eps)^2 - eps^2
        return M * M + parity * M

    Ms = 0  # M runs over 0..Ms-1, where d(M) <= top
    while d(Ms) <= top:
        Ms += 1
    H = [[1] + [0] * top]  # H[b] = 1/(q;q)_b
    for b in range(1, 2 * Ms + parity - 1):
        H.append(_horner(top + 1, [(b, 0, H[-1])]))
    level = [
        (0, _horner(top + 1 - (p - 2) * d(M), (
            (a, (twice_fork(a, 2 * M + parity - a) - fork_lo) // 2, H[2 * M + parity - a])
            for a in range(2 * M + parity, -1, -1))))
        for M in range(Ms)
    ]
    for i in range(p - 2, 0, -1):
        li = int(chain[i - 1])
        level = [
            (d(M), _horner(top + 1 - i * d(M), (
                (k, level[M - k][0] + li * k, level[M - k][1]) for k in range(M, -1, -1))))
            for M in range(Ms)
        ]
    vals = [0] * (top + 1)
    for off, x in level:
        vals[off:off + len(x)] = map(add, vals[off:off + len(x)], x)
    return qs.from_slots(lo.denominator, lo.numerator, lo.denominator, vals, 1, order)


# -- one-parameter sum families ------------------------------------------------


def _warnaar_data(spec: FermionicSumSpec):
    p = spec.p
    lin = [Fraction(0)] * p
    half = Fraction(spec.lam, 2)
    lin[p - 2] += half
    if spec.variant == 1:
        lin[p - 1] -= half
    else:
        lin[p - 1] += half
        for i in range(max(1, p - spec.lam), p - 1):
            lin[i - 1] += i - p + spec.lam + 1
    const = half * spec.sigma - Fraction(spec.sigma * p, 4)
    return lin, const


def warnaar_lhs(spec: FermionicSumSpec, order: RatLike) -> QSeries:
    """The multi-sum side: tuples weighted by 1/prod (q;q)_{n_i}."""
    lin, const = _warnaar_data(spec)
    return _multi_sum(spec.p, lin, const, spec.parity, Fraction(order))


def _inv_q_inf(order: Fraction) -> QSeries:
    # 1/(q;q)_inf to order + 1, the product factor of every warnaar_rhs at order
    return qs.invert(qs.pochhammer(1, 1, -1, None, order + 1))


def warnaar_rhs(spec: FermionicSumSpec, order: RatLike) -> QSeries:
    """The single-sum side: (1/(q;q)_inf) sum over n in Z of
    q^{p n^2 + (lam - sigma p) n}, weighted by (2n - sigma + 1) for
    variant 2."""
    order_f = Fraction(order)
    return _warnaar_rhs(spec, order_f, _inv_q_inf(order_f))


def _warnaar_rhs(spec: FermionicSumSpec, order_f: Fraction, inv_inf: QSeries) -> QSeries:
    """warnaar_rhs(spec, order_f), given inv_inf = _inv_q_inf(order_f)."""
    p, lam, sig = spec.p, spec.lam, spec.sigma
    b = lam - sig * p
    inner_order = order_f + 1
    coeffs: dict[int, Fraction] = {}
    M = 1
    while p * M * M - abs(b) * M <= inner_order:
        M += 1
    for n in range(-M, M + 1):
        e = p * n * n + b * n
        if e <= inner_order:
            w = 1 if spec.variant == 1 else 2 * n - sig + 1
            coeffs[e] = coeffs.get(e, Fraction(0)) + w
    inner = QSeries(1, coeffs, inner_order)
    return qs.truncate(qs.mul(inv_inf, inner), order_f)


def verify_warnaar(p: int, order: RatLike) -> list[VerificationReport]:
    """Both variants, all lam in 0..p, sigma in {0,1}; the required
    parity of n_{p-1}+n_p is sigma throughout."""
    if p < 3:
        raise ValueError("p must be at least 3")
    order_f = Fraction(order)
    inv_inf = _inv_q_inf(order_f)
    reports = []
    for variant in (1, 2):
        for lam in range(p + 1):
            for sig in (0, 1):
                spec = FermionicSumSpec(p, lam, sig, variant, parity=sig)
                reports.append(
                    qs.compare_report(
                        f"warnaar-v{variant}",
                        {"p": p, "lambda": lam, "sigma": sig},
                        lambda: (warnaar_lhs(spec, order_f), _warnaar_rhs(spec, order_f, inv_inf)),
                        order_f,
                    )
                )
    return reports


# -- fermionic character forms ---------------------------------------------


def fermionic_sw_char(module: SWModuleId, order: RatLike) -> tuple[QSeries, Fraction]:
    """Multi-sum form of the module character: the variant-2 sum over
    p = 2m+1 coordinates at (lam, sigma) = (2(m-i), 0) for lambda
    modules and (2i+1, 1) for pi modules, taken on the q^{1/2} grid
    and divided by (-q;q)_inf; the required parity of n_{2m}+n_{2m+1}
    equals sigma.

    Returns (series, shift) with shift determined by aligning leading
    exponents against sw_char; the pair satisfies
    series = q^{shift} * sw_char."""
    m, i = module.m, module.i
    p = 2 * m + 1
    if module.kind == "lambda":
        wspec = FermionicSumSpec(p, 2 * (m - i), 0, 2, parity=0)
    else:
        wspec = FermionicSumSpec(p, 2 * i + 1, 1, 2, parity=1)
    order_f = Fraction(order)
    half = qs.substitute_power(warnaar_lhs(wspec, 2 * order_f), Fraction(1, 2))
    if half.is_zero():
        raise ValueError(f"order {order_f} below the leading exponent")
    inv_inf = qs.invert(
        qs.pochhammer(1, 1, 1, None, order_f + 1 - min(Fraction(0), half.leading()[0]))
    )
    series = qs.truncate(qs.mul(half, inv_inf), order_f)
    char = characters.sw_char(module, order_f)
    shift = series.leading()[0] - char.leading()[0]
    return series, shift


def fermionic_char_report(module: SWModuleId, order: RatLike) -> VerificationReport:
    """Compare the multi-sum form against q^{shift} * sw_char; the
    derived shift is reported in params."""
    order_f = Fraction(order)
    params: dict[str, object] = {"m": module.m, "module": module.label}

    def check():
        series, shift = fermionic_sw_char(module, order_f)
        params["shift"] = shift
        shifted = qs.shift(characters.sw_char(module, order_f), shift)
        at = min(order_f, order_f + shift)
        return at, qs.compare(series, shifted, at)

    return qs.run_check("fermionic-char", params, check)


# -- auxiliary identities ---------------------------------------------------


@lru_cache(maxsize=None)
def _finite_poch(start: Fraction, step: Fraction, sign: int, count: int, order: Fraction) -> QSeries:
    return qs.pochhammer(start, step, sign, count, order)


@lru_cache(maxsize=None)
def _finite_poch_inv(start: Fraction, step: Fraction, sign: int, count: int, order: Fraction) -> QSeries:
    return qs.invert(qs.pochhammer(start, step, sign, count, order))


def _ratio_horner(top: int, sign: int, e, factors) -> list[int]:
    """Coefficients of u^0..u^top of sum_{n>=0} sign^n u^{e(n)} R_0 ... R_{n-1},
    for exponents e(0) = 0 < e(1) < ... and the term ratios
    R_n = prod_{a in ups} (1 + u^a) / prod_{b in downs} (1 - u^b),
    (ups, downs) = factors(n).  From the top term down (Horner form),
    acc <- 1 + sign u^{e(n+1)-e(n)} R_n acc on one int list, acc[:size]
    cut e(n) below the top."""
    acc = [0] * (top + 1)
    if top < 0:
        return acc
    N = 0  # the last term within the order
    while e(N + 1) <= top:
        N += 1
    acc[0] = 1
    size = top + 1 - e(N)
    for n in range(N - 1, -1, -1):
        _times_ratio(acc, *factors(n), size)
        step = e(n + 1) - e(n)
        acc[step:step + size] = acc[:size] if sign > 0 else map(neg, acc[:size])
        acc[:step] = [1] + [0] * (step - 1)
        size += step
    return acc


def _times_ratio(acc: list[int], ups, downs, size: int) -> None:
    """acc[:size] <- acc[:size] prod_{a in ups} (1 + u^a) / prod_{b in downs} (1 - u^b)
    in place: one shifted add per factor, one running-sum division per divisor."""
    for a in ups:
        if a < size:
            acc[a:size] = map(add, acc[a:size], acc[:size - a])
    for b in downs:
        _div(acc, b, 0, size)


def _durfee_half(k: int, order: Fraction) -> QSeries:
    # sum_n q^{(n^2+kn)/2} / [(u;u)_n (u;u)_{n+k}],  u = q^{1/2}
    h = Fraction(1, 2)
    acc = _ratio_horner(floor(2 * order), 1, lambda n: n * n + k * n, lambda n: ((), (n + 1, n + k + 1)))
    return qs.mul(_finite_poch_inv(h, h, -1, k, order), qs.from_slots(2, 0, 1, acc, 1, order))


def _durfee_mixed(k: int, order: Fraction) -> QSeries:
    # sum_n (-u;u)_n (-u;u)_{n+k} q^{(n^2+kn)/2} / [(q)_n (q)_{n+k}]
    h = Fraction(1, 2)
    acc = _ratio_horner(
        floor(2 * order), 1, lambda n: n * n + k * n, lambda n: ((n + 1, n + k + 1), (2 * n + 2, 2 * n + 2 * k + 2))
    )
    total = qs.mul(qs.from_slots(2, 0, 1, acc, 1, order), _finite_poch(h, h, 1, k, order))
    return qs.mul(total, _finite_poch_inv(Fraction(1), Fraction(1), -1, k, order))


def _euler_eta_sum(order: Fraction) -> QSeries:
    # q^{1/24} sum_n (-1)^n q^{n(n+1)/2} / (q)_n
    inner_order = order - Fraction(1, 24)
    acc = _ratio_horner(floor(inner_order), -1, lambda n: n * (n + 1) // 2, lambda n: ((), (n + 1,)))
    return qs.shift(qs.from_slots(1, 0, 1, acc, 1, inner_order), Fraction(1, 24))


def _eta_double_sum(order: Fraction) -> QSeries:
    # q^{5/48} sum_{m1,m2 >= 0} (-1)^{m1+m2} (-u;u)_{m2}
    #   q^{m1(m1+1) + m2(m2+1)/4} / [(q^2;q^2)_{m1} (q)_{m2}],
    # a product of the sum over m1 and the sum over m2
    lead = Fraction(5, 48)
    inner_order = order - lead
    top = floor(2 * inner_order)
    if top < 0:
        return qs.zero(order)
    s1 = _ratio_horner(top, -1, lambda m: 2 * m * (m + 1), lambda m: ((), (4 * m + 4,)))
    s2 = _ratio_horner(top, -1, lambda m: m * (m + 1) // 2, lambda m: ((m + 1,), (2 * m + 2,)))
    prod = qs.mul(qs.from_slots(2, 0, 1, s1, 1, inner_order), qs.from_slots(2, 0, 1, s2, 1, inner_order))
    return qs.shift(prod, lead)


def _theta_double_sum(order: Fraction) -> QSeries:
    # [q^{5/48} / (-q;q)_inf] sum_{m1 = m2 mod 2} (-u;u)_{m1} (-u;u)_{m2}
    #   q^{3(m1-m2)^2/8 + (m1-m2)/2 + m1 m2/2} / [(q)_{m1} (q)_{m2}]
    # With D = |m1 - m2| and j = min(m1, m2) the sum is sum_{D even} S_D c_D H_D,
    # S_D = (-u;u)_D / (q)_D, c_D = u^{3D^2/4} (u^D + u^-D) (1 at D = 0) and
    # H_D = sum_j (-u;u)_j (-u^{D+1};u)_j u^{j^2+Dj} / [(q)_j (q^{D+1};q)_j];
    # it runs in Horner form over D as well as over j.
    lead = Fraction(5, 48)
    inner_order = order - lead
    top = floor(2 * inner_order)
    vals = [0] * (top + 1)
    d_max = -2  # the largest D whose lowest term lies within the order
    while 3 * (d_max + 2) ** 2 // 4 - (d_max + 2) <= top:
        d_max += 2
    for D in range(d_max, -1, -2):
        # vals <- c_D H_D + (S_{D+2} / S_D) vals
        _times_ratio(vals, (D + 1, D + 2), (2 * D + 2, 2 * D + 4), top + 1)
        c = 3 * D * D // 4
        H = _ratio_horner(
            top - c + D,
            1,
            lambda j: j * j + D * j,
            lambda j: ((j + 1, j + D + 1), (2 * j + 2, 2 * j + 2 * D + 2)),
        )
        for off in {c - D, c + D}:
            m = max(top + 1 - off, 0)
            vals[off:off + m] = map(add, vals[off:off + m], H[:m])
    total = qs.from_slots(2, 0, 1, vals, 1, inner_order)
    inv_inf = qs.invert(qs.pochhammer(1, 1, 1, None, inner_order))
    return qs.shift(qs.truncate(qs.mul(total, inv_inf), inner_order), lead)


def _f_over_eta_times(theta, order: Fraction) -> QSeries:
    # (f/eta) * theta(ThetaParams(1, 3/2)) for theta = forms.theta or forms.dtheta
    return qs.truncate(
        qs.mul(characters.f_over_eta(order + 1), theta(ThetaParams(1, Fraction(3, 2)), order + 2)),
        order,
    )


def verify_aux_identities(order: RatLike) -> list[VerificationReport]:
    """Durfee rectangle sums (both forms, k = 0..3), the alternating-sum
    form of eta, and the two m=1 double-sum identities."""
    order_f = Fraction(order)
    if order_f < 10:
        raise ValueError("order must be at least 10")
    reports = []

    half_inf = qs.truncate(
        qs.invert(qs.pochhammer(Fraction(1, 2), Fraction(1, 2), -1, None, order_f + 1)),
        order_f,
    )
    for k in range(4):
        reports.append(
            qs.compare_report("durfee-half", {"k": k}, lambda: (_durfee_half(k, order_f), half_inf), order_f)
        )
        reports.append(
            qs.compare_report("durfee-mixed", {"k": k}, lambda: (_durfee_mixed(k, order_f), half_inf), order_f)
        )
    reports.append(
        qs.compare_report("euler-eta", {}, lambda: (_euler_eta_sum(order_f), forms.eta(order_f)), order_f)
    )

    double_product = qs.truncate(
        qs.mul(forms.eta_scaled(2, order_f + 1), forms.eta_scaled(Fraction(1, 2), order_f + 1)),
        order_f,
    )
    reports.append(
        qs.compare_report(
            "dtheta-eta-double-product",
            {},
            lambda: (_f_over_eta_times(forms.dtheta, order_f), double_product),
            order_f,
        )
    )
    reports.append(
        qs.compare_report(
            "eta-double-sum", {}, lambda: (_eta_double_sum(order_f), double_product), order_f
        )
    )
    reports.append(
        qs.compare_report(
            "theta-double-sum",
            {},
            lambda: (_theta_double_sum(order_f), _f_over_eta_times(forms.theta, order_f)),
            order_f,
        )
    )
    return reports
