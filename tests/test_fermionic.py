"""Inverse Cartan data, the one-parameter sum families, fermionic
character forms, and the auxiliary identities."""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from itertools import product as iproduct
from math import floor, isqrt, lcm
from operator import add, neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swqseries import characters as ch
from swqseries import fermionic as fm
from swqseries import forms
from swqseries import qseries as qs

F = Fraction


# -- inverse Cartan matrix ---------------------------------------------------


def test_inverse_cartan_p3_frozen():
    B = fm.inverse_cartan_D(3).B
    assert B == (
        (F(1), F(1, 2), F(1, 2)),
        (F(1, 2), F(3, 4), F(1, 4)),
        (F(1, 2), F(1, 4), F(3, 4)),
    )


def _cartan_D(p):
    a = [[F(0)] * p for _ in range(p)]
    for i in range(p):
        a[i][i] = F(2)
    for i in range(p - 3):
        a[i][i + 1] = a[i + 1][i] = F(-1)
    a[p - 3][p - 2] = a[p - 2][p - 3] = F(-1)
    a[p - 3][p - 1] = a[p - 1][p - 3] = F(-1)
    return a


@pytest.mark.parametrize("p", [4, 5, 6, 12, 29])
def test_inverse_cartan_inverts_and_symmetric(p):
    B = fm.inverse_cartan_D(p).B
    a = _cartan_D(p)
    for i in range(p):
        for j in range(p):
            assert B[i][j] == B[j][i]
            assert B[i][j] > 0
            prod = sum(B[i][k] * a[k][j] for k in range(p))
            assert prod == (1 if i == j else 0)


def test_inverse_cartan_rejects_small_p():
    with pytest.raises(ValueError):
        fm.inverse_cartan_D(2)


def test_sum_spec_validation():
    with pytest.raises(ValueError):
        fm.FermionicSumSpec(3, -1, 0, 1)
    with pytest.raises(ValueError):
        fm.FermionicSumSpec(3, 4, 0, 1)
    with pytest.raises(ValueError, match="^sigma must be 0 or 1$"):
        fm.FermionicSumSpec(3, 0, 2, 1)
    with pytest.raises(ValueError):
        fm.FermionicSumSpec(3, 0, 0, 3)


def test_sum_spec_fields():
    # the required parity of n_{p-1} + n_p is sigma: no field of its own
    assert fm.FermionicSumSpec._fields == ("p", "lam", "sigma", "variant")


def test_value_types_are_immutable():
    with pytest.raises(AttributeError):
        fm.FermionicSumSpec(5, 0, 1, 1).sigma = 0
    with pytest.raises(AttributeError):
        fm.inverse_cartan_D(4).p = 5


# -- oracle enumerators -------------------------------------------------------


def _warnaar_data(spec):
    """(lin, const) of `spec` for the enumerators below: the linear
    coefficients of the exponent n.B.n + lin.n + const that
    `fermionic._multi_sum` reads from the spec."""
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


def _one_d_min(qii: Fraction, li: Fraction) -> Fraction:
    # min over integer v >= 0 of qii*v^2 + li*v
    if li >= 0:
        return Fraction(0)
    vertex = -li / (2 * qii)
    best = Fraction(0)
    for v in (int(vertex), int(vertex) + 1):
        if v >= 0:
            best = min(best, qii * v * v + li * v)
    return best


@lru_cache(maxsize=None)
def _inv_poch_u(v: int, s: int, order: Fraction) -> qs.QSeries:
    return qs.invert(qs.pochhammer(Fraction(1, s), Fraction(1, s), -1, v, order))


def _naive_multi_sum(
    Q: tuple[tuple[Fraction, ...], ...],
    lin: list[Fraction],
    const: Fraction,
    parity: int | None,
    order: Fraction,
    s: int,
) -> qs.QSeries:
    """Oracle enumerator: per-coordinate box bounds, then brute force."""
    p = len(Q)
    mins = [_one_d_min(Q[i][i], lin[i]) for i in range(p)]
    big = order - min(Fraction(0), const + sum(mins))
    boxes = []
    for i in range(p):
        rest = const + sum(mins) - mins[i]
        v, last_ok, prev = 0, -1, None
        while True:
            bnd = Q[i][i] * v * v + lin[i] * v + rest
            if bnd <= order:
                last_ok = v
            elif (prev is not None and bnd >= prev) or (prev is None and lin[i] >= 0):
                break
            prev = bnd
            v += 1
        boxes.append(last_ok + 1)
    total = qs.make_series([], order)
    for n in iproduct(*[range(b) for b in boxes]):
        if parity is not None and (n[p - 2] + n[p - 1]) % 2 != parity:
            continue
        e = const + sum(lin[i] * n[i] for i in range(p))
        e += sum(Q[i][j] * n[i] * n[j] for i in range(p) for j in range(p))
        if e > order:
            continue
        term = qs.one(big)
        for v in n:
            if v:
                term = qs.mul(term, _inv_poch_u(v, s, big))
        total = qs.add(total, qs.shift(qs.truncate(term, order - e), e))
    return total


def _enumerated_multi_sum(
    Q: tuple[tuple[Fraction, ...], ...],
    lin: list[Fraction],
    const: Fraction,
    parity: int | None,
    order: Fraction,
    s: int,
) -> qs.QSeries:
    """The tuple enumerator `fermionic._multi_sum` was before the
    partial-sum recursion: the sum over n in Z>=0^p with n_{p-1} + n_p
    congruent to parity mod 2 (unconstrained when parity is None) of

        q^{n.Q.n + lin.n + const} / prod_i (q^{1/s}; q^{1/s})_{n_i}

    exact to the given order, for any symmetric, positive definite,
    elementwise nonnegative Q: the pruning bound keeps the exact prefix
    value plus one-dimensional minima of the free diagonal terms, which
    is a lower bound because every dropped cross term is nonnegative.
    """
    p = len(Q)
    for row in Q:
        for x in row:
            if x < 0:
                raise ValueError("enumerator requires elementwise nonnegative Q")

    den = lcm(s, *[x.denominator for row in Q for x in row],
              *[x.denominator for x in lin], const.denominator)
    ustep = den // s
    # exponents as integer numerators over den from here on
    Qn = [[int(x * den) for x in row] for row in Q]
    pair = [[Qn[d][i] + Qn[i][d] for i in range(p)] for d in range(p)]
    tail = [0] * (p + 1)
    for i in range(p - 1, -1, -1):
        tail[i] = tail[i + 1] + int(_one_d_min(Q[i][i], lin[i]) * den)
    top = floor(order * den)
    u_order = max(0, (top - int(const * den) - tail[0]) // ustep)

    # every exponent reached lies in [lo, top]: acc[i] is the coefficient
    # of q^{(lo + i)/den}
    lo = int(const * den) + tail[0]
    acc = [0] * (top - lo + 1)

    def leaf(e: int, prod: list[int]) -> None:
        i = e - lo
        j = i + (top - e) // ustep * ustep + 1
        acc[i:j:ustep] = [x + c for x, c in zip(acc[i:j:ustep], prod)]

    def rec(d: int, e_base: int, cross: list[int], prod: list[int], par: int) -> None:
        if d == p:
            if parity is None or par == parity:
                leaf(e_base, prod)
            return
        qdd = Qn[d][d]
        cd = cross[d]
        row = pair[d]
        in_pair = d >= p - 2
        v = 0
        cur = prod
        prev_e = None
        while True:
            e_v = e_base + qdd * v * v + cd * v
            if e_v + tail[d + 1] > top:
                if prev_e is None:
                    if cd >= 0:
                        break
                elif e_v >= prev_e:
                    break
            else:
                nxt = [c + r * v for c, r in zip(cross, row)]
                rec(d + 1, e_v, nxt, cur, (par + v) % 2 if in_pair else par)
            prev_e = e_v
            v += 1
            if cur is prod:
                cur = prod[:]
            # divide by (1 - u^v): a running sum along each residue class mod v
            for r in range(min(v, u_order + 1)):
                cur[r::v] = accumulate(cur[r::v])

    rec(0, int(const * den), [int(x * den) for x in lin], [1] + [0] * u_order, 0)
    return qs.QSeries(den, lo, 1, acc, 1, order)


def _fraction_multi_sum(
    Q: tuple[tuple[Fraction, ...], ...],
    lin: list[Fraction],
    const: Fraction,
    parity: int | None,
    order: Fraction,
    s: int,
) -> qs.QSeries:
    """The enumerator as it was with Fraction exponents: the integer
    enumerator must reproduce its output exactly."""
    p = len(Q)
    for row in Q:
        for x in row:
            if x < 0:
                raise ValueError("enumerator requires elementwise nonnegative Q")

    den = lcm(s, *[x.denominator for row in Q for x in row],
              *[x.denominator for x in lin], const.denominator)
    ustep = den // s
    tail = [Fraction(0)] * (p + 1)
    for i in range(p - 1, -1, -1):
        tail[i] = tail[i + 1] + _one_d_min(Q[i][i], lin[i])
    e_min = const + tail[0]
    u_order = max(0, int((order - e_min) * s))

    acc: dict[int, int] = {}

    def leaf(e: Fraction, prod: list[int]) -> None:
        a_max = int((order - e) * s)
        e_num = int(e * den)
        for a in range(a_max + 1):
            c = prod[a]
            if c:
                key = e_num + a * ustep
                acc[key] = acc.get(key, 0) + c

    def rec(d: int, e_base: Fraction, cross: list[Fraction], prod: list[int], par: int) -> None:
        if d == p:
            if parity is None or par == parity:
                leaf(e_base, prod)
            return
        qdd = Q[d][d]
        cd = cross[d]
        in_pair = d >= p - 2
        v = 0
        cur = prod
        prev_e = None
        while True:
            e_v = e_base + qdd * v * v + cd * v
            if e_v + tail[d + 1] > order:
                if prev_e is None:
                    if cd >= 0:
                        break
                elif e_v >= prev_e:
                    break
            else:
                nxt = [cross[i] + (Q[d][i] + Q[i][d]) * v for i in range(p)]
                rec(d + 1, e_v, nxt, cur, (par + v) % 2 if in_pair else par)
            prev_e = e_v
            v += 1
            if cur is prod:
                cur = prod[:]
            for a in range(v, u_order + 1):
                cur[a] += cur[a - v]

    rec(0, const, list(lin), [1] + [0] * u_order, 0)
    return qs._from_coeffs(den, {k: Fraction(v) for k, v in acc.items()}, order)


def _fields(series: qs.QSeries) -> tuple:
    return (series.denom, series.base, series.stride, series.vals, series.content, series.order)


def _all_specs(p: int):
    for variant in (1, 2):
        for lam in range(p + 1):
            for sigma in (0, 1):
                yield fm.FermionicSumSpec(p, lam, sigma, variant)


@pytest.mark.parametrize("p", [3, 4, 5, 7])
def test_multi_sum_matches_enumerator(p):
    B = fm.inverse_cartan_D(p).B
    # variant 1 at lam = p has l_b < 0, so the lowest exponent either
    # method allows for lies below zero
    lin, const = _warnaar_data(fm.FermionicSumSpec(p, p, 0, 1))
    assert lin[p - 1] < 0
    assert const + sum(_one_d_min(B[i][i], lin[i]) for i in range(p)) < 0
    for spec in _all_specs(p):
        lin, const = _warnaar_data(spec)
        lead = fm._multi_sum(spec, F(20)).leading()[0]
        # the last order lies below the leading exponent: the zero series
        for order in (F(20), F(61, 2), F(77, 3), F(101, 4), lead - F(1, 3)):
            got = fm._multi_sum(spec, order)
            want = _enumerated_multi_sum(B, lin, const, spec.sigma, order, 1)
            assert _fields(got) == _fields(want), (spec, order)
        assert got.is_zero()


@pytest.mark.parametrize("order", [F(61, 2), F(77, 3)])
@pytest.mark.parametrize("parity", [0, 1, None])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("p", [3, 5])
def test_enumerator_matches_fraction_enumerator(p, s, parity, order):
    # variant 1 at lam = p has a negative linear coefficient; variant 2
    # at lam = 1 shifts the chain coordinates
    B = fm.inverse_cartan_D(p).B
    for spec in (fm.FermionicSumSpec(p, p, 1, 1), fm.FermionicSumSpec(p, 1, 0, 2)):
        lin, const = _warnaar_data(spec)
        Q = B if s == 1 else tuple(tuple(x / 2 for x in row) for row in B)
        got = _enumerated_multi_sum(Q, lin, const, parity, order, s)
        want = _fraction_multi_sum(Q, lin, const, parity, order, s)
        assert (got.denom, got.order) == (want.denom, want.order)
        assert got.coeffs == want.coeffs


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(3, 4),
    lam_frac=st.fractions(0, 1),
    sigma=st.integers(0, 1),
    variant=st.integers(1, 2),
    order=st.integers(4, 7),
)
def test_enumerator_matches_naive(p, lam_frac, sigma, variant, order):
    lam = int(lam_frac * p)
    spec = fm.FermionicSumSpec(p, lam, sigma, variant)
    lin, const = _warnaar_data(spec)
    B = fm.inverse_cartan_D(p).B
    naive = _naive_multi_sum(B, lin, const, sigma, F(order), 1)
    assert qs.compare(_enumerated_multi_sum(B, lin, const, sigma, F(order), 1), naive, order) is None
    assert qs.compare(fm._multi_sum(spec, F(order)), naive, order) is None


def test_enumerator_matches_naive_negative_linear():
    # lam = p, variant 1 drives one linear coefficient negative
    spec = fm.FermionicSumSpec(3, 3, 1, 1)
    lin, const = _warnaar_data(spec)
    B = fm.inverse_cartan_D(3).B
    assert min(lin) < 0
    naive = _naive_multi_sum(B, lin, const, 1, F(8), 1)
    assert qs.compare(_enumerated_multi_sum(B, lin, const, 1, F(8), 1), naive, 8) is None
    assert qs.compare(fm._multi_sum(spec, F(8)), naive, 8) is None


def test_enumerator_matches_naive_half_grid():
    B = fm.inverse_cartan_D(3).B
    Q = tuple(tuple(x / 2 for x in row) for row in B)
    lin = [F(1, 2)] * 3
    fast = _enumerated_multi_sum(Q, lin, F(0), 1, F(5), 2)
    naive = _naive_multi_sum(Q, lin, F(0), 1, F(5), 2)
    assert qs.compare(fast, naive, 5) is None


def test_enumerator_rejects_negative_entry():
    Q = ((F(1), F(-1, 4)), (F(-1, 4), F(1)))
    with pytest.raises(ValueError):
        _enumerated_multi_sum(Q, [F(0), F(0)], F(0), None, F(4), 1)


# -- the Horner kernel --------------------------------------------------------


def _series_horner(n: int, terms) -> list:
    """sum_k q^{s_k} x_k R_0 ... R_{k-1} below q^n, k = 0 the last of
    `terms`, built from series: R_k is the product of pochhammer factors
    (1 + q^a) over ups_k and inverted (1 - q^b) over downs_k."""
    order = F(n - 1)
    total, prefix = qs.make_series([], order), qs.one(order)
    for s, x, ups, downs in reversed(terms):
        xs = qs.make_series([(s + i, c) for i, c in enumerate(x) if s + i <= order], order)
        total = qs.add(total, qs.truncate(qs.mul(prefix, xs), order))
        for a in ups:
            prefix = qs.mul(prefix, qs.pochhammer(a, 1, 1, 1, order))
        for b in downs:
            prefix = qs.mul(prefix, qs.invert(qs.pochhammer(b, 1, -1, 1, order)))
        prefix = qs.truncate(prefix, order)
    return [total.coeff(e) for e in range(n)]


_TERM = st.tuples(
    st.integers(0, 45),  # s: some terms lie above the top
    st.lists(st.integers(-4, 4), max_size=6),  # x, possibly empty
    st.lists(st.integers(1, 45), max_size=3),  # ups, some at or above n
    st.lists(st.integers(1, 6), max_size=4),  # downs, often repeated
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(-3, 40), terms=st.lists(_TERM, max_size=8))
def test_horner_matches_series_oracle(n, terms):
    got = fm._horner(n, iter(terms))
    assert got == ([] if n <= 0 else _series_horner(n, terms))


# -- the two facts the partial-sum recursion rests on -------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(3, 12))
def test_quadratic_form_is_sum_of_partial_sum_squares(data, p):
    n = data.draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
    B = fm.inverse_cartan_D(p).B
    form = sum(B[i][j] * n[i] * n[j] for i in range(p) for j in range(p))
    a, b = n[p - 2], n[p - 1]
    partial = [sum(n[i:p - 2]) + F(a + b, 2) for i in range(p - 2)]
    assert form == sum(N * N for N in partial) + F(a * a + b * b, 2)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.integers(3, 12),
    lam_frac=st.fractions(0, 1),
    sigma=st.integers(0, 1),
    variant=st.integers(1, 2),
)
def test_exponents_of_one_spec_lie_in_one_coset(data, p, lam_frac, sigma, variant):
    spec = fm.FermionicSumSpec(p, int(lam_frac * p), sigma, variant)
    B = fm.inverse_cartan_D(p).B
    lin, const = _warnaar_data(spec)

    def exponent(n):
        return const + sum(lin[i] * n[i] + B[i][j] * n[i] * n[j] for i in range(p) for j in range(p))

    def tuple_of_parity():
        n = data.draw(st.lists(st.integers(0, 4), min_size=p, max_size=p))
        n[p - 1] += (n[p - 2] + n[p - 1] + sigma) % 2
        return n

    assert (exponent(tuple_of_parity()) - exponent(tuple_of_parity())).denominator == 1


# -- the sums of one p at one order share their work -------------------------


def _per_spec_multi_sum(spec, order: Fraction) -> qs.QSeries:
    """The D_p multi-sum DP as it was before the sums of one p at one order
    shared their work: each spec builds its own 1/(q;q)_b table and its own
    fork kernel, from its own fork pair."""
    p, lam, parity = spec.p, spec.lam, spec.sigma
    la2, lb2 = lam, lam if spec.variant == 2 else -lam

    def twice_fork(a: int, b: int) -> int:
        return a * a + b * b + la2 * a + lb2 * b

    f0 = twice_fork(parity, 0)
    fork_lo = f0 - 2 * ((f0 - twice_fork(0, max(0, -lb2 // 2))) // 2)
    lo = Fraction(parity * (lam - 1) + fork_lo, 2)
    top = floor(order - lo)

    def d(M: int) -> int:
        return M * M + parity * M

    Ms = 0
    while d(Ms) <= top:
        Ms += 1
    H = [[1] + [0] * top]
    for b in range(1, 2 * Ms + parity - 1):
        H.append(H[-1][:])
        fm._div(H[-1], b, 0, top + 1)
    level = [
        (0, fm._horner(top + 1 - (p - 2) * d(M), (
            ((twice_fork(a, 2 * M + parity - a) - fork_lo) // 2, H[2 * M + parity - a], (), (a + 1,))
            for a in range(2 * M + parity, -1, -1))))
        for M in range(Ms)
    ]
    for i in range(p - 2, 0, -1):
        li = max(0, i - p + lam + 1) if spec.variant == 2 else 0
        level = [
            (d(M), fm._horner(top + 1 - i * d(M), (
                (level[M - k][0] + li * k, level[M - k][1], (), (k + 1,)) for k in range(M, -1, -1))))
            for M in range(Ms)
        ]
    vals = fm._horner(top + 1, ((off, x, (), ()) for off, x in level))
    return qs.QSeries(lo.denominator, lo.numerator, lo.denominator, vals, 1, order)


def _warnaar_multi_sums(monkeypatch, p: int, order) -> list:
    """(spec, multi-sum) for each `_multi_sum` call that one
    `verify_warnaar` call makes through the module attribute, in call
    order; each call takes exactly (spec, order)."""
    calls, original = [], fm._multi_sum

    def record(spec, order):
        calls.append((spec, original(spec, order)))
        return calls[-1][1]

    monkeypatch.setattr(fm, "_multi_sum", record)
    fm.verify_warnaar(p, order)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("p", [3, 4, 5, 7, 9])
def test_multi_sum_matches_per_spec_oracle(monkeypatch, p):
    for order in (F(-1), F(0), F(1, 2), F(7), F(61, 2), F(50)):
        calls = _warnaar_multi_sums(monkeypatch, p, order)
        assert [spec for spec, _ in calls] == list(_all_specs(p))
        for spec, got in calls:
            want = _fields(_per_spec_multi_sum(spec, order))
            assert _fields(got) == want, (spec, order)
            fm._work.cache_clear()  # a call that finds nothing built
            assert _fields(fm._multi_sum(spec, order)) == want, (spec, order)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.integers(3, 11), n=st.integers(-4, 160))
def test_shared_multi_sums_match_per_spec_oracle_in_any_order(data, p, n):
    # whichever spec builds a shared kernel first, each reader gets its own sum
    order = F(n, 2)
    fm._work.cache_clear()
    for spec in data.draw(st.permutations(list(_all_specs(p))))[:8]:
        assert _fields(fm._multi_sum(spec, order)) == _fields(_per_spec_multi_sum(spec, order)), spec
    assert fm._work.cache_info().misses == 1


def _dp_input(spec) -> tuple:
    # (sigma, 2 l_{p-1}, 2 l_p, (l_{p-2}, ..., l_1)), read off the linear part of the exponent
    lin, _ = _warnaar_data(spec)
    p = spec.p
    return (spec.sigma, int(2 * lin[p - 2]), int(2 * lin[p - 1]), tuple(int(lin[i]) for i in range(p - 3, -1, -1)))


def _record_work(monkeypatch) -> list:
    """(misses of `_work` so far, the dict it holds) as each `_multi_sum`
    call through the module attribute returns."""
    works, multi_sum = [], fm._multi_sum

    def recorded(spec, order):
        got = multi_sum(spec, order)
        works.append((fm._work.cache_info().misses, fm._work(spec.p, order)))
        return got

    monkeypatch.setattr(fm, "_multi_sum", recorded)
    return works


@pytest.mark.parametrize("p, order", [(3, F(61, 2)), (6, F(20)), (9, F(25))])
def test_one_verify_warnaar_call_shares_its_work(monkeypatch, p, order):
    # One table, cleared when the call returns.  Still one _multi_sum call
    # per spec through the module attribute (swqbench counts those spans).
    # One result per DP input: the two lam = 0 sums are one object.  Per
    # sigma, the p kernels of variant 1 at lam > 0 and one delta = 0
    # kernel, each built once.
    horners, horner = [], fm._horner
    monkeypatch.setattr(fm, "_horner", lambda n, terms: horners.append(n) or horner(n, terms))
    grids, grid_sum = [], fm._grid_sum
    monkeypatch.setattr(fm, "_grid_sum", lambda *args: grids.append(args[:3]) or grid_sum(*args))
    works = _record_work(monkeypatch)
    calls = _warnaar_multi_sums(monkeypatch, p, order)
    assert fm._work.cache_info().currsize == 0
    assert [misses for misses, _ in works] == [1] * len(calls)
    assert all(work is works[0][1] for _, work in works)
    assert len(calls) == 4 * (p + 1)
    by_input = {}
    for spec, got in calls:
        by_input.setdefault(_dp_input(spec), []).append((spec, got))
    assert set(works[0][1]) == {"H", 0, 1} | set(by_input)
    assert [[(s.lam, s.sigma, s.variant) for s, _ in r] for r in by_input.values() if len(r) > 1] == [
        [(0, 0, 1), (0, 0, 2)],
        [(0, 1, 1), (0, 1, 2)],
    ]
    assert all(got is readers[0][1] for readers in by_input.values() for _, got in readers)
    # the sum over M of each DP input runs in the aux sums' frame, on the grid q^1 from its lowest exponent
    assert sorted(grids) == sorted((1, fm._frame(readers[0][0], order)[1], order) for readers in by_input.values())
    # one _horner call per M on each chain level and one for the sum
    # over M per DP input; one per M of each kernel built
    dp = sum((p - 2) * fm._frame(readers[0][0], order)[3] + 1 for readers in by_input.values())
    kernels = sum(fm._frame(fm.FermionicSumSpec(p, lam, sigma, 1), order)[3] for lam in range(p + 1) for sigma in (0, 1))
    assert len(horners) == dp + kernels


def test_fermionic_modules_share_one_table(monkeypatch):
    # the 2m+1 modules' variant-2 sums at p = 2m+1 and order 2N read one
    # table and one delta = 0 kernel per sigma, cleared when the call returns
    works = _record_work(monkeypatch)
    assert all(r.status == "pass" for r in fm.verify_fermionic_chars(2, 30))
    assert fm._work.cache_info().currsize == 0
    assert [misses for misses, _ in works] == [1] * 5
    assert all(work is works[0][1] for _, work in works)
    inputs = {_dp_input(fm.FermionicSumSpec(5, lam, lam % 2, 2)) for lam in range(5)}
    assert set(works[0][1]) == {"H", 0, 1} | inputs


def test_work_is_kept_for_the_last_p_and_order_only():
    first, second = fm.FermionicSumSpec(3, 1, 0, 2), fm.FermionicSumSpec(5, 2, 1, 1)
    fm._work.cache_clear()
    want = fm._multi_sum(first, F(20))
    fm._multi_sum(second, F(30))
    assert fm._work.cache_info().currsize == 1
    fm._multi_sum(second, F(30))
    assert fm._work.cache_info().misses == 2
    # the first key went: its work is built again, to the same sum
    assert fm._multi_sum(first, F(20)) == want
    assert fm._work.cache_info().misses == 3


# -- the two sum families ----------------------------------------------------


def test_warnaar_v1_vacuum_frozen():
    spec = fm.FermionicSumSpec(3, 0, 0, 1)
    lhs = fm.warnaar_lhs(spec, 10)
    rhs = fm.warnaar_rhs(spec, 10)
    assert qs.compare(lhs, rhs, 10) is None
    assert [lhs.coeff(k) for k in range(8)] == [1, 1, 2, 5, 7, 11, 17, 25]


def test_warnaar_v2_frozen():
    spec = fm.FermionicSumSpec(3, 2, 0, 2)
    lhs = fm.warnaar_lhs(spec, 10)
    rhs = fm.warnaar_rhs(spec, 10)
    assert qs.compare(lhs, rhs, 10) is None
    assert [lhs.coeff(k) for k in range(11)] == [1, 0, 1, 1, 2, 5, 7, 10, 13, 20, 27]


def test_zero_tuple_exponent():
    # the all-zero tuple carries exponent lam*sigma/2 - sigma*p/4
    _, const = _warnaar_data(fm.FermionicSumSpec(3, 2, 1, 1))
    assert const == F(1, 4)
    _, const = _warnaar_data(fm.FermionicSumSpec(5, 0, 1, 2))
    assert const == F(-5, 4)


def test_rhs_inner_coefficient_documented():
    # variant 2, lam=0, sigma=0: the inner sum has coefficient 2 at q^3
    # (weights 2n+1 at n=1 and n=-1 combine to 3 - 1)
    spec = fm.FermionicSumSpec(3, 0, 0, 2)
    rhs = fm.warnaar_rhs(spec, 11)
    inner = qs.mul(rhs, qs.pochhammer(1, 1, -1, None, 11))
    assert inner.coeff(3) == 2
    assert rhs.coeff(3) == 5


def test_rhs_lambda_p_sigma1_variant1_same_exponents():
    # lam - sigma*p = 0 collapses the exponents to p*n^2
    a = fm.warnaar_rhs(fm.FermionicSumSpec(3, 3, 1, 1), 8)
    b = fm.warnaar_rhs(fm.FermionicSumSpec(3, 0, 0, 1), 8)
    assert qs.compare(a, b, 8) is None


def test_rhs_lambda_p_variant2_vanishes():
    # pairing n <-> -n-1+sigma cancels every term of the variant-2
    # single sum at lam = p; the multi-sum side stays positive
    for sigma in (0, 1):
        spec = fm.FermionicSumSpec(3, 3, sigma, 2)
        assert fm.warnaar_rhs(spec, 12).is_zero()
        assert not fm.warnaar_lhs(spec, 12).is_zero()


def _enumerated_warnaar_rhs(spec, order: Fraction) -> qs.QSeries:
    """warnaar_rhs by enumerating the single sum over n and dividing by
    the infinite Pochhammer product (q;q)_inf: the differential oracle
    for the theta and eta series `fermionic` builds it from."""
    p, lam, sig = spec.p, spec.lam, spec.sigma
    b = lam - sig * p
    inner_order = order + 1
    coeffs: dict[int, int] = {}
    M = 1
    while p * M * M - abs(b) * M <= inner_order:
        M += 1
    for n in range(-M, M + 1):
        e = p * n * n + b * n
        if e <= inner_order:
            w = 1 if spec.variant == 1 else 2 * n - sig + 1
            coeffs[e] = coeffs.get(e, 0) + w
    inv_inf = qs.invert(qs.pochhammer(1, 1, -1, None, inner_order))
    return qs.truncate(qs.mul(inv_inf, qs._from_coeffs(1, coeffs, inner_order)), order)


def _hand_built_warnaar_rhs(spec, order) -> qs.QSeries:
    """warnaar_rhs with its own order rule: the single sum
    q^{-b^2/4p} Theta_{b,p} (variant 2: (dTheta_{b,p} + (p - lam) Theta_{b,p}) / p)
    has no term below q^0, so it is built b^2/4p past the order, and
    1/eta (lead -1/24) to the order less 1/24."""
    order_f = F(order)
    p, lam = spec.p, spec.lam
    b = lam - spec.sigma * p
    th, lead = forms.ThetaParams(b, p), F(b * b, 4 * p)
    n = order_f + lead
    inner = forms.theta(th, n)
    if spec.variant == 2:
        inner = qs.scale(qs.add(forms.dtheta(th, n), qs.scale(inner, p - lam)), F(1, p))
    inv_eta = forms.eta_quotient(((1, -1),), order_f - F(1, 24))
    return qs.mul(inv_eta, qs.shift(inner, F(1, 24) - lead))


@pytest.mark.parametrize("p", [3, 4, 5, 7])
def test_warnaar_rhs_matches_enumerated_oracle(p):
    for spec in _all_specs(p):
        for order in (F(10), F(61, 2), F(77, 3), F(40), F(1, 2), F(0), F(-1), F(-5, 2), F(-1, 48)):
            got = fm.warnaar_rhs(spec, order)
            assert _fields(got) == _fields(_enumerated_warnaar_rhs(spec, order)), (spec, order)
            assert _fields(got) == _fields(_hand_built_warnaar_rhs(spec, order)), (spec, order)
            if order >= 10:
                # variant 2 at lam = p: the single sum cancels term by term
                assert got.is_zero() == (spec.variant == 2 and spec.lam == p), (spec, order)


def _poch_product(lead: Fraction, factors, order: Fraction) -> qs.QSeries:
    """q^lead prod P^r over (start, step, sign, r) in factors, for the
    infinite Pochhammer products P = prod (1 + sign q^{start + n step}),
    multiplied and inverted as they are, exact to order >= lead."""
    n = order - lead
    out = qs.one(n)
    for start, step, sign, r in factors:
        p = qs.pochhammer(start, step, sign, None, n)
        for _ in range(abs(r)):
            out = qs.mul(out, p if r > 0 else qs.invert(p))
    return qs.shift(out, lead)


# quotient -> (builder, leading exponent, (start, step, sign, power) of its product form)
_QUOTIENTS = {
    # 1/(q;q)_inf = q^{1/24} / eta
    "q-inf": (
        lambda o: qs.shift(forms.eta_quotient(((1, -1),), o - F(1, 24)), F(1, 24)),
        F(0), [(1, 1, -1, -1)],
    ),
    # 1/(-q;q)_inf = q^{1/24} eta(tau) / eta(2 tau)
    "minus-q-inf": (
        lambda o: qs.shift(forms.eta_quotient(((1, 1), (2, -1)), o - F(1, 24)), F(1, 24)),
        F(0), [(1, 1, 1, -1)],
    ),
    # 1/(u;u)_inf = q^{1/48} / eta(tau/2), u = q^{1/2}
    "u-inf": (
        lambda o: qs.shift(forms.eta_quotient(((F(1, 2), -1),), o - F(1, 48)), F(1, 48)),
        F(0), [(F(1, 2), F(1, 2), -1, -1)],
    ),
    "f-over-eta": (ch.f_over_eta, F(-1, 16), [(F(1, 2), 1, 1, 1), (1, 1, -1, -1)]),
    "f2-over-eta": (ch.f2_over_eta, F(0), [(1, 1, 1, 1), (1, 1, -1, -1)]),
    "eta-double-product": (
        partial(forms.eta_quotient, ((2, 1), (F(1, 2), 1))),
        F(5, 48), [(2, 2, -1, 1), (F(1, 2), F(1, 2), -1, 1)],
    ),
}


@pytest.mark.parametrize("name", _QUOTIENTS)
def test_inverse_products_match_pochhammer(name):
    # every eta quotient that `characters` and `fermionic` use equals its
    # product of inverted infinite Pochhammer products; below its leading
    # exponent it is exact to that exponent
    build, lead, factors = _QUOTIENTS[name]
    for order in (F(1), F(5), F(61, 2), F(77, 3), F(51), F(101), F(0), F(-1), F(-5, 2)):
        got = build(order)
        assert got.order == max(order, lead), order
        assert _fields(got) == _fields(_poch_product(lead, factors, got.order)), order


_POWERS = st.lists(
    st.tuples(st.sampled_from([F(1, 2), 1, 2]), st.integers(-2, 2)), min_size=1, max_size=3
).filter(lambda powers: any(r for _, r in powers))


@settings(max_examples=60, deadline=None)
@given(_POWERS, st.integers(-120, 1440).map(lambda k: F(k, 48)))
def test_eta_quotient_matches_pochhammer_product(powers, order):
    # eta(d tau) = q^{d/24} (q^d;q^d)_inf
    powers = tuple(powers)
    lead = sum(F(d) * r for d, r in powers) / 24
    got = forms.eta_quotient(powers, order)
    assert got.order == max(order, lead)
    assert _fields(got) == _fields(_poch_product(lead, [(d, d, -1, r) for d, r in powers], got.order))


def test_verify_warnaar_p3():
    reports = fm.verify_warnaar(3, 12)
    assert len(reports) == 16
    assert reports[0].identity_id == "warnaar-v1"
    assert reports[0].params == {"p": 3, "lambda": 0, "sigma": 0}
    fails = {
        (r.identity_id, r.params["lambda"], r.params["sigma"]): r.first_mismatch
        for r in reports
        if r.status == "fail"
    }
    assert fails == {
        ("warnaar-v2", 3, 0): (F(0), F(1), F(0)),
        ("warnaar-v2", 3, 1): (F(3), F(2), F(0)),
    }


def test_verify_warnaar_p4_all_pass_except_lambda_p_v2():
    reports = fm.verify_warnaar(4, 10)
    for r in reports:
        expected = "fail" if r.identity_id == "warnaar-v2" and r.params["lambda"] == 4 else "pass"
        assert r.status == expected


@pytest.mark.parametrize("p, order", [(9, 80), (7, 100)])
def test_verify_warnaar_at_large_order_fails_only_lambda_p_v2(p, order):
    # sizes the tuple enumerator took seconds for
    reports = fm.verify_warnaar(p, order)
    assert len(reports) == 4 * (p + 1)
    fails = {(r.identity_id, r.params["lambda"], r.params["sigma"]) for r in reports if r.status != "pass"}
    assert fails == {("warnaar-v2", p, 0), ("warnaar-v2", p, 1)}
    assert all(r.status == "fail" for r in reports if r.status != "pass")


def test_verify_warnaar_rejects_small_p():
    with pytest.raises(ValueError):
        fm.verify_warnaar(2, 10)


def test_perturbed_matrix_fails():
    spec = fm.FermionicSumSpec(3, 0, 0, 1)
    B = fm.inverse_cartan_D(3).B
    lin, const = _warnaar_data(spec)
    Bp = tuple(
        tuple(x + (F(1, 7) if i == j == 0 else 0) for j, x in enumerate(row))
        for i, row in enumerate(B)
    )
    lhs = _enumerated_multi_sum(Bp, lin, const, 0, F(10), 1)
    assert qs.compare(lhs, fm.warnaar_rhs(spec, 10), 10) is not None


# -- fermionic character forms -----------------------------------------------


def test_shifts_m1_frozen():
    shifts = {}
    for mid in ch.all_module_ids(1):
        _, shift = fm.fermionic_sw_char(mid, 12)
        shifts[mid.label] = shift
    assert shifts == {
        "lambda:1": F(-5, 48),
        "lambda:2": F(1, 16),
        "pi:1": F(-5, 48),
    }


@pytest.mark.parametrize("m", [1, 2, 3])
def test_shift_closed_form(m):
    # c/24 - h^{2i+1,1} = 1/16 - (m-i)^2 / (2(2m+1)) for both families
    for mid in ch.all_module_ids(m):
        _, shift = fm.fermionic_sw_char(mid, 10)
        j = m - mid.i
        assert shift == F(1, 16) - F(j * j, 2 * (2 * m + 1))


@pytest.mark.parametrize("m", [1, 2])
def test_fermionic_matches_char(m):
    for mid in ch.all_module_ids(m):
        rep = fm.fermionic_char_report(mid, 20)
        assert rep.status == "pass"
        assert rep.identity_id == "fermionic-char"
        assert rep.params["m"] == m
        assert rep.params["module"] == mid.label


def _character_spec(mid):
    """The variant-2 spec of the module's fermionic form."""
    m = mid.m
    lam, sigma = (2 * (m - mid.i), 0) if mid.kind == "lambda" else (2 * mid.i + 1, 1)
    return fm.FermionicSumSpec(2 * m + 1, lam, sigma, 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fermionic_sw_char_matches_pochhammer_oracle(m):
    # the multi-sum on the q^{1/2} grid over the infinite product (-q;q)_inf
    for mid in ch.all_module_ids(m):
        for order in (F(10), F(61, 2)):
            half = qs.substitute_power(fm.warnaar_lhs(_character_spec(mid), 2 * order), F(1, 2))
            inv = qs.invert(qs.pochhammer(1, 1, 1, None, order + 1 - min(F(0), half.leading()[0])))
            series, _ = fm.fermionic_sw_char(mid, order)
            assert _fields(series) == _fields(qs.truncate(qs.mul(half, inv), order)), (mid, order)


def test_fermionic_char_report_builds_the_character_once(monkeypatch):
    # the character side is the module's form moved by q^shift: one
    # theta_form call, exact to the order
    calls = []

    def counted(form, order):
        calls.append(form)
        return theta_form(form, order)

    theta_form = forms.theta_form
    monkeypatch.setattr(forms, "theta_form", counted)
    for mid in ch.all_module_ids(2):
        calls.clear()
        rep = fm.fermionic_char_report(mid, 20)
        shift = F(1, 16) - F((2 - mid.i) ** 2, 10)
        assert calls == [ch.module_form(mid)._replace(shift=shift)]
        assert rep.status == "pass"
        assert rep.params["shift"] == shift


def test_character_multi_sums_start_at_q0():
    # forms.eta_product takes an inner factor with no term below q^0:
    # `_frame`'s lowest exponent bounds every term of the multi-sum
    for m in range(1, 51):
        for mid in ch.all_module_ids(m):
            assert fm._frame(_character_spec(mid), F(0))[1] >= 0, mid
    for m in range(1, 5):
        for mid in ch.all_module_ids(m):
            s = fm.warnaar_lhs(_character_spec(mid), 12)
            assert s.leading()[0] >= fm._frame(_character_spec(mid), F(12))[1] >= 0, mid


def _hand_fermionic_sw_char(mid, order):
    """fermionic_sw_char's hand-built body: 1/(-q;q)_inf to the order less
    the lesser of 0 and the multi-sum's lead, then the product."""
    order_f = F(order)
    half = qs.substitute_power(fm.warnaar_lhs(_character_spec(mid), 2 * order_f), F(1, 2))
    lead = F(0) if half.is_zero() else half.leading()[0]
    n = order_f - min(F(0), lead) - F(1, 24)
    inv_inf = qs.shift(forms.eta_quotient(((1, 1), (2, -1)), n), F(1, 24))
    return qs.mul(half, inv_inf)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_fermionic_sw_char_matches_hand_built_body(m):
    for mid in ch.all_module_ids(m):
        for order in (F(0), F(1, 2), F(25, 3), F(30)):
            series, _ = fm.fermionic_sw_char(mid, order)
            assert _fields(series) == _fields(_hand_fermionic_sw_char(mid, order)), (mid, order)
            assert series.order == order


def test_fermionic_char_report_fails_a_moved_series(monkeypatch):
    # the shift is fixed, not fitted to the leading exponents: a series
    # moved by q^{1/2} fails against the same character, also at order
    # 1/2 (pi:2 has its first term at q^{1/2}), for every module whose
    # series has a term up to the order
    def moved(module, order):
        series, shift = sw_char(module, order)
        return qs.shift(series, F(1, 2)), shift

    sw_char = fm.fermionic_sw_char
    monkeypatch.setattr(fm, "fermionic_sw_char", moved)
    for order in (F(20), F(1, 2)):
        for mid in ch.all_module_ids(2):
            rep = fm.fermionic_char_report(mid, order)
            want = "pass" if sw_char(mid, order)[0].is_zero() else "fail"
            assert rep.status == want, (mid, order)
            assert rep.params["shift"] == F(1, 16) - F((2 - mid.i) ** 2, 10)


def test_fermionic_char_report_compares_to_the_requested_order():
    # the shift is negative for most modules; the comparison still runs
    # up to the order asked for, not up to order + shift, where at small
    # orders both sides would be empty
    reports = fm.verify_fermionic_chars(5, F(1, 2))
    assert [r.order for r in reports] == [F(1, 2)] * 11
    assert all(r.status == "pass" for r in reports)
    assert any(r.params["shift"] < 0 for r in reports)


def test_fermionic_char_below_lead_rejected():
    with pytest.raises(ValueError):
        fm.fermionic_sw_char(ch.SWModuleId(1, "lambda", 1), -1)


# -- auxiliary identities ----------------------------------------------------


# The term-by-term evaluation of the five auxiliary sums: every term a
# product of cached finite Pochhammer series, the exact oracle for the
# Horner recursions in fermionic.


@lru_cache(maxsize=None)
def _finite_poch(start: Fraction, step: Fraction, sign: int, count: int, order: Fraction) -> qs.QSeries:
    return qs.pochhammer(start, step, sign, count, order)


@lru_cache(maxsize=None)
def _finite_poch_inv(start: Fraction, step: Fraction, sign: int, count: int, order: Fraction) -> qs.QSeries:
    return qs.invert(qs.pochhammer(start, step, sign, count, order))


def _product_durfee_half(k: int, order: Fraction) -> qs.QSeries:
    # sum_n q^{(n^2+kn)/2} / [(u;u)_n (u;u)_{n+k}],  u = q^{1/2}
    h = Fraction(1, 2)
    total = qs.make_series([], order)
    n = 0
    while Fraction(n * n + k * n, 2) <= order:
        e = Fraction(n * n + k * n, 2)
        term = qs.mul(
            _finite_poch_inv(h, h, -1, n, order),
            _finite_poch_inv(h, h, -1, n + k, order),
        )
        total = qs.add(total, qs.truncate(qs.shift(qs.truncate(term, order - e), e), order))
        n += 1
    return total


def _product_durfee_mixed(k: int, order: Fraction) -> qs.QSeries:
    # sum_n (-u;u)_n (-u;u)_{n+k} q^{(n^2+kn)/2} / [(q)_n (q)_{n+k}]
    h = Fraction(1, 2)
    total = qs.make_series([], order)
    n = 0
    while Fraction(n * n + k * n, 2) <= order:
        e = Fraction(n * n + k * n, 2)
        term = qs.mul(
            qs.mul(_finite_poch(h, h, 1, n, order), _finite_poch(h, h, 1, n + k, order)),
            qs.mul(
                _finite_poch_inv(Fraction(1), Fraction(1), -1, n, order),
                _finite_poch_inv(Fraction(1), Fraction(1), -1, n + k, order),
            ),
        )
        total = qs.add(total, qs.truncate(qs.shift(qs.truncate(term, order - e), e), order))
        n += 1
    return total


def _product_euler_eta_sum(order: Fraction) -> qs.QSeries:
    # q^{1/24} sum_n (-1)^n q^{n(n+1)/2} / (q)_n
    total = qs.make_series([], order)
    inner_order = order - Fraction(1, 24)
    n = 0
    while Fraction(n * (n + 1), 2) <= inner_order:
        e = Fraction(n * (n + 1), 2)
        term = _finite_poch_inv(Fraction(1), Fraction(1), -1, n, inner_order)
        term = qs.scale(qs.shift(qs.truncate(term, inner_order - e), e), (-1) ** n)
        total = qs.add(total, qs.truncate(qs.shift(term, Fraction(1, 24)), order))
        n += 1
    return total


def _product_eta_double_sum(order: Fraction) -> qs.QSeries:
    # q^{5/48} sum_{m1,m2 >= 0} (-1)^{m1+m2} (-u;u)_{m2}
    #   q^{m1(m1+1) + m2(m2+1)/4} / [(q^2;q^2)_{m1} (q)_{m2}]
    h = Fraction(1, 2)
    lead = Fraction(5, 48)
    inner_order = order - lead
    total = qs.make_series([], inner_order)
    m1 = 0
    while Fraction(m1 * (m1 + 1)) <= inner_order:
        m2 = 0
        while Fraction(m1 * (m1 + 1)) + Fraction(m2 * (m2 + 1), 4) <= inner_order:
            e = Fraction(m1 * (m1 + 1)) + Fraction(m2 * (m2 + 1), 4)
            term = qs.mul(
                _finite_poch(h, h, 1, m2, inner_order),
                qs.mul(
                    _finite_poch_inv(Fraction(2), Fraction(2), -1, m1, inner_order),
                    _finite_poch_inv(Fraction(1), Fraction(1), -1, m2, inner_order),
                ),
            )
            term = qs.scale(qs.shift(qs.truncate(term, inner_order - e), e), (-1) ** (m1 + m2))
            total = qs.add(total, qs.truncate(term, inner_order))
            m2 += 1
        m1 += 1
    return qs.shift(total, lead)


def _product_theta_double_sum(order: Fraction) -> qs.QSeries:
    # [q^{5/48} / (-q;q)_inf] sum_{m1 = m2 mod 2} (-u;u)_{m1} (-u;u)_{m2}
    #   q^{3(m1-m2)^2/8 + (m1-m2)/2 + m1 m2/2} / [(q)_{m1} (q)_{m2}]
    h = Fraction(1, 2)
    lead = Fraction(5, 48)
    inner_order = order - lead
    total = qs.make_series([], inner_order)
    d = 0
    while Fraction(3 * d * d, 8) - Fraction(d, 2) <= inner_order:
        for sd in ((0,) if d == 0 else (d, -d)):
            base = Fraction(3 * sd * sd, 8) + Fraction(sd, 2)
            m2 = max(0, -sd)
            while True:
                m1 = m2 + sd
                # exponent is nondecreasing in m2 once m1, m2 >= 0
                e = base + Fraction(m1 * m2, 2)
                if e > inner_order:
                    break
                term = qs.mul(
                    qs.mul(_finite_poch(h, h, 1, m1, inner_order), _finite_poch(h, h, 1, m2, inner_order)),
                    qs.mul(
                        _finite_poch_inv(Fraction(1), Fraction(1), -1, m1, inner_order),
                        _finite_poch_inv(Fraction(1), Fraction(1), -1, m2, inner_order),
                    ),
                )
                term = qs.shift(qs.truncate(term, inner_order - e), e)
                total = qs.add(total, qs.truncate(term, inner_order))
                m2 += 1
        d += 2
    inv_inf = qs.invert(qs.pochhammer(1, 1, 1, None, inner_order))
    return qs.shift(qs.truncate(qs.mul(total, inv_inf), inner_order), lead)


# The Horner recursions the auxiliary sums ran before `fermionic._horner`
# became the module's one kernel: relative shifts, a multiply-then-shift
# step and their own size bookkeeping.  Fast, so they serve as oracles
# at orders the product oracles cannot reach.


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
        fm._div(acc, b, 0, size)


def _ratio_durfee_half(k: int, order: Fraction) -> qs.QSeries:
    h = Fraction(1, 2)
    acc = _ratio_horner(floor(2 * order), 1, lambda n: n * n + k * n, lambda n: ((), (n + 1, n + k + 1)))
    return qs.mul(_finite_poch_inv(h, h, -1, k, order), qs.QSeries(2, 0, 1, acc, 1, order))


def _ratio_durfee_mixed(k: int, order: Fraction) -> qs.QSeries:
    h = Fraction(1, 2)
    acc = _ratio_horner(
        floor(2 * order), 1, lambda n: n * n + k * n, lambda n: ((n + 1, n + k + 1), (2 * n + 2, 2 * n + 2 * k + 2))
    )
    total = qs.mul(qs.QSeries(2, 0, 1, acc, 1, order), _finite_poch(h, h, 1, k, order))
    return qs.mul(total, _finite_poch_inv(Fraction(1), Fraction(1), -1, k, order))


def _ratio_euler_eta_sum(order: Fraction) -> qs.QSeries:
    inner_order = order - Fraction(1, 24)
    acc = _ratio_horner(floor(inner_order), -1, lambda n: n * (n + 1) // 2, lambda n: ((), (n + 1,)))
    return qs.shift(qs.QSeries(1, 0, 1, acc, 1, inner_order), Fraction(1, 24))


def _ratio_eta_double_sum(order: Fraction) -> qs.QSeries:
    lead = Fraction(5, 48)
    inner_order = order - lead
    top = floor(2 * inner_order)
    if top < 0:
        return qs.make_series([], order)
    s1 = _ratio_horner(top, -1, lambda m: 2 * m * (m + 1), lambda m: ((), (4 * m + 4,)))
    s2 = _ratio_horner(top, -1, lambda m: m * (m + 1) // 2, lambda m: ((m + 1,), (2 * m + 2,)))
    prod = qs.mul(qs.QSeries(2, 0, 1, s1, 1, inner_order), qs.QSeries(2, 0, 1, s2, 1, inner_order))
    return qs.shift(prod, lead)


def _ratio_theta_double_sum(order: Fraction) -> qs.QSeries:
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
    total = qs.QSeries(2, 0, 1, vals, 1, inner_order)
    inv_inf = qs.invert(qs.pochhammer(1, 1, 1, None, inner_order))
    return qs.shift(qs.truncate(qs.mul(total, inv_inf), inner_order), lead)


def _hand_theta_double_sum(order: Fraction) -> qs.QSeries:
    """_theta_double_sum's hand-built body: the D-sum to order - 5/48 and
    1/(-q;q)_inf 1/24 short of that, multiplied and shifted by q^{5/48}."""
    lead = Fraction(5, 48)
    inner_order = order - lead
    top = floor(2 * inner_order)

    def terms(D: int):
        c = 3 * D * D // 4
        H = fm._horner(top - c + D + 1, (
            (j * j + D * j, [1], (j + 1, j + D + 1), (2 * j + 2, 2 * j + 2 * D + 2))
            for j in range(isqrt(max(top - c + D, 0)), -1, -1)))
        yield c - D, H, (D + 1, D + 2), (2 * D + 2, 2 * D + 4)
        if D:
            yield c + D, H, (), ()

    vals = fm._horner(top + 1, (t for D in range(2 * isqrt(max(top, 0)) + 2, -1, -2) for t in terms(D)))
    total = qs.QSeries(2, 0, 1, vals, 1, inner_order)
    inv_inf = qs.shift(forms.eta_quotient(((1, 1), (2, -1)), inner_order - Fraction(1, 24)), Fraction(1, 24))
    return qs.shift(qs.mul(total, inv_inf), lead)


def test_theta_double_sum_matches_hand_built_body():
    for order in (F(-5, 2), F(5, 96), F(5, 48), F(7, 48), F(1, 2), F(10), F(61, 2), F(77, 3), F(200), F(801, 2)):
        got = fm._theta_double_sum(order)
        assert _fields(got) == _fields(_hand_theta_double_sum(order)), order
        assert got.order == order


@pytest.mark.parametrize(
    "got, want",
    [
        *[(partial(fm._durfee_half, k), partial(_ratio_durfee_half, k)) for k in range(4)],
        *[(partial(fm._durfee_mixed, k), partial(_ratio_durfee_mixed, k)) for k in range(4)],
        (fm._euler_eta_sum, _ratio_euler_eta_sum),
        (fm._eta_double_sum, _ratio_eta_double_sum),
        (fm._theta_double_sum, _ratio_theta_double_sum),
    ],
    ids=[f"durfee-half-{k}" for k in range(4)] + [f"durfee-mixed-{k}" for k in range(4)]
    + ["euler-eta", "eta-double-sum", "theta-double-sum"],
)
def test_aux_sums_match_ratio_horner_at_high_order(got, want):
    for order in (F(200), F(801, 2)):
        assert _fields(got(order)) == _fields(want(order)), order
    # below the leading exponent: the zero series, as the old recursion gave
    assert _fields(got(F(-5, 2))) == _fields(want(F(-5, 2)))
    assert got(F(-5, 2)).is_zero()


AUX_ORDERS = [F(10), F(12), F(50), F(61, 2), F(77, 3), F(101, 4)]


@pytest.mark.parametrize("k", range(4))
def test_durfee_sums_match_product_oracle(k):
    # the last order lies below the leading exponent 0: the zero series
    for order in AUX_ORDERS + [F(0), F(-1, 3)]:
        for got, want in ((fm._durfee_half, _product_durfee_half), (fm._durfee_mixed, _product_durfee_mixed)):
            assert _fields(got(k, order)) == _fields(want(k, order)), (got.__name__, k, order)
    assert fm._durfee_mixed(k, F(-1, 3)).is_zero()


@pytest.mark.parametrize(
    "got, want, lead",
    [
        (fm._euler_eta_sum, _product_euler_eta_sum, F(1, 24)),
        (fm._eta_double_sum, _product_eta_double_sum, F(5, 48)),
        (fm._theta_double_sum, _product_theta_double_sum, F(5, 48)),
    ],
    ids=["euler-eta", "eta-double-sum", "theta-double-sum"],
)
def test_aux_sums_match_product_oracle(got, want, lead):
    # the order lead / 2 lies below the leading exponent: the zero series
    for order in AUX_ORDERS + [lead, lead / 2]:
        assert _fields(got(order)) == _fields(want(order)), (got.__name__, order)
    assert got(lead / 2).is_zero() and got(lead).leading() == (lead, 1)


def test_verify_aux_identities_at_scale():
    # 0.65 s by the term-by-term products, a few hundredths by Horner
    reports = fm.verify_aux_identities(160)
    assert len(reports) == 12 and all(r.status == "pass" for r in reports)


def test_half_grid_product_frozen():
    inv = qs.invert(qs.pochhammer(F(1, 2), F(1, 2), -1, None, 4))
    assert [inv.coeff(F(k, 2)) for k in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_durfee_forms_agree_with_product():
    target = qs.truncate(
        qs.invert(qs.pochhammer(F(1, 2), F(1, 2), -1, None, 13)), 12
    )
    for k in range(4):
        assert qs.compare(fm._durfee_half(k, F(12)), target, 12) is None
        assert qs.compare(fm._durfee_mixed(k, F(12)), target, 12) is None


def test_euler_sum_is_eta():
    assert qs.compare(fm._euler_eta_sum(F(15)), forms.eta(15), 15) is None


def test_double_product_leading_term():
    lhs = qs.mul(
        ch.f_over_eta(F(21)), forms.dtheta(forms.ThetaParams(1, F(3, 2)), F(22))
    )
    assert lhs.leading() == (F(5, 48), F(1))


def test_eta_double_sum_leading_term():
    assert fm._eta_double_sum(F(10)).leading() == (F(5, 48), F(1))


def test_verify_aux_identities():
    reports = fm.verify_aux_identities(25)
    assert [r.identity_id for r in reports] == [
        "durfee-half",
        "durfee-mixed",
        "durfee-half",
        "durfee-mixed",
        "durfee-half",
        "durfee-mixed",
        "durfee-half",
        "durfee-mixed",
        "euler-eta",
        "dtheta-eta-double-product",
        "eta-double-sum",
        "theta-double-sum",
    ]
    assert all(r.status == "pass" for r in reports)


def test_verify_aux_rejects_low_order():
    with pytest.raises(ValueError):
        fm.verify_aux_identities(5)
