"""Core series algebra: frozen expansions, validation, algebraic laws, and
the integer kernels against the dict kernels they replaced."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from swqseries import qseries as qs

F = Fraction


# -- independent oracle: brute-force product expansion -----------------------


def brute_product(factors, order_grid, denom):
    """Expand prod (1 + sign*q^{e}) over the integer grid e*denom, dict form."""
    acc = {0: F(1)}
    for e_num, sign in factors:
        new = dict(acc)
        for k, c in acc.items():
            k2 = k + e_num
            if k2 <= order_grid:
                new[k2] = new.get(k2, F(0)) + sign * c
        acc = new
    return {k: c for k, c in acc.items() if c}


def test_pentagonal_numbers_oracle():
    # prod_{n>=1} (1 - q^n) to order 12, expanded independently
    oracle = brute_product([(n, F(-1)) for n in range(1, 13)], 12, 1)
    got = qs.pochhammer(1, 1, -1, None, 12)
    assert got.denom == 1
    assert got.coeffs == oracle
    # frozen shape: 1 - q - q^2 + q^5 + q^7 - q^12
    assert got.terms() == [
        (F(0), F(1)),
        (F(1), F(-1)),
        (F(2), F(-1)),
        (F(5), F(1)),
        (F(7), F(1)),
        (F(12), F(-1)),
    ]


def test_pochhammer_half_grid():
    oracle = brute_product([(1 + 2 * n, F(1)) for n in range(4)], 6, 2)
    got = qs.pochhammer(F(1, 2), 1, 1, None, 3)
    assert got.denom == 2
    assert got.coeffs == oracle
    assert got.terms() == [
        (F(0), F(1)),
        (F(1, 2), F(1)),
        (F(3, 2), F(1)),
        (F(2), F(1)),
        (F(5, 2), F(1)),
        (F(3), F(1)),
    ]


def test_pochhammer_empty_product_is_one():
    got = qs.pochhammer(1, 1, -1, 0, 5)
    assert got.terms() == [(F(0), F(1))]
    assert got.order == 5


def test_pochhammer_validation():
    with pytest.raises(ValueError):
        qs.pochhammer(0, 1, -1, None, 5)
    with pytest.raises(ValueError):
        qs.pochhammer(1, 1, 2, None, 5)
    with pytest.raises(ValueError):
        qs.pochhammer(1, 0, 1, None, 5)


# -- constructors and validation ---------------------------------------------


def test_make_series_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        qs.make_series([(1, 1), (F(2, 2), 3)], 5)


def test_make_series_rejects_exponent_beyond_order():
    with pytest.raises(ValueError, match="exceeds"):
        qs.make_series([(6, 1)], 5)


def test_make_series_drops_zero_coefficients():
    s = qs.make_series([(0, 1), (1, 0), (F(3, 2), 2)], 4)
    assert s.terms() == [(F(0), F(1)), (F(3, 2), F(2))]
    assert s.denom == 2


def test_coeff_refuses_beyond_order():
    s = qs.make_series([(0, 1)], 3)
    assert s.coeff(2) == 0
    with pytest.raises(ValueError):
        s.coeff(4)


# -- order propagation --------------------------------------------------------


def test_add_order_is_min():
    a = qs.make_series([(0, 1)], 10)
    b = qs.make_series([(1, 2)], 7)
    assert qs.add(a, b).order == 7


def test_mul_order_rule():
    # order = min(a.order + lead(b), b.order + lead(a))
    a = qs.make_series([(2, 1), (3, 5)], 10)
    b = qs.make_series([(1, 4)], 8)
    assert qs.mul(a, b).order == min(F(10) + 1, F(8) + 2)


def test_mul_zero_factor():
    # zero factor counts as lead = +infinity: order = z.order + lead(a)
    a = qs.make_series([(1, 1)], 4)
    z = qs.zero(6)
    out = qs.mul(a, z)
    assert out.is_zero()
    assert out.order == 7
    both = qs.mul(qs.zero(4), qs.zero(6))
    assert both.is_zero() and both.order == 10


def test_mul_zero_factor_negative_lead_stays_sound():
    # q^{-1} * (0 + O(q^{>0})) is only known to O(q^{>-1})
    a = qs.make_series([(-1, 1)], 0)
    z = qs.zero(0)
    assert qs.mul(a, z).order == -1


def test_invert_order_rule():
    a = qs.make_series([(F(1, 2), 3), (1, 1)], 6)
    inv = qs.invert(a)
    assert inv.order == F(6) - 2 * F(1, 2)
    assert inv.leading() == (F(-1, 2), F(1, 3))
    prod = qs.mul(a, inv)
    assert qs.compare(prod, qs.one(prod.order), prod.order) is None


def test_invert_rejects_zero():
    with pytest.raises(ValueError):
        qs.invert(qs.zero(5))


def test_compare_refuses_beyond_guarantee():
    a = qs.make_series([(0, 1)], 5)
    b = qs.make_series([(0, 1)], 9)
    with pytest.raises(ValueError, match="guaranteed"):
        qs.compare(a, b, 6)
    assert qs.compare(a, b, 5) is None


def test_compare_reports_first_mismatch():
    a = qs.make_series([(0, 1), (F(3, 2), 1), (2, 5)], 5)
    b = qs.make_series([(0, 1), (F(3, 2), 2), (2, 7)], 5)
    assert qs.compare(a, b, 5) == (F(3, 2), F(1), F(2))


def test_substitute_power_scales_exponents_and_order():
    a = qs.make_series([(1, 1), (2, 3)], 4)
    out = qs.substitute_power(a, F(3, 2))
    assert out.terms() == [(F(3, 2), F(1)), (F(3), F(3))]
    assert out.order == 6
    with pytest.raises(ValueError):
        qs.substitute_power(a, 0)


def test_truncate_cannot_raise_order():
    a = qs.make_series([(0, 1), (3, 1)], 5)
    t = qs.truncate(a, 2)
    assert t.terms() == [(F(0), F(1))]
    with pytest.raises(ValueError):
        qs.truncate(t, 4)


# -- verification report ------------------------------------------------------


def test_report_status_consistency():
    with pytest.raises(ValueError):
        qs.VerificationReport("x", {}, F(5), "pass", (F(1), F(1), F(2)))
    with pytest.raises(ValueError):
        qs.VerificationReport("x", {}, F(5), "fail", None)
    rep = qs.compare_report(
        "t", {}, lambda: (qs.one(5), qs.make_series([(0, 1), (2, 1)], 5)), 5
    )
    assert rep.status == "fail"
    assert rep.first_mismatch == (F(2), F(0), F(1))
    assert rep.runtime_ms >= 0


# -- algebraic laws (property tests) ------------------------------------------


@st.composite
def series(draw, max_denom=4, max_terms=5):
    d = draw(st.integers(min_value=1, max_value=max_denom))
    order_num = draw(st.integers(min_value=0, max_value=8 * d))
    ks = draw(
        st.lists(
            st.integers(min_value=-2 * d, max_value=order_num),
            max_size=max_terms,
            unique=True,
        )
    )
    cs = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
            min_size=len(ks),
            max_size=len(ks),
        )
    )
    coeffs = {k: c for k, c in zip(ks, cs) if c}
    return qs._normalized(d, coeffs, F(order_num, d))


def equal_upto_common(a, b):
    o = min(a.order, b.order)
    return qs.compare(a, b, o) is None


@settings(max_examples=80, deadline=None)
@given(series(), series())
def test_add_commutes(a, b):
    assert qs.add(a, b) == qs.add(b, a)


@settings(max_examples=80, deadline=None)
@given(series(), series())
def test_mul_commutes(a, b):
    assert qs.mul(a, b) == qs.mul(b, a)


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_mul_associates(a, b, c):
    assert equal_upto_common(qs.mul(qs.mul(a, b), c), qs.mul(a, qs.mul(b, c)))


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_distributes(a, b, c):
    lhs = qs.mul(a, qs.add(b, c))
    rhs = qs.add(qs.mul(a, b), qs.mul(a, c))
    assert equal_upto_common(lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(series())
def test_invert_round_trip(a):
    if a.is_zero():
        return
    prod = qs.mul(a, qs.invert(a))
    if prod.order >= 0:
        assert qs.compare(prod, qs.one(prod.order), prod.order) is None


@settings(max_examples=60, deadline=None)
@given(series(), st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
def test_substitute_round_trip(a, r):
    back = qs.substitute_power(qs.substitute_power(a, r), 1 / r)
    assert back == a


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=10))
def test_pochhammer_invert_round_trip(step, order):
    p = qs.pochhammer(step, step, -1, None, order)
    prod = qs.mul(p, qs.invert(p))
    assert qs.compare(prod, qs.one(prod.order), prod.order) is None


# -- integer kernels against the dict kernels they replace ----------------------
#
# _dict_mul, _dict_invert and _dict_pochhammer are the Fraction-dictionary
# bodies of qs.mul, qs.invert and qs.pochhammer before the kernels moved to
# exact integers; the integer kernels must reproduce their output exactly:
# the same denom, the same coefficients (as Fractions) and the same order.


def _dict_mul(a: qs.QSeries, b: qs.QSeries) -> qs.QSeries:
    if a.is_zero() and b.is_zero():
        return qs.QSeries(1, {}, a.order + b.order)
    if a.is_zero():
        return qs.QSeries(1, {}, a.order + b.leading()[0])
    if b.is_zero():
        return qs.QSeries(1, {}, b.order + a.leading()[0])
    ea, eb = a.leading()[0], b.leading()[0]
    order = min(a.order + eb, b.order + ea)
    d, ca, cb = qs._on_common_grid(a, b)
    limit = order * d
    ia = sorted(ca.items())
    ib = sorted(cb.items())
    out: dict[int, F] = {}
    for ka, va in ia:
        if ka + ib[0][0] > limit:
            break
        for kb, vb in ib:
            k = ka + kb
            if k > limit:
                break
            out[k] = out.get(k, F(0)) + va * vb
    return qs._normalized(d, out, order)


def _dict_invert(a: qs.QSeries) -> qs.QSeries:
    if a.is_zero():
        raise ValueError("cannot invert the zero series")
    e0, c0 = a.leading()
    order = a.order - 2 * e0
    d = a.denom
    k0 = min(a.coeffs)
    # monic tail: a = c0 q^{e0} (1 + sum t_k q^{k/d}),  solve (1+t) * s = 1
    t = sorted((k - k0, v / c0) for k, v in a.coeffs.items() if k != k0)
    n_max = int((order + e0) * d)
    s: dict[int, F] = {0: F(1)}
    for n in range(1, n_max + 1):
        acc = F(0)
        for k, v in t:
            if k > n:
                break
            prev = s.get(n - k)
            if prev is not None:
                acc += v * prev
        if acc:
            s[n] = -acc
    coeffs = {k - k0: v / c0 for k, v in s.items()}
    return qs._normalized(d, coeffs, order)


def _dict_pochhammer(start, step, sign, count, order) -> qs.QSeries:
    start_f, step_f, order_f = F(start), F(step), F(order)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if start_f <= 0:
        raise ValueError("start must be positive")
    if count is None:
        if step_f <= 0:
            raise ValueError("infinite product needs positive step")
        count = 0
        while start_f + count * step_f <= order_f:
            count += 1
    elif count < 0:
        raise ValueError("count must be nonnegative")
    elif step_f < 0 and count > 1:
        raise ValueError("step must be nonnegative for finite products")
    d = math.lcm(start_f.denominator, step_f.denominator)
    limit = order_f * d
    out: dict[int, F] = {0: F(1)}
    sgn = F(sign)
    for n in range(count):
        ke = int((start_f + n * step_f) * d)
        if ke > limit:
            continue
        extra: dict[int, F] = {}
        for k, v in out.items():
            if k + ke <= limit:
                extra[k + ke] = v * sgn
        for k, v in extra.items():
            out[k] = out.get(k, F(0)) + v
    return qs._normalized(d, out, order_f)


def assert_identical(got: qs.QSeries, want: qs.QSeries) -> None:
    assert got.denom == want.denom
    assert got.order == want.order
    assert got.coeffs == want.coeffs
    assert all(type(c) is F for c in got.coeffs.values())


# Coefficient sizes around byte and machine-word edges, up to 2^130.
_EDGES = [127, 128, 255, 256, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**127 - 1, 2**130]


@st.composite
def kernel_series(draw, grids=(1, 2, 3, 12, 16, 48), max_order=12, big=True):
    """Series on one of the benchmark's grids with a sub-grid stride,
    fractional orders (terms may lie beyond the order, as in a
    pochhammer product at negative order), negative and large
    coefficients, and contents 3, 5, 7.  With `uniform`, every
    coefficient has the same size, so digit sums reach their bound."""
    d = draw(st.sampled_from(grids))
    order = draw(st.fractions(min_value=-2, max_value=max_order, max_denominator=6))
    stride = draw(st.sampled_from([1, 1, 2, 3, 4]))
    lead = draw(st.integers(min_value=-2 * d, max_value=max(-2 * d, int(order * d) + 2)))
    steps = draw(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=9, unique=True))
    content = draw(st.sampled_from([1, 1, 1, 3, 5, 7]))
    sizes = st.sampled_from(_EDGES) if big else st.integers(min_value=1, max_value=2**20)
    if draw(st.booleans()):
        size = draw(st.one_of(st.integers(min_value=1, max_value=9), sizes))
        nums = [size * draw(st.sampled_from([1, -1])) for _ in steps]
    else:
        nums = [
            draw(st.one_of(st.integers(min_value=-9, max_value=9), sizes, sizes.map(lambda x: -x)))
            for _ in steps
        ]
    coeffs = {lead + stride * i: F(n, content) for i, n in zip(steps, nums) if n}
    return qs._normalized(d, coeffs, order)


def _series(d, order, coeffs):
    return qs._normalized(d, {k: F(c) for k, c in coeffs.items()}, F(order))


@settings(max_examples=300, deadline=None)
@given(kernel_series(), kernel_series())
@example(  # mixed grids 16 and 12
    _series(16, 5, {0: 1, 3: -2, 7: 5}), _series(12, F(9, 2), {1: 3, 6: -1, 30: 2})
)
@example(  # mixed grids 48 and 2
    _series(48, F(7, 3), {-5: F(1, 3), 48: 2**64, 96: -7}), _series(2, 6, {-1: F(2, 5), 3: F(-1, 7)})
)
@example(qs.zero(F(5, 2)), _series(3, 4, {1: 2, 2: -1}))  # a zero operand
@example(  # a term beyond its order: the truncation keeps no term
    _series(1, -1, {0: 1}), _series(2, 3, {1: 1, 4: -1})
)
@example(  # three maximal products on a digit: 3 * (2^64 - 1)^2, at every digit
    _series(1, 10, {k: 2**64 - 1 for k in range(3)}), _series(1, 10, {k: 2**64 - 1 for k in range(9)})
)
@example(_series(1, 10, {k: 7 for k in range(3)}), _series(1, 10, {k: -7 for k in range(3)}))
def test_mul_matches_dict_kernel(a, b):
    assert_identical(qs.mul(a, b), _dict_mul(a, b))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=1, max_value=20),
    st.sampled_from([0, 2]),
    st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    st.booleans(),
    st.sampled_from([1, 16, 48]),
)
def test_mul_digit_sums_on_width_boundary(na, nb, bits_a, k, slack, signs, alternate, d):
    # Coefficients of size 2^bits - 1 on consecutive exponents, with one
    # sign or alternating signs, make every full digit of the product as
    # large as the digit-width bound allows; bits_b is chosen so that the
    # bound bits_a + bits_b + bits(min(na, nb)) + slack is a whole number
    # of bytes, so no byte rounding hides a width that is too small.
    n_bits = min(na, nb).bit_length()
    bits_b = 8 * k - bits_a - n_bits - slack
    assume(bits_b >= 1)
    pattern = [(-1) ** i if alternate else 1 for i in range(max(na, nb))]
    a = _series(d, F(na + nb, d), {i: signs[0] * pattern[i] * (2**bits_a - 1) for i in range(na)})
    b = _series(d, F(na + nb, d), {i: signs[1] * pattern[i] * (2**bits_b - 1) for i in range(nb)})
    assert_identical(qs.mul(a, b), _dict_mul(a, b))


@settings(max_examples=200, deadline=None)
@given(kernel_series(grids=(1, 2, 3, 12, 16), max_order=5, big=False))
@example(_series(12, F(7, 2), {-3: F(3, 7), 1: F(-2, 5), 9: 2**64 + 1}))
@example(_series(1, F(-3, 2), {0: 1}))
@example(_series(2, F(61, 2), {1: 1, 3: -1, 4: -1}))
def test_invert_matches_dict_kernel(a):
    if a.is_zero():
        return
    assert_identical(qs.invert(a), _dict_invert(a))


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=F(1, 48), max_value=4, max_denominator=48),
    st.fractions(min_value=0, max_value=3, max_denominator=16),
    st.sampled_from([1, -1]),
    st.one_of(st.none(), st.integers(min_value=0, max_value=14)),
    st.fractions(min_value=-2, max_value=20, max_denominator=6),
)
@example(F(1), F(1), -1, None, F(77, 3))
@example(F(1, 2), F(1, 2), 1, 9, F(61, 2))
@example(F(1), F(0), -1, 5, F(-1, 2))
def test_pochhammer_matches_dict_kernel(start, step, sign, count, order):
    if count is None and step == 0:
        count = 3
    assert_identical(
        qs.pochhammer(start, step, sign, count, order),
        _dict_pochhammer(start, step, sign, count, order),
    )


def test_prefix_rank():
    a = _series(2, 6, {1: 1, 3: 2})
    b = _series(3, 6, {2: 1, 9: 1})
    c = qs.add(a, qs.scale(b, F(2, 3)))
    assert qs.prefix_rank([]) == 0
    assert qs.prefix_rank([a, b]) == 2
    assert qs.prefix_rank([a, b, c]) == 2
    assert qs.prefix_rank([a, b, a]) == 2
    # rows beyond the smallest guaranteed order do not count
    assert qs.prefix_rank([a, qs.truncate(qs.shift(b, 5), 6), qs.one(5)]) == 2
