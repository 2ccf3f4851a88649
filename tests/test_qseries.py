"""Core series algebra: frozen expansions, validation, and algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
