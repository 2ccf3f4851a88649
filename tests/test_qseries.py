"""Core series algebra: frozen expansions, validation, algebraic laws, and
the integer kernels against the dict kernels they replaced."""

import copy
import math
import pickle
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from swqseries import qseries as qs
from swqseries.report import _unpack

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


def test_one_holds_no_term_past_its_order():
    # below q^0 the series 1, exact to the order, is the zero series
    for order in (F(-1, 48), F(-1), "-7/3"):
        assert qs.one(order) == qs.make_series([], order)
    for order in (0, F(1, 48), 5):
        assert qs.one(order).terms() == [(F(0), F(1))]
        assert qs.one(order).order == order
    # pochhammer keeps its documented constant term below q^0, for invert
    assert qs.pochhammer(1, 1, -1, None, -1).terms() == [(F(0), F(1))]


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
    z = qs.make_series([], 6)
    out = qs.mul(a, z)
    assert out.is_zero()
    assert out.order == 7
    both = qs.mul(qs.make_series([], 4), qs.make_series([], 6))
    assert both.is_zero() and both.order == 10


def test_mul_zero_factor_negative_lead_stays_sound():
    # q^{-1} * (0 + O(q^{>0})) is only known to O(q^{>-1})
    a = qs.make_series([(-1, 1)], 0)
    z = qs.make_series([], 0)
    assert qs.mul(a, z).order == -1


def test_invert_order_rule():
    a = qs.make_series([(F(1, 2), -1), (1, 3)], 6)
    inv = qs.invert(a)
    assert inv.order == F(6) - 2 * F(1, 2)
    assert inv.leading() == (F(-1, 2), F(-1))
    prod = qs.mul(a, inv)
    assert qs.compare(prod, qs.one(prod.order), prod.order) is None


def test_invert_rejects_zero():
    with pytest.raises(ValueError):
        qs.invert(qs.make_series([], 5))


def test_invert_takes_only_unit_lead_integer_series():
    rule = "^invert takes an integer series whose leading coefficient is \\+1 or -1$"
    with pytest.raises(ValueError, match=rule):
        qs.invert(qs.make_series([(0, 3), (1, 1)], 5))
    with pytest.raises(ValueError, match=rule):
        qs.invert(qs.make_series([(0, 1), (1, F(2, 5))], 5))


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
    with pytest.raises(ValueError, match="^status must be 'pass' exactly when there is no mismatch$"):
        qs.VerificationReport("x", {}, F(5), "pass", (F(1), F(1), F(2)))
    with pytest.raises(ValueError):
        qs.VerificationReport("x", {}, F(5), "fail", None)
    rep = qs.compare_report(
        "t", {}, lambda: (qs.one(5), qs.make_series([(0, 1), (2, 1)], 5)), 5
    )
    assert rep.status == "fail"
    assert rep.first_mismatch == (F(2), F(0), F(1))
    assert rep.runtime_ms >= 0
    with pytest.raises(AttributeError):
        rep.status = "pass"


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
    return qs._from_coeffs(d, coeffs, F(order_num, d))


def _unit_lead(a, sign):
    """`a` with its numerators as coefficients and `sign` as its lead: an
    integer series whose lead is +1 or -1, as `invert` takes."""
    if a.is_zero():
        return a
    return qs.QSeries(a.denom, a.base, a.stride, (sign, *a.vals[1:]), 1, a.order)


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
@given(series(), st.sampled_from([1, -1]))
def test_invert_round_trip(a, sign):
    if a.is_zero():
        return
    a = _unit_lead(a, sign)
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


def _built_twice(a, b, r, e):
    """Pairs of equal series, each built by two different paths, across
    every constructor and kernel."""
    pairs = [
        (a, qs._from_coeffs(a.denom, a.coeffs, a.order)),
        (a, qs.QSeries(a.denom, a.base, a.stride, list(a.vals), a.content, a.order)),
        (a, qs.make_series(a.terms(), a.order)),
        (a, qs.truncate(a, a.order)),
        (qs.add(a, b), qs.add(b, a)),
        (qs.mul(a, b), qs.mul(b, a)),
        (a, qs.scale(qs.scale(a, r), 1 / r)),
        (a, qs.shift(qs.shift(a, e), -e)),
        (a, qs.substitute_power(qs.substitute_power(a, abs(r)), 1 / abs(r))),
        (
            qs.pochhammer(abs(r), abs(e), -1, 2, 3),
            qs.mul(qs.pochhammer(abs(r), 1, -1, 1, 3), qs.pochhammer(abs(r) + abs(e), 1, -1, 1, 3)),
        ),
    ]
    if not a.is_zero():
        u = _unit_lead(a, 1 if r > 0 else -1)
        pairs.append((qs.invert(u), qs.invert(qs._from_coeffs(u.denom, u.coeffs, u.order))))
    return pairs


@settings(max_examples=60, deadline=None)
@given(
    series(),
    series(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)
def test_qseries_is_an_immutable_value(a, b, r, e):
    for x, y in _built_twice(a, b, r, e):
        assert tuple(x) == tuple(y) and hash(x) == hash(y)
        for s in (x, y):
            assert type(s) is qs.QSeries and type(s.vals) is tuple
            with pytest.raises(TypeError):
                s[3] = [1]
            if s.vals:
                with pytest.raises(TypeError):
                    s.vals[0] = 1
            for field in (*qs.QSeries._fields, "coeffs", "other"):
                with pytest.raises(AttributeError):
                    setattr(s, field, 1)
            for t in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
                assert type(t) is qs.QSeries and t == s and type(t.vals) is tuple


# -- integer kernels against the dict kernels they replace ----------------------
#
# The _dict_* functions are the bodies of the qs kernels from when a series
# was a dict mapping exponent numerators to Fractions.  They read their
# operands only through .denom, .coeffs and .order, and return a DictSeries
# normalised by _dict_normalized, so they share no code with the integer
# kernels.  Each integer kernel must reproduce its oracle exactly: the same
# denom, the same coefficients (as Fractions) and the same order.


class DictSeries(NamedTuple):
    denom: int
    coeffs: dict
    order: F


def _dict_normalized(denom: int, coeffs: dict, order) -> DictSeries:
    coeffs = {k: c for k, c in coeffs.items() if c}
    g = denom
    for k in coeffs:
        g = math.gcd(g, k)
        if g == 1:
            break
    if g > 1:
        coeffs = {k // g: c for k, c in coeffs.items()}
        denom //= g
    return DictSeries(denom, coeffs, order)


def _dict_lead(a) -> F:
    return F(min(a.coeffs), a.denom)


def _dict_grid(a, b) -> tuple[int, dict, dict]:
    d = math.lcm(a.denom, b.denom)
    ma, mb = d // a.denom, d // b.denom
    return d, {k * ma: v for k, v in a.coeffs.items()}, {k * mb: v for k, v in b.coeffs.items()}


def _dict_add(a, b) -> DictSeries:
    order = min(a.order, b.order)
    d, ca, cb = _dict_grid(a, b)
    limit = math.floor(order * d)
    out = {k: v for k, v in ca.items() if k <= limit}
    for k, v in cb.items():
        if k <= limit:
            out[k] = out.get(k, F(0)) + v
    return _dict_normalized(d, out, order)


def _dict_scale(a, c) -> DictSeries:
    c = F(c)
    if not c:
        return DictSeries(1, {}, a.order)
    return DictSeries(a.denom, {k: v * c for k, v in a.coeffs.items()}, a.order)


def _dict_shift(a, e) -> DictSeries:
    e = F(e)
    d = math.lcm(a.denom, e.denominator)
    m, ke = d // a.denom, int(e * d)
    return _dict_normalized(d, {k * m + ke: v for k, v in a.coeffs.items()}, a.order + e)


def _dict_truncate(a, order) -> DictSeries:
    order_f = F(order)
    if order_f > a.order:
        raise ValueError(f"cannot raise order {a.order} to {order_f}")
    limit = math.floor(order_f * a.denom)
    return _dict_normalized(a.denom, {k: v for k, v in a.coeffs.items() if k <= limit}, order_f)


def _dict_substitute_power(a, r) -> DictSeries:
    r = F(r)
    coeffs = {k * r.numerator: v for k, v in a.coeffs.items()}
    return _dict_normalized(a.denom * r.denominator, coeffs, a.order * r)


def _dict_compare(a, b, order):
    d, ca, cb = _dict_grid(a, b)
    limit = math.floor(F(order) * d)
    for k in sorted(set(ca) | set(cb)):
        if k > limit:
            break
        va = ca.get(k, F(0))
        vb = cb.get(k, F(0))
        if va != vb:
            return (F(k, d), va, vb)
    return None


def _dict_prefix_rank(columns) -> int:
    if not columns:
        return 0
    d = math.lcm(*(s.denom for s in columns))
    grid = [{k * (d // s.denom): v for k, v in s.coeffs.items()} for s in columns]
    limit = math.floor(min(s.order for s in columns) * d)
    basis: list[tuple[int, list[F]]] = []
    for key in sorted({k for c in grid for k in c if k <= limit}):
        row = [c.get(key, F(0)) for c in grid]
        for pivot, b in basis:
            f = row[pivot]
            if f:
                row = [x - f * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, [x / row[pivot] for x in row]))
            if len(basis) == len(columns):
                break
    return len(basis)


def _dict_mul(a, b) -> DictSeries:
    if not a.coeffs and not b.coeffs:
        return DictSeries(1, {}, a.order + b.order)
    if not a.coeffs:
        return DictSeries(1, {}, a.order + _dict_lead(b))
    if not b.coeffs:
        return DictSeries(1, {}, b.order + _dict_lead(a))
    order = min(a.order + _dict_lead(b), b.order + _dict_lead(a))
    d, ca, cb = _dict_grid(a, b)
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
    return _dict_normalized(d, out, order)


def _dict_invert(a) -> DictSeries:
    if not a.coeffs:
        raise ValueError("cannot invert the zero series")
    k0 = min(a.coeffs)
    e0, c0 = F(k0, a.denom), a.coeffs[k0]
    order = a.order - 2 * e0
    d = a.denom
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
    return _dict_normalized(d, coeffs, order)


def _dict_pochhammer(start, step, sign, count, order) -> DictSeries:
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
    return _dict_normalized(d, out, order_f)


def assert_normalised(s: qs.QSeries) -> None:
    """The invariants every QSeries keeps, which make its fields unique."""
    assert all(type(v) is int for v in s.vals)
    if not s.vals:
        assert (s.denom, s.base, s.stride, s.content) == (1, 0, 1, 1)
        return
    assert s.vals[0] and s.vals[-1]
    assert s.content > 0 and math.gcd(s.content, *s.vals) == 1
    if len(s.vals) == 1:
        assert s.stride == 1 and math.gcd(s.denom, s.base) == 1
    else:
        assert s.stride > 0 and math.gcd(*(i for i, v in enumerate(s.vals) if v)) == 1
        assert math.gcd(s.denom, s.base, s.stride) == 1


def assert_identical(got: qs.QSeries, want: DictSeries) -> None:
    assert_normalised(got)
    assert got.denom == want.denom
    assert got.order == want.order
    assert got.coeffs == want.coeffs
    # what the benchmark tracer reads from .coeffs
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
    return qs._from_coeffs(d, coeffs, order)


def _series(d, order, coeffs):
    return qs._from_coeffs(d, {k: F(c) for k, c in coeffs.items()}, F(order))


@settings(max_examples=300, deadline=None)
@given(kernel_series(), kernel_series())
@example(  # mixed grids 16 and 12
    _series(16, 5, {0: 1, 3: -2, 7: 5}), _series(12, F(9, 2), {1: 3, 6: -1, 30: 2})
)
@example(  # mixed grids 48 and 2
    _series(48, F(7, 3), {-5: F(1, 3), 48: 2**64, 96: -7}), _series(2, 6, {-1: F(2, 5), 3: F(-1, 7)})
)
@example(qs.make_series([], F(5, 2)), _series(3, 4, {1: 2, 2: -1}))  # a zero operand
@example(  # a term beyond its order: the truncation keeps no term
    _series(1, -1, {0: 1}), _series(2, 3, {1: 1, 4: -1})
)
@example(  # three maximal products on a digit: 3 * (2^64 - 1)^2, at every digit
    _series(1, 10, {k: 2**64 - 1 for k in range(3)}), _series(1, 10, {k: 2**64 - 1 for k in range(9)})
)
@example(_series(1, 10, {k: 7 for k in range(3)}), _series(1, 10, {k: -7 for k in range(3)}))
@example(  # both operands on coarser lattices, the last packed slot of a on the cut
    _series(1, 6, {0: 1, 2: -3, 4: 5, 6: -7}), _series(1, 9, {0: 2, 3: -1, 9: 4})
)
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
@given(
    st.integers(1, 4).flatmap(
        lambda w: st.tuples(
            st.just(w), st.lists(st.integers(-(2 ** (8 * w - 1)), 2 ** (8 * w - 1) - 1), min_size=1, max_size=12)
        )
    ),
    st.integers(-(2**70), 2**70),
)
@example((1, [-128, 127, 0, -1]), -1)
def test_unpack_reads_signed_digits_below_any_high_part(width_digits, high):
    # the read-back of both Kronecker products, mul and gmverify.gm_value;
    # mul's product has digits past n_out, which the read-back ignores
    width, digits = width_digits
    n = len(digits)
    x = sum(d << (8 * width * i) for i, d in enumerate(digits)) + (high << (8 * width * n))
    assert _unpack(x, width, n) == digits


@settings(max_examples=200, deadline=None)
@given(kernel_series(), st.sampled_from([1, -1]))
@example(_series(12, F(7, 2), {-3: 1, 1: -2, 9: 2**64 + 1}), 1)
@example(_series(48, 3, {-5: -1, 7: 2**130, 48: -(2**63)}), -1)
@example(_series(1, F(-3, 2), {0: 1}), 1)
@example(_series(2, F(61, 2), {1: 1, 3: -1, 4: -1}), 1)
def test_invert_matches_dict_kernel(a, sign):
    if a.is_zero():
        return
    a = _unit_lead(a, sign)
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


# -- the linear kernels, compare and prefix_rank against their dict bodies ------

# Edge series shared by the examples below.
_ETA = qs.pochhammer(1, 1, -1, None, 6)
_Q24 = qs.shift(_ETA, F(1, 24))  # q^{1/24} (q;q)_inf: grid 24, offset 1
_Q548 = qs.shift(qs.pochhammer(F(1, 2), F(1, 2), 1, None, 6), F(5, 48))  # grid 48, offset 5
_STRIDED = qs.pochhammer(F(2, 3), F(4, 3), -1, None, 9)  # slots 2/3 apart
_NEG_LEAD = _series(2, F(9, 2), {-3: F(2, 3), -1: -1, 4: 7})
_BIG = _series(3, F(17, 5), {1: F(1, 2**64 + 3), 4: F(-5, 2**65), 7: 2**70})  # content above 2^64
_ZERO = qs.make_series([], F(5, 2))
# leading terms cancel: the sum keeps only even keys, so base and denom move
_CANCEL = (_series(2, 6, {-3: 1, -1: F(1, 3), 4: 1}), _series(2, 7, {-3: -1, -1: F(-1, 3), 8: 2}))

_PAIRS = [(_Q24, _Q548), (_STRIDED, _NEG_LEAD), (_ZERO, _BIG), _CANCEL, (_BIG, _Q24), (_NEG_LEAD, _ZERO)]


def _examples(*cases):
    def deco(f):
        for case in cases:
            f = example(*case)(f)
        return f

    return deco


def test_edge_series_have_the_shapes_the_examples_need():
    assert (_Q24.denom, _Q24.base) == (24, 1)
    assert (_Q548.denom, _Q548.base) == (48, 5)
    assert _STRIDED.stride == 2 and _STRIDED.denom == 3
    assert _NEG_LEAD.base < 0
    assert _BIG.content > 2**64
    s = qs.add(*_CANCEL)
    assert s.base == 2 and s.denom == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
)
@example(24, 0, 1, [0, 0, 1, 0, 0, 0, -1, 0, 0], 1, 1)  # zero ends and a coarser lattice
@example(6, 4, 2, [3, 0, 9], 6, 1)  # common factor of content and slots
@example(4, 2, 3, [0, 5, 0], 1, 1)  # one term: stride 1
@example(4, 2, 3, [0, 0], 1, 1)  # zero series
def test_from_slots_matches_dict_normalisation(denom, base, stride, vals, content, mult):
    vals = [v * mult for v in vals]
    coeffs = {base + i * stride: F(v, content) for i, v in enumerate(vals)}
    assert_identical(qs.QSeries(denom, base, stride, vals, content, F(7)), _dict_normalized(denom, coeffs, F(7)))


@settings(max_examples=200, deadline=None)
@given(kernel_series(), kernel_series())
@_examples(*_PAIRS)
def test_add_sub_match_dict_kernels(a, b):
    assert_identical(qs.add(a, b), _dict_add(a, b))
    assert_identical(qs.sub(a, b), _dict_add(a, _dict_scale(b, -1)))


@settings(max_examples=200, deadline=None)
@given(kernel_series(), st.fractions(min_value=-3, max_value=3, max_denominator=2**66))
@_examples(
    (_Q24, F(-7, 5)), (_STRIDED, F(3, 2)), (_ZERO, 4), (_BIG, F(2**64 + 3, 7)), (_NEG_LEAD, 0), (_Q548, -1)
)
def test_scale_matches_dict_kernel(a, c):
    assert_identical(qs.scale(a, c), _dict_scale(a, c))


@settings(max_examples=200, deadline=None)
@given(kernel_series(), st.fractions(min_value=-3, max_value=3, max_denominator=48))
@_examples(
    (_Q24, F(-1, 24)),
    (_Q548, F(-5, 48)),
    (_STRIDED, F(1, 3)),
    (_ZERO, F(1, 24)),
    (_NEG_LEAD, F(3, 2)),
    (_BIG, F(-2, 3)),
)
def test_shift_matches_dict_kernel(a, e):
    assert_identical(qs.shift(a, e), _dict_shift(a, e))


@settings(max_examples=200, deadline=None)
@given(kernel_series(), st.fractions(min_value=0, max_value=6, max_denominator=12))
@_examples(
    (_NEG_LEAD, F(7, 2)),  # below the lead: nothing is kept
    (_BIG, F(8, 5)),  # fractional orders; the term at 2**70 goes
    (_STRIDED, F(3)),
    (_Q24, F(47, 8)),
    (_ZERO, 1),
    (_CANCEL[0], F(7)),  # drops the slot that made the content 3
)
def test_truncate_matches_dict_kernel(a, drop):
    assert_identical(qs.truncate(a, a.order - drop), _dict_truncate(a, a.order - drop))


@settings(max_examples=200, deadline=None)
@given(kernel_series(), st.fractions(min_value=F(1, 6), max_value=6, max_denominator=8))
@_examples((_Q24, F(24)), (_Q548, F(2, 5)), (_STRIDED, F(3, 2)), (_ZERO, 2), (_NEG_LEAD, F(1, 2)), (_BIG, 3))
def test_substitute_power_matches_dict_kernel(a, r):
    assert_identical(qs.substitute_power(a, r), _dict_substitute_power(a, r))


def _with_prefix(a, b, e):
    """a plus b moved up by e, so the two agree below lead(b) + e."""
    return qs.add(a, qs.shift(b, e)) if not b.is_zero() else a


@settings(max_examples=200, deadline=None)
@given(
    kernel_series(),
    kernel_series(),
    st.fractions(min_value=0, max_value=8, max_denominator=6),
    st.fractions(min_value=0, max_value=4, max_denominator=6),
    st.booleans(),
)
@_examples(*((a, b, F(1), F(0), True) for a, b in _PAIRS), (_BIG, _Q24, F(3), F(1, 2), False))
def test_compare_matches_dict_kernel(a, b, e, drop, related):
    if related:
        b = _with_prefix(a, b, e)
    order = min(a.order, b.order) - drop
    got = qs.compare(a, b, order)
    assert got == _dict_compare(a, b, order)
    assert got is None or all(type(x) is F for x in got)
    with pytest.raises(ValueError, match="guaranteed"):
        qs.compare(a, b, min(a.order, b.order) + F(1, 7))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(kernel_series(grids=(1, 2, 3, 12), max_order=6), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=2, max_size=2),
)
@_examples(([_Q24, _Q548, _STRIDED], [F(1), F(-2)]), ([_ZERO, _BIG, _NEG_LEAD], [F(2, 3), F(0)]))
def test_prefix_rank_matches_dict_kernel(columns, weights):
    # a combination of the first two columns makes a dependent one
    if len(columns) >= 2:
        columns = columns + [qs.add(qs.scale(columns[0], weights[0]), qs.scale(columns[1], weights[1]))]
    assert qs.prefix_rank(columns) == _dict_prefix_rank(columns)


@settings(max_examples=100, deadline=None)
@given(kernel_series(), st.fractions(min_value=-3, max_value=12, max_denominator=96))
@_examples(
    (_Q24, F(25, 24)), (_STRIDED, F(4, 3)), (_STRIDED, F(2)), (_ZERO, 1), (_NEG_LEAD, F(-3, 2)), (_BIG, F(7, 3))
)
def test_coeff_leading_and_terms_read_like_the_dict_view(a, e):
    assert a.terms() == [(F(k, a.denom), c) for k, c in sorted(a.coeffs.items())]
    if a.coeffs:
        k = min(a.coeffs)
        assert a.leading() == (F(k, a.denom), a.coeffs[k])
    if e <= a.order:
        k = e * a.denom
        want = a.coeffs.get(int(k), F(0)) if k.denominator == 1 else F(0)
        got = a.coeff(e)
        assert got == want and type(got) is F
