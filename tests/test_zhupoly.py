"""Polynomial arithmetic, the singlet curve, the binomial-sum
identities, and the interpolation/sign suite."""

import copy
import math
import pickle
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from swqseries import characters as ch
from swqseries import gmverify as gv
from swqseries import zhupoly as zp

F = Fraction


# -- oracles on plain Fraction lists, lowest degree first, no trailing zero ---


def _trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _fraction_add(a, b, sign=1):
    return _trim(x + sign * y for x, y in zip_longest(a, b, fillvalue=F(0)))


def _fraction_scale(a, c):
    return _trim(x * F(c) for x in a)


def _fraction_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _fraction_eval(a, t):
    acc = F(0)
    for c in reversed(a):
        acc = acc * F(t) + c
    return acc


def _fraction_compose(a, b):
    acc = []
    for c in reversed(a):
        acc = _fraction_add(_fraction_mul(acc, b), [c])
    return acc


def _fraction_from_roots(roots):
    acc = [F(1)]
    for r in roots:
        acc = _fraction_mul(acc, [-F(r), F(1)])
    return acc


def _fraction_binom(r):
    return _fraction_scale(_fraction_from_roots(range(r)), F(1, math.factorial(r)))


def _fraction_phi_tilde(m):
    acc = []
    for k in range(2 * m + 1):
        term = _fraction_mul(_fraction_binom(4 * m + 1 - k), _fraction_binom(2 * m + 1 + k))
        acc = _fraction_add(acc, _fraction_scale(term, (-1) ** k * math.comb(2 * m, k)))
    return acc


def _convolved_phi_tilde(m):
    """phi_tilde as a sum of convolved falling factorials over the lcm
    of their factorial denominators: the oracle for its interpolation
    from values."""
    dens = [math.factorial(4 * m + 1 - k) * math.factorial(2 * m + 1 + k) for k in range(2 * m + 1)]
    common = math.lcm(*dens)
    acc = [0] * (6 * m + 3)
    for k in range(2 * m + 1):
        term = zp._convolve(zp.from_roots(range(4 * m + 1 - k)).vals, zp.from_roots(range(2 * m + 1 + k)).vals)
        c = (-1) ** k * math.comb(2 * m, k) * (common // dens[k])
        acc = [x + c * y for x, y in zip(acc, term)]
    return zp.RatPoly(acc, common)


def _fraction_lagrange(points):
    xs = [F(x) for x, _ in points]
    acc = []
    for i, (_, y) in enumerate(points):
        num = _fraction_from_roots([x for j, x in enumerate(xs) if j != i])
        acc = _fraction_add(acc, _fraction_scale(num, F(y) / _fraction_eval(num, xs[i])))
    return acc


# denominators mix small ones, coprime and shared ones, and ones above 2^64
rationals = st.builds(
    Fraction,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([1, 2, 3, 6, 7, 49, 2**64 + 13, 3**41, 10**30]),
)
# coefficient lists: the zero polynomial, negative and non-monic ones, mixed denominators
coeff_lists = st.lists(rationals, max_size=9).map(_trim)
short_lists = st.lists(rationals, max_size=4).map(_trim)


def _assert_normalised(p):
    assert all(type(v) is int for v in p.vals) and type(p.content) is int
    assert p.content > 0 and math.gcd(p.content, *p.vals) == 1
    assert not p.vals or p.vals[-1] != 0


# -- polynomial arithmetic ----------------------------------------------------


def test_poly_normalizes_trailing_zeros():
    assert zp.poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert zp.poly([0, 0]).is_zero()
    assert zp.poly([]).degree() == -1


def test_ratpoly_drops_trailing_zero():
    assert zp.RatPoly((1, 0), 1) == zp.poly([1])


def test_value_types_are_immutable():
    p = zp.poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    with pytest.raises(AttributeError):
        zp.singlet_curve(1).Cm = F(0)


def test_arithmetic_and_eval():
    a = zp.poly([1, 2])
    b = zp.poly([0, 1, 1])
    assert zp.add(a, b).coeffs == (F(1), F(3), F(1))
    assert zp.sub(a, a).is_zero()
    assert zp.mul(a, b).coeffs == (F(0), F(1), F(3), F(2))
    assert zp.scale(a, F(1, 2)).coeffs == (F(1, 2), F(1))
    assert a(3) == 7
    assert b(F(1, 2)) == F(3, 4)


def test_compose_and_shift():
    a = zp.poly([0, 0, 1])
    assert zp.shift_arg(a, 1).coeffs == (F(1), F(2), F(1))
    b = zp.poly([1, 1])
    assert zp.compose(a, b)(2) == 9


def test_from_roots():
    p = zp.from_roots([1, -1])
    assert p.coeffs == (F(-1), F(0), F(1))
    assert p(1) == 0 and p(-1) == 0


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists)
@example([], [F(1, 3), 2])
@example([F(5, 2**64 + 13)], [F(-7, 3**41)])
@example([F(1, 6), 0, F(-1, 10**30)], [0, F(2**69, 7)])
def test_mul_matches_fraction_kernel(a, b):
    assert zp.mul(zp.poly(a), zp.poly(b)).coeffs == tuple(_fraction_mul(a, b))
    assert zp.mul(zp.poly(b), zp.poly(a)).coeffs == tuple(_fraction_mul(a, b))


def _convolve_by_long_slices(va, vb):
    """zhupoly._convolve as one slice of vb's length per entry of va."""
    out = [0] * (len(va) + len(vb) - 1)
    for i, x in enumerate(va):
        if x:
            out[i : i + len(vb)] = [z + x * y for z, y in zip(out[i : i + len(vb)], vb)]
    return out


int_lists = st.lists(st.integers(-(2**70), 2**70) | st.just(0), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(int_lists, int_lists)
@example([5], [0, -3, 0, 2**65])
@example([0, 0, 7, 0], [-1, 1])
@example([1, -2, 0, 0, 3, -1, 0, 9], [0])
@example([-4, 0, 6], [2, 0, -2, 0, 0, 11])
def test_convolve_matches_long_slices(va, vb):
    assert zp._convolve(va, vb) == _convolve_by_long_slices(va, vb)
    assert zp._convolve(vb, va) == _convolve_by_long_slices(va, vb)


@settings(max_examples=150, deadline=None)
@given(st.lists(rationals, max_size=8))
@example([])
@example([0, 0, F(1, 2**64 + 13), F(-1, 2**64 + 13), F(5, 3)])
def test_from_roots_matches_fraction_kernel(roots):
    got = zp.from_roots(roots)
    assert got.coeffs == tuple(_fraction_from_roots(roots))
    assert got.coeff(len(roots)) == 1
    for r in roots:
        assert got(r) == 0


@settings(max_examples=150, deadline=None)
@given(coeff_lists, short_lists)
@example([], [F(1, 3), 2])
@example([F(2, 7), 1], [])
@example([F(5, 3)], [F(1, 6), 0, F(-1, 10**30)])
@example([F(1, 2), F(-3, 2**64 + 13), F(7, 3**41)], [F(-5, 49)])
@example([F(1, 6), 0, F(-1, 10**30), 3], [F(2**69, 7), F(1, 2)])
def test_compose_matches_fraction_kernel(a, b):
    assert zp.compose(zp.poly(a), zp.poly(b)).coeffs == tuple(_fraction_compose(a, b))


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, short_lists, rationals, st.integers(-50, 50).filter(bool))
@example([], [], [], F(0), 1)
@example([F(-3, 2), 0, F(5, 7)], [F(2, 3), F(-1, 6)], [F(1, 2), F(-2)], F(-7, 2**64 + 13), -3)
@example([F(-6, 49)], [F(6, 49)], [F(7)], F(1, 10**30), 7)
def test_ratpoly_matches_fraction_lists(a, b, c, t, k):
    pa, pb, pc = zp.poly(a), zp.poly(b), zp.poly(c)
    assert pa.coeffs == tuple(a) and pa.degree() == len(a) - 1 and pa.is_zero() == (not a)
    # equal polynomials have equal fields and hashes, however they are built
    for q in (
        zp.RatPoly([2 * v for v in pa.vals] + [0], 2 * pa.content),
        zp.poly([str(x) for x in a] + [0, 0]),
        zp.scale(zp.scale(pa, k), F(1, k)),
        zp.sub(zp.add(pa, pb), pb),
        zp.mul(pa, zp.poly([1])),
        zp.compose(pa, zp.poly([0, 1])),
    ):
        assert (q.vals, q.content) == (pa.vals, pa.content) and hash(q) == hash(pa)
    cases = [
        (zp.add(pa, pb), _fraction_add(a, b)),
        (zp.sub(pa, pb), _fraction_add(a, b, -1)),
        (zp.scale(pa, t), _fraction_scale(a, t)),
        (zp.mul(pa, pb), _fraction_mul(a, b)),
        (zp.compose(pa, pc), _fraction_compose(a, c)),
        (zp.shift_arg(pa, t), _fraction_compose(a, [t, F(1)])),
    ]
    for got, want in [(pa, a), (pb, b), *cases]:
        _assert_normalised(got)
        assert got.coeffs == tuple(want)
    assert pa(t) == _fraction_eval(a, t) and pb(k) == _fraction_eval(b, k)
    assert [pa.coeff(i) for i in range(-1, len(a) + 2)] == [F(0), *a, F(0), F(0)]


@settings(max_examples=50, deadline=None)
@given(coeff_lists.filter(bool))
def test_ratpoly_drops_trailing_zero_and_is_immutable(a):
    p = zp.poly(a)
    assert zp.RatPoly((*p.vals, 0), p.content) == p
    for field in ("vals", "content", "coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(p, field, ())
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert type(q) is zp.RatPoly and (q.vals, q.content) == (p.vals, p.content)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(rationals, rationals), max_size=6, unique_by=lambda xy: xy[0]))
@example([])
@example([(F(1, 3), 0)])
@example([(F(-1, 2**64 + 13), F(1, 3**41)), (F(0), F(2)), (F(7, 6), F(-5, 49))])
def test_lagrange_matches_fraction_kernel(points):
    assert zp.lagrange(points).coeffs == tuple(_fraction_lagrange(points))


@pytest.mark.parametrize("m", range(1, 5))
def test_gm_poly_matches_lagrange(m):
    points = [(t, gv.gm_value(m, t)) for t in range(4 * m + 2)]
    assert gv.gm_poly(m).coeffs == tuple(_fraction_lagrange(points))


def test_binom_poly():
    c2 = zp.binom_poly(2)
    assert c2.coeffs == (F(0), F(-1, 2), F(1, 2))
    assert zp.binom_poly(0).coeffs == (F(1),)
    assert zp.binom_poly(3, arg_shift=1)(4) == 10
    for t in range(8):
        assert zp.binom_poly(3)(t) == (t * (t - 1) * (t - 2)) // 6
    with pytest.raises(ValueError):
        zp.binom_poly(-1)


def test_lagrange():
    L = zp.lagrange([(0, 1), (1, 3), (2, 9)])
    assert L(0) == 1 and L(1) == 3 and L(2) == 9
    assert L.degree() == 2
    with pytest.raises(ValueError):
        zp.lagrange([(0, 1), (0, 2)])


# -- singlet curve -------------------------------------------------------------


def test_curve_constants_frozen():
    assert zp.singlet_curve(1).Cm == 6
    assert zp.singlet_curve(2).Cm == F(125, 18)


def test_curve_parametrization_m1_frozen():
    c = zp.singlet_curve(1)
    assert c.x_param.coeffs == (F(0), F(-1, 3), F(1, 6))
    assert c.y_param.coeffs == (F(0), F(1, 3), F(-1, 2), F(1, 6))


@pytest.mark.parametrize("m", range(1, 9))
def test_curve_identity_symbolic(m):
    c = zp.singlet_curve(m)
    residual = zp.sub(zp.mul(c.y_param, c.y_param), zp.compose(c.p_x, c.x_param))
    assert residual.is_zero()


def test_curve_identity_pointwise():
    c = zp.singlet_curve(1)
    for t in range(8):
        assert c.y_param(t) ** 2 - c.p_x(c.x_param(t)) == 0


def test_curve_rejects_bad_m():
    with pytest.raises(ValueError):
        zp.singlet_curve(0)


def test_wrong_constant_breaks_parametrization():
    c = zp.singlet_curve(1)
    wrong = zp.scale(c.p_x, 6)
    residual = zp.sub(zp.mul(c.y_param, c.y_param), zp.compose(wrong, c.x_param))
    assert not residual.is_zero()


# -- weight-root polynomial ----------------------------------------------------


def test_f1_frozen():
    assert zp.f_m_poly(1).coeffs == (F(0), F(0), F(-1, 12), F(-1, 3), F(1))


@pytest.mark.parametrize("m", range(1, 9))
def test_f_m_monic_and_alt_form(m):
    f = zp.f_m_poly(m)
    assert f.degree() == 3 * m + 1
    assert f.coeffs[-1] == 1
    assert zp.sub(f, zp.f_m_alt_poly(m)).is_zero()
    assert f(ch.central_data(m).h(2 * m + 1, 1)) == 0


@pytest.mark.parametrize("m", range(1, 13))
def test_weight_matches_central_data(m):
    cd = ch.central_data(m)
    for r in range(1, 6 * m + 2, 2):
        assert zp._weight(m, r) == cd.h(r, 1)


@pytest.mark.parametrize("m", range(1, 11))
def test_weight_symmetry(m):
    cd = ch.central_data(m)
    for i in range(2 * m + 1):
        assert cd.h(2 * i + 1, 1) == cd.h(2 * (2 * m - i) + 1, 1)


# -- binomial-sum polynomial -----------------------------------------------


def test_phi_values_frozen():
    phi = zp.phi_tilde(1)
    assert phi(4) == -2
    assert phi.degree() == 8
    for t in range(3):
        assert phi(t) == 0


@pytest.mark.parametrize("m", range(1, 7))
def test_phi_tilde_matches_fraction_sum(m):
    got = zp.phi_tilde(m)
    assert got.coeffs == tuple(_fraction_phi_tilde(m))
    assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("m", range(1, 13))
def test_phi_tilde_matches_convolved_sum(m):
    got = zp.phi_tilde(m)
    assert got == _convolved_phi_tilde(m)
    assert got.degree() == 6 * m + 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_phi_vanishes_low(m):
    phi = zp.phi_tilde(m)
    assert phi.degree() == 6 * m + 2
    for t in range(2 * m + 1):
        assert phi(t) == 0


def test_constants_frozen():
    assert zp.a_bar_constant(1) == F(-2, 5)
    assert zp.b_constant(1) == F(-9, 10)


@pytest.mark.parametrize("m", range(1, 6))
def test_verify_phi_identities(m):
    reports = zp.verify_phi_identities(m)
    assert [r.identity_id for r in reports] == ["phi-binom-product", "phi-fm-composition"]
    for r in reports:
        assert r.status == "pass"
        assert r.params == {"m": m}


def test_phi_build_is_timed_by_the_first_report(monkeypatch):
    # phi_tilde used to run before either report's timer started
    build, calls = zp.phi_tilde, []

    def slow(m):
        calls.append(m)
        time.sleep(0.03)
        return build(m)

    monkeypatch.setattr(zp, "phi_tilde", slow)
    first, second = zp.verify_phi_identities(2)
    assert first.runtime_ms >= 30
    assert calls == [2]
    assert first.status == second.status == "pass"


def testpoly_report_mismatch():
    rep = zp.poly_report("x", {}, lambda: (zp.poly([1, 2]), zp.poly([1, 3])))
    assert rep.status == "fail"
    assert rep.first_mismatch == (F(1), F(2), F(3))


# -- interpolation and signs ---------------------------------------------------


@pytest.mark.parametrize("m", range(1, 11))
def test_interpolation_degree(m):
    assert zp.interpolation_L(m).degree() == m - 1


def test_interpolation_m1_m2_values():
    assert zp.interpolation_L(1).coeffs == (F(1),)
    L2 = zp.interpolation_L(2)
    cd = ch.central_data(2)
    assert L2(cd.h(11, 1)) == 1
    assert L2(cd.h(13, 1)) == 6


def test_r_poly_m1():
    assert zp.r_poly(1).coeffs == (F(1),)


@pytest.mark.parametrize("m", range(1, 9))
def test_r_at_i_is_the_interpolant_at_the_weight(m):
    # h^{2i+1,1} = x_param(i), so verify_s_properties reads L(h^{2i+1,1}) as r(i)
    r, L, cd = zp.r_poly(m), zp.interpolation_L(m), ch.central_data(m)
    assert [r(i) for i in range(3 * m + 1)] == [L(cd.h(2 * i + 1, 1)) for i in range(3 * m + 1)]


def test_s_values_m1_frozen():
    r, den = zp.r_poly(1), zp._s_denominator(1)
    assert r(0) / den(0) == F(-1, 3)
    assert r(1) / den(1) == F(-1, 4)
    # recursion at t=1: s(1)*2*4 = 2*1*3*s(0)
    assert (r(1) / den(1)) * 2 * 4 == 2 * 1 * 3 * (r(0) / den(0))


@pytest.mark.parametrize("m", range(1, 11))
def test_verify_s_properties(m):
    rep = zp.verify_s_properties(m)
    assert rep.status == "pass"
    assert rep.identity_id == "s-properties"
    assert rep.params == {"m": m}


# The body verify_s_properties had before it checked the recursion at
# points: the recursion with its denominators cleared, as two expanded
# polynomials compared coefficient by coefficient.
def _polynomial_s_properties(m):
    r, den = zp.r_poly(m), zp._s_denominator(m)
    r1, den1 = zp.shift_arg(r, -1), zp.shift_arg(den, -1)
    r2, den2 = zp.shift_arg(r, -2), zp.shift_arg(den, -2)
    lhs_w = zp.mul(zp.poly([m, 1]), zp.mul(zp.poly([2 * m + 1, -1]), zp.poly([2 * m + 1, -1])))
    mid_w = zp.scale(zp.mul(zp.poly([m + 1, -1]), zp.poly([2 * m * m - 2, 2 * m + 2, -1])), 2)
    last_w = zp.mul(zp.mul(zp.poly([-1, 1]), zp.poly([-1, 1])), zp.poly([3 * m + 2, -1]))
    lhs = zp.mul(zp.mul(lhs_w, r), zp.mul(den1, den2))
    rhs = zp.add(zp.mul(zp.mul(mid_w, r1), zp.mul(den, den2)), zp.mul(zp.mul(last_w, r2), zp.mul(den, den1)))
    order = max(lhs.degree(), rhs.degree(), 0)
    mismatch = zp._first_difference(lhs, rhs)
    if mismatch is None:
        for t in (0, 1):
            if not r(t) / den(t) < 0:
                mismatch = (F(t), r(t) / den(t), F(0))
                break
    if mismatch is None:
        mismatch = next(((zp._weight(m, 2 * i + 1), F(0), F(0)) for i in range(m + 1) if r(i) == 0), None)
    return ("pass" if mismatch is None else "fail"), F(order), mismatch


def _recursion_sides(m, r, t):
    """(lhs, rhs) of the recursion at t for s = r/den."""
    den = zp._s_denominator(m)
    s = [r(t - j) / den(t - j) for j in range(3)]
    lhs = s[0] * (m + t) * (2 * m + 1 - t) ** 2
    rhs = 2 * (m + 1 - t) * (2 * m * m + 2 * t * m - 2 - t * t + 2 * t) * s[1] + (t - 1) ** 2 * (3 * m + 2 - t) * s[2]
    return lhs, rhs


@pytest.mark.parametrize("m", range(1, 13))
def test_s_properties_agrees_with_the_polynomial_oracle(m):
    rep = zp.verify_s_properties(m)
    assert (rep.status, rep.order, rep.first_mismatch) == _polynomial_s_properties(m) == ("pass", 6 * m + 1, None)


@pytest.mark.parametrize("m", range(1, 13))
def test_s_properties_fails_when_r_moves(monkeypatch, m):
    # r + t breaks the recursion at every m; r + 1 would be no fault at
    # m = 1, where r is constant and the recursion is linear in s
    r_poly = zp.r_poly
    monkeypatch.setattr(zp, "r_poly", lambda m: zp.add(r_poly(m), zp.poly([0, 1])))
    r = zp.r_poly(m)
    rep = zp.verify_s_properties(m)
    status, order, _ = _polynomial_s_properties(m)
    assert (rep.status, rep.order) == (status, order) == ("fail", 3 + r.degree() + 4 * m)
    lhs, rhs = _recursion_sides(m, r, 3 * m + 3)
    assert lhs != rhs
    assert rep.first_mismatch == (3 * m + 3, lhs, rhs)


@pytest.mark.parametrize("m", range(1, 13))
def test_s_properties_negated_r_fails_only_the_sign(monkeypatch, m):
    # the recursion is linear in s, so -s satisfies it; s(0) > 0 fails the sign check
    r_poly = zp.r_poly
    monkeypatch.setattr(zp, "r_poly", lambda m: zp.scale(r_poly(m), -1))
    r, den = zp.r_poly(m), zp._s_denominator(m)
    assert all(lhs == rhs for lhs, rhs in (_recursion_sides(m, r, t) for t in range(3 * m + 3, 9 * m + 5)))
    rep = zp.verify_s_properties(m)
    want = ("fail", F(6 * m + 1), (F(0), r(0) / den(0), F(0)))
    assert (rep.status, rep.order, rep.first_mismatch) == _polynomial_s_properties(m) == want
    assert r(0) / den(0) > 0


def test_s_properties_expands_no_polynomial(monkeypatch):
    calls = []
    for name in ("shift_arg", "mul"):
        original = getattr(zp, name)
        monkeypatch.setattr(zp, name, lambda *args, _name=name, _f=original: calls.append(_name) or _f(*args))
    assert zp.verify_s_properties(4).status == "pass"
    assert calls == []
    # the spies see the oracle's calls
    _polynomial_s_properties(4)
    assert calls.count("shift_arg") == 4 and calls.count("mul") == 14


@pytest.mark.parametrize("m", [1, 3])
def test_zhu_suite_is_phi_identities_then_s_properties(m):
    reports = zp.verify_zhu_suite(m)
    assert [r.identity_id for r in reports] == ["phi-binom-product", "phi-fm-composition", "s-properties"]
    assert all(r.status == "pass" and r.params == {"m": m} for r in reports)


def test_zhupoly_rejects_bad_m():
    for fn in (zp.f_m_poly, zp.phi_tilde, zp.verify_phi_identities,
               zp.interpolation_L, zp.verify_s_properties, zp.verify_zhu_suite):
        with pytest.raises(ValueError):
            fn(0)
