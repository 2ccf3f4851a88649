"""Frozen expansions and identity-suite checks for the modular building blocks."""

import io
import math
import re
import sys
from collections import Counter
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swqseries.forms as forms
import swqseries.qseries as qs
from swqseries import cli
from swqseries.characters import F2_OVER_ETA, F_OVER_ETA
from swqseries.forms import (
    ThetaForm,
    ThetaParams,
    _suite,
    dtheta,
    eta,
    eta_quotient,
    eta_scaled,
    theta,
    theta_form,
    verify_form_identities,
    weber,
)

from conftest import assert_exact_to


def series_terms(s):
    return list(s.terms())


class TestEta:
    def test_order_three_expansion(self):
        assert series_terms(eta(3)) == [
            (F(1, 24), F(1)),
            (F(25, 24), F(-1)),
            (F(49, 24), F(-1)),
        ]

    def test_pentagonal_coefficient(self):
        assert eta(6).coeff(F(5) + F(1, 24)) == 1

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            eta(0)

    def test_theta_difference_equals_product(self):
        # Euler's pentagonal theorem, field by field, against the product
        # eta was built from before
        for n in (F(1, 48), F(1), F(61, 2), F(77, 3), F(1605)):
            assert eta(n) == qs.truncate(qs.shift(qs.pochhammer(1, 1, -1, None, n), F(1, 24)), n), n


class TestWeber:
    def test_f_expansion(self):
        # (1+q^{1/2})(1+q^{3/2})(1+q^{5/2})... shifted by -1/48
        got = series_terms(weber("f", 2))
        expected = [
            (F(-1, 48), F(1)),
            (F(1, 2) - F(1, 48), F(1)),
            (F(3, 2) - F(1, 48), F(1)),
            (F(2) - F(1, 48), F(1)),
        ]
        assert got == expected

    def test_f1_expansion(self):
        got = series_terms(weber("f1", 2))
        expected = [
            (F(-1, 48), F(1)),
            (F(1, 2) - F(1, 48), F(-1)),
            (F(3, 2) - F(1, 48), F(-1)),
            (F(2) - F(1, 48), F(1)),
        ]
        assert got == expected

    def test_product_of_all_three_is_one(self):
        n = F(10)
        prod = qs.mul(qs.mul(weber("f", n), weber("f1", n)), weber("f2", n))
        assert qs.compare(prod, qs.one(n), 9) is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            weber("g", 5)


class TestTheta:
    def test_level_three_half_j0(self):
        assert series_terms(theta(ThetaParams(0, F(3, 2)), 7)) == [
            (F(0), F(1)),
            (F(3, 2), F(2)),
            (F(6), F(2)),
        ]

    def test_level_three_half_j1(self):
        assert series_terms(theta(ThetaParams(1, F(3, 2)), 3)) == [
            (F(1, 6), F(1)),
            (F(2, 3), F(1)),
            (F(8, 3), F(1)),
        ]

    def test_weighted_level_three_half_j1(self):
        assert series_terms(dtheta(ThetaParams(1, F(3, 2)), 3)) == [
            (F(1, 6), F(1)),
            (F(2, 3), F(-2)),
            (F(8, 3), F(4)),
        ]

    def test_weighted_j0_vanishes(self):
        for k in (F(3, 2), F(5, 2), F(3), F(6)):
            assert dtheta(ThetaParams(0, k), 12).is_zero()

    def test_weighted_odd_in_j(self):
        a = dtheta(ThetaParams(1, F(3, 2)), 10)
        b = dtheta(ThetaParams(-1, F(3, 2)), 10)
        assert qs.compare(a, qs.scale(b, -1), 10) is None

    def test_periodicity(self):
        for j, k in ((1, F(3, 2)), (2, F(5, 2)), (0, F(3))):
            a = theta(ThetaParams(j, k), 10)
            b = theta(ThetaParams(j + int(2 * k), k), 10)
            assert qs.compare(a, b, 10) is None

    def test_coefficients_are_nonnegative_integers(self):
        for j in range(-3, 4):
            for k in (F(1, 2), F(3, 2), F(2), F(7, 2)):
                s = theta(ThetaParams(j, k), 15)
                for _, c in s.terms():
                    assert c.denominator == 1 and c >= 1

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            ThetaParams(1, F(-3, 2))
        with pytest.raises(ValueError, match="^k must be an integer or half-integer$"):
            ThetaParams(1, F(1, 3))

    def test_params_coerce_k_and_are_immutable(self):
        a, b = ThetaParams(0, 1), ThetaParams(0, F(1))
        assert type(a.k) is F
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.k = F(2)


class TestEtaScaled:
    def test_double_argument(self):
        got = eta_scaled(2, 5)
        expected = [(F(1, 12), F(1)), (F(25, 12), F(-1)), (F(49, 12), F(-1))]
        assert series_terms(got) == expected

    def test_half_argument_leading(self):
        got = eta_scaled(F(1, 2), 2)
        assert got.leading() == (F(1, 48), F(1))
        assert got.coeff(F(1, 2) + F(1, 48)) == -1


class TestIdentitySuite:
    def test_all_pass_at_order_20(self):
        reports = verify_form_identities(20)
        assert len(reports) >= 8
        for r in reports:
            assert r.status == "pass", (r.identity_id, r.params, r.first_mismatch)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            verify_form_identities(5)

    def test_perturbed_eta_fails(self):
        # dTheta f^2 against eta^3 with one eta moved by 2 q^{25/24}: the move
        # meets eta^2's lead q^{1/12} first, at q^{9/8}
        n = F(10)
        f = weber("f", n)
        lhs = qs.mul(dtheta(ThetaParams(1, F(3, 2)), n + F(1, 24)), qs.mul(f, f))
        e = eta(n)
        bad = qs.add(e, qs.make_series([(F(25, 24), 2)], n))
        rep = qs.compare_report("dtheta-eta-weber-cube", {}, lambda: (lhs, qs.mul(qs.mul(bad, e), e)), n)
        assert rep.status == "fail"
        assert rep.first_mismatch == (F(9, 8), lhs.coeff(F(9, 8)), lhs.coeff(F(9, 8)) + 2)

    @pytest.mark.parametrize("order", [10, F(21, 2), 20])
    def test_term_planted_in_dtheta_fails_the_cube_there(self, monkeypatch, order):
        # c q^e in dTheta_{1,3/2} shows in dTheta f^2 first at q^{e - 1/24},
        # times f^2's leading 1
        build, e = forms.dtheta, F(5)

        def planted(p, n):
            s = build(p, n)
            return qs.add(s, qs.make_series([(e, 3)], s.order)) if p == ThetaParams(1, F(3, 2)) else s

        monkeypatch.setattr(forms, "dtheta", planted)
        (rep,) = [r for r in verify_form_identities(order) if r.identity_id == "dtheta-eta-weber-cube"]
        assert rep.status == "fail"
        x, lhs, rhs = rep.first_mismatch
        assert (x, lhs - rhs) == (e - F(1, 24), 3)

    def test_invert_sees_only_sparse_operands_in_suite_all(self, monkeypatch):
        # dTheta_{1,3/2} = eta^3/f^2 is checked without inverting the dense f f
        # (801 nonzero slots at order 400), and odd-even-split and
        # eta-half-inverse without inverting at all: every inverse is of eta's
        # O(sqrt(order)) terms, taken inside eta_quotient
        quotient = forms.eta_quotient.__wrapped__
        invert, sizes, callers = qs.invert, [], set()

        def spy(a):
            sizes.append(len(a.vals) - a.vals.count(0))
            callers.add(sys._getframe(1).f_code)
            return invert(a)

        monkeypatch.setattr(qs, "invert", spy)
        assert cli.run(cli.RunConfig("verify", m=2, order=F(400), suite="all"), io.StringIO()) == 1
        assert sizes and max(sizes) <= 60
        assert callers == {quotient.__code__}


# -- the table and the one-range enumerator against their earlier bodies ------


def _branch_weber(which, order):
    """weber as three if/elif branches, truncated to the order."""
    order_f = F(order)
    if which == "f":
        lead = F(-1, 48)
        prod = qs.pochhammer(F(1, 2), 1, 1, None, order_f - lead)
    elif which == "f1":
        lead = F(-1, 48)
        prod = qs.pochhammer(F(1, 2), 1, -1, None, order_f - lead)
    elif which == "f2":
        lead = F(1, 24)
        prod = qs.pochhammer(1, 1, 1, None, order_f - lead)
    else:
        raise ValueError(f"unknown Weber function {which!r}")
    if order_f <= lead:
        raise ValueError("order must exceed the leading exponent")
    return qs.truncate(qs.shift(prod, lead), order_f)


_LEAD = {"f": F(-1, 48), "f1": F(-1, 48), "f2": F(1, 24)}


@pytest.mark.parametrize("which", sorted(_LEAD))
def test_weber_table_matches_branches(which):
    for order in (F(1, 20), F(1), F(7, 2), F(17), F(121, 3)):
        assert weber(which, order) == _branch_weber(which, order)
    for order in (_LEAD[which], _LEAD[which] - 3):
        for build in (_branch_weber, weber):
            with pytest.raises(ValueError, match="^order must exceed the leading exponent$"):
                build(which, order)


def test_weber_unknown_name_reported_before_order():
    for order in (F(5), F(-5)):
        for build in (_branch_weber, weber):
            with pytest.raises(ValueError, match="^unknown Weber function 'g'$"):
                build("g", order)


def _two_loop_theta_sum(p, order, weighted):
    """_theta_sum as two while loops over n >= 0 and n < 0."""
    K = int(2 * F(p.k))
    denom = 2 * K
    coeffs = {}

    def visit(arg):
        w = F(arg) if weighted else F(1)
        coeffs[arg * arg] = coeffs.get(arg * arg, F(0)) + w

    limit = order * denom
    n = 0
    while True:
        arg = K * n + p.j
        if arg * arg > limit and arg >= 0:
            break
        if arg * arg <= limit:
            visit(arg)
        n += 1
    n = -1
    while True:
        arg = K * n + p.j
        if arg * arg > limit and arg <= 0:
            break
        if arg * arg <= limit:
            visit(arg)
        n -= 1
    return qs._from_coeffs(denom, coeffs, order)


@pytest.mark.parametrize("k", [F(n, 2) for n in range(1, 21)])
def test_theta_enumerator_matches_two_loops(k):
    K = int(2 * k)
    for j in range(-K, 2 * K + 1):
        p = ThetaParams(j, k)
        for order in (F(-1), F(0), F(7), F(23, 2), F(40, 3)):
            assert theta(p, order) == _two_loop_theta_sum(p, order, False)
            assert dtheta(p, order) == _two_loop_theta_sum(p, order, True)


# -- the builders against their margin-and-truncate bodies --------------------


def _margin_eta_scaled(r, order):
    """eta_scaled with eta built one past order / r and truncated back."""
    r_f, order_f = F(r), F(order)
    return qs.truncate(qs.substitute_power(eta(order_f / r_f + 1), r_f), order_f)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(1, 2880).map(lambda k: F(k, 48)), st.just(F(1, 1000))))
@example(F(60))
def test_builders_match_margin_bodies(order):
    pairs = [(r, eta_scaled(r, order), _margin_eta_scaled(r, order)) for r in (F(1, 2), 1, 2, 3)]
    pairs += [(which, weber(which, order), _branch_weber(which, order)) for which in _LEAD if order > _LEAD[which]]
    for name, got, want in pairs:
        assert got == want, name
        assert got.order == order
        assert F(got.base + (len(got.vals) - 1) * got.stride, got.denom) <= order


@pytest.mark.parametrize("order", [F(1, 48), F(1), F(10), F(21, 2), F(77, 3), F(50), F(400)])
def test_identity_sides_are_exact_to_the_order(order):
    # each side takes its factors' orders from their leads, and compare
    # needs both sides exact to the order it checks
    for identity_id, params, build in _suite(order):
        lhs, rhs = build()
        assert min(lhs.order, rhs.order) >= order, (identity_id, params)


# -- a term planted at the comparison seam, in every compare-based report ----

_SEAM_ORDER = F(21, 2)
_FAILS_CLEAN = {"warnaar-v2-p=5-lambda=5-sigma=0", "warnaar-v2-p=5-lambda=5-sigma=1"}  # lambda = p, by design


def _report_id(identity_id, params):
    return "-".join([identity_id, *(f"{k}={v}" for k, v in params.items())])


def _planted_run():
    """Report id -> (suite, clean report, planted report, whether e lies in
    the window, expected first mismatch) for every report that comes from
    `qs.compare_report` when each row of `cli._SUITES` runs at m = 2,
    order 21/2.  Each pair of sides is built once and compared as built,
    then with 1 added to the right side at e, the last exponent of its grid
    in the window (Z for the six dtheta-half-level rows whose sides are
    both zero)."""
    seen, compare_report, config = {}, qs.compare_report, cli.RunConfig("verify", m=2, order=_SEAM_ORDER)

    def planted(identity_id, params, build, order):
        lhs, rhs = build()
        e = F(rhs.base + (math.floor(order * rhs.denom) - rhs.base) // rhs.stride * rhs.stride, rhs.denom)
        moved = qs.add(rhs, qs.make_series([(e, 1)], rhs.order))
        clean = compare_report(identity_id, params, lambda: (lhs, rhs), order)
        report = compare_report(identity_id, params, lambda: (lhs, moved), order)
        in_window = order - F(rhs.stride, rhs.denom) < e <= order
        seen[_report_id(identity_id, params)] = (suite, clean, report, in_window, (e, lhs.coeff(e), rhs.coeff(e) + 1))
        return report

    qs.compare_report = planted
    try:
        for suite in cli._SUITES:
            cli._suite_reports(suite, config)
    finally:
        qs.compare_report = compare_report
    return seen


_PLANTED = _planted_run()


@pytest.mark.parametrize("key", list(_PLANTED))
def test_term_planted_on_the_right_fails_every_identity(key):
    _, clean, report, in_window, mismatch = _PLANTED[key]
    assert in_window
    assert clean.status == ("fail" if key in _FAILS_CLEAN else "pass")
    assert (report.identity_id, report.params, report.status) == (clean.identity_id, clean.params, "fail")
    if clean.status == "pass":
        assert report.first_mismatch == mismatch


def test_the_seam_sees_every_compare_based_report():
    # the 48 forms rows and 41 more: 24 Warnaar sums, 8 Durfee and 4 other
    # aux sums, 3 decompositions and 2 pair sums; fermionic-char and the
    # laws of zhu, gm and numeric come from run_check alone
    suites = Counter(suite for suite, *_ in _PLANTED.values())
    assert suites == {"forms": 48, "characters": 5, "warnaar": 24, "aux": 12}
    forms_rows = [key for key, (suite, *_) in _PLANTED.items() if suite == "forms"]
    assert forms_rows == [_report_id(identity_id, params) for identity_id, params, _ in _suite(_SEAM_ORDER)]


# -- the inverse-free pairs against their inverting bodies --------------------


def _inverting_odd_even_split(order):
    """odd-even-split as the quotient identity, with two inverses."""
    lhs = qs.mul(qs.pochhammer(F(1, 2), 1, 1, None, order), qs.invert(qs.pochhammer(1, 1, -1, None, order)))
    rhs = qs.invert(qs.mul(qs.pochhammer(F(1, 2), F(1, 2), -1, None, order), qs.pochhammer(1, 1, 1, None, order)))
    return lhs, rhs


def _inverting_eta_half_inverse(order):
    """eta-half-inverse with 1/eta inverted by hand."""
    n = order + F(1, 16)
    rhs = qs.mul(qs.mul(forms.weber("f", order), qs.invert(eta(n))), forms.weber("f2", n))
    return eta_quotient(((F(1, 2), -1),), order), rhs


def _outcome(lhs, rhs, order):
    """compare's first mismatch as (exponent, lhs - rhs), or None."""
    found = qs.compare(lhs, rhs, order)
    return found and (found[0], found[1] - found[2])


@pytest.mark.parametrize("order", [F(10), F(21, 2), F(50), F(400)])
def test_inverse_free_pairs_compare_as_their_inverting_bodies(order):
    pairs = [
        (forms._pair_odd_even_split, _inverting_odd_even_split),
        (forms._pair_eta_half_inverse, _inverting_eta_half_inverse),
    ]
    for new, old in pairs:
        assert _outcome(*new(order), order) is _outcome(*old(order), order) is None
    # 1/eta from eta_quotient is the hand inverse where both claim it
    assert forms._pair_eta_half_inverse(order) == _inverting_eta_half_inverse(order)
    # a term planted in prod(1+q^{n-1/2}), and one in f, each shows at its
    # exponent with its coefficient, in the new and the inverting bodies alike
    poch, weber_ = qs.pochhammer, forms.weber
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qs, "pochhammer", lambda *a: qs.add(poch(*a), qs.make_series([(F(7, 2), 3)], a[-1]))
                   if a[:3] == (F(1, 2), 1, 1) else poch(*a))
        for build in (forms._pair_odd_even_split, _inverting_odd_even_split):
            assert _outcome(*build(order), order) == (F(7, 2), 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forms, "weber", lambda w, n: qs.add(weber_(w, n), qs.make_series([(F(23, 48), -2)], n))
                   if w == "f" else weber_(w, n))
        for build in (forms._pair_eta_half_inverse, _inverting_eta_half_inverse):
            assert _outcome(*build(order), order) == (F(23, 48), 2)


@pytest.mark.parametrize(
    "powers, message",
    [
        ((), "powers must hold a pair (d, r_d) with r_d nonzero"),
        (((1, 0),), "powers must hold a pair (d, r_d) with r_d nonzero"),
        (((1, 0), (2, 0)), "powers must hold a pair (d, r_d) with r_d nonzero"),
        (((0, 1),), "powers must hold pairs (d, r_d) with d > 0, got (0, 1)"),
        (((1, 1), (-2, 1)), "powers must hold pairs (d, r_d) with d > 0, got (-2, 1)"),
        (((1, F(1, 2)),), "powers must hold pairs (d, r_d) with r_d an int, got (1, Fraction(1, 2))"),
    ],
)
def test_eta_quotient_rejects_malformed_powers(powers, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eta_quotient(powers, 5)


# -- ThetaForm: one evaluator against its margin-and-truncate body -----------


def _margin_theta_form(form, order):
    """theta_form with both factors built 2 past the order (every eta
    quotient drawn below leads within 3/4 of q^0), multiplied, shifted and
    truncated back; every theta and dTheta is built, weight 0 or not."""
    n = F(order) - form.shift + 2
    total = qs.make_series([], n)
    for j, a, b in form.weights:
        p = ThetaParams(j, form.k)
        total = qs.add(total, qs.add(qs.scale(theta(p, n), a), qs.scale(dtheta(p, n), b)))
    if form.powers:
        total = qs.mul(eta_quotient(form.powers, n), total)
    return qs.truncate(qs.shift(total, form.shift), order)


_POWERS = st.one_of(
    st.just(()),
    st.lists(st.tuples(st.sampled_from([F(1, 2), 1, 2, 3]), st.integers(-2, 2)), min_size=1, max_size=3)
    .map(tuple)
    .filter(lambda ps: any(r for _, r in ps)),
)
_WEIGHTS = st.sampled_from([F(0), F(0), F(1), F(-1), F(2, 5), F(-1, 3)])


@st.composite
def _theta_forms(draw):
    k = F(draw(st.integers(1, 12)), 2)
    K = int(2 * k)
    weights = draw(st.lists(st.tuples(st.integers(-K, 2 * K), _WEIGHTS, _WEIGHTS), max_size=3))
    return ThetaForm(F(draw(st.integers(-96, 96)), 48), draw(_POWERS), k, tuple(weights))


@settings(max_examples=200, deadline=None)
@given(_theta_forms(), st.integers(-96, 1440).map(lambda k: F(k, 48)))
@example(ThetaForm(0, F_OVER_ETA, F(3, 2), ((1, 0, 1),)), F(-1))
@example(ThetaForm(0, F_OVER_ETA, F(5, 2), ((2, F(1, 5), F(2, 5)),)), F(0))
@example(ThetaForm(0, F2_OVER_ETA, 10, ((4, F(1, 5), F(1, 5)), (6, F(-1, 5), F(-1, 5)))), F(77, 3))
@example(ThetaForm(F(1, 3), (), F(5, 2), ((2, 0, 0), (1, F(3, 5), F(-2, 5)))), F(61, 2))
# warnaar variant 2, p = 3, lam = 1, sigma = 1: b = -2, and the weight
# (p - lam) + b of the n = 0 term is 0, so the theta sum has no q^0 term
@example(ThetaForm(F(1, 24) - F(1, 3), ((1, -1),), 3, ((-2, F(2, 3), F(1, 3)),)), F(10))
@example(ThetaForm(F(1, 24) - F(1, 3), ((1, -1),), 3, ((-2, F(2, 3), F(1, 3)),)), F(-1, 48))
def test_theta_form_matches_margin_body(form, order):
    got = theta_form(form, order)
    assert got == _margin_theta_form(form, order)
    assert_exact_to(got, order)


def test_theta_forms_share_the_quotient_within_one_unit_of_order():
    # the Warnaar single sums at p = 5, b = 1, 2, 3: 1/eta to order
    # 50 - 1/24 + b^2/20, each rounded up to 51, is built once
    eta_quotient.cache_clear()
    for b in (1, 2, 3):
        theta_form(ThetaForm(F(1, 24) - F(b * b, 20), ((1, -1),), 5, ((b, 1, 0),)), 50)
    assert eta_quotient.cache_info().misses == 1


def _scale_add_theta_form(form, order):
    """theta_form as it was before the one weighted pass: each Theta and
    dTheta of nonzero weight built alone, scaled and added."""

    def thetas(n):
        parts = [qs.scale(build(ThetaParams(j, form.k), n), w)
                 for j, a, b in form.weights for w, build in ((a, theta), (b, dtheta)) if w]
        return reduce(qs.add, parts) if parts else qs.make_series([], n)

    return forms.eta_product(form.shift, form.powers, thetas, order)


@settings(max_examples=200, deadline=None)
@given(_theta_forms(), st.integers(-96, 1440).map(lambda k: F(k, 48)))
@example(ThetaForm(0, F_OVER_ETA, F(5, 2), ((1, 0, 1), (2, 3, 0), (0, 0, 0))), F(10))
@example(ThetaForm(F(1, 3), (), F(5, 2), ((2, 0, 0), (1, F(3, 5), F(-2, 5)), (1, F(-3, 5), F(2, 5)))), F(61, 2))
@example(ThetaForm(0, (), 6, ((1, 1, 0), (5, -1, 0))), F(50))
def test_theta_form_builds_no_single_theta(form, order):
    # one weighted pass over every (j, a_j, b_j), equal field by field to
    # the scaled and added single thetas, zero and rational weights alike
    built = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("theta", "dtheta"):
            mp.setattr(forms, name, lambda *args, name=name: built.append(name))
        got = theta_form(form, order)
    assert built == []
    assert tuple(got) == tuple(_scale_add_theta_form(form, order))


# -- eta_product: the order rule against its margin body ----------------------


def _margin_eta_product(shift, powers, inner, order):
    """eta_product with both factors built 2 past the order (every
    quotient drawn below leads within 1/2 of q^0), multiplied, shifted
    and truncated back."""
    n = F(order) - shift + 2
    total = inner(n)
    if powers:
        total = qs.mul(eta_quotient(powers, n), total)
    return qs.truncate(qs.shift(total, shift), order)


# every quotient the package hands to eta_product or theta_form, and none
_PACKAGE_POWERS = [
    (), F_OVER_ETA, F2_OVER_ETA, ((1, 1), (2, -1)), ((F(1, 2), -1),), ((1, -1),), ((2, 1), (F(1, 2), 1)),
]


@st.composite
def _inner_series(draw):
    """A builder inner(n) of a series exact to n with no term below q^0 and
    none past n: sparse terms at exponents k / den >= 0, 1, or a theta sum."""
    den = draw(st.sampled_from([1, 2, 16, 40]))
    terms = draw(st.dictionaries(
        st.integers(0, 40 * den).map(lambda k: F(k, den)), st.sampled_from([F(1), F(-1), F(3, 7)]), max_size=4))

    def sparse(n):
        return qs.make_series([(e, c) for e, c in terms.items() if e <= n], n)

    return draw(st.sampled_from([sparse, qs.one, lambda n: dtheta(ThetaParams(1, F(5, 2)), n)]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-96, 96).map(lambda k: F(k, 48)),
    st.sampled_from(_PACKAGE_POWERS),
    _inner_series(),
    st.one_of(st.integers(-2, 200), st.integers(-96, 2880).map(lambda k: F(k, 48))),
)
@example(F(1, 24), ((1, 1), (2, -1)), qs.one, F(1, 48))
@example(F(0), (), qs.one, 0)
# found by Hypothesis: qs.one below q^0 (here at -1/48) must hold no term past its order
@example(F(1, 48), (), qs.one, 0)
@example(F(-7, 48), F_OVER_ETA, qs.one, F(61, 2))
def test_eta_product_matches_margin_body(shift, powers, inner, order):
    asked = []

    def recorded(n):
        asked.append(n)
        return inner(n)

    got = forms.eta_product(shift, powers, recorded, order)
    assert got == _margin_eta_product(shift, powers, inner, order)
    assert_exact_to(got, order)
    # the inner order is exact, a Fraction even with no quotient
    assert [type(n) for n in asked] == [F]
