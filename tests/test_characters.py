"""Frozen expansions, structural invariants, and suite checks for the
module characters."""

import inspect
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swqseries.qseries as qs
from swqseries import characters, cli, forms, numeric
from swqseries.characters import (
    CentralData,
    SWModuleId,
    all_module_ids,
    central_data,
    char_by_decomposition,
    f2_over_eta,
    f_over_eta,
    module_form,
    module_weight,
    ns_irr_char,
    superchar_leading_shift,
    sw_char,
    sw_superchar_theta,
    verify_character_suite,
)
from swqseries.forms import ThetaParams, dtheta, theta, theta_form

from conftest import assert_exact_to


class TestCentralData:
    def test_m1(self):
        cd = central_data(1)
        assert cd.c == F(-5, 2)
        assert cd.h(1, 1) == 0
        assert cd.h(3, 1) == F(-1, 6)
        assert cd.h(5, 1) == 0
        assert cd.h(7, 1) == F(1, 2)

    def test_m2_weight(self):
        assert central_data(2).h(5, 1) == F(-2, 5)

    def test_weight_closed_form_and_symmetry(self):
        for m in (1, 2, 3):
            cd = central_data(m)
            for i in range(2 * m + 1):
                assert cd.h(2 * i + 1, 1) == F(i * (i - 2 * m), 2 * (2 * m + 1))
                assert cd.h(2 * i + 1, 1) == cd.h(2 * (2 * m - i) + 1, 1)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            central_data(0)

    def test_two_immutable_fields(self):
        a = central_data(2)
        assert a == CentralData(2, F(-81, 10)) and hash(a) == hash(CentralData(2, a.c))
        with pytest.raises(AttributeError):
            a.c = F(0)

    def test_offset_matches_central_charge(self):
        # m^2/(2(2m+1)) - 1/16 = -c/24
        for m in (1, 2, 3, 4):
            cd = central_data(m)
            assert F(m * m, 2 * (2 * m + 1)) - F(1, 16) == -cd.c / 24


class TestModuleIds:
    def test_count_and_labels(self):
        ids = all_module_ids(2)
        assert [x.label for x in ids] == ["lambda:1", "lambda:2", "lambda:3", "pi:1", "pi:2"]

    def test_i_parameter(self):
        assert SWModuleId(2, "lambda", 3).i == 2
        assert SWModuleId(2, "pi", 2).i == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SWModuleId(1, "lambda", 3)
        with pytest.raises(ValueError, match="^pi index out of range$"):
            SWModuleId(1, "pi", 2)
        with pytest.raises(ValueError):
            SWModuleId(1, "sigma", 1)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SWModuleId(2, "pi", 1).index = 2


class TestNsIrrChar:
    def test_vacuum_leading(self):
        s = ns_irr_char(1, 0, 0, 10)
        assert s.leading() == (F(5, 48), F(1))

    def test_negative_leading_exponent(self):
        s = ns_irr_char(1, 1, 0, 10)
        assert s.leading() == (F(-1, 16), F(1))

    def test_coefficients_nonnegative_integers(self):
        for m, i, n in ((1, 0, 0), (1, 1, 1), (2, 1, 0), (2, 2, 2)):
            s = ns_irr_char(m, i, n, 20)
            for _, c in s.terms():
                assert c.denominator == 1 and c >= 0


class TestSwChar:
    def test_vacuum_m1(self):
        s = sw_char(SWModuleId(1, "lambda", 1), 10)
        assert s.leading() == (F(5, 48), F(1))

    def test_lambda_top_m1(self):
        s = sw_char(SWModuleId(1, "lambda", 2), 10)
        assert s.leading() == (F(-1, 16), F(1))
        rhs = qs.truncate(
            qs.mul(f_over_eta(11), theta(ThetaParams(0, F(3, 2)), 12)), 10
        )
        assert qs.compare(s, rhs, 10) is None

    def test_leading_invariants(self):
        for m in (1, 2, 3):
            cd = central_data(m)
            for module in all_module_ids(m):
                s = sw_char(module, 6)
                e, c = s.leading()
                assert e == module_weight(module) - cd.c / 24
                assert c == (1 if module.kind == "lambda" else 2)

    def test_exponent_grid(self):
        for module in all_module_ids(2):
            s = sw_char(module, 8)
            lead, _ = s.leading()
            for e, _ in s.terms():
                step = e - lead
                assert step >= 0 and (2 * step).denominator == 1

    def test_coefficients_nonnegative_integers(self):
        for module in all_module_ids(1):
            for _, c in sw_char(module, 15).terms():
                assert c.denominator == 1 and c >= 0


class TestSuperchar:
    def test_lambda_top_m1(self):
        s = sw_superchar_theta(SWModuleId(1, "lambda", 2), 10)
        assert s.leading() == (F(0), F(1))

    def test_lambda_vacuum_m1(self):
        s = sw_superchar_theta(SWModuleId(1, "lambda", 1), 10)
        assert s.leading() == (F(1, 6), F(1))

    def test_lambda_top_integrality(self):
        for m in (1, 2):
            s = sw_superchar_theta(SWModuleId(m, "lambda", m + 1), 10)
            for _, c in s.terms():
                assert c.denominator == 1

    def test_leading_coefficients_documented(self):
        # apart from lambda:(m+1), the displayed formulas are not
        # integral; the pi leading coefficient comes out (4i+2)/(2m+1)
        for m in (1, 2, 3):
            for module in all_module_ids(m):
                s = sw_superchar_theta(module, 8)
                _, c = s.leading()
                if module.kind == "lambda":
                    assert c == 1
                else:
                    assert c == F(4 * module.i + 2, 2 * m + 1)

    def test_denominators_divide_level(self):
        for m in (1, 2):
            for module in all_module_ids(m):
                s = sw_superchar_theta(module, 8)
                for _, c in s.terms():
                    assert (2 * m + 1) % c.denominator == 0

    def test_leading_shift_is_one_sixteenth(self):
        for m in (1, 2, 3):
            for module in all_module_ids(m):
                assert superchar_leading_shift(module) == F(1, 16)

    def test_leading_shift_is_one_sixteenth_for_every_module_the_cli_accepts(self):
        # the pi modules' leads pass 10 from m = 11 on and reach 5000/101 at
        # m = 50, pi:1; the probe builds to the level 2(2m+1), which holds them
        off = [
            (m, module.label)
            for m in range(1, cli._MAX_M + 1)
            for module in all_module_ids(m)
            if superchar_leading_shift(module) != F(1, 16)
        ]
        assert off == []

    def test_leading_shift_takes_only_the_module(self):
        assert list(inspect.signature(superchar_leading_shift).parameters) == ["module"]


class TestDecomposition:
    def test_m1_vacuum_order_20(self):
        module = SWModuleId(1, "lambda", 1)
        lhs = char_by_decomposition(module, 20)
        assert qs.compare(lhs, sw_char(module, 20), 20) is None

    def test_m1_top_order_20(self):
        module = SWModuleId(1, "lambda", 2)
        lhs = char_by_decomposition(module, 20)
        rhs = qs.truncate(
            qs.mul(f_over_eta(21), theta(ThetaParams(0, F(3, 2)), 22)), 20
        )
        assert qs.compare(lhs, rhs, 20) is None

    def test_m2_vacuum_order_15(self):
        module = SWModuleId(2, "lambda", 1)
        lhs = char_by_decomposition(module, 15)
        assert qs.compare(lhs, sw_char(module, 15), 15) is None

    def test_pi_rejected(self):
        with pytest.raises(ValueError):
            char_by_decomposition(SWModuleId(1, "pi", 1), 10)

    @pytest.mark.parametrize("m", range(1, 5))
    def test_one_product_equals_the_loop_of_ns_characters(self, m):
        # at i = m the n-th negative exponent meets the (n+1)-th positive one
        for module in all_module_ids(m)[: m + 1]:
            for order in (F(-1, 20), F(1, 3), F(3, 2), F(5, 2), 10, F(61, 2), F(77, 3)):
                assert char_by_decomposition(module, order) == _decomposition_loop(module, order), (module, order)

    def test_one_mul_per_call(self, monkeypatch):
        module = SWModuleId(2, "lambda", 3)
        char_by_decomposition(module, 20)  # builds and caches f/eta's quotient
        mul, calls = qs.mul, []
        monkeypatch.setattr(qs, "mul", lambda a, b: calls.append((a, b)) or mul(a, b))
        char_by_decomposition(module, 20)
        assert len(calls) == 1


def _decomposition_loop(module, order):
    """char_by_decomposition as one ns_irr_char, scale and add per n."""
    m, i = module.m, module.i
    cd = central_data(m)
    total, n = qs.make_series([], order), 0
    while cd.h(2 * i + 1, 2 * n + 1) - cd.c / 24 <= order:
        total = qs.add(total, qs.scale(ns_irr_char(m, i, n, order), 2 * n + 1))
        n += 1
    return total


def _integrality_by_terms(s):
    """characters._integrality read from Fraction terms."""
    for e, c in s.terms():
        if c.denominator != 1 or c < 0:
            return s.order, (e, c, F(max(0, round(c))))
    return s.order, None


@pytest.mark.parametrize(
    "terms",
    [
        [],
        [(F(-1, 16), 1), (F(1, 2), 3)],
        [(F(1, 3), F(7, 2)), (2, -1)],
        [(0, 2), (F(5, 4), -3), (3, F(1, 3))],
        [(F(1, 6), F(4, 3)), (F(7, 6), F(-5, 3))],
        [(1, F(-1, 2))],
        [(1, 4), (2, 6), (5, F(-9, 2))],
    ],
)
def test_integrality_from_slots_matches_terms(terms):
    s = qs.make_series(terms, 6)
    assert characters._integrality(s) == _integrality_by_terms(s)


def test_integrality_reports_the_first_bad_term():
    # both planted exponents lie off the character's exponents 27/80 + Z/2
    module = SWModuleId(2, "lambda", 1)
    s = qs.add(sw_char(module, 10), qs.make_series([(F(41, 60), F(-1, 2)), (F(9, 2), F(1, 3))], 10))
    assert characters._integrality(s) == (10, (F(41, 60), F(-1, 2), F(0)))


class TestSuite:
    def test_m1_order_20(self):
        reports = verify_character_suite(1, 20)
        assert len(reports) == 2 + 1 + 3
        for r in reports:
            assert r.status == "pass", (r.identity_id, r.params, r.first_mismatch)

    def test_m2_order_15(self):
        reports = verify_character_suite(2, 15)
        for r in reports:
            assert r.status == "pass", (r.identity_id, r.params, r.first_mismatch)

    def test_perturbed_theta_index_fails(self):
        m = 1
        lam = sw_char(SWModuleId(m, "lambda", 1), 10)
        pi = sw_char(SWModuleId(m, "pi", 1), 10)
        wrong = qs.truncate(
            qs.mul(f_over_eta(11), theta(ThetaParams(0, F(3, 2)), 12)), 10
        )
        rep = qs.compare_report("char-pair-sum", {}, lambda: (qs.add(lam, pi), wrong), 10)
        assert rep.status == "fail"


class TestExactRank:
    def test_full_rank_at_every_m_the_cli_accepts(self):
        ms = range(1, cli._MAX_M + 1)
        assert [numeric.ns_space_rank(m) for m in ms] == [3 * m + 1 for m in ms]

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_prefix_ends_at_the_last_block_exponent(self, monkeypatch, m):
        """The rank asks theta_form for no order past 2m^2/(2m+1), the n = -1
        term of Theta_{1,(2m+1)/2}, and needs that term: one lattice step
        below it the j = 1 block is singular and the rank is 3m."""
        evaluate, last = forms.theta_form, F(2 * m * m, 2 * m + 1)
        orders = []

        def spy(form, order, lower=0):
            orders.append(F(order))
            return evaluate(form, F(order) - lower)

        monkeypatch.setattr(forms, "theta_form", spy)
        assert numeric.ns_space_rank(m) == 3 * m + 1
        assert len(orders) == 3 * m + 1
        assert max(orders) <= last
        monkeypatch.setattr(forms, "theta_form", partial(spy, lower=F(1, 2 * (2 * m + 1))))
        assert numeric.ns_space_rank(m) == 3 * m


# -- the hand-built bodies that module_form and forms.theta_form replaced ----


def _lambda_pi(module, th, dth, c):
    """((2i+1) th + c dth) / (2m+1) for lambda, ((2m-2i) th - c dth) / (2m+1) for pi."""
    m, i = module.m, module.i
    a, b = (2 * i + 1, c) if module.kind == "lambda" else (2 * m - 2 * i, -c)
    return qs.add(qs.scale(th, F(a, 2 * m + 1)), qs.scale(dth, F(b, 2 * m + 1)))


def _char_combo(module, order):
    p = ThetaParams(module.m - module.i, F(2 * module.m + 1, 2))
    return _lambda_pi(module, theta(p, order), dtheta(p, order), 2)


def _times_f_over_eta(g, order):
    """(f/eta) g for a builder g(n) of a series exact to q^n with no term
    below q^0: f/eta (lead -1/16) to the order, g 1/16 past it."""
    return qs.mul(f_over_eta(order), g(order + F(1, 16)))


def _displayed_superchar(module, order):
    """sw_superchar_theta's own order rule: f2/eta (lead 0) and the
    combination of Theta_a - Theta_b, both to the order."""
    order_f = F(order)
    m, i = module.m, module.i
    k2 = 2 * (2 * m + 1)
    a, b = ThetaParams(2 * (m - i), k2), ThetaParams(2 * (m + i + 1), k2)
    th = qs.sub(theta(a, order_f), theta(b, order_f))
    dth = qs.sub(dtheta(a, order_f), dtheta(b, order_f))
    return qs.mul(f2_over_eta(order_f), _lambda_pi(module, th, dth, 1))


# -- the lambda/pi combinations against their two-copy bodies ----------------


def _two_copy_char_combo(module, order):
    m, i = module.m, module.i
    p = ThetaParams(m - i, F(2 * m + 1, 2))
    th, dth = theta(p, order), dtheta(p, order)
    if module.kind == "lambda":
        return qs.add(qs.scale(th, F(2 * i + 1, 2 * m + 1)), qs.scale(dth, F(2, 2 * m + 1)))
    return qs.add(qs.scale(th, F(2 * m - 2 * i, 2 * m + 1)), qs.scale(dth, F(-2, 2 * m + 1)))


def _two_copy_superchar(module, order):
    """sw_superchar_theta with two copies of the theta combination, built
    past the order and truncated back."""
    order_f = F(order)
    m, i = module.m, module.i
    k2 = F(2 * (2 * m + 1))
    n = order_f + 1
    th = qs.sub(theta(ThetaParams(2 * (m - i), k2), n), theta(ThetaParams(2 * (m + i + 1), k2), n))
    dth = qs.sub(dtheta(ThetaParams(2 * (m - i), k2), n), dtheta(ThetaParams(2 * (m + i + 1), k2), n))
    if module.kind == "lambda":
        combo = qs.add(qs.scale(th, F(2 * i + 1, 2 * m + 1)), qs.scale(dth, F(1, 2 * m + 1)))
    else:
        combo = qs.add(qs.scale(th, F(2 * m - 2 * i, 2 * m + 1)), qs.scale(dth, F(-1, 2 * m + 1)))
    return qs.truncate(qs.mul(f2_over_eta(n), combo), order_f)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_combinations_match_two_copy_bodies(m):
    for module in all_module_ids(m):
        for order in (F(12), F(61, 2)):
            combo = theta_form(module_form(module)._replace(powers=()), order)
            assert combo == _char_combo(module, order) == _two_copy_char_combo(module, order)
            assert sw_superchar_theta(module, order) == _two_copy_superchar(module, order)


# -- the builders against their margin-and-truncate bodies --------------------


def _margin_times_f_over_eta(g, order):
    """_times_f_over_eta with both factors built past the order."""
    return qs.truncate(qs.mul(f_over_eta(order + 1), g(order + F(17, 16))), order)


def _margin_ns_irr_char(m, i, n, order):
    """ns_irr_char as its own (f/eta) product, shifted by q^offset."""
    cd = central_data(m)
    offset = F(m * m, 2 * (2 * m + 1))
    order_f = F(order)
    # the lowest weight h^{2m+1,1} is -offset, which falls below -17/16
    # from m = 5 on
    inner_order = order_f - offset + max(F(17, 16), offset)
    terms = [
        (e, s)
        for e, s in ((cd.h(2 * i + 1, 2 * n + 1), 1), (cd.h(2 * i + 1, -2 * n - 1), -1))
        if e <= inner_order
    ]
    two = qs.make_series(terms, inner_order)
    prod = qs.mul(f_over_eta(inner_order), two)
    return qs.truncate(qs.shift(prod, offset), order_f)


def _hand_ns_irr_char(m, i, n, order):
    """ns_irr_char's hand-built body: f/eta to the order and the two
    monomials 1/16 past it, f/eta's lead."""
    cd = central_data(m)
    offset = F(m * m, 2 * (2 * m + 1))
    weights = ((cd.h(2 * i + 1, 2 * n + 1) + offset, 1), (cd.h(2 * i + 1, -2 * n - 1) + offset, -1))
    top = F(order) + F(1, 16)
    return qs.mul(f_over_eta(F(order)), qs.make_series([(e, s) for e, s in weights if e <= top], top))


_MODULES = st.integers(1, 8).flatmap(lambda m: st.sampled_from(all_module_ids(m)))
_ORDERS = st.one_of(st.integers(1, 2880).map(lambda k: F(k, 48)), st.just(F(1, 1000)))


@settings(max_examples=150, deadline=None)
@given(_MODULES, _ORDERS, st.integers(0, 3))
@example(SWModuleId(8, "pi", 1), F(60), 3)
@example(SWModuleId(8, "lambda", 9), F(1, 1000), 0)
@example(SWModuleId(5, "lambda", 6), F(1, 48), 1)
def test_builders_match_margin_bodies(module, order, n):
    # `swq char` and `swq superchar` print the requested order as the
    # series' order, so each builder must be exact to it and no further
    m, i = module.m, module.i
    combo = partial(_char_combo, module)
    pairs = {
        "sw_char": (sw_char(module, order), _margin_times_f_over_eta(combo, order)),
        "sw_char, hand-built": (sw_char(module, order), _times_f_over_eta(combo, order)),
        "sw_superchar_theta": (sw_superchar_theta(module, order), _two_copy_superchar(module, order)),
        "sw_superchar_theta, hand-built": (sw_superchar_theta(module, order), _displayed_superchar(module, order)),
        "ns_irr_char": (ns_irr_char(m, i, n, order), _margin_ns_irr_char(m, i, n, order)),
        "ns_irr_char, hand-built": (ns_irr_char(m, i, n, order), _hand_ns_irr_char(m, i, n, order)),
    }
    for name, (got, want) in pairs.items():
        assert got == want, name
        assert_exact_to(got, order)
