"""Tests for the quadruple binomial sum and its closed form."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from swqseries import gmverify as gv
from swqseries import zhupoly as zp

F = Fraction


def _naive_gm_value(m, t):
    """The quadruple sum term by term, straight from its definition: the
    oracle for gm_value, which sums over l in closed form."""
    p = 2 * m + 1
    total = 0
    for l in range(1, p + 1):
        cl = math.comb(p, l)
        for i in range(l):
            for j in range(p + i - l + 1):
                cj = gv._binom(-p, j)
                for k in range(l - i):
                    term = (
                        cl
                        * cj
                        * gv._binom(-p, k)
                        * gv._binom(2 * m - t, j + k + p)
                        * gv._binom(t, i - j - l + p)
                        * gv._binom(t, l - k - 1 - i)
                    )
                    if (j + k + l) % 2:
                        total -= term
                    else:
                        total += term
    return Fraction(total)


def _cubic_gm_value(m, t):
    """The d-sum with the l-sum in closed form, as O(p^3) integer
    products: the oracle for gm_value's packed evaluation."""
    p = 2 * m + 1
    a = [math.comb(p + j - 1, j) for j in range(p)]
    ct = [gv._binom(t, n) for n in range(p)]
    cs = [gv._binom(2 * m - t, n + p) for n in range(p)]
    total = 0
    for d in range(1, p + 1):
        v = [a[k] * ct[d - 1 - k] for k in range(d)]
        inner = 0
        for j in range(p - d + 1):
            u = a[j] * ct[p - d - j]
            if u:
                inner += u * sum(x * y for x, y in zip(v, cs[j:]))
        total += (-1) ** d * math.comb(p - 1, d - 1) * inner
    return Fraction(total)


class TestBinomHelper:
    def test_negative_lower_index_is_zero(self):
        assert gv._binom(5, -1) == 0
        assert gv._binom(-5, -2) == 0

    def test_nonnegative_upper_matches_comb(self):
        for a in range(8):
            for b in range(10):
                assert gv._binom(a, b) == math.comb(a, b)

    def test_negative_upper_via_falling_factorial(self):
        for a in range(-6, 0):
            for b in range(8):
                prod = 1
                for r in range(b):
                    prod *= a - r
                assert gv._binom(a, b) * math.factorial(b) == prod


class TestGmValue:
    def test_frozen_m1(self):
        assert gv.gm_value(1, 4) == 4
        assert gv.gm_value(1, 0) == 0
        assert gv.gm_value(1, 5) == 24

    def test_vanishes_on_root_range(self):
        for m in (1, 2, 3):
            for t in range(-m, 3 * m + 1):
                assert gv.gm_value(m, t) == 0

    def test_integer_valued(self):
        # an int, also in the zero window 0 <= t <= 2m, which returns early
        for m in range(1, 5):
            for t in range(-3, 4 * m + 6):
                assert type(gv.gm_value(m, t)) is int, (m, t)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            gv.gm_value(0, 3)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_naive_sum(self, m):
        # t < 0 and t > 2m give binomial rows with a negative top
        for t in range(-4, 4 * m + 7):
            assert gv.gm_value(m, t) == _naive_gm_value(m, t), t

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 14), st.integers(-60, 60))
    @example(14, -60)
    @example(14, 60)
    @example(14, 29)
    @example(1, -1)
    @example(1, 3)
    def test_matches_cubic_sum(self, m, t):
        # the widest digits come with m = 14 and |t| = 60; t < 0 checks
        # the sign moved onto the read-off, 0 <= t <= 2m the early zero
        assert gv.gm_value(m, t) == _cubic_gm_value(m, t)

    def test_sum_over_l_closed_form(self):
        for p in range(1, 16):
            for d in range(1, p + 1):
                w = sum((-1) ** l * math.comb(p, l) for l in range(d, p + 1))
                assert w == (-1) ** d * math.comb(p - 1, d - 1)


class TestGmPoly:
    def test_m1_closed_form(self):
        assert gv.gm_poly(1) == zp.scale(zp.binom_poly(5, arg_shift=1), 4)

    def test_degree_and_positive_lead(self):
        for m in (1, 2, 3):
            g = gv.gm_poly(m)
            assert g.degree() == 4 * m + 1
            assert g.coeff(g.degree()) > 0

    def test_matches_values_beyond_nodes(self):
        g = gv.gm_poly(2)
        for t in (12, 13, 15):
            assert g(t) == gv.gm_value(2, t)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            gv.gm_poly(0)

    @pytest.mark.parametrize("offset", [2, 3])
    def test_degree_bound_violation_raises(self, monkeypatch, offset):
        m = 2
        bad = 4 * m + offset
        exact = gv.gm_value
        monkeypatch.setattr(gv, "gm_value", lambda m, t: exact(m, t) + (t == bad))
        with pytest.raises(RuntimeError, match=f"degree bound violated at t = {bad} for m = 2"):
            gv.gm_poly(m)


class TestConjecture:
    def test_small_m_pass(self):
        for m in (1, 2, 3):
            rep = gv.verify_gm_conjecture(m)
            assert rep.identity_id == "gm-conjecture"
            assert rep.params == {"m": m}
            assert rep.status == "pass"
            assert rep.first_mismatch is None
            assert rep.order == F(4 * m + 1)

    def test_perturbed_closed_form_mismatch(self, monkeypatch):
        # closed side binom(t+m+1, 4m+1) in place of binom(t+m, 4m+1)
        exact = zp.binom_poly
        monkeypatch.setattr(
            zp, "binom_poly", lambda r, arg_shift=0: exact(r, arg_shift=arg_shift + 1)
        )
        rep = gv.verify_gm_conjecture(2)
        assert rep.status == "fail"
        assert rep.order == F(9)
        assert rep.first_mismatch == (F(1), F(1, 7), F(-1, 14))

    def test_extract_Am(self):
        for m in (1, 2, 3):
            assert gv.gm_value(m, 3 * m + 1) == math.comb(2 * m, m) ** 2


class TestModP:
    def test_prime_cases_pass(self):
        for m in (1, 2, 3):
            rep = gv.gm_mod_p(m)
            assert rep.identity_id == "gm-mod-p"
            assert rep.params == {"m": m, "p": 2 * m + 1}
            assert rep.status == "pass"

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            gv.gm_mod_p(4)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6])
    def test_reports_unchanged(self, m):
        # every field but runtime_ms, as pinned when gm_value returned a Fraction
        rep = gv.gm_mod_p(m)._replace(runtime_ms=0.0)
        assert rep == ("gm-mod-p", {"m": m, "p": 2 * m + 1}, F(3 * m + 1), "pass", None, 0.0)
        assert type(rep.order) is Fraction

    def test_failure_reports_fractions(self, monkeypatch):
        exact = gv.gm_value
        monkeypatch.setattr(gv, "gm_value", lambda m, t: exact(m, t) + 1)
        rep = gv.gm_mod_p(2)
        assert rep.status == "fail"
        assert rep.first_mismatch == (F(7), F(2), F(1))
        assert [type(x) for x in (rep.order, *rep.first_mismatch)] == [Fraction] * 4

    def test_residue_matches_closed_form(self):
        for m in (1, 2, 3):
            p = 2 * m + 1
            v = gv.gm_value(m, 3 * m + 1)
            residue = v.numerator * pow(v.denominator, -1, p) % p
            assert residue == math.comb(2 * m, m) ** 2 % p == 1


def test_suite_adds_mod_p_for_prime_2m_plus_1():
    for m, ids in ((2, ["gm-conjecture", "gm-mod-p"]), (4, ["gm-conjecture"])):
        assert [r.identity_id for r in gv.verify_gm_suite(m)] == ids
