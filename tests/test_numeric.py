"""Tests for floating-point evaluation and the transformation-law checks."""

import cmath
from fractions import Fraction

import pytest

from swqseries import forms
from swqseries import numeric as nm
from swqseries import qseries as qs

F = Fraction

TAUS = [nm.TauPoint(0.0, 1.0), nm.TauPoint(0.3, 1.1), nm.TauPoint(-0.4, 0.9)]


class TestTauPoint:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            nm.TauPoint(0.3, -1.0)
        with pytest.raises(ValueError):
            nm.TauPoint(0.3, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nm.TauPoint(float("nan"), 1.0)
        with pytest.raises(ValueError):
            nm.TauPoint(float("inf"), 1.0)

    def test_q_abs(self):
        import math

        assert nm.TauPoint(0.7, 1.0).q_abs == pytest.approx(math.exp(-2 * math.pi))


class TestEvalSeries:
    def test_constant_one(self):
        value, tail = nm.eval_series(qs.one(F(10)), nm.TauPoint(0.3, 1.1))
        assert value == 1
        assert 0 < tail < 1e-29

    def test_self_dual_point(self):
        eta = forms.eta(200)
        i = nm.TauPoint(0.0, 1.0)
        v, _ = nm.eval_series(eta, i)
        pref = cmath.sqrt(-1j * i.tau)
        assert abs(v - pref * v) < 1e-15

    def test_eta_s_ratio_at_2i(self):
        eta = forms.eta(200)
        v_2i, _ = nm.eval_series(eta, nm.TauPoint(0.0, 2.0))
        v_half_i, _ = nm.eval_series(eta, nm.TauPoint(0.0, 0.5))
        assert abs(v_half_i / v_2i - cmath.sqrt(2)) < 1e-12

    def test_linearity(self):
        t = nm.TauPoint(0.2, 0.9)
        a = forms.theta(forms.ThetaParams(1, F(3)), 40)
        b = forms.theta(forms.ThetaParams(2, F(3)), 40)
        va, _ = nm.eval_series(a, t)
        vb, _ = nm.eval_series(b, t)
        vab, _ = nm.eval_series(qs.add(a, b), t)
        assert abs(vab - (va + vb)) < 1e-12

    def test_tail_rejection_names_an_order(self):
        with pytest.raises(ValueError, match="would suffice"):
            nm.eval_series(forms.eta(10), nm.TauPoint(0.0, 0.05), 1e-8)


class TestLaws:
    def test_all_pass_at_reference_points(self):
        reports = nm.verify_s_t_laws(TAUS, 120, 1e-8)
        assert [r.status for r in reports] == ["pass"] * len(reports)
        ids = [r.identity_id for r in reports]
        assert ids[:2] == ["eta-s-law", "eta-t-law"]
        assert ids.count("theta-s-law") == 4
        assert ids.count("dtheta-s-law") == 4
        assert ids.count("theta-t2-law") == 4
        assert ids.count("dtheta-t2-law") == 4
        assert [r.params["k"] for r in reports if r.identity_id == "theta-s-law"] == [3, 5, 6, 10]

    def test_tolerance_floor(self):
        with pytest.raises(ValueError, match="at least"):
            nm.verify_s_t_laws([nm.TauPoint(0.0, 1.0)], 50, 1e-30)

    def test_law_report_failure_shape(self):
        assert nm._first_over([1e-12, 2e-9], 1e-9) == (F(1), F(2e-9), F(1e-9))
        assert nm._first_over([1e-12, 5e-10], 1e-9) is None

    def test_reports_carry_order_and_runtime(self):
        reports = nm.verify_s_t_laws([nm.TauPoint(0.0, 1.0)], 60, 1e-8)
        assert all(r.order == F(60) for r in reports)
        assert all(r.runtime_ms >= 0 for r in reports)


class TestRank:
    def test_m1_rank_full(self):
        rank, smallest = nm.ns_space_rank(1, TAUS + [nm.TauPoint(0.17, 0.83)], 200)
        assert rank == 4
        assert smallest > 0

    def test_reordering_invariance(self):
        taus = TAUS + [nm.TauPoint(0.17, 0.83)]
        rank_a, _ = nm.ns_space_rank(1, taus, 150)
        rank_b, _ = nm.ns_space_rank(1, taus[::-1], 150)
        assert rank_a == rank_b

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="4 tau points"):
            nm.ns_space_rank(1, TAUS, 100)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            nm.ns_space_rank(1, TAUS + [nm.TauPoint(0.3, 1.1)], 100)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            nm.ns_space_rank(0, [], 100)
