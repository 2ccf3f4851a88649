"""Tests for floating-point evaluation and the transformation-law checks."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from swqseries import cli, forms
from swqseries import numeric as nm
from swqseries import qseries as qs

F = Fraction

TAUS = [nm.TauPoint(0.0, 1.0), nm.TauPoint(0.3, 1.1), nm.TauPoint(-0.4, 0.9)]


class TestTauPoint:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError, match="^tau must have positive imaginary part$"):
            nm.TauPoint(0.3, -1.0)
        with pytest.raises(ValueError):
            nm.TauPoint(0.3, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            nm.TauPoint(float("nan"), 1.0)
        with pytest.raises(ValueError):
            nm.TauPoint(float("inf"), 1.0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            TAUS[0].im = 2.0

    def test_q_abs(self):
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

    def test_point_too_close_to_real_axis(self):
        # |q|^(1/24) rounds to 1, so the tail bound would divide by zero
        with pytest.raises(ValueError, match=r"^Im tau = 1e-20 is too small: \|q\|\^\(1/24\) rounds to 1"):
            nm.eval_series(forms.eta(10), nm.TauPoint(0.0, 1e-20))

    def test_neg_inv_underflow_and_overflow(self):
        with pytest.raises(ValueError, match="^-1/tau underflows"):
            nm._neg_inv(nm.TauPoint(0.3, 1e200))
        with pytest.raises(ValueError, match="^-1/tau overflows"):
            nm._neg_inv(nm.TauPoint(0.0, 1e-200))
        assert nm._neg_inv(nm.TauPoint(0.0, 0.5)) == nm.TauPoint(-0.0, 2.0)


def _fraction_eval_series(a, tau):
    """eval_series as it was written over Fraction terms: the oracle for
    bit-identical floats."""
    log_q = 2.0 * math.pi * complex(-tau.im, tau.re)
    value = complex(0.0)
    big = 1.0
    for k, c in sorted(a.coeffs.items()):
        cf = float(c)
        value += cf * cmath.exp(log_q * float(F(k, a.denom)))
        big = max(big, abs(cf))
    step = tau.q_abs ** (1.0 / a.denom)
    tail = big * tau.q_abs ** (float(a.order) + 1.0 / a.denom) / (1.0 - step)
    return value, tail


def _float_terms_eval_series(a, tau):
    """eval_series as it was written over the float (coefficient,
    exponent) pairs of the nonzero terms: the oracle for the loop over
    the series fields."""
    log_q = 2.0 * math.pi * complex(-tau.im, tau.re)
    value = complex(0.0)
    big = 1.0
    terms = [(v / a.content, (a.base + i * a.stride) / a.denom) for i, v in enumerate(a.vals) if v]
    for cf, e in terms:
        value += cf * cmath.exp(log_q * e)
        big = max(big, abs(cf))
    step = tau.q_abs ** (1.0 / a.denom)
    tail = big * tau.q_abs ** (float(a.order) + 1.0 / a.denom) / (1.0 - step)
    return value, tail


@st.composite
def _eval_series_inputs(draw):
    d = draw(st.sampled_from([1, 2, 3, 12, 24, 48]))
    stride = draw(st.sampled_from([1, 2, 5]))
    lead = draw(st.integers(min_value=-d, max_value=3 * d))
    steps = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=12, unique=True))
    content = draw(st.sampled_from([1, 3, 7, 2**64 + 13]))
    nums = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
    coeffs = {lead + stride * i: F(draw(nums), content) for i in steps}
    order = F(lead + stride * max(steps, default=0), d) + draw(st.fractions(0, 3, max_denominator=6))
    tau = nm.TauPoint(draw(st.floats(-1, 1)), draw(st.floats(0.3, 2.5)))
    return qs._from_coeffs(d, coeffs, order), tau


@settings(max_examples=300, deadline=None)
@given(_eval_series_inputs())
@example((qs.shift(forms.eta(10), F(-1, 24)), nm.TauPoint(0.3, 1.1)))
@example(
    (qs.make_series([(F(1, 3), F(2**70 + 1, 2**64 + 13)), (F(5, 48), F(-1, 3))], 2), nm.TauPoint(-0.4, 0.9))
)
@example((qs.make_series([], 3), nm.TauPoint(0.0, 1.0)))
def test_eval_series_floats_are_bit_identical(case):
    a, tau = case
    got = nm.eval_series(a, tau)
    for want in (_fraction_eval_series(a, tau), _float_terms_eval_series(a, tau)):
        assert got[0] == want[0] and got[1] == want[1]


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

    def test_infinite_tolerance_rejected(self):
        # it would pass every residual and never refuse a tail bound
        with pytest.raises(ValueError, match="finite"):
            nm.verify_s_t_laws([nm.TauPoint(0.0, 1.0)], 50, math.inf)

    def test_law_report_failure_shape(self):
        assert nm._first_over([1e-12, 2e-9], 1e-9) == (F(1), F(2e-9), F(1e-9))
        assert nm._first_over([1e-12, 5e-10], 1e-9) is None

    def test_reports_carry_order_and_runtime(self):
        reports = nm.verify_s_t_laws([nm.TauPoint(0.0, 1.0)], 60, 1e-8)
        assert all(r.order == F(60) for r in reports)
        assert all(r.runtime_ms >= 0 for r in reports)


# -- _law against the loops it replaced -------------------------------------


def _eta_loop(eta, taus, image, factor, tol):
    errors = []
    for t in taus:
        lv, lt = nm.eval_series(eta, image(t), tol)
        rv, rt = nm.eval_series(eta, t, tol)
        f = factor(t)
        errors.append(abs(lv - f * rv) + lt + abs(f) * rt)
    return errors


def _s_law_loop(series, taus, k, weighted, tol):
    errors = []
    for t in taus:
        ti = nm._neg_inv(t)
        tv = [nm.eval_series(s, t, tol) for s in series]
        rtail = sum(v[1] for v in tv)
        pref = cmath.sqrt(-1j * t.tau / (2 * k))
        if weighted:
            pref = -t.tau * pref
        for j in range(k + 1):
            phases = [cmath.exp(1j * math.pi * j * jp / k) for jp in range(2 * k)]
            lv, lt = nm.eval_series(series[j], ti, tol)
            rv = sum(p * v[0] for p, v in zip(phases, tv))
            errors.append(abs(lv - pref * rv) + lt + abs(pref) * rtail)
    return errors


def _loop_errors(taus, order, tol):
    eta = forms.eta(order)
    out = [_eta_loop(eta, taus, nm._neg_inv, lambda t: cmath.sqrt(-1j * t.tau), tol)]
    for k in nm._S_LEVELS:
        ths = [forms.theta(forms.ThetaParams(jp, k), order) for jp in range(2 * k)]
        dths = [forms.dtheta(forms.ThetaParams(jp, k), order) for jp in range(2 * k)]
        out += [
            _s_law_loop(ths, taus, k, False, tol),
            _s_law_loop(dths, taus, k, True, tol),
        ]
    return out


@pytest.mark.parametrize(
    "taus, order, tol",
    [
        (TAUS, F(60), 1e-8),
        ([nm.TauPoint(0.3, 1.1), nm.TauPoint(-0.4, 0.9), nm.TauPoint(0.1, 0.5)], F(300), 1e-8),
        ([nm.TauPoint(0.05, 2.3), nm.TauPoint(-1.7, 0.6)], F(241, 2), 1e-6),
    ],
)
def test_law_errors_equal_the_loops(taus, order, tol, monkeypatch):
    calls = [0]
    evaluate = nm.eval_series

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(nm, "eval_series", counted)
    want = _loop_errors(taus, order, tol)
    loop_calls, calls[0] = calls[0], 0
    got = []
    first_over = nm._first_over
    monkeypatch.setattr(nm, "_first_over", lambda errors, tol: got.append(errors) or first_over(errors, tol))
    nm.verify_s_t_laws(taus, order, tol)
    assert got == want
    assert sum(map(len, got)) == len(taus) * (1 + 2 * sum(k + 1 for k in nm._S_LEVELS))
    assert calls[0] == loop_calls


@pytest.mark.parametrize(
    "taus, order",
    [
        ([nm.TauPoint(0.3, 1.1)], F(2)),
        ([nm.TauPoint(0.0, 2.0)], F(1)),
        ([nm.TauPoint(0.2, 0.7)], F(4)),
        ([nm.TauPoint(1.5, 0.5)], F(9)),
    ],
)
def test_tail_refusal_names_the_loops_series(taus, order):
    # the first series whose tail bound exceeds tol is the one the loops named
    with pytest.raises(ValueError, match="would suffice") as want:
        _loop_errors(taus, order, 1e-8)
    with pytest.raises(ValueError, match="would suffice") as got:
        nm.verify_s_t_laws(taus, order, 1e-8)
    assert str(got.value) == str(want.value)


# -- the T-laws, read off the exponents --------------------------------------


def _with_term(s, e, c=1):
    return qs.add(s, qs.make_series([(e, c)], s.order))


def _law_report(reports, law_id, k=None):
    [r] = [r for r in reports if r.identity_id == law_id and r.params.get("k") == k]
    return r


def test_planted_theta_term_fails_only_the_t2_law(monkeypatch):
    # q^{30+1/7} moves the residuals at the reference points by less than 1e-69
    theta = forms.theta

    def planted(p, order):
        return _with_term(theta(p, order), F(211, 7)) if p == forms.ThetaParams(2, 5) else theta(p, order)

    monkeypatch.setattr(forms, "theta", planted)
    reports = nm.verify_s_t_laws(TAUS, 50, 1e-8)
    assert _law_report(reports, "theta-t2-law", 5).first_mismatch == (F(211, 7), F(1), F(0))
    assert _law_report(reports, "theta-s-law", 5).status == "pass"


def test_planted_eta_term_fails_the_t_law(monkeypatch):
    eta = forms.eta
    monkeypatch.setattr(forms, "eta", lambda order: _with_term(eta(order), 40))
    reports = nm.verify_s_t_laws(TAUS, 50, 1e-8)
    assert _law_report(reports, "eta-t-law").first_mismatch == (F(40), F(1), F(0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_t_law_is_the_exponent_class(data):
    # k in Z/2 up to 12, any j < 2k, orders in Z/48: the sums pass, and a
    # term moved by 1/(8k), off Z/2, is the first mismatch
    k = F(data.draw(st.integers(1, 24), label="2k"), 2)
    j = data.draw(st.integers(0, int(2 * k) - 1), label="j")
    order = F(data.draw(st.integers(1, 60 * 48), label="48 order"), 48)
    cls, half = F(j * j) / (4 * k), F(1, 2)
    for build in (forms.theta, forms.dtheta):
        s = build(forms.ThetaParams(j, k), order)
        assert nm._off_class([s], [cls], half) is None
        terms = s.terms()
        if terms:
            i = data.draw(st.integers(0, len(terms) - 1), label="moved term")
            e, c = terms[i]
            terms[i] = (e - F(1, 8 * k), c)
            assert nm._off_class([qs.make_series(terms, order)], [cls], half) == (*terms[i], F(0))


_T_LAWS = {"eta-t-law", "theta-t2-law", "dtheta-t2-law"}


def test_suite_all_evaluates_only_for_the_float_laws(monkeypatch, capsys):
    # one `verify --suite all --m 2 --order 50` at the three default tau:
    # 3 * 154 evaluations, all for the S-laws; the rank is exact
    calls, current = [], [None]
    evaluate, run_check = nm.eval_series, qs.run_check

    def counted(*args):
        calls.append(current[0])
        return evaluate(*args)

    def named(identity_id, params, check):
        current[0] = identity_id
        return run_check(identity_id, params, check)

    monkeypatch.setattr(nm, "eval_series", counted)
    monkeypatch.setattr(qs, "run_check", named)
    cli.main(["verify", "--suite", "all", "--m", "2", "--order", "50"])
    capsys.readouterr()
    assert len(calls) == 462
    assert _T_LAWS & set(calls) == set()
    assert "ns-space-rank" not in calls


class TestRank:
    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            nm.ns_space_rank(0)
