"""Every value type is built through its one constructor, which takes
exactly its fields: `_make`, `_replace`, pickle and copy run its checks
and its normalisation too."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from swqseries import characters as ch
from swqseries import cli, forms, numeric
from swqseries import fermionic as fm
from swqseries import qseries as qs
from swqseries import zhupoly as zp
from swqseries.report import VerificationReport

F = Fraction

_FAILING = VerificationReport("durfee-half", {}, F(10), "fail", (F(1), F(2), F(3)))

# a valid value of each type with checks, and fields that break them
_BYPASSES = [
    (qs.one(5), {"content": 0}),
    (qs.one(5), {"content": -1}),
    (qs.one(5), {"denom": 0}),
    (qs.one(5), {"stride": 0}),
    (zp.poly([1, 2]), {"content": 0}),
    (zp.poly([1, 2]), {"content": -3}),
    (ch.SWModuleId(2, "lambda", 1), {"index": 99}),
    (fm.FermionicSumSpec(3, 0, 0, 1), {"sigma": 7}),
    (forms.ThetaParams(1, 2), {"k": -3}),
    (forms.ThetaForm(F(1, 24), ((1, -1),), 3, ((1, 1, 0),)), {"k": -3}),
    (numeric.TauPoint(0, 1), {"im": -1.0}),
    (cli.RunConfig("verify"), {"m": 0, "tol": math.inf}),
    (_FAILING, {"status": "pass"}),
]


@pytest.mark.parametrize(
    "value, bad", _BYPASSES, ids=[f"{type(v).__name__}-{'-'.join(b)}" for v, b in _BYPASSES]
)
def test_replace_and_make_check_their_fields(value, bad):
    cls = type(value)
    with pytest.raises(ValueError):
        value._replace(**bad)
    with pytest.raises(ValueError):
        cls._make({**value._asdict(), **bad}.values())
    with pytest.raises(ValueError):
        _reduced(value, {**value._asdict(), **bad}.values())
    for same in (value._replace(), cls._make(value), _reduced(value, value)):
        assert type(same) is cls and same == value


def _reduced(value, fields):
    """What pickle and copy rebuild from the reduction of `value` with
    its fields replaced by `fields`."""
    rebuild, (cls, *_), *_ = value.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    return rebuild(cls, *fields)


def _every_path(cls, fields, other):
    """Instances built from the same raw fields by every path that
    builds one; `other` is any instance of cls."""
    built = cls(*fields)
    return [
        built,
        cls._make(fields),
        other._replace(**dict(zip(cls._fields, fields))),
        _reduced(other, fields),
        pickle.loads(pickle.dumps(built)),
        copy.copy(built),
        copy.deepcopy(built),
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=-2, max_value=12, max_denominator=6),
)
@example(1, 0, 1, [0, 1], 1, 1, F(5))  # one(5)._replace(vals=[0, 1])
@example(24, 0, 1, [0, 0, 1, 0, 0, 0, -1, 0, 0], 1, 1, F(7))  # zero ends and a coarser lattice
@example(6, 4, 2, [3, 0, 9], 6, 1, F(7))  # common factor of content and slots
@example(4, 2, 3, [0, 0], 1, 1, F(7))  # zero series
def test_qseries_is_normalised_on_every_path(denom, base, stride, vals, content, mult, order):
    raw_vals = [v * mult for v in vals]
    raw = (denom, base, stride, raw_vals, content * mult, order)
    want = qs._from_coeffs(denom, {base + i * stride: F(v, content) for i, v in enumerate(vals)}, order)
    for got in _every_path(qs.QSeries, raw, qs.one(5)):
        assert type(got) is qs.QSeries and type(got.vals) is tuple
        assert tuple(got) == tuple(want) and hash(got) == hash(want)
    # the caller's list is left as it was
    assert raw_vals == [v * mult for v in vals]


def test_replaced_slots_equal_the_same_series_built_otherwise():
    assert qs.one(5)._replace(vals=[0, 1]) == qs.shift(qs.one(4), 1)
    assert zp.poly([1, 2])._replace(vals=[2, 4, 0], content=2) == zp.poly([1, 2])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=9),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=2**65),
    st.integers(min_value=1, max_value=6),
)
@example([1], 1, 1, 1)  # RatPoly((1, 0), 1) is poly([1])
@example([], 2, 5, 1)  # zero polynomial: content 1
def test_ratpoly_is_normalised_on_every_path(vals, zeros, content, mult):
    raw_vals = [v * mult for v in vals] + [0] * zeros
    raw = (raw_vals, content * mult)
    want = zp.poly([F(v, content) for v in vals])
    for got in _every_path(zp.RatPoly, raw, zp.poly([1, 2])):
        assert type(got) is zp.RatPoly and type(got.vals) is tuple
        assert tuple(got) == tuple(want) and hash(got) == hash(want)
    # the caller's list is left as it was
    assert raw_vals == [v * mult for v in vals] + [0] * zeros
