"""Which reports see each ThetaForm description in src/.

Every theta product of the package is a `forms.ThetaForm` evaluated by
`forms.theta_form`.  Each row below selects the forms of one description
by their data, as `verify --suite all --m 2 --order 20` and
`verify --suite fermionic --m 2 --order 20` build them, moves one weight
(the first a_j, by 1) in every form it selects, and pins the exact set of
identity ids that then fail and passed before.  An empty set is a
description no report can see that way:
- the supercharacters, which no suite builds (ROADMAP item 1);
- the exact rank's columns and the rank probe's, whose check sees only a
  dependent column (`test_duplicated_character_column_fails`), which a
  moved weight does not make.
"""

import functools
import json
from fractions import Fraction as F

import pytest

from swqseries import characters as ch
from swqseries import cli, forms

_HALF = F(5, 2)  # the character level (2m+1)/2 at m = 2


def _a_and_b(form):
    return all(a and b for _, a, b in form.weights)


# description -> (selects its forms, ids that fail once its weight moves)
_TABLE = {
    "characters.module_form": (
        lambda f: f.powers == ch.F_OVER_ETA and f.k == _HALF and _a_and_b(f),
        {"char-decomposition", "char-pair-sum", "fermionic-char"},
    ),
    "characters.module_form, superchar": (lambda f: f.powers == ch.F2_OVER_ETA, set()),
    "characters.ns_space_exact_rank, module_form without f/eta": (
        lambda f: not f.powers and _a_and_b(f),
        set(),
    ),
    "characters.ns_space_exact_rank, dTheta_j": (lambda f: not f.powers and not f.weights[0][1], set()),
    "characters._pair_sum, (f/eta) Theta_{m-i}": (
        lambda f: f.powers == ch.F_OVER_ETA and f.k == _HALF and not f.weights[0][2],
        {"char-pair-sum"},
    ),
    "numeric._rank_columns, (f/eta) dTheta_j": (
        lambda f: f.powers == ch.F_OVER_ETA and f.k == _HALF and not f.weights[0][1],
        set(),
    ),
    "fermionic.warnaar_rhs": (lambda f: f.powers == ((1, -1),), {"warnaar-v1", "warnaar-v2"}),
    "fermionic aux, (f/eta) dTheta_{1,3/2}": (
        lambda f: f.powers == ch.F_OVER_ETA and f.k == F(3, 2) and not f.weights[0][1],
        {"dtheta-eta-double-product"},
    ),
    "fermionic aux, (f/eta) Theta_{1,3/2}": (
        lambda f: f.powers == ch.F_OVER_ETA and f.k == F(3, 2) and not f.weights[0][2],
        {"theta-double-sum"},
    ),
}


def _failing(monkeypatch, perturbed=None, seen=None):
    """(id, params) of every failing report of suite all and fermionic at
    m = 2, order 20, with the first a_j of each form that the row
    `perturbed` selects moved by 1; `seen` collects each form's rows."""
    evaluate = forms.theta_form

    def theta_form(form, order):
        rows = [name for name, (selects, _) in _TABLE.items() if selects(form)]
        if seen is not None:
            seen.append((form, rows))
        if perturbed in rows:
            (j, a, b), *rest = form.weights
            form = form._replace(weights=((j, a + 1, b), *rest))
        return evaluate(form, order)

    monkeypatch.setattr(forms, "theta_form", theta_form)
    # a cache of its own, so no character built in another run is shared
    monkeypatch.setattr(ch, "sw_char", functools.lru_cache(ch.sw_char.__wrapped__))
    suites = [name for name in cli._SUITES if name != "fermionic"] + ["fermionic"]
    reports = cli._dispatch(suites, cli.RunConfig("verify", m=2, order=F(20)))
    return {(r.identity_id, json.dumps(r.params, default=str)) for r in reports if r.status == "fail"}


def test_every_form_has_one_row(monkeypatch):
    seen = []
    assert {i for i, _ in _failing(monkeypatch, seen=seen)} == {"warnaar-v2"}  # lambda = p, by design
    assert [form for form, rows in seen if len(rows) != 1] == []
    used = {rows[0] for _, rows in seen}
    # nothing in these suites builds a supercharacter
    assert set(_TABLE) - used == {"characters.module_form, superchar"}


@pytest.mark.parametrize("description", list(_TABLE))
def test_moved_weight_fails_exactly_these_ids(monkeypatch, description):
    before = _failing(monkeypatch)
    after = _failing(monkeypatch, perturbed=description)
    assert {i for i, _ in after - before} == _TABLE[description][1]
