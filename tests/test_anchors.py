"""Which reports see each builder in src/.

Each row of the two tables below names the exact set of identity ids
that newly fail, in `verify --suite all --m 2 --order 20` plus
`verify --suite fermionic --m 2 --order 20`, once the row's output moves:
- `_TABLE`: every theta product of the package is a `forms.ThetaForm`
  evaluated by `forms.theta_form`.  Each row selects the forms of one
  description by their data and moves one weight (the first a_j, by 1)
  in every form it selects.
- `_BUILDERS`: the builders that are not ThetaForms, `forms.eta_quotient`
  (one row per `powers` tuple), `fermionic._multi_sum` and the NS
  characters' `characters._ns_sum`.  Each row selects calls by their arguments
  and moves one coefficient of every series they return, the leading
  one, by 1; every report that reads such a series compares it there.

An empty set is a row no report can see that way.  `_BLIND` lists them,
and every other row must name at least one id:
- the supercharacters and f2/eta, which no suite builds (ROADMAP item 1);
- the exact rank's columns, whose check sees only a dependent column
  (`test_duplicated_character_column_fails`), which a moved weight does
  not make.
"""

import json
from fractions import Fraction as F

import pytest

from swqseries import characters as ch
from swqseries import cli, fermionic, forms
from swqseries import qseries as qs

from conftest import reset_caches

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
    "numeric.ns_space_rank, module_form without f/eta": (
        lambda f: not f.powers and _a_and_b(f),
        set(),
    ),
    "numeric.ns_space_rank, dTheta_j": (lambda f: not f.powers and not f.weights[0][1], set()),
    "characters._pair_sum, (f/eta) Theta_{m-i}": (
        lambda f: f.powers == ch.F_OVER_ETA and f.k == _HALF and not f.weights[0][2],
        {"char-pair-sum"},
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


def _powers(powers):
    return forms, "eta_quotient", lambda args: args[0] == powers


# row -> (module, builder, selects its calls by their arguments, ids that fail once its output moves)
_BUILDERS = {
    # char-decomposition and char-pair-sum have f/eta on both sides (ROADMAP item 14)
    "forms.eta_quotient, f/eta": (
        *_powers(ch.F_OVER_ETA),
        {"char-integrality", "fermionic-char", "dtheta-eta-double-product", "theta-double-sum"},
    ),
    "forms.eta_quotient, f2/eta": (*_powers(ch.F2_OVER_ETA), set()),
    "forms.eta_quotient, 1/eta": (*_powers(((1, -1),)), {"eta-half-inverse", "warnaar-v1", "warnaar-v2"}),
    "forms.eta_quotient, eta^3": (*_powers(((1, 3),)), {"dtheta-eta-weber-cube"}),
    "forms.eta_quotient, f = eta^2/(eta(tau/2) eta(2tau))": (
        *_powers(((1, 2), (F(1, 2), -1), (2, -1))),
        {"weber-eta-quotient"},
    ),
    "forms.eta_quotient, 1/eta(tau/2)": (
        *_powers(((F(1, 2), -1),)),
        {"eta-half-inverse", "durfee-half", "durfee-mixed"},
    ),
    "forms.eta_quotient, eta/eta(2tau)": (*_powers(((1, 1), (2, -1))), {"fermionic-char", "theta-double-sum"}),
    "forms.eta_quotient, eta(2tau) eta(tau/2)": (
        *_powers(((2, 1), (F(1, 2), 1))),
        {"eta-double-sum", "dtheta-eta-double-product"},
    ),
    "fermionic._multi_sum": (
        fermionic,
        "_multi_sum",
        lambda args: True,
        {"warnaar-v1", "warnaar-v2", "fermionic-char"},
    ),
    # ns_irr_char and the decomposition's sum of NS characters are both one _ns_sum
    "characters.ns_irr_char": (ch, "_ns_sum", lambda args: True, {"char-decomposition"}),
}

# the rows no report sees, for the reasons the module docstring gives
_BLIND = {
    "characters.module_form, superchar",
    "numeric.ns_space_rank, module_form without f/eta",
    "numeric.ns_space_rank, dTheta_j",
    "forms.eta_quotient, f2/eta",
}


def _failing(monkeypatch, spies=()):
    """(id, params) of every failing report of suite all and of each suite
    outside it at m = 2, order 20, each (module, name, wrap) of `spies`
    replacing the builder module.name by wrap(builder)."""
    reset_caches()  # no series built in another run is shared, and no spy hides a cache yet
    for module, name, wrap in spies:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    # the rows of `all` in its order, then the rest, as `cli._SUITES` marks them
    suites = sorted(cli._SUITES, key=lambda name: not cli._SUITES[name][1])
    reports = cli._dispatch(suites, cli.RunConfig("verify", m=2, order=F(20)))
    return {(r.identity_id, json.dumps(r.params, default=str)) for r in reports if r.status == "fail"}


def _form_spy(perturbed=None, seen=None):
    """A spy on forms.theta_form that moves the first a_j of every form
    that the _TABLE row `perturbed` selects by 1; `seen` collects each
    form's rows."""

    def wrap(evaluate):
        def theta_form(form, order):
            rows = [name for name, (selects, _) in _TABLE.items() if selects(form)]
            if seen is not None:
                seen.append((form, rows))
            if perturbed in rows:
                (j, a, b), *rest = form.weights
                form = form._replace(weights=((j, a + 1, b), *rest))
            return evaluate(form, order)

        return theta_form

    return [(forms, "theta_form", wrap)]


def _builder_spies(perturbed=None, seen=None):
    """Spies on the builders of _BUILDERS that add 1 at the leading
    exponent of every series the row `perturbed` selects; `seen` collects
    each call's rows."""

    def spy(module, name):
        def wrap(build):
            def moved(*args):
                s = build(*args)
                rows = [
                    row
                    for row, (mod, n, selects, _) in _BUILDERS.items()
                    if (mod, n) == (module, name) and selects(args)
                ]
                if seen is not None:
                    seen.append((name, args, rows))
                if perturbed in rows:
                    s = qs.add(s, qs.make_series([(s.leading()[0], 1)], s.order))
                return s

            return moved

        return module, name, wrap

    return [spy(module, name) for module, name in {(mod, n) for mod, n, _, _ in _BUILDERS.values()}]


def test_every_form_has_one_row(monkeypatch):
    seen = []
    assert {i for i, _ in _failing(monkeypatch, _form_spy(seen=seen))} == {"warnaar-v2"}  # lambda = p, by design
    assert [form for form, rows in seen if len(rows) != 1] == []
    used = {rows[0] for _, rows in seen}
    # nothing in these suites builds a supercharacter
    assert set(_TABLE) - used == {"characters.module_form, superchar"}


def test_every_builder_call_has_one_row(monkeypatch):
    seen = []
    assert {i for i, _ in _failing(monkeypatch, _builder_spies(seen=seen))} == {"warnaar-v2"}
    assert [(name, args) for name, args, rows in seen if len(rows) != 1] == []
    used = {rows[0] for _, _, rows in seen}
    # nothing in these suites builds f2/eta
    assert set(_BUILDERS) - used == {"forms.eta_quotient, f2/eta"}


def test_only_documented_rows_are_blind():
    rows = {**_TABLE, **{row: value[2:] for row, value in _BUILDERS.items()}}
    assert {row for row, (_, ids) in rows.items() if not ids} == _BLIND


@pytest.mark.parametrize("description", list(_TABLE))
def test_moved_weight_fails_exactly_these_ids(monkeypatch, description):
    before = _failing(monkeypatch, _form_spy())
    after = _failing(monkeypatch, _form_spy(perturbed=description))
    assert {i for i, _ in after - before} == _TABLE[description][1]


@pytest.mark.parametrize("row", list(_BUILDERS))
def test_moved_coefficient_fails_exactly_these_ids(monkeypatch, row):
    before = _failing(monkeypatch)
    after = _failing(monkeypatch, _builder_spies(perturbed=row))
    assert {i for i, _ in after - before} == _BUILDERS[row][3]
