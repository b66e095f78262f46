"""Thresholds of a criterion battery on one pre-scan grid: the same results
as one criterion at a time, one moment vector per grid point, the bracket
invariant on every sweep row, and no rounding on the exact route."""

import functools

import pytest

from ptml import criteria, enumerators, spectra
from ptml.criteria import Verdict
from ptml.pauli import Bipartition
from ptml.thresholds import (GRID_POINTS, CriterionSpec, GHZModel,
                             epsilon_max, epsilon_max_battery, evaluate,
                             fig1_criteria, fig2_criteria, make_model,
                             sweep_fig1, sweep_fig2)

FIG2_ORDERS = range(3, 10)


def _ame6(s):
    return make_model("ame6", 6, Bipartition(6, frozenset(range(1, s + 1))))


BATTERIES = {
    "ghz4-fig1": (functools.partial(GHZModel, 4), fig1_criteria()),
    "ghz6-fig1": (functools.partial(GHZModel, 6), fig1_criteria()),
    **{f"ame6-cut{s}-fig2": (functools.partial(_ame6, s),
                             fig2_criteria(FIG2_ORDERS)) for s in (1, 2, 3)},
}


class CountingModel:
    """A model that records every moments call it passes on."""

    def __init__(self, model):
        self._model = model
        self.calls = []

    def moments(self, eps, m_max):
        self.calls.append((eps, m_max))
        return self._model.moments(eps, m_max)

    def __getattr__(self, name):
        return getattr(self._model, name)


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_battery_equals_one_criterion_at_a_time(name):
    build, specs = BATTERIES[name]
    model = build()
    assert (epsilon_max_battery(specs, model)
            == [epsilon_max(spec, model) for spec in specs])


class ScriptedPPT(GHZModel):
    """GHZ on four qubits, with a PPT verdict that flips three times: no
    depolarized state's, so no theorem may skip a node."""

    separable_from = None

    def ppt(self, eps):
        hit = eps < 0.3 or 0.5 < eps < 0.7
        return Verdict(hit, lambda: 1.0 if hit else -1.0, exact=False)


def test_battery_keeps_each_criterion_flags():
    specs = [CriterionSpec.parse(t)
             for t in ("ppt", "klm:2,3,4", "stieltjes:5", "fidelity")]
    model = ScriptedPPT(4)
    got = epsilon_max_battery(specs, model)
    assert got == [epsilon_max(spec, model) for spec in specs]
    assert [r.flags for r in got] == ["non_monotone", "never_fired", "", ""]
    with pytest.raises(ValueError, match="ppt verdict flips 3 times"):
        epsilon_max_battery(specs, model, strict=True)
    assert epsilon_max_battery(specs[1:], model, strict=True) == got[1:]


def _order_read(spec, model):
    """The moment order a verdict reads: none for stieltjes at a Hankel
    size of at least the model's rank bound, which PPT decides."""
    bound = model.hankel_rank_bound
    if (spec.kind == "stieltjes" and bound is not None
            and (spec.m + 1) // 2 >= bound):
        return 0
    return spec.max_order


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_battery_takes_one_moment_vector_per_grid_point(name):
    build, specs = BATTERIES[name]
    model = CountingModel(build())
    results = epsilon_max_battery(specs, model)
    orders = [_order_read(spec, model) for spec in specs]
    top = max(orders)
    # the nodes below 2/3, from where local noise leaves the state
    # separable, and eps = 1
    nodes = [i / 64 for i in range(GRID_POINTS) if 3 * i < 128] + [1.0]
    assert model.calls[:len(nodes)] == [(eps, top) for eps in nodes]
    # every later call is one bisection step of one criterion that reads
    # moments, at that criterion's own order
    steps = sorted(m for m, r in zip(orders, results)
                   if m for _ in range(r.iterations))
    assert sorted(m for _, m in model.calls[len(nodes):]) == steps


def _assert_bracket(row, model):
    spec = CriterionSpec.parse(row["criterion"])
    if row["flags"] == "never_fired":
        assert row["eps_max"] == row["bracket"] == 0.0
        return
    assert evaluate(spec, model, row["eps_max"] - row["bracket"]).entangled
    assert not evaluate(spec, model, row["eps_max"] + row["bracket"]).entangled


def test_sweep_rows_keep_the_bracket_invariant():
    for row in sweep_fig1([4, 6]):
        _assert_bracket(row, GHZModel(row["n"]))
    models = {s: _ame6(s) for s in (1, 2, 3)}
    for row in sweep_fig2(FIG2_ORDERS):
        _assert_bracket(row, models[int(row["cut"].split("|")[0])])


def test_exact_thresholds_round_no_moment(monkeypatch):
    specs = [CriterionSpec.parse(t)
             for t in ("stieltjes:9", "klm:7,8,9", "descartes:9")]
    model = _ame6(3)
    want = [epsilon_max(spec, model) for spec in specs]

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact moment was rounded")

    for module in (spectra, enumerators):
        monkeypatch.setattr(module, "round_dyadic", forbidden)
    monkeypatch.setattr(criteria, "_round_once", forbidden)
    model = _ame6(3)
    assert [epsilon_max(spec, model) for spec in specs] == want
    assert epsilon_max_battery(specs, model) == want
    with pytest.raises(AssertionError):
        model.moments(0.3, 9).p(1)
