"""Verdicts that theorems decide, and the threshold grid that skips them.

On an exact or certified model the verdicts are the true ones, so two facts
hold for them (epsilon_max_battery gives the proofs):

  (a) under local noise nothing fires at eps >= 2/3, where every one-qubit
      depolarizing channel is entanglement breaking;
  (b) ppt and fidelity fire on a run of noise rates from 0.

These tests check both on the 65 grid nodes, check (a) on the dense oracle
apart from the models, hold epsilon_max_battery equal to a full scan of
every node, and count the verdicts it saves.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from ptml.criteria import Verdict
from ptml.dense import depolarize_local, pt_spectrum, state_from_group
from ptml.pauli import Bipartition
from ptml.thresholds import (BRACKET_TOL, GRID_POINTS, CriterionSpec,
                             GHZModel, GlobalNoiseModel, StabilizerModel,
                             _final_crossing, epsilon_max, epsilon_max_battery,
                             evaluate, fig1_criteria, fig2_criteria,
                             make_model)
from stabilizers import random_cut, random_group

NODES = [i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
SEPARABLE = 43  # the first node i with i/64 >= 2/3
MONOTONE = (CriterionSpec("ppt"), CriterionSpec("fidelity"))
LOCAL_SPECS = tuple({s.label: s for s in fig1_criteria()
                     + fig2_criteria(range(3, 10))}.values())
RANDOM = [(n, seed) for n in range(2, 11) for seed in (1, 2)]


def _cuts(n: int, symmetric: bool = False):
    """Every cut of n qubits, up to swapping sides (side A holds qubit 1),
    or one per size of side A for a state symmetric under permutations."""
    if symmetric:
        return [frozenset(range(1, a + 1)) for a in range(1, n)]
    rest = range(2, n + 1)
    return [frozenset({1, *more}) for k in range(n - 1)
            for more in itertools.combinations(rest, k)]


def _catalog(name: str, n: int, symmetric: bool = False) -> list:
    return [make_model(name, n, Bipartition(n, a))
            for a in _cuts(n, symmetric)]


MODELS = {
    **{f"ghz{n}": functools.partial(_catalog, "ghz", n, True)
       for n in range(2, 15)},
    "ame6": functools.partial(_catalog, "ame6", 6, True),
    "bell_pairs4": functools.partial(_catalog, "bell_pairs", 4),
    "bell_pairs6": functools.partial(_catalog, "bell_pairs", 6),
    "zero4": functools.partial(_catalog, "zero", 4),
    "ghz_past_cap": lambda: [GHZModel(n) for n in (16, 20, 180)],
    "random": lambda: [StabilizerModel(random_group(n, seed),
                                       random_cut(n, seed))
                       for n, seed in RANDOM],
}


def _row(spec, model) -> list:
    return [evaluate(spec, model, eps).entangled for eps in NODES]


def _full_scan(specs, model, tol=BRACKET_TOL) -> list:
    """The thresholds from every spec's verdict at all 65 nodes."""
    return [_final_crossing(spec, model, NODES, _row(spec, model), tol, False)
            for spec in specs]


@pytest.mark.parametrize("family", sorted(MODELS))
def test_local_noise_verdicts_obey_both_theorems(family):
    for model in MODELS[family]():
        assert model.separable_from == Fraction(2, 3)
        for spec in MONOTONE:
            row = _row(spec, model)
            fired = row.index(False)
            assert not any(row[fired:]), (model.describe(), spec.label, row)
        for eps in NODES[SEPARABLE:]:
            p = model.moments(eps, 9)
            assert not [s.label for s in LOCAL_SPECS
                        if evaluate(s, model, eps, p).entangled], (
                model.describe(), eps)


def test_global_noise_ppt_and_fidelity_are_monotone():
    model = make_model("ame6", 6, Bipartition(6, frozenset({1, 2})),
                       noise="global")
    for spec in MONOTONE:
        row = _row(spec, model)
        fired = row.index(False)
        assert fired > 0 and not any(row[fired:]), (spec.label, row)


@pytest.mark.parametrize("n", range(2, 7))
def test_dense_states_are_ppt_where_local_noise_breaks_entanglement(n):
    for seed in range(3):
        rho = depolarize_local(state_from_group(random_group(n, seed)), 2 / 3)
        for a in _cuts(n):
            low = pt_spectrum(rho, Bipartition(n, a)).min_eigenvalue()
            assert low >= -1e-12, (n, seed, sorted(a), low)


GHZ_LARGE_N = [CriterionSpec.parse(t) for t in (
    "ppt", "fidelity", "purity", "descartes:7", "stieltjes:7", "klm:5,6,7")]
ORACLE_CASES = {
    **{f"fig1-ghz{n}": (functools.partial(make_model, "ghz", n),
                        fig1_criteria()) for n in (4, 8, 14)},
    **{f"fig2-ame6-cut{s}": (
        functools.partial(make_model, "ame6", 6,
                          Bipartition(6, frozenset(range(1, s + 1)))),
        fig2_criteria(range(3, 31))) for s in (1, 2, 3)},
    "ghz_large_n-12": (functools.partial(make_model, "ghz", 12), GHZ_LARGE_N),
    "ghz_large_n-180": (functools.partial(make_model, "ghz", 180),
                        GHZ_LARGE_N),
    **{f"random{n}-seed{seed}": (
        lambda n=n, seed=seed: StabilizerModel(random_group(n, seed),
                                               random_cut(n, seed)),
        fig2_criteria(range(3, 10))) for n, seed in ((7, 3), (10, 1))},
    "global-random6": (
        lambda: GlobalNoiseModel(random_group(6, 4), random_cut(6, 4)),
        fig2_criteria(range(3, 10))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_battery_equals_the_full_scan(name):
    build, specs = ORACLE_CASES[name]
    model = build()
    assert epsilon_max_battery(specs, model) == _full_scan(specs, model)


class ScriptedRun:
    """A PPT verdict that fires below edge, as a depolarized state's may,
    on a model that declares separable_from = 2/3."""

    separable_from = Fraction(2, 3)

    def __init__(self, edge):
        self.edge = edge

    def ppt(self, eps):
        return Verdict(eps < self.edge, lambda: self.edge - eps)

    def describe(self):
        return f"fires below {self.edge}"


# no run, one node, mid grid, and runs ending at nodes 41 and 42, the last
# below 2/3
@pytest.mark.parametrize("edge", [0.0, 0.01, 0.3, 0.65, 0.66])
def test_binary_search_finds_the_end_of_every_run(edge):
    model, spec = ScriptedRun(edge), CriterionSpec("ppt")
    assert epsilon_max(spec, model) == _full_scan([spec], model)[0]


class Counting:
    """Passes a model on and records each PPT, fidelity and moments call."""

    def __init__(self, model):
        self._model = model
        self.calls = []

    def ppt(self, eps):
        self.calls.append(("ppt", eps))
        return self._model.ppt(eps)

    def fidelity(self, eps):
        self.calls.append(("fidelity", eps))
        return self._model.fidelity(eps)

    def moments(self, eps, m_max):
        self.calls.append(("moments", eps))
        return self._model.moments(eps, m_max)

    def __getattr__(self, name):
        return getattr(self._model, name)

    def grid_nodes(self, kind: str) -> int:
        return sum(1 for k, eps in self.calls
                   if k == kind and (eps * (GRID_POINTS - 1)).is_integer())


def _ame6(s: int, model=None):
    return make_model("ame6", 6, Bipartition(6, frozenset(range(1, s + 1))),
                      model=model)


COUNTED = {"ghz12": functools.partial(make_model, "ghz", 12),
           **{f"ame6-cut{s}": functools.partial(_ame6, s) for s in (1, 2, 3)}}


@pytest.mark.parametrize("name", sorted(COUNTED))
@pytest.mark.parametrize("label,kind", [("ppt", "ppt"),
                                        ("fidelity", "fidelity"),
                                        ("stieltjes:29", "ppt")])
def test_monotone_thresholds_take_at_most_31_verdicts(name, label, kind):
    model = Counting(COUNTED[name]())
    r = epsilon_max(CriterionSpec.parse(label), model)
    assert not r.never_fired and r.iterations == 23
    assert len(model.calls) == sum(k == kind for k, _ in model.calls) <= 31


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_klm_computes_moments_below_two_thirds_and_at_one(name):
    model = Counting(COUNTED[name]())
    r = epsilon_max(CriterionSpec.parse("klm:5,6,7"), model)
    assert model.grid_nodes("moments") == SEPARABLE + 1
    assert len(model.calls) == SEPARABLE + 1 + r.iterations


def test_dense_model_takes_every_node():
    for spec, kind in ((CriterionSpec("ppt"), "ppt"),
                       (CriterionSpec.parse("klm:1,2,3"), "moments")):
        model = Counting(_ame6(3, model="dense"))
        r = epsilon_max(spec, model)
        assert model.grid_nodes(kind) == GRID_POINTS
        assert len(model.calls) == GRID_POINTS + r.iterations
