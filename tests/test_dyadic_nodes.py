"""Thresholds evaluate their criteria only at short dyadic noise rates.

The pre-scan grid is i / (GRID_POINTS - 1) = i / 64, so 1 - eps has at most
six fraction bits there, and each bisection midpoint of two such nodes adds
one.  The exact stabilizer verdicts run over integer numerators whose length
grows with that bit count.  These tests record every noise rate a threshold
asks for and bound its bit count, and check the bracket invariant of the
exact models for every criterion kind.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptml import thresholds
from ptml.enumerators import dyadic_one_minus
from ptml.pauli import Bipartition
from ptml.thresholds import (GRID_POINTS, CriterionSpec, GlobalNoiseModel,
                             StabilizerModel, epsilon_max, evaluate,
                             fig2_criteria, make_model)
from stabilizers import random_cut, random_group

GRID_BITS = 6
SMALL_BATTERY = tuple(CriterionSpec.parse(t) for t in (
    "ppt", "fidelity", "purity", "stieltjes:3", "stieltjes:7",
    "descartes:6", "klm:3,4,5", "klm:1,3,5"))


def _ame6(s, noise="local"):
    return make_model("ame6", 6, Bipartition(6, frozenset(range(1, s + 1))),
                      noise=noise)


def _random(n, seed, cls=StabilizerModel):
    return cls(random_group(n, seed), random_cut(n, seed))


MODELS = {
    **{f"ame6-cut{s}": (functools.partial(_ame6, s),
                        fig2_criteria(range(3, 10))) for s in (1, 2, 3)},
    **{f"random{n}-seed{seed}": (functools.partial(_random, n, seed),
                                 SMALL_BATTERY)
       for n, seed in ((3, 11), (5, 1), (7, 2), (8, 3))},
    "global-ame6-cut2": (functools.partial(_ame6, 2, "global"),
                         SMALL_BATTERY),
    "global-bell_pairs8": (
        lambda: make_model("bell_pairs", 8,
                           Bipartition(8, frozenset({1, 3, 4})),
                           noise="global"), SMALL_BATTERY),
    "global-random7-seed4": (
        functools.partial(_random, 7, 4, GlobalNoiseModel), SMALL_BATTERY),
}


class RecordingMoments:
    """Passes a model on and records the noise rate of each moments call."""

    def __init__(self, model):
        self._model = model
        self.seen = []

    def moments(self, eps, m_max):
        self.seen.append(eps)
        return self._model.moments(eps, m_max)

    def __getattr__(self, name):
        return getattr(self._model, name)


def test_grid_nodes_are_dyadic():
    assert GRID_POINTS - 1 == 1 << GRID_BITS
    grid = [i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
    assert max(dyadic_one_minus(eps)[1] for eps in grid) == GRID_BITS


@pytest.mark.parametrize("name", sorted(MODELS))
def test_threshold_noise_rates_are_short_dyadics(name, monkeypatch):
    build, specs = MODELS[name]
    model = RecordingMoments(build())
    asked = []

    def recording_evaluate(spec, model, eps, p=None):
        asked.append(eps)
        return evaluate(spec, model, eps, p)

    monkeypatch.setattr(thresholds, "evaluate", recording_evaluate)
    for spec in specs:
        asked.clear()
        model.seen.clear()
        r = epsilon_max(spec, model)
        calls = GRID_POINTS + r.iterations
        assert len(asked) == calls
        # one vector per verdict, or none when the model's PPT verdict
        # decides (stieltjes past the rank bound)
        reads = thresholds._moment_order(spec, model)
        assert len(model.seen) == (calls if reads else 0)
        for eps in asked + model.seen:
            assert dyadic_one_minus(eps)[1] <= GRID_BITS + r.iterations
        if not r.never_fired:
            # a grid cell of 2^-6 halved r.iterations times, then halved
            assert r.bracket == 2.0 ** -(GRID_BITS + r.iterations + 1)


def _spec(kind, m):
    if kind == "stieltjes":
        return CriterionSpec(kind, m=m | 1)
    if kind == "descartes":
        return CriterionSpec(kind, m=m)
    if kind == "klm":
        # the odd-ended consecutive triple of fig2; even ends never fire
        top = max(3, m | 1)
        return CriterionSpec(kind, triple=(top - 2, top - 1, top))
    return CriterionSpec(kind)


@settings(max_examples=60, deadline=None)
@given(source=st.one_of(
           st.tuples(st.just("ame6"), st.integers(1, 3), st.booleans()),
           st.tuples(st.integers(2, 8), st.integers(0, 10 ** 6),
                     st.booleans())),
       kind=st.sampled_from(("ppt", "fidelity", "purity", "stieltjes",
                             "descartes", "klm")),
       m=st.integers(1, 9))
def test_bracket_invariant_on_exact_models(source, kind, m):
    first, second, global_noise = source
    if first == "ame6":
        model = _ame6(second, "global" if global_noise else "local")
    else:
        model = _random(first, second, GlobalNoiseModel if global_noise
                        else StabilizerModel)
    spec = _spec(kind, m)
    r = epsilon_max(spec, model)
    if r.never_fired:
        assert r.eps_max == r.bracket == 0.0
        return
    assert evaluate(spec, model, r.eps_max - r.bracket).entangled
    assert not evaluate(spec, model, r.eps_max + r.bracket).entangled
