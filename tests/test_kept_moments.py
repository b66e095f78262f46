"""Thresholds on one model share its grid moment vectors.

epsilon_max_battery keeps each grid node's moment vector on the model, so a
later threshold on the same model reads a node's vector again only when it
needs a higher order.  Sharing must change no threshold: every criterion
kind gives, field by field, the threshold of a fresh model, in either call
order and after a battery.
"""

import gc
import weakref
from dataclasses import astuple

import pytest

from ptml.pauli import Bipartition
from ptml.thresholds import (CriterionSpec, StabilizerModel, epsilon_max,
                             epsilon_max_battery, make_model)
from stabilizers import random_cut, random_group

EVERY_KIND = tuple(CriterionSpec.parse(t) for t in (
    "ppt", "fidelity", "purity", "stieltjes:3", "stieltjes:7", "stieltjes:9",
    "descartes:4", "descartes:9", "klm:1,2,3", "klm:5,6,7", "klm:7,8,9"))


def _ame6(s):
    return make_model("ame6", 6, Bipartition(6, frozenset(range(1, s + 1))))


BUILDERS = {
    "ghz12": lambda: make_model("ghz", 12),
    "ghz180": lambda: make_model("ghz", 180),
    **{f"ame6-cut{s}": (lambda s=s: _ame6(s)) for s in (1, 2, 3)},
    "global-ghz8": lambda: make_model("ghz", 8, noise="global"),
    "global-bell_pairs6": lambda: make_model(
        "bell_pairs", 6, Bipartition(6, frozenset({1, 3, 4})),
        noise="global"),
    # a random state as in the benchmark's library workload
    "random10-seed3": lambda: StabilizerModel(random_group(10, 3),
                                              random_cut(10, 3)),
    "dense-ghz4": lambda: make_model("ghz", 4, model="dense"),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_reused_model_gives_the_fresh_thresholds(name):
    build, specs = BUILDERS[name], EVERY_KIND
    # every field: eps_max, bracket, iterations, labels and flags
    fresh = [astuple(epsilon_max(spec, build())) for spec in specs]
    forward = build()
    assert [astuple(epsilon_max(spec, forward)) for spec in specs] == fresh
    backward = build()
    assert [astuple(epsilon_max(spec, backward))
            for spec in reversed(specs)] == fresh[::-1]
    # a battery on a model whose grid vectors are already kept
    assert [astuple(r) for r in epsilon_max_battery(specs, backward)] == fresh


def test_kept_vectors_go_with_the_model():
    model = _ame6(3)
    # descartes reads moments, so the model keeps vectors that refer to it
    epsilon_max(CriterionSpec.parse("descartes:9"), model)
    gone = weakref.ref(model)
    del model
    gc.collect()
    assert gone() is None
