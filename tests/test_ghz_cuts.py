"""GHZ on every cut and every n: the closed-form GHZModel against its
oracles, the enumerator tables (StabilizerModel) and the density matrix."""

import pytest
from mpmath import mpf

from ptml.dense import state_from_group
from ptml.pauli import Bipartition, state_catalog
from ptml.thresholds import (CriterionSpec, DenseModel, GHZModel,
                             StabilizerModel, epsilon_max, make_model)

CUTS = [(n, a) for n in range(2, 10) for a in range(1, n)]
THRESHOLD_CRITERIA = ("ppt", "stieltjes:7", "klm:5,6,7", "descartes:7",
                      "fidelity", "purity")


def _cut(n, a):
    return Bipartition(n, frozenset(range(1, a + 1)))


@pytest.mark.parametrize("n,a", CUTS)
def test_ghz_model_matches_enumerator_oracle(n, a):
    fast = make_model("ghz", n, _cut(n, a))
    oracle = make_model("ghz", n, _cut(n, a), model="enumerator")
    assert isinstance(fast, GHZModel) and isinstance(oracle, StabilizerModel)
    if 2 * a != n:
        assert fast.describe() == oracle.describe()
    for eps in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
        p, q = fast.moments(eps, 9), oracle.moments(eps, 9)
        for k in range(1, 10):
            assert abs(p.p(k) - q.p(k)) <= mpf(10) ** -100 * abs(q.p(k)), k
    for i in range(101):
        eps = i / 100
        assert fast.ppt(eps).entangled == oracle.ppt(eps).entangled, eps
    for label in THRESHOLD_CRITERIA:
        spec = CriterionSpec.parse(label)
        got = epsilon_max(spec, fast).eps_max
        want = epsilon_max(spec, oracle).eps_max
        assert abs(got - want) <= 2e-9, (label, got, want)


def test_ghz_model_schatten_sums_match_dense():
    n, bip = 7, Bipartition(7, frozenset({2, 4, 6}))
    g = state_catalog("ghz", n)
    fast = GHZModel(n, bip)
    dense = DenseModel(state_from_group(g), bip, group=g)
    for eps in (0.0, 0.1, 0.35, 0.6, 1.0):
        p, q = fast.moments(eps, 7), dense.moments(eps, 7)
        for k in range(1, 8):
            assert abs(p.ptilde(k) - q.ptilde(k)) <= 1e-12, (eps, k)
            assert abs(p.p(k) - q.p(k)) <= 1e-12, (eps, k)
        assert fast.ppt(eps).entangled == dense.ppt(eps).entangled

