"""GHZ on every cut and every n: the closed-form GHZModel, which
make_model builds past the character cap, against its oracles, the
enumerator tables (StabilizerModel) and the density matrix."""

from fractions import Fraction

import pytest
from mpmath import mpf, workdps

from ptml.dense import depolarize_local, pt_spectrum, state_from_group
from ptml.pauli import Bipartition, state_catalog
from ptml.thresholds import (CriterionSpec, DenseModel, GHZModel,
                             StabilizerModel, epsilon_max, evaluate,
                             make_model)
from stabilizers import encloses

CUTS = [(n, a) for n in range(2, 10) for a in range(1, n)]
THRESHOLD_CRITERIA = ("ppt", "stieltjes:7", "klm:5,6,7", "descartes:7",
                      "fidelity", "purity")


def _cut(n, a):
    return Bipartition(n, frozenset(range(1, a + 1)))


@pytest.mark.parametrize("n,a", CUTS)
def test_ghz_model_matches_enumerator_oracle(n, a):
    fast = GHZModel(n, _cut(n, a))
    oracle = make_model("ghz", n, _cut(n, a), model="enumerator")
    assert type(oracle) is StabilizerModel
    if 2 * a != n:
        assert fast.describe() == oracle.describe()
    for eps in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
        p, (nums, s) = fast.moments(eps, 9), oracle.moments(eps, 9).exact
        for k, (lo, hi) in enumerate(zip(*p.bounds), 1):
            assert encloses(lo, hi, Fraction(nums[k - 1], 1 << s * k)), k
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


@pytest.mark.parametrize("n", range(3, 10))
def test_ppt_margin_on_uneven_cuts_is_the_dense_min_eigenvalue(n):
    # off the balanced cut the least band eigenvalue lambda_[n/2] can lie
    # below d - g (from n = 4 on), and then -lambda_min is the margin
    rho = state_from_group(state_catalog("ghz", n))
    band = 0
    for i in range(5, 11):
        eps = i / 10
        noisy = depolarize_local(rho, eps)
        for a in range(1, n):
            if 2 * a == n:
                continue
            v = evaluate(CriterionSpec("ppt"), GHZModel(n, _cut(n, a)), eps)
            low = pt_spectrum(noisy, _cut(n, a)).min_eigenvalue()
            if v.entangled:
                continue
            assert abs(v.margin + low) <= 1e-12, (a, eps)
            with workdps(30):
                u, v = 1 - mpf(eps) / 2, mpf(eps) / 2
                d = (u ** (n - a) * v ** a + u ** a * v ** (n - a)) / 2
                band += abs(low - float(d - (1 - mpf(eps)) ** n / 2)) > 1e-9
    assert band or n == 3
