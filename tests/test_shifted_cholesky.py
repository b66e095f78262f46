"""The Hankel test on rounded moments (GHZ, global noise, dense): a Cholesky
factorisation of H + tau I decides it, checked against the smallest
eigenvalue, and no threshold on these routes computes an eigenvalue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from ptml import criteria
from ptml.criteria import (build_hankel, default_tol, hankel_min_eigenvalue,
                           is_shifted_pd, stieltjes)
from ptml.dense import state_from_group
from ptml.pauli import Bipartition, state_catalog
from ptml.spectra import MomentVector
from ptml.thresholds import (CriterionSpec, DenseModel, GHZModel,
                             GlobalNoiseModel, epsilon_max, make_model)
from stabilizers import random_cut, random_group


def _check_against_eigenvalue(p: MomentVector, m: int):
    """The Cholesky decision is -lambda_min > tau wherever lambda_min + tau
    clears the precision floor, and resolves the boundary: H + s I is
    positive definite for s = -lambda_min + floor and not for s =
    -lambda_min - floor."""
    h = build_hankel(p, m)
    norm = max(1, max(abs(x) for row in h.entries for x in row))
    tau = default_tol(p.digits) * norm
    floor = (1e-13 if p.digits is None else mpf(10) ** -p.digits) * norm
    with workdps(p.digits + 10 if p.digits else 15):
        lam = hankel_min_eigenvalue(h, p.digits)
        clear = abs(lam + tau) > floor
        below, above = -lam - floor, -lam + floor
    if clear:
        assert stieltjes(p, m).entangled == (-lam > tau), (m, lam, tau)
    assert is_shifted_pd(h, above, p.digits)
    assert not is_shifted_pd(h, below, p.digits)


orders = st.sampled_from([3, 5, 7, 9, 15])


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(2, 40), st.sampled_from([180, 1000])),
       cut=st.floats(0, 1), eps=st.floats(0, 1), m=orders)
def test_cholesky_decision_matches_eigenvalue_on_ghz(n, cut, eps, m):
    a = min(max(1, int(cut * n)), n - 1)
    model = GHZModel(n, Bipartition(n, frozenset(range(1, a + 1))))
    _check_against_eigenvalue(model.moments(eps, m), m)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["ghz", "zero", "bell_pairs", "ame6"]),
       n=st.integers(1, 20), seed=st.integers(0, 10 ** 6),
       eps=st.floats(0, 1), m=orders)
def test_cholesky_decision_matches_eigenvalue_under_global_noise(
        name, n, seed, eps, m):
    n = 6 if name == "ame6" else 2 * n if name == "bell_pairs" else n + 1
    model = GlobalNoiseModel(state_catalog(name, n), random_cut(n, seed))
    _check_against_eigenvalue(model.moments(eps, m), m)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 10 ** 6),
       noise=st.sampled_from(["local", "global"]), eps=st.floats(0, 1),
       m=st.sampled_from([3, 5, 7, 9]))
def test_cholesky_decision_matches_eigenvalue_on_dense_floats(
        n, seed, noise, eps, m):
    g = random_group(n, seed)
    model = DenseModel(state_from_group(g), random_cut(n, seed), group=g,
                       noise=noise)
    p = model.moments(eps, m)
    assert p.digits is None
    _check_against_eigenvalue(p, m)


def test_rounded_margin_is_raw_and_read_lazily(monkeypatch):
    calls = []
    real = criteria.hankel_min_eigenvalue

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(criteria, "hankel_min_eigenvalue", counted)
    # H_3 = diag(1, -1e-11): -lambda_min = 1e-11 sits under tau = 1e-10, so
    # the verdict is Inconclusive and the margin keeps its positive value
    v = stieltjes(MomentVector((1.0, 0.0, -1e-11)), 3)
    assert not v.entangled and calls == []
    assert v.margin == pytest.approx(1e-11, rel=1e-6)
    assert v.witness == {"m": 3, "min_eigenvalue": -v.margin}
    assert len(calls) == 1
    v = stieltjes(GHZModel(12).moments(0.1, 7), 7)
    assert v.entangled and v.margin > 0


def test_ghz_and_global_thresholds_compute_no_eigenvalue(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an eigenvalue on a threshold path")

    monkeypatch.setattr(criteria, "hankel_min_eigenvalue", forbidden)
    monkeypatch.setattr(mp, "eigsy", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    res = epsilon_max(CriterionSpec.parse("stieltjes:7"), GHZModel(12))
    assert f"{res.eps_max:.12g}" == "0.318571564741"
    glob = make_model("bell_pairs", 8, Bipartition(8, frozenset({1, 3, 4})),
                      noise="global")
    # H_7 sees all three PT levels, so stieltjes:7 is the PPT test there,
    # whose threshold is 2^n / (2^n + 2^r)
    res = epsilon_max(CriterionSpec.parse("stieltjes:7"), glob)
    assert abs(res.eps_max - 2 ** 8 / (2 ** 8 + 2 ** glob.bell_pairs)) \
        <= res.bracket
    for model in (GHZModel(12), GHZModel(180), glob):
        for label in ("ppt", "fidelity", "purity", "stieltjes:3",
                      "klm:5,6,7", "descartes:7"):
            epsilon_max(CriterionSpec.parse(label), model)
    with pytest.raises(AssertionError):
        stieltjes(GHZModel(12).moments(0.1, 7), 7).margin
