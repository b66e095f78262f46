"""The Hankel test on rounded and bounded moments (dense floats, GHZ past
the character cap) and on exact ones (global noise): checked against the
smallest eigenvalue, and no threshold on these routes computes an
eigenvalue.  Float moments are decided exactly on their binary values,
the Hankel plus FLOAT_TOL on its diagonal eliminated exactly; the others
are certified, so the verdict is the sign of the smallest eigenvalue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from ptml import criteria
from ptml.criteria import (FLOAT_TOL, build_hankel, hankel_min_eigenvalue,
                           is_psd_exact, stieltjes)
from ptml.dense import state_from_group
from ptml.pauli import Bipartition, state_catalog
from ptml.spectra import MomentVector
from ptml.thresholds import (CriterionSpec, DenseModel, GHZModel,
                             GlobalNoiseModel, epsilon_max, make_model)
from stabilizers import random_cut, random_group


def _grid_psd(p: MomentVector, m: int, shift) -> bool:
    """Whether the Hankel of order m plus shift on its diagonal is PSD,
    decided exactly on the moments' binary values A_k / 2^(s k): the
    decision stieltjes takes on floats at shift = tau."""
    a, s = criteria._exact(p)
    size = (m + 1) // 2
    return is_psd_exact([[x + (i == j) * criteria._on_grid(shift, s * (2 * i + 1))
                          for j, x in enumerate(a[i:i + size])]
                         for i in range(size)])


def _check_against_eigenvalue(p: MomentVector, m: int):
    """On floats the decision is -lambda_min > tau wherever lambda_min + tau
    clears the precision floor, and resolves the boundary: the shifted
    Hankel is PSD at shift -lambda_min + floor and not at -lambda_min -
    floor.  Elsewhere the verdict is lambda_min < 0 wherever
    lambda_min clears the noise of the values it is computed from."""
    h = build_hankel(p, m)
    norm = max(1, max(abs(x) for row in h for x in row))
    if p.digits is not None:
        with workdps(p.digits + 10):
            lam = hankel_min_eigenvalue(h, p.digits)
            if abs(lam) > mpf(10) ** -(p.digits - 2) * norm:
                assert stieltjes(p, m).entangled == (lam < 0), (m, lam)
        return
    tau, floor = FLOAT_TOL * norm, 1e-13 * norm
    lam = hankel_min_eigenvalue(h, None)
    if abs(lam + tau) > floor:
        assert stieltjes(p, m).entangled == (-lam > tau), (m, lam, tau)
    assert _grid_psd(p, m, -lam + floor)
    assert not _grid_psd(p, m, -lam - floor)


orders = st.sampled_from([3, 5, 7, 9, 15])


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(2, 40), st.sampled_from([180, 1000])),
       cut=st.floats(0, 1), eps=st.floats(0, 1), m=orders)
def test_grid_decision_matches_eigenvalue_on_ghz(n, cut, eps, m):
    a = min(max(1, int(cut * n)), n - 1)
    model = GHZModel(n, Bipartition(n, frozenset(range(1, a + 1))))
    _check_against_eigenvalue(model.moments(eps, m), m)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["ghz", "zero", "bell_pairs", "ame6"]),
       n=st.integers(1, 20), seed=st.integers(0, 10 ** 6),
       eps=st.floats(0, 1), m=orders)
def test_grid_decision_matches_eigenvalue_under_global_noise(
        name, n, seed, eps, m):
    n = 6 if name == "ame6" else 2 * n if name == "bell_pairs" else n + 1
    model = GlobalNoiseModel(state_catalog(name, n), random_cut(n, seed))
    _check_against_eigenvalue(model.moments(eps, m), m)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 10 ** 6),
       noise=st.sampled_from(["local", "global"]), eps=st.floats(0, 1),
       m=st.sampled_from([3, 5, 7, 9]))
def test_grid_decision_matches_eigenvalue_on_dense_floats(
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
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(criteria, "hankel_min_eigenvalue", counted)
    # H_3 = diag(1, -1e-11): -lambda_min = 1e-11 sits under tau = 1e-10, so
    # the verdict is Inconclusive and the margin keeps its positive value
    v = stieltjes(MomentVector((1.0, 0.0, -1e-11)), 3)
    assert not v.entangled and calls == []
    assert v.margin == pytest.approx(1e-11, rel=1e-6)
    assert v.margin == -calls[0] and len(calls) == 1
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
