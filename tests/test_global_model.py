"""Global noise as the stabilizer model with one-step weights, and the one
model protocol every make_model route exposes.

GlobalNoiseModel supplies only its data (three polynomials in 1 - eps and
the enumerators (1, 2^n - 1) / 2^n and (1, 2^(|A|-r) - 1) / 2^|A|), so its
fidelity and purities are exact Fractions like StabilizerModel's, and its
hankel_rank_bound counts the levels it keeps.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, to_rational

from ptml import criteria
from ptml.criteria import Verdict, ppt_verdict
from ptml.dense import depolarize_global, pt_spectrum, state_from_group
from ptml.pauli import Bipartition
from ptml.spectra import DEFAULT_DIGITS, MomentVector, power_sums
from ptml.thresholds import (CriterionSpec, DenseModel, GHZModel,
                             GHZStabilizerModel, GlobalNoiseModel,
                             StabilizerModel, epsilon_max, evaluate,
                             make_model)
from stabilizers import random_cut, random_group


def _value(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


def _rounded_once(margin, exact, digits) -> bool:
    """Whether an mpf margin is the exact value rounded once to digits."""
    return abs(_value(margin) - exact) <= abs(exact) / 2 ** dps_to_prec(digits)


# ------------------------------------------------ exact fidelity and purity


def test_ghz_40_fidelity_threshold_brackets_the_exact_root():
    # F = (1 + (2^n - 1)(1 - eps)) / 2^n = 1/2 at eps = 2^(n-1) / (2^n - 1);
    # the float sum's 1e-10 tolerance put the threshold 9.4656e-10 from it,
    # outside its 9.461e-10 bracket
    n = 40
    model = make_model("ghz", n, Bipartition(n, frozenset(range(1, 21))),
                       noise="global")
    res = epsilon_max(CriterionSpec("fidelity"), model)
    star = Fraction(2 ** (n - 1), 2 ** n - 1)
    assert abs(Fraction(res.eps_max) - star) <= Fraction(res.bracket)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 10 ** 6),
       eps=st.floats(0, 1))
def test_global_fidelity_and_purity_verdicts_are_exact(n, seed, eps):
    model = GlobalNoiseModel(random_group(n, seed), random_cut(n, seed))
    r, size = model.bell_pairs, len(model.bip.a_set)
    e = Fraction(eps)
    q = (1 - e) ** 2
    fidelity = (1 - e) + e / 2 ** n
    glob = q + (1 - q) / 2 ** n
    sub = q / 2 ** r + (1 - q) / 2 ** size
    assert model.fidelity(eps) == fidelity
    assert model.purities(eps) == (glob, sub)
    v = evaluate(CriterionSpec("fidelity"), model, eps)
    assert v.entangled == (r >= 1 and fidelity > Fraction(1, 2))
    # the gap to the bound used: 1/2, or 1 with no Bell pair across the cut
    bound = Fraction(1, 2) if r else 1
    assert _rounded_once(v.margin, fidelity - bound, DEFAULT_DIGITS)
    v = evaluate(CriterionSpec("purity"), model, eps)
    assert v.entangled == (glob > sub)
    assert _rounded_once(v.margin, glob - sub, DEFAULT_DIGITS)


# ------------------------------------------------------------- rank bound


def _distinct_nonzero(values, tol=1e-9) -> int:
    values = sorted(v for v in values if abs(v) > tol)
    return sum(1 for a, b in zip([None] + values, values)
               if a is None or b - a > tol)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 10 ** 6),
       eps=st.sampled_from((0.1, 0.37, 0.61, 0.83)))
def test_global_rank_bound_counts_the_dense_eigenvalues(n, seed, eps):
    g, bip = random_group(n, seed), random_cut(n, seed)
    model = GlobalNoiseModel(g, bip)
    dense = pt_spectrum(depolarize_global(state_from_group(g), eps), bip)
    eigs = [lam for lam, mu in dense.entries for _ in range(mu)]
    assert model.hankel_rank_bound == _distinct_nonzero(eigs)
    r = model.bell_pairs
    assert model.hankel_rank_bound == (2 if r == 0 or 2 * r == n else 3)


# --------------------------------------------------------- model protocol


ROUTES = {
    "ghz local": lambda: GHZModel(4),
    "ghz stabilizer": lambda: make_model("ghz", 4),
    "enumerator": lambda: make_model("ghz", 4, model="enumerator"),
    "dense": lambda: make_model("ghz", 4, model="dense"),
    "stabilizer": lambda: make_model("ame6", 6, bip=Bipartition(
        6, frozenset({1, 2}))),
    "global": lambda: make_model("ame6", 6, bip=Bipartition(
        6, frozenset({1, 2})), noise="global"),
}
ROUTE_TYPES = {"ghz local": GHZModel, "ghz stabilizer": GHZStabilizerModel,
               "enumerator": StabilizerModel,
               "dense": DenseModel, "stabilizer": StabilizerModel,
               "global": GlobalNoiseModel}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_exposes_the_model_protocol(route):
    model = ROUTES[route]()
    assert type(model) is ROUTE_TYPES[route]
    assert isinstance(model.describe(), str)
    assert model.bell_pairs >= 1
    assert model.hankel_rank_bound is None or model.hankel_rank_bound >= 1
    assert not hasattr(model, "digits")
    for eps in (0.0, 0.3, 0.8125):
        p = model.moments(eps, 5)
        assert isinstance(p, MomentVector) and len(p) == 5
        assert float(p.p(1)) == pytest.approx(1.0)
        assert float(p.ptilde(1)) >= 1 - 1e-12
        if p.exact is not None:
            nums, s = p.exact
            entries, s_spec = model._pt_spectrum(eps)
            entries = list(entries)
            assert s_spec == s
            for k in range(1, 6):
                want = Fraction(nums[k - 1], 2 ** (s * k))
                assert want == sum(Fraction(a) ** k * mu
                                   for a, mu in entries) / 2 ** (s * k)
                assert _rounded_once(p.p(k), want, p.digits)
        assert isinstance(model.ppt(eps), Verdict)
        assert 0 <= float(model.fidelity(eps)) <= 1
        glob, sub = model.purities(eps)
        assert 0 < float(glob) <= 1 and 0 < float(sub) <= 1
        for kind in ("ppt", "fidelity", "purity", "stieltjes:5",
                     "descartes:4", "klm:1,2,3"):
            v = evaluate(CriterionSpec.parse(kind), model, eps)
            assert isinstance(v.entangled, bool)
            float(v.margin)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_decides_ppt_through_ppt_verdict(route, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(ppt_verdict(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(criteria, "ppt_verdict", counted)
    model = ROUTES[route]()
    for eps in (0.0, 0.3, 0.8125):
        assert model.ppt(eps) is calls[-1]
    assert len(calls) == 3


# ------------------------------------------------ global moments


@pytest.mark.parametrize("name,n,cut", [
    ("zero", 5, {1, 2}), ("ghz", 12, {1}), ("bell_pairs", 10, None),
    ("ame6", 6, {1, 2, 3}), ("ghz", 300, None)])
def test_global_moments_are_the_power_sums_of_the_levels(name, n, cut):
    # the three levels' power sums are the oracle of the Horner route
    bip = None if cut is None else Bipartition(n, frozenset(cut))
    model = make_model(name, n, bip, noise="global")
    rng = random.Random(n)
    deep = [rng.randrange(1, 2 ** f, 2) / 2 ** f for f in (7, 17, 29)]
    for eps in [i / 64 for i in range(65)] + deep:
        entries, s = model._pt_spectrum(eps)
        assert model.moments(eps, 15).exact == (power_sums(entries, 15), s)

