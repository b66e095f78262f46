"""GHZ up to the character cap is a stabilizer model (GHZStabilizerModel):
its closed-form polynomials against the character transform, its exact
moments and PT spectrum against the enumerator tables and the mpf oracles
(to their precision), and make_model's route by n."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mpf, workdps
from mpmath.libmp import dps_to_prec

from ptml.enumerators import (CHARACTER_QUBIT_CAP, character_polys,
                              dyadic_one_minus, exact_decayed, ghz_sl_vector)
from ptml.pauli import Bipartition, state_catalog
from ptml.spectra import (ghz_local_moments, ghz_local_spectrum,
                          moments_from_spectrum)
from ptml.thresholds import (CriterionSpec, DenseModel, GHZModel,
                             GHZStabilizerModel, GlobalNoiseModel,
                             StabilizerModel, _moment_order, epsilon_max,
                             make_model)
from stabilizers import encloses

CUTS = [(n, a) for n in range(2, 11) for a in range(1, n)] + [
    (12, 1), (12, 6), (CHARACTER_QUBIT_CAP, 3)]
NODES = [i / 64 for i in range(65)]


def _cut(n, a):
    return Bipartition(n, frozenset(range(1, a + 1)))


def _deep(rng, count=6):
    """Dyadic eps with 1 - eps = a / 2^f, a odd and 6 < f <= 29: the
    midpoints of a bisection below the i/64 grid."""
    out = []
    for _ in range(count):
        f = rng.randint(7, 29)
        out.append(1 - rng.randrange(1, 1 << f, 2) / (1 << f))
    return out


def _eps_of(f, a):
    """eps with 1 - eps = a / 2^f exactly."""
    eps = 1 - a / (1 << f)
    assert dyadic_one_minus(eps) == (a, f)
    return eps


def _fractions(p):
    nums, s = p.exact
    return [Fraction(a, 1 << s * k) for k, a in enumerate(nums, 1)]


def _spectrum(entries, s):
    """The spectrum as a multiset of Fractions, multiplicities 0 dropped."""
    out = Counter()
    for a, mu in entries:
        out[Fraction(a, 1 << s)] += mu
    return {lam: mu for lam, mu in out.items() if mu}


@pytest.mark.parametrize("n", range(2, CHARACTER_QUBIT_CAP + 1))
def test_closed_form_polys_equal_the_character_transform(n):
    g = state_catalog("ghz", n)
    for a in range(1, n):
        model = make_model("ghz", n, _cut(n, a))
        assert type(model) is GHZStabilizerModel, a
        assert model.polys == character_polys(g, _cut(n, a)).minus_set, a
        assert model.hankel_rank_bound == (2 if n == 2 else n // 2 + 3), a


@pytest.mark.parametrize("n,a", CUTS)
def test_exact_route_equals_enumerator_oracle(n, a):
    fast = make_model("ghz", n, _cut(n, a))
    oracle = make_model("ghz", n, _cut(n, a), model="enumerator")
    assert type(oracle) is StabilizerModel
    for eps in NODES + _deep(random.Random(n * 16 + a)):
        p, q = fast.moments(eps, 9), oracle.moments(eps, 9)
        assert p.exact == q.exact, eps
        assert p.exact[1] == n * (dyadic_one_minus(eps)[1] + 1)
        assert (_spectrum(*fast._pt_spectrum(eps))
                == _spectrum(*oracle._pt_spectrum(eps))), eps
        assert p.schatten == q.schatten, eps
        v, w = fast.ppt(eps), oracle.ppt(eps)
        assert v.entangled == w.entangled and v._exact, eps
        assert v.margin == w.margin, eps


@pytest.mark.parametrize("n,a", [(2, 1), (3, 1), (5, 2), (8, 3), (10, 5)])
def test_mpf_oracle_agrees_to_its_precision(n, a):
    digits = 60
    prec = dps_to_prec(digits)
    fast = make_model("ghz", n, _cut(n, a))
    for eps in NODES[::4] + _deep(random.Random(a * 16 + n)):
        p = fast.moments(eps, 9)
        exact, bound = _fractions(p), p.schatten
        spec = moments_from_spectrum(
            ghz_local_spectrum(n, eps, digits=digits, a=a), 9)
        closed = ghz_local_moments(n, eps, 9, digits=digits, a=a)
        for k in range(1, 10):
            # every eigenvalue is rounded a few times, each of its powers
            # carries k times that relative error, and ptilde_k bounds the
            # sum of the terms' absolute values
            tol = mpf(2) ** -prec * k * (n + 10) * bound[k - 1]
            with workdps(3 * digits):
                want = mpf(exact[k - 1].numerator) / exact[k - 1].denominator
                assert abs(spec.p(k) - want) <= tol, (eps, k)
                assert abs(closed.p(k) - want) <= tol, (eps, k)


@pytest.mark.parametrize("n", [180, 100000])
def test_large_n_stays_on_the_rounded_route(n):
    # rounded bounds, not exact numerators; the verdicts are certified, so
    # a margin whose sign contradicts one reads 0
    model = make_model("ghz", n)
    assert type(model) is GHZModel
    for f in (6, 7, 12, 29):
        eps = _eps_of(f, (1 << f) - 3)
        for m in (1, 3, 7, 29):
            p = model.moments(eps, m)
            assert p.exact is None and p.prec == model.prec, (f, m)
            assert m == 1 or any(lo != hi for lo, hi in zip(*p.bounds)), m
        assert model.ppt(eps)._exact, f


def test_make_model_routes_ghz_by_the_character_cap():
    cap = CHARACTER_QUBIT_CAP
    for cut in ({1}, {2, 5}, set(range(1, cap // 2 + 1))):
        bip = Bipartition(cap, frozenset(cut))
        assert type(make_model("ghz", cap, bip)) is GHZStabilizerModel
        assert type(make_model("ghz", cap + 1, Bipartition(
            cap + 1, frozenset(cut)))) is GHZModel
        assert (make_model("ghz", cap, bip).describe()
                == GHZModel(cap, bip).describe())
    # the references and global noise keep their own models at any n
    assert type(make_model("ghz", 4, model="enumerator")) is StabilizerModel
    assert type(make_model("ghz", 4, model="dense")) is DenseModel
    assert type(make_model("ghz", 4, noise="global")) is GlobalNoiseModel
    assert make_model("ghz", 4).describe() == "ghz n=4 cut=balanced"


def test_high_order_stieltjes_is_the_ppt_verdict_at_twelve_qubits():
    model = make_model("ghz", 12)
    spec = CriterionSpec.parse("stieltjes:29")
    assert _moment_order(spec, model) == 0
    assert f"{epsilon_max(spec, model).eps_max:.12g}" == "0.531891574152"


@pytest.mark.parametrize("n", [2, 3, 6, 9, CHARACTER_QUBIT_CAP])
def test_fidelity_and_purities_are_exact_fractions(n):
    a = n // 2
    model = make_model("ghz", n, _cut(n, a))
    closed = GHZModel(n, _cut(n, a))
    sl = ghz_sl_vector(n).values
    for eps in NODES[::8] + _deep(random.Random(n)):
        f = model.fidelity(eps)
        glob, sub = model.purities(eps)
        assert all(type(x) is Fraction for x in (f, glob, sub)), eps
        assert f == exact_decayed(sl, eps)
        assert glob == exact_decayed(sl, eps, power=2)
        # the enclosures of the closed forms hold them
        for want, got in zip((f, glob, sub),
                             (closed.fidelity(eps), *closed.purities(eps))):
            assert encloses(got.lo, got.hi, want), eps
