"""GHZModel's exact route: the moment numerators and PT spectrum over 2^s
against the enumerator tables (equal as Fractions) and the mpf oracle (to
its precision), and the rule s <= b that picks the route."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mpf, workdps
from mpmath.libmp import dps_to_prec

from ptml.criteria import grid_bits
from ptml.enumerators import dyadic_one_minus
from ptml.pauli import Bipartition
from ptml.spectra import (ghz_local_moments, ghz_local_spectrum,
                          moments_from_spectrum)
from ptml.thresholds import (CriterionSpec, GHZModel, _order_digits,
                             epsilon_max, make_model)

CUTS = [(n, a) for n in range(2, 11) for a in range(1, n)]
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


@pytest.mark.parametrize("n,a", CUTS)
def test_exact_route_equals_enumerator_oracle(n, a):
    fast = GHZModel(n, _cut(n, a))
    oracle = make_model("ghz", n, _cut(n, a), model="enumerator")
    for eps in NODES + _deep(random.Random(n * 16 + a)):
        p, q = fast.moments(eps, 9), oracle.moments(eps, 9)
        assert p.exact is not None, eps
        assert p.exact[1] == n * (dyadic_one_minus(eps)[1] + 1) + 1
        assert _fractions(p) == _fractions(q), eps
        assert (_spectrum(*fast._pt_spectrum(eps))
                == _spectrum(*oracle._pt_spectrum(eps))), eps
        assert p.schatten == q.schatten, eps
        v, w = fast.ppt(eps), oracle.ppt(eps)
        assert v.entangled == w.entangled, eps
        assert v._exact == (p.exact[1] <= grid_bits(fast.digits)), eps


@pytest.mark.parametrize("n,a", [(2, 1), (3, 1), (5, 2), (8, 3), (10, 5)])
def test_mpf_oracle_agrees_to_its_precision(n, a):
    digits = 60
    prec = dps_to_prec(digits)
    fast = GHZModel(n, _cut(n, a))
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


def test_twelve_qubits_at_order_seven_run_exact_to_f_29():
    model = GHZModel(12)
    rng = random.Random(7)
    for f in range(30):
        odd = [0, 1] if f == 0 else [(1 << f) - 1, rng.randrange(1, 1 << f, 2)]
        for a in odd:
            assert model.moments(_eps_of(f, a), 7).exact is not None, (f, a)


@pytest.mark.parametrize("n", [180, 100000])
def test_large_n_stays_on_the_rounded_route(n):
    model = GHZModel(n)
    for f in (6, 7, 12, 29):
        eps = _eps_of(f, (1 << f) - 3)
        for m in (1, 3, 7, 29):
            assert model.moments(eps, m).exact is None, (f, m)
        assert not model.ppt(eps)._exact, f


def test_route_is_s_at_most_the_grid_width():
    # n = 12, order 3: b = grid_bits(78), and s = 12 (f+1) + 1 <= b
    # exactly when f <= 26
    model = GHZModel(12)
    b = grid_bits(_order_digits(3))
    assert 12 * 27 + 1 <= b < 12 * 28 + 1
    assert model.moments(_eps_of(26, 12345), 3).exact is not None
    assert model.moments(_eps_of(27, 12345), 3).exact is None
    # ppt compares at the model's own digits
    b = grid_bits(model.digits)
    f = (b - 1) // 12 - 1
    assert model.ppt(_eps_of(f, 5))._exact
    assert not model.ppt(_eps_of(f + 1, 5))._exact


def test_threshold_that_changes_route_mid_bisection():
    # descartes:3 at n = 12 bisects to f = 29, past the f <= 26 of its
    # exact route: the last verdicts are rounded
    model = GHZModel(12)
    routes = []
    moments = model.moments

    def spy(eps, m_max):
        p = moments(eps, m_max)
        routes.append(p.exact is not None)
        return p

    model.moments = spy
    spec = CriterionSpec.parse("descartes:3")
    got = epsilon_max(spec, model)
    assert True in routes and False in routes
    want = epsilon_max(spec, make_model("ghz", 12, model="enumerator"))
    assert abs(got.eps_max - want.eps_max) <= 2 * want.bracket
