"""Closed-form PT spectra cross-checked against dense diagonalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from ptml.pauli import Bipartition, bell_pair_rank, state_catalog
from ptml.dense import (
    depolarize_global,
    depolarize_local,
    hermitian_eigenvalues,
    partial_transpose,
    pt_moments,
    state_from_group,
)
from ptml.spectra import (
    MomentVector,
    Spectrum,
    distinct_count,
    ghz_local_moments,
    ghz_local_spectrum,
    merge_spectrum,
    moments_from_spectrum,
    ppt_threshold_ghz,
    stab_global_spectrum,
)


EPS_GRID = [0.0, 0.2, 0.5, 0.8, 1.0]


def balanced(n):
    return Bipartition(n, frozenset(range(1, n // 2 + 1)))


def expand(spectrum):
    out = []
    for lam, mult in spectrum.entries:
        out.extend([float(lam)] * mult)
    return sorted(out)


def dense_pt_eigs(name, n, bip, eps, channel):
    rho = channel(state_from_group(state_catalog(name, n)), eps)
    return sorted(hermitian_eigenvalues(partial_transpose(rho, bip)))


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("eps", EPS_GRID)
def test_ghz_local_spectrum_matches_dense(n, eps):
    got = expand(ghz_local_spectrum(n, eps))
    want = dense_pt_eigs("ghz", n, balanced(n), eps, depolarize_local)
    assert len(got) == 1 << n
    assert np.allclose(got, want, atol=1e-10)


def test_ghz_local_spectrum_traces_to_one():
    for n in (2, 4, 8):
        s = ghz_local_spectrum(n, 0.37)
        assert abs(float(s.trace()) - 1.0) < 1e-12


def test_ghz_local_spectrum_accepts_mpf():
    with mp.workdps(50):
        s = ghz_local_spectrum(4, mpf("0.3"))
        f = ghz_local_spectrum(4, 0.3)
        for (a, ma), (b, mb) in zip(sorted(s.entries), sorted(f.entries)):
            assert ma == mb
            assert abs(float(a) - float(b)) < 1e-14


@pytest.mark.parametrize("name,n,a_set", [
    ("ghz", 4, {1, 2}),
    ("bell_pairs", 4, {1, 3}),
    ("bell_pairs", 4, {1, 2}),
    ("ame6", 6, {1, 2}),
])
@pytest.mark.parametrize("eps", [0.0, 0.3, 0.7, 1.0])
def test_stab_global_spectrum_matches_dense(name, n, a_set, eps):
    g = state_catalog(name, n)
    bip = Bipartition(n, frozenset(a_set))
    r = bell_pair_rank(g, bip)
    got = expand(stab_global_spectrum(n, r, eps))
    want = dense_pt_eigs(name, n, bip, eps, depolarize_global)
    assert np.allclose(got, want, atol=1e-10)


def test_stab_global_npt_boundary():
    # pure PT floor is -2^-r, mixing term eps/2^n: zero at eps = 1 - 1/(2^(n-r)+1)
    for n, r in [(2, 1), (4, 1), (4, 2), (6, 3)]:
        thr = 1 - 1 / (2 ** (n - r) + 1)
        below = stab_global_spectrum(n, r, thr - 1e-6)
        above = stab_global_spectrum(n, r, thr + 1e-6)
        assert float(below.min_eigenvalue()) < 0
        assert float(above.min_eigenvalue()) > 0


def test_moments_from_spectrum_matches_dense():
    g = state_catalog("ghz", 4)
    bip = balanced(4)
    for eps in (0.1, 0.45):
        rho = depolarize_local(state_from_group(g), eps)
        want = pt_moments(rho, bip, 6)
        got = moments_from_spectrum(ghz_local_spectrum(4, eps), 6)
        for k in range(1, 7):
            assert abs(float(got.p(k)) - want.p(k)) < 1e-10
            assert abs(float(got.ptilde(k)) - want.ptilde(k)) < 1e-10


def test_moment_vector_validation():
    mv = MomentVector((1.0, 0.5, 0.25))
    assert mv.p(1) == 1.0 and mv.p(3) == 0.25
    with pytest.raises(ValueError):
        mv.p(4)
    with pytest.raises(ValueError):
        mv.p(0)
    with pytest.raises(ValueError):
        mv.ptilde(2)  # no Schatten data attached


def test_spectrum_drops_zero_multiplicity_and_validates():
    s = Spectrum(((0.5, 2), (0.25, 0), (-0.25, 1)))
    assert all(m > 0 for _, m in s.entries)
    assert len(s.entries) == 2
    with pytest.raises(ValueError):
        Spectrum(((0.5, -1),))


def test_merge_spectrum_and_distinct_count():
    s = Spectrum(((0.5, 1), (0.5 + 1e-14, 2), (-0.25, 1)))
    merged = merge_spectrum(s, tol=1e-12)
    assert len(merged.entries) == 2
    assert distinct_count(s, tol=1e-12) == 2
    assert distinct_count(s, tol=1e-16) == 3
    # multiplicity is conserved
    assert sum(m for _, m in merged.entries) == 4
    with pytest.raises(ValueError):
        distinct_count(s, tol=-1e-12)


def test_ghz_spectrum_distinct_count():
    # lambda_plus collides with a band eigenvalue only at n=2
    assert distinct_count(merge_spectrum(ghz_local_spectrum(2, 0.3), tol=1e-12)) == 2
    assert distinct_count(merge_spectrum(ghz_local_spectrum(4, 0.3), tol=1e-12)) == 5
    assert distinct_count(merge_spectrum(ghz_local_spectrum(6, 0.3), tol=1e-12)) == 6
    assert distinct_count(merge_spectrum(ghz_local_spectrum(8, 0.3), tol=1e-12)) == 7


def test_ppt_threshold_ghz_closed_form():
    # 1 - (2^(n-1) + 1)^(-1/2^(n-1)) ... verified against the spectrum itself
    assert abs(ppt_threshold_ghz(2) - (1 - 1 / math.sqrt(3))) < 1e-14
    for n in (2, 4, 6, 8):
        thr = ppt_threshold_ghz(n)
        assert float(ghz_local_spectrum(n, thr - 1e-9).min_eigenvalue()) < 0
        assert float(ghz_local_spectrum(n, thr + 1e-9).min_eigenvalue()) > 0


def test_ppt_threshold_ghz_limits():
    # thresholds increase with n toward the 1 - 1/sqrt(5) ceiling
    vals = [ppt_threshold_ghz(n) for n in (2, 4, 6, 8, 10, 12)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 1 - 1 / math.sqrt(5) for v in vals)
    assert 1 - 1 / math.sqrt(5) - vals[-1] < 0.021


def test_ghz_local_spectrum_rejects_odd_or_small():
    with pytest.raises(ValueError):
        ghz_local_spectrum(3, 0.1)
    with pytest.raises(ValueError):
        ghz_local_spectrum(0, 0.1)


def test_moments_digits_track_request():
    with mp.workdps(80):
        s = ghz_local_spectrum(6, mpf(1) / 3, digits=80)
        mv = moments_from_spectrum(s, 12)
        # exact rational eps: p_1 must be 1 to full precision
        assert abs(mv.p(1) - 1) < mpf(10) ** -70


def test_moments_from_spectrum_sums_exactly():
    # p_1 = 10^400 * 2^-1000: the two terms cancel in all but the last of
    # their 1001 bits, so summing them at a fixed lower precision gives 0
    with mp.workprec(1100):
        lam = 1 + mpf(2) ** -1000
    mv = moments_from_spectrum(Spectrum(((lam, 10 ** 400), (-1, 10 ** 400)),
                                        digits=10), 1)
    with mp.workprec(1100):
        want = mpf(10) ** 400 * mpf(2) ** -1000
        assert abs(mv.p(1) / want - 1) < mpf(10) ** -9
    assert mv.digits == 10
    with pytest.raises(ValueError):
        moments_from_spectrum(Spectrum(((0.5, 1),)), 0)
    with pytest.raises(ValueError):
        moments_from_spectrum(Spectrum(((float("inf"), 1),)), 2)


def test_moments_from_spectrum_float_spectrum():
    # the float spectra the dense PPT route builds: sums rounded once to
    # 53 bits and returned as floats
    mv = moments_from_spectrum(Spectrum(((0.5, 1), (-0.25, 2)), digits=None),
                               3)
    assert mv.values == (0.0, 0.375, 0.09375)
    assert all(type(v) is float for v in mv.values + mv.schatten)
    assert mv.ptilde(1) == 1.0
    assert mv.digits is None


_EVEN_N = st.one_of(st.integers(1, 32).map(lambda h: 2 * h),
                    st.sampled_from([200, 1000]))


@given(n=_EVEN_N,
       eps=st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)),
       m_max=st.integers(1, 15),
       digits=st.sampled_from([20, 60, 102]))
@settings(max_examples=120, deadline=None)
def test_ghz_local_moments_match_spectrum_oracle(n, eps, m_max, digits):
    got = ghz_local_moments(n, eps, m_max, digits=digits)
    want = moments_from_spectrum(ghz_local_spectrum(n, eps, digits + 20),
                                 m_max)
    assert got.digits == digits
    tol = mpf(10) ** -(digits - 1)
    with workdps(digits + 20):
        for k in range(1, m_max + 1):
            for a, b in ((got.p(k), want.p(k)),
                         (got.ptilde(k), want.ptilde(k))):
                assert abs(a - b) <= tol * abs(b), (k, a, b)


def test_ghz_local_moments_rejects_bad_input():
    for args in ((3, 0.1, 2), (0, 0.1, 2), (4, 1.5, 2), (4, -0.1, 2),
                 (4, 0.1, 0)):
        with pytest.raises(ValueError):
            ghz_local_moments(*args)
