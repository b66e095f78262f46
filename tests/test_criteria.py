"""Entanglement criteria on PT moment vectors, checked against oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from ptml.pauli import Bipartition, state_catalog
from ptml.dense import (
    depolarize_local,
    log_negativity,
    maximally_mixed,
    pt_moments,
    state_from_group,
)
from ptml.spectra import MomentVector, Spectrum, distinct_count, merge_spectrum, moments_from_spectrum
from ptml.criteria import (
    build_hankel,
    default_tol,
    descartes,
    fidelity_criterion,
    klm_ppt,
    negativity_lower_bound,
    newton_elementary,
    ppt_verdict,
    purity_criterion,
    stieltjes,
    stieltjes_witness,
)


RNG = np.random.default_rng(20240818)

BELL = MomentVector((1.0, 1.0, 0.25, 0.25), schatten=(2.0, 1.0, 0.5, 0.25))


def random_state(n):
    d = 1 << n
    g = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_spectrum(dim, force_negative):
    lam = RNG.uniform(0.05, 1.0, size=dim)
    if force_negative:
        lam[0] = -RNG.uniform(0.1, 0.5)
    lam /= abs(lam.sum())
    return Spectrum(tuple((v, 1) for v in lam))


def test_default_tol():
    assert default_tol(None) == 1e-10
    assert default_tol(40) == mpf(10) ** -30


def test_klm_bell_margin():
    v = klm_ppt(BELL, 1, 2, 3)
    assert v.entangled
    assert abs(v.margin - 0.5) < 1e-12
    assert v.witness == {"triple": (1, 2, 3), "x": 0.5}


def test_klm_interpolation_exponent():
    # x = (m-l)/(m-k); margin = p_l - p_k^x p_m^(1-x)
    p = MomentVector((1.0, 0.3, 0.1, 0.04, 0.02))
    v = klm_ppt(p, 2, 3, 5)
    x = (5 - 3) / (5 - 2)
    assert abs(v.margin - (0.1 - 0.3 ** x * 0.02 ** (1 - x))) < 1e-14
    assert v.witness["x"] == pytest.approx(x)


def test_klm_maximally_mixed_margin_zero():
    for n in (1, 2, 3):
        rho = maximally_mixed(n)
        p = pt_moments(rho, Bipartition(n, frozenset({1})), 5)
        for k, l, m in [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 3, 5)]:
            v = klm_ppt(p, k, l, m)
            assert not v.entangled
            assert abs(v.margin) < 1e-12


def test_klm_rejects_bad_input():
    with pytest.raises(ValueError):
        klm_ppt(BELL, 2, 2, 3)
    with pytest.raises(ValueError):
        klm_ppt(BELL, 1, 2, 5)  # m beyond vector
    with pytest.raises(ValueError):
        klm_ppt(MomentVector((-1.0, 0.5, 0.2)), 1, 2, 3)
    with pytest.raises(ValueError):
        klm_ppt(MomentVector((1.0, 0.5, 0.0)), 1, 2, 3)


def test_stieltjes_m3_equals_determinant_sign():
    # at m=3 the Hankel matrix is [[p1,p2],[p2,p3]]; NPT iff det < 0 or p1 < 0
    for _ in range(50):
        s = random_spectrum(4, bool(RNG.integers(2)))
        p = moments_from_spectrum(s, 3)
        pf = [float(p.p(k)) for k in (1, 2, 3)]
        det = pf[0] * pf[2] - pf[1] ** 2
        fires = stieltjes(MomentVector(tuple(pf)), 3).entangled
        minor_neg = det < -1e-12 or pf[0] < -1e-12
        if abs(det) > 1e-10:
            assert fires == minor_neg


def test_stieltjes_min_eig_matches_numpy():
    s = random_spectrum(5, True)
    p = moments_from_spectrum(s, 7)
    pf = MomentVector(tuple(float(p.p(k)) for k in range(1, 8)))
    v = stieltjes(pf, 7)
    h = np.array(build_hankel(pf, 7).entries, dtype=float)
    want = min(np.linalg.eigvalsh(h))
    assert abs(v.witness["min_eigenvalue"] - want) < 1e-10
    assert v.margin == -v.witness["min_eigenvalue"]


def test_stieltjes_threshold_scales_with_norm():
    # margins proportional to the moment scale: scaling p by 100 must not
    # change the verdict because the threshold tracks max|H|
    s = random_spectrum(4, False)
    p = [float(moments_from_spectrum(s, 5).p(k)) for k in range(1, 6)]
    big = MomentVector(tuple(100.0 * v for v in p))
    assert not stieltjes(big, 5).entangled


def test_stieltjes_rejects_even_order():
    with pytest.raises(ValueError):
        stieltjes(BELL, 4)


def test_newton_elementary_matches_numpy_poly():
    # np.poly gives prod (z - lam_i) whose coefficient of z^(d-j) is (-1)^j e_j
    lam = RNG.uniform(-0.5, 1.0, size=6)
    lam /= abs(lam.sum())
    p = MomentVector(tuple(float(np.sum(lam ** k)) for k in range(1, 7)))
    e = newton_elementary(p, 6)
    coeffs = np.poly(lam)  # length 7, leading 1
    want = [(-1) ** j * coeffs[j] for j in range(7)]
    assert np.allclose(e, want, atol=1e-10)


def test_descartes_fires_iff_some_elementary_negative():
    for _ in range(30):
        s = random_spectrum(5, bool(RNG.integers(2)))
        p = moments_from_spectrum(s, 5)
        pf = MomentVector(tuple(float(p.p(k)) for k in range(1, 6)))
        e = newton_elementary(pf, 5)
        v = descartes(pf, 5)
        worst = max(-ej for ej in e[1:])
        assert abs(v.margin - worst) < 1e-12
        if worst > 1e-9:
            assert v.entangled
        if worst < -1e-9:
            assert not v.entangled


def test_descartes_witness_identifies_worst_index():
    s = Spectrum(((0.5, 3), (-0.5, 1)))
    p = moments_from_spectrum(s, 4)
    pf = MomentVector(tuple(float(p.p(k)) for k in range(1, 5)))
    v = descartes(pf, 4)
    assert v.entangled
    e = v.witness["elementary"]
    assert len(e) == 4
    assert -e[v.witness["worst_j"] - 1] == pytest.approx(v.margin)


def test_descartes_full_order_equals_ppt():
    # with m = dim the elementary symmetric functions decide NPT exactly
    for _ in range(40):
        rho = random_state(2)
        bip = Bipartition(2, frozenset({1}))
        p = pt_moments(rho, bip, 4)
        npt = ppt_verdict(Spectrum(tuple(
            (v, 1) for v in np.linalg.eigvalsh(
                __import__("ptml.dense", fromlist=["x"]).partial_transpose(rho, bip))),
            digits=None), tol=1e-9).entangled
        fires = descartes(p, 4, tol=1e-9).entangled
        if abs(descartes(p, 4).margin) > 1e-8:
            assert fires == npt


def test_negativity_lower_bound_bell_tight():
    assert negativity_lower_bound(BELL, 2, 3) == pytest.approx(1.0)
    assert negativity_lower_bound([2.0, 1.0, 0.5], 2, 3) == pytest.approx(1.0)


def test_negativity_lower_bound_never_exceeds_true_value():
    bip = Bipartition(2, frozenset({1}))
    for _ in range(40):
        rho = random_state(2)
        en = log_negativity(rho, bip)
        p = pt_moments(rho, bip, 6)
        for l, m in [(2, 3), (2, 4), (2, 5), (3, 5), (2, 6)]:
            assert negativity_lower_bound(p, l, m) <= en + 1e-9


def test_negativity_lower_bound_validation():
    with pytest.raises(ValueError):
        negativity_lower_bound(BELL, 1, 3)
    with pytest.raises(ValueError):
        negativity_lower_bound(BELL, 3, 3)
    with pytest.raises(ValueError):
        negativity_lower_bound([1.0, -0.5, 0.2], 2, 3)


def test_stieltjes_witness_bell():
    s = Spectrum(((0.5, 3), (-0.5, 1)))
    c = stieltjes_witness(s, 3)
    assert len(c) == 2
    assert c[-1] == 1  # monic
    # root at the positive eigenvalue
    assert abs(c[0] + c[1] * 0.5) < 1e-12


def test_stieltjes_witness_quadratic_form_negative():
    for _ in range(20):
        s = merge_spectrum(random_spectrum(5, True), tol=1e-9)
        nn = distinct_count(s, tol=1e-9)
        m = 2 * nn - 1
        c = stieltjes_witness(s, m)
        assert len(c) == (m + 1) // 2
        p = moments_from_spectrum(s, m)
        h = build_hankel(p, m).entries
        q = sum(float(c[i]) * float(c[j]) * float(h[i][j])
                for i in range(len(c)) for j in range(len(c)))
        # closed form: mu1 lam1 f(lam1)^2 with f vanishing on the others
        lam1, mu1 = min(s.entries, key=lambda t: t[0])
        f1 = sum(float(ci) * float(lam1) ** i for i, ci in enumerate(c))
        want = mu1 * float(lam1) * f1 ** 2
        assert q < 0
        assert q == pytest.approx(want, rel=1e-6)


def test_stieltjes_witness_padding():
    # m larger than needed: coefficients padded with zeros up to (m+1)/2
    s = Spectrum(((0.5, 3), (-0.5, 1)))
    c = stieltjes_witness(s, 7)
    assert len(c) == 4
    assert c[2] == 0 and c[3] == 0


def test_stieltjes_witness_validation():
    pos = Spectrum(((0.5, 2),))
    with pytest.raises(ValueError):
        stieltjes_witness(pos, 3)  # nothing negative to expose
    neg = Spectrum(((0.5, 3), (-0.5, 1)))
    with pytest.raises(ValueError):
        stieltjes_witness(neg, 4)  # even order
    with pytest.raises(ValueError):
        stieltjes_witness(neg, 1)  # below 2N-1


def test_fidelity_criterion():
    assert fidelity_criterion(0.7, 1).entangled
    assert fidelity_criterion(0.7, 3).entangled
    assert not fidelity_criterion(0.5, 1).entangled
    assert not fidelity_criterion(0.2, 1).entangled
    assert fidelity_criterion(0.75, 1).margin == pytest.approx(0.25)
    # a target with no Bell pair across the cut is a product state: any
    # overlap with it is reachable without entanglement
    assert not fidelity_criterion(0.9, 0).entangled
    with pytest.raises(ValueError):
        fidelity_criterion(-0.1, 1)
    with pytest.raises(ValueError):
        fidelity_criterion(1.0001, 1)


def test_purity_criterion():
    v = purity_criterion(0.5, 0.3)
    assert v.entangled and v.margin == pytest.approx(0.2)
    assert not purity_criterion(0.3, 0.5).entangled
    with pytest.raises(ValueError):
        purity_criterion(0.0, 0.5)
    with pytest.raises(ValueError):
        purity_criterion(0.5, 1.2)


def test_ppt_verdict():
    npt = Spectrum(((0.5, 3), (-0.5, 1)))
    v = ppt_verdict(npt)
    assert v.entangled and v.margin == pytest.approx(0.5)
    assert v.witness["min_eigenvalue"] == pytest.approx(-0.5)
    assert not ppt_verdict(Spectrum(((0.25, 4),))).entangled


def test_mpf_moment_path():
    # criteria accept mpf moment vectors with precision-scaled tolerance
    s = Spectrum(((mpf("0.5"), 3), (mpf("-0.5"), 1)), digits=50)
    p = moments_from_spectrum(s, 5)
    assert stieltjes(p, 5).entangled
    assert klm_ppt(p, 1, 2, 3).entangled


@st.composite
def positive_spectra(draw):
    lam = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    tot = sum(lam)
    return Spectrum(tuple((v / tot, 1) for v in lam))


@given(positive_spectra())
@settings(max_examples=150, deadline=None)
def test_no_criterion_fires_on_nonnegative_spectra(s):
    p = moments_from_spectrum(s, 7)
    pf = MomentVector(tuple(float(p.p(k)) for k in range(1, 8)))
    for m in (3, 5, 7):
        assert not stieltjes(pf, m).entangled
    for m in range(1, 8):
        assert not descartes(pf, m).entangled
    for k, l, m in [(1, 2, 3), (2, 3, 4), (1, 3, 5), (3, 5, 7), (5, 6, 7)]:
        assert not klm_ppt(pf, k, l, m).entangled


@st.composite
def npt_spectra(draw):
    lam = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    frac = draw(st.floats(0.1, 1.0))
    vals = lam + [-0.45 * frac * sum(lam)]  # trace stays positive
    tot = sum(vals)
    return Spectrum(tuple((v / tot, 1) for v in vals))


@given(npt_spectra())
@settings(max_examples=150, deadline=None)
def test_midpoint_klm_implies_stieltjes(s):
    # whenever the geometric-mean triple (k, (k+m)/2, m) fires, the full
    # Hankel test at the same odd order must fire as well
    p = moments_from_spectrum(s, 7)
    pf = MomentVector(tuple(float(p.p(k)) for k in range(1, 8)))
    for k, m in [(1, 3), (3, 5), (1, 5), (3, 7)]:
        if pf.p(k) <= 0 or pf.p(m) <= 0:
            continue  # outside the triple test's domain
        if klm_ppt(pf, k, (k + m) // 2, m).entangled:
            assert stieltjes(pf, m).entangled
