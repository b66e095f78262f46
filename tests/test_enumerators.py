"""Weight-enumerator machinery vs dense matrix oracles."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from mpmath import mp, mpf

from ptml.pauli import Bipartition, PauliString, StabilizerGroup, from_label, state_catalog
from ptml.dense import (
    _partial_trace_keep,
    depolarize_local,
    fidelity_pure,
    pauli_matrix,
    pt_moments,
    state_from_group,
)
from ptml.enumerators import (
    CWTable,
    SLVector,
    ame_fixture_check,
    character_polys,
    cw_bruteforce,
    cw_fourier,
    fidelity_from_enumerators,
    ghz_sl_vector,
    noisy_pt_moment,
    noisy_purity,
    pauli_coefficients,
    qwe_bruteforce,
    rains_subsystem_purity,
    sl_decay,
    sl_enumerators,
    stab_subsystem_purity,
)


RNG = np.random.default_rng(20240819)

EPS_GRID = [0.0, 0.15, 0.4, 0.75, 1.0]

CATALOG = [("ghz", 2), ("ghz", 4), ("zero", 3), ("bell_pairs", 4), ("ame6", 6)]


def random_state(n):
    d = 1 << n
    g = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def all_bips(n):
    for s in range(1, n // 2 + 1):
        yield Bipartition(n, frozenset(range(1, s + 1)))


def test_pauli_coefficients_are_traces():
    rho = random_state(2)
    coef = pauli_coefficients(rho)
    for x in range(4):
        for z in range(4):
            p = PauliString(2, x, z, 0)
            want = np.trace(rho @ pauli_matrix(p)).real
            assert abs(coef[x | (z << 2)] - want) < 1e-12


def test_sl_enumerators_routes_agree():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        a_stab = sl_enumerators(g)
        a_dense = sl_enumerators(state_from_group(g))
        assert all(isinstance(v, Fraction) for v in a_stab.values)
        assert np.allclose([float(v) for v in a_stab.values], a_dense.values, atol=1e-12)
        assert abs(sum(a_dense.values) - float(2 ** n) / 2 ** n * sum(float(v) for v in a_stab.values)) < 1e-12


def test_sl_known_vectors():
    assert ghz_sl_vector(2).values == (Fraction(1, 4), 0, Fraction(3, 4))
    ame = sl_enumerators(state_catalog("ame6", 6))
    assert ame.values == tuple(Fraction(c, 64) for c in (1, 0, 0, 0, 45, 0, 18))


def test_ghz_sl_vector_matches_group_count():
    for n in (2, 4, 6, 8):
        assert ghz_sl_vector(n).values == sl_enumerators(state_catalog("ghz", n)).values


def test_sl_enumerators_validation():
    with pytest.raises(ValueError):
        sl_enumerators(state_catalog("ghz", 2), mode="nope")
    # a state group must have exactly n independent generators
    with pytest.raises(ValueError):
        StabilizerGroup(2, (from_label("XX"),))
    with pytest.raises(ValueError):
        SLVector(2, (Fraction(1),))
    with pytest.raises(ValueError):
        pauli_coefficients(np.eye(3))


def test_sl_decay():
    a = ghz_sl_vector(4)
    assert sl_decay(a, 0.0).values == a.values
    dead = sl_decay(a, 1.0)
    assert float(dead.values[0]) == float(a.values[0])
    assert all(float(v) == 0 for v in dead.values[1:])
    q = 0.6
    got = sl_decay(a, 1 - q)
    assert np.allclose([float(v) for v in got.values],
                       [float(v) * q ** (2 * w) for w, v in enumerate(a.values)])


def test_noisy_purity_vs_dense():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        a = sl_enumerators(g)
        rho = state_from_group(g)
        for eps in EPS_GRID:
            noisy = depolarize_local(rho, eps)
            want = np.trace(noisy @ noisy).real
            assert abs(float(noisy_purity(a, eps)) - want) < 1e-12


def test_fidelity_vs_dense():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        a = sl_enumerators(g)
        rho = state_from_group(g)
        for eps in EPS_GRID:
            want = fidelity_pure(depolarize_local(rho, eps), g)
            assert abs(float(fidelity_from_enumerators(a, eps)) - want) < 1e-12


def test_rains_subsystem_purity_is_subset_average():
    # from the weight distribution alone only the average over size-s
    # subsets is recoverable; bell_pairs has genuinely unequal cuts
    g = state_catalog("bell_pairs", 4)
    a = sl_enumerators(g)
    rho = state_from_group(g)
    for eps in (0.0, 0.3, 0.8):
        noisy = depolarize_local(rho, eps)
        for s in (1, 2):
            vals = []
            for subset in combinations(range(4), s):
                mask = sum(1 << b for b in subset)
                red = _partial_trace_keep(noisy, mask, 4)
                vals.append(np.trace(red @ red).real)
            assert abs(float(rains_subsystem_purity(a, eps, s=s)) - np.mean(vals)) < 1e-12


def test_stab_subsystem_purity_vs_dense_per_cut():
    g = state_catalog("bell_pairs", 4)
    rho = state_from_group(g)
    for a_set in ({1, 2}, {1, 3}, {1}):
        bip = Bipartition(4, frozenset(a_set))
        for eps in (0.0, 0.3, 0.8):
            noisy = depolarize_local(rho, eps)
            red = _partial_trace_keep(noisy, bip.a_mask, 4)
            want = np.trace(red @ red).real
            assert abs(float(stab_subsystem_purity(g, bip, eps)) - want) < 1e-12


def test_character_polys_bell():
    cp = character_polys(state_catalog("ghz", 2), Bipartition(2, frozenset({1})))
    assert cp.plus_set == (((1, 0, 3), 1), ((1, 0, -1), 3))
    assert cp.minus_set == (((1, 0, 1), 3), ((1, 0, -3), 1))


def test_character_poly_multiplicities_cover_group():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        for bip in all_bips(n):
            cp = character_polys(g, bip)
            assert sum(m for _, m in cp.plus_set) == 1 << n
            assert sum(m for _, m in cp.minus_set) == 1 << n


def test_cw_fourier_matches_bruteforce():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        kmax = 3 if n >= 6 else 4
        for bip in all_bips(n):
            chars = character_polys(g, bip)
            for k in range(1, kmax + 1):
                a = cw_fourier(g, bip, k, chars)
                b = cw_bruteforce(g, bip, k)
                assert a.cplus == b.cplus
                assert a.cminus == b.cminus


def test_cw_reconstructs_dense_moments():
    for name, n in [("ghz", 4), ("bell_pairs", 4), ("zero", 3)]:
        g = state_catalog(name, n)
        rho = state_from_group(g)
        for bip in all_bips(n):
            for k in range(1, 6):
                tab = cw_fourier(g, bip, k)
                for eps in EPS_GRID:
                    want = pt_moments(depolarize_local(rho, eps), bip, max(k, 1)).p(k)
                    assert abs(noisy_pt_moment(tab, eps) - want) < 1e-9


def test_cw_k1_and_k2_specials():
    g = state_catalog("ghz", 4)
    bip = Bipartition(4, frozenset({1, 2}))
    t1 = cw_fourier(g, bip, 1)
    assert noisy_pt_moment(t1, 0.37) == pytest.approx(1.0)
    # second moment is the purity, blind to the cut
    t2 = cw_fourier(g, bip, 2)
    a = sl_enumerators(g)
    for eps in EPS_GRID:
        assert abs(noisy_pt_moment(t2, eps) - float(noisy_purity(a, eps))) < 1e-12
    assert t2.cminus == {}
    assert t2.cplus == {2 * w: int(v * 4 ** 4 / 16) for w, v in enumerate(a.values) if v}


def test_cw_difference_poly_ghz2():
    tab = cw_fourier(state_catalog("ghz", 2), Bipartition(2, frozenset({1})), 3)
    assert tab.difference_poly() == [1, 0, 0, 0, 9, 0, -6]


def test_cw_total_counts_tuples():
    g = state_catalog("ghz", 2)
    bip = Bipartition(2, frozenset({1}))
    for k in (1, 2, 3, 4):
        tab = cw_fourier(g, bip, k)
        assert tab.total() == 4 ** (k - 1)


def test_qwe_matches_dense_on_random_states():
    for n, kmax in [(2, 5), (3, 4)]:
        rho = random_state(n)
        bip = Bipartition(n, frozenset({1}))
        for k in range(1, kmax + 1):
            tab = qwe_bruteforce(rho, bip, k)
            for eps in EPS_GRID:
                want = pt_moments(depolarize_local(rho, eps), bip, k).p(k)
                assert abs(noisy_pt_moment(tab, eps) - want) < 1e-9


def test_qwe_agrees_with_cw_on_stabilizer_state():
    g = state_catalog("ghz", 3)
    rho = state_from_group(g)
    bip = Bipartition(3, frozenset({1}))
    for k in (2, 3, 4):
        qt = qwe_bruteforce(rho, bip, k)
        ct = cw_fourier(g, bip, k)
        for eps in (0.0, 0.25, 0.6):
            assert abs(noisy_pt_moment(qt, eps) - noisy_pt_moment(ct, eps)) < 1e-9


def test_budget_errors():
    g = state_catalog("ame6", 6)
    bip = Bipartition(6, frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        cw_bruteforce(g, bip, 4, budget=1000)
    with pytest.raises(ValueError):
        qwe_bruteforce(random_state(3), Bipartition(3, frozenset({1})), 4, budget=1000)


def test_noisy_pt_moment_validation():
    tab = cw_fourier(state_catalog("ghz", 2), Bipartition(2, frozenset({1})), 3)
    with pytest.raises(ValueError):
        noisy_pt_moment(tab, -0.1)
    with pytest.raises(ValueError):
        noisy_pt_moment(tab, 1.5)
    with pytest.raises(TypeError):
        noisy_pt_moment({"not": "a table"}, 0.3)


def test_noisy_pt_moment_mpf_path():
    tab = cw_fourier(state_catalog("ame6", 6), Bipartition(6, frozenset({1})), 3)
    with mp.workdps(50):
        hi = noisy_pt_moment(tab, mpf("0.3"))
        lo = noisy_pt_moment(tab, 0.3)
        assert isinstance(hi, mpf)
        assert abs(float(hi) - lo) < 1e-12


def test_zero_state_moments_are_one():
    # product |0..0> is PPT across every cut: p_k = 1 at eps = 0
    g = state_catalog("zero", 3)
    for bip in all_bips(3):
        for k in (2, 3, 4):
            assert noisy_pt_moment(cw_fourier(g, bip, k), 0.0) == pytest.approx(1.0)


def test_ame_fixture_check_passes():
    out = ame_fixture_check()
    assert out["ok"] is True
    assert out["failures"] == []
    assert set(out["cases"]) == {"0|6", "1|5", "2|4", "3|3"}
