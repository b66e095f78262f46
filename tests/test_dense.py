"""Tests for dense density-matrix helpers; eigenvalues come from
np.linalg.eigvalsh behind a Hermiticity check."""

import numpy as np
import pytest

from ptml.pauli import Bipartition, from_label, state_catalog
from ptml.dense import (
    depolarize_global,
    depolarize_local,
    depolarize_local_via_weights,
    fidelity_pure,
    hermitian_eigenvalues,
    log_negativity,
    maximally_mixed,
    nqubits,
    partial_transpose,
    pauli_matrix,
    pt_moments,
    schatten_moments,
    schmidt_rank,
    state_from_group,
    werner_state,
)


RNG = np.random.default_rng(20240817)


def random_state(n):
    d = 1 << n
    g = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_state_from_group_bell():
    rho = state_from_group(state_catalog("ghz", 2))
    want = np.zeros((4, 4), dtype=complex)
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        want[i, j] = 0.5
    assert np.allclose(rho, want)


def test_state_from_group_is_pure_projector():
    for name, n in [("ghz", 4), ("zero", 3), ("bell_pairs", 4), ("ame6", 6)]:
        rho = state_from_group(state_catalog(name, n))
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.allclose(rho, rho @ rho, atol=1e-12)
        assert np.allclose(rho, rho.conj().T)


def test_state_from_group_cap():
    with pytest.raises(ValueError):
        state_from_group(state_catalog("ghz", 13), cap=12)


def test_nqubits_and_maximally_mixed():
    assert nqubits(maximally_mixed(3)) == 3
    assert np.allclose(maximally_mixed(2), np.eye(4) / 4)
    with pytest.raises(ValueError):
        nqubits(np.eye(3))
    with pytest.raises(ValueError):
        partial_transpose(maximally_mixed(2), Bipartition(3, frozenset({1})))


def test_depolarize_routes_agree():
    # product-channel route vs weight-decay route
    for n in (1, 2, 3):
        rho = random_state(n)
        for eps in (0.0, 0.17, 0.5, 1.0):
            a = depolarize_local(rho, eps)
            b = depolarize_local_via_weights(rho, eps)
            assert np.allclose(a, b, atol=1e-12)


def test_depolarize_local_endpoints():
    rho = random_state(2)
    assert np.allclose(depolarize_local(rho, 0.0), rho)
    assert np.allclose(depolarize_local(rho, 1.0), maximally_mixed(2))


def test_depolarize_global_endpoints():
    rho = random_state(2)
    assert np.allclose(depolarize_global(rho, 0.0), rho)
    assert np.allclose(depolarize_global(rho, 1.0), maximally_mixed(2))
    mid = depolarize_global(rho, 0.25)
    assert np.allclose(mid, 0.75 * rho + 0.25 * maximally_mixed(2))


def test_depolarize_rejects_bad_eps():
    rho = random_state(1)
    with pytest.raises(ValueError):
        depolarize_local(rho, -0.1)
    with pytest.raises(ValueError):
        depolarize_global(rho, 1.1)


def test_partial_transpose_involution_and_trace():
    rho = random_state(3)
    bip = Bipartition(3, frozenset({1, 3}))
    pt = partial_transpose(rho, bip)
    assert np.allclose(partial_transpose(pt, bip), rho)
    assert abs(np.trace(pt) - 1) < 1e-12
    assert np.allclose(pt, pt.conj().T)


def test_partial_transpose_full_set_is_transpose():
    rho = random_state(2)
    bip = Bipartition(2, frozenset({1, 2}))
    assert np.allclose(partial_transpose(rho, bip), rho.T)


def test_partial_transpose_on_pauli_strings():
    bip = Bipartition(2, frozenset({2}))
    # transposing qubit 2 flips the sign of a Y there and nothing else
    assert np.allclose(partial_transpose(pauli_matrix(from_label("XY")), bip),
                       -pauli_matrix(from_label("XY")))
    assert np.allclose(partial_transpose(pauli_matrix(from_label("YX")), bip),
                       pauli_matrix(from_label("YX")))


def test_product_state_stays_positive_under_pt():
    a, b = random_state(1), random_state(1)
    rho = np.kron(b, a)  # qubit 1 least significant
    pt = partial_transpose(rho, Bipartition(2, frozenset({1})))
    assert min(hermitian_eigenvalues(pt)) > -1e-12


def test_pt_moments_bell():
    rho = state_from_group(state_catalog("ghz", 2))
    mv = pt_moments(rho, Bipartition(2, frozenset({1})), 4)
    assert np.allclose([mv.p(k) for k in (1, 2, 3, 4)], [1.0, 1.0, 0.25, 0.25])
    # PT spectrum is {1/2 x3, -1/2}; Schatten moments see |.|
    assert np.allclose([mv.ptilde(k) for k in (1, 2, 3)], [2.0, 1.0, 0.5])


def test_schatten_moments_match_moment_vector():
    rho = random_state(3)
    bip = Bipartition(3, frozenset({2}))
    mv = pt_moments(rho, bip, 5)
    sch = schatten_moments(rho, bip, 5)
    assert np.allclose(sch, [mv.ptilde(k) for k in range(1, 6)])
    with pytest.raises(ValueError):
        schatten_moments(rho, bip, 0)
    with pytest.raises(ValueError):
        pt_moments(rho, bip, 0)


def test_log_negativity_bell_is_one():
    rho = state_from_group(state_catalog("ghz", 2))
    assert abs(log_negativity(rho, Bipartition(2, frozenset({1}))) - 1.0) < 1e-12


def test_log_negativity_nonnegative_and_zero_on_ppt():
    rho = np.kron(random_state(1), random_state(1))
    assert abs(log_negativity(rho, Bipartition(2, frozenset({1})))) < 1e-10


def test_werner_state_npt_iff_below_two_thirds():
    bip = Bipartition(2, frozenset({1}))
    for eps, npt in [(0.0, True), (0.5, True), (0.6, True), (0.7, False), (1.0, False)]:
        lam = hermitian_eigenvalues(partial_transpose(werner_state(eps), bip))
        assert (min(lam) < -1e-12) == npt
    # exactly at the boundary the smallest eigenvalue vanishes
    lam = hermitian_eigenvalues(partial_transpose(werner_state(2 / 3), bip))
    assert abs(min(lam)) < 1e-12


def test_werner_is_depolarized_singlet():
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1 / np.sqrt(2)
    psi[1] = -1 / np.sqrt(2)
    singlet = np.outer(psi, psi.conj())
    assert np.allclose(werner_state(0.0), singlet)
    assert np.allclose(werner_state(0.3), depolarize_global(singlet, 0.3))


def test_fidelity_pure():
    g = state_catalog("ghz", 2)
    rho = state_from_group(g)
    assert abs(fidelity_pure(rho, g) - 1.0) < 1e-12
    assert abs(fidelity_pure(maximally_mixed(2), g) - 0.25) < 1e-12
    # local depolarizing on the Bell state: F = ((1-eps)^2 + 1)^2 / 4... check numerically
    noisy = depolarize_local(rho, 0.5)
    assert abs(fidelity_pure(noisy, g) - np.trace(rho @ noisy).real) < 1e-12


def test_schmidt_rank():
    assert schmidt_rank(state_from_group(state_catalog("ghz", 6)),
                        Bipartition(6, frozenset({1, 2, 3}))) == 2
    ame = state_from_group(state_catalog("ame6", 6))
    for s in (1, 2, 3):
        assert schmidt_rank(ame, Bipartition(6, frozenset(range(1, s + 1)))) == 1 << s


def test_schmidt_rank_counts_reduced_eigenvalues():
    # separable pure product state has rank 1 across any cut
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    rho = np.outer(psi, psi.conj())
    assert schmidt_rank(rho, Bipartition(2, frozenset({1}))) == 1


def test_hermitian_eigenvalues_matches_numpy():
    for n in (1, 2, 3, 4):
        rho = random_state(n)
        got = np.sort(hermitian_eigenvalues(rho))
        want = np.sort(np.linalg.eigvalsh(rho))
        assert np.allclose(got, want, atol=1e-10)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        hermitian_eigenvalues(m)
