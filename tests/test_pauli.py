"""Tests for the symplectic Pauli algebra against dense matrices."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptml.pauli import (
    Bipartition,
    PauliString,
    StabilizerGroup,
    bell_pair_rank,
    enumerate_group,
    from_label,
    identity,
    multiply,
    phi,
    state_catalog,
    theta,
    weight,
)
from ptml import pauli
from ptml.dense import pauli_matrix


I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_from_label(label):
    ph = 1
    if label.startswith("-i*"):
        ph, label = -1j, label[3:]
    elif label.startswith("i*"):
        ph, label = 1j, label[2:]
    elif label.startswith("-"):
        ph, label = -1, label[1:]
    # qubit 1 is the least significant tensor factor
    m = np.array([[ph]], dtype=complex)
    for ch in label:
        m = np.kron(SINGLE[ch], m)
    return m


def test_from_label_roundtrip():
    for label in ["I", "X", "Y", "Z", "XIZY", "-YY", "i*XZ", "-i*IXYZ"]:
        assert str(from_label(label)) == label


def test_from_label_rejects_garbage():
    with pytest.raises(ValueError):
        from_label("XQ")


def test_weight():
    assert weight(from_label("IIII")) == 0
    assert weight(from_label("XIZY")) == 3
    assert weight(identity(5)) == 0


def test_pauli_matrix_matches_kron():
    for label in ["X", "Z", "XY", "-YY", "i*XZ", "XIZY"]:
        assert np.allclose(pauli_matrix(from_label(label)), dense_from_label(label))


def test_multiply_single_qubit_table():
    # XY = iZ, YX = -iZ, YZ = iX, ZX = iY, and every square is +I
    assert str(multiply(from_label("X"), from_label("Y"))) == "i*Z"
    assert str(multiply(from_label("Y"), from_label("X"))) == "-i*Z"
    assert str(multiply(from_label("Y"), from_label("Z"))) == "i*X"
    assert str(multiply(from_label("Z"), from_label("X"))) == "i*Y"
    for c in "IXYZ":
        assert str(multiply(from_label(c), from_label(c))) == "I"


def test_multiply_rejects_size_mismatch():
    with pytest.raises(ValueError):
        multiply(from_label("X"), from_label("XX"))


def test_hermitian_iff_phase_even():
    for label, herm in [("X", True), ("Y", True), ("i*X", False), ("-YY", True)]:
        p = from_label(label)
        m = pauli_matrix(p)
        assert np.allclose(m, m.conj().T) == herm
        assert (p.phase_exp in (0, 2)) == herm


@st.composite
def pauli_strings(draw, n):
    return PauliString(
        n,
        draw(st.integers(0, (1 << n) - 1)),
        draw(st.integers(0, (1 << n) - 1)),
        draw(st.integers(0, 3)),
    )


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(pauli_strings(n), pauli_strings(n))))
@settings(max_examples=200, deadline=None)
def test_multiply_matches_dense(pq):
    p, q = pq
    assert np.allclose(pauli_matrix(multiply(p, q)), pauli_matrix(p) @ pauli_matrix(q))


@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(pauli_strings(n), pauli_strings(n), pauli_strings(n))))
@settings(max_examples=100, deadline=None)
def test_multiply_associative(pqr):
    p, q, r = pqr
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(pauli_strings(n), pauli_strings(n))))
@settings(max_examples=100, deadline=None)
def test_multiply_xors_patterns(pq):
    p, q = pq
    r = multiply(p, q)
    assert r.x_mask == p.x_mask ^ q.x_mask
    assert r.z_mask == p.z_mask ^ q.z_mask


def test_theta_counts_y_on_a_side():
    bip = Bipartition(2, frozenset({1}))
    assert theta(from_label("YY"), bip) == -1
    assert theta(from_label("XY"), bip) == 1
    assert theta(from_label("YX"), bip) == -1
    assert theta(from_label("ZZ"), bip) == 1


def test_theta_matches_partial_transpose_sign():
    # P^(T_A) = theta(P) P for Hermitian strings
    from ptml.dense import partial_transpose

    for label in ["XX", "YY", "ZY", "-YX", "XYZY"]:
        p = from_label(label)
        bip = Bipartition(p.n, frozenset({1}))
        m = pauli_matrix(p)
        assert np.allclose(partial_transpose(m, bip), theta(p, bip) * m)


def test_phi_is_product_phase():
    x, y, z = (from_label(c) for c in "XYZ")
    assert phi([x, x]) == 1
    assert phi([x, y, z]) == 1j
    assert phi([z, y, x]) == -1j
    assert phi([y, y, y, y]) == 1


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(pauli_strings(n), min_size=1, max_size=4)))
@settings(max_examples=100, deadline=None)
def test_phi_matches_dense_product(ps):
    acc = identity(ps[0].n)
    for p in ps:
        acc = multiply(acc, p)
    chain = ps + [PauliString(acc.n, acc.x_mask, acc.z_mask, 0)]
    m = np.eye(1 << ps[0].n, dtype=complex)
    for p in chain:
        m = m @ pauli_matrix(p)
    d = m.shape[0]
    assert np.allclose(m, (np.trace(m) / d) * np.eye(d))
    assert abs(phi(chain) - np.trace(m) / d) < 1e-12


def test_enumerate_group_ghz2():
    g = state_catalog("ghz", 2)
    labels = sorted(str(p) for p in enumerate_group(g))
    assert labels == ["-YY", "II", "XX", "ZZ"]


def test_enumerate_group_sizes_and_hermiticity():
    for name, n in [("ghz", 4), ("zero", 3), ("bell_pairs", 4), ("ame6", 6)]:
        g = state_catalog(name, n)
        elems = enumerate_group(g)
        assert len(elems) == 1 << n
        assert len({(p.x_mask, p.z_mask) for p in elems}) == 1 << n
        assert all(p.phase_exp in (0, 2) for p in elems)


def test_group_elements_close_under_multiplication():
    g = state_catalog("ghz", 3)
    elems = set(enumerate_group(g))
    for p in elems:
        for q in elems:
            assert multiply(p, q) in elems


def test_state_catalog_validation():
    with pytest.raises(ValueError):
        state_catalog("ghz", 0)
    with pytest.raises(ValueError):
        state_catalog("bell_pairs", 3)  # needs even n
    with pytest.raises(ValueError):
        state_catalog("ame6", 4)  # fixed size
    with pytest.raises(ValueError):
        state_catalog("nope", 2)


def test_bell_pair_rank_values():
    assert bell_pair_rank(state_catalog("ghz", 2), Bipartition(2, frozenset({1}))) == 1
    assert bell_pair_rank(state_catalog("ghz", 6), Bipartition(6, frozenset({1, 2, 3}))) == 1
    bp = state_catalog("bell_pairs", 4)
    assert bell_pair_rank(bp, Bipartition(4, frozenset({1, 2}))) == 0
    assert bell_pair_rank(bp, Bipartition(4, frozenset({1, 3}))) == 2
    ame = state_catalog("ame6", 6)
    for s in (1, 2, 3):
        assert bell_pair_rank(ame, Bipartition(6, frozenset(range(1, s + 1)))) == s


def test_bell_pair_rank_matches_schmidt_rank():
    from ptml.dense import schmidt_rank, state_from_group

    for name, n, a in [("ghz", 4, {1, 2}), ("bell_pairs", 4, {1, 3}),
                       ("ame6", 6, {2, 4, 6}), ("zero", 3, {1})]:
        g = state_catalog(name, n)
        bip = Bipartition(n, frozenset(a))
        r = bell_pair_rank(g, bip)
        assert schmidt_rank(state_from_group(g), bip) == 1 << r


def test_bipartition_complement():
    bip = Bipartition(4, frozenset({1, 3}))
    assert bip.complement().a_set == frozenset({2, 4})
    assert bip.a_mask == 0b0101


def test_out_of_range_input_raises_value_error():
    with pytest.raises(ValueError):
        Bipartition(2, frozenset({5}))
    with pytest.raises(ValueError):
        Bipartition(2, frozenset({0, 1}))
    with pytest.raises(ValueError):
        PauliString(1, 0, 0, 9)
    with pytest.raises(ValueError):
        PauliString(1, 2, 0)
    with pytest.raises(ValueError):
        PauliString(2, 0, -1)
    for gens in (("XX", "ZI"),      # anticommuting
                 ("XX", "i*ZZ"),    # not Hermitian
                 ("XX", "-XX"),     # dependent
                 ("XX", "Z")):      # wrong qubit count
        with pytest.raises(ValueError):
            StabilizerGroup(2, tuple(from_label(g) for g in gens))


def test_validation_survives_optimized_mode():
    # python -O strips assert statements; the checks must not rely on them
    script = textwrap.dedent("""
        import numpy as np
        from ptml.dense import nqubits
        from ptml.pauli import (Bipartition, PauliString, StabilizerGroup,
                                from_label)
        xx, zi = from_label("XX"), from_label("ZI")
        for fn, args in ((Bipartition, (2, frozenset({5}))),
                         (PauliString, (1, 0, 0, 9)),
                         (from_label, ("XQ",)),
                         (StabilizerGroup, (2, (xx, zi))),
                         (nqubits, (np.eye(3),))):
            try:
                fn(*args)
            except ValueError:
                continue
            raise SystemExit(f"{fn.__name__}{args} accepted")
    """)
    src = os.path.dirname(os.path.dirname(pauli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
