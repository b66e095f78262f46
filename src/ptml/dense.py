"""Dense-matrix reference engine.

Small-n states as explicit 2^n x 2^n complex arrays: stabilizer projectors,
depolarizing channels, partial transposition, spectra, PT moments and
negativity.  Everything here is the brute-force oracle that the analytic
fast paths (modules spectra, enumerators) are validated against.

A dense operator is a plain numpy array of shape (2^n, 2^n); qubit a
corresponds to bit a-1 of the computational-basis index (qubit 1 = least
significant bit), consistent with the mask convention in module pauli.
Reshaped to (2,) * 2n, one axis per index bit, qubit a's row bit is axis
n-a and its column bit axis 2n-a; partial transposes, partial traces and
the local channel are axis operations on that view.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import Bipartition, PauliString, StabilizerGroup, enumerate_group, weight
from .spectra import MomentVector, Spectrum, moments_from_spectrum

DENSE_QUBIT_CAP = 12
HERMITICITY_RTOL = 1e-12

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}


def nqubits(rho: np.ndarray) -> int:
    n = int(round(math.log2(rho.shape[0])))
    if rho.shape != (1 << n, 1 << n):
        raise ValueError(f"not a square matrix of size 2^n: {rho.shape}")
    return n


def _qubit_axes(rho: np.ndarray) -> tuple:
    """rho viewed with one axis per index bit (module docstring), and n."""
    n = nqubits(rho)
    return rho.reshape((2,) * (2 * n)), n


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense materialization of a Pauli string, phase included."""
    acc = np.array([[1.0 + 0j]])
    for a in range(p.n, 0, -1):  # qubit 1 ends up at the least significant bit
        xa = (p.x_mask >> (a - 1)) & 1
        za = (p.z_mask >> (a - 1)) & 1
        acc = np.kron(acc, _SINGLE[(xa, za)])
    return (1j) ** p.phase_exp * acc


def state_from_group(g: StabilizerGroup) -> np.ndarray:
    """Projector onto the stabilizer state: sum of group elements / 2^n.

    With Y = i X Z an element is i^(phase + |x&z|) X^x Z^z, whose column s
    holds (-1)^|z&s| in row s^x; pauli_matrix is the Kronecker reference."""
    if g.n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense cap exceeded: n={g.n} > {DENSE_QUBIT_CAP}")
    dim = 1 << g.n
    s = np.arange(dim)
    sign = 1 - 2 * (np.bitwise_count(s) & 1).astype(np.int64)  # (-1)^|s|
    rho = np.zeros((dim, dim), dtype=complex)
    for el in enumerate_group(g):
        phase = 1j ** (el.phase_exp + (el.x_mask & el.z_mask).bit_count())
        rho[s ^ el.x_mask, s] += phase * sign[s & el.z_mask]
    return rho / dim


def maximally_mixed(n: int) -> np.ndarray:
    dim = 1 << n
    return np.eye(dim, dtype=complex) / dim


def depolarize_local(rho: np.ndarray, eps: float) -> np.ndarray:
    """Apply the single-qubit depolarizing channel to every qubit:
    rho -> (1-eps) rho + eps 1_a/2 (x) Tr_a[rho], for a = 1..n in turn."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    out, n = _qubit_axes(rho.astype(complex))
    for a in range(1, n + 1):
        row, col = n - a, 2 * n - a
        shape = [1] * (2 * n)  # the 2 x 2 identity on axes row and col
        shape[row] = shape[col] = 2
        mixed = np.expand_dims(0.5 * np.trace(out, axis1=row, axis2=col),
                               (row, col))
        out = (1 - eps) * out + eps * (mixed * np.eye(2).reshape(shape))
    return out.reshape(rho.shape)


def depolarize_local_via_weights(rho: np.ndarray, eps: float) -> np.ndarray:
    """Same channel through the Pauli picture: coefficients decay as
    (1-eps)^wt(P).  Exponential in n; the oracle of depolarize_local.
    """
    n = nqubits(rho)
    if n > 6:
        raise ValueError("weight-decay route capped at n <= 6")
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        for z in range(dim):
            p = PauliString(n, x, z, 0)
            mat = pauli_matrix(p)
            coeff = np.trace(rho @ mat) / dim
            out += coeff * (1 - eps) ** weight(p) * mat
    return out


def depolarize_global(rho: np.ndarray, eps: float) -> np.ndarray:
    """(1-eps) rho + eps 1/2^n."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    n = nqubits(rho)
    return (1 - eps) * rho + eps * maximally_mixed(n)


def partial_transpose(rho: np.ndarray, bip: Bipartition) -> np.ndarray:
    """Transpose the A-side indices: <a,b|rho^G|a',b'> = <a',b|rho|a,b'>."""
    t, n = _qubit_axes(rho)
    for a in bip.check(n).a_set:
        t = t.swapaxes(n - a, 2 * n - a)
    return t.copy().reshape(rho.shape)  # a copy on the empty cut too


def reduced_state(rho: np.ndarray, bip: Bipartition) -> np.ndarray:
    """Tr_B[rho], a complex 2^|A| x 2^|A| array in the same bit order."""
    t, n = _qubit_axes(rho)
    a_set = bip.check(n).a_set
    kept = [i for i in range(n) if n - i in a_set]  # the A row axes
    # a B column axis repeats its row axis's label, so einsum traces the pair
    cols = [n + i if i in kept else i for i in range(n)]
    traced = np.einsum(t, list(range(n)) + cols, kept + [n + i for i in kept])
    dim = 1 << len(kept)
    return np.array(traced, dtype=complex).reshape(dim, dim)  # never a view


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending."""
    scale = np.max(np.abs(m)) or 1.0
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def pt_spectrum(rho: np.ndarray, bip: Bipartition) -> Spectrum:
    """The eigenvalues of rho^G as a float Spectrum."""
    lams = hermitian_eigenvalues(partial_transpose(rho, bip))
    return Spectrum(tuple((float(x), 1) for x in lams), digits=None)


def pt_moments(rho: np.ndarray, bip: Bipartition, m_max: int) -> MomentVector:
    """PT moments p_k = Tr[(rho^G)^k] and Schatten sums, k = 1..m_max: the
    exact power sums of the float eigenvalues, each rounded once."""
    return moments_from_spectrum(pt_spectrum(rho, bip), m_max)


def log_negativity(rho: np.ndarray, bip: Bipartition) -> float:
    """log2 of the trace norm of rho^G."""
    lams = pt_spectrum(rho, bip).entries
    return math.log2(math.fsum(abs(lam) for lam, _ in lams))


def fidelity_pure(rho: np.ndarray, g: StabilizerGroup) -> float:
    """Overlap Tr[rho Psi] with the pure stabilizer state of g."""
    psi = state_from_group(g)
    return float(np.real(np.trace(rho @ psi)))


def schmidt_rank(rho_pure: np.ndarray, bip: Bipartition) -> int:
    """Schmidt rank of a pure state across A|B; the oracle of
    pauli.bell_pair_rank.

    Counts eigenvalues of the reduced state on A above 1e-9.
    """
    lams = hermitian_eigenvalues(reduced_state(rho_pure, bip))
    return int(sum(1 for lam in lams if lam > 1e-9))
