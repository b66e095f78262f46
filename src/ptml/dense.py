"""Dense-matrix reference engine.

Small-n states as explicit 2^n x 2^n complex arrays: stabilizer projectors,
depolarizing channels, partial transposition, spectra, PT moments and
negativity.  Everything here is the brute-force oracle that the analytic
fast paths (modules spectra, enumerators) are validated against.

A dense operator is a plain numpy array of shape (2^n, 2^n); qubit a
corresponds to bit a-1 of the computational-basis index (qubit 1 = least
significant bit), consistent with the mask convention in module pauli.
"""

from __future__ import annotations

import math

import numpy as np

from .pauli import Bipartition, PauliString, StabilizerGroup, enumerate_group, weight
from .spectra import MomentVector

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


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense materialization of a Pauli string, phase included."""
    acc = np.array([[1.0 + 0j]])
    for a in range(p.n, 0, -1):  # qubit 1 ends up at the least significant bit
        xa = (p.x_mask >> (a - 1)) & 1
        za = (p.z_mask >> (a - 1)) & 1
        acc = np.kron(acc, _SINGLE[(xa, za)])
    return (1j) ** p.phase_exp * acc


def state_from_group(g: StabilizerGroup, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Projector onto the stabilizer state: sum of group elements / 2^n."""
    if g.n > cap:
        raise ValueError(f"dense cap exceeded: n={g.n} > {cap}")
    dim = 1 << g.n
    rho = np.zeros((dim, dim), dtype=complex)
    for el in enumerate_group(g):
        rho += pauli_matrix(el)
    return rho / dim


def maximally_mixed(n: int) -> np.ndarray:
    dim = 1 << n
    return np.eye(dim, dtype=complex) / dim


def werner_state(eps: float) -> np.ndarray:
    """(1-eps) |psi-><psi-| + eps 1/4 on two qubits."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1 / math.sqrt(2)   # |01>: qubit 1 in 0, qubit 2 in 1
    psi[1] = -1 / math.sqrt(2)  # |10>
    return (1 - eps) * np.outer(psi, psi.conj()) + eps * np.eye(4) / 4


def depolarize_local(rho: np.ndarray, eps: float) -> np.ndarray:
    """Apply the single-qubit depolarizing channel to every qubit."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    n = nqubits(rho)
    out = rho.astype(complex)
    for a in range(1, n + 1):
        out = (1 - eps) * out + eps * _trace_out_embed(out, a)
    return out


def _trace_out_embed(rho: np.ndarray, a: int) -> np.ndarray:
    """Replace qubit a by the unnormalized identity: 1_a (x) Tr_a[rho]."""
    dim = rho.shape[0]
    bit = 1 << (a - 1)
    idx = np.arange(dim)
    rows = idx[:, None]
    cols = idx[None, :]
    same = ((rows ^ cols) & bit) == 0
    summed = rho[rows & ~bit, cols & ~bit] + rho[rows | bit, cols | bit]
    return 0.5 * summed * same


def depolarize_local_via_weights(rho: np.ndarray, eps: float) -> np.ndarray:
    """Same channel through the Pauli picture: coefficients decay as
    (1-eps)^wt(P).  Exponential in n; used to cross-check depolarize_local.
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
    n = nqubits(rho)
    if bip.n != n:
        raise ValueError(f"bipartition of {bip.n} qubits on a {n}-qubit state")
    a_mask = bip.a_mask
    dim = 1 << n
    idx = np.arange(dim)
    rows = idx[:, None]
    cols = idx[None, :]
    src_rows = (rows & ~a_mask) | (cols & a_mask)
    src_cols = (cols & ~a_mask) | (rows & a_mask)
    return rho[src_rows, src_cols]


def hermitian_eigenvalues(m: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending."""
    scale = np.max(np.abs(m)) or 1.0
    if np.max(np.abs(m - m.conj().T)) > rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def pt_moments(rho: np.ndarray, bip: Bipartition, m_max: int) -> MomentVector:
    """PT moments p_k = Tr[(rho^G)^k], k = 1..m_max, via power sums."""
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    lams = hermitian_eigenvalues(partial_transpose(rho, bip))
    by_mag = sorted(lams, key=abs)
    values = tuple(math.fsum(lam ** k for lam in by_mag)
                   for k in range(1, m_max + 1))
    schatten = tuple(math.fsum(abs(lam) ** k for lam in by_mag)
                     for k in range(1, m_max + 1))
    return MomentVector(values, schatten, digits=None)


def schatten_moments(rho: np.ndarray, bip: Bipartition, m_max: int) -> list:
    """Schatten power sums ptilde_k = sum |lambda_i|^k of rho^G."""
    return list(pt_moments(rho, bip, m_max).schatten)


def log_negativity(rho: np.ndarray, bip: Bipartition) -> float:
    """log2 of the trace norm of rho^G."""
    lams = hermitian_eigenvalues(partial_transpose(rho, bip))
    return math.log2(math.fsum(abs(lam) for lam in lams))


def fidelity_pure(rho: np.ndarray, g: StabilizerGroup) -> float:
    """Overlap Tr[rho Psi] with the pure stabilizer state of g."""
    psi = state_from_group(g)
    return float(np.real(np.trace(rho @ psi)))


def schmidt_rank(rho_pure: np.ndarray, bip: Bipartition, tol: float = 1e-9) -> int:
    """Schmidt rank of a pure state across A|B (oracle for bell_pair_rank).

    Counts eigenvalues of the reduced state on A above tol.
    """
    n = nqubits(rho_pure)
    reduced = _partial_trace_keep(rho_pure, bip.a_mask, n)
    lams = hermitian_eigenvalues(reduced)
    return int(sum(1 for lam in lams if lam > tol))


def _partial_trace_keep(rho: np.ndarray, keep_mask: int, n: int) -> np.ndarray:
    keep_bits = [a for a in range(n) if (keep_mask >> a) & 1]
    drop_bits = [a for a in range(n) if not (keep_mask >> a) & 1]
    dk = 1 << len(keep_bits)
    dd = 1 << len(drop_bits)
    out = np.zeros((dk, dd, dk, dd), dtype=complex)
    dim = 1 << n
    idx = np.arange(dim)
    keep_idx = np.zeros(dim, dtype=np.int64)
    drop_idx = np.zeros(dim, dtype=np.int64)
    for pos, a in enumerate(keep_bits):
        keep_idx |= ((idx >> a) & 1) << pos
    for pos, a in enumerate(drop_bits):
        drop_idx |= ((idx >> a) & 1) << pos
    out[keep_idx[:, None], drop_idx[:, None], keep_idx[None, :], drop_idx[None, :]] = rho
    return np.einsum("ikjk->ij", out)
