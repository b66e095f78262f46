"""Reference computations the benchmark checks ptml's answers against.

Each oracle takes a different route from the ptml fast path it checks:
dense states are built here with numpy from the stabilizer generators,
noise is applied as a Pauli twirl rather than ptml's trace-and-embed, and
PPT thresholds come from numpy.linalg.eigvalsh or from closed forms.
"""

from __future__ import annotations

import numpy as np

# A threshold agrees with an oracle threshold when they differ by less than
# this; ptml brackets its thresholds to 1e-9.
THRESHOLD_ATOL = 1e-6
# |lambda_min| below this counts as zero: the PPT verdict is then undecided.
EIG_ATOL = 1e-9
# The dense PPT oracle scans this many evenly spaced noise rates, then
# bisects the last NPT -> PPT crossing down to PPT_TOL.
PPT_GRID = 64
PPT_TOL = 1e-10


def ghz_ppt_threshold(n: int) -> float:
    """Closed-form PPT threshold of the locally depolarized GHZ state on
    its balanced cut: 1 - (2^(2 - 2/n) + 1)^(-1/2)."""
    return 1.0 - (2.0 ** (2.0 - 2.0 / n) + 1.0) ** -0.5


def global_ppt_threshold(n: int, r: int) -> float:
    """PPT threshold of a globally depolarized stabilizer state with r Bell
    pairs across the cut: the smallest PT eigenvalue eps/2^n - (1-eps)/2^r
    reaches zero at eps = 2^n / (2^n + 2^r).  A product state (r = 0) is
    never NPT, so its threshold is 0."""
    if r == 0:
        return 0.0
    return 2.0 ** n / (2.0 ** n + 2.0 ** r)


def gf2_rank(rows) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if not pivot:
            break
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> top) & 1 else r for r in rows]
        rank += 1
    return rank


def bell_pairs_across(gens, n: int, a_qubits) -> int:
    """Bell pairs across A|B: |A| minus the dimension of the subgroup
    supported on A, which is the kernel of restricting to B."""
    b_mask = ((1 << n) - 1) & ~sum(1 << (a - 1) for a in a_qubits)
    rows = [((x & b_mask) << n) | (z & b_mask) for x, z, _ in gens]
    return len(a_qubits) - (n - gf2_rank(rows))


_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_dense(n: int, x: int, z: int, phase: int) -> np.ndarray:
    """i^phase times the Pauli pattern, with (1, 1) the Hermitian Y."""
    acc = np.ones((1, 1), dtype=complex)
    for a in range(n, 0, -1):  # qubit 1 is the least significant bit
        xa, za = (x >> (a - 1)) & 1, (z >> (a - 1)) & 1
        f = _I2
        if xa and za:
            f = 1j * _X @ _Z
        elif xa:
            f = _X
        elif za:
            f = _Z
        acc = np.kron(acc, f)
    return (1j ** phase) * acc


def stabilizer_state(gens, n: int) -> np.ndarray:
    """Density matrix prod_i (1 + g_i) / 2 of a pure stabilizer state."""
    dim = 1 << n
    rho = np.eye(dim, dtype=complex)
    for x, z, phase in gens:
        rho = rho @ (np.eye(dim) + pauli_dense(n, x, z, phase)) / 2
    return rho


def depolarize_local(rho: np.ndarray, n: int, eps: float) -> np.ndarray:
    """Per-qubit depolarizing channel as a Pauli twirl:
    rho -> (1 - 3e/4) rho + (e/4)(X rho X + Y rho Y + Z rho Z)."""
    idx = np.arange(rho.shape[0])
    for a in range(n):
        flip = idx ^ (1 << a)
        sign = 1 - 2 * ((idx >> a) & 1)
        zz = np.outer(sign, sign)
        xrx = rho[np.ix_(flip, flip)]
        rho = ((1 - 0.75 * eps) * rho
               + 0.25 * eps * (xrx + rho * zz + xrx * zz))
    return rho


def depolarize_global(rho: np.ndarray, eps: float) -> np.ndarray:
    dim = rho.shape[0]
    return (1 - eps) * rho + eps * np.eye(dim) / dim


def partial_transpose(rho: np.ndarray, a_qubits) -> np.ndarray:
    a_mask = sum(1 << (a - 1) for a in a_qubits)
    idx = np.arange(rho.shape[0])
    rows, cols = idx[:, None], idx[None, :]
    return rho[(rows & ~a_mask) | (cols & a_mask),
               (cols & ~a_mask) | (rows & a_mask)]


def pt_spectrum(rho: np.ndarray, a_qubits) -> np.ndarray:
    pt = partial_transpose(rho, a_qubits)
    return np.linalg.eigvalsh((pt + pt.conj().T) / 2)


def local_ppt_threshold(gens, n: int, a_qubits) -> float:
    """Largest local noise rate at which the dense partial transpose still
    has a negative eigenvalue: a grid scan, then bisection of the last
    NPT -> PPT crossing."""
    rho = stabilizer_state(gens, n)

    def npt(eps):
        lam = pt_spectrum(depolarize_local(rho, n, eps), a_qubits)[0]
        return lam < -EIG_ATOL

    pts = [i / (PPT_GRID - 1) for i in range(PPT_GRID)]
    hits = [npt(e) for e in pts]
    if not any(hits):
        return 0.0
    last = max(i for i, h in enumerate(hits) if h)
    lo, hi = pts[last], pts[last + 1]
    while hi - lo > PPT_TOL:
        mid = (lo + hi) / 2
        if npt(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def distinct_character_polys(gens, n: int, a_qubits) -> int:
    """Distinct character polynomials of the weight and signed-weight
    indicators over the group: the size of the tables ptml's enumerator
    transform works through.  Used to pick comparable random states."""
    size = 1 << n
    xs = np.zeros(size, dtype=np.int64)
    zs = np.zeros(size, dtype=np.int64)
    for i, (x, z, _) in enumerate(gens):
        block = 1 << i
        xs[block:2 * block] = xs[:block] ^ x
        zs[block:2 * block] = zs[:block] ^ z
    a_mask = sum(1 << (a - 1) for a in a_qubits)
    popcount = np.vectorize(int.bit_count, otypes=[np.int64])
    wt = popcount(xs | zs)
    theta = 1 - 2 * (popcount(xs & zs & a_mask) & 1)
    plus = np.zeros((n + 1, size), dtype=np.int64)
    plus[wt, np.arange(size)] = 1
    minus = np.zeros((n + 1, size), dtype=np.int64)
    minus[wt, np.arange(size)] = theta
    total = 0
    for table in (plus, minus):
        h = 1
        while h < size:  # Walsh-Hadamard transform along the group index
            t = table.reshape(n + 1, size // (2 * h), 2, h)
            table = np.stack((t[:, :, 0] + t[:, :, 1],
                              t[:, :, 0] - t[:, :, 1]), axis=2)
            table = table.reshape(n + 1, size)
            h *= 2
        total += len(np.unique(table.T, axis=0))
    return total

