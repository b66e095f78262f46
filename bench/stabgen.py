"""Seeded random stabilizer states for the benchmark.

A state is grown from |0...0> (generators Z_1..Z_n) by a walk of random
Clifford gates on the symplectic masks of its generators.  Signs follow the
Aaronson-Gottesman tableau rules, in which the pattern with both bits set is
the Hermitian Y, the convention of ptml.pauli.  A generator is returned as
(x_mask, z_mask, phase_exp) with phase_exp 0 or 2, ready for
ptml.pauli.PauliString; bit a-1 of a mask is qubit a.
"""

from __future__ import annotations

import random

GATES_PER_QUBIT = 40


def _hadamard(rows, a):
    for row in rows:
        x, z, r = row
        xa, za = (x >> a) & 1, (z >> a) & 1
        row[0] = (x & ~(1 << a)) | (za << a)
        row[1] = (z & ~(1 << a)) | (xa << a)
        row[2] = r ^ (xa & za)


def _phase(rows, a):
    for row in rows:
        x, z, r = row
        xa, za = (x >> a) & 1, (z >> a) & 1
        row[1] = z ^ (xa << a)
        row[2] = r ^ (xa & za)


def _cnot(rows, c, t):
    for row in rows:
        x, z, r = row
        xc, zc = (x >> c) & 1, (z >> c) & 1
        xt, zt = (x >> t) & 1, (z >> t) & 1
        row[0] = x ^ (xc << t)
        row[1] = z ^ (zt << c)
        row[2] = r ^ (xc & zt & (xt ^ zc ^ 1))


def random_stabilizer(n: int, rng: random.Random) -> list:
    """Generators of the state reached by n * GATES_PER_QUBIT gates drawn
    uniformly from {H, S, CNOT} on random qubits."""
    rows = [[0, 1 << a, 0] for a in range(n)]
    for _ in range(n * GATES_PER_QUBIT):
        kind = rng.randrange(3)
        if kind == 0:
            _hadamard(rows, rng.randrange(n))
        elif kind == 1:
            _phase(rows, rng.randrange(n))
        else:
            c, t = rng.sample(range(n), 2)
            _cnot(rows, c, t)
    return [(x, z, 2 * r) for x, z, r in rows]


def random_balanced_cut(n: int, rng: random.Random) -> list:
    """floor(n/2) distinct qubits (1-based, sorted) for side A."""
    return sorted(rng.sample(range(1, n + 1), n // 2))
