"""Random stabilizer groups for the tests (imported, not collected), and
the containment check of enclosed values."""

import random
from fractions import Fraction

from mpmath.libmp import to_rational

from ptml.pauli import Bipartition, PauliString, StabilizerGroup


def encloses(lo, hi, x) -> bool:
    """Whether binary bounds lo and hi (libmp tuples) hold the number x."""
    return Fraction(*to_rational(lo)) <= x <= Fraction(*to_rational(hi))


def random_group(n: int, seed: int) -> StabilizerGroup:
    """|0..0> moved by a walk of H, S and CNOT on the generators' symplectic
    masks, with random signs; a symplectic walk keeps the generators
    commuting and independent, and every sign choice is a valid state."""
    rng = random.Random(seed)
    rows = [[0, 1 << a] for a in range(n)]
    for _ in range(12 * n):
        gate, a = rng.randrange(3 if n > 1 else 2), rng.randrange(n)
        b = (a + 1 + rng.randrange(n - 1)) % n if n > 1 else a
        for row in rows:
            x, z = row
            xa, za, zb = x >> a & 1, z >> a & 1, z >> b & 1
            if gate == 0:  # H: swap the x and z bits of qubit a
                row[0], row[1] = x ^ (xa ^ za) << a, z ^ (xa ^ za) << a
            elif gate == 1:  # S: z_a ^= x_a
                row[1] = z ^ xa << a
            else:  # CNOT a -> b: x_b ^= x_a, z_a ^= z_b
                row[0], row[1] = x ^ xa << b, z ^ zb << a
    return StabilizerGroup(n, tuple(PauliString(n, x, z, 2 * rng.randrange(2))
                                    for x, z in rows))


def random_cut(n: int, seed: int) -> Bipartition:
    """A nonempty side A of at most n - 1 qubits, chosen from the seed."""
    rng = random.Random(-seed - 1)
    return Bipartition(n, frozenset(rng.sample(range(1, n + 1),
                                               rng.randrange(1, n))))
