"""Exact MacWilliams-type transforms and enumerator-vector recovery.

The quantum MacWilliams matrix M maps the weight enumerators of a state to
those of its complementary marginals; purity forces M a = a, and vanishing
odd weights (type-II states) add a second fixed-point condition under the
sign-twisted transform.  Both fixed spaces have small explicit bases built
by convolving the enumerators of a handful of seed states, which lets a
full enumerator vector be recovered from only a few known entries.

Everything here is exact and runs over Python ints with a power-of-two
denominator: M is held as the integer numerators 2^n M, so the involution
check is N N = 4^n I, and an n-qubit basis vector is a product of seed
numerator polynomials ((1, 1)/2, (1, 0, 3)/4, (1, 0, 0, 0, 45, 0, 18)/64),
taken as one packed big-int product, over 2^n.  Fractions are built only
where a value is returned: entries, apply and the SLVector values.  The
reconstruction solves its small normal equations over Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enumerators import SLVector


@dataclass(frozen=True)
class MacWilliamsMatrix:
    """(n+1) x (n+1) rational matrix acting on weight indices, held as
    integer numerators num over 2^shift."""

    n: int
    num: tuple  # rows of ints
    shift: int

    @property
    def entries(self) -> tuple:
        """Rows of Fractions."""
        return tuple(tuple(Fraction(v, 1 << self.shift) for v in row)
                     for row in self.num)

    def apply(self, values) -> tuple:
        """M values, as Fractions, summed over ints: values are taken as
        numerators over their common denominator."""
        if len(values) != self.n + 1:
            raise ValueError(f"need {self.n + 1} values")
        den = math.lcm(*(Fraction(v).denominator for v in values))
        x = [int(v * den) for v in values]
        return tuple(Fraction(sum(map(int.__mul__, row, x)), den << self.shift)
                     for row in self.num)

    def mul(self, other: "MacWilliamsMatrix") -> "MacWilliamsMatrix":
        if self.n != other.n:
            raise ValueError("matrices of different sizes")
        cols = tuple(zip(*other.num))
        rows = tuple(tuple(sum(map(int.__mul__, row, col)) for col in cols)
                     for row in self.num)
        return MacWilliamsMatrix(self.n, rows, self.shift + other.shift)

    def is_identity(self) -> bool:
        return all(v == (i == j) << self.shift
                   for i, row in enumerate(self.num) for j, v in enumerate(row))


def macwilliams(n: int) -> MacWilliamsMatrix:
    """M_{i,j} = coefficient of x^i in (1+3x)^{n-j} (1-x)^j / 2^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = tuple(tuple(sum(math.comb(n - j, t) * 3**t * math.comb(j, i - t)
                           * (-1) ** (i - t)
                           for t in range(max(0, i - j), min(i, n - j) + 1))
                       for j in range(n + 1))
                 for i in range(n + 1))
    return MacWilliamsMatrix(n, rows, n)


def ttilde(n: int) -> MacWilliamsMatrix:
    """Sign-twisted transform: odd columns of M flipped."""
    rows = tuple(tuple(-v if j % 2 else v for j, v in enumerate(row))
                 for row in macwilliams(n).num)
    return MacWilliamsMatrix(n, rows, n)


def sl_convolve(a: SLVector, b: SLVector) -> SLVector:
    """Enumerators of a tensor product: traces factor, weights add.  The
    Fraction oracle of _product_vector."""
    out = [Fraction(0)] * (a.n + b.n + 1)
    for i, ai in enumerate(a.values):
        for j, bj in enumerate(b.values):
            out[i + j] += ai * bj
    return SLVector(a.n + b.n, tuple(out))


def psi0_vector() -> SLVector:
    return SLVector(1, (Fraction(1, 2), Fraction(1, 2)))


def bell_vector() -> SLVector:
    return SLVector(2, (Fraction(1, 4), Fraction(0), Fraction(3, 4)))


def ame6_vector() -> SLVector:
    return SLVector(6, tuple(Fraction(c, 64) for c in (1, 0, 0, 0, 45, 0, 18)))


def _product_vector(n: int, parts) -> SLVector:
    """Enumerators of a product of (seed, count) states over ints: with
    numerators 2^n a_w, which are nonnegative and sum to 2^n, each fits n + 1
    bits, and the product polynomial is one big-int product at z = 2^(n+1)."""
    bits = n + 1
    packed = math.prod(sum(int(v * (1 << seed.n)) << bits * w
                           for w, v in enumerate(seed.values)) ** count
                       for seed, count in parts)
    mask = (1 << bits) - 1
    return SLVector(n, tuple(Fraction(packed >> bits * w & mask, 1 << n)
                             for w in range(n + 1)))


def pure_kernel_basis(n: int) -> list:
    """Basis of the M-fixed space: i Bell pairs padded with single qubits,
    i = 0..floor(n/2); dimension ceil((n+1)/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [_product_vector(n, [(bell_vector(), i), (psi0_vector(), n - 2 * i)])
            for i in range(n // 2 + 1)]


def type2_kernel_basis(n: int) -> list:
    """Basis of the joint M- and ttilde-fixed space: i six-qubit perfect
    tensors padded with Bell pairs, i = 0..floor(n/6); dimension
    ceil((n+1)/6).  Type-II states need an even qubit count."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        raise ValueError("type-II kernel needs even n")
    return [_product_vector(n, [(ame6_vector(), i),
                                (bell_vector(), (n - 6 * i) // 2)])
            for i in range(n // 6 + 1)]


def _solve_exact(mat, rhs):
    # Gauss-Jordan over Fractions; None signals a singular system
    m = [list(row) + [v] for row, v in zip(mat, rhs)]
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return None
        m[piv], m[col] = m[col], [v / m[piv][col] for v in m[piv]]
        for r in range(len(m)):
            if r != col and m[r][col]:
                m[r] = [v - m[r][col] * u for v, u in zip(m[r], m[col])]
    return [row[-1] for row in m]


def reconstruct_enumerators(known: dict, n: int,
                            type2: bool = False) -> SLVector:
    """Recover a full enumerator vector from a few known entries.

    known maps weight -> value for a pure (type2=False) or type-II
    (type2=True) state.  The vector is expanded in the matching kernel
    basis and the coefficients solved by exact rational normal equations;
    the fit must reproduce the known entries to 1e-8 relative to their
    norm.
    """
    basis = type2_kernel_basis(n) if type2 else pure_kernel_basis(n)
    dim = len(basis)
    weights = sorted(known)
    if any(w < 0 or w > n for w in weights):
        raise ValueError("known weights must lie in 0..n")
    if len(weights) < dim:
        raise ValueError(f"underdetermined: {len(weights)} known entries "
                         f"< kernel dimension {dim}")
    a = [[basis[c].values[w] for c in range(dim)] for w in weights]
    b = [Fraction(known[w]) for w in weights]
    ata = [[sum(a[r][i] * a[r][j] for r in range(len(weights))) for j in range(dim)]
           for i in range(dim)]
    atb = [sum(a[r][i] * b[r] for r in range(len(weights))) for i in range(dim)]
    x = _solve_exact(ata, atb)
    if x is None:
        raise ValueError(f"rank-deficient system: the {len(weights)} known "
                         f"weights do not pin down {dim} kernel coordinates")
    values = tuple(sum(x[c] * basis[c].values[i] for c in range(dim))
                   for i in range(n + 1))
    res2 = sum((values[w] - bw) ** 2 for w, bw in zip(weights, b))
    b2 = sum(v * v for v in b)
    if float(res2) > 1e-8**2 * max(float(b2), 1e-300):
        raise ValueError(f"inconsistent data: fit residual "
                         f"{math.sqrt(float(res2)):.3e} exceeds tolerance")
    return SLVector(n, values)
