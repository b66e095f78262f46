"""Exact MacWilliams-type transforms and enumerator-vector recovery.

The quantum MacWilliams matrix M maps the weight enumerators of a state to
those of its complementary marginals; purity forces M a = a, and vanishing
odd weights (type-II states) add a second fixed-point condition under the
sign-twisted transform.  Both fixed spaces have small explicit bases built
by convolving the enumerators of a handful of seed states, which lets a
full enumerator vector be recovered from only a few known entries.

Everything here runs in exact rational arithmetic: kernel membership is an
algebraic identity, and the reconstruction acceptance checks demand exact
results on dyadic input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enumerators import SLVector


@dataclass(frozen=True)
class MacWilliamsMatrix:
    """(n+1) x (n+1) exact rational matrix acting on weight indices."""

    n: int
    entries: tuple  # rows of Fractions

    def apply(self, values) -> tuple:
        if len(values) != self.n + 1:
            raise ValueError(f"need {self.n + 1} values")
        return tuple(sum(r * v for r, v in zip(row, values)) for row in self.entries)

    def mul(self, other: "MacWilliamsMatrix") -> "MacWilliamsMatrix":
        if self.n != other.n:
            raise ValueError("matrices of different sizes")
        cols = tuple(zip(*other.entries))
        rows = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                     for row in self.entries)
        return MacWilliamsMatrix(self.n, rows)

    def is_identity(self) -> bool:
        return all(v == (1 if i == j else 0)
                   for i, row in enumerate(self.entries)
                   for j, v in enumerate(row))


def macwilliams(n: int) -> MacWilliamsMatrix:
    """M_{i,j} = coefficient of x^i in (1+3x)^{n-j} (1-x)^j / 2^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        for i in range(n + 1):
            c = sum(math.comb(n - j, t) * 3**t * math.comb(j, i - t) * (-1) ** (i - t)
                    for t in range(max(0, i - j), min(i, n - j) + 1))
            rows[i][j] = Fraction(c, 1 << n)
    return MacWilliamsMatrix(n, tuple(tuple(r) for r in rows))


def ttilde(n: int) -> MacWilliamsMatrix:
    """Sign-twisted transform: odd columns of M flipped."""
    m = macwilliams(n)
    rows = tuple(tuple(v if j % 2 == 0 else -v for j, v in enumerate(row))
                 for row in m.entries)
    return MacWilliamsMatrix(n, rows)


def sl_convolve(a: SLVector, b: SLVector) -> SLVector:
    """Enumerators of a tensor product: traces factor, weights add."""
    out = [Fraction(0)] * (a.n + b.n + 1)
    for i, ai in enumerate(a.values):
        if ai == 0:
            continue
        for j, bj in enumerate(b.values):
            out[i + j] += ai * bj
    return SLVector(a.n + b.n, tuple(out))


def vacuum_vector() -> SLVector:
    return SLVector(0, (Fraction(1),))


def psi0_vector() -> SLVector:
    return SLVector(1, (Fraction(1, 2), Fraction(1, 2)))


def bell_vector() -> SLVector:
    return SLVector(2, (Fraction(1, 4), Fraction(0), Fraction(3, 4)))


def ame6_vector() -> SLVector:
    return SLVector(6, (Fraction(1, 64), Fraction(0), Fraction(0), Fraction(0),
                        Fraction(45, 64), Fraction(0), Fraction(18, 64)))


def _convolve_power(parts) -> SLVector:
    out = vacuum_vector()
    for part, count in parts:
        for _ in range(count):
            out = sl_convolve(out, part)
    return out


def pure_kernel_basis(n: int) -> list:
    """Basis of the M-fixed space: i Bell pairs padded with single qubits,
    i = 0..floor(n/2); dimension ceil((n+1)/2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [_convolve_power([(bell_vector(), i), (psi0_vector(), n - 2 * i)])
            for i in range(n // 2 + 1)]


def type2_kernel_basis(n: int) -> list:
    """Basis of the joint M- and ttilde-fixed space: i six-qubit perfect
    tensors padded with Bell pairs, i = 0..floor(n/6); dimension
    ceil((n+1)/6).  Type-II states need an even qubit count."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2:
        raise ValueError("type-II kernel needs even n")
    return [_convolve_power([(ame6_vector(), i), (bell_vector(), (n - 6 * i) // 2)])
            for i in range(n // 6 + 1)]


def is_type2(a: SLVector, tol=1e-12) -> bool:
    """True when every odd-weight enumerator vanishes (within tol)."""
    return all(abs(v) <= tol for i, v in enumerate(a.values) if i % 2 == 1)


def _solve_exact(mat, rhs):
    # Gauss-Jordan over Fractions; None signals a singular system
    size = len(mat)
    m = [list(mat[r]) + [rhs[r]] for r in range(size)]
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(size):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * u for v, u in zip(m[r], m[col])]
    return [m[r][size] for r in range(size)]


def reconstruct_enumerators(known: dict, n: int, type2: bool = False,
                            residual_rtol: float = 1e-8) -> SLVector:
    """Recover a full enumerator vector from a few known entries.

    known maps weight -> value for a pure (type2=False) or type-II
    (type2=True) state.  The vector is expanded in the matching kernel
    basis and the coefficients solved by exact rational normal equations;
    the fit must reproduce the known entries to residual_rtol relative to
    their norm.
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
    res2 = sum((sum(a[r][c] * x[c] for c in range(dim)) - b[r]) ** 2
               for r in range(len(weights)))
    b2 = sum(v * v for v in b)
    if float(res2) > residual_rtol**2 * max(float(b2), 1e-300):
        raise ValueError(f"inconsistent data: fit residual "
                         f"{math.sqrt(float(res2)):.3e} exceeds tolerance")
    values = tuple(sum(x[c] * basis[c].values[i] for c in range(dim))
                   for i in range(n + 1))
    return SLVector(n, values)
