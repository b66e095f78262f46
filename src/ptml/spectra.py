"""Closed-form partial-transpose spectra and high-precision moments.

For locally depolarized GHZ states on a balanced cut and globally
depolarized stabilizer states the PT spectrum is known in closed form, with
exact integer multiplicities.  This module evaluates those spectra at
arbitrary decimal precision (mpmath) so that moment power sums stay
meaningful at large n, where binomial multiplicities around 10^88 multiply
eigenvalue powers around 10^-100 and float64 would return noise.

The GHZ moments themselves have a closed form with k + 1 binomial terms
per moment (ghz_local_moments), so GHZModel never builds the n + 3 entry
spectrum; ghz_local_spectrum with moments_from_spectrum is its oracle.
moments_from_spectrum sums exactly: every entry is a binary number with an
integer multiplicity, so each power sum is an exact dyadic rational, rounded
once at the end.

Conventions: multiplicities are exact Python ints; eigenvalues are mpmath
mpf values computed at a requested number of significant decimal digits.
Zero-multiplicity entries are dropped at construction (the closed-form
GHZ formulas produce mu = 0 entries for n = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf, workdps
from mpmath.libmp import (dps_to_prec, from_float, from_int, from_man_exp,
                          round_nearest)


DEFAULT_DIGITS = 60


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with exact multiplicities: entries (lambda, mu)."""

    entries: tuple
    digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if any(mu < 0 for _, mu in self.entries):
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(
            self, "entries",
            tuple((lam, mu) for lam, mu in self.entries if mu > 0))

    def min_eigenvalue(self):
        return min(lam for lam, _ in self.entries)

    def trace(self):
        return mp.fsum(lam * mu for lam, mu in self.entries)


@dataclass(frozen=True)
class MomentVector:
    """PT moments p_1..p_m, optionally with Schatten variants ptilde_k.

    digits records the working precision (None means float64 arithmetic).
    """

    values: tuple
    schatten: tuple = None
    digits: int = None

    def __len__(self):
        return len(self.values)

    def p(self, k: int):
        if not 1 <= k <= len(self.values):
            raise ValueError(f"moment order {k} outside 1..{len(self.values)}")
        return self.values[k - 1]

    def ptilde(self, k: int):
        if self.schatten is None:
            raise ValueError("no Schatten sums attached")
        if not 1 <= k <= len(self.schatten):
            raise ValueError(
                f"moment order {k} outside 1..{len(self.schatten)}")
        return self.schatten[k - 1]


def ghz_local_spectrum(n: int, eps, digits: int = DEFAULT_DIGITS) -> Spectrum:
    """PT spectrum of the locally depolarized n-qubit GHZ state, balanced cut.

    Eigenvalues: for j = 0..n,
        lambda_j = ((1-e/2)^(n-j) (e/2)^j + (1-e/2)^j (e/2)^(n-j)) / 2
    with multiplicity C(n,j) - 2*delta_{j,n/2}, plus the isolated pair
        lambda_pm = ((1-e/2)(e/2))^(n/2) +- (1-e)^n / 2
    with multiplicity 1 each.  Valid for even n only.
    """
    if n % 2 or n < 2:
        raise ValueError("closed-form GHZ spectrum requires even n >= 2")
    if not 0 <= float(eps) <= 1:
        raise ValueError("eps must lie in [0, 1]")
    with workdps(digits):
        e = mpf(eps)
        u = 1 - e / 2
        v = e / 2
        entries = []
        for j in range(n + 1):
            lam = (u ** (n - j) * v ** j + u ** j * v ** (n - j)) / 2
            mu = math.comb(n, j) - (2 if j == n // 2 else 0)
            entries.append((lam, mu))
        cross = (u * v) ** (n // 2)
        gap = (1 - e) ** n / 2
        entries.append((cross + gap, 1))
        entries.append((cross - gap, 1))
    return Spectrum(tuple(entries), digits=digits)


def ghz_local_moments(n: int, eps, m_max: int,
                      digits: int = DEFAULT_DIGITS) -> MomentVector:
    """PT moments of the locally depolarized GHZ state, balanced cut, in
    closed form: O(m_max^2) mpf operations, independent of n.

    Expanding the spectrum of ghz_local_spectrum binomially, with
    u = 1 - e/2, v = e/2, c = (uv)^(n/2) and g = (1-e)^n / 2,

        p_k = 2^-k sum_{t=0..k} C(k,t) (u^t v^(k-t) + u^(k-t) v^t)^n
              + 2 sum_{even i >= 2} C(k,i) c^(k-i) g^i.

    Only the isolated eigenvalue c - g can be negative, so the Schatten sum
    is ptilde_k = p_k + 2 (g - c)^k for odd k when g > c, else p_k.  Every
    term is nonnegative, so nothing cancels; the sums are formed with guard
    digits (the n-th powers amplify the base's rounding error n-fold) and
    rounded once to digits.
    """
    if n % 2 or n < 2:
        raise ValueError("closed-form GHZ moments require even n >= 2")
    if not 0 <= float(eps) <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    with workdps(digits + 10 + len(str(n))):
        e = mpf(eps)
        u = 1 - e / 2
        v = e / 2
        c = (u * v) ** (n // 2)
        g = (1 - e) ** n / 2
        p, pt = [], []
        for k in range(1, m_max + 1):
            band = sum(math.comb(k, t) * (u ** t * v ** (k - t)
                                          + u ** (k - t) * v ** t) ** n
                       for t in range(k + 1)) / 2 ** k
            pair = 2 * sum(math.comb(k, i) * c ** (k - i) * g ** i
                           for i in range(2, k + 1, 2))
            pk = band + pair
            p.append(pk)
            pt.append(pk + 2 * (g - c) ** k if k % 2 and g > c else pk)
    with workdps(digits):
        return MomentVector(tuple(+x for x in p), tuple(+x for x in pt),
                            digits=digits)


def stab_global_spectrum(n: int, r: int, eps,
                         digits: int = DEFAULT_DIGITS) -> Spectrum:
    """PT spectrum of a globally depolarized pure stabilizer state.

    A state with r Bell pairs across the cut has PT eigenvalues
    lambda_pm = eps/2^n +- (1-eps)/2^r with multiplicities 2^(r-1)(2^r +- 1)
    and lambda_0 = eps/2^n with multiplicity 2^n - 2^(2r).
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if not 0 <= float(eps) <= 1:
        raise ValueError("eps must lie in [0, 1]")
    with workdps(digits):
        e = mpf(eps)
        base = e / 2 ** n
        gap = (1 - e) / 2 ** r
        mu_plus = 2 ** (r - 1) * (2 ** r + 1) if r else 1
        mu_minus = 2 ** (r - 1) * (2 ** r - 1) if r else 0
        entries = (
            (base + gap, mu_plus),
            (base - gap, mu_minus),
            (base, 2 ** n - 2 ** (2 * r)),
        )
    return Spectrum(entries, digits=digits)


def moments_from_spectrum(s: Spectrum, m_max: int) -> MomentVector:
    """Power sums p_k = sum_j mu_j lambda_j^k and Schatten sums
    ptilde_k = sum_j mu_j |lambda_j|^k for k = 1..m_max.

    Each eigenvalue is an exact binary number man * 2^exp (floats and ints
    convert exactly) with an integer multiplicity, so every sum is an exact
    dyadic rational.  It is accumulated over Python ints and rounded once
    to the spectrum's precision: no cancellation can lose digits.  A float
    spectrum (digits None) gets its sums rounded once to 53 bits, as floats.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    prec = 53 if s.digits is None else dps_to_prec(s.digits)
    entries = [(_binary(lam), mu) for lam, mu in s.entries]
    scaled = [mu for _, mu in entries]          # mu_j * man_j^k
    p, pt = [], []
    for k in range(1, m_max + 1):
        scaled = [a * b[1] for a, (b, _) in zip(scaled, entries)]
        absolute = [(a, k * b[2]) for a, (b, _) in zip(scaled, entries)]
        signed = [(-a if b[0] and k % 2 else a, e)
                  for (a, e), (b, _) in zip(absolute, entries)]
        p.append(_round_dyadic_sum(signed, prec))
        pt.append(_round_dyadic_sum(absolute, prec))
    if s.digits is None:
        p, pt = map(float, p), map(float, pt)
    return MomentVector(tuple(p), tuple(pt), digits=s.digits)


def _binary(x) -> tuple:
    """x as an exact mpmath (sign, man, exp, bc) tuple."""
    if isinstance(x, mpf):
        v = x._mpf_
    elif isinstance(x, int):
        v = from_int(x)
    else:
        v = from_float(float(x))
    if not v[1] and v[2]:
        raise ValueError(f"non-finite eigenvalue {x}")
    return v


def _round_dyadic_sum(terms: list, prec: int):
    """sum(man * 2^exp) over (man, exp) int pairs, rounded once to prec bits.

    Pairwise over terms sorted by exponent, so each level of the tree
    shifts across the exponent range once rather than once per term.
    """
    terms = sorted(terms, key=lambda t: t[1]) or [(0, 0)]
    while len(terms) > 1:
        merged = [(m1 + (m2 << (e2 - e1)), e1)
                  for (m1, e1), (m2, e2) in zip(terms[::2], terms[1::2])]
        terms = merged + terms[len(merged) * 2:]
    man, exp = terms[0]
    return mp.make_mpf(from_man_exp(man, exp, prec, round_nearest))


def distinct_count(s: Spectrum, tol=1e-12) -> int:
    """Number of distinct eigenvalues after merging within absolute tol."""
    return len(merge_spectrum(s, tol).entries)


def merge_spectrum(s: Spectrum, tol=1e-12) -> Spectrum:
    """Merge eigenvalues within tol, summing multiplicities.

    Clusters are chained: a new cluster starts whenever the gap to the
    previous eigenvalue exceeds tol.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    lams = sorted(s.entries, key=lambda t: t[0])
    merged = []
    prev = None
    for lam, mu in lams:
        if prev is not None and lam - prev <= tol:
            merged[-1][1] += mu
        else:
            merged.append([lam, mu])
        prev = lam
    return Spectrum(tuple((lam, mu) for lam, mu in merged), digits=s.digits)


def ppt_threshold_ghz(n: int) -> float:
    """Closed-form PPT noise threshold for the locally depolarized GHZ state.

    eps_max = 1 - (2^(2 - 2/n) + 1)^(-1/2); approaches 1 - 1/sqrt(5) as
    n grows.
    """
    if n % 2 or n < 2:
        raise ValueError("requires even n >= 2")
    return 1.0 - (2.0 ** (2.0 - 2.0 / n) + 1.0) ** -0.5
