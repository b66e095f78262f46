"""Closed-form partial-transpose spectra and high-precision moments.

For locally depolarized GHZ states on any cut the PT spectrum is known in
closed form, with exact integer multiplicities.  This module evaluates it
at arbitrary decimal precision (mpmath) so that moment power sums stay
meaningful at large n, where binomial multiplicities around 10^88 multiply
eigenvalue powers around 10^-100 and float64 would return noise.

The GHZ moments themselves have a closed form with k + 1 binomial terms
per moment (ghz_local_moments), so GHZModel, the GHZ model past the
character cap, never builds the n + 3 entry spectrum; ghz_local_spectrum
with moments_from_spectrum is its oracle.  Up to the cap GHZ is a
stabilizer model (thresholds.GHZStabilizerModel) whose polynomials are this
spectrum in closed form, exact at any binary eps.
moments_from_spectrum sums exactly: every entry is a binary number with an
integer multiplicity, so each power sum is an exact dyadic rational, rounded
once at the end.  The stabilizer models, under local and global noise,
hold exact PT spectra, integer numerators A_i over one power of two 2^s,
and give their moments in the same form: MomentVector.exact is (A, s) with
p_k = A_k / 2^(s k), and a MomentVector rounds the A_k, and the Schatten
sums of the spectrum, once on first read.

Conventions: multiplicities are exact Python ints; eigenvalues are mpmath
mpf values computed at a requested number of significant decimal digits.
Zero-multiplicity entries are dropped at construction (the closed-form
GHZ formulas produce mu = 0 entries for n = 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from mpmath import mp, mpf, workdps
from mpmath.libmp import (dps_to_prec, from_float, from_int, from_man_exp,
                          mpf_sum, round_nearest)


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


class MomentVector:
    """PT moments p_1..p_m, optionally with Schatten variants ptilde_k.

    digits records the working precision (None means float64 arithmetic).
    exact holds (A, s) for dyadic p_k = A_k / 2^(s k), s the exponent of the
    exact PT spectrum the moments sum.  Given exact and no values, the
    values are the A_k rounded to digits, computed on first read: exact
    verdicts never read them.  spectrum() returns that spectrum (entries,
    s), eigenvalues A_i / 2^s over (A_i, mu_i), whose Schatten sums are
    rounded on first read likewise.
    """

    def __init__(self, values: tuple = None, schatten: tuple = None,
                 digits: int = None, exact: tuple = None, spectrum=None):
        if values is None and exact is None:
            raise ValueError("a moment vector needs values or numerators")
        if values is not None:
            self.values = values  # shadows the rounding below
        if schatten is not None or spectrum is None:
            self.schatten = schatten  # shadows the spectrum's sums
        self.digits = digits
        self.exact = exact
        self._spectrum = spectrum

    @functools.cached_property
    def values(self) -> tuple:
        nums, s = self.exact
        prec = dps_to_prec(self.digits)
        return tuple(round_dyadic(a, -s * k, prec)
                     for k, a in enumerate(nums, 1))

    @functools.cached_property
    def schatten(self) -> tuple:
        entries, s = self._spectrum()
        sums = power_sums([(abs(a), mu) for a, mu in entries], len(self))
        return MomentVector(exact=(sums, s), digits=self.digits).values

    def __len__(self):
        return len(self.values if self.exact is None else self.exact[0])

    def p(self, k: int):
        if not 1 <= k <= len(self):
            raise ValueError(f"moment order {k} outside 1..{len(self)}")
        return self.values[k - 1]

    def ptilde(self, k: int):
        if self.schatten is None:
            raise ValueError("no Schatten sums attached")
        if not 1 <= k <= len(self.schatten):
            raise ValueError(
                f"moment order {k} outside 1..{len(self.schatten)}")
        return self.schatten[k - 1]


def power_sums(entries, m_max: int) -> tuple:
    """sum_i mu_i A_i^k for k = 1..m_max over integer pairs (A_i, mu_i)."""
    return tuple(sum(mu * a ** k for a, mu in entries)
                 for k in range(1, m_max + 1))


def ghz_pair(n: int, a: int, e) -> tuple:
    """(d, g) of the isolated PT eigenvalue pair d +- g of the locally
    depolarized GHZ state, a = |A| qubits on side A, at mpf noise rate e.

    The PT moves the coherence g = (1-e)^n / 2 onto 1_A 0_B and 0_A 1_B,
    whose population is d = (u^(n-a) v^a + u^a v^(n-a)) / 2, u = 1 - e/2,
    v = e/2, formed as (uv)^s (u^(n-2s) + v^(n-2s)) / 2, s = min(a, n - a):
    at s = n/2 the bracket is exactly 2, so d is exactly (uv)^(n/2).
    """
    if n < 2 or not 0 <= a <= n:
        raise ValueError(f"GHZ needs n >= 2 and a cut size in 0..{n}")
    if not 0 <= e <= 1:
        raise ValueError("eps must lie in [0, 1]")
    u, v, s = 1 - e / 2, e / 2, min(a, n - a)
    return ((u * v) ** s * (u ** (n - 2 * s) + v ** (n - 2 * s)) / 2,
            (1 - e) ** n / 2)


def ghz_local_spectrum(n: int, eps, digits: int = DEFAULT_DIGITS,
                       a: int = None) -> Spectrum:
    """PT spectrum of the locally depolarized n-qubit GHZ state across a cut
    with a = |A| qubits on side A (default n // 2).

    With u = 1-e/2 and v = e/2 the eigenvalues are, for j = 0..n,
        lambda_j = (u^(n-j) v^j + u^j v^(n-j)) / 2
    with multiplicity C(n,j) - delta_{j,a} - delta_{j,n-a}, plus the
    isolated pair d +- g of ghz_pair (d = lambda_a), multiplicity 1 each.
    """
    a = n // 2 if a is None else a
    with workdps(digits):
        e = mpf(eps)
        cross, gap = ghz_pair(n, a, e)
        u, v = 1 - e / 2, e / 2
        entries = []
        for j in range(n + 1):
            lam = (u ** (n - j) * v ** j + u ** j * v ** (n - j)) / 2
            mu = math.comb(n, j) - (j == a) - (j == n - a)
            entries.append((lam, mu))
        entries += [(cross + gap, 1), (cross - gap, 1)]
    return Spectrum(tuple(entries), digits=digits)


def ghz_local_moments(n: int, eps, m_max: int,
                      digits: int = DEFAULT_DIGITS,
                      a: int = None) -> MomentVector:
    """PT moments of the locally depolarized GHZ state across a cut with
    a = |A| qubits on side A (default n // 2), in closed form: m_max + 1
    n-th powers, O(m_max) further mpf operations and O(m_max^2) integer
    products, independent of n.

    Expanding the spectrum of ghz_local_spectrum binomially, with
    u = 1 - e/2, v = e/2 and the isolated pair d +- g of ghz_pair,

        p_k = 2^-k sum_{t=0..k} C(k,t) (u^t v^(k-t) + u^(k-t) v^t)^n
              + 2 sum_{even i >= 2} C(k,i) d^(k-i) g^i.

    With s = min(t, k-t) and j = k - 2s the band bracket is (uv)^s (u^j +
    v^j), so its n-th power is P^s W_j with P = (uv)^n and W_j = (u^j +
    v^j)^n: the band sums take the n-th powers W_0..W_m_max once.  The cut
    moves only d; the band sum is the same on every cut.  Only the isolated
    eigenvalue d - g can be negative, so the Schatten sum is
    ptilde_k = p_k + 2 (g - d)^k for odd k when g > d, else p_k.  Every
    term is nonnegative, so nothing cancels.  The powers are formed with
    guard digits (the n-th powers amplify the base's rounding error n-fold,
    and P^s another s-fold); each term is their exact product, and each
    sum is mpmath's mpf_sum, accumulated over ints and rounded once to
    digits (it drops a term below 2^-(2 prec) of its running sum, worth
    far less than a unit in the last place of a nonnegative sum).
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    prec = dps_to_prec(digits)
    with workdps(digits + 12 + len(str(n))):
        e = mpf(eps)
        d, g = ghz_pair(n, n // 2 if a is None else a, e)
        u, v = 1 - e / 2, e / 2
        w = [_binary((u ** j + v ** j) ** n) for j in range(m_max + 1)]
        pw = _binary_powers((u * v) ** n, m_max // 2)
        dp, gp = _binary_powers(d, m_max), _binary_powers(g, m_max)
        p, pt = [], []
        for k in range(1, m_max + 1):
            terms = []  # exact mpmath tuples
            for t in range(k + 1):
                s, j = min(t, k - t), abs(k - 2 * t)
                terms.append(from_man_exp(math.comb(k, t) * pw[s][1] * w[j][1],
                                          pw[s][2] + w[j][2] - k))
            for i in range(2, k + 1, 2):
                terms.append(from_man_exp(
                    2 * math.comb(k, i) * dp[k - i][1] * gp[i][1],
                    dp[k - i][2] + gp[i][2]))
            p.append(mp.make_mpf(mpf_sum(terms, prec, round_nearest)))
            if k % 2 and g > d:
                terms.append(_binary(2 * (g - d) ** k))
                pt.append(mp.make_mpf(mpf_sum(terms, prec, round_nearest)))
            else:
                pt.append(p[-1])
    return MomentVector(tuple(p), tuple(pt), digits=digits)


def _binary_powers(x, top: int) -> list:
    """x^0..x^top by running products, as exact mpmath tuples."""
    out = [mpf(1)]
    for _ in range(top):
        out.append(out[-1] * x)
    return [_binary(y) for y in out]


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
    return round_dyadic(*terms[0], prec)


def round_dyadic(man: int, exp: int, prec: int):
    """man * 2^exp rounded once to prec bits."""
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
