"""Closed-form partial-transpose spectra and high-precision moments.

For locally depolarized GHZ states on any cut the PT spectrum is known in
closed form, with exact integer multiplicities.  This module evaluates it
at arbitrary decimal precision (mpmath) so that moment power sums stay
meaningful at large n, where binomial multiplicities around 10^88 multiply
eigenvalue powers around 10^-100 and float64 would return noise.

The GHZ moments themselves have a closed form with k + 1 binomial terms
per moment (ghz_local_moments), so GHZModel, the GHZ model past the
character cap, never builds the n + 3 entry spectrum; ghz_local_spectrum
with moments_from_spectrum is its oracle.  Every term of that closed
form, as of the least eigenvalue, fidelity and purities, is a product of
powers of exact binary numbers, so evaluating it once in mpmath's
interval arithmetic (mpmath.libmp.libmpi, every bound rounded outward)
encloses it: MomentVector.bounds and Enclosure carry such bounds with a
refine(prec) that bounds them again at another precision, and the
criteria decide on them (criteria._certified).  Up to the cap GHZ is a
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
from mpmath.libmp import (dps_to_prec, from_float, from_int, fzero,
                          from_man_exp, mpf_add, mpf_le, mpf_mul, mpf_shift,
                          round_nearest, to_float)
from mpmath.libmp.libmpi import (mpi_add, mpi_mul, mpi_neg, mpi_one,
                                 mpi_pow_int, mpi_shift, mpi_sub)


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
    exact PT spectrum the moments sum.  bounds holds (lo, hi), binary
    numbers (libmp tuples) with lo_k <= p_k <= hi_k, bounded at prec bits,
    and refine(prec) bounds the same moments at another precision.  Given
    exact or bounds and no values, the values are the A_k, or the
    midpoints of the bounds, rounded once to digits on first read:
    verdicts never read them.  spectrum() returns the exact spectrum
    (entries, s), eigenvalues A_i / 2^s over (A_i, mu_i), whose Schatten
    sums are rounded on first read likewise.
    """

    def __init__(self, values: tuple = None, schatten: tuple = None,
                 digits: int = None, exact: tuple = None, spectrum=None,
                 bounds: tuple = None, prec: int = None, refine=None):
        if values is None and exact is None and bounds is None:
            raise ValueError("a moment vector needs values, numerators or "
                             "bounds")
        if values is not None:
            self.values = values  # shadows the rounding below
        if callable(schatten):
            self._schatten = schatten
        elif schatten is not None or spectrum is None:
            self.schatten = schatten  # shadows the spectrum's sums
        self.digits = digits
        self.exact = exact
        self._spectrum = spectrum
        self.bounds, self.prec, self.refine = bounds, prec, refine

    @functools.cached_property
    def values(self) -> tuple:
        if self.bounds is not None:
            return tuple(_midpoint(lo, hi, self.digits)
                         for lo, hi in zip(*self.bounds))
        nums, s = self.exact
        return tuple(round_dyadic(a, -s * k, dps_to_prec(self.digits))
                     for k, a in enumerate(nums, 1))

    @functools.cached_property
    def schatten(self) -> tuple:
        if self._spectrum is None:
            return self._schatten()
        entries, s = self._spectrum()
        sums = power_sums([(abs(a), mu) for a, mu in entries], len(self))
        return MomentVector(exact=(sums, s), digits=self.digits).values

    def __len__(self):
        return len((self.exact or self.bounds or (self.values,))[0])

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


def ghz_local_spectrum(n: int, eps, digits: int = DEFAULT_DIGITS,
                       a: int = None) -> Spectrum:
    """PT spectrum of the locally depolarized n-qubit GHZ state across a cut
    with a = |A| qubits on side A (default n // 2).

    With u = 1-e/2 and v = e/2 the eigenvalues are, for j = 0..n,
        lambda_j = (u^(n-j) v^j + u^j v^(n-j)) / 2
    with multiplicity C(n,j) - delta_{j,a} - delta_{j,n-a}, plus the
    isolated pair d +- g, multiplicity 1 each: the PT moves the coherence
    g = (1-e)^n / 2 onto 1_A 0_B and 0_A 1_B, whose population is
    d = lambda_a.
    """
    a = n // 2 if a is None else a
    if n < 2 or not 0 <= a <= n:
        raise ValueError(f"GHZ needs n >= 2 and a cut size in 0..{n}")
    with workdps(digits):
        u, v, q = (mp.make_mpf(x) for x in _ghz_bases(eps))
        entries = [((u ** (n - j) * v ** j + u ** j * v ** (n - j)) / 2,
                    math.comb(n, j) - (j == a) - (j == n - a))
                   for j in range(n + 1)]
        d, g = entries[a][0], q ** n / 2
        entries += [(d + g, 1), (d - g, 1)]
    return Spectrum(tuple(entries), digits=digits)


def ghz_local_moments(n: int, eps, m_max: int,
                      digits: int = DEFAULT_DIGITS, a: int = None,
                      prec: int = None) -> MomentVector:
    """PT moments of the locally depolarized GHZ state across a cut with
    a = |A| qubits on side A (default n // 2), in closed form and enclosed:
    bounds lo_k <= p_k <= hi_k at prec bits (default: digits' bits), and
    refine(prec) encloses them again at another precision.  The cost is
    m_max + 1 n-th powers and O(m_max^2) further operations, independent
    of n.

    Expanding the spectrum of ghz_local_spectrum binomially, with
    u = 1 - e/2, v = e/2 and the isolated pair d +- g,

        p_k = 2^-k sum_{t=0..k} C(k,t) (u^t v^(k-t) + u^(k-t) v^t)^n
              + 2 sum_{even i >= 2} C(k,i) d^(k-i) g^i.

    With s = min(t, k-t) and j = k - 2s the band bracket is (uv)^s (u^j +
    v^j), so its n-th power is P^s W_j with P = (uv)^n and W_j = (u^j +
    v^j)^n: the band sums take the n-th powers W_0..W_m_max once.  The cut
    moves only d = (uv)^s (u^(n-2s) + v^(n-2s)) / 2, s = min(a, n - a);
    the band sum is the same on every cut.  Every term is a product of
    powers of the exact binary numbers u, v and 1 - e, so _ghz_forms
    encloses it in one interval evaluation.  The values are the
    midpoints rounded once to digits.  Only the isolated eigenvalue d - g
    can be negative, so the Schatten sum is ptilde_k = p_k + 2 (g - d)^k
    for odd k when g > d, else p_k, formed from the values for display.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    a = n // 2 if a is None else a
    prec = dps_to_prec(digits) if prec is None else prec
    low, *forms = _ghz_forms(n, a, eps, m_max, prec)

    def schatten():  # g - d > 0 exactly when the least eigenvalue is < 0
        with workdps(digits):
            gap = max(-mp.make_mpf(low[0]), 0)
            return tuple(x + 2 * gap ** k if k % 2 else x
                         for k, x in enumerate(p.values, 1))

    p = MomentVector(digits=digits, bounds=tuple(zip(*forms)), prec=prec,
                     schatten=schatten, refine=functools.partial(
                         ghz_local_moments, n, eps, m_max, digits, a))
    return p


def _ghz_forms(n: int, a: int, eps, m_max: int, prec: int) -> list:
    """The least PT eigenvalue min(d - g, lambda_[n/2]) of
    ghz_local_spectrum (lambda_[n/2] is d on the cut of [n/2] qubits) and
    p_1..p_m_max of ghz_local_moments, each an interval (lo, hi) of binary
    numbers (libmp tuples) at prec bits.  Every term is a product of powers
    of the exact u, v and 1 - eps (_ghz_bases), so one evaluation in
    mpmath's interval arithmetic (libmpi), which rounds every bound
    outward, encloses each value."""
    if n < 2 or not 0 <= a <= n:
        raise ValueError(f"GHZ needs n >= 2 and a cut size in 0..{n}")
    u, v, q = _ghz_bases(eps)
    uv = mpf_mul(u, v)

    def power(x, k):  # x^k for an exact binary number x
        return mpi_pow_int((x, x), k, prec)

    times = functools.partial(mpi_mul, prec=prec)

    def pair(s):  # (uv)^s (u^(n-2s) + v^(n-2s)) / 2 with s = min(s, n-s)
        s = min(s, n - s)
        return times(power(uv, s), _sum_of_powers((u, v), n - 2 * s, 1, prec))

    d, g = pair(a), _sum_of_powers((q,), n, 1, prec)
    band = d if min(a, n - a) == n // 2 else pair(n // 2)
    w = [power(mpf_add(_exact_power(u, j), _exact_power(v, j)), n)
         for j in range(m_max + 1)]
    # P = (uv)^n, which is d^2 on the balanced cut
    big = times(d, d) if 2 * a == n else power(uv, n)
    pw, dp, gp = [mpi_one], [mpi_one], [mpi_one]
    for i in range(m_max):
        if i < m_max // 2:
            pw.append(times(pw[-1], big))
        dp.append(times(dp[-1], d))
        gp.append(times(gp[-1], g))
    out = [tuple(x if mpf_le(x, y) else y  # the least, bound by bound
                 for x, y in zip(mpi_sub(d, g, prec), band))]
    for k in range(1, m_max + 1):  # exact products, summed outward
        terms = [_product(pw[t], w[k - 2 * t], math.comb(k, t) << (2 * t != k))
                 for t in range(k // 2 + 1)]
        terms += [_product(dp[k - i], gp[i], math.comb(k, i) << k + 1)
                  for i in range(2, k + 1, 2)]
        out.append(mpi_shift(_total(terms, prec), -k))
    return out


def _ghz_bases(eps) -> tuple:
    """u = 1 - eps/2, v = eps/2 and 1 - eps as exact binary numbers (libmp
    tuples): with 1 - eps = q / 2^f, u = (2^f + q) / 2^(f+1) and
    v = (2^f - q) / 2^(f+1)."""
    q, f = dyadic_one_minus(eps)
    return (from_man_exp((1 << f) + q, -f - 1),
            from_man_exp((1 << f) - q, -f - 1), from_man_exp(q, -f))


def _sum_of_powers(xs, k: int, shift: int, prec: int) -> tuple:
    """(sum_x x^k) / 2^shift over nonnegative exact binary numbers (libmp
    tuples), an interval at prec bits."""
    return mpi_shift(_total([mpi_pow_int((x, x), k, prec) for x in xs], prec),
                     -shift)


def _total(xs, prec: int) -> tuple:
    """The sum of intervals xs of nonnegative binary numbers at prec bits,
    its bounds normalized (odd mantissas, which the raw _product terms and
    libmpi's sums of them need not have)."""
    return tuple(from_man_exp(x[1], x[2]) for x in
                 functools.reduce(lambda x, y: mpi_add(x, y, prec), xs))


def _product(x: tuple, y: tuple, c: int) -> tuple:
    """x y c exactly, bound by bound, for intervals x, y of nonnegative
    binary numbers and an integer c; _total normalizes the bounds."""
    return tuple((0, m, a[2] + b[2], m.bit_length()) if (m := a[1] * b[1] * c)
                 else fzero for a, b in zip(x, y))


def _exact_power(x: tuple, e: int) -> tuple:
    """max(x, 0)^e exactly, for a binary number x (libmp tuple), e >= 1
    (e = 0 too when x >= 0)."""
    sign, man, exp, _ = x
    return from_man_exp(0 if sign else man ** e, exp * e)


class Enclosure:
    """A real number known to lie in [lo, hi], exact binary numbers
    (libmp tuples) bounded at prec bits; refine(prec) encloses it again at
    another precision.  Negation and differences are libmpi's, rounded
    outward."""

    def __init__(self, lo: tuple, hi: tuple, prec: int, refine):
        self.lo, self.hi, self.prec, self.refine = lo, hi, prec, refine

    def __neg__(self):
        return Enclosure(*mpi_neg((self.lo, self.hi)), self.prec,
                         lambda prec: -self.refine(prec))

    def __sub__(self, y):
        """self - y for an Enclosure or a binary number y."""
        if not isinstance(y, Enclosure):
            y = Enclosure(_binary(y), _binary(y), self.prec, lambda prec: y)
        return Enclosure(*mpi_sub((self.lo, self.hi), (y.lo, y.hi), self.prec),
                         self.prec,
                         lambda prec: self.refine(prec) - y.refine(prec))

    def __float__(self):
        return to_float(mpf_add(self.lo, self.hi, 53)) / 2


def enclose(value, prec: int) -> Enclosure:
    """The Enclosure of value(prec), an interval (lo, hi) computed once in
    mpmath's interval arithmetic at prec bits (see _ghz_forms)."""
    return Enclosure(*value(prec), prec, functools.partial(enclose, value))


def dyadic_one_minus(eps) -> tuple:
    """(a, f) with 1 - eps = a / 2^f exactly, from eps's binary form."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    _, man, exp, _ = _binary(eps)
    f = max(0, -exp)
    return (1 << f) - (man << (exp + f)), f


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


def _midpoint(lo: tuple, hi: tuple, digits: int):
    """(lo + hi) / 2 of two binary numbers, rounded once to digits."""
    return mp.make_mpf(mpf_shift(mpf_add(lo, hi, dps_to_prec(digits),
                                         round_nearest), -1))


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
