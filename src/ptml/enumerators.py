"""Weight enumerators for the noise decay of purities and PT moments.

Shor-Laflamme vectors a_i collect squared Pauli coefficients by weight and
fix how fidelity, purity, and subsystem purity decay under local
depolarization.  PT moments decay the same way one order up: p_k of the
noisy partial transpose is a polynomial in (1-eps) whose coefficients are
weight enumerators of Pauli k-tuples.  For stabilizer states those
coefficients are integer counts over (k-1)-tuples of group elements.

Both tuple enumerations come in two routes that must agree exactly:
a brute-force oracle (qwe_bruteforce, cw_bruteforce) and a character
transform over the stabilizer group (character_polys + cw_fourier) that
reduces the count to a sum of k-th powers of at most 2^n small polynomials,
taken as packed big-int powers (each polynomial evaluated at z = 2^B).
Exact evaluation runs over ints: at a float or mpf eps, a binary number,
1 - eps = a / 2^f, so Horner's rule (dyadic_numerator) gives an integer
numerator over a power of two, and a Fraction is built only where one is
returned (exact_decayed).  Stabilizer tables are evaluated this way and
rounded once; the minus-set character polynomials give the PT spectrum,
P_i(1-eps) / 2^n with multiplicity mult_i, and their k-th power sums alone
give the PT moments, which is how thresholds.StabilizerModel takes them
(the tables are its oracle).
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from .pauli import Bipartition, StabilizerGroup, state_catalog
from .spectra import _binary, round_dyadic

BRUTEFORCE_BUDGET = 1 << 26
BRUTEFORCE_BLOCK = 1 << 14
CHARACTER_QUBIT_CAP = 14
SL_DENSE_CAP = 8
SL_STABILIZER_CAP = 20
QWE_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class SLVector:
    """Shor-Laflamme enumerators a_0..a_n (squared Pauli mass per weight)."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError(f"need {self.n + 1} enumerator values")


@dataclass(frozen=True)
class QWETable:
    """PT-moment enumerators c[(theta, phi, w)] for a general state.

    theta in {+1,-1}, phi in {1, 1j, -1, -1j}, w in 0..n*k.  The noisy
    moment is sum of theta*phi*c*(1-eps)^w; imaginary parts cancel.
    """

    n: int
    k: int
    bip: Bipartition
    c: dict


@dataclass(frozen=True)
class CWTable:
    """Exact stabilizer tuple counts by sign class and total weight."""

    n: int
    k: int
    bip: Bipartition
    cplus: dict
    cminus: dict

    def total(self) -> int:
        return sum(self.cplus.values()) + sum(self.cminus.values())

    def difference_poly(self) -> list:
        """Coefficients of sum_w (Cplus_w - Cminus_w) z^w, degree n*k."""
        return [self.cplus.get(w, 0) - self.cminus.get(w, 0)
                for w in range(self.n * self.k + 1)]


@dataclass(frozen=True, eq=False)
class CharacterPolynomials:
    """Deduplicated character transforms of a stabilizer group.

    plus_set pairs (coeffs, multiplicity) for sum_S chi(S) z^wt(S);
    minus_set additionally weights each element by its partial-transpose
    sign.  Coefficient tuples run z^0..z^n; every constant term is 1.
    plus_set is transformed from the element weights wt when first read.
    """

    n: int
    minus_set: tuple
    wt: np.ndarray = field(repr=False)

    @functools.cached_property
    def plus_set(self) -> tuple:
        return _character_set(self.wt, 1, self.n)


def _num(v, like):
    # exact ints / Fractions into the arithmetic type of `like`
    if isinstance(like, mpf):
        if isinstance(v, Fraction):
            return mpf(v.numerator) / mpf(v.denominator)
        return mpf(v)
    return float(v)


def _one_like(eps):
    return mpf(1) if isinstance(eps, mpf) else 1.0


def _wht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of 2)."""
    a = np.array(a, copy=True)
    m = a.shape[-1]
    lead = a.shape[:-1]
    h = 1
    while h < m:
        b = a.reshape(lead + (m // (2 * h), 2, h))
        s = b[..., 0, :] + b[..., 1, :]
        d = b[..., 0, :] - b[..., 1, :]
        a = np.stack((s, d), axis=-2).reshape(lead + (m,))
        h *= 2
    return a


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Tr[rho P] for every Hermitian Pauli pattern, indexed x | (z << n).

    Gathers the generalized diagonals rho[s, s^x]; a Walsh transform over s
    then yields all z at once, and i^|x&z| restores the Y factors.
    """
    d = rho.shape[0]
    n = d.bit_length() - 1
    if d != 1 << n or rho.shape != (d, d):
        raise ValueError(f"not a square matrix of size 2^n: {rho.shape}")
    r = np.arange(d)
    diag = rho[r[None, :], r[None, :] ^ r[:, None]]  # [x, s] = rho[s, s^x]
    hat = _wht(diag)  # [x, z]
    popn = np.array([v.bit_count() for v in range(d)], dtype=np.int64)
    coef = (1j ** popn[r[:, None] & r[None, :]]) * hat
    scale = max(1.0, float(np.max(np.abs(coef.real))))
    if float(np.max(np.abs(coef.imag))) > 1e-9 * scale:
        raise ValueError("state is not Hermitian: complex Pauli coefficients")
    return np.ascontiguousarray(coef.real.T).ravel()


def _group_weight_counts(g: StabilizerGroup, a_mask=None) -> list:
    """Element counts by weight, restricted to support inside a_mask.

    Walks the group in Gray-code order so each step is one generator XOR;
    keeps n ~ 20 feasible without materializing Pauli objects.
    """
    n = g.n
    gens = g.generators
    if a_mask is None:
        a_mask = (1 << n) - 1
    outside = ((1 << n) - 1) & ~a_mask
    gx = [p.x_mask for p in gens]
    gz = [p.z_mask for p in gens]
    counts = [0] * (n + 1)
    x = z = 0
    counts[0] += 1
    prev = 0
    for t in range(1, 1 << len(gens)):
        gray = t ^ (t >> 1)
        bit = (gray ^ prev).bit_length() - 1
        prev = gray
        x ^= gx[bit]
        z ^= gz[bit]
        supp = x | z
        if supp & outside:
            continue
        counts[supp.bit_count()] += 1
    return counts


def sl_enumerators(state, mode: str = None) -> SLVector:
    """a_i[rho] = 2^-n sum_{wt(P)=i} Tr[rho P]^2, by either route.

    dense mode sums over all 4^n Pauli patterns of a density matrix
    (n <= 8); stabilizer_count mode counts group elements by weight over
    2^n (exact Fractions, n <= 20).
    """
    if mode is None:
        mode = "stabilizer_count" if isinstance(state, StabilizerGroup) else "dense"
    if mode == "dense":
        rho = np.asarray(state)
        d = rho.shape[0]
        n = d.bit_length() - 1
        if n > SL_DENSE_CAP:
            raise ValueError(f"dense enumerators capped at {SL_DENSE_CAP} qubits")
        coef = pauli_coefficients(rho)
        idx = np.arange(d * d, dtype=np.int64)
        popn = np.array([v.bit_count() for v in range(d)], dtype=np.int64)
        wt = popn[(idx & (d - 1)) | (idx >> n)]
        mass = np.bincount(wt, weights=coef * coef, minlength=n + 1)
        return SLVector(n, tuple(float(v) / d for v in mass))
    if mode == "stabilizer_count":
        g = state
        n = g.n
        if n > SL_STABILIZER_CAP:
            raise ValueError(f"stabilizer enumerators capped at {SL_STABILIZER_CAP} qubits")
        counts = _group_weight_counts(g)
        return SLVector(n, tuple(Fraction(c, 1 << n) for c in counts))
    raise ValueError(f"unknown mode {mode!r}")


def ghz_sl_vector(n: int) -> SLVector:
    """Closed-form GHZ enumerators: binomial Z-type counts plus 2^{n-1}
    X-type elements, all of full weight."""
    if n < 2:
        raise ValueError("need n >= 2")
    counts = [0] * (n + 1)
    for i in range(0, n, 2):
        counts[i] = math.comb(n, i)
    counts[n] = (1 << (n - 1)) + (math.comb(n, n) if n % 2 == 0 else 0)
    return SLVector(n, tuple(Fraction(c, 1 << n) for c in counts))


def sl_decay(a: SLVector, eps) -> SLVector:
    """Local depolarization damps each weight class by (1-eps)^{2i}."""
    one = _one_like(eps)
    q = (one - eps) ** 2
    return SLVector(a.n, tuple(_num(v, one) * q**i for i, v in enumerate(a.values)))


def _sum_like(terms, one):
    if isinstance(one, float):
        return math.fsum(terms)
    return sum(terms, one - one)


def _decayed(values, q, one):
    """sum_i v_i q^i in the scalar type of one."""
    return _sum_like((_num(v, one) * q**i for i, v in enumerate(values) if v),
                     one)


def noisy_purity(a: SLVector, eps):
    """Tr[rho_eps^2] = sum_i a_i (1-eps)^{2i}."""
    one = _one_like(eps)
    return _decayed(a.values, (one - eps) ** 2, one)


def rains_subsystem_purity(a: SLVector, eps, s: int):
    """Average purity over all size-s marginals of the depolarized state.

    A weight-i Pauli fits inside C(n-i, s-i) of the C(n,s) subsystems, hence
    the reweighting of a_i; the 2^{n-s} restores the marginal trace scale.
    """
    n = a.n
    if not 0 <= s <= n:
        raise ValueError("subsystem size out of range")
    one = _one_like(eps)
    scale = Fraction(1 << (n - s), math.comb(n, s))
    return _decayed([scale * math.comb(n - i, s - i) * ai
                     for i, ai in enumerate(a.values[: s + 1])],
                    (one - eps) ** 2, one)


def fidelity_from_enumerators(a: SLVector, eps):
    """Overlap of the depolarized state with the clean pure state:
    F(eps) = sum_i a_i (1-eps)^i (single decay factor per weight)."""
    one = _one_like(eps)
    return _decayed(a.values, one - eps, one)


def marginal_enumerators(g: StabilizerGroup, bip: Bipartition) -> SLVector:
    """Shor-Laflamme enumerators of the reduced state on block A of a pure
    stabilizer state: 2^-|A| times the count of elements supported inside
    A, by weight.  noisy_purity of them is the depolarized marginal's
    purity."""
    s = len(bip.a_set)
    counts = _group_weight_counts(g, bip.a_mask)[:s + 1]
    return SLVector(s, tuple(Fraction(c, 1 << s) for c in counts))


def one_step_enumerators(size: int, r: int) -> SLVector:
    """Shor-Laflamme enumerators under the one-step weight [S != I], the
    weight global depolarization damps by: a pure stabilizer state's
    reduction to size qubits, holding r Bell pairs with the rest, has
    2^(size-r) group elements, so (1, 2^(size-r) - 1) / 2^size."""
    return SLVector(1, (Fraction(1, 1 << size),
                        Fraction((1 << size - r) - 1, 1 << size)))


def exact_decayed(values, eps, power: int = 1) -> Fraction:
    """sum_i v_i (1-eps)^(power i) exactly, for rational v_i (such as
    enumerators, integers over 2^n) at a binary eps: Horner's rule over the
    numerators on the values' common denominator."""
    a, f = dyadic_one_minus(eps)
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    return Fraction(dyadic_numerator(nums, a**power, f * power),
                    den << f * power * max(len(values) - 1, 0))


# ---------------------------------------------------------------------------
# PT-moment enumerators, general-state route


def _phase_tables(n: int):
    d = 1 << n
    idx = np.arange(d * d, dtype=np.int64)
    popn = np.array([v.bit_count() for v in range(d)], dtype=np.int64)
    x = idx & (d - 1)
    z = idx >> n
    return idx, popn, x, z


def qwe_bruteforce(rho: np.ndarray, bip: Bipartition, k: int,
                   budget: int = BRUTEFORCE_BUDGET) -> QWETable:
    """Exhaustive PT-moment enumerators over all Pauli k-tuples.

    Only tuples whose ordered product is proportional to the identity have
    a trace, so the last tuple slot is forced and the scan runs over
    4^{n(k-1)} prefixes with the final slot vectorized.
    """
    d = rho.shape[0]
    n = d.bit_length() - 1
    if bip.n != n:
        raise ValueError("bipartition size mismatch")
    if k < 1:
        raise ValueError("need k >= 1")
    if 4 ** (n * k) > budget:
        raise ValueError("tuple space 4^(n k) exceeds budget")
    if k == 1:
        return QWETable(n, 1, bip, {(1, 1 + 0j, 0): 1.0})

    wmax = n * k
    idx, popn, xm, zm = _phase_tables(n)
    wt = popn[xm | zm]
    th = 1 - 2 * (popn[xm & zm & bip.a_mask] & 1)
    pxz = popn[xm & zm]
    tr = pauli_coefficients(rho)
    trl = tr.tolist()
    wtl = wt.tolist()
    thl = th.tolist()
    popl = [v.bit_count() for v in range(d)]
    mask = d - 1
    nbuck = 8 * (wmax + 1)
    acc = np.zeros(nbuck)

    def scan_last(r, e, w, t, coef):
        # P_{k-1} ranges over all patterns; P_k must equal the running
        # product pattern, and multiplying a pattern by itself is phase-free
        ax, az = r & mask, r >> n
        rm = np.bitwise_xor(idx, r)
        em = (e + popl[ax & az] + pxz + 2 * popn[az & xm]
              - popn[(ax ^ xm) & (az ^ zm)]) % 4
        wv = w + wt + wt[rm]
        tv = t * th * th[rm]
        cv = coef * tr * tr[rm]
        bucket = (np.where(tv < 0, 4, 0) + em) * (wmax + 1) + wv
        acc[:] += np.bincount(bucket, weights=cv, minlength=nbuck)

    def scan(level, r, e, w, t, coef):
        if level == 0:
            scan_last(r, e, w, t, coef)
            return
        ax, az = r & mask, r >> n
        pr = popl[ax & az]
        for q in range(d * d):
            c2 = coef * trl[q]
            if c2 == 0.0:
                continue
            qx, qz = q & mask, q >> n
            e2 = (e + pr + popl[qx & qz] + 2 * popl[az & qx]
                  - popl[(ax ^ qx) & (az ^ qz)]) % 4
            scan(level - 1, r ^ q, e2, w + wtl[q], t * thl[q], c2)

    scan(k - 2, 0, 0, 0, 1, 1.0)

    phases = (1 + 0j, 1j, -1 + 0j, -1j)
    norm = float(2 ** (n * (k - 1)))
    c = {}
    for tb in (0, 1):
        for e in range(4):
            base = (tb * 4 + e) * (wmax + 1)
            for w in range(wmax + 1):
                v = acc[base + w]
                if v != 0.0:
                    c[(1 - 2 * tb, phases[e], w)] = v / norm
    return QWETable(n, k, bip, c)


# ---------------------------------------------------------------------------
# PT-moment enumerators, stabilizer route


def _element_tables(g: StabilizerGroup, bip: Bipartition):
    """Weight and PT sign of every group element, in enumerate_group's
    order: the x and z masks by XOR doubling, then popcounts."""
    x = z = np.zeros(1, dtype=np.int64)
    for p in g.generators:
        x, z = np.append(x, x ^ p.x_mask), np.append(z, z ^ p.z_mask)
    y = np.bitwise_count(x & z & bip.a_mask).astype(np.int64) & 1
    return np.bitwise_count(x | z).astype(np.int64), 1 - 2 * y


def cw_bruteforce(g: StabilizerGroup, bip: Bipartition, k: int,
                  budget: int = BRUTEFORCE_BUDGET) -> CWTable:
    """Exhaustive count over (k-1)-tuples of stabilizer elements.

    Element signs never matter: the sign class theta and the weight depend
    only on patterns, and patterns compose as XOR of generator subsets, so
    the product slot is a table lookup at the XOR of the tuple's indices.
    An element's key wt (k+1) + [theta < 0] sums over a tuple to W (k+1) + c
    for total weight W and c <= k negative signs, so one bincount of key
    sums gives both.  The last two free slots run as numpy blocks of at
    most BRUTEFORCE_BLOCK tuples per prefix, so memory stays flat.
    """
    n = g.n
    if bip.n != n:
        raise ValueError("bipartition size mismatch")
    if k < 1:
        raise ValueError("need k >= 1")
    size = 1 << len(g.generators)
    if size ** (k - 1) > budget:
        raise ValueError("tuple space |S|^(k-1) exceeds budget")
    if k == 1:
        return CWTable(n, 1, bip, {0: 1}, {})

    wmax = n * k
    wt, th = _element_tables(g, bip)
    key = wt * (k + 1) + (th < 0)
    keyl = key.tolist()
    slots = min(k - 1, 2)
    acc = np.zeros((wmax + 1) * (k + 1), dtype=np.int64)

    def blocks():
        # (XOR, key sum) over the last free slots; with one free slot y is
        # 0, the identity, whose key is 0
        for lo in range(0, size ** slots, BRUTEFORCE_BLOCK):
            flat = np.arange(lo, min(lo + BRUTEFORCE_BLOCK, size ** slots))
            x, y = flat % size, flat // size
            yield x ^ y, key[x] + key[y]

    one = list(blocks()) if size ** slots <= BRUTEFORCE_BLOCK else None

    def scan(level, bxor, ksum):
        if level == 0:
            for x, ks in one or blocks():
                acc[:] += np.bincount(ks + key[x ^ bxor] + ksum,
                                      minlength=len(acc))
            return
        for b in range(size):
            scan(level - 1, bxor ^ b, ksum + keyl[b])

    scan(k - 1 - slots, 0, 0)
    counts = acc.reshape(wmax + 1, k + 1)
    cplus = counts[:, 0::2].sum(axis=1).tolist()
    cminus = counts[:, 1::2].sum(axis=1).tolist()
    return CWTable(n, k, bip, {w: c for w, c in enumerate(cplus) if c},
                   {w: c for w, c in enumerate(cminus) if c})


def _character_set(wt: np.ndarray, signs, n: int) -> tuple:
    """(coeffs, multiplicity) of sum_S chi_v(S) signs(S) z^wt(S) over the
    characters v, sorted by descending coefficients."""
    size = len(wt)
    table = np.zeros((n + 1, size), dtype=np.int64)
    table[wt, np.arange(size)] = signs
    polys = collections.Counter(map(tuple, _wht(table).T.tolist()))
    return tuple(sorted(polys.items(), key=lambda kv: tuple(-c for c in kv[0])))


def character_polys(g: StabilizerGroup, bip: Bipartition,
                    cap: int = CHARACTER_QUBIT_CAP) -> CharacterPolynomials:
    """Character transforms of the weight and signed-weight indicators.

    Characters are indexed by v acting on generator exponents via
    chi_v(prod g_i^{b_i}) = (-1)^{v.b}.  One Walsh transform per weight
    class yields every character's polynomial at once; identical rows are
    merged with multiplicities.
    """
    if len(g.generators) > cap:
        raise ValueError(f"character transform capped at {cap} generators")
    wt, th = _element_tables(g, bip)
    return CharacterPolynomials(g.n, _character_set(wt, th, g.n), wt)


def _mirror_pairs(polys) -> tuple:
    """(whole, paired): one of each P(z), P(-z) of equal mult is paired."""
    whole, paired, left = [], [], dict(polys)
    for p, m in polys:
        if left.pop(p, None) is None:
            continue  # the mirror of an earlier polynomial
        mirror = tuple(c if w % 2 == 0 else -c for w, c in enumerate(p))
        if left.get(mirror) == m:
            paired.append((p, left.pop(mirror)))
        else:
            whole.append((p, m))
    return tuple(whole), tuple(paired)


def _power_sum(polys, k: int, length: int, pairs=None) -> list:
    """Coefficients z^0..z^(length-1) of sum_i mult_i P_i(z)^k for distinct
    P_i, exactly: each P_i(2^B) is one int, powered and summed in C, and B
    has a sign bit and a spare bit above sum_i mult_i ||P_i||_1^k, which
    bounds every coefficient, so balanced base-2^B digits cannot carry.
    P(z) and P(-z) of equal multiplicity (in a character set, all of them:
    weight parity is a character) cost one power, as twice the even part;
    pairs is _mirror_pairs(polys), when the caller has it already.
    """
    bits = sum(m * sum(map(abs, p)) ** k for p, m in polys).bit_length() + 2
    width = max(len(p) for p, _ in polys)
    shifts = [w * bits for w in range(width)]
    whole, paired = (sum(m * sum(map(operator.lshift, p, shifts)) ** k
                         for p, m in part)
                     for part in pairs or _mirror_pairs(polys))
    half, mask, out = 1 << (bits - 1), (1 << bits) - 1, []
    for w in range(length):
        a, b = ((whole + half) & mask) - half, ((paired + half) & mask) - half
        whole, paired = (whole - a) >> bits, (paired - b) >> bits
        out.append(a if w % 2 else a + 2 * b)
    if whole or paired:
        raise ValueError("packed power sum does not fit its digit width")
    return out


def cw_fourier(g: StabilizerGroup, bip: Bipartition, k: int,
               chars: CharacterPolynomials = None) -> CWTable:
    """Stabilizer tuple counts via k-th powers of the character polynomials.

    The inversion formula gives sum and difference generating polynomials
    2^n (Cplus +- Cminus) = sum_i mult_i * poly_i(z)^k over the plus and
    minus sets; everything stays in exact integers and the divisions by
    2^n and 2 must come out exact.
    """
    n = g.n
    if k < 1:
        raise ValueError("need k >= 1")
    if chars is None:
        chars = character_polys(g, bip)
    size = sum(m for _, m in chars.plus_set)
    wmax = n * k

    def combine(charset):
        tot = _power_sum(charset, k, wmax + 1)
        if any(c % size for c in tot):
            raise ValueError("character inversion is not integral; "
                             "group tables are inconsistent")
        return [c // size for c in tot]

    spoly = combine(chars.plus_set)
    dpoly = combine(chars.minus_set)
    cplus = {}
    cminus = {}
    for w in range(wmax + 1):
        s, dd = spoly[w], dpoly[w]
        if (s + dd) % 2:
            raise ValueError("sum/difference parity mismatch in inversion")
        cp, cm = (s + dd) // 2, (s - dd) // 2
        if cp < 0 or cm < 0:
            raise ValueError("negative tuple count in inversion")
        if cp:
            cplus[w] = cp
        if cm:
            cminus[w] = cm
    return CWTable(n, k, bip, cplus, cminus)


def dyadic_one_minus(eps) -> tuple:
    """(a, f) with 1 - eps = a / 2^f exactly, from eps's binary form."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    _, man, exp, _ = _binary(eps)
    f = max(0, -exp)
    return (1 << f) - (man << (exp + f)), f


def dyadic_numerator(coeffs, a: int, f: int) -> int:
    """A with sum_w coeffs[w] (1-eps)^w = A / 2^(f deg) exactly, where
    1 - eps = a / 2^f (dyadic_one_minus): Horner's rule over ints."""
    acc = 0
    for j, c in enumerate(reversed(coeffs)):
        acc = acc * a + (c << f * j)
    return acc


def noisy_pt_moment(table, eps):
    """p_k of the depolarized partial transpose from an enumerator table.

    Stabilizer tables evaluate sum (Cplus - Cminus)(1-eps)^w / 2^{n(k-1)}
    exactly, rounded once to the precision of eps (float or mpf).  General
    tables sum theta*phi*c*(1-eps)^w and must see imaginary parts cancel.
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if isinstance(table, CWTable):
        wide = isinstance(eps, mpf)
        x = (exact_decayed(table.difference_poly(), eps)
             / (1 << table.n * (table.k - 1)))  # dyadic
        v = round_dyadic(x.numerator, 1 - x.denominator.bit_length(),
                         mp.prec if wide else 53)
        return v if wide else float(v)
    if isinstance(table, QWETable):
        q = 1.0 - float(eps)
        tot = 0j
        for (th, phi, w), c in table.c.items():
            tot += th * phi * c * q**w
        if abs(tot.imag) > QWE_IMAG_TOL * max(1.0, abs(tot.real)):
            raise ValueError(f"imaginary residue {tot.imag:.3e} did not cancel")
        return tot.real
    raise TypeError("expected a CWTable or QWETable")


# ---------------------------------------------------------------------------
# Published six-qubit perfect-tensor fixtures

_AME6_PLUS = (
    ((1, 0, 0, 0, 45, 0, 18), 1),
    ((1, 0, 0, 0, 5, 0, -6), 18),
    ((1, 0, 0, 0, -3, 0, 2), 45),
)

_AME6_MINUS = {
    0: _AME6_PLUS,
    1: (
        ((1, 0, 0, 0, 25, 0, 6), 3),
        ((1, 0, 0, 0, 1, 0, -2), 45),
        ((1, 0, 0, 0, -7, 0, 6), 15),
        ((1, 0, 0, 0, -15, 0, -18), 1),
    ),
    2: (
        ((1, 0, 0, 0, 13, 0, 2), 9),
        ((1, 0, 0, 0, 5, 0, -6), 12),
        ((1, 0, 0, 0, -3, 0, 2), 36),
        ((1, 0, 0, 0, -11, 0, -6), 6),
        ((1, 0, 0, 0, -3, 0, 18), 1),
    ),
    3: (
        ((1, 0, 0, 0, 9, 0, -2), 18),
        ((1, 0, 0, 0, 1, 0, 6), 18),
        ((1, 0, 0, 0, -7, 0, -2), 27),
        ((1, 0, 0, 0, 9, 0, -18), 1),
    ),
}


def _diff_sets(label, got, expected, failures):
    got = set(got)
    expected = set(expected)
    for item in sorted(expected - got):
        failures.append(f"{label}: missing {item}")
    for item in sorted(got - expected):
        failures.append(f"{label}: unexpected {item}")


def ame_fixture_check() -> dict:
    """Compare the six-qubit perfect tensor against its published tables.

    Checks the plus-set (bipartition independent), the minus-sets for cut
    sizes 0..3, the trivial-cut degeneration (minus equals plus), the sum
    identity on tuple counts at k=3, and the brute-force oracle on the
    size-1 cut.  Returns {"ok", "failures", "cases"}.
    """
    g = state_catalog("ame6", 6)
    failures = []
    cases = {}
    for s in range(4):
        bip = Bipartition(6, frozenset(range(1, s + 1)))
        chars = character_polys(g, bip)
        case_fail = len(failures)
        _diff_sets(f"plus {s}|{6-s}", chars.plus_set, _AME6_PLUS, failures)
        _diff_sets(f"minus {s}|{6-s}", chars.minus_set, _AME6_MINUS[s], failures)
        if s == 0 and set(chars.minus_set) != set(chars.plus_set):
            failures.append("0|6: trivial cut must have minus == plus")
        fast = cw_fourier(g, bip, 3, chars)
        ssum = [64 * (fast.cplus.get(w, 0) + fast.cminus.get(w, 0))
                for w in range(19)]
        if ssum != _power_sum(_AME6_PLUS, 3, 19):
            failures.append(f"{s}|{6-s}: k=3 sum counts disagree with the "
                            "plus-set power formula")
        if s == 1:
            brute = cw_bruteforce(g, bip, 3)
            if fast.cplus != brute.cplus or fast.cminus != brute.cminus:
                failures.append("1|5: fourier route disagrees with brute force at k=3")
        cases[f"{s}|{6-s}"] = "ok" if len(failures) == case_fail else "mismatch"
    return {"ok": not failures, "failures": failures, "cases": cases}
