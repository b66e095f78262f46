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
reduces the count to a sum of k-th powers of at most 2^n small polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from .pauli import (Bipartition, StabilizerGroup, enumerate_group,
                    state_catalog, theta, weight)

BRUTEFORCE_BUDGET = 1 << 26
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
        out = [0] * (self.n * self.k + 1)
        for w, c in self.cplus.items():
            out[w] += c
        for w, c in self.cminus.items():
            out[w] -= c
        return out


@dataclass(frozen=True)
class CharacterPolynomials:
    """Deduplicated character transforms of a stabilizer group.

    plus_set pairs (coeffs, multiplicity) for sum_S chi(S) z^wt(S);
    minus_set additionally weights each element by its partial-transpose
    sign.  Coefficient tuples run z^0..z^n; every constant term is 1.
    """

    n: int
    plus_set: tuple
    minus_set: tuple


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


def rains_subsystem_purity(a: SLVector, eps, s: int = None):
    """Average purity over all size-s marginals of the depolarized state.

    Defaults to the balanced cut s = n/2 (even n required there).  A
    weight-i Pauli fits inside C(n-i, s-i) of the C(n,s) subsystems, hence
    the reweighting of a_i; the 2^{n-s} restores the marginal trace scale.
    """
    n = a.n
    if s is None:
        if n % 2:
            raise ValueError("balanced cut needs even n; pass s explicitly")
        s = n // 2
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


def stab_subsystem_purity(g: StabilizerGroup, bip: Bipartition, eps):
    """Purity of the reduced state on block A of a depolarized stabilizer
    state: 2^-|A| times the decayed count of elements supported inside A."""
    counts = _group_weight_counts(g, bip.a_mask)
    one = _one_like(eps)
    return (_decayed(counts, (one - eps) ** 2, one)
            / _num(1 << len(bip.a_set), one))


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
    elements = enumerate_group(g)
    wt = np.array([weight(p) for p in elements], dtype=np.int64)
    th = np.array([theta(p, bip) for p in elements], dtype=np.int64)
    return wt, th


def cw_bruteforce(g: StabilizerGroup, bip: Bipartition, k: int,
                  budget: int = BRUTEFORCE_BUDGET) -> CWTable:
    """Exhaustive count over (k-1)-tuples of stabilizer elements.

    Element signs never matter: the sign class theta and the weight depend
    only on patterns, and patterns compose as XOR of generator subsets, so
    the product slot is a table lookup at the XOR of the tuple's indices.
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
    wtl = wt.tolist()
    thl = th.tolist()
    bidx = np.arange(size, dtype=np.int64)
    acc = np.zeros(2 * (wmax + 1), dtype=np.int64)

    def scan(level, bxor, w, t):
        if level == 0:
            b1 = np.bitwise_xor(bidx, bxor)
            wv = w + wt + wt[b1]
            tv = t * th * th[b1]
            bucket = np.where(tv < 0, wmax + 1, 0) + wv
            acc[:] += np.bincount(bucket, minlength=2 * (wmax + 1))
            return
        for b in range(size):
            scan(level - 1, bxor ^ b, w + wtl[b], t * thl[b])

    scan(k - 2, 0, 0, 1)
    cplus = {w: int(acc[w]) for w in range(wmax + 1) if acc[w]}
    cminus = {w: int(acc[wmax + 1 + w]) for w in range(wmax + 1) if acc[wmax + 1 + w]}
    return CWTable(n, k, bip, cplus, cminus)


def character_polys(g: StabilizerGroup, bip: Bipartition,
                    cap: int = CHARACTER_QUBIT_CAP) -> CharacterPolynomials:
    """Character transforms of the weight and signed-weight indicators.

    Characters are indexed by v acting on generator exponents via
    chi_v(prod g_i^{b_i}) = (-1)^{v.b}.  One Walsh transform per weight
    class yields every character's polynomial at once; identical rows are
    merged with multiplicities.
    """
    n = g.n
    if len(g.generators) > cap:
        raise ValueError(f"character transform capped at {cap} generators")
    size = 1 << len(g.generators)
    wt, th = _element_tables(g, bip)
    plus = np.zeros((n + 1, size), dtype=np.int64)
    minus = np.zeros((n + 1, size), dtype=np.int64)
    plus[wt, np.arange(size)] = 1
    minus[wt, np.arange(size)] = th
    plus_hat = _wht(plus)
    minus_hat = _wht(minus)

    def collect(hat):
        polys = {}
        for v in range(size):
            coeffs = tuple(int(hat[w, v]) for w in range(n + 1))
            polys[coeffs] = polys.get(coeffs, 0) + 1
        ordered = sorted(polys.items(), key=lambda kv: tuple(-c for c in kv[0]))
        return tuple(ordered)

    return CharacterPolynomials(n, collect(plus_hat), collect(minus_hat))


def _poly_mul(a, b, cap):
    out = [0] * min(len(a) + len(b) - 1, cap + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += ai * bj
    return out


def _poly_pow(p, k, cap):
    out = [1]
    base = list(p)
    while k:
        if k & 1:
            out = _poly_mul(out, base, cap)
        k >>= 1
        if k:
            base = _poly_mul(base, base, cap)
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
        tot = [0] * (wmax + 1)
        for coeffs, mult in charset:
            p = _poly_pow(list(coeffs), k, wmax)
            for w, c in enumerate(p):
                tot[w] += mult * c
        for w, c in enumerate(tot):
            if c % size:
                raise ValueError("character inversion is not integral; "
                                 "group tables are inconsistent")
            tot[w] = c // size
        return tot

    spoly = combine(chars.plus_set)
    dpoly = combine(chars.minus_set)
    cplus = {}
    cminus = {}
    for w in range(wmax + 1):
        s, dd = spoly[w], dpoly[w]
        if (s + dd) % 2 or (s - dd) % 2:
            raise ValueError("sum/difference parity mismatch in inversion")
        cp, cm = (s + dd) // 2, (s - dd) // 2
        if cp < 0 or cm < 0:
            raise ValueError("negative tuple count in inversion")
        if cp:
            cplus[w] = cp
        if cm:
            cminus[w] = cm
    return CWTable(n, k, bip, cplus, cminus)


def noisy_pt_moment(table, eps):
    """p_k of the depolarized partial transpose from an enumerator table.

    Stabilizer tables evaluate sum (Cplus - Cminus)(1-eps)^w / 2^{n(k-1)}
    exactly in the precision of eps (float or mpf).  General tables sum
    theta*phi*c*(1-eps)^w and must see their imaginary parts cancel.
    """
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    if isinstance(table, CWTable):
        one = _one_like(eps)
        q = one - eps
        tot = one - one
        for w in sorted(set(table.cplus) | set(table.cminus)):
            diff = table.cplus.get(w, 0) - table.cminus.get(w, 0)
            if diff:
                tot += _num(diff, one) * q**w
        return tot / _num(1 << (table.n * (table.k - 1)), one)
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
        ssum = [0] * 19
        for w, c in fast.cplus.items():
            ssum[w] += c
        for w, c in fast.cminus.items():
            ssum[w] += c
        ref = [0] * 19
        for coeffs, mult in _AME6_PLUS:
            p = _poly_pow(list(coeffs), 3, 18)
            for w, c in enumerate(p):
                ref[w] += mult * c
        if [64 * v for v in ssum] != ref:
            failures.append(f"{s}|{6-s}: k=3 sum counts disagree with the "
                            "plus-set power formula")
        if s == 1:
            brute = cw_bruteforce(g, bip, 3)
            if fast.cplus != brute.cplus or fast.cminus != brute.cminus:
                failures.append("1|5: fourier route disagrees with brute force at k=3")
        cases[f"{s}|{6-s}"] = "ok" if len(failures) == case_fail else "mismatch"
    return {"ok": not failures, "failures": failures, "cases": cases}
