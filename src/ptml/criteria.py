"""Entanglement criteria as pure verdict functions on moment data.

Every criterion here is a relaxation of the PPT test: it may only fire on
NPT states.  Verdicts carry a signed margin (positive = detected) and fire
when the margin exceeds a decision tolerance.

Moments with exact dyadic numerators (the stabilizer models', under local
and global noise, GHZ up to the character cap included:
MomentVector.exact = (A, s), p_k = A_k / 2^(s k)) are decided exactly,
with no tolerance, and so are least PT eigenvalues, fidelities and
purities given as Fractions (the stabilizer models').  Every scalar gap,
ppt (ppt_verdict, for every model), fidelity, purity and klm on rounded
moments, goes through one decision, _positive: a Fraction exactly, any
other gap past default_tol, times a scale where the gap's size is known
(GHZModel's PPT gap is relative to d).  A margin is computed only when
read.  The Fraction ppt, fidelity and purity margins and the descartes
margins are then the exact value rounded once; the klm and stieltjes
margins come from the rounded moments, and one whose sign contradicts the
exact verdict reads 0.
Elsewhere (GHZ past the character cap, and dense) the moments are
rounded, float64 or mpf, and the Hankel and Descartes tests run on the
same integer kernels: p_k is rounded once onto the grid 2^-b, b the
moments' precision in bits + 64, and the grid numerators q_k = p_k 2^b
are decided with a tolerance tau.
The grid moves the Hankel matrix by at most its size times 2^-b, far
below tau.  stieltjes fires when the grid Hankel plus tau 2^b on its
diagonal is not PSD, i.e. when -lambda_min > tau up to the grid; the
smallest eigenvalue behind the margin is computed only when read.
descartes fires when some e_j < -tau, from the Newton numerators of the
q_k << b(k-1); its margin is the exact route's, rounded once.  The
default decision tolerance there is 1e-10 for float input and
10^-(d-10) for d-digit input: near a threshold the decisive quantities
(e.g. the smallest Hankel eigenvalue) can sit twelve or more orders below
the moment scale, so a fixed 1e-10 cutoff would blind the high-precision
path exactly where it is needed.  klm compares fractional powers of the
rounded moments: the grid would round a tiny positive p_k to 0.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import (dps_to_prec, from_rational, mpf_shift, round_nearest,
                          to_int)

from .spectra import MomentVector, Spectrum, _binary, merge_spectrum

FLOAT_TOL = 1e-10


class Verdict:
    """A verdict and its signed margin (positive = past the decision
    boundary, float or mpf) with a witness, (margin, witness) = explain(),
    computed on first read: a threshold search reads only `entangled`.
    With exact=True the verdict is the exact sign of the margin, so a
    rounded margin whose sign contradicts it reads 0; the witness keeps the
    raw value.  exact=False reads the margin raw."""

    def __init__(self, entangled: bool, explain, exact: bool = True):
        self.entangled = entangled
        self._explain = explain
        self._exact = exact

    @functools.cached_property
    def _explained(self) -> tuple:
        return self._explain()

    @property
    def margin(self):
        m = self._explained[0]
        if self._exact and (m > 0) != self.entangled:
            return type(m)(0)
        return m

    @property
    def witness(self):
        return self._explained[1]

    @property
    def status(self) -> str:
        return "Entangled" if self.entangled else "Inconclusive"


def _round_once(x: Fraction, digits: int):
    """An exact margin, rounded once to digits (None: to a float)."""
    if digits is None:
        return float(x)
    return mp.make_mpf(from_rational(x.numerator, x.denominator,
                                     dps_to_prec(digits), round_nearest))


def default_tol(digits):
    if digits is None:
        return FLOAT_TOL
    return mpf(10) ** (-(digits - 10))


@contextmanager
def _arithmetic(digits):
    """Unit of the scalar type for `digits` (None = float64), with mpmath
    working at that precision for the duration."""
    if digits is None:
        yield 1.0
    else:
        with workdps(digits):
            yield mpf(1)


def _negated(x):
    """-x, exact for mpf input: a bare minus would round it to the
    caller's mp.prec."""
    return mp.fneg(x, exact=True) if isinstance(x, mpf) else -x


def _difference(x, y):
    """x - y, exact for mpf input, in float64 for float input."""
    if isinstance(x, mpf) or isinstance(y, mpf):
        return mp.fsub(x, y, exact=True)
    return x - y


def _on_grid(x, bits: int) -> int:
    """x 2^bits rounded to the nearest integer, from x's exact binary
    value (float or mpf)."""
    return to_int(mpf_shift(_binary(x), bits), round_nearest)


def _grid(p: MomentVector) -> tuple:
    """(q, b): the moments rounded once onto the grid 2^-b, q_k the integer
    nearest p_k 2^b, with b the moments' precision in bits (53 for float64)
    + 64."""
    b = (53 if p.digits is None else dps_to_prec(p.digits)) + 64
    return tuple(_on_grid(x, b) for x in p.values), b


def _log2(v):
    return mp.log(v, 2) if isinstance(v, mpf) else math.log2(v)


def _hankel_size(p: MomentVector, m: int) -> int:
    if m % 2 == 0:
        raise ValueError("Hankel moment matrix requires odd m")
    if m > len(p):
        raise ValueError(f"need moments up to p_{m}, got {len(p)}")
    return (m + 1) // 2


def build_hankel(p: MomentVector, m: int) -> tuple:
    """Rows of [H]_{i,j} = p_{i+j-1} (1-based), square of size (m+1)/2."""
    size = _hankel_size(p, m)
    return tuple(tuple(p.p(i + j + 1) for j in range(size)) for i in range(size))


def hankel_min_eigenvalue(h: tuple, digits=None):
    """Smallest eigenvalue of the Hankel matrix, at the input's precision:
    np.linalg.eigvalsh for float input, mp.eigsy at digits + 10 for mpf."""
    if digits is None:
        return float(np.linalg.eigvalsh(np.array(h, dtype=float))[0])
    with workdps(digits + 10):
        return mp.eigsy(mp.matrix(h), eigvals_only=True)[0]


def is_psd_exact(rows) -> bool:
    """Whether a symmetric integer matrix is positive semidefinite, exactly.

    Fraction-free (Bareiss) symmetric elimination with diagonal pivoting:
    the remaining block is the Schur complement times det M_K > 0 (K the
    pivots so far), so divisions are exact and a negative diagonal entry
    rules PSD out; with a zero diagonal, PSD means a zero block.
    """
    m = [list(row) for row in rows]
    live, prev = list(range(len(m))), 1
    while live:
        if any(m[i][i] < 0 for i in live):
            return False
        k = next((i for i in live if m[i][i]), None)
        if k is None:
            return not any(m[i][j] for i in live for j in live)
        live.remove(k)
        piv, pivot_row = m[k][k], m[k]
        for x, i in enumerate(live):
            row, rik = m[i], m[i][k]
            for j in live[x:]:
                row[j] = m[j][i] = (piv * row[j] - rik * pivot_row[j]) // prev
        prev = piv
    return True


def klm_ppt(p: MomentVector, k: int, l: int, m: int) -> Verdict:
    """Three-moment test: p_l > p_k^x p_m^(1-x) with x = (m-l)/(m-k)
    certifies a negative PT eigenvalue.  On exact numerators this is
    A_l > 0 and A_l^(m-k) > A_k^(m-l) A_m^(l-k): the powers of 2 cancel."""
    if not 1 <= k < l < m <= len(p):
        raise ValueError(f"need 1 <= k < l < m <= {len(p)}, got {(k, l, m)}")
    # A_k > 0 exactly when p_k > 0
    ak, al, am = (p.p(i) if p.exact is None else p.exact[0][i - 1]
                  for i in (k, l, m))
    if ak <= 0 or am <= 0:
        raise ValueError("fractional powers need positive p_k and p_m")

    def explain():
        pk, pl, pm = p.p(k), p.p(l), p.p(m)
        with _arithmetic(p.digits) as one:
            x = one * (m - l) / (m - k)
            return pl - pk ** x * pm ** (1 - x), {"triple": (k, l, m), "x": x}

    if p.exact is not None:
        return Verdict(
            al > 0 and al ** (m - k) > ak ** (m - l) * am ** (l - k), explain)
    margin, witness = explain()
    return _positive(margin, p.digits, witness=lambda _: witness)


def hankel_margin(p: MomentVector, m: int) -> tuple:
    """(margin, witness) of stieltjes(p, m): the margin is -lambda_min of
    the Hankel matrix, at the precision of hankel_min_eigenvalue (an mpf
    is negated exactly, not rounded to the caller's mp.prec)."""
    min_eig = hankel_min_eigenvalue(build_hankel(p, m), digits=p.digits)
    return _negated(min_eig), {"m": m, "min_eigenvalue": min_eig}


def stieltjes(p: MomentVector, m: int) -> Verdict:
    """Hankel positivity test: a PPT state's moment matrix H_m is PSD, so a
    negative eigenvalue certifies entanglement.  For m=3 this reduces to
    the p_2^2 > p_3 test.  On exact numerators, congruence by
    diag(2^(s i)) makes H_m a positive multiple of the A_k's Hankel.
    Otherwise it fires when -lambda_min > tau = default_tol max(1, max|H|),
    decided exactly on the grid: the Hankel of the q_k plus tau 2^b on its
    diagonal is not PSD.  The margin -lambda_min is computed only when
    read.

    Past a rank bound the test is PPT itself.  With D distinct nonzero PT
    eigenvalues lambda_i of multiplicity mu_i, H_s = V^T diag(mu_i
    lambda_i) V for the D x s Vandermonde matrix V of the lambda_i, s =
    (m+1)/2.  For s >= D, V has full row rank, so H_s is PSD exactly when
    every lambda_i >= 0 (Yu, Imai and Guehne, PRL 127, 060504 (2021);
    Curto and Fialkow, Houston J. Math. 17 (1991)).  Any upper bound on D
    serves, since equal or vanishing eigenvalues only lower the count.
    The models declare one as hankel_rank_bound: the number of minus-set
    character polynomials under local noise (4, 5 and 4 on the AME(6,2)
    cuts 1|5, 2|4 and 3|3; [n/2] + 3 on every cut of GHZ up to the
    character cap, 2 at n = 2), at most 3 under global noise, none for GHZ
    past the cap (thresholds.GHZModel) and dense.
    thresholds.evaluate decides such an order by the model's exact PPT
    verdict, with this function's margin."""
    size = _hankel_size(p, m)
    explain = functools.partial(hankel_margin, p, m)
    if p.exact is not None:
        a, shift = p.exact[0], 0
    else:
        a, b = _grid(p)
        norm = max(abs(x) for x in p.values[:m])
        shift = _on_grid(default_tol(p.digits) * max(1, norm), b)
    rows = [[x + shift * (i == j) for j, x in enumerate(a[i:i + size])]
            for i in range(size)]
    return Verdict(not is_psd_exact(rows), explain, exact=p.exact is not None)


def descartes(p: MomentVector, m: int) -> Verdict:
    """Sign test on elementary symmetric polynomials of the PT spectrum.

    e_1..e_m follow from the power sums by Newton's identities
        e_j = (1/j) sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i;
    any e_j < 0 certifies a negative eigenvalue.  On exact numerators the
    integers F_j = j! 2^(s j) e_j follow the same recurrence over ints, and
    a negative F_j decides.  Rounded moments are put on the grid first,
    A_k = q_k 2^(b(k-1)) with s = b, and it fires when some
    F_j < -tau j! 2^(b j), tau = default_tol, i.e. e_j < -tau.  The margin
    is max_j -e_j, each e_j rounded once, and read only when asked.
    """
    if not 1 <= m <= len(p):
        raise ValueError(f"need 1 <= m <= {len(p)}")

    def explain(es):
        margin = max(-e for e in es[1:])
        worst = min(range(1, m + 1), key=lambda j: es[j])
        return margin, {"elementary": tuple(es[1:]), "worst_j": worst}

    if p.exact is not None:
        (nums, s), tau = p.exact, 0
    else:
        q, s = _grid(p)
        nums, tau = [x << s * k for k, x in enumerate(q)], default_tol(p.digits)
    fs = _newton_numerators(tuple(nums))[:m + 1]

    def rounded():
        with _arithmetic(p.digits):
            return explain([_round_once(Fraction(f, math.factorial(j)
                                                 << s * j), p.digits)
                            for j, f in enumerate(fs)])

    return Verdict(any(f < -_on_grid(tau, s * j) * math.factorial(j)
                       for j, f in enumerate(fs) if j),
                   rounded, exact=p.exact is not None)


# One entry: a battery judges descartes at every order on one moment
# vector in turn, and F_j reads only A_1..A_j, so each reuses the first
# call's sequence.
@functools.lru_cache(maxsize=1)
def _newton_numerators(nums: tuple) -> tuple:
    """F_0..F_len(nums) with F_j = j! 2^(s j) e_j, by Newton's
    identities over ints from p_i = A_i / 2^(s i)."""
    fs = [1]
    for j in range(1, len(nums) + 1):
        fs.append(sum((-1) ** (i - 1) * math.perm(j - 1, i - 1) * fs[j - i]
                      * nums[i - 1] for i in range(1, j + 1)))
    return tuple(fs)


def negativity_lower_bound(pt, l: int, m: int):
    """Lower bound on the logarithmic negativity from two Schatten moments.

    With x = (m-l)/(m-1):  E_N >= log2(pt_l)/x - ((1-x)/x) log2(pt_m).
    Requires 1 < l < m and positive moments.  At l=2 this is the familiar
    E_N >= log2(p_2)(1-m)/(2-m) + log2(pt_m)/(2-m) bound.
    """
    if not 1 < l < m:
        raise ValueError("need 1 < l < m")
    if isinstance(pt, MomentVector):
        digits = pt.digits
        ptl, ptm = pt.ptilde(l), pt.ptilde(m)
    else:
        digits = None
        ptl, ptm = pt[l - 1], pt[m - 1]
    if ptl <= 0 or ptm <= 0:
        raise ValueError("Schatten moments must be positive")
    with _arithmetic(digits) as one:
        x = one * (m - l) / (m - 1)
        return _log2(ptl) / x - ((1 - x) / x) * _log2(ptm)


def stieltjes_witness(s: Spectrum, m: int) -> list:
    """Explicit vector violating Hankel positivity, from a known spectrum.

    Let lambda_1 < 0 be the most negative of the N distinct eigenvalues and
    f(x) the monic polynomial vanishing on the other N-1.  The coefficient
    vector c of f, zero-padded to length (m+1)/2, gives
        c^T H_m c = mu_1 lambda_1 f(lambda_1)^2 < 0.
    Requires odd m >= 2N - 1; eigenvalues within 1e-12 count as one
    (merge_spectrum).
    """
    if m % 2 == 0:
        raise ValueError("Hankel moment matrix requires odd m")
    merged = merge_spectrum(s)
    lams = sorted(lam for lam, _ in merged.entries)
    n_distinct = len(lams)
    if lams[0] >= 0:
        raise ValueError("spectrum has no negative eigenvalue")
    if m < 2 * n_distinct - 1:
        raise ValueError(f"need m >= {2 * n_distinct - 1} for N={n_distinct}"
                         f" distinct eigenvalues, got {m}")
    size = (m + 1) // 2
    coeffs = [1]  # monic in ascending powers, degree grows per root
    for lam in lams[1:]:
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] -= a * lam
            nxt[i + 1] += a
        coeffs = nxt
    return coeffs + [0] * (size - len(coeffs))


def fidelity_criterion(f, bell_pairs: int, digits=None) -> Verdict:
    """Overlap above 1/2 with a pure stabilizer state holding bell_pairs
    Bell pairs across the cut; a separable state's overlap is at most
    2^-bell_pairs, so with none the criterion certifies nothing.  digits
    is the precision of mpf input; float input is judged as float64, and a
    Fraction exactly, its margin rounded once to digits."""
    if not 0 <= f <= 1:
        raise ValueError("fidelity must lie in [0, 1]")
    return _positive(_difference(f, Fraction(1, 2)), digits,
                     fires=bell_pairs >= 1)


def purity_criterion(global_purity, subsystem_purity, digits=None) -> Verdict:
    """Global purity exceeding a marginal's purity rules out separability;
    digits as for fidelity_criterion.  Two Fraction purities are compared
    exactly; an mpf margin is their exact difference, as fidelity's."""
    if not (0 < global_purity <= 1 and 0 < subsystem_purity <= 1):
        raise ValueError("purities must lie in (0, 1]")
    return _positive(_difference(global_purity, subsystem_purity), digits)


def ppt_verdict(low, digits, scale=1) -> Verdict:
    """The PPT criterion on the least PT eigenvalue low: the margin is
    -low, decided by _positive with the tolerance times scale, and the
    witness is low as the margin reads it (rounded once when exact)."""
    return _positive(_negated(low), digits, scale=scale,
                     witness=lambda m: {"min_eigenvalue": _negated(m)})


def _positive(gap, digits, fires=True, scale=1,
              witness=lambda margin: None) -> Verdict:
    """The one decision on a scalar gap (positive = detected), which fires
    only if fires.  A Fraction is decided exactly, as gap > 0, and its
    margin is the gap rounded once to digits.  A float or mpf must exceed
    default_tol * scale, formed at the gap's precision (float64 for a
    float, digits otherwise), and is its own margin.  witness(margin)
    builds the witness when read."""
    if isinstance(gap, Fraction):
        hit, margin = gap > 0, functools.partial(_round_once, gap, digits)
    else:
        rounded = None if isinstance(gap, float) else digits
        with _arithmetic(rounded):
            hit, margin = gap > default_tol(rounded) * scale, lambda: gap

    def explain():
        m = margin()
        return m, witness(m)

    exact = fires and isinstance(gap, Fraction)
    return Verdict(fires and hit, explain, exact=exact)
