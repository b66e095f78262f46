"""Entanglement criteria as pure verdict functions on moment data.

Every criterion here is a relaxation of the PPT test: it may only fire on
NPT states.  A Verdict is its decision and one signed margin (positive =
detected), the distance to the decision boundary, computed only when
read.

Every verdict is certified except on float64 input.  Moments with exact
dyadic numerators (the stabilizer models', under local and global noise,
GHZ up to the character cap included: MomentVector.exact = (A, s),
p_k = A_k / 2^(s k)) are decided exactly on the integers, and so is an
mpf moment vector or scalar handed in directly, as the binary number it
is.  Moments known by bounds (GHZ past the cap, thresholds.GHZModel:
MomentVector.bounds, lo_k <= p_k <= hi_k) and scalar Enclosures (its
least PT eigenvalue, fidelity and purities), each closed form evaluated
once in mpmath's interval arithmetic, are decided by the same
kernels with a radius: a verdict fires when every value within the
bounds fires, does not when none does, and is otherwise taken again at
twice the precision by _certified, the one place precision rises, which
refuses past MAX_PREC bits with RuntimeError.
  klm        compares p_l^(m-k) with p_k^(m-l) p_m^(l-k) exactly, on the
             binary values of the numerators (whose powers of 2 cancel)
             or of the bounds.
  stieltjes  on exact numerators, congruence by diag(2^(s i)) makes H_m a
             positive multiple of the A_k's Hankel, decided by
             is_psd_exact.  Bounds are scaled by diag(2^c_i), which brings
             the diagonal to about 2^prec, and put on integers A + [0, R];
             by Weyl's inequality, with rho = size max R, A + rho I not
             PSD proves a negative eigenvalue and A - rho I PSD proves
             none (Yu, Imai and Guehne, PRL 127, 060504 (2021)).
  descartes  the Newton numerators F_j = j! 2^(s j) e_j over ints; bounds
             go on the grid 2^-(s k) with s = prec, and the error of each
             F_j is bounded by the same recurrence on (|A|, R).
  ppt, fidelity, purity  one decision on a scalar gap, _positive.
Only float64 input (the dense oracle) keeps a tolerance, FLOAT_TOL:
stieltjes fires when -lambda_min > FLOAT_TOL max(1, max|H|) and
descartes when some e_j < -FLOAT_TOL, both decided exactly on the floats'
binary values, and a float gap must exceed FLOAT_TOL; klm compares the
fractional powers of float moments.  The Fraction ppt, fidelity and
purity margins and the enclosures' midpoints are the exact value rounded
once to DEFAULT_DIGITS, the descartes margins to the moments' digits;
the klm and stieltjes margins come from the rounded values (the Hankel
one at 6 m more digits, 0 on a singular PSD Hankel of exact moments),
and one whose sign contradicts a certified verdict reads 0.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp, mpf, workdps
from mpmath.libmp import (dps_to_prec, from_rational,
                          mpf_cmp, mpf_mul, mpf_shift, mpf_sign, round_ceiling,
                          round_floor, round_nearest, to_int)

from .spectra import (DEFAULT_DIGITS, Enclosure, MomentVector, Spectrum,
                      _binary, _exact_power, _midpoint, merge_spectrum)

FLOAT_TOL = 1e-10
# the precision past which a verdict its bounds leave open is refused
MAX_PREC = 1 << 16


class Verdict:
    """A verdict and its signed margin (positive = past the decision
    boundary, float or mpf), computed by margin() on first read: a
    threshold search reads only `entangled`.  With exact=True the verdict
    is the exact sign of the margin, so a rounded margin whose sign
    contradicts it reads 0; exact=False reads the margin raw."""

    def __init__(self, entangled: bool, margin, exact: bool = True):
        self.entangled = entangled
        self._margin = margin
        self._exact = exact

    @functools.cached_property
    def margin(self):
        m = self._margin()
        if self._exact and (m > 0) != self.entangled:
            return type(m)(0)
        return m

    @property
    def status(self) -> str:
        return "Entangled" if self.entangled else "Inconclusive"


def _round_once(x: Fraction, digits: int):
    """An exact margin, rounded once to digits (None: to a float)."""
    if digits is None:
        return float(x)
    return mp.make_mpf(from_rational(x.numerator, x.denominator,
                                     dps_to_prec(digits), round_nearest))


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


def _certified(test, x) -> tuple:
    """(test(x), x) for the first of x, x.refine(2 prec), ... that test
    decides: test gives True or False, or None while the bounds of x (a
    MomentVector or an Enclosure) leave the verdict open.  This is the one
    place a verdict raises its precision (Ziv, ACM TOMS 17(3), 1991), and
    it refuses past MAX_PREC bits."""
    while (hit := test(x)) is None:
        if 2 * x.prec > MAX_PREC:
            raise RuntimeError(f"verdict still undecided at {x.prec} bits")
        x = x.refine(2 * x.prec)
    return hit, x


def _exact(p: MomentVector) -> tuple:
    """(A, s) with p_k = A_k / 2^(s k) exactly: the moments' numerators,
    or their float or mpf values' binary form over the least such s, at
    least 117 for float64 values so that the grid 2^-s holds FLOAT_TOL to
    84 bits."""
    if p.exact is not None:
        return p.exact
    xs = [_binary(x) for x in p.values]
    s = max([117 * (p.digits is None)] + [-(e // k) for k, (_, m, e, _)
                                          in enumerate(xs, 1) if m])
    return tuple((-m if sign else m) << e + s * k
                 for k, (sign, m, e, _) in enumerate(xs, 1)), s


def _outward(lo, hi, shift: int) -> tuple:
    """(A, R): integers with [lo, hi] 2^shift inside [A, A + R]."""
    low = to_int(mpf_shift(lo, shift), round_floor)
    return low, to_int(mpf_shift(hi, shift), round_ceiling) - low


def _grid(p: MomentVector) -> tuple:
    """(A, s, R): bounds on the grid 2^-(s k), s = prec, with p_k 2^(s k)
    in [A_k, A_k + R_k]."""
    a, r = zip(*(_outward(lo, hi, p.prec * k)
                 for k, (lo, hi) in enumerate(zip(*p.bounds), 1)))
    return a, p.prec, r


def _shifted(rows, t) -> list:
    return [[x + t[i] * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


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
        import numpy as np
        return float(np.linalg.eigvalsh(np.array(h, dtype=float))[0])
    with workdps(digits + 10):
        return mp.eigsy(mp.matrix(h), eigvals_only=True)[0]


def is_psd_exact(rows) -> bool:
    """Whether a symmetric integer matrix is PSD, exactly (_psd_nullity)."""
    return _psd_nullity(rows) is not None


def _psd_nullity(rows):
    """The nullity of a symmetric integer matrix if it is PSD, else None,
    by fraction-free (Bareiss) symmetric elimination with diagonal pivoting:
    the remaining block is the Schur complement times det M_K > 0 (K the
    pivots so far), so divisions are exact and a negative diagonal entry
    rules PSD out; with a zero diagonal, PSD means a zero block: the
    nullity."""
    m = [list(row) for row in rows]
    live, prev = list(range(len(m))), 1
    while live:
        if any(m[i][i] < 0 for i in live):
            return None
        k = next((i for i in live if m[i][i]), None)
        if k is None:
            zero = not any(m[i][j] for i in live for j in live)
            return len(live) if zero else None
        live.remove(k)
        piv, pivot_row = m[k][k], m[k]
        for x, i in enumerate(live):
            row, rik = m[i], m[i][k]
            for j in live[x:]:
                row[j] = m[j][i] = (piv * row[j] - rik * pivot_row[j]) // prev
        prev = piv
    return 0


def klm_ppt(p: MomentVector, k: int, l: int, m: int) -> Verdict:
    """Three-moment test: p_l > p_k^x p_m^(1-x) with x = (m-l)/(m-k)
    certifies a negative PT eigenvalue.  Certified, this is p_l > 0 and
    p_l^(m-k) > p_k^(m-l) p_m^(l-k) (_klm_fires)."""
    if not 1 <= k < l < m <= len(p):
        raise ValueError(f"need 1 <= k < l < m <= {len(p)}, got {(k, l, m)}")

    def margin():
        pk, pl, pm = p.p(k), p.p(l), p.p(m)
        with _arithmetic(p.digits) as one:
            x = one * (m - l) / (m - k)
            return pl - pk ** x * pm ** (1 - x)

    if p.digits is not None:
        test = functools.partial(_klm_fires, triple=(k, l, m))
        return Verdict(_certified(test, p)[0], margin)
    if p.p(k) <= 0 or p.p(m) <= 0:
        raise ValueError("fractional powers need positive p_k and p_m")
    return _positive(margin())


def _klm_fires(p: MomentVector, triple: tuple):
    """klm's decision on exact binary values: the numerators A_k (the
    powers of 2 cancel, l (m-k) = k (m-l) + m (l-k)) or the bounds.  It
    fires when p_l^(m-k) > p_k^(m-l) p_m^(l-k) at the lower bound of p_l
    and the upper ones of p_k and p_m, and not when it fails the other
    way round."""
    k, l, m = triple
    if p.bounds is None:
        ak, al, am = (_exact(p)[0][i - 1] for i in triple)
        if ak <= 0 or am <= 0:
            raise ValueError("fractional powers need positive p_k and p_m")
        return al > 0 and al ** (m - k) > ak ** (m - l) * am ** (l - k)
    lo, hi = ([x[i - 1] for i in triple] for x in p.bounds)
    if mpf_sign(hi[0]) <= 0 or mpf_sign(hi[2]) <= 0:
        raise ValueError("fractional powers need positive p_k and p_m")

    def beats(x, y):  # x_l^(m-k) > y_k^(m-l) y_m^(l-k)
        return mpf_cmp(_exact_power(x[1], m - k), mpf_mul(
            _exact_power(y[0], m - l), _exact_power(y[2], l - k))) > 0

    return True if beats(lo, hi) else None if beats(hi, lo) else False


def hankel_margin(p: MomentVector, m: int):
    """The margin of stieltjes(p, m): -lambda_min of the Hankel matrix,
    at the precision of hankel_min_eigenvalue (an mpf is negated exactly,
    not rounded to the caller's mp.prec).  Near a threshold lambda_min
    sinks exponentially in the matrix size, so exact and bounded moments
    are first taken to 6 m more digits.  It is exactly 0 where exact or
    mpf moments' integer Hankel is PSD and singular, as a PPT state's is
    past the rank bound."""
    if p.digits is not None and p.bounds is None:
        a, size = _exact(p)[0], _hankel_size(p, m)
        if _psd_nullity([a[i:i + size] for i in range(size)]):
            return mpf(0)
    if p.digits is not None and (p.exact or p.bounds) is not None:
        digits = p.digits + 6 * m
        p = (MomentVector(exact=p.exact, digits=digits) if p.bounds is None
             else MomentVector(bounds=p.refine(dps_to_prec(digits)).bounds,
                               digits=digits))
    return _negated(hankel_min_eigenvalue(build_hankel(p, m),
                                          digits=p.digits))


def stieltjes(p: MomentVector, m: int) -> Verdict:
    """Hankel positivity test: a PPT state's moment matrix H_m is PSD, so a
    negative eigenvalue certifies entanglement.  For m=3 this reduces to
    the p_2^2 > p_3 test.  Certified on exact numerators and on bounds
    (_hankel_fires); on float64 moments it fires when the Hankel plus tau
    on its diagonal is not PSD, tau = FLOAT_TOL max(1, max|H|), i.e. when
    -lambda_min > tau.  The margin -lambda_min is computed only when read.

    Past a rank bound the test is PPT itself.  With D distinct nonzero PT
    eigenvalues lambda_i of multiplicity mu_i, H_s = V^T diag(mu_i
    lambda_i) V for the D x s Vandermonde matrix V of the lambda_i, s =
    (m+1)/2.  For s >= D, V has full row rank, so H_s is PSD exactly when
    every lambda_i >= 0 (Yu, Imai and Guehne, PRL 127, 060504 (2021);
    Curto and Fialkow, Houston J. Math. 17 (1991)).  Any upper bound on D
    serves, since equal or vanishing eigenvalues only lower the count.
    The models declare one as hankel_rank_bound (thresholds), and
    thresholds.evaluate decides such an order by the model's PPT verdict,
    with this function's margin, or 0 for a PPT state once s exceeds the
    bound (H_s is then singular)."""
    _hankel_size(p, m)
    return Verdict(_certified(functools.partial(_hankel_fires, m=m), p)[0],
                   functools.partial(hankel_margin, p, m),
                   exact=p.digits is not None)


def _hankel_fires(p: MomentVector, m: int):
    """stieltjes's decision.  Exactly on the numerators A_k = p_k 2^(s k),
    plus tau 2^(s(2i+1)) on diagonal entry i for float64 moments.  On
    bounds, entry (i, j) is scaled by 2^(c_i + c_j), c_i bringing the
    diagonal to about 2^prec, and put on integers in [A, A + R]:
    every matrix within the bounds is A + E with ||E||_2 <= rho = size
    max R (Weyl), so A + rho I not PSD proves a negative eigenvalue and
    A - rho I PSD proves none; in between the bounds leave it open."""
    size = (m + 1) // 2
    if p.bounds is None:
        a, s = _exact(p)
        tau = 0 if p.digits else FLOAT_TOL * max(1, *map(abs, p.values[:m]))
        shift = [tau and _on_grid(tau, s * (2 * i + 1)) for i in range(size)]
        return not is_psd_exact(_shifted([a[i:i + size] for i in range(size)],
                                         shift))
    lo, hi = p.bounds
    c = [(p.prec - hi[2 * i][2] - hi[2 * i][3]) // 2 for i in range(size)]
    cells = [[_outward(lo[i + j], hi[i + j], c[i] + c[j]) for j in range(size)]
             for i in range(size)]
    rows = [[a for a, _ in row] for row in cells]
    rho = size * max(r for row in cells for _, r in row)
    if not is_psd_exact(_shifted(rows, [rho] * size)):
        return True
    return False if is_psd_exact(_shifted(rows, [-rho] * size)) else None


def descartes(p: MomentVector, m: int) -> Verdict:
    """Sign test on elementary symmetric polynomials of the PT spectrum.

    e_1..e_m follow from the power sums by Newton's identities
        e_j = (1/j) sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i;
    any e_j < 0 certifies a negative eigenvalue.  The integers
    F_j = j! 2^(s j) e_j follow the same recurrence over ints from
    A_k = p_k 2^(s k) (_descartes_fires): exact numerators decide by the
    sign of F_j, bounds by F_j +- E_j, and float64 moments fire when some
    F_j < -FLOAT_TOL j! 2^(s j), i.e. e_j < -FLOAT_TOL.  The margin is
    max_j -e_j from the same numerators (the bounds' lower ends), each e_j
    rounded once, read only when asked.
    """
    if not 1 <= m <= len(p):
        raise ValueError(f"need 1 <= m <= {len(p)}")

    def rounded():
        nums, s = _exact(p) if p.bounds is None else _grid(p)[:2]
        fs = _newton_numerators(nums)[1:m + 1]
        with _arithmetic(p.digits):
            return max(_round_once(Fraction(-f, math.factorial(j) << s * j),
                                   p.digits) for j, f in enumerate(fs, 1))

    return Verdict(_certified(functools.partial(_descartes_fires, m=m), p)[0],
                   rounded, exact=p.digits is not None)


def _descartes_fires(p: MomentVector, m: int):
    """Whether some e_j < 0, j <= m.  With A' within [A, A + R] of the
    bounds on the grid 2^-(s k), s = prec, |F_j(A') - F_j(A)| <= E_j =
    G_j(|A| + R) - G_j(|A|), G_j the recurrence with every sign +, whose
    monomials are those of F_j with their coefficients' absolute values:
    it fires when some F_j + E_j < 0, not when every F_j >= E_j."""
    if p.bounds is None:
        nums, s = _exact(p)
        fs = _newton_numerators(nums)[1:m + 1]
        if p.digits is not None:
            return any(f < 0 for f in fs)
        return any(f < -_on_grid(FLOAT_TOL, s * j) * math.factorial(j)
                   for j, f in enumerate(fs, 1))
    a, s, r = _grid(p)
    fs, base, wide = (_newton_numerators(*args)[1:m + 1] for args in (
        (a,), (tuple(map(abs, a)), 1),
        (tuple(abs(x) + y for x, y in zip(a, r)), 1)))
    errs = [x - y for x, y in zip(wide, base)]
    if any(f + e < 0 for f, e in zip(fs, errs)):
        return True
    return False if all(f >= e for f, e in zip(fs, errs)) else None


# A battery judges descartes at every order on one moment vector in turn,
# and F_j reads only A_1..A_j, so each reuses the first call's sequence;
# bounds add the two majorant sequences.
@functools.lru_cache(maxsize=3)
def _newton_numerators(nums: tuple, sign: int = -1) -> tuple:
    """F_0..F_len(nums) with F_j = j! 2^(s j) e_j, by Newton's
    identities over ints from p_i = A_i / 2^(s i); sign=1 adds every
    term."""
    fs = [1]
    for j in range(1, len(nums) + 1):
        acc, c = 0, 1  # c = sign^(i-1) (j-1)! / (j-i)!
        for i in range(1, j + 1):
            acc += c * fs[j - i] * nums[i - 1]
            c *= sign * (j - i)
        fs.append(acc)
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


def fidelity_criterion(f, bell_pairs: int) -> Verdict:
    """Overlap above 1/2 with a pure stabilizer state holding bell_pairs
    Bell pairs across the cut; a separable state's overlap is at most
    2^-bell_pairs, so with none the bound is 1 and the criterion certifies
    nothing.  f is a Fraction, an mpf or an Enclosure, decided exactly
    (_positive), or a float, judged as float64."""
    if not isinstance(f, Enclosure) and not 0 <= f <= 1:
        raise ValueError("fidelity must lie in [0, 1]")
    return _positive(_difference(f, Fraction(1, 2 if bell_pairs else 1)))


def purity_criterion(global_purity, subsystem_purity) -> Verdict:
    """Global purity exceeding a marginal's purity rules out separability;
    input as for fidelity_criterion.  An mpf margin is the exact
    difference of two mpf purities."""
    if not isinstance(global_purity, Enclosure) and not (
            0 < global_purity <= 1 and 0 < subsystem_purity <= 1):
        raise ValueError("purities must lie in (0, 1]")
    return _positive(_difference(global_purity, subsystem_purity))


def ppt_verdict(low) -> Verdict:
    """The PPT criterion on the least PT eigenvalue low: the margin is
    -low, decided by _positive."""
    return _positive(_negated(low))


def _positive(gap) -> Verdict:
    """The one decision on a scalar gap (positive = detected).  A Fraction
    or an mpf is an exact binary number, decided as gap > 0; an Enclosure
    once its bounds agree (_certified); a float must exceed FLOAT_TOL.  An
    mpf or float gap is its own margin; else the margin is the exact gap,
    or the enclosure's midpoint, rounded once to DEFAULT_DIGITS, when
    read."""
    if isinstance(gap, Enclosure):
        hit, gap = _certified(lambda x: mpf_sign(x.lo) > 0 or (
            None if mpf_sign(x.hi) > 0 else False), gap)
        margin = functools.partial(_midpoint, gap.lo, gap.hi, DEFAULT_DIGITS)
    elif isinstance(gap, Fraction):
        hit = gap > 0
        margin = functools.partial(_round_once, gap, DEFAULT_DIGITS)
    else:
        hit = gap > (FLOAT_TOL if isinstance(gap, float) else 0)
        margin = lambda: gap  # noqa: E731
    return Verdict(hit, margin, exact=not isinstance(gap, float))
