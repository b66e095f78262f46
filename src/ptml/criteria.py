"""Entanglement criteria as pure verdict functions on moment data.

Every criterion here is a relaxation of the PPT test: it may only fire on
NPT states.  Verdicts carry a signed margin (positive = detected) and fire
when the margin exceeds a decision tolerance.

Criteria accept float64 moments or extended-precision (mpmath) moments from
module spectra, and each is written once over the scalar type: arithmetic
runs at the input's precision, and Hankel eigenvalues come from
np.linalg.eigvalsh for float input and mp.eigsy for mpf input.  The default
decision tolerance is 1e-10 for float input.  For d-digit input it is
10^-(d-10): near a threshold the decisive quantities (e.g. the smallest
Hankel eigenvalue) can sit twelve or more orders below the moment scale, so
a fixed 1e-10 cutoff would blind the high-precision path exactly where it
is needed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workdps

from .spectra import MomentVector, Spectrum, merge_spectrum

FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class Verdict:
    entangled: bool
    margin: object  # float or mpf; positive = past the decision boundary
    witness: dict = None

    @property
    def status(self) -> str:
        return "Entangled" if self.entangled else "Inconclusive"


@dataclass(frozen=True)
class HankelMatrix:
    """[H]_{i,j} = p_{i+j-1} (1-based), square of size (m+1)/2, odd m."""

    m: int
    entries: tuple


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


def _log2(v):
    return mp.log(v, 2) if isinstance(v, mpf) else math.log2(v)


def build_hankel(p: MomentVector, m: int) -> HankelMatrix:
    if m % 2 == 0:
        raise ValueError("Hankel moment matrix requires odd m")
    if m > len(p):
        raise ValueError(f"need moments up to p_{m}, got {len(p)}")
    size = (m + 1) // 2
    rows = tuple(tuple(p.p(i + j + 1) for j in range(size)) for i in range(size))
    return HankelMatrix(m, rows)


def hankel_min_eigenvalue(h: HankelMatrix, digits=None):
    """Smallest eigenvalue of the Hankel matrix, at the input's precision:
    np.linalg.eigvalsh for float input, mp.eigsy at digits + 10 for mpf."""
    if digits is None:
        return float(np.linalg.eigvalsh(np.array(h.entries, dtype=float))[0])
    with workdps(digits + 10):
        return mp.eigsy(mp.matrix(h.entries), eigvals_only=True)[0]


def klm_ppt(p: MomentVector, k: int, l: int, m: int, tol=None) -> Verdict:
    """Three-moment test: p_l > p_k^x p_m^(1-x) with x = (m-l)/(m-k)
    certifies a negative PT eigenvalue."""
    if not 1 <= k < l < m <= len(p):
        raise ValueError(f"need 1 <= k < l < m <= {len(p)}, got {(k, l, m)}")
    pk, pl, pm = p.p(k), p.p(l), p.p(m)
    if pk <= 0 or pm <= 0:
        raise ValueError("fractional powers need positive p_k and p_m")
    if tol is None:
        tol = default_tol(p.digits)
    with _arithmetic(p.digits) as one:
        x = one * (m - l) / (m - k)
        margin = pl - pk ** x * pm ** (1 - x)
    return Verdict(margin > tol, margin,
                   witness={"triple": (k, l, m), "x": x})


def stieltjes(p: MomentVector, m: int, tol=None) -> Verdict:
    """Hankel positivity test: a PPT state's moment matrix H_m is PSD, so a
    negative eigenvalue certifies entanglement.  For m=3 this reduces to
    the p_2^2 > p_3 test."""
    h = build_hankel(p, m)
    if tol is None:
        tol = default_tol(p.digits)
    min_eig = hankel_min_eigenvalue(h, digits=p.digits)
    norm = max(max(abs(x) for x in row) for row in h.entries)
    threshold = tol * max(1, norm)
    margin = -min_eig
    return Verdict(min_eig < -threshold, margin,
                   witness={"m": m, "min_eigenvalue": min_eig})


def descartes(p: MomentVector, m: int, tol=None) -> Verdict:
    """Sign test on elementary symmetric polynomials of the PT spectrum.

    e_1..e_m follow from the power sums by Newton's identities
        e_j = (1/j) sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i;
    any e_j < 0 certifies a negative eigenvalue.
    """
    if not 1 <= m <= len(p):
        raise ValueError(f"need 1 <= m <= {len(p)}")
    if tol is None:
        tol = default_tol(p.digits)
    es = newton_elementary(p, m)
    margin = max(-e for e in es[1:])
    worst = min(range(1, m + 1), key=lambda j: es[j])
    return Verdict(margin > tol, margin,
                   witness={"elementary": tuple(es[1:]), "worst_j": worst})


def newton_elementary(p: MomentVector, m: int) -> list:
    """e_0..e_m from power sums p_1..p_m, at the input's precision."""
    with _arithmetic(p.digits) as one:
        es = [one]
        for j in range(1, m + 1):
            acc = one - one
            for i in range(1, j + 1):
                acc += (-1) ** (i - 1) * es[j - i] * p.p(i)
            es.append(acc / j)
    return es


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


def stieltjes_witness(s: Spectrum, m: int, merge_tol=1e-12) -> list:
    """Explicit vector violating Hankel positivity, from a known spectrum.

    Let lambda_1 < 0 be the most negative of the N distinct eigenvalues and
    f(x) the monic polynomial vanishing on the other N-1.  The coefficient
    vector c of f, zero-padded to length (m+1)/2, gives
        c^T H_m c = mu_1 lambda_1 f(lambda_1)^2 < 0.
    Requires odd m >= 2N - 1.
    """
    if m % 2 == 0:
        raise ValueError("Hankel moment matrix requires odd m")
    merged = merge_spectrum(s, merge_tol)
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


def fidelity_criterion(f, bell_pairs: int, tol=None) -> Verdict:
    """Overlap above 1/2 with a pure stabilizer state holding bell_pairs
    Bell pairs across the cut; a separable state's overlap is at most
    2^-bell_pairs, so with none the criterion certifies nothing."""
    if not 0 <= f <= 1:
        raise ValueError("fidelity must lie in [0, 1]")
    if tol is None:
        tol = FLOAT_TOL if isinstance(f, float) else default_tol(mp.dps)
    margin = f - 0.5
    return Verdict(bell_pairs >= 1 and margin > tol, margin)


def purity_criterion(global_purity, subsystem_purity, tol=None) -> Verdict:
    """Global purity exceeding a marginal's purity rules out separability."""
    if not (0 < global_purity <= 1 and 0 < subsystem_purity <= 1):
        raise ValueError("purities must lie in (0, 1]")
    if tol is None:
        tol = (FLOAT_TOL if isinstance(global_purity, float)
               else default_tol(mp.dps))
    margin = global_purity - subsystem_purity
    return Verdict(margin > tol, margin)


def ppt_verdict(s: Spectrum, tol=None) -> Verdict:
    """The PPT criterion itself: a negative PT eigenvalue."""
    if tol is None:
        tol = default_tol(s.digits)
    min_eig = s.min_eigenvalue()
    return Verdict(min_eig < -tol, -min_eig,
                   witness={"min_eigenvalue": min_eig})
