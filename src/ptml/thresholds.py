"""Noise thresholds: the largest depolarizing rate a criterion detects.

epsilon_max scans a criterion's verdict over eps in [0, 1] and bisects the
final Entangled -> Inconclusive crossing down to a requested bracket width.
"Final" matters: some moment criteria (notably (m-2, m-1, m)-PPT on uneven
cuts) switch off and back on before dying out, and the quantity of interest
is the largest eps at which the criterion still fires.  A pre-scan that
flips more than once is flagged; strict mode refuses it instead so the
caller can inspect the grid by hand.

Four state models share one protocol (describe, moments, ppt, fidelity,
purities, and bell_pairs, the Bell pairs the pure state holds across the
cut), and make_model is the one dispatch from (state, noise, cut) to model:

  GHZModel          local noise, GHZ on the balanced cut (even n): PT
                    moments and the PPT verdict in closed form, at a cost
                    independent of n, in extended precision.
  StabilizerModel   local noise, any stabilizer state and cut: moments from
                    exact character-transformed weight enumerators, PPT
                    from a DenseModel built on first use.
  GlobalNoiseModel  global noise: a three-level PT spectrum fixed by n, eps
                    and the Bell pair count, so everything is a closed form
                    at any n.
  DenseModel        either noise, everything from the density matrix
                    (model "dense").  The slow reference.

sweep_fig1 and sweep_fig2 drive epsilon_max over the standard criterion
batteries (GHZ family vs n; AME(6,2) per cut vs moment order) and return
rows ready for CSV serialization.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from mpmath import mpf, workdps

from . import criteria
from .dense import (
    _partial_trace_keep,
    depolarize_global,
    depolarize_local,
    fidelity_pure,
    hermitian_eigenvalues,
    nqubits,
    partial_transpose,
    pt_moments,
    state_from_group,
)
from .enumerators import (
    _one_like,
    cw_fourier,
    character_polys,
    fidelity_from_enumerators,
    ghz_sl_vector,
    noisy_pt_moment,
    noisy_purity,
    rains_subsystem_purity,
    sl_enumerators,
    stab_subsystem_purity,
)
from .pauli import Bipartition, StabilizerGroup, bell_pair_rank, state_catalog
from .spectra import (
    DEFAULT_DIGITS,
    MomentVector,
    Spectrum,
    ghz_local_moments,
    moments_from_spectrum,
    stab_global_spectrum,
)

BRACKET_TOL = 1e-9
GRID_POINTS = 64


def _order_digits(m_max: int) -> int:
    """Working precision for moment criteria of order m_max.

    Near a threshold the smallest Hankel eigenvalue scales like
    lambda_min * prod_i (lambda_min - lambda_i)^2, which sinks exponentially
    in the matrix size; a precision (and with it a decision tolerance,
    10^-(digits-10)) that grows linearly in the order keeps the decisive
    sign above the noise floor.
    """
    return DEFAULT_DIGITS + 6 * m_max

# Criterion battery for the GHZ-family sweep.  The klm triples are exposed
# here so callers can trim or extend the set without touching the sweep.
FIG1_KLM_TRIPLES = ((1, 2, 3), (3, 4, 5), (5, 6, 7), (3, 6, 7))
FIG1_ORDERS = (3, 5, 7)


@dataclass(frozen=True)
class CriterionSpec:
    """A named criterion plus its order parameters.

    kind is one of ppt, stieltjes, descartes, klm, fidelity, purity.
    stieltjes/descartes take m; klm takes (k, l, m).
    """

    kind: str
    m: int = None
    triple: tuple = None

    def __post_init__(self):
        if self.kind in ("stieltjes", "descartes"):
            if self.m is None or self.m < 1:
                raise ValueError(f"{self.kind} needs a moment order m >= 1")
            if self.kind == "stieltjes" and self.m % 2 == 0:
                raise ValueError("stieltjes needs odd m")
        elif self.kind == "klm":
            t = self.triple
            if t is None or len(t) != 3 or not t[0] < t[1] < t[2]:
                raise ValueError("klm needs a triple k < l < m")
        elif self.kind not in ("ppt", "fidelity", "purity"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")

    @property
    def max_order(self) -> int:
        """Highest PT moment the verdict consumes (0 = none)."""
        if self.kind in ("stieltjes", "descartes"):
            return self.m
        if self.kind == "klm":
            return self.triple[2]
        return 0

    @property
    def label(self) -> str:
        if self.kind in ("stieltjes", "descartes"):
            return f"{self.kind}:{self.m}"
        if self.kind == "klm":
            return "klm:{},{},{}".format(*self.triple)
        return self.kind

    def sort_key(self) -> tuple:
        return (self.kind, self.m or 0, self.triple or ())

    @staticmethod
    def parse(text: str) -> "CriterionSpec":
        name, _, arg = text.strip().partition(":")
        name = name.strip().lower()
        if name == "p3ppt":
            return CriterionSpec("klm", triple=(1, 2, 3))
        if name in ("ppt", "fidelity", "purity"):
            if arg:
                raise ValueError(f"{name} takes no parameters")
            return CriterionSpec(name)
        if name in ("stieltjes", "descartes"):
            return CriterionSpec(name, m=int(arg))
        if name == "klm":
            parts = tuple(int(t) for t in arg.split(","))
            return CriterionSpec(name, triple=parts)
        raise ValueError(f"unknown criterion {text!r}")


class GHZModel:
    """Locally depolarized GHZ state across the balanced cut, closed form."""

    bell_pairs = 1

    def __init__(self, n: int, digits: int = None):
        if n % 2 or n < 2:
            raise ValueError("GHZ model needs even n >= 2")
        self.n = n
        self.digits = DEFAULT_DIGITS if digits is None else digits

    @functools.cached_property
    def sl(self):
        # n + 1 exact binomial fractions: only fidelity and purities read it
        return ghz_sl_vector(self.n)

    def describe(self) -> str:
        return f"ghz n={self.n} cut=balanced"

    def moments(self, eps, m_max: int) -> MomentVector:
        return ghz_local_moments(self.n, eps, m_max,
                                 max(self.digits, _order_digits(m_max)))

    def ppt(self, eps) -> criteria.Verdict:
        # Every other PT eigenvalue is a sum of nonnegative terms, so the
        # verdict rests on the isolated pair c +- g.  Near the threshold at
        # large n, c - g sits far below any absolute tolerance (about
        # 1e-63 at n = 200), so the decision is relative to c.
        if not 0 <= float(eps) <= 1:
            raise ValueError("eps must lie in [0, 1]")
        with workdps(self.digits):
            e = mpf(eps)
            c = ((1 - e / 2) * e / 2) ** (self.n // 2)
            g = (1 - e) ** self.n / 2
            return criteria.Verdict(
                g - c > criteria.default_tol(self.digits) * c, g - c,
                witness={"min_eigenvalue": c - g})

    def fidelity(self, eps):
        return fidelity_from_enumerators(self.sl, eps)

    def purities(self, eps):
        # Purity comparison against the Rains-averaged marginal of the
        # balanced cut, the size-resolved enumerator at s = n/2.
        return noisy_purity(self.sl, eps), rains_subsystem_purity(self.sl, eps)


class StabilizerModel:
    """Locally depolarized stabilizer state, one fixed bipartition.

    Moments come from the character-transformed weight enumerators and are
    exact polynomials in (1-eps); float eps gives float moments, mpf eps
    gives extended precision.  The PPT verdict is the dense model's, so it
    is limited to small n; the dense state is built on the first PPT call.
    """

    def __init__(self, g: StabilizerGroup, bip: Bipartition, name: str = None,
                 digits: int = None):
        self.g = g
        self.bip = bip
        self.name = name or "stabilizer"
        self.digits = DEFAULT_DIGITS if digits is None else digits
        self.bell_pairs = bell_pair_rank(g, bip)
        self.sl = sl_enumerators(g)
        self._chars = character_polys(g, bip)
        self._tables = {}
        self._dense = None

    def describe(self) -> str:
        a = ",".join(str(q) for q in sorted(self.bip.a_set))
        return f"{self.name} n={self.g.n} cut={a}"

    def _table(self, k: int):
        if k not in self._tables:
            self._tables[k] = cw_fourier(self.g, self.bip, k,
                                         chars=self._chars)
        return self._tables[k]

    def moments(self, eps, m_max: int) -> MomentVector:
        # Exact integer tables evaluated at extended precision: float
        # tolerances would blind the larger Hankel tests right below the
        # PPT threshold, where their margins sit many orders beneath 1e-10.
        digits = max(self.digits, _order_digits(m_max))
        with workdps(digits):
            e = mpf(eps)
            vals = tuple(noisy_pt_moment(self._table(k), e)
                         for k in range(1, m_max + 1))
        return MomentVector(vals, digits=digits)

    def ppt(self, eps) -> criteria.Verdict:
        if self._dense is None:
            self._dense = DenseModel(state_from_group(self.g), self.bip,
                                     group=self.g, name=self.name)
        return self._dense.ppt(eps)

    def fidelity(self, eps):
        return fidelity_from_enumerators(self.sl, eps)

    def purities(self, eps):
        # Size-resolved comparison: the purity of this very marginal.
        return (noisy_purity(self.sl, eps),
                stab_subsystem_purity(self.g, self.bip, eps))


class GlobalNoiseModel:
    """Globally depolarized stabilizer state (1-eps) psi + eps 1/2^n, one
    fixed bipartition, in closed form at any n.

    With r Bell pairs across the cut the PT spectrum has three levels
    (spectra.stab_global_spectrum), and the marginal on A is (1-eps) times
    a maximally mixed state of rank 2^r plus eps 1/2^|A|.
    """

    def __init__(self, g: StabilizerGroup, bip: Bipartition, name: str = None,
                 digits: int = None):
        self.n = g.n
        self.bip = bip
        self.name = name or "stabilizer"
        self.digits = DEFAULT_DIGITS if digits is None else digits
        self.bell_pairs = bell_pair_rank(g, bip)

    def describe(self) -> str:
        a = ",".join(str(q) for q in sorted(self.bip.a_set))
        return f"{self.name} n={self.n} cut={a} noise=global"

    def moments(self, eps, m_max: int) -> MomentVector:
        digits = max(self.digits, _order_digits(m_max))
        return moments_from_spectrum(stab_global_spectrum(
            self.n, self.bell_pairs, eps, digits), m_max)

    def ppt(self, eps) -> criteria.Verdict:
        return criteria.ppt_verdict(stab_global_spectrum(
            self.n, self.bell_pairs, eps, self.digits))

    def fidelity(self, eps):
        one = _one_like(eps)
        return (one - eps) + eps * (one / 2) ** self.n

    def purities(self, eps):
        one = _one_like(eps)
        q = (one - eps) ** 2
        mixed = eps * (2 * one - eps)
        half = one / 2
        return (q + mixed * half ** self.n,
                q * half ** self.bell_pairs
                + mixed * half ** len(self.bip.a_set))


class DenseModel:
    """Reference model: everything computed from the density matrix, under
    local or global depolarizing noise."""

    def __init__(self, rho: np.ndarray, bip: Bipartition,
                 group: StabilizerGroup = None, name: str = None,
                 noise: str = "local"):
        self.rho = rho
        self.bip = bip
        self.group = group
        self.name = name or "dense"
        self.n = nqubits(rho)
        self.bell_pairs = None if group is None else bell_pair_rank(group, bip)
        self._channel = {"local": depolarize_local,
                         "global": depolarize_global}[noise]

    def describe(self) -> str:
        a = ",".join(str(q) for q in sorted(self.bip.a_set))
        return f"{self.name} n={self.n} cut={a}"

    def _noisy(self, eps) -> np.ndarray:
        return self._channel(self.rho, float(eps))

    def moments(self, eps, m_max: int) -> MomentVector:
        return pt_moments(self._noisy(eps), self.bip, m_max)

    def ppt(self, eps) -> criteria.Verdict:
        eigs = hermitian_eigenvalues(partial_transpose(self._noisy(eps),
                                                       self.bip))
        spec = Spectrum(tuple((float(x), 1) for x in eigs), digits=None)
        return criteria.ppt_verdict(spec)

    def fidelity(self, eps):
        if self.group is None:
            raise ValueError("fidelity needs the target stabilizer group")
        return fidelity_pure(self._noisy(eps), self.group)

    def purities(self, eps):
        noisy = self._noisy(eps)
        marg = _partial_trace_keep(noisy, self.bip.a_mask, self.n)
        glob = float(np.trace(noisy @ noisy).real)
        sub = float(np.trace(marg @ marg).real)
        return glob, sub


def make_model(name: str, n: int, bip: Bipartition = None, model: str = None,
               noise: str = "local", digits: int = None):
    """Build the state model for a catalog state, cut and noise channel.

    model None picks the fastest sound route: under local noise the
    closed-form moments for GHZ across the balanced cut and enumerator
    tables for everything else, under global noise the closed forms of
    GlobalNoiseModel.  model="dense" forces the density-matrix reference.
    digits sets the base working precision of the analytic models.
    """
    name = name.lower()
    if noise not in ("local", "global"):
        raise ValueError(f"unknown noise {noise!r}; use local or global")
    if bip is None:
        if n % 2:
            raise ValueError("default bipartition needs even n")
        bip = Bipartition(n, frozenset(range(1, n // 2 + 1)))
    if noise == "global" and model == "enumerator":
        raise ValueError("the enumerator tables model local noise only")
    if noise == "local" and model in (None, "analytic_spectrum"):
        if name == "ghz" and 2 * len(bip.a_set) == n:
            return GHZModel(n, digits=digits)
        if model == "analytic_spectrum":
            raise ValueError(
                "the analytic spectrum covers ghz on balanced cuts")
    g = state_catalog(name, n)
    if model == "dense":
        return DenseModel(state_from_group(g), bip, group=g, name=name,
                          noise=noise)
    if noise == "global":
        return GlobalNoiseModel(g, bip, name=name, digits=digits)
    return StabilizerModel(g, bip, name=name, digits=digits)


def evaluate(spec: CriterionSpec, model, eps) -> criteria.Verdict:
    """One criterion verdict at one noise rate."""
    if spec.kind == "ppt":
        return model.ppt(eps)
    if spec.kind == "fidelity":
        return criteria.fidelity_criterion(model.fidelity(eps),
                                           model.bell_pairs)
    if spec.kind == "purity":
        return criteria.purity_criterion(*model.purities(eps))
    p = model.moments(eps, spec.max_order)
    if spec.kind == "stieltjes":
        return criteria.stieltjes(p, spec.m)
    if spec.kind == "descartes":
        return criteria.descartes(p, spec.m)
    return criteria.klm_ppt(p, *spec.triple)


@dataclass(frozen=True)
class ThresholdResult:
    """Largest detected noise rate, with the bracket that certifies it.

    The invariant: the criterion fires at eps_max - bracket and does not
    fire at eps_max + bracket.  never_fired means the pre-scan saw no
    detection anywhere (eps_max = 0 then).  non_monotone means the verdict
    flipped more than once on the pre-scan grid and the reported value is
    the final downward crossing.
    """

    eps_max: float
    bracket: float
    iterations: int
    criterion: str
    state: str
    never_fired: bool = False
    non_monotone: bool = False

    @property
    def flags(self) -> str:
        parts = [name for name, on in (("never_fired", self.never_fired),
                                       ("non_monotone", self.non_monotone))
                 if on]
        return ",".join(parts)


def epsilon_max(spec: CriterionSpec, model, tol: float = BRACKET_TOL,
                grid_points: int = GRID_POINTS,
                strict: bool = False) -> ThresholdResult:
    """Bisect the last eps where the criterion still fires.

    A coarse grid over [0, 1] locates every verdict flip; bisection then
    tightens the final True -> False crossing until its bracket is below
    tol.  With strict=True a grid whose verdict flips more than once is an
    error (the grid is embedded in the message for inspection) instead of
    being resolved by the final-crossing rule.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if grid_points < 4:
        raise ValueError("need at least 4 grid points")

    def fires(eps: float) -> bool:
        return evaluate(spec, model, eps).entangled

    grid = [i / (grid_points - 1) for i in range(grid_points)]
    hits = [fires(e) for e in grid]
    label, state = spec.label, model.describe()

    if not any(hits):
        return ThresholdResult(0.0, 0.0, 0, label, state, never_fired=True)

    flips = sum(1 for a, b in zip(hits, hits[1:]) if a != b)
    non_monotone = flips > 1
    if non_monotone and strict:
        table = ", ".join(f"{e:.4f}:{int(h)}" for e, h in zip(grid, hits))
        raise ValueError(
            f"{label} verdict flips {flips} times on the pre-scan grid; "
            f"rerun on a manual grid to resolve it [{table}]")

    if hits[-1]:
        # Fires at eps = 1 (the fully depolarized product state); no sound
        # criterion should reach here, so refuse to guess a threshold.
        raise ValueError(f"{label} still fires at eps = 1 for {state}")

    last = max(i for i, h in enumerate(hits) if h)
    lo, hi = grid[last], grid[last + 1]
    iterations = 0
    while hi - lo > 2 * tol:
        mid = (lo + hi) / 2
        if fires(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return ThresholdResult((lo + hi) / 2, (hi - lo) / 2, iterations,
                           label, state, non_monotone=non_monotone)


def fig1_criteria(orders=FIG1_ORDERS, triples=FIG1_KLM_TRIPLES) -> tuple:
    specs = [CriterionSpec("ppt"), CriterionSpec("fidelity"),
             CriterionSpec("purity")]
    specs += [CriterionSpec("descartes", m=m) for m in orders]
    specs += [CriterionSpec("stieltjes", m=m) for m in orders]
    specs += [CriterionSpec("klm", triple=t) for t in triples]
    return tuple(specs)


def _finish_rows(rows: list, lead: str, tol: float) -> list:
    """Dominance-checked rows in canonical order: the lead column, then
    criterion kind and order."""
    _check_dominance(rows, lead, tol)
    rows = sorted(rows, key=lambda r: (r[lead], r["_key"]))
    return [{k: v for k, v in r.items() if k != "_key"} for r in rows]


def _check_dominance(rows: list, group: str, tol: float):
    """Hankel positivity implies every 2x2 minor, so stieltjes(m) must
    detect at least as far as any klm triple of max order m.  The
    stieltjes >= descartes ordering at equal m is only an empirical
    observation, so a violation is reported, not raised.
    """
    slack = 10 * tol
    best = {}
    for r in rows:
        spec = CriterionSpec.parse(r["criterion"])
        best[(r[group], spec.kind, spec.max_order)] = r["eps_max"]
    for (g, kind, m), eps in best.items():
        st = best.get((g, "stieltjes", m))
        if st is None:
            continue
        if kind == "klm" and not st >= eps - slack:
            raise RuntimeError(
                f"stieltjes:{m} threshold {st} fell below the klm threshold "
                f"{eps} at {g}; the Hankel minor argument forbids this")
        if kind == "descartes" and eps > st + slack:
            warnings.warn(
                f"descartes:{m} threshold {eps} exceeds stieltjes:{m} "
                f"at {g}; the usual empirical ordering is reversed")


def sweep_fig1(n_list, criteria=None, tol: float = BRACKET_TOL) -> list:
    """Threshold vs qubit number for the depolarized GHZ family.

    Returns rows {n, criterion, eps_max, bracket, flags} in canonical
    order (n, then criterion kind and order).
    """
    if criteria is None:
        criteria = fig1_criteria()
    rows = []
    for n in sorted(set(n_list)):
        model = GHZModel(n)
        for spec in criteria:
            r = epsilon_max(spec, model, tol=tol)
            rows.append({"n": n, "criterion": r.criterion,
                         "eps_max": r.eps_max, "bracket": r.bracket,
                         "flags": r.flags, "_key": spec.sort_key()})
    return _finish_rows(rows, "n", tol)


def sweep_fig2(m_range=None, cut_sizes=(1, 2, 3), name: str = "ame6",
               n: int = 6, tol: float = BRACKET_TOL) -> list:
    """Threshold vs moment order for one stabilizer state, per cut size.

    For each cut |A| = s the battery is stieltjes(m), descartes(m) and
    (m-2, m-1, m)-PPT over m_range, plus the order-independent
    ppt / fidelity / purity rows (m left empty).  Purity compares against
    the marginal of that very cut.  Stieltjes and the triples are emitted
    for odd m only: the Hankel test needs an odd top moment, and a triple
    with even endpoints can never fire (Cauchy-Schwarz bounds the odd
    middle moment by its even neighbours on any real spectrum).
    Descartes runs at every order.
    """
    if m_range is None:
        m_range = range(3, 31)
    m_list = sorted(set(m_range))
    if m_list and not 3 <= m_list[0] <= m_list[-1] <= 30:
        raise ValueError("moment orders must lie in 3..30")
    rows = []
    for s in cut_sizes:
        bip = Bipartition(n, frozenset(range(1, s + 1)))
        model = make_model(name, n, bip)
        cut = f"{s}|{n - s}"
        specs = [CriterionSpec("ppt"), CriterionSpec("fidelity"),
                 CriterionSpec("purity")]
        for m in m_list:
            if m % 2:
                specs.append(CriterionSpec("stieltjes", m=m))
                specs.append(CriterionSpec("klm", triple=(m - 2, m - 1, m)))
            specs.append(CriterionSpec("descartes", m=m))
        for spec in specs:
            r = epsilon_max(spec, model, tol=tol)
            rows.append({"cut": cut, "criterion": r.criterion,
                         "m": spec.max_order or "",
                         "eps_max": r.eps_max, "bracket": r.bracket,
                         "flags": r.flags, "_key": spec.sort_key()})
    return _finish_rows(rows, "cut", tol)
