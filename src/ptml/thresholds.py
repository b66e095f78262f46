"""Noise thresholds: the largest depolarizing rate a criterion detects.

epsilon_max_battery scans a battery of criteria on one model over a grid of
eps in [0, 1], and bisects each criterion's final Entangled -> Inconclusive
crossing down to a requested bracket width.  At each grid point the model's
moments are computed once, up to the highest order a criterion of the
battery reads, and every criterion is judged on that one vector; bisection
evaluates each criterion on its own.  epsilon_max is the battery of one
criterion.  "Final" matters: some moment criteria (notably (m-2, m-1,
m)-PPT on uneven cuts) switch off and back on before dying out, and the
quantity of interest is the largest eps at which the criterion still
fires.  A pre-scan that flips more than once is flagged; strict mode
refuses it instead so the caller can inspect the grid by hand.

Every eps a threshold evaluates is a short dyadic rational.  The
GRID_POINTS = 65 grid nodes are i/64, and the midpoint of two dyadic floats
is exact with one more fraction bit, so 1 - eps = a / 2^f with f <= 6 on the
grid and f <= 6 + 23 after the 23 halvings of a 1e-9 bracket, where a
float eps off that grid carries f of about 53.  The exact models' verdicts
(moment Horner steps, integer Hankel elimination, Newton numerators, klm
powers) work on integers whose length grows with f, so the dyadic nodes
keep them short.  Any grid_points still gives a certified result, at the
cost of longer numerators when grid_points - 1 is not a power of two.

Four state models share one protocol (describe, moments, ppt, fidelity,
purities, bell_pairs, the Bell pairs the pure state holds across the cut,
and hankel_rank_bound, see below), and make_model is the one dispatch from
(state, noise, cut) to model:

  GHZModel          local noise, GHZ on any cut and any n: PT moments
                    and the PPT verdict in closed form, at a cost
                    independent of n, in extended precision.
  StabilizerModel   local noise, any stabilizer state and cut (model
                    "enumerator" for GHZ, as its oracle): exact moments,
                    Schatten sums and verdicts for every criterion, from
                    the minus-set character polynomials in 1 - eps.
  GlobalNoiseModel  global noise: the stabilizer model with one-step
                    weights [S != I], whose polynomials are three linear
                    levels fixed by n and the Bell pair count, exact at
                    any n.
  DenseModel        either noise, everything from the density matrix
                    (model "dense").  The slow reference.

hankel_rank_bound is an upper bound D on the number of distinct nonzero PT
eigenvalue functions of eps, or None.  With D such eigenvalues the order-m
Hankel matrix, of size s = (m+1)/2, is V^T diag(mu_i lambda_i) V for a
D x s Vandermonde matrix V of full row rank once s >= D, so stieltjes:m
with (m+1)/2 >= D fires exactly when PPT does (criteria.stieltjes).  There
evaluate takes the model's exact PPT verdict, with the Hankel margin
computed only when read, and the battery reads no moments for it:

  StabilizerModel   D = the number of minus-set character polynomials
                    (4, 5 and 4 on the AME(6,2) cuts 1|5, 2|4 and 3|3).
  GlobalNoiseModel  D = the levels of nonzero multiplicity, 3 (2 when r = 0
                    or 2r = n): stieltjes:5 is PPT for every globally
                    depolarized stabilizer state, at any n and on any cut,
                    the paper's claim that p_1..p_5 suffice.
  GHZModel          None: its PPT verdict and Cholesky test carry
                    different tolerances.
  DenseModel        None: the oracle takes no shortcut.

sweep_fig1 and sweep_fig2 run the standard criterion batteries
(fig1_criteria on the GHZ family vs n; fig2_criteria on AME(6,2) per cut
vs moment order), one epsilon_max_battery per model, and return rows ready
for CSV serialization.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workdps
from mpmath.libmp import dps_to_prec

from . import criteria
from .dense import (
    _partial_trace_keep,
    depolarize_global,
    depolarize_local,
    fidelity_pure,
    nqubits,
    pt_moments,
    pt_spectrum,
    state_from_group,
)
from .enumerators import (
    _mirror_pairs,
    _power_sum,
    character_polys,
    dyadic_numerator,
    dyadic_one_minus,
    exact_decayed,
    marginal_enumerators,
    one_step_enumerators,
    sl_enumerators,
)
from .pauli import Bipartition, StabilizerGroup, bell_pair_rank, state_catalog
from .spectra import (
    DEFAULT_DIGITS,
    MomentVector,
    ghz_local_moments,
    ghz_pair,
    power_sums,
    round_dyadic,
)

BRACKET_TOL = 1e-9
GRID_POINTS = 65


def _order_digits(m_max: int) -> int:
    """Working precision for moment criteria of order m_max.

    Near a threshold the smallest Hankel eigenvalue scales like
    lambda_min * prod_i (lambda_min - lambda_i)^2, which sinks exponentially
    in the matrix size; a precision (and with it a decision tolerance,
    10^-(digits-10)) that grows linearly in the order keeps the decisive
    sign above the noise floor.
    """
    return DEFAULT_DIGITS + 6 * m_max

# The moment orders and klm triples of the GHZ-family sweep's battery.
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


def _cut_label(bip: Bipartition) -> str:
    return ",".join(str(q) for q in sorted(bip.a_set))


def _check_cut(bip: Bipartition, n: int) -> Bipartition:
    """bip, once it is a cut of the n qubits with 1 <= |A| <= n-1."""
    if bip.n != n:
        raise ValueError(f"the cut is on {bip.n} qubits, the state on {n}")
    if not 1 <= len(bip.a_set) <= n - 1:
        raise ValueError("the cut needs 1 <= |A| <= n-1 qubits on side A")
    return bip


class GHZModel:
    """Locally depolarized GHZ state across any cut (default balanced),
    closed form."""

    bell_pairs = 1
    # its PPT verdict and Cholesky test carry different tolerances
    hankel_rank_bound = None

    def __init__(self, n: int, bip: Bipartition = None, digits: int = None):
        self.bip = _check_cut(Bipartition.balanced(n) if bip is None else bip,
                              n)
        self.a = len(self.bip.a_set)
        self.n = n
        self.digits = DEFAULT_DIGITS if digits is None else digits

    def describe(self) -> str:
        cut = "balanced" if 2 * self.a == self.n else _cut_label(self.bip)
        return f"ghz n={self.n} cut={cut}"

    def moments(self, eps, m_max: int) -> MomentVector:
        return ghz_local_moments(self.n, eps, m_max,
                                 max(self.digits, _order_digits(m_max)),
                                 a=self.a)

    def ppt(self, eps) -> criteria.Verdict:
        # Every other PT eigenvalue is a sum of nonnegative terms, so the
        # verdict rests on the isolated pair d +- g.  Near the threshold at
        # large n, d - g sits far below any absolute tolerance (about
        # 1e-63 at n = 200), so the decision is relative to d.
        with workdps(self.digits):
            d, g = ghz_pair(self.n, self.a, mpf(eps))
            return criteria.Verdict(
                g - d > criteria.default_tol(self.digits) * d, g - d,
                witness={"min_eigenvalue": d - g})

    def fidelity(self, eps):
        # sum_i a_i (1-eps)^i: even-weight Z-type binomials plus 2^(n-1)
        # X-type elements of full weight, halved so no power overflows; in
        # mpf with guard digits for the n-th powers, as purities
        n = self.n
        with workdps(self.digits + 10 + len(str(n))):
            q = 1 - mpf(eps)
            f = (((1 + q) / 2) ** n + ((1 - q) / 2) ** n + q ** n) / 2
        with workdps(self.digits):
            return +f

    def purities(self, eps):
        # Global and |A|-qubit marginal purity in closed form, r = (1-eps)^2;
        # mpf, as the former reaches 2^-n.  For 1 <= |A| <= n-1 the marginal
        # is the dephased mixture of 0..0 and 1..1.
        n, s = self.n, self.a
        with workdps(self.digits + 10 + len(str(n))):
            r = (1 - mpf(eps)) ** 2
            pair = (mp.ldexp((1 + r) ** n + (1 - r) ** n + (2 * r) ** n, -n - 1),
                    mp.ldexp((1 + r) ** s + (1 - r) ** s, -s - 1))
        with workdps(self.digits):
            return tuple(+v for v in pair)


class StabilizerModel:
    """Depolarized stabilizer state, one fixed bipartition, exact at a
    binary eps.

    Depolarizing noise damps each group element S by (1-eps)^wt(S); under
    local noise wt is the Pauli weight.  The model's data: the PT spectrum
    P_i(1-eps) / 2^n with multiplicity mu_i over polys ((coeffs, mu), ...),
    here the minus-set character polynomials, and the Shor-Laflamme
    enumerators sl of the state and _marginal of its reduction to A, here
    group elements counted by weight.  From them: PPT is the sign of
    min_i P_i(1-eps); the moments p_k = sum_i mu_i P_i(1-eps)^k / 2^(nk)
    come from the power-sum polynomials by Horner's rule, as integer
    numerators, so every criterion decides exactly; hankel_rank_bound =
    len(polys); fidelity and the purities are sum_w a_w (1-eps)^w and
    sum_w a_w (1-eps)^(2w), exact Fractions.  GlobalNoiseModel changes
    only the data.
    """

    def __init__(self, g: StabilizerGroup, bip: Bipartition, name: str = None,
                 digits: int = None):
        self.g = g
        self.bip = _check_cut(bip, g.n)
        self.name = name or "stabilizer"
        self.digits = DEFAULT_DIGITS if digits is None else digits
        self.bell_pairs = bell_pair_rank(g, bip)
        self.polys = self._polys()
        self.hankel_rank_bound = len(self.polys)
        self._degree = len(self.polys[0][0]) - 1
        self._power = functools.cache(lambda k: _power_sum(
            self.polys, k, self._degree * k + 1, self._pairs))

    def _polys(self) -> tuple:
        return character_polys(self.g, self.bip).minus_set

    @functools.cached_property
    def _pairs(self) -> tuple:  # found once, read for every k
        return _mirror_pairs(self.polys)

    @functools.cached_property
    def sl(self):
        return sl_enumerators(self.g)

    @functools.cached_property
    def _marginal(self):
        # a walk of the whole group, taken once and only if purity is asked
        return marginal_enumerators(self.g, self.bip)

    def describe(self) -> str:
        return f"{self.name} n={self.g.n} cut={_cut_label(self.bip)}"

    def _pt_spectrum(self, eps) -> tuple:
        # P_i(1-eps) / 2^n = A_i / 2^s
        a, f = dyadic_one_minus(eps)
        return (tuple((dyadic_numerator(p, a, f), mu) for p, mu in self.polys),
                f * self._degree + self.g.n)

    def moments(self, eps, m_max: int) -> MomentVector:
        a, f = dyadic_one_minus(eps)
        nums = tuple(dyadic_numerator(self._power(k), a, f)
                     for k in range(1, m_max + 1))
        return MomentVector(digits=max(self.digits, _order_digits(m_max)),
                            exact=(nums, f * self._degree + self.g.n),
                            spectrum=functools.partial(self._pt_spectrum, eps))

    def ppt(self, eps) -> criteria.Verdict:
        """The sign of the least numerator A_i of the PT spectrum decides,
        and -lambda_min is rounded when read."""
        entries, s = self._pt_spectrum(eps)
        low = min(a for a, _ in entries)

        def explain():
            min_eig = round_dyadic(low, -s, dps_to_prec(self.digits))
            return -min_eig, {"min_eigenvalue": min_eig}

        return criteria.DeferredVerdict(low < 0, explain)

    def fidelity(self, eps):
        return exact_decayed(self.sl.values, eps)

    def purities(self, eps) -> tuple:
        # Size-resolved comparison: the purity of this very marginal.
        return tuple(exact_decayed(a.values, eps, power=2)
                     for a in (self.sl, self._marginal))


class GlobalNoiseModel(StabilizerModel):
    """Globally depolarized stabilizer state (1-eps) psi + eps 1/2^n, one
    fixed bipartition, exact at any n: the stabilizer model with one-step
    weights.

    Global noise damps every Pauli but the identity by 1 - eps, so the
    weight wt(S) of StabilizerModel becomes [S != I].  With r Bell pairs
    across the cut the PT spectrum has three levels, the polynomials
    1 + (2^(n-r) - 1) z, 1 - (2^(n-r) + 1) z and 1 - z in z = 1 - eps with
    multiplicities (4^r + 2^r)/2, (4^r - 2^r)/2 and 2^n - 4^r (levels of
    multiplicity 0 dropped, so D = 2 when r = 0 or 2r = n, else 3).  The
    enumerators are (1, 2^n - 1) / 2^n for the state and, since 2^(|A|-r)
    group elements lie inside A (Fattal et al., quant-ph/0406168),
    (1, 2^(|A|-r) - 1) / 2^|A| for its marginal.
    """

    def _polys(self) -> tuple:
        n, r = self.g.n, self.bell_pairs
        levels = (((1, (1 << n - r) - 1), ((1 << 2 * r) + (1 << r)) >> 1),
                  ((1, -(1 << n - r) - 1), ((1 << 2 * r) - (1 << r)) >> 1),
                  ((1, -1), (1 << n) - (1 << 2 * r)))
        return tuple(e for e in levels if e[1])

    @functools.cached_property
    def sl(self):
        return one_step_enumerators(self.g.n, 0)

    @functools.cached_property
    def _marginal(self):
        return one_step_enumerators(len(self.bip.a_set), self.bell_pairs)

    def describe(self) -> str:
        return super().describe() + " noise=global"

    def moments(self, eps, m_max: int) -> MomentVector:
        # at most three levels: their power sums cost less than Horner
        # steps through the k-th power polynomials
        entries, s = self._pt_spectrum(eps)
        return MomentVector(digits=max(self.digits, _order_digits(m_max)),
                            exact=(power_sums(entries, m_max), s),
                            spectrum=lambda: (entries, s))


class DenseModel:
    """Reference model: everything computed from the density matrix, under
    local or global depolarizing noise."""

    digits = None  # float64 arithmetic
    hankel_rank_bound = None  # the oracle takes no shortcut

    def __init__(self, rho: np.ndarray, bip: Bipartition,
                 group: StabilizerGroup = None, name: str = None,
                 noise: str = "local"):
        self.rho = rho
        self.n = nqubits(rho)
        self.bip = _check_cut(bip, self.n)
        self.group = group
        self.name = name or "dense"
        self.bell_pairs = None if group is None else bell_pair_rank(group, bip)
        self._channel = {"local": depolarize_local,
                         "global": depolarize_global}[noise]

    def describe(self) -> str:
        return f"{self.name} n={self.n} cut={_cut_label(self.bip)}"

    def _noisy(self, eps) -> np.ndarray:
        return self._channel(self.rho, float(eps))

    def moments(self, eps, m_max: int) -> MomentVector:
        return pt_moments(self._noisy(eps), self.bip, m_max)

    def ppt(self, eps) -> criteria.Verdict:
        return criteria.ppt_verdict(pt_spectrum(self._noisy(eps), self.bip))

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

    model None picks by state and noise: under local noise the closed form
    GHZModel for GHZ on any cut and enumerator tables for everything else,
    under global noise the closed forms of GlobalNoiseModel.
    model="enumerator" forces the tables (GHZ's oracle), model="dense" the
    density-matrix reference.  digits sets the base working precision of
    the analytic models.  Every model refuses a cut that is not on n
    qubits with 1 <= |A| <= n-1.
    """
    name = name.lower()
    if noise not in ("local", "global"):
        raise ValueError(f"unknown noise {noise!r}; use local or global")
    if model not in (None, "dense", "enumerator"):
        raise ValueError(f"unknown model {model!r}; use dense or enumerator")
    if bip is None:
        bip = Bipartition.balanced(n)
    if noise == "global" and model == "enumerator":
        raise ValueError("the enumerator tables model local noise only")
    if name == "ghz" and noise == "local" and model is None:
        return GHZModel(n, bip, digits=digits)
    g = state_catalog(name, n)
    if model == "dense":
        return DenseModel(state_from_group(g), bip, group=g, name=name,
                          noise=noise)
    cls = GlobalNoiseModel if noise == "global" else StabilizerModel
    return cls(g, bip, name=name, digits=digits)


def _moment_order(spec: CriterionSpec, model) -> int:
    """Highest moment the spec's verdict on the model reads: spec.max_order,
    or 0 for stieltjes at a Hankel size of at least the model's rank bound,
    which the model's PPT verdict decides."""
    bound = model.hankel_rank_bound if spec.kind == "stieltjes" else None
    if bound is not None and (spec.m + 1) // 2 >= bound:
        return 0
    return spec.max_order


def evaluate(spec: CriterionSpec, model, eps,
             p: MomentVector = None) -> criteria.Verdict:
    """One criterion verdict at one noise rate.  p, the model's moments at
    eps up to order spec.max_order or beyond, spares a moment criterion its
    own model.moments call; the other criteria ignore it.  Stieltjes past
    the model's rank bound is the model's PPT verdict, and its Hankel
    margin takes its own moments, only when read."""
    if spec.kind == "ppt":
        return model.ppt(eps)
    if spec.kind == "stieltjes" and not _moment_order(spec, model):
        return criteria.DeferredVerdict(
            model.ppt(eps).entangled,
            lambda: criteria.hankel_margin(model.moments(eps, spec.m), spec.m))
    if spec.kind == "fidelity":
        return criteria.fidelity_criterion(
            model.fidelity(eps), model.bell_pairs, digits=model.digits)
    if spec.kind == "purity":
        return criteria.purity_criterion(*model.purities(eps),
                                         digits=model.digits)
    if p is None:
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
    """Bisect the last eps where the criterion still fires: the battery of
    one criterion, see epsilon_max_battery."""
    return epsilon_max_battery((spec,), model, tol, grid_points, strict)[0]


def epsilon_max_battery(specs, model, tol: float = BRACKET_TOL,
                        grid_points: int = GRID_POINTS,
                        strict: bool = False) -> list:
    """Thresholds of a battery of criteria on one model, one
    ThresholdResult per spec.

    A grid of grid_points nodes i / (grid_points - 1) over [0, 1]
    locates every verdict flip; the default nodes i/64 are dyadic, so every
    eps evaluated, midpoints included, has a short binary expansion and the
    exact models' integer verdicts stay cheap (module docstring).  At each
    grid point the model's moments are computed once, up to the highest
    order the battery reads (stieltjes past the model's hankel_rank_bound
    reads none), and every spec is judged on that one vector; rounded
    moments are then at the top order's precision, so a lower-order
    criterion's grid verdict is judged at that precision and its smaller
    tolerance.  Bisection then tightens each spec's final True -> False
    crossing on its own, at its own order, until its bracket is below tol.
    With strict=True a grid whose verdict flips more than once is an error
    (the grid is embedded in the message for inspection) instead of being
    resolved by the final-crossing rule.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if grid_points < 4:
        raise ValueError("need at least 4 grid points")
    specs = tuple(specs)
    grid = [i / (grid_points - 1) for i in range(grid_points)]
    top = max((_moment_order(spec, model) for spec in specs), default=0)
    hits = [[] for _ in specs]
    for eps in grid:
        p = model.moments(eps, top) if top else None
        for spec, row in zip(specs, hits):
            row.append(evaluate(spec, model, eps, p).entangled)
    return [_final_crossing(spec, model, grid, row, tol, strict)
            for spec, row in zip(specs, hits)]


def _final_crossing(spec: CriterionSpec, model, grid: list, hits: list,
                    tol: float, strict: bool) -> ThresholdResult:
    """Bisect the spec's last True -> False flip on the pre-scan grid."""
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
        if evaluate(spec, model, mid).entangled:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return ThresholdResult((lo + hi) / 2, (hi - lo) / 2, iterations,
                           label, state, non_monotone=non_monotone)


def fig1_criteria() -> tuple:
    specs = [CriterionSpec("ppt"), CriterionSpec("fidelity"),
             CriterionSpec("purity")]
    specs += [CriterionSpec("descartes", m=m) for m in FIG1_ORDERS]
    specs += [CriterionSpec("stieltjes", m=m) for m in FIG1_ORDERS]
    specs += [CriterionSpec("klm", triple=t) for t in FIG1_KLM_TRIPLES]
    return tuple(specs)


def fig2_criteria(m_list) -> tuple:
    """ppt, fidelity and purity, then stieltjes(m), descartes(m) and the
    (m-2, m-1, m)-PPT triple per moment order m in m_list.  Stieltjes and
    the triples are emitted for odd m only: the Hankel test needs an odd
    top moment, and a triple with even endpoints can never fire
    (Cauchy-Schwarz bounds the odd middle moment by its even neighbours on
    any real spectrum).  Descartes runs at every order."""
    specs = [CriterionSpec("ppt"), CriterionSpec("fidelity"),
             CriterionSpec("purity")]
    for m in m_list:
        if m % 2:
            specs.append(CriterionSpec("stieltjes", m=m))
            specs.append(CriterionSpec("klm", triple=(m - 2, m - 1, m)))
        specs.append(CriterionSpec("descartes", m=m))
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
        results = epsilon_max_battery(criteria, GHZModel(n), tol=tol)
        for spec, r in zip(criteria, results):
            rows.append({"n": n, "criterion": r.criterion,
                         "eps_max": r.eps_max, "bracket": r.bracket,
                         "flags": r.flags, "_key": spec.sort_key()})
    return _finish_rows(rows, "n", tol)


def sweep_fig2(m_range=None, cut_sizes=(1, 2, 3), name: str = "ame6",
               n: int = 6, tol: float = BRACKET_TOL) -> list:
    """Threshold vs moment order for one stabilizer state, per cut size.

    For each cut |A| = s the battery is fig2_criteria over m_range; the
    order-independent ppt / fidelity / purity rows leave m empty.  Purity
    compares against the marginal of that very cut.
    """
    if m_range is None:
        m_range = range(3, 31)
    m_list = sorted(set(m_range))
    if m_list and not 3 <= m_list[0] <= m_list[-1] <= 30:
        raise ValueError("moment orders must lie in 3..30")
    specs, rows = fig2_criteria(m_list), []
    for s in cut_sizes:
        model = make_model(name, n, Bipartition(n, frozenset(range(1, s + 1))))
        cut = f"{s}|{n - s}"
        for spec, r in zip(specs, epsilon_max_battery(specs, model, tol=tol)):
            rows.append({"cut": cut, "criterion": r.criterion,
                         "m": spec.max_order or "",
                         "eps_max": r.eps_max, "bracket": r.bracket,
                         "flags": r.flags, "_key": spec.sort_key()})
    return _finish_rows(rows, "cut", tol)
