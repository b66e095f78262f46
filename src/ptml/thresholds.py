"""Noise thresholds: the largest depolarizing rate a criterion detects.

epsilon_max_battery finds, for each criterion of a battery on one model,
its final Entangled -> Inconclusive crossing from its verdicts at the grid
nodes i/64 and a bisection down to a requested bracket width; epsilon_max
is the battery of one criterion.  "Final" matters: some moment criteria
(notably (m-2, m-1, m)-PPT on uneven cuts) switch off and back on before
dying out, and the quantity of interest is the largest eps at which the
criterion still fires.  A grid that flips more than once is flagged.

Every eps a threshold evaluates is a short dyadic rational.  The
GRID_POINTS = 65 grid nodes are i/64, and the midpoint of two dyadic floats
is exact with one more fraction bit, so 1 - eps = a / 2^f with f <= 6 on the
grid and f <= 6 + 23 after the 23 halvings of a 1e-9 bracket, where a
float eps off that grid carries f of about 53.  The exact models' verdicts
(moment Horner steps, integer Hankel elimination, Newton numerators, klm
powers) work on integers whose length grows with f, so the dyadic nodes
keep them short.

Five state models share one protocol (describe, moments, ppt, fidelity,
purities, bell_pairs, the Bell pairs the pure state holds across the cut,
hankel_rank_bound and separable_from), and make_model is the one dispatch
from (state, noise, cut) to model.  The exact stabilizer models and the
certified GHZModel declare both bounds; DenseModel, the float64 reference,
whose verdicts carry a tolerance, declares neither (None).

hankel_rank_bound is an upper bound D on the number of distinct nonzero PT
eigenvalue functions of eps, so stieltjes:m with (m+1)/2 >= D fires exactly
when PPT does (criteria.stieltjes), and evaluate takes the model's PPT
verdict.  D counts the minus-set polynomials (4, 5 and 4 on the AME(6,2)
cuts 1|5, 2|4 and 3|3; [n/2] + 3 on every GHZ cut, GHZModel's too), at
most 3 under global noise: there stieltjes:5 is PPT for every stabilizer
state, the paper's claim that p_1..p_5 suffice.

separable_from is a noise rate from which the state is separable, 2/3
under local noise (entanglement breaking, Horodecki, Shor and Ruskai, Rev.
Math. Phys. 15, 629, 2003) and 1 under global noise.  With it, and with PPT
(Horodecki et al., Rev. Mod. Phys. 81, 865, 2009) and fidelity monotone in
eps, a threshold skips the verdicts theorems decide (epsilon_max_battery).

sweep_fig1 and sweep_fig2 run the standard criterion batteries
(fig1_criteria on the GHZ family vs n; fig2_criteria on AME(6,2) per cut
vs moment order), one epsilon_max_battery per model, and return rows ready
for CSV serialization.
"""

from __future__ import annotations

import collections
import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mpf
from mpmath.libmp import (dps_to_prec, fone, mpf_add, mpf_mul, mpf_shift,
                          mpf_sub)

from . import criteria
from .enumerators import (CHARACTER_QUBIT_CAP, _power_sums, _sorted_set,
                          character_polys, dyadic_numerator, dyadic_one_minus,
                          exact_decayed, marginal_enumerators,
                          one_step_enumerators, sl_enumerators)
from .pauli import Bipartition, StabilizerGroup, bell_pair_rank, state_catalog
from .spectra import (DEFAULT_DIGITS, Enclosure, MomentVector, _ghz_bases,
                      _ghz_forms, _sum_of_powers, enclose, ghz_local_moments)

BRACKET_TOL = 1e-9
GRID_POINTS = 65


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
            if t is None or len(t) != 3 or not 1 <= t[0] < t[1] < t[2]:
                raise ValueError("klm needs a triple 1 <= k < l < m")
            # a tuple, so that specs hash and de-duplicate
            object.__setattr__(self, "triple", tuple(t))
        elif self.kind not in ("ppt", "fidelity", "purity"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        # a parameter the kind ignores would make two specs of one label
        # compare unequal
        if self.m is not None and self.kind not in ("stieltjes", "descartes"):
            raise ValueError(f"{self.kind} takes no moment order m")
        if self.triple is not None and self.kind != "klm":
            raise ValueError(f"{self.kind} takes no triple")

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
        if name not in ("stieltjes", "descartes", "klm"):
            raise ValueError(f"unknown criterion {text!r}")
        try:
            orders = tuple(int(t) for t in arg.split(","))
            m = None if name == "klm" else int(arg)
        except ValueError:
            raise ValueError(f"criterion {text!r}: its order must be an "
                             "integer") from None
        return CriterionSpec(name, m=m, triple=orders if m is None else None)


def _cut_label(bip: Bipartition) -> str:
    return ",".join(str(q) for q in sorted(bip.a_set))


def _ghz_label(n: int, a: int, bip: Bipartition) -> str:
    cut = "balanced" if 2 * a == n else _cut_label(bip)
    return f"ghz n={n} cut={cut}"


def _check_cut(bip: Bipartition, n: int) -> Bipartition:
    """bip, once it is a cut of the n qubits with 1 <= |A| <= n-1."""
    if not 1 <= len(bip.check(n).a_set) <= n - 1:
        raise ValueError("the cut needs 1 <= |A| <= n-1 qubits on side A")
    return bip


class GHZModel:
    """Locally depolarized GHZ state across any cut (default balanced, given
    by its size alone: at n = 10^8 its label set would take gigabytes),
    closed form at a cost independent of n: make_model's GHZ model past
    the character cap, beyond the reach of the character transform that
    checks GHZStabilizerModel.  Its moments come as bounds and its PPT
    eigenvalue, fidelity and purities as Enclosures at prec bits
    (DEFAULT_DIGITS' bits), each from one evaluation of its closed form in
    mpmath's interval arithmetic and refined on demand, so every verdict
    is certified (criteria._certified) and hankel_rank_bound, the [n/2] + 3
    distinct PT eigenvalues, is sound."""

    bell_pairs, separable_from = 1, Fraction(2, 3)
    prec = dps_to_prec(DEFAULT_DIGITS)

    def __init__(self, n: int, bip: Bipartition = None):
        if bip is None and n % 2:
            raise ValueError("no default bipartition for odd n; pass a cut")
        self.a = n // 2 if bip is None else len(_check_cut(bip, n).a_set)
        self.n, self._bip = n, bip
        self.hankel_rank_bound = n // 2 + 3

    def describe(self) -> str:
        return _ghz_label(self.n, self.a, self._bip)

    def moments(self, eps, m_max: int) -> MomentVector:
        return ghz_local_moments(self.n, eps, m_max, a=self.a)

    def ppt(self, eps) -> criteria.Verdict:
        # Every other PT eigenvalue is a sum of nonnegative terms, so the
        # least one is d - g or the least band eigenvalue lambda_[n/2].
        return criteria.ppt_verdict(enclose(
            lambda prec: _ghz_forms(self.n, self.a, eps, 0, prec)[0],
            self.prec))

    def fidelity(self, eps) -> Enclosure:
        # sum_i a_i (1-eps)^i = (u^n + v^n + (1-eps)^n) / 2: even-weight
        # Z-type binomials plus 2^(n-1) X-type elements of full weight
        return enclose(functools.partial(_sum_of_powers, _ghz_bases(eps),
                                         self.n, 1), self.prec)

    def purities(self, eps) -> tuple:
        # Global and |A|-qubit marginal purity in closed form, r = (1-eps)^2:
        # ((1+r)^n + (1-r)^n + (2r)^n) / 2^(n+1) and, the marginal being the
        # dephased mixture of 0..0 and 1..1, ((1+r)^s + (1-r)^s) / 2^(s+1)
        q = _ghz_bases(eps)[2]
        r = mpf_mul(q, q)
        plus, minus = mpf_add(fone, r), mpf_sub(fone, r)
        return tuple(enclose(functools.partial(_sum_of_powers, xs, k, k + 1),
                             self.prec)
                     for xs, k in (((plus, minus, mpf_shift(r, 1)), self.n),
                                   ((plus, minus), self.a)))


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
    come from the power-sum polynomials by Horner's rule, in (1-eps)^2
    under local noise, as integer numerators, so every criterion decides
    exactly; hankel_rank_bound = len(polys); fidelity and the purities are
    sum_w a_w (1-eps)^w and sum_w a_w (1-eps)^(2w), exact Fractions.
    GlobalNoiseModel changes only the data.
    """

    separable_from = Fraction(2, 3)

    def __init__(self, g: StabilizerGroup, bip: Bipartition, name: str = None):
        self.g = g
        self.bip = _check_cut(bip, g.n)
        self.name = name or "stabilizer"
        self.bell_pairs = bell_pair_rank(g, bip)
        self.polys = self._polys()
        self.hankel_rank_bound = len(self.polys)
        self._degree = len(self.polys[0][0]) - 1
        self._step, self._table = 1, ()  # S_1.. in z^s, rebuilt to grow

    def _polys(self) -> tuple:
        return character_polys(self.g, self.bip).minus_set

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
        if m_max > len(self._table):
            self._step, self._table = _power_sums(self.polys, 1, m_max)
        s, deg = self._step, self._degree
        nums = tuple(dyadic_numerator(row, a**s, f * s) << f * (k * deg % s)
                     for k, row in enumerate(self._table[:m_max], 1))
        return MomentVector(digits=DEFAULT_DIGITS,
                            exact=(nums, f * deg + self.g.n),
                            spectrum=functools.partial(self._pt_spectrum, eps))

    def ppt(self, eps) -> criteria.Verdict:
        """The sign of the least numerator A_i of the PT spectrum decides,
        exactly, and -lambda_min is rounded when read."""
        entries, s = self._pt_spectrum(eps)
        return criteria.ppt_verdict(
            Fraction(min(a for a, _ in entries), 1 << s))

    def fidelity(self, eps):
        return exact_decayed(self.sl.values, eps)

    def purities(self, eps) -> tuple:
        # Size-resolved comparison: the purity of this very marginal.
        return tuple(exact_decayed(a.values, eps, power=2)
                     for a in (self.sl, self._marginal))


class GHZStabilizerModel(StabilizerModel):
    """Locally depolarized GHZ state, one fixed bipartition, as the
    stabilizer model with its minus-set polynomials in closed form, built
    in O(n^2) with no walk of the group (model "enumerator" is its oracle).

    The PT eigenvalues of ghz_local_spectrum are E_j(z) / 2^n in z = 1 - eps,
    E_j the even part of (1+z)^(n-j) (1-z)^j, with multiplicity
    C(n,j) - [j = |A|] - [j = n-|A|], and the isolated pair
    (E_|A|(z) +- 2^(n-1) z^n) / 2^n.  The coefficients of (1+z)^(n-j)
    (1-z)^j are Krawtchouk numbers, (w+1) K_(w+1) = (n-2j) K_w -
    (n-w+1) K_(w-1).  Equal polynomials merge, as in the character set.
    """

    def _polys(self) -> tuple:
        n, cut = self.g.n, len(self.bip.a_set)
        polys = collections.Counter()
        for j in range(n + 1):
            k = [1, n - 2 * j]
            for w in range(1, n):
                k.append(((n - 2 * j) * k[w] - (n - w + 1) * k[w - 1])
                         // (w + 1))
            even = tuple(c if w % 2 == 0 else 0 for w, c in enumerate(k))
            polys[even] += math.comb(n, j) - (j == cut) - (j == n - cut)
            if j == cut:
                for gap in (1 << n - 1, -(1 << n - 1)):
                    polys[even[:-1] + (even[-1] + gap,)] += 1
        return _sorted_set(polys)

    def describe(self) -> str:
        return _ghz_label(self.g.n, len(self.bip.a_set), self.bip)


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

    separable_from = 1

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


class DenseModel:
    """Reference model: everything computed from the density matrix (a
    numpy array), under local or global depolarizing noise."""

    hankel_rank_bound = separable_from = None  # the oracle takes no shortcut

    def __init__(self, rho, bip: Bipartition, group: StabilizerGroup = None,
                 name: str = None, noise: str = "local"):
        from .dense import depolarize_global, depolarize_local, nqubits
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

    def _noisy(self, eps):
        return self._channel(self.rho, float(eps))

    def moments(self, eps, m_max: int) -> MomentVector:
        from .dense import pt_moments
        return pt_moments(self._noisy(eps), self.bip, m_max)

    def ppt(self, eps) -> criteria.Verdict:
        from .dense import pt_spectrum
        s = pt_spectrum(self._noisy(eps), self.bip)
        return criteria.ppt_verdict(s.min_eigenvalue())

    def fidelity(self, eps):
        from .dense import fidelity_pure
        if self.group is None:
            raise ValueError("fidelity needs the target stabilizer group")
        return fidelity_pure(self._noisy(eps), self.group)

    def purities(self, eps):
        from .dense import reduced_state
        noisy = self._noisy(eps)
        marg = reduced_state(noisy, self.bip)
        return tuple(float((m @ m).trace().real) for m in (noisy, marg))


def make_model(name: str, n: int, bip: Bipartition = None, model: str = None,
               noise: str = "local"):
    """Build the state model for a catalog state, cut and noise channel.

    model None picks by state and noise: under local noise
    GHZStabilizerModel for GHZ on any cut up to CHARACTER_QUBIT_CAP qubits,
    the closed form GHZModel past it, and enumerator tables for everything
    else; under global noise the closed forms of GlobalNoiseModel.
    model="enumerator" forces the tables (the oracle of both GHZ models),
    model="dense" the density-matrix reference.  Every model refuses a cut
    that is not on n qubits with 1 <= |A| <= n-1.
    """
    name = name.lower()
    if noise not in ("local", "global"):
        raise ValueError(f"unknown noise {noise!r}; use local or global")
    if model not in (None, "dense", "enumerator"):
        raise ValueError(f"unknown model {model!r}; use dense or enumerator")
    if noise == "global" and model == "enumerator":
        raise ValueError("the enumerator tables model local noise only")
    ghz = name == "ghz" and noise == "local" and model is None
    if ghz and n > CHARACTER_QUBIT_CAP:
        return GHZModel(n, bip)
    g = state_catalog(name, n)
    if bip is None:
        bip = Bipartition.balanced(n)
    if model == "dense":
        from .dense import state_from_group
        return DenseModel(state_from_group(g), bip, group=g, name=name,
                          noise=noise)
    cls = (GlobalNoiseModel if noise == "global"
           else GHZStabilizerModel if ghz else StabilizerModel)
    return cls(g, bip, name=name)


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
    margin takes its own moments, only when read.  Past the bound D a PPT
    state's Hankel is PSD of rank at most D, below its size, so its margin
    is exactly 0."""
    if spec.kind == "ppt":
        return model.ppt(eps)
    if spec.kind == "stieltjes" and not _moment_order(spec, model):
        entangled = model.ppt(eps).entangled
        if not entangled and (spec.m + 1) // 2 > model.hankel_rank_bound:
            return criteria.Verdict(False, lambda: mpf(0))
        return criteria.Verdict(entangled, lambda: criteria.hankel_margin(
            model.moments(eps, spec.m), spec.m))
    if spec.kind == "fidelity":
        return criteria.fidelity_criterion(model.fidelity(eps),
                                           model.bell_pairs)
    if spec.kind == "purity":
        return criteria.purity_criterion(*model.purities(eps))
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
                strict: bool = False) -> ThresholdResult:
    """Bisect the last eps where the criterion still fires: the battery of
    one criterion, see epsilon_max_battery."""
    return epsilon_max_battery((spec,), model, tol, strict)[0]


def epsilon_max_battery(specs, model, tol: float = BRACKET_TOL,
                        strict: bool = False) -> list:
    """Thresholds of a battery of criteria on one model, one
    ThresholdResult per spec.

    Each spec's verdicts at the GRID_POINTS nodes i/64 form its row, whose
    last True -> False flip is bisected on its own, at its own order, until
    its bracket is below tol (_final_crossing); a tol below the float64
    spacing at the crossing is refused there, with the narrowest bracket
    available.  With strict=True a row that flips more than once is an
    error (the row is embedded in the message) instead of being resolved
    by the final-crossing rule.

    A row skips the verdicts that theorems decide.  A model with
    separable_from s not None has exact or certified verdicts, the true
    ones, so these hold for them:
      (a) No sound criterion fires at eps >= s.  Under local noise
          s = 2/3: a one-qubit depolarizing channel with 1 - eps <= 1/3 is
          entanglement breaking (Horodecki, Shor and Ruskai, Rev. Math.
          Phys. 15, 629, 2003), so rho(eps) is separable.  Under global
          noise s = 1.
      (b) PPT is monotone.  With 1 - d = (1 - e2) / (1 - e1), noise at e2
          is noise at e1 followed by noise at d, which acts on each qubit
          alone, so is local for the A|B cut, and local operations keep
          PPT states PPT (Horodecki et al., Rev. Mod. Phys. 81, 865,
          2009).  Under global noise lambda_min(eps) = (1 - eps)
          lambda_min(0) + eps / 2^n grows, as lambda_min(0) <= 2^-n.
      (c) Fidelity is monotone: F(eps) = 2^-n sum_(S in G) (1 - eps)^wt(S)
          has nonnegative terms; under global noise F(eps) =
          (1 - eps)(1 - 2^-n) + 2^-n.
    So ppt, fidelity and stieltjes past the rank bound (decided by PPT)
    find their last firing node by binary search: node 0, the eps = 1
    guard and at most 6 probes below the first node at or past s.  Every
    other spec is judged at the nodes below s and at eps = 1, on one
    moment vector per node up to the highest order they read, and reads
    False at the rest.  The rows equal a scan of every node.

    The model keeps its grid nodes' moment vectors, at most GRID_POINTS of
    them, for every later battery on it: a kept vector serves a node
    unless the battery reads a higher order, which computes the node's
    vector again at that order and keeps it instead.  So thresholds on one
    model, one call per criterion or one battery, compute each grid vector
    once per order they raise it to, and the kept vectors are released
    with the model.  Bisection midpoints take their own vectors, not kept.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    specs, last, cut = tuple(specs), GRID_POINTS - 1, model.separable_from
    grid = [i / last for i in range(GRID_POINTS)]
    stop = last if cut is None else math.ceil(last * cut)
    hits, scanned = [[False] * GRID_POINTS for _ in specs], []

    def fires(spec, i, p=None):
        return evaluate(spec, model, grid[i], p).entangled

    for spec, row in zip(specs, hits):
        # every spec but the monotone ones of (b) and (c) is scanned
        if cut is None or spec.kind == "purity" or _moment_order(spec, model):
            scanned.append((spec, row))
            continue
        lo, hi = ((last, last) if fires(spec, last) else
                  (0, stop) if fires(spec, 0) else (-1, 0))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fires(spec, mid) else (lo, mid)
        row[:lo + 1] = [True] * (lo + 1)
    top = max((_moment_order(spec, model) for spec, _ in scanned), default=0)
    # node -> vector, kept on the model itself: a vector may refer to its
    # model, so a table keyed by weak references would keep models alive
    kept = vars(model).setdefault("_grid_moments", {})
    for i in (*range(stop), last):
        p = kept.get(i)
        if top and (p is None or len(p) < top):
            p = kept[i] = model.moments(grid[i], top)
        for spec, row in scanned:
            row[i] = fires(spec, i, p)
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
        if mid in (lo, hi):
            raise ValueError(
                f"tol {tol:.3g} is below the float64 spacing near eps = "
                f"{lo:.12g}: the narrowest bracket there is {(hi - lo) / 2:.3g}")
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


def _check_dominance(rows: list, group: str, tol: float):
    """Hankel positivity implies every 2x2 minor, so stieltjes(m) must
    detect at least as far as any klm triple of max order m.  The
    stieltjes >= descartes ordering at equal m is only an empirical
    observation, so a violation is reported, not raised.
    """
    slack = 10 * tol
    rows = [(r[group], CriterionSpec.parse(r["criterion"]), r["eps_max"])
            for r in rows]
    hankel = {(g, spec.m): eps for g, spec, eps in rows
              if spec.kind == "stieltjes"}
    for g, spec, eps in rows:
        m = spec.max_order
        st = hankel.get((g, m), math.inf)  # no stieltjes row: nothing to check
        if spec.kind == "klm" and not st >= eps - slack:
            raise RuntimeError(
                f"stieltjes:{m} threshold {st} fell below the klm threshold "
                f"{eps} at {g}; the Hankel minor argument forbids this")
        if spec.kind == "descartes" and eps > st + slack:
            warnings.warn(
                f"descartes:{m} threshold {eps} exceeds stieltjes:{m} "
                f"at {g}; the usual empirical ordering is reversed")


def _sweep(lead: str, models: dict, specs, tol: float, extra=None) -> list:
    """One epsilon_max_battery per lead value; models maps each value to a
    function building its model, called just before its battery.  Each
    value and each spec runs once.  Returns dominance-checked rows in
    canonical order: the lead value, then criterion kind and order, with
    extra(spec)'s columns after the criterion."""
    specs = sorted(dict.fromkeys(specs), key=CriterionSpec.sort_key)
    rows = []
    for value in sorted(models):
        results = epsilon_max_battery(specs, models[value](), tol=tol)
        rows += [{lead: value, "criterion": r.criterion,
                  **(extra(spec) if extra else {}), "eps_max": r.eps_max,
                  "bracket": r.bracket, "flags": r.flags}
                 for spec, r in zip(specs, results)]
    _check_dominance(rows, lead, tol)
    return rows


def sweep_fig1(n_list, criteria=None, tol: float = BRACKET_TOL) -> list:
    """Threshold vs qubit number for the depolarized GHZ family.

    Each n runs on its balanced cut, so every n must be even and at least
    2.  Returns rows {n, criterion, eps_max, bracket, flags} in canonical
    order (n, then criterion kind and order).
    """
    bad = sorted(n for n in set(n_list) if n % 2 or n < 2)
    if bad:
        raise ValueError(f"fig1 runs GHZ on its balanced cut n/2|n/2, which "
                         f"n={bad[0]} does not have; pass even n >= 2 only")
    models = {n: functools.partial(make_model, "ghz", n) for n in n_list}
    return _sweep("n", models,
                  fig1_criteria() if criteria is None else criteria, tol)


def sweep_fig2(m_range=None, cut_sizes=(1, 2, 3),
               tol: float = BRACKET_TOL) -> list:
    """Threshold vs moment order for the six-qubit perfect state AME(6,2),
    per cut size.

    For each cut |A| = s the battery is fig2_criteria over m_range; the
    order-independent ppt / fidelity / purity rows leave m empty.  Purity
    compares against the marginal of that very cut.
    """
    if m_range is None:
        m_range = range(3, 31)
    m_list = sorted(set(m_range))
    if m_list and not 3 <= m_list[0] <= m_list[-1] <= 30:
        raise ValueError("moment orders must lie in 3..30")
    models = {f"{s}|{6 - s}": functools.partial(
        make_model, "ame6", 6, Bipartition(6, frozenset(range(1, s + 1))))
        for s in cut_sizes}
    return _sweep("cut", models, fig2_criteria(m_list), tol,
                  lambda spec: {"m": spec.max_order or ""})
