"""The benchmark workloads: seeded inputs, the calls into ptml, the checks.

Each workload has four steps.  `inputs(rng)` runs in run.py and returns
plain JSON data; the job process then calls `setup(spec)` (models built
before the first verdict), `operations(spec, ctx)` (the timed calls) and,
after the clock has stopped, `check(...)`, which compares every answer with
an oracle from module oracles.

A check failure names the operation it condemns.  Failures that match one of
the KNOWN_DEFECTS of the seed code are still failures, counted in
fail_ratio; they only keep the run's `correct` flag true, since the
benchmark expects them.  Each workload meets the known defects in the same
operations whatever the seed, so `failed` repeats exactly between runs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import oracles
import stabgen

KNOWN_DEFECTS = {
    "ghz-ppt-tolerance":
        "ghz PPT threshold decides with an absolute tolerance of 1e-50 at "
        "60 digits, so from n ~ 140 it bisects the wrong crossing",
    "sweep-criteria-commas":
        "sweep --criteria splits on commas, so no klm:k,l,m label parses",
    "fidelity-product-cut":
        "the fidelity criterion fires on states with no Bell pair across "
        "the cut, where F > 1/2 certifies nothing",
}

# ptml brackets its own Hankel dominance check with 10x its 1e-9 tolerance.
DOMINANCE_SLACK = 1e-8


@dataclass
class Failure:
    op: str
    message: str
    defect: str = None


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def call_cli(argv: list) -> CliResult:
    import ptml.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ptml.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


_THRESHOLD_LINE = re.compile(r"eps_max=(\S+)")


def _threshold_of(rec) -> float:
    """eps_max printed by `ptml threshold`, or an exception naming why not."""
    if isinstance(rec, Exception):
        raise rec
    if rec.code != 0:
        raise ValueError(f"exit {rec.code}: {rec.err.strip()}")
    match = _THRESHOLD_LINE.search(rec.out)
    if match is None:
        raise ValueError(f"unparsable output {rec.out!r}")
    return float(match.group(1))


def _catalog_gens(name: str, n: int) -> list:
    from ptml.pauli import state_catalog

    return [(g.x_mask, g.z_mask, g.phase_exp)
            for g in state_catalog(name, n).generators]


def _relaxation_problems(eps: dict, ppt_oracle: float) -> list:
    """(criterion, message) for each threshold that breaks soundness against
    the oracle PPT threshold, or Hankel dominance: stieltjes:m detects at
    least as far as klm:(m-2, m-1, m)."""
    problems = []
    for crit, value in eps.items():
        if crit != "ppt" and value > ppt_oracle + oracles.THRESHOLD_ATOL:
            problems.append((crit, f"threshold {value} exceeds the oracle "
                                   f"PPT threshold {ppt_oracle}"))
        if crit.startswith("klm:"):
            k, l, m = (int(t) for t in crit[4:].split(","))
            st = eps.get(f"stieltjes:{m}")
            if (k, l) == (m - 2, m - 1) and st is not None \
                    and st < value - DOMINANCE_SLACK:
                problems.append((crit, f"stieltjes:{m} threshold {st} is "
                                       f"below {crit} threshold {value}"))
    return problems


# --------------------------------------------------------------- ghz_large_n


class GhzLargeN:
    """`ptml threshold` on GHZ at a small and a large qubit number."""

    CRITERIA = ("ppt", "fidelity", "purity", "descartes:7", "stieltjes:7",
                "klm:5,6,7")
    # (n, criteria).  At n = 180 one moment criterion stands for all three:
    # each takes 8 s there, and a pass has to stay near 10 s for a run of
    # the benchmark to last 30 s.
    OPS = ((12, CRITERIA), (180, ("ppt", "fidelity", "purity", "descartes:7")))
    # The GHZ PPT threshold is known wrong past n ~ 140 at the seed.
    DEFECT_FROM_N = 100

    def inputs(self, rng) -> dict:
        ops = [[n, c] for n, crits in self.OPS for c in crits]
        rng.shuffle(ops)
        return {"ops": ops}

    def setup(self, spec):
        return None  # every `ptml` call builds its own model

    def operations(self, spec, ctx):
        return [functools.partial(call_cli, [
                    "threshold", "--criterion", c, "--state", "ghz",
                    "--n", str(n)])
                for n, c in spec["ops"]]

    def check(self, spec, ctx, records):
        failures = []
        eps = {n: {} for n, _ in self.OPS}
        for (n, c), rec in zip(spec["ops"], records):
            try:
                eps[n][c] = _threshold_of(rec)
            except Exception as exc:
                failures.append(Failure(f"ghz n={n} {c}", str(exc)))
        for n in eps:
            oracle = oracles.ghz_ppt_threshold(n)
            got = eps[n].get("ppt")
            if got is not None and abs(got - oracle) > oracles.THRESHOLD_ATOL:
                defect = "ghz-ppt-tolerance" if n >= self.DEFECT_FROM_N else None
                failures.append(Failure(
                    f"ghz n={n} ppt",
                    f"PPT threshold {got} vs closed form {oracle}", defect))
            failures += [Failure(f"ghz n={n} {c}", msg)
                         for c, msg in _relaxation_problems(eps[n], oracle)]
        return len(records), failures


# --------------------------------------------------------------- ame6_orders


class Ame6Orders:
    """The six-qubit perfect state per cut versus moment order."""

    # Cut 1|5 only: its dense PPT threshold alone takes 7.5 s (14.7 s on
    # cut 3|3), and a pass has to stay well under the 30 s of a run.
    CUTS = (1,)
    M_RANGE = (3, 9)
    HIGH_ORDER = "stieltjes:15"
    HIGH_ORDER_CUT = 3

    def inputs(self, rng) -> dict:
        ops = [["sweep", s] for s in self.CUTS]
        ops.append(["threshold", self.HIGH_ORDER_CUT])
        rng.shuffle(ops)
        return {"ops": ops}

    def _rows_per_sweep(self) -> int:
        lo, hi = self.M_RANGE
        odd = sum(1 for m in range(lo, hi + 1) if m % 2)
        return 3 + 2 * odd + (hi - lo + 1)

    def setup(self, spec):
        return None  # every `ptml` call builds its own model

    def operations(self, spec, ctx):
        ops = []
        for kind, s in spec["ops"]:
            if kind == "sweep":
                argv = ["sweep", "--preset", "fig2", "--m-range",
                        "{}:{}".format(*self.M_RANGE), "--cuts", str(s),
                        "--format", "json"]
            else:
                argv = ["threshold", "--criterion", self.HIGH_ORDER,
                        "--state", "ame6", "--bip-size", str(s)]
            ops.append(functools.partial(call_cli, argv))
        return ops

    def check(self, spec, ctx, records):
        failures = []
        attempted = 0
        eps = {s: {} for s in self.CUTS + (self.HIGH_ORDER_CUT,)}
        for (kind, s), rec in zip(spec["ops"], records):
            if kind == "threshold":
                attempted += 1
                try:
                    eps[s][self.HIGH_ORDER] = _threshold_of(rec)
                except Exception as exc:
                    failures.append(Failure(f"ame6 {self.HIGH_ORDER}", str(exc)))
                continue
            attempted += self._rows_per_sweep()
            if isinstance(rec, Exception) or rec.code != 0:
                why = rec if isinstance(rec, Exception) else rec.err.strip()
                for i in range(self._rows_per_sweep()):
                    failures.append(Failure(f"ame6 cut {s} row {i}", str(why)))
                continue
            table = json.loads(rec.out)
            for cells in table["rows"]:
                row = dict(zip(table["columns"], cells))
                eps[s][row["criterion"]] = float(row["eps_max"])
            if len(eps[s]) != self._rows_per_sweep():
                failures.append(Failure(f"ame6 cut {s}",
                                        f"{len(eps[s])} rows"))
        gens = _catalog_gens("ame6", 6)
        for s, row_eps in eps.items():
            oracle = oracles.local_ppt_threshold(gens, 6, range(1, s + 1))
            got = row_eps.get("ppt")
            if got is not None and abs(got - oracle) > oracles.THRESHOLD_ATOL:
                failures.append(Failure(
                    f"ame6 cut {s} ppt",
                    f"PPT threshold {got} vs eigvalsh bisection {oracle}"))
            failures += [Failure(f"ame6 cut {s} {c}", msg)
                         for c, msg in _relaxation_problems(row_eps, oracle)]
        return attempted, failures


# --------------------------------------------------------------- random_stab


class RandomStab:
    """Library thresholds on seeded random stabilizer states."""

    # n = 12 is left out: its enumerator tables alone take 13 s, and a pass
    # has to stay near 10 s for a run of the benchmark to last 30 s.
    NS = (10, 11)
    # Of this many random states per n, the one whose number of distinct
    # character polynomials is nearest TARGET_POLYS[n] is kept.  The
    # enumerator work grows with that number, which ranges over +-15%
    # between random states, so the work then varies little between seeds.
    CANDIDATES = 24
    TARGET_POLYS = {10: 870, 11: 1900}
    CRITERIA = ("purity", "descartes:9", "klm:7,8,9", "stieltjes:9")
    PURITY_EPS = (Fraction(1, 10), Fraction(7, 20), Fraction(7, 10))

    def inputs(self, rng) -> dict:
        states = []
        for n in self.NS:
            drawn = []
            for _ in range(self.CANDIDATES):
                gens = stabgen.random_stabilizer(n, rng)
                cut = stabgen.random_balanced_cut(n, rng)
                polys = oracles.distinct_character_polys(gens, n, cut)
                drawn.append((abs(polys - self.TARGET_POLYS[n]), gens, cut))
            _, gens, cut = min(drawn, key=lambda d: d[0])
            states.append({"n": n, "gens": gens, "cut": cut})
        return {"states": states}

    @staticmethod
    def group(state):
        from ptml.pauli import Bipartition, PauliString, StabilizerGroup

        n = state["n"]
        g = StabilizerGroup(n, tuple(PauliString(n, x, z, p)
                                     for x, z, p in state["gens"]))
        return g, Bipartition(n, frozenset(state["cut"]))

    def setup(self, spec):
        from ptml import thresholds

        models = []
        for st in spec["states"]:
            g, bip = self.group(st)
            models.append(thresholds.StabilizerModel(g, bip,
                                                     name=f"random{st['n']}"))
        return models

    def operations(self, spec, ctx):
        from ptml import thresholds

        return [functools.partial(thresholds.epsilon_max,
                                  thresholds.CriterionSpec.parse(c), model)
                for model in ctx for c in self.CRITERIA]

    def check(self, spec, ctx, records):
        from ptml import enumerators

        failures = []
        it = iter(records)
        for st, model in zip(spec["states"], ctx):
            label = f"random n={st['n']} cut={st['cut']}"
            eps = {}
            for c in self.CRITERIA:
                rec = next(it)
                if isinstance(rec, Exception):
                    failures.append(Failure(f"{label} {c}", repr(rec)))
                else:
                    eps[c] = rec.eps_max

            def fail_moments(msg):
                for c in self.CRITERIA:
                    if c != "purity":
                        failures.append(Failure(f"{label} {c}", msg))

            g, bip = self.group(st)
            fast = enumerators.cw_fourier(g, bip, 3)
            brute = enumerators.cw_bruteforce(g, bip, 3)
            if (fast.cplus, fast.cminus) != (brute.cplus, brute.cminus):
                fail_moments("cw_fourier and cw_bruteforce disagree at k=3")
            sl = enumerators.sl_enumerators(g)
            for e in self.PURITY_EPS:
                q2 = (1 - e) ** 2
                purity = sum(Fraction(a) * q2 ** i
                             for i, a in enumerate(sl.values))
                p2 = model.moments(float(e), 2).p(2)
                if not math.isclose(p2, purity, rel_tol=1e-12):
                    fail_moments(f"p_2({float(e)}) = {p2} but the "
                                 f"enumerator purity is {float(purity)}")
            failures += [Failure(f"{label} {c}", msg) for c, msg
                         in _relaxation_problems(eps, float("inf"))]
        return len(records), failures


# ------------------------------------------------------------------ cli_mix


STATES = ("ghz", "zero", "bell_pairs", "ame6")
MOMENT_KINDS = ("p3ppt", "stieltjes", "descartes", "klm")
SMALL_N = {"ghz": (2, 3, 4, 5, 6, 8), "zero": (2, 3, 4, 6, 8),
           "bell_pairs": (2, 4, 6, 8), "ame6": (6,)}
LARGE_N = (12, 20, 40)
# (n, state) of the seeded requests that need a dense 2^n x 2^n matrix.
# The even slots ask for fidelity, so they hold states that have a Bell pair
# across every cut (see PRODUCT_CUT_FIDELITY).
DENSE_SLOTS = ((2, "bell_pairs"), (2, "zero"), (3, "ghz"), (4, "bell_pairs"),
               (4, "ghz"), (5, "zero"), (6, "ame6"), (6, "bell_pairs"))


def _fixed(cmd, state, n, cut, noise, eps, name=None, k_max=4):
    if cmd == "moments":
        return {"cmd": cmd, "state": state, "n": n, "cut": cut,
                "noise": noise, "eps": eps, "k_max": k_max}
    return CliMix.criterion(state, n, cut, name, noise, eps)


# The dense requests at n = 8 take most of the loop's time, and there are
# more of them than a tenth of the requests, so the p90 latency falls among
# them.  Their cost depends on the cut and the noise rate, so they are the
# same for every seed; only their place in the order is seeded.
HEAVY = (
    ("criterion", "ghz", 8, [1, 2, 3], "local", 0.3, "ppt"),
    ("criterion", "ghz", 8, [2, 5, 6], "local", 0.15, "ppt"),
    ("criterion", "bell_pairs", 8, [1, 3, 5], "local", 0.25, "ppt"),
    ("criterion", "bell_pairs", 8, [1, 2, 3, 4, 6, 7, 8], "local", 0.45,
     "ppt"),
    ("criterion", "ghz", 8, [1, 2, 3, 4, 5], "global", 0.4, "fidelity"),
    ("criterion", "bell_pairs", 8, [1, 4, 5], "global", 0.2, "fidelity"),
    ("criterion", "bell_pairs", 8, [2, 3], "global", 0.3, "purity"),
    ("criterion", "ghz", 8, [1, 2, 3, 4, 5, 6], "global", 0.6, "purity"),
    ("moments", "ghz", 8, [1, 2], "local", 0.2),
    ("moments", "ghz", 8, [3, 4, 8], "global", 0.35),
    ("moments", "bell_pairs", 8, [1, 2, 3, 4], "global", 0.5),
    ("moments", "bell_pairs", 8, [2, 3, 6], "local", 0.1),
)

# The fidelity-product-cut defect, once on the dense route (global noise)
# and once on the enumerator route (local noise).  The seeded fidelity
# requests all have a Bell pair across the cut, so the defect fails these
# two requests in every pass and no other, whatever the seed.
PRODUCT_CUT_FIDELITY = (
    ("criterion", "zero", 2, [1], "global", 0.2, "fidelity"),
    ("criterion", "bell_pairs", 4, [1, 2], "local", 0.1, "fidelity"),
)


def _splits_a_pair(cut) -> bool:
    """Whether side A of a bell_pairs cut holds one qubit of some pair
    (1, 2), (3, 4), ..."""
    return any((a + 1 if a % 2 else a - 1) not in cut for a in cut)


class CliMix:
    """A closed loop with one client sending mixed `ptml` requests.

    Every request builds its own model.  The mix is fixed per route: the
    closed forms (GHZ on its balanced cut, global noise), the enumerator
    tables (local noise elsewhere), and the dense routes (local-noise PPT,
    global-noise fidelity and purity, `moments`), which stay at n <= 8.
    Qubit numbers cycle through fixed lists, so every seed asks for about
    the same work; the seed picks cuts, noise rates, criterion orders and
    the order of the requests.
    """

    CLOSED_FORM = 32
    ENUMERATOR = 32
    ENUMERATOR_TABLES = 9
    GLEASON = (4, 6, 8, 10, 12, 14)

    def inputs(self, rng) -> dict:
        reqs = [self._closed_form(rng, i) for i in range(self.CLOSED_FORM)]
        kinds = MOMENT_KINDS + ("fidelity", "purity")
        reqs += [self._enumerator(rng, i, kinds[i % len(kinds)])
                 for i in range(self.ENUMERATOR)]
        for i, (n, state) in enumerate(DENSE_SLOTS):
            # local-noise PPT off the GHZ balanced cut: dense PT spectrum
            cut = self._cut(rng, n, state == "ghz" and n % 2 == 0, False)
            reqs.append(self.criterion(state, n, cut, "ppt", "local",
                                       round(rng.uniform(0.0, 0.6), 3)))
            # fidelity and purity under global noise: dense state
            reqs.append(self.criterion(state, n, self._cut(rng, n),
                                       ("fidelity", "purity")[i % 2],
                                       "global",
                                       round(rng.uniform(0.0, 0.9), 3)))
            reqs.append({"cmd": "moments", "state": state, "n": n,
                         "cut": self._cut(rng, n),
                         "noise": ("local", "global")[i % 2],
                         "eps": round(rng.uniform(0.0, 0.8), 3),
                         "k_max": rng.randint(2, 6)})
        reqs += [_fixed(*h) for h in HEAVY + PRODUCT_CUT_FIDELITY]
        for i in range(self.ENUMERATOR_TABLES):
            state = STATES[i % 4]
            n = 6 if state == "ame6" else (2, 4, 6)[(i // 4) % 3]
            reqs.append({"cmd": "enumerators", "state": state, "n": n,
                         "cut": self._cut(rng, n), "k": 2 + i % 3})
        reqs += [{"cmd": "gleason", "n": n} for n in self.GLEASON]
        # `sweep --criteria` with a klm label (a known defect of the seed)
        reqs.append({"cmd": "sweep", "n": rng.choice((2, 4, 6)),
                     "criteria": ["ppt", "klm:1,2,3"]})
        rng.shuffle(reqs)
        return {"requests": reqs}

    @staticmethod
    def _cut(rng, n, avoid_half=False, balanced=None):
        """Side A of the cut: the default balanced 1..n/2, or a random
        subset; avoid_half excludes every subset of size n/2."""
        if balanced is None:
            balanced = n % 2 == 0 and rng.random() < 0.5
        if balanced:
            return list(range(1, n // 2 + 1))
        sizes = [s for s in range(1, n) if not (avoid_half and 2 * s == n)]
        return sorted(rng.sample(range(1, n + 1), rng.choice(sizes)))

    @staticmethod
    def _name(rng, kind):
        if kind == "stieltjes":
            return f"stieltjes:{rng.choice((3, 5, 7, 9))}"
        if kind == "descartes":
            return f"descartes:{rng.randint(2, 8)}"
        if kind == "klm":
            return "klm:{},{},{}".format(*sorted(rng.sample(range(1, 8), 3)))
        return kind

    @staticmethod
    def criterion(state, n, cut, name, noise, eps):
        return {"cmd": "criterion", "name": name, "kind": name.split(":")[0],
                "state": state, "n": n, "cut": cut, "noise": noise,
                "eps": eps}

    def _closed_form(self, rng, i):
        """GHZ under local noise on a balanced cut, or any state under
        global noise: PPT and the moment criteria from closed forms."""
        kinds = ("ppt",) + MOMENT_KINDS
        name = self._name(rng, kinds[i % len(kinds)])
        ns = (2, 4, 6, 8) + LARGE_N
        if i % 2:
            n = ns[(i // 2) % len(ns)]
            return self.criterion("ghz", n, self._cut(rng, n, balanced=True),
                                  name, "local", round(rng.uniform(0.0, 0.6), 3))
        state = STATES[(i // 2) % 4]
        n = 6 if state == "ame6" else ns[(i // 8) % len(ns)]
        return self.criterion(state, n, self._cut(rng, n), name, "global",
                              round(rng.uniform(0.0, 0.9), 3))

    def _enumerator(self, rng, i, kind):
        """Local noise off the GHZ balanced cut: enumerator tables."""
        state = STATES[i % 4]
        ns = {"ghz": (3, 4, 5, 6, 8)}.get(state, SMALL_N[state])
        n = ns[(i // 4) % len(ns)]
        cut = self._cut(rng, n, state == "ghz" and n % 2 == 0, False)
        while kind == "fidelity" and state == "bell_pairs" \
                and not _splits_a_pair(cut):
            cut = self._cut(rng, n, False, False)
        return self.criterion(state, n, cut, self._name(rng, kind), "local",
                              round(rng.uniform(0.0, 0.6), 3))

    @staticmethod
    def argv(req) -> list:
        cmd = req["cmd"]
        if cmd == "gleason":
            return ["gleason", "--n", str(req["n"])]
        if cmd == "sweep":
            return ["sweep", "--preset", "fig1", "--n-list", str(req["n"]),
                    "--criteria", ",".join(req["criteria"])]
        argv = [cmd, "--state", req["state"], "--n", str(req["n"])]
        if req["cut"] != list(range(1, req["n"] // 2 + 1)) or req["n"] % 2:
            argv += ["--bip", ",".join(str(a) for a in req["cut"])]
        if cmd == "criterion":
            argv[1:1] = ["--name", req["name"]]
        if cmd in ("criterion", "moments"):
            argv += ["--noise", f"{req['noise']}:{req['eps']}"]
        if cmd == "moments":
            argv += ["--k-max", str(req["k_max"])]
        if cmd == "enumerators":
            argv += ["--k", str(req["k"]), "--method", "both"]
        return argv

    def setup(self, spec):
        return None  # every request builds its own model

    def operations(self, spec, ctx):
        return [functools.partial(call_cli, self.argv(r))
                for r in spec["requests"]]

    def check(self, spec, ctx, records):
        failures = []
        for i, (req, rec) in enumerate(zip(spec["requests"], records)):
            label = f"request {i}: ptml {' '.join(self.argv(req))}"
            if isinstance(rec, Exception):
                failures.append(Failure(label, repr(rec)))
                continue
            for msg, defect in getattr(self, "_check_" + req["cmd"])(req, rec):
                failures.append(Failure(label, msg, defect))
        return len(records), failures

    # Each _check_<cmd> yields (message, known defect or None) per problem.

    def _check_criterion(self, req, rec):
        first = rec.out.split(" ", 1)[0]
        want_code = {"Entangled": 0, "Inconclusive": 1}.get(first)
        if want_code is None or rec.code != want_code:
            yield f"exit {rec.code} with output {rec.out!r} {rec.err!r}", None
            return
        npt, r = self._npt_oracle(req)
        entangled = want_code == 0
        if req["kind"] == "ppt":
            if npt is not None and entangled != npt:
                yield f"PPT verdict {first}, oracle NPT={npt}", None
        elif entangled and npt is False:
            defect = ("fidelity-product-cut"
                      if req["kind"] == "fidelity" and r == 0 else None)
            yield f"{req['name']} says Entangled on a PPT state", defect

    def _npt_oracle(self, req):
        """(NPT?, Bell pairs across the cut); NPT is None when the noise rate
        sits on the PPT boundary, where the verdict is undecided."""
        n, cut, eps = req["n"], req["cut"], req["eps"]
        gens = _catalog_gens(req["state"], n)
        r = oracles.bell_pairs_across(gens, n, cut)
        if req["noise"] == "global":
            thr = oracles.global_ppt_threshold(n, r)
        elif req["state"] == "ghz" and 2 * len(cut) == n:
            thr = oracles.ghz_ppt_threshold(n)
        else:
            rho = oracles.depolarize_local(oracles.stabilizer_state(gens, n),
                                           n, eps)
            lam = oracles.pt_spectrum(rho, cut)[0]
            return (None if abs(lam) <= oracles.EIG_ATOL
                    else bool(lam < 0)), r
        return (None if abs(eps - thr) < oracles.THRESHOLD_ATOL
                else eps < thr), r

    def _check_moments(self, req, rec):
        if rec.code != 0:
            yield f"exit {rec.code}: {rec.err.strip()}", None
            return
        n = req["n"]
        rho = oracles.stabilizer_state(_catalog_gens(req["state"], n), n)
        if req["noise"] == "local":
            rho = oracles.depolarize_local(rho, n, req["eps"])
        else:
            rho = oracles.depolarize_global(rho, req["eps"])
        lam = oracles.pt_spectrum(rho, req["cut"])
        rows = [line.split(",") for line in rec.out.splitlines()[2:]]
        if len(rows) != req["k_max"]:
            yield f"{len(rows)} rows for k_max={req['k_max']}", None
            return
        for k, (_, p_k, pt_k) in enumerate(rows, start=1):
            scale = float(sum(abs(lam) ** k))
            for got, want in ((p_k, sum(lam ** k)), (pt_k, scale)):
                if abs(float(got) - float(want)) > 1e-9 * scale + 1e-15:
                    yield f"p_{k} = {got}, dense oracle {want}", None

    def _check_enumerators(self, req, rec):
        if rec.code != 0 or "agreement: true" not in rec.out:
            yield f"exit {rec.code}, no agreement line", None

    def _check_gleason(self, req, rec):
        lines = rec.out.splitlines()
        if rec.code != 0 or not lines or \
                not all(line.startswith("PASS ") for line in lines):
            yield f"exit {rec.code} with output {rec.out!r}", None

    def _check_sweep(self, req, rec):
        rows = rec.out.splitlines()[2:]
        if rec.code != 0 or len(rows) != len(req["criteria"]):
            klm_label = any(c.startswith("klm:") for c in req["criteria"])
            yield (f"exit {rec.code}, {len(rows)} rows: {rec.err.strip()}",
                   "sweep-criteria-commas" if klm_label else None)


WORKLOADS = {
    "ghz_large_n": GhzLargeN(),
    "ame6_orders": Ame6Orders(),
    "random_stab": RandomStab(),
    "cli_mix": CliMix(),
}
