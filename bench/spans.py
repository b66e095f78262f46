"""Spans around calls into ptml's layers, recorded from outside the package.

Tracer.install wraps each named function at every binding site: the
defining module and every ptml module that imported the same object with
`from .x import f`, so calls made through either name are seen.  Names that
do not exist in the code being measured are skipped.  Spans stay in memory
until the job ends.

A span's self time is its duration minus the durations of its direct child
spans; calls are strictly nested, so the children never overlap.  A
function's total time counts only its outermost spans, so recursion is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every function wrapped, grouped by layer.
TARGETS = (
    ("spectra", "moments_from_spectrum"),
    ("spectra", "ghz_local_spectrum"),
    ("spectra", "stab_global_spectrum"),
    ("dense", "hermitian_eigenvalues"),
    ("dense", "state_from_group"),
    ("dense", "depolarize_local"),
    ("dense", "partial_transpose"),
    ("jacobi", "eigh_jacobi"),
    ("jacobi", "jacobi_eigenvalues"),
    ("criteria", "hankel_min_eigenvalue"),
    ("criteria", "stieltjes"),
    ("criteria", "klm_ppt"),
    ("criteria", "descartes"),
    ("criteria", "ppt_verdict"),
    ("enumerators", "character_polys"),
    ("enumerators", "cw_fourier"),
    ("enumerators", "noisy_pt_moment"),
    ("enumerators", "sl_enumerators"),
    ("enumerators", "cw_bruteforce"),
    ("thresholds", "epsilon_max"),
    ("thresholds", "evaluate"),
    ("pauli", "state_catalog"),
    ("pauli", "enumerate_group"),
    ("cli", "main"),
    ("gleason", "macwilliams"),
    ("gleason", "pure_kernel_basis"),
    ("gleason", "type2_kernel_basis"),
    ("gleason", "ttilde"),
    ("gleason", "reconstruct_enumerators"),
)

# Model constructors, reported together as thresholds.model_init_s.
MODEL_CLASSES = ("GHZModel", "StabilizerModel", "DenseModel")
MODEL_INIT = "thresholds.model_init"


class Tracer:
    def __init__(self):
        self.names = []     # span -> function name
        self.parents = []   # span -> parent span, or -1
        self.starts = []
        self.ends = []
        self.outer = []     # span -> no enclosing span of the same name
        self.results = {}   # span -> value kept by a hook
        self.counts = Counter()
        self.enabled = False
        self._stack = []
        self._depth = Counter()

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every target that exists in the imported ptml package."""
        hooks = {
            "spectra.moments_from_spectrum": _count_escalation,
            "enumerators.character_polys": _count_distinct,
            "thresholds.epsilon_max": _keep_iterations,
        }
        for mod_name, attr in TARGETS:
            try:
                mod = importlib.import_module(f"ptml.{mod_name}")
            except ImportError:
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            name = f"{mod_name}.{attr}"
            wrapped = self._wrap(name, orig, hooks.get(name))
            for site in _ptml_modules():
                for key, value in list(vars(site).items()):
                    if value is orig:
                        setattr(site, key, wrapped)
        thresholds = sys.modules.get("ptml.thresholds")
        for cls_name in MODEL_CLASSES:
            cls = getattr(thresholds, cls_name, None)
            if cls is None:
                continue
            cls.__init__ = self._wrap(MODEL_INIT, cls.__dict__["__init__"],
                                      None)
        self.enabled = True

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.outer.append(tracer._depth[name] == 0)
            tracer.ends.append(None)
            tracer._stack.append(sid)
            tracer._depth[name] += 1
            tracer.starts.append(time.monotonic())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[sid] = time.monotonic()
                tracer._depth[name] -= 1
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, sid, args, out)
            return out

        return wrapper

    # ----------------------------------------------------------- report

    def layer_metrics(self, duration) -> dict:
        """calls / total_s / self_s per wrapped function, plus counts and
        ratios derived from the spans.  duration(start, end) gives a span's
        length (clock.SpeedClock.corrected in a job)."""
        durations = [duration(a, b) for a, b in zip(self.starts, self.ends)]
        child_time = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[sid]
        calls = Counter()
        total = defaultdict(float)
        self_time = defaultdict(float)
        for sid, name in enumerate(self.names):
            dur = durations[sid]
            calls[name] += 1
            if self.outer[sid]:
                total[name] += dur
            self_time[name] += dur - child_time[sid]

        out = {}
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
        out["thresholds.model_init_s"] = total[MODEL_INIT]

        # Evaluations inside each threshold: the pre-scan grid is every
        # evaluation that is not a bisection step.
        evals = Counter()
        for sid, name in enumerate(self.names):
            if name != "thresholds.evaluate":
                continue
            p = self.parents[sid]
            while p >= 0 and self.names[p] != "thresholds.epsilon_max":
                p = self.parents[p]
            if p >= 0:
                evals[p] += 1
        n_thresholds = calls["thresholds.epsilon_max"]
        in_thresholds = sum(evals.values())
        grid = sum(n - self.results.get(sid, 0) for sid, n in evals.items())
        out["thresholds.evals_per_threshold"] = (
            in_thresholds / n_thresholds if n_thresholds else 0.0)
        out["thresholds.grid_share"] = (
            grid / in_thresholds if in_thresholds else 0.0)
        out["spectra.escalations"] = self.counts["escalations"]
        out["enumerators.distinct_polys"] = self.counts["distinct_polys"]
        out["trace.spans"] = len(self.names)
        return out

    def dump(self, path: str):
        """Write every span as one JSON line: name, parent, start, end."""
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps([sid, name, self.parents[sid],
                                     self.starts[sid], self.ends[sid]]))
                fh.write("\n")


def _ptml_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "ptml" or key.startswith("ptml."))]


def _count_escalation(tracer, sid, args, out):
    # moments_from_spectrum(s, m_max) doubles its working precision until
    # two evaluations agree; the returned digits show whether it did.
    spectrum = args[0]
    if out.digits is not None and out.digits > spectrum.digits:
        tracer.counts["escalations"] += 1


def _count_distinct(tracer, sid, args, out):
    tracer.counts["distinct_polys"] += len(out.plus_set) + len(out.minus_set)


def _keep_iterations(tracer, sid, args, out):
    tracer.results[sid] = out.iterations
