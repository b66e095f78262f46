"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They check that the exact counts of a traced job repeat between runs, that
the random stabilizer generator yields valid states and reproduces them
from a seed, that the dense PPT oracle agrees with a closed form, and that
the speed-corrected clock leaves out its samples and scales the rest.
"""

from __future__ import annotations

import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import clock  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import stabgen  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("thresholds.evaluate.calls", "spectra.escalations",
                "enumerators.distinct_polys", "dense.hermitian_eigenvalues.calls")

SMALL_JOBS = {
    "ghz_large_n": {"ops": [[12, "ppt"], [12, "stieltjes:7"],
                            [12, "klm:5,6,7"]]},
    "random_stab": {"states": [
        {"n": 6, "gens": stabgen.random_stabilizer(6, random.Random(1)),
         "cut": [2, 4, 5]}]},
    "cli_mix": {"requests": [
        workloads.CliMix.criterion("ame6", 6, [1, 2], "ppt", "local", 0.3),
        workloads.CliMix.criterion("bell_pairs", 4, [1, 3], "stieltjes:5",
                                    "local", 0.2),
        workloads.CliMix.criterion("ghz", 12, [1, 2, 3], "ppt", "global",
                                    0.5),
        {"cmd": "moments", "state": "ghz", "n": 4, "cut": [1],
         "noise": "local", "eps": 0.1, "k_max": 3},
        {"cmd": "gleason", "n": 6},
    ]},
}


@pytest.mark.parametrize("workload", sorted(SMALL_JOBS))
def test_traced_counts_repeat_exactly(workload):
    job = {"workload": workload, "inputs": SMALL_JOBS[workload],
           "trace": True}
    env = run.child_env()
    first, second = (run.spawn(job, env) for _ in range(2))
    for report in (first, second):
        assert not [f for f in report["failures"]
                    if f[2] not in workloads.KNOWN_DEFECTS]
    counts = [{k: r["layers"][k] for k in EXACT_COUNTS}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", range(4))
def test_random_stabilizer_is_a_valid_state(n, seed):
    from ptml.pauli import PauliString, StabilizerGroup

    gens = stabgen.random_stabilizer(n, random.Random(seed))
    # ptml validates commutation, independence and Hermitian phases
    StabilizerGroup(n, tuple(PauliString(n, x, z, p) for x, z, p in gens))
    rho = oracles.stabilizer_state(gens, n)
    assert np.allclose(rho @ rho, rho)
    assert np.isclose(np.trace(rho).real, 1.0)
    for x, z, p in gens:
        g = oracles.pauli_dense(n, x, z, p)
        assert np.allclose(g @ rho, rho)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_reproduce_from_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(random.Random(f"{name}/3")) == \
        wl.inputs(random.Random(f"{name}/3"))


def test_random_stab_seeds_differ_and_cuts_are_balanced():
    wl = workloads.WORKLOADS["random_stab"]
    first = wl.inputs(random.Random("random_stab/7"))
    assert first != wl.inputs(random.Random("random_stab/8"))
    for st in first["states"]:
        assert len(st["cut"]) == st["n"] // 2


@pytest.mark.parametrize("n", (2, 4))
def test_dense_ppt_oracle_matches_ghz_closed_form(n):
    from ptml.pauli import state_catalog

    gens = [(g.x_mask, g.z_mask, g.phase_exp)
            for g in state_catalog("ghz", n).generators]
    got = oracles.local_ppt_threshold(gens, n, range(1, n // 2 + 1))
    assert abs(got - oracles.ghz_ppt_threshold(n)) < 1e-8


def test_corrected_time_skips_samples_and_scales_gaps():
    c = clock.SpeedClock()
    c.starts, c.ends = [1.0, 2.0, 3.0], [1.1, 2.1, 3.1]
    factors = [1.0, 2.0, 3.0]
    # Before the first sample at its speed, each gap at the speed of the
    # sample that opens it, the samples themselves not at all.
    assert c.corrected(0.0, 4.0, factors) == pytest.approx(
        1.0 + 0.9 * 1 + 0.9 * 2 + 0.9 * 3)
    assert c.corrected(1.05, 1.5, factors) == pytest.approx(0.4)
    assert c.corrected(2.02, 2.08, factors) == 0.0
    took = clock.REFERENCE_S
    c.ends = [t + took for t in c.starts]
    assert c.factors() == pytest.approx([1.0, 1.0, 1.0])
