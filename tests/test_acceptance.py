"""Acceptance battery: one test and one printed verdict line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines as
they complete; each line carries the measured values behind the verdict.
"""

import math
import time
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from ptml.pauli import Bipartition, state_catalog
from ptml.dense import (
    depolarize_local,
    log_negativity,
    partial_transpose,
    pt_moments,
    state_from_group,
)
from ptml.spectra import (
    Spectrum,
    distinct_count,
    merge_spectrum,
    moments_from_spectrum,
    ppt_threshold_ghz,
)
from ptml import criteria
from ptml.enumerators import (
    ame_fixture_check,
    character_polys,
    cw_bruteforce,
    cw_fourier,
    noisy_pt_moment,
    qwe_bruteforce,
)
from ptml.gleason import (
    ame6_vector,
    macwilliams,
    pure_kernel_basis,
    reconstruct_enumerators,
    type2_kernel_basis,
)
from ptml.thresholds import CriterionSpec, GHZModel, StabilizerModel, epsilon_max, evaluate


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def prefix_cut(n, s):
    return Bipartition(n, frozenset(range(1, s + 1)))


def test_criterion_1_ghz_ppt_matches_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 4, 6, 8, 10, 12):
        res = epsilon_max(CriterionSpec("ppt"), GHZModel(n), tol=1e-10)
        worst = max(worst, abs(res.eps_max - ppt_threshold_ghz(n)))
    gap12 = (1 - 1 / math.sqrt(5)) - ppt_threshold_ghz(12)
    dt = time.monotonic() - t0
    ok = worst < 1e-8 and abs(gap12) <= 0.021 and dt < 10
    report(1, ok, f"max |bisected - closed form| = {worst:.2e}, "
                  f"n=12 sits {gap12:.6f} below the large-n limit, {dt:.1f}s")


def test_criterion_2_smallest_matching_hankel_order():
    t0 = time.monotonic()
    want = {2: 3, 4: 9, 6: 11}
    found = {}
    gaps = {}
    for n, expect in want.items():
        model = GHZModel(n)
        ppt_eps = epsilon_max(CriterionSpec("ppt"), model).eps_max
        m = 3
        while True:
            res = epsilon_max(CriterionSpec("stieltjes", m=m), model)
            gap = abs(ppt_eps - res.eps_max)
            gaps[(n, m)] = gap
            if gap <= 1e-6:
                found[n] = m
                break
            assert m < expect + 4, f"no Hankel order matched for n={n}"
            m += 2
    dt = time.monotonic() - t0
    ok = found == want and dt < 60
    # every earlier odd order must miss by far more than the match tolerance
    for (n, m), gap in gaps.items():
        if m < want[n]:
            ok = ok and gap > 1e-6
    report(2, ok, f"smallest matching odd order per n: {found} "
                  f"(expected {want}), {dt:.1f}s")


def test_criterion_3_ame6_threshold_anchors():
    t0 = time.monotonic()
    g = state_catalog("ame6", 6)
    anchors = {1: 0.52, 2: 0.47, 3: 0.40}
    reach_at = {1: 7, 2: 7, 3: 5}
    ppt_eps = {}
    ok = True
    notes = []
    for s in (1, 2, 3):
        model = StabilizerModel(g, prefix_cut(6, s))
        ppt_eps[s] = epsilon_max(CriterionSpec("ppt"), model).eps_max
        ok = ok and abs(ppt_eps[s] - anchors[s]) < 0.01
        m_hit = reach_at[s]
        hit = epsilon_max(CriterionSpec("stieltjes", m=m_hit), model).eps_max
        miss = epsilon_max(CriterionSpec("stieltjes", m=m_hit - 2), model).eps_max
        ok = ok and abs(ppt_eps[s] - hit) <= 1e-3
        ok = ok and abs(ppt_eps[s] - miss) > 1e-3
        notes.append(f"{s}|{6 - s} ppt={ppt_eps[s]:.4f} hankel:{m_hit} gap="
                     f"{abs(ppt_eps[s] - hit):.1e}")
    fid = epsilon_max(CriterionSpec("fidelity"),
                      StabilizerModel(g, prefix_cut(6, 1))).eps_max
    ok = ok and abs(fid - 0.145) < 0.005
    klm = epsilon_max(CriterionSpec("klm", triple=(3, 4, 5)),
                      StabilizerModel(g, prefix_cut(6, 1))).eps_max
    ok = ok and abs(klm - 0.367) < 0.005
    dt = time.monotonic() - t0
    ok = ok and dt < 120
    report(3, ok, f"{'; '.join(notes)}; fidelity={fid:.4f} klm345={klm:.4f}, {dt:.1f}s")


def test_criterion_4_ame6_character_polynomials():
    t0 = time.monotonic()
    g = state_catalog("ame6", 6)
    profiles = {}
    for s in range(4):
        cp = character_polys(g, prefix_cut(6, s))
        assert sorted(m for _, m in cp.plus_set) == [1, 18, 45]
        profiles[s] = sorted(m for _, m in cp.minus_set)
    want = {0: [1, 18, 45], 1: [1, 3, 15, 45], 2: [1, 6, 9, 12, 36], 3: [1, 18, 18, 27]}
    fixtures = ame_fixture_check()
    dt = time.monotonic() - t0
    ok = profiles == want and fixtures["ok"] and dt < 10
    report(4, ok, f"minus-set multiplicities per cut {profiles}, "
                  f"fixture check {fixtures['cases']}, {dt:.1f}s")


def test_criterion_5_enumerator_cross_validation():
    t0 = time.monotonic()
    eps_grid = (0.0, 0.3, 0.7, 1.0)
    states = ([("ghz", n) for n in range(2, 7)]
              + [("zero", n) for n in range(1, 7)]
              + [("bell_pairs", n) for n in (2, 4, 6)]
              + [("ame6", 6)])
    pairs = 0
    for name, n in states:
        g = state_catalog(name, n)
        cuts = [prefix_cut(n, s) for s in range(1, n // 2 + 1)]
        if name == "bell_pairs" and n >= 4:
            cuts.append(Bipartition(n, frozenset({1, 3})))
        for bip in cuts:
            chars = character_polys(g, bip)
            for k in range(1, 5):
                a = cw_fourier(g, bip, k, chars)
                b = cw_bruteforce(g, bip, k)
                assert a.cplus == b.cplus and a.cminus == b.cminus, (name, n, k)
                pairs += 1

    # reconstructed noisy moments against dense evolution, stabilizer states
    recon_err = 0.0
    for name, n in [(nm, sz) for nm, sz in states if sz <= 4]:
        g = state_catalog(name, n)
        rho = state_from_group(g)
        for s in range(1, n // 2 + 1):
            bip = prefix_cut(n, s)
            for k in range(1, 6):
                tab = cw_fourier(g, bip, k)
                for eps in eps_grid:
                    want = pt_moments(depolarize_local(rho, eps), bip, k).p(k)
                    recon_err = max(recon_err, abs(noisy_pt_moment(tab, eps) - want))

    # general-state enumerators against dense evolution, within tuple budget
    rng = np.random.default_rng(50905)
    qwe_err = 0.0
    for n, kmax, budget in ((2, 6, None), (3, 5, 4 ** 15), (4, 4, 4 ** 16)):
        d = 1 << n
        gmat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = gmat @ gmat.conj().T
        rho /= np.trace(rho).real
        bip = prefix_cut(n, 1)
        for k in range(1, kmax + 1):
            kw = {} if budget is None else {"budget": budget}
            tab = qwe_bruteforce(rho, bip, k, **kw)
            for eps in eps_grid:
                want = pt_moments(depolarize_local(rho, eps), bip, k).p(k)
                qwe_err = max(qwe_err, abs(noisy_pt_moment(tab, eps) - want))
    dt = time.monotonic() - t0
    ok = recon_err < 1e-9 and qwe_err < 1e-9 and dt < 300
    report(5, ok, f"{pairs} fourier/bruteforce tables identical; "
                  f"stabilizer recon err {recon_err:.1e}, general recon err "
                  f"{qwe_err:.1e}, {dt:.1f}s")


def test_criterion_6_soundness_on_random_states():
    t0 = time.monotonic()
    rng = np.random.default_rng(60906)

    def ginibre(d, rank=None):
        k = rank or d
        gm = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        rho = gm @ gm.conj().T
        return rho / np.trace(rho).real

    triples = [(1, 2, 3), (1, 2, 4), (2, 3, 4), (3, 4, 5),
               (1, 3, 5), (2, 4, 6), (5, 6, 7), (1, 4, 7)]
    cases = []
    for i in range(500):
        if i % 5 < 2:
            n, a = 2, {1}
        elif i % 5 < 4:
            n, a = 3, {1} if i % 2 else {1, 2}
        else:
            n, a = 4, {1, 2} if i % 2 else {1}
        rank = None if i % 3 else (1 << n) // 2 + 1
        cases.append((n, a, ginibre(1 << n, rank)))

    false_fires = bound_violations = witness_failures = 0
    ppt_count = witness_count = 0
    for n, a, rho in cases:
        bip = Bipartition(n, frozenset(a))
        lam = np.linalg.eigvalsh(partial_transpose(rho, bip))
        p = pt_moments(rho, bip, 7)
        if lam.min() >= -1e-9:
            ppt_count += 1
            for m in (3, 5, 7):
                false_fires += criteria.stieltjes(p, m, tol=1e-9).entangled
            for m in range(1, 8):
                false_fires += criteria.descartes(p, m, tol=1e-9).entangled
            for t in triples:
                false_fires += criteria.klm_ppt(p, *t, tol=1e-9).entangled
        en = log_negativity(rho, bip)
        for l, m in [(2, 3), (2, 4), (2, 5)]:
            bound_violations += criteria.negativity_lower_bound(p, l, m) > en + 1e-9
        if lam.min() < -1e-6:
            witness_count += 1
            with mp.workdps(80):
                s = Spectrum(tuple((mpf(float(v)), 1) for v in lam), digits=80)
                nn = distinct_count(merge_spectrum(s, tol=1e-12), tol=1e-12)
                m = 2 * nn - 1
                c = criteria.stieltjes_witness(s, m)
                h = criteria.build_hankel(moments_from_spectrum(s, m), m).entries
                q = sum(c[i] * c[j] * h[i][j]
                        for i in range(len(c)) for j in range(len(c)))
            witness_failures += not q < 0
    dt = time.monotonic() - t0
    ok = (false_fires == 0 and bound_violations == 0 and witness_failures == 0
          and dt < 120)
    report(6, ok, f"500 states ({ppt_count} PPT): 0 false detections expected, "
                  f"got {false_fires}; negativity bound violations "
                  f"{bound_violations}/1500; witness failures "
                  f"{witness_failures}/{witness_count}, {dt:.1f}s")


def test_criterion_7_ghz300_scaling():
    t0 = time.monotonic()
    model = GHZModel(300)
    hank = epsilon_max(CriterionSpec("stieltjes", m=5), model)
    trip = epsilon_max(CriterionSpec("klm", triple=(3, 4, 5)), model)
    fire_h = evaluate(CriterionSpec("stieltjes", m=5), model, 0.01).entangled
    fire_t = evaluate(CriterionSpec("klm", triple=(3, 4, 5)), model, 0.01).entangled
    dt = time.monotonic() - t0
    ok = (abs(hank.eps_max - 0.016) < 0.002 and abs(trip.eps_max - 0.016) < 0.002
          and fire_h and fire_t and dt < 120)
    report(7, ok, f"n=300 thresholds hankel5={hank.eps_max:.5f} "
                  f"triple345={trip.eps_max:.5f}, both detect at eps=0.01, {dt:.1f}s")


def test_criterion_8_macwilliams_structure():
    t0 = time.monotonic()
    ok = all(macwilliams(n).mul(macwilliams(n)).is_identity() for n in range(1, 11))
    for n in range(1, 13):
        ok = ok and len(pure_kernel_basis(n)) == (n + 1 + 1) // 2
    for n in range(2, 13, 2):
        ok = ok and len(type2_kernel_basis(n)) == (n + 1 + 5) // 6
    recon = reconstruct_enumerators({0: Fraction(1, 64), 2: 0}, 6, type2=True)
    ok = ok and recon.values == ame6_vector().values
    dt = time.monotonic() - t0
    ok = ok and dt < 30
    report(8, ok, f"involution holds to n=10, kernel dims ceil((n+1)/2) and "
                  f"ceil((n+1)/6) to n=12, perfect-state vector rebuilt from "
                  f"2 entries, {dt:.1f}s")


def test_criterion_9_large_n_trend():
    # informational: the fitted decay exponent is only pinned to a broad band
    t0 = time.monotonic()
    ns = [10, 14, 22, 34, 52, 82, 128, 200]
    eps = [epsilon_max(CriterionSpec("stieltjes", m=7), GHZModel(n)).eps_max
           for n in ns]
    slope = np.polyfit(np.log(ns), np.log(eps), 1)[0]
    alpha = -slope
    big = epsilon_max(CriterionSpec("stieltjes", m=7), GHZModel(1000)).eps_max
    dt = time.monotonic() - t0
    ok = 0.5 <= alpha <= 1.0 and big > 1e-2
    report(9, ok, f"hankel7 threshold ~ n^-{alpha:.3f} over n=10..200, "
                  f"n=1000 threshold {big:.4f} stays above 1e-2, {dt:.1f}s")


def test_criterion_10_ghz_setup_independent_of_n():
    # the moments cost the same at any n, so building the model must too:
    # the support enumerator (n + 1 big fractions) is only built for
    # fidelity and purity
    t0 = time.monotonic()
    v = evaluate(CriterionSpec("stieltjes", m=7), GHZModel(20000), 0.01)
    dt = time.monotonic() - t0
    report(10, dt < 2, f"n=20000 stieltjes:7 verdict at eps=0.01 "
                       f"({v.status}) in {dt:.2f}s")
