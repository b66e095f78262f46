"""Weight-enumerator machinery vs dense matrix oracles."""

import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from ptml.pauli import (Bipartition, PauliString, StabilizerGroup, enumerate_group,
                        from_label, state_catalog, theta, weight)
from ptml.dense import (
    _partial_trace_keep,
    depolarize_local,
    fidelity_pure,
    pauli_matrix,
    pt_moments,
    state_from_group,
)
from ptml import enumerators
from ptml.enumerators import (
    _power_sum,
    CWTable,
    SLVector,
    ame_fixture_check,
    character_polys,
    cw_bruteforce,
    cw_fourier,
    exact_decayed,
    fidelity_from_enumerators,
    ghz_sl_vector,
    marginal_enumerators,
    noisy_pt_moment,
    noisy_purity,
    pauli_coefficients,
    qwe_bruteforce,
    rains_subsystem_purity,
    sl_decay,
    sl_enumerators,
)
from ptml.thresholds import (
    CriterionSpec,
    StabilizerModel,
    epsilon_max,
)
from stabilizers import random_cut, random_group


RNG = np.random.default_rng(20240819)

EPS_GRID = [0.0, 0.15, 0.4, 0.75, 1.0]

CATALOG = [("ghz", 2), ("ghz", 4), ("zero", 3), ("bell_pairs", 4), ("ame6", 6)]


def random_state(n):
    d = 1 << n
    g = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def all_bips(n):
    for s in range(1, n // 2 + 1):
        yield Bipartition(n, frozenset(range(1, s + 1)))


def test_pauli_coefficients_are_traces():
    rho = random_state(2)
    coef = pauli_coefficients(rho)
    for x in range(4):
        for z in range(4):
            p = PauliString(2, x, z, 0)
            want = np.trace(rho @ pauli_matrix(p)).real
            assert abs(coef[x | (z << 2)] - want) < 1e-12


def test_sl_enumerators_routes_agree():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        a_stab = sl_enumerators(g)
        a_dense = sl_enumerators(state_from_group(g))
        assert all(isinstance(v, Fraction) for v in a_stab.values)
        assert np.allclose([float(v) for v in a_stab.values], a_dense.values, atol=1e-12)
        assert abs(sum(a_dense.values) - float(2 ** n) / 2 ** n * sum(float(v) for v in a_stab.values)) < 1e-12


def test_sl_known_vectors():
    assert ghz_sl_vector(2).values == (Fraction(1, 4), 0, Fraction(3, 4))
    ame = sl_enumerators(state_catalog("ame6", 6))
    assert ame.values == tuple(Fraction(c, 64) for c in (1, 0, 0, 0, 45, 0, 18))


def test_ghz_sl_vector_matches_group_count():
    for n in (2, 4, 6, 8):
        assert ghz_sl_vector(n).values == sl_enumerators(state_catalog("ghz", n)).values


def test_sl_enumerators_validation():
    with pytest.raises(ValueError):
        sl_enumerators(state_catalog("ghz", 2), mode="nope")
    # a state group must have exactly n independent generators
    with pytest.raises(ValueError):
        StabilizerGroup(2, (from_label("XX"),))
    with pytest.raises(ValueError):
        SLVector(2, (Fraction(1),))
    with pytest.raises(ValueError):
        pauli_coefficients(np.eye(3))


def test_sl_decay():
    a = ghz_sl_vector(4)
    assert sl_decay(a, 0.0).values == a.values
    dead = sl_decay(a, 1.0)
    assert float(dead.values[0]) == float(a.values[0])
    assert all(float(v) == 0 for v in dead.values[1:])
    q = 0.6
    got = sl_decay(a, 1 - q)
    assert np.allclose([float(v) for v in got.values],
                       [float(v) * q ** (2 * w) for w, v in enumerate(a.values)])


def test_noisy_purity_vs_dense():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        a = sl_enumerators(g)
        rho = state_from_group(g)
        for eps in EPS_GRID:
            noisy = depolarize_local(rho, eps)
            want = np.trace(noisy @ noisy).real
            assert abs(float(noisy_purity(a, eps)) - want) < 1e-12


def test_fidelity_vs_dense():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        a = sl_enumerators(g)
        rho = state_from_group(g)
        for eps in EPS_GRID:
            want = fidelity_pure(depolarize_local(rho, eps), g)
            assert abs(float(fidelity_from_enumerators(a, eps)) - want) < 1e-12


def test_rains_subsystem_purity_is_subset_average():
    # from the weight distribution alone only the average over size-s
    # subsets is recoverable; bell_pairs has genuinely unequal cuts
    g = state_catalog("bell_pairs", 4)
    a = sl_enumerators(g)
    rho = state_from_group(g)
    for eps in (0.0, 0.3, 0.8):
        noisy = depolarize_local(rho, eps)
        for s in (1, 2):
            vals = []
            for subset in combinations(range(4), s):
                mask = sum(1 << b for b in subset)
                red = _partial_trace_keep(noisy, mask, 4)
                vals.append(np.trace(red @ red).real)
            assert abs(float(rains_subsystem_purity(a, eps, s=s)) - np.mean(vals)) < 1e-12


def test_stab_subsystem_purity_vs_dense_per_cut():
    g = state_catalog("bell_pairs", 4)
    rho = state_from_group(g)
    for a_set in ({1, 2}, {1, 3}, {1}):
        bip = Bipartition(4, frozenset(a_set))
        for eps in (0.0, 0.3, 0.8):
            noisy = depolarize_local(rho, eps)
            red = _partial_trace_keep(noisy, bip.a_mask, 4)
            want = np.trace(red @ red).real
            got = noisy_purity(marginal_enumerators(g, bip), eps)
            assert abs(float(got) - want) < 1e-12


def test_character_polys_bell():
    cp = character_polys(state_catalog("ghz", 2), Bipartition(2, frozenset({1})))
    assert cp.plus_set == (((1, 0, 3), 1), ((1, 0, -1), 3))
    assert cp.minus_set == (((1, 0, 1), 3), ((1, 0, -3), 1))


def test_character_poly_multiplicities_cover_group():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        for bip in all_bips(n):
            cp = character_polys(g, bip)
            assert sum(m for _, m in cp.plus_set) == 1 << n
            assert sum(m for _, m in cp.minus_set) == 1 << n


def test_cw_fourier_matches_bruteforce():
    for name, n in CATALOG:
        g = state_catalog(name, n)
        kmax = 3 if n >= 6 else 4
        for bip in all_bips(n):
            chars = character_polys(g, bip)
            for k in range(1, kmax + 1):
                a = cw_fourier(g, bip, k, chars)
                b = cw_bruteforce(g, bip, k)
                assert a.cplus == b.cplus
                assert a.cminus == b.cminus


def test_cw_reconstructs_dense_moments():
    for name, n in [("ghz", 4), ("bell_pairs", 4), ("zero", 3)]:
        g = state_catalog(name, n)
        rho = state_from_group(g)
        for bip in all_bips(n):
            for k in range(1, 6):
                tab = cw_fourier(g, bip, k)
                for eps in EPS_GRID:
                    want = pt_moments(depolarize_local(rho, eps), bip, max(k, 1)).p(k)
                    assert abs(noisy_pt_moment(tab, eps) - want) < 1e-9


def test_cw_k1_and_k2_specials():
    g = state_catalog("ghz", 4)
    bip = Bipartition(4, frozenset({1, 2}))
    t1 = cw_fourier(g, bip, 1)
    assert noisy_pt_moment(t1, 0.37) == pytest.approx(1.0)
    # second moment is the purity, blind to the cut
    t2 = cw_fourier(g, bip, 2)
    a = sl_enumerators(g)
    for eps in EPS_GRID:
        assert abs(noisy_pt_moment(t2, eps) - float(noisy_purity(a, eps))) < 1e-12
    assert t2.cminus == {}
    assert t2.cplus == {2 * w: int(v * 4 ** 4 / 16) for w, v in enumerate(a.values) if v}


def test_cw_difference_poly_ghz2():
    tab = cw_fourier(state_catalog("ghz", 2), Bipartition(2, frozenset({1})), 3)
    assert tab.difference_poly() == [1, 0, 0, 0, 9, 0, -6]


def test_cw_total_counts_tuples():
    g = state_catalog("ghz", 2)
    bip = Bipartition(2, frozenset({1}))
    for k in (1, 2, 3, 4):
        tab = cw_fourier(g, bip, k)
        assert tab.total() == 4 ** (k - 1)


def test_qwe_matches_dense_on_random_states():
    for n, kmax in [(2, 5), (3, 4)]:
        rho = random_state(n)
        bip = Bipartition(n, frozenset({1}))
        for k in range(1, kmax + 1):
            tab = qwe_bruteforce(rho, bip, k)
            for eps in EPS_GRID:
                want = pt_moments(depolarize_local(rho, eps), bip, k).p(k)
                assert abs(noisy_pt_moment(tab, eps) - want) < 1e-9


def test_qwe_agrees_with_cw_on_stabilizer_state():
    g = state_catalog("ghz", 3)
    rho = state_from_group(g)
    bip = Bipartition(3, frozenset({1}))
    for k in (2, 3, 4):
        qt = qwe_bruteforce(rho, bip, k)
        ct = cw_fourier(g, bip, k)
        for eps in (0.0, 0.25, 0.6):
            assert abs(noisy_pt_moment(qt, eps) - noisy_pt_moment(ct, eps)) < 1e-9


def test_budget_errors():
    g = state_catalog("ame6", 6)
    bip = Bipartition(6, frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        cw_bruteforce(g, bip, 4, budget=1000)
    with pytest.raises(ValueError):
        qwe_bruteforce(random_state(3), Bipartition(3, frozenset({1})), 4, budget=1000)


def test_noisy_pt_moment_validation():
    tab = cw_fourier(state_catalog("ghz", 2), Bipartition(2, frozenset({1})), 3)
    with pytest.raises(ValueError):
        noisy_pt_moment(tab, -0.1)
    with pytest.raises(ValueError):
        noisy_pt_moment(tab, 1.5)
    with pytest.raises(TypeError):
        noisy_pt_moment({"not": "a table"}, 0.3)


def test_noisy_pt_moment_mpf_path():
    tab = cw_fourier(state_catalog("ame6", 6), Bipartition(6, frozenset({1})), 3)
    with mp.workdps(50):
        hi = noisy_pt_moment(tab, mpf("0.3"))
        lo = noisy_pt_moment(tab, 0.3)
        assert isinstance(hi, mpf)
        assert abs(float(hi) - lo) < 1e-12


def test_zero_state_moments_are_one():
    # product |0..0> is PPT across every cut: p_k = 1 at eps = 0
    g = state_catalog("zero", 3)
    for bip in all_bips(3):
        for k in (2, 3, 4):
            assert noisy_pt_moment(cw_fourier(g, bip, k), 0.0) == pytest.approx(1.0)


def test_ame_fixture_check_passes():
    out = ame_fixture_check()
    assert out["ok"] is True
    assert out["failures"] == []
    assert set(out["cases"]) == {"0|6", "1|5", "2|4", "3|3"}


# ------------------------------------------------- packed power sums


def naive_power_sum(polys, k, length):
    out = [0] * length
    for p, mult in polys:
        acc = [1]
        for _ in range(k):
            acc = [sum(acc[i] * p[j - i] for i in range(len(acc))
                       if 0 <= j - i < len(p))
                   for j in range(len(acc) + len(p) - 1)]
        for w, c in enumerate(acc):
            out[w] += mult * c
    return out


@st.composite
def poly_sets(draw):
    polys = draw(st.dictionaries(
        st.lists(st.integers(-40, 40), min_size=1, max_size=6).map(tuple),
        st.integers(1, 9), min_size=1, max_size=6))
    if draw(st.booleans()):
        # add every mirror P(-z) at the same multiplicity, as a character
        # set has them
        for p, m in list(polys.items()):
            polys.setdefault(tuple(c if w % 2 == 0 else -c
                                   for w, c in enumerate(p)), m)
    return list(polys.items())


@given(poly_sets(), st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_power_sum_matches_convolution(polys, k):
    length = (max(len(p) for p, _ in polys) - 1) * k + 1
    assert _power_sum(polys, k, length) == naive_power_sum(polys, k, length)


def test_power_sum_rejects_short_length():
    with pytest.raises(ValueError, match="digit width"):
        _power_sum([((1, 2, 3), 1)], 2, 4)


@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_cw_fourier_matches_bruteforce_on_random_groups(n, k, seed):
    g, bip = random_group(n, seed), random_cut(n, seed)
    a = cw_fourier(g, bip, k)
    b = cw_bruteforce(g, bip, k)
    assert (a.cplus, a.cminus) == (b.cplus, b.cminus)


def _poly_at(coeffs, q):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


@pytest.mark.parametrize("name,k", [("ame6", 15), ("ame6", 29),
                                    ("random11", 9)])
def test_cw_fourier_high_order_matches_character_sums(name, k):
    # Coefficients pass 2^63 here; at rational q the tables must satisfy
    # the character identities 2^n sum_w (C+ -+ C-)_w q^w
    # = sum_i mult_i P_i(q)^k over the minus and plus sets exactly.
    if name == "ame6":
        g, cuts = state_catalog("ame6", 6), list(all_bips(6))
    else:
        g, cuts = random_group(11, 11), [random_cut(11, 4)]
    n = g.n
    for bip in cuts:
        chars = character_polys(g, bip)
        tab = cw_fourier(g, bip, k, chars)
        diff = tab.difference_poly()
        total = [tab.cplus.get(w, 0) + tab.cminus.get(w, 0)
                 for w in range(n * k + 1)]
        assert max(map(abs, total)) > 2 ** 63
        for q in (Fraction(1, 3), Fraction(5, 7), Fraction(-9, 10)):
            for coeffs, charset in ((diff, chars.minus_set),
                                    (total, chars.plus_set)):
                want = sum(m * _poly_at(p, q) ** k for p, m in charset)
                assert _poly_at(coeffs, q) * 2 ** n == want


def _exact(x):
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def test_stabilizer_moments_are_rounded_once():
    # every moment within one rounding of the exact dyadic value, at a
    # rate whose 1 - eps is not representable at the working precision,
    # near eps = 1, and at a bisection midpoint
    for g, bip in ((state_catalog("ame6", 6), Bipartition(6, frozenset({1, 2, 3}))),
                   (random_group(7, 3), random_cut(7, 8))):
        model = StabilizerModel(g, bip)
        mid = epsilon_max(CriterionSpec.parse("klm:1,2,3"), model).eps_max
        for eps in (1e-300, 0.5, 1 - 1e-16, mid):
            mv = model.moments(eps, 7)
            nums, s = mv.exact
            q = 1 - Fraction(eps)
            for k in range(1, 8):
                diff = cw_fourier(g, bip, k).difference_poly()
                want = _poly_at(diff, q) / 2 ** (g.n * (k - 1))
                err = abs(_exact(mv.p(k)) - want)
                assert err <= abs(want) * Fraction(10) ** -(mv.digits - 1), (eps, k)
                # the numerators the exact verdicts decide on
                assert Fraction(nums[k - 1], 2 ** (s * k)) == want


def _block_cases():
    for name, n in CATALOG:
        bips = list(all_bips(n))
        for bip in bips[:2] + bips[-1:]:
            yield state_catalog(name, n), bip
    for seed in range(6):
        n = 2 + seed % 4
        yield random_group(n, seed), random_cut(n, seed)


@pytest.mark.parametrize("block", [5, 64, enumerators.BRUTEFORCE_BLOCK])
@pytest.mark.parametrize("k", range(1, 6))
def test_cw_bruteforce_blocks_match_fourier(monkeypatch, k, block):
    # the last two free slots run as numpy blocks, whole or in pieces
    # (5 splits every block unevenly, 64 caches a single piece for
    # groups of up to 64 elements)
    monkeypatch.setattr(enumerators, "BRUTEFORCE_BLOCK", block)
    for g, bip in _block_cases():
        if (1 << len(g.generators)) ** (k - 1) > 2 ** 12 * block:
            continue  # at most 4096 pieces, which keeps 5 to small groups
        a = cw_fourier(g, bip, k)
        b = cw_bruteforce(g, bip, k)
        assert (a.cplus, a.cminus) == (b.cplus, b.cminus), (g, bip, k)


def test_cw_bruteforce_blocks_past_one_piece():
    # 256 elements: a pair block of 2^16 tuples runs in four pieces
    g, bip = random_group(8, 5), random_cut(8, 5)
    for k in (2, 3, 4):
        a = cw_fourier(g, bip, k)
        b = cw_bruteforce(g, bip, k)
        assert (a.cplus, a.cminus) == (b.cplus, b.cminus)


def test_cw_bruteforce_budget_message():
    g = state_catalog("ame6", 6)
    bip = Bipartition(6, frozenset({1, 2, 3}))
    # cmd_enumerators reports this error by matching "budget"
    with pytest.raises(ValueError,
                       match=r"^tuple space \|S\|\^\(k-1\) exceeds budget$"):
        cw_bruteforce(g, bip, 4, budget=64 ** 3 - 1)
    assert cw_bruteforce(g, bip, 4, budget=64 ** 3).total() == 64 ** 3


def test_cw_bruteforce_memory_stays_flat():
    g, bip = random_group(10, 3), random_cut(10, 3)
    want = cw_fourier(g, bip, 3)
    tracemalloc.start()
    try:
        got = cw_bruteforce(g, bip, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.cplus, got.cminus) == (want.cplus, want.cminus)
    # 2^20 tuples: one int64 array over all of them would take 8 MiB
    assert peak < 2 * 2 ** 20, peak


def test_plus_set_is_transformed_only_when_read(monkeypatch):
    calls = []
    transform = enumerators._character_set

    def counted(*args):
        calls.append(args)
        return transform(*args)

    monkeypatch.setattr(enumerators, "_character_set", counted)
    g, bip = random_group(5, 7), random_cut(5, 7)
    model = StabilizerModel(g, bip)
    model.moments(0.3, 5)
    model.ppt(0.3)
    assert len(calls) == 1  # the minus set, for the PT spectrum
    chars = character_polys(g, bip)
    assert len(calls) == 2
    plus = chars.plus_set
    assert chars.plus_set is plus and len(calls) == 3
    # the plus set by definition: sum_S chi_v(S) z^wt(S) for every v
    # over the group's elements, indexed by their generator subsets b
    wt = [weight(p) for p in enumerate_group(g)]
    size = len(wt)
    want = {}
    for v in range(size):
        p = [0] * (g.n + 1)
        for b in range(size):
            p[wt[b]] += -1 if (v & b).bit_count() % 2 else 1
        want[tuple(p)] = want.get(tuple(p), 0) + 1
    assert dict(plus) == want


def _element_tables_oracle(g, bip):
    """Weights and PT signs of the PauliString elements, one by one."""
    elements = enumerate_group(g)
    return (np.array([weight(p) for p in elements], dtype=np.int64),
            np.array([theta(p, bip) for p in elements], dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 14), seed=st.integers(0, 10 ** 6))
def test_element_tables_match_the_group_elements(n, seed):
    g, bip = random_group(n, seed), random_cut(n, seed)
    for got, want in zip(enumerators._element_tables(g, bip),
                         _element_tables_oracle(g, bip)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _horner_oracle(values, eps, power):
    q, acc = (1 - Fraction(eps)) ** power, Fraction(0)
    for v in reversed(values):
        acc = acc * q + v
    return acc


def _bisection_point(steps):
    lo, hi = 0.0, 1.0
    for up in steps:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if up else (lo, mid)
    return (lo + hi) / 2


_RATIONALS = st.one_of(
    st.integers(-10 ** 12, 10 ** 12),
    st.builds(lambda a, j: Fraction(a, 1 << j),
              st.integers(-10 ** 12, 10 ** 12), st.integers(0, 80)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_RATIONALS, min_size=1, max_size=14),
       eps=st.one_of(st.sampled_from([0.0, 1.0, 5e-324]),
                     st.lists(st.booleans(), max_size=60).map(_bisection_point)),
       power=st.sampled_from([1, 2]))
def test_exact_decayed_matches_fraction_horner(values, eps, power):
    got = exact_decayed(values, eps, power)
    assert isinstance(got, Fraction)
    assert got == _horner_oracle(values, eps, power)


def test_exact_decayed_at_an_mpf_rate():
    values = [Fraction(1, 64), 0, 0, 0, Fraction(45, 64), 0, Fraction(18, 64)]
    with mp.workprec(200):
        eps = mpf(1) / 3
    want = _horner_oracle(values, Fraction(*to_rational(eps._mpf_)), 2)
    assert exact_decayed(values, eps, 2) == want
