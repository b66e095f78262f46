"""Noise-threshold bisection, model routing, and figure sweeps."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ptml.criteria import Verdict, ppt_verdict
from ptml.pauli import Bipartition, state_catalog
from ptml.spectra import ghz_local_spectrum, ppt_threshold_ghz
from ptml.dense import state_from_group
from ptml.enumerators import exact_decayed, ghz_sl_vector, marginal_enumerators
from ptml.thresholds import (
    CriterionSpec,
    DenseModel,
    GHZModel,
    GHZStabilizerModel,
    GlobalNoiseModel,
    StabilizerModel,
    _check_dominance,
    epsilon_max,
    epsilon_max_battery,
    evaluate,
    fig1_criteria,
    fig2_criteria,
    make_model,
    sweep_fig1,
    sweep_fig2,
)
from stabilizers import encloses, random_cut, random_group


def balanced(n):
    return Bipartition(n, frozenset(range(1, n // 2 + 1)))


# ---------------------------------------------------------------- specs


def test_criterion_spec_labels():
    assert CriterionSpec("ppt").label == "ppt"
    assert CriterionSpec("stieltjes", m=5).label == "stieltjes:5"
    assert CriterionSpec("klm", triple=(3, 4, 5)).label == "klm:3,4,5"
    assert CriterionSpec("descartes", m=4).label == "descartes:4"


def test_criterion_spec_parse_roundtrip():
    for text in ["ppt", "fidelity", "purity", "stieltjes:7", "descartes:12", "klm:1,2,3"]:
        assert CriterionSpec.parse(text).label == text


def test_parse_p3ppt_alias():
    spec = CriterionSpec.parse("p3ppt")
    assert spec.kind == "klm" and spec.triple == (1, 2, 3)


def test_criterion_spec_validation():
    with pytest.raises(ValueError):
        CriterionSpec("stieltjes", m=4)  # even order
    with pytest.raises(ValueError):
        CriterionSpec("klm", triple=(2, 2, 3))
    with pytest.raises(ValueError):
        CriterionSpec("stieltjes")  # missing order
    with pytest.raises(ValueError):
        CriterionSpec.parse("klm:3")
    with pytest.raises(ValueError):
        CriterionSpec.parse("mystery")
    with pytest.raises(ValueError, match="unknown criterion kind 'foo'"):
        CriterionSpec("foo")
    with pytest.raises(ValueError, match="ppt takes no parameters"):
        CriterionSpec.parse("ppt:3")
    # a parameter the kind ignores is refused, so specs of one label are
    # equal
    for kwargs, want in (({"kind": "ppt", "m": 3},
                          "ppt takes no moment order"),
                         ({"kind": "klm", "m": 9, "triple": (1, 2, 3)},
                          "klm takes no moment order"),
                         ({"kind": "stieltjes", "m": 3, "triple": (1, 2, 3)},
                          "stieltjes takes no triple"),
                         ({"kind": "fidelity", "triple": (1, 2, 3)},
                          "fidelity takes no triple")):
        with pytest.raises(ValueError, match=want):
            CriterionSpec(**kwargs)


def test_max_order():
    assert CriterionSpec("stieltjes", m=7).max_order == 7
    assert CriterionSpec("klm", triple=(3, 4, 5)).max_order == 5
    assert CriterionSpec("ppt").max_order == 0


def test_p3ppt_equals_stieltjes3_threshold():
    model = GHZModel(4)
    a = epsilon_max(CriterionSpec.parse("p3ppt"), model, tol=1e-7)
    b = epsilon_max(CriterionSpec.parse("stieltjes:3"), model, tol=1e-7)
    assert abs(a.eps_max - b.eps_max) < 1e-6


# ---------------------------------------------------------------- models


def test_make_model_routing():
    assert type(make_model("ghz", 4)) is GHZStabilizerModel
    assert type(make_model("ghz", 40)) is GHZModel
    assert type(make_model("ame6", 6)) is StabilizerModel
    assert isinstance(make_model("ghz", 4, model="dense"), DenseModel)
    assert type(make_model("ghz", 4, model="enumerator")) is StabilizerModel
    # the closed form takes GHZ on every cut of every n
    for n in (2, 3, 5, 8, 15, 40):
        for cut in ({1}, set(range(1, n)), set(range(2, n + 1, 2))):
            model = GHZModel(n, Bipartition(n, frozenset(cut)))
            assert model.a == len(cut), (n, cut)


def test_make_model_global_noise_routing():
    assert isinstance(make_model("ghz", 4, noise="global"), GlobalNoiseModel)
    assert isinstance(make_model("ame6", 6, noise="global"), GlobalNoiseModel)
    dense = make_model("ghz", 4, model="dense", noise="global")
    assert isinstance(dense, DenseModel)
    # the dense reference applies the global channel: at eps = 1 every
    # cut sees the maximally mixed state
    assert dense.moments(1.0, 2).p(2) == pytest.approx(1 / 16)
    # no model takes or carries a working precision
    for model in (make_model("ghz", 4, noise="global"), make_model("ame6", 6),
                  make_model("ghz", 4), make_model("ghz", 16), dense):
        assert not hasattr(model, "digits")
    with pytest.raises(TypeError):
        make_model("ghz", 4, digits=90)


def test_make_model_errors():
    with pytest.raises(ValueError):
        make_model("ghz", 3)  # balanced cut needs even n
    with pytest.raises(ValueError):
        make_model("ame6", 6, model="analytic_spectrum")
    with pytest.raises(ValueError):
        make_model("nope", 2)
    with pytest.raises(ValueError):
        make_model("ghz", 4, model="enumerator", noise="global")
    with pytest.raises(ValueError):
        make_model("ghz", 4, noise="dephasing")
    # an unknown model name is refused, never routed somewhere else
    for name, n, model in (("ghz", 4, "analytic_spectrum"), ("ghz", 4, "Dense"),
                           ("ame6", 6, "analytic")):
        with pytest.raises(ValueError, match="unknown model"):
            make_model(name, n, model=model)
    # the GHZ marginal purity needs both sides of the cut nonempty
    for cut in (set(), {1, 2, 3, 4}):
        with pytest.raises(ValueError):
            make_model("ghz", 4, bip=Bipartition(4, frozenset(cut)))


def test_make_model_validates_the_cut():
    # a cut on another qubit count is refused, never read on n qubits
    for name in ("ame6", "ghz"):
        with pytest.raises(ValueError, match="on 8 qubits"):
            make_model(name, 6, Bipartition(8, frozenset({7})))
    # so is an empty or full side A, on every route
    for model, noise in ((None, "local"), ("enumerator", "local"),
                         ("dense", "local"), (None, "global"),
                         ("dense", "global")):
        for cut in (set(), set(range(1, 7))):
            with pytest.raises(ValueError, match=r"\|A\|"):
                make_model("ame6", 6, Bipartition(6, frozenset(cut)),
                           model=model, noise=noise)


@pytest.mark.parametrize("bip", [Bipartition(6, frozenset({1})),
                                 Bipartition(4, frozenset()),
                                 Bipartition(4, frozenset({1, 2, 3, 4}))],
                         ids=["other-n", "empty", "full"])
def test_every_model_constructor_validates_the_cut(bip):
    g = state_catalog("ghz", 4)
    for build in (lambda: GHZModel(4, bip), lambda: StabilizerModel(g, bip),
                  lambda: GlobalNoiseModel(g, bip),
                  lambda: DenseModel(state_from_group(g), bip, group=g)):
        with pytest.raises(ValueError, match="the cut"):
            build()


def test_models_report_bell_pairs():
    assert GHZModel(6).bell_pairs == 1
    for name, n, cut, r in (("ghz", 4, {1}, 1), ("zero", 4, {1, 2}, 0),
                            ("bell_pairs", 4, {1, 3}, 2),
                            ("bell_pairs", 4, {1, 2}, 0), ("ame6", 6, {1, 2, 3}, 3)):
        bip = Bipartition(n, frozenset(cut))
        for noise in ("local", "global"):
            for model in (None, "dense"):
                got = make_model(name, n, bip, model=model, noise=noise)
                assert got.bell_pairs == r, (name, cut, noise, model)


def test_fidelity_never_fires_without_bell_pairs():
    # a product target certifies nothing, however high the overlap
    for noise in ("local", "global"):
        for model in (None, "dense"):
            m = make_model("zero", 4, model=model, noise=noise)
            res = epsilon_max(CriterionSpec("fidelity"), m)
            assert res.never_fired, (noise, model)
    assert not evaluate(CriterionSpec("fidelity"),
                        make_model("zero", 4), 0.0).entangled


def test_ghz_model_describe():
    assert GHZModel(4).describe() == "ghz n=4 cut=balanced"
    assert GHZModel(6, balanced(6)).describe() == "ghz n=6 cut=balanced"
    # off the balanced cut, the label StabilizerModel prints
    assert (GHZModel(5, Bipartition(5, frozenset({4, 2}))).describe()
            == "ghz n=5 cut=2,4")


def ghz_marginal_vector(s: int) -> tuple:
    """Enumerators of GHZ reduced to s < n qubits, the mixture of |0..0>
    and |1..1>: its Pauli mass is on the even-weight Z strings, C(s, w)/2^s."""
    return tuple(Fraction(0 if w % 2 else math.comb(s, w), 1 << s)
                 for w in range(s + 1))


@pytest.mark.parametrize("n", [2, 4, 6, 12, 40, 5, 9])
def test_ghz_closed_forms_match_enumerator_sums(n):
    a = ghz_sl_vector(n).values
    for s in range(1, n):
        bip = Bipartition(n, frozenset(range(1, s + 1)))
        marginal = ghz_marginal_vector(s)
        if n <= 12:
            assert marginal_enumerators(state_catalog("ghz", n), bip).values \
                == marginal
        model = GHZModel(n, bip)
        for eps in (0.0, 0.1, 0.37, 0.8, 1.0):
            for got, want in zip((model.fidelity(eps), *model.purities(eps)),
                                 (exact_decayed(a, eps),
                                  exact_decayed(a, eps, power=2),
                                  exact_decayed(marginal, eps, power=2))):
                assert encloses(got.lo, got.hi, want), eps


# the grid nodes i/64 and one 29-bit dyadic rate
TABLE_RATES = [i / 64 for i in range(65)] + [0xABCDEF1 / (1 << 29)]


@pytest.mark.parametrize("build", [
    lambda: StabilizerModel(random_group(8, 11), random_cut(8, 11)),
    lambda: StabilizerModel(state_catalog("ame6", 6),
                            Bipartition(6, frozenset({1}))),
    # three levels, none the mirror of another: the unpaired sum alone
    lambda: GlobalNoiseModel(state_catalog("ghz", 6),
                             Bipartition(6, frozenset({1, 2}))),
], ids=["random8", "ame6-1|5", "global-ghz6"])
def test_a_rebuilt_power_sum_table_gives_the_same_moments(build):
    # the first rate builds grown's table for orders 1..3, then for 1..9
    grown, fresh = build(), build()
    for eps in TABLE_RATES:
        low, high = grown.moments(eps, 3).exact, grown.moments(eps, 9).exact
        want = fresh.moments(eps, 9).exact
        assert (low, high) == ((want[0][:3], want[1]), want), eps


def test_ghz_vs_dense_model_thresholds():
    fast = GHZModel(4)
    slow = DenseModel(state_from_group(state_catalog("ghz", 4)), balanced(4),
                      group=state_catalog("ghz", 4))
    # moment criteria see the float route's coarser margin tolerance, which
    # shifts the detected crossing by ~tol/slope; exact-arithmetic rows agree
    # to the bisection bracket
    for name, atol in [("ppt", 1e-6), ("fidelity", 1e-6), ("purity", 1e-6),
                       ("stieltjes:5", 1e-5), ("klm:3,4,5", 1e-5)]:
        spec = CriterionSpec.parse(name)
        a = epsilon_max(spec, fast, tol=1e-8)
        b = epsilon_max(spec, slow, tol=1e-8)
        assert abs(a.eps_max - b.eps_max) < atol, name


def test_stabilizer_vs_dense_model_thresholds():
    g = state_catalog("ame6", 6)
    bip = Bipartition(6, frozenset({1, 2}))
    fast = StabilizerModel(g, bip)
    slow = DenseModel(state_from_group(g), bip, group=g)
    for name, atol in [("klm:3,4,5", 1e-5), ("fidelity", 1e-6), ("purity", 1e-6),
                       ("ppt", 1e-6)]:
        spec = CriterionSpec.parse(name)
        a = epsilon_max(spec, fast, tol=1e-8)
        b = epsilon_max(spec, slow, tol=1e-8)
        assert abs(a.eps_max - b.eps_max) < atol, name
    # the dense route carries float moments whose Hankel tolerance blurs the
    # last ~1e-3 of the Stieltjes threshold; the enumerator route is exact
    spec = CriterionSpec.parse("stieltjes:5")
    a = epsilon_max(spec, fast, tol=1e-8)
    b = epsilon_max(spec, slow, tol=1e-8)
    assert abs(a.eps_max - b.eps_max) < 2e-3
    assert a.eps_max >= b.eps_max - 1e-8



# ame6 on every cut, and two random states with random cuts per n <= 7.
PPT_CASES = ([("ame6", Bipartition(6, frozenset(a)))
              for s in range(1, 6) for a in combinations(range(1, 7), s)]
             + [(f"random{n}/{seed}", random_cut(n, seed))
                for n in range(2, 8) for seed in (n, 10 + n)])


def _ppt_pair(name, bip):
    if name == "ame6":
        g = state_catalog("ame6", 6)
    else:
        n, seed = map(int, name[6:].split("/"))
        g = random_group(n, seed)
    return (StabilizerModel(g, bip),
            DenseModel(state_from_group(g), bip, group=g))


@pytest.mark.parametrize("name,bip", PPT_CASES)
def test_stabilizer_ppt_matches_dense(name, bip):
    fast, slow = _ppt_pair(name, bip)
    for eps in np.linspace(0, 1, 11):
        a, b = fast.ppt(eps), slow.ppt(eps)
        assert abs(float(a.margin) - b.margin) < 1e-12, eps
        assert a.entangled == b.entangled, eps


@pytest.mark.parametrize("name,bip", PPT_CASES[::6])
def test_stabilizer_ppt_threshold_matches_dense(name, bip):
    fast, slow = _ppt_pair(name, bip)
    a = epsilon_max(CriterionSpec("ppt"), fast)
    b = epsilon_max(CriterionSpec("ppt"), slow)
    assert abs(a.eps_max - b.eps_max) < 1e-8
    assert a.never_fired == b.never_fired


def test_stabilizer_ppt_past_the_dense_cap():
    # 14 generators: the character spectrum needs no 2^14 x 2^14 matrix
    g = state_catalog("ghz", 14)
    v = StabilizerModel(g, Bipartition(14, frozenset({1, 2, 3}))).ppt(0.1)
    assert v.entangled


# Catalog states and every prefix cut size up to n = 6.
GLOBAL_CASES = [(name, n, s) for name, ns in (("ghz", (2, 3, 4, 5, 6)),
                                              ("zero", (2, 3, 4)),
                                              ("bell_pairs", (2, 4, 6)),
                                              ("ame6", (6,)))
                for n in ns for s in range(1, n)]
GLOBAL_EPS = (0.0, 0.13, 0.5, 0.77, 1.0)


def _global_pair(name, n, s):
    bip = Bipartition(n, frozenset(range(1, s + 1)))
    return (make_model(name, n, bip, noise="global"),
            make_model(name, n, bip, model="dense", noise="global"))


@pytest.mark.parametrize("name,n,s", GLOBAL_CASES)
def test_global_noise_model_matches_dense(name, n, s):
    fast, slow = _global_pair(name, n, s)
    assert isinstance(fast, GlobalNoiseModel)
    for eps in GLOBAL_EPS:
        a, b = fast.moments(eps, 5), slow.moments(eps, 5)
        for k in range(1, 6):
            scale = float(b.ptilde(k))
            assert abs(float(a.p(k)) - b.p(k)) < 1e-12 * scale, (eps, k)
            assert abs(float(a.ptilde(k)) - scale) < 1e-12 * scale, (eps, k)
        assert abs(fast.fidelity(eps) - slow.fidelity(eps)) < 1e-12
        for x, y in zip(fast.purities(eps), slow.purities(eps)):
            assert abs(x - y) < 1e-12
        for kind in ("ppt", "fidelity", "purity"):
            va = evaluate(CriterionSpec(kind), fast, eps)
            vb = evaluate(CriterionSpec(kind), slow, eps)
            assert abs(float(va.margin) - float(vb.margin)) < 1e-9, kind
            if abs(float(vb.margin)) > 1e-9:
                assert va.entangled == vb.entangled, (kind, eps)


@pytest.mark.parametrize("name,n,s", [("ghz", 2, 1), ("ghz", 5, 2),
                                      ("bell_pairs", 4, 1),
                                      ("bell_pairs", 6, 3), ("ame6", 6, 3)])
def test_global_noise_vs_dense_model_thresholds(name, n, s):
    fast, slow = _global_pair(name, n, s)
    for label, atol in [("ppt", 1e-6), ("fidelity", 1e-6), ("purity", 1e-6),
                        ("stieltjes:3", 1e-5), ("klm:1,2,3", 1e-5)]:
        spec = CriterionSpec.parse(label)
        a = epsilon_max(spec, fast, tol=1e-8)
        b = epsilon_max(spec, slow, tol=1e-8)
        assert abs(a.eps_max - b.eps_max) < atol, label
        assert a.never_fired == b.never_fired, label


@pytest.mark.parametrize("name,n,s", GLOBAL_CASES)
def test_global_noise_ppt_threshold_closed_form(name, n, s):
    # lambda_- = eps/2^n - (1-eps)/2^r < 0 exactly when eps < 2^n/(2^n+2^r)
    fast, _ = _global_pair(name, n, s)
    r = fast.bell_pairs
    res = epsilon_max(CriterionSpec("ppt"), fast)
    if r == 0:
        assert res.never_fired
    else:
        assert abs(res.eps_max - 2 ** n / (2 ** n + 2 ** r)) < 1e-8
    if (name, n) == ("ghz", 2):
        assert abs(res.eps_max - 2 / 3) < 1e-8


def test_dominance_violation_raises_runtime_error():
    rows = [{"n": 4, "criterion": "stieltjes:3", "eps_max": 0.1},
            {"n": 4, "criterion": "klm:1,2,3", "eps_max": 0.2}]
    with pytest.raises(RuntimeError, match="stieltjes:3"):
        _check_dominance(rows, "n", 1e-9)
    # descartes past stieltjes at the same order is only reported
    rows = [{"n": 4, "criterion": "stieltjes:3", "eps_max": 0.1},
            {"n": 4, "criterion": "descartes:3", "eps_max": 0.2}]
    with pytest.warns(UserWarning, match="descartes:3 threshold 0.2 exceeds"):
        _check_dominance(rows, "n", 1e-9)


def test_dominance_checks_every_triple_of_an_order():
    # a violating triple is caught whatever row follows it
    rows = [{"n": 4, "criterion": "stieltjes:7", "eps_max": 0.1},
            {"n": 4, "criterion": "klm:5,6,7", "eps_max": 0.2},
            {"n": 4, "criterion": "klm:3,6,7", "eps_max": 0.05}]
    for order in (rows, rows[::-1]):
        with pytest.raises(RuntimeError, match="klm threshold 0.2 at 4"):
            _check_dominance(order, "n", 1e-9)


def test_dense_model_fidelity_needs_group():
    rho = state_from_group(state_catalog("ghz", 4))
    model = DenseModel(rho, balanced(4))
    with pytest.raises(ValueError):
        model.fidelity(0.1)


# ------------------------------------------------------------- bisection


def test_ghz_ppt_threshold_matches_closed_form():
    # n = 200 and 1000 put the PT eigenvalues near the threshold far below
    # any absolute decision tolerance
    for n in (2, 4, 6, 8, 200, 1000):
        res = epsilon_max(CriterionSpec("ppt"), GHZModel(n))
        assert abs(res.eps_max - ppt_threshold_ghz(n)) < 1e-8
        assert res.bracket <= 1e-9
        assert res.iterations > 0
        assert res.never_fired is False and res.non_monotone is False


def test_ghz_closed_form_ppt_matches_spectrum_oracle():
    for n in (2, 4, 6, 10):
        model = GHZModel(n)
        for i in range(41):
            eps = i / 40
            got = model.ppt(eps)
            s = ghz_local_spectrum(n, eps)
            want = ppt_verdict(s.min_eigenvalue())
            assert got.entangled == want.entangled, (n, eps)
            if want.entangled:
                assert abs(got.margin - want.margin) < 1e-40


GHZ12_PINNED = {"descartes:7": 0.126052598469,
                "stieltjes:7": 0.318571564741,
                "klm:5,6,7": 0.212455541827}


@pytest.mark.parametrize("label,want", GHZ12_PINNED.items(),
                         ids=list(GHZ12_PINNED))
def test_ghz12_moment_thresholds_pinned(label, want):
    # pinned to the spectrum power-sum route (ghz_local_spectrum plus
    # moments_from_spectrum, wrapped as a model and run through
    # epsilon_max), to which the closed form must agree
    res = epsilon_max(CriterionSpec.parse(label), GHZModel(12))
    assert abs(res.eps_max - want) < 1e-9


def test_bracketing_invariant():
    res = epsilon_max(CriterionSpec("stieltjes", m=5), GHZModel(4))
    model = GHZModel(4)
    spec = CriterionSpec("stieltjes", m=5)
    inside = evaluate(spec, model, res.eps_max - 10 * max(res.bracket, 1e-12))
    outside = evaluate(spec, model, res.eps_max + 10 * max(res.bracket, 1e-12))
    assert inside.entangled
    assert not outside.entangled


def test_fidelity_threshold_ghz2():
    res = epsilon_max(CriterionSpec("fidelity"), GHZModel(2))
    assert abs(res.eps_max - (1 - 1 / math.sqrt(3))) < 1e-8


def test_never_fired_flag():
    # an even-ended consecutive triple is blocked by Cauchy-Schwarz on any
    # real PT spectrum, so it can never detect anything
    res = epsilon_max(CriterionSpec("klm", triple=(2, 3, 4)), GHZModel(4))
    assert res.never_fired
    assert res.eps_max == 0.0
    assert res.bracket == 0.0
    assert "never_fired" in res.flags


def test_result_flags_empty_when_clean():
    res = epsilon_max(CriterionSpec("ppt"), GHZModel(2))
    assert res.flags == ""


class FakeModel:
    """Scripted verdicts for exercising the bisection edge cases: no
    depolarized state's, so no theorem may skip a node."""

    separable_from = None

    def __init__(self, fire):
        self._fire = fire

    def ppt(self, eps):
        hit = self._fire(eps)
        return Verdict(hit, lambda: 1.0 if hit else -1.0, exact=False)

    def describe(self):
        return "scripted"


def test_non_monotone_detection_and_final_crossing():
    model = FakeModel(lambda e: e < 0.3 or 0.5 < e < 0.7)
    res = epsilon_max(CriterionSpec("ppt"), model, tol=1e-6)
    assert res.non_monotone
    assert abs(res.eps_max - 0.7) < 1e-5
    assert "non_monotone" in res.flags


def test_strict_mode_raises_with_grid_embedded():
    model = FakeModel(lambda e: e < 0.3 or 0.5 < e < 0.7)
    with pytest.raises(ValueError) as err:
        epsilon_max(CriterionSpec("ppt"), model, strict=True)
    assert "0.3" in str(err.value) or "flip" in str(err.value)


def test_strict_mode_passes_on_monotone_scan():
    res = epsilon_max(CriterionSpec("ppt"), GHZModel(2), strict=True)
    assert abs(res.eps_max - ppt_threshold_ghz(2)) < 1e-8


def test_fires_at_one_is_an_error():
    model = FakeModel(lambda e: True)
    with pytest.raises(ValueError, match="eps = 1"):
        epsilon_max(CriterionSpec("ppt"), model)


def test_threshold_search_never_explains_a_verdict(monkeypatch):
    built, explained = [], []
    init = Verdict.__init__

    def counting(self, entangled, margin, exact=True):
        def counted():
            explained.append(1)
            return margin()

        built.append(1)
        init(self, entangled, counted, exact)

    monkeypatch.setattr(Verdict, "__init__", counting)
    specs = fig2_criteria([3, 5])
    for model in (make_model("ame6", 6, Bipartition(6, frozenset({1}))),
                  GHZModel(4), make_model("ghz", 4, model="dense")):
        epsilon_max_battery(specs, model)
    assert len(built) > 3 * 65 * len(specs) and explained == []


def test_epsilon_max_validation():
    with pytest.raises(ValueError):
        epsilon_max(CriterionSpec("ppt"), GHZModel(2), tol=0.0)


def test_tol_below_float_spacing_is_refused():
    # bisection stalls once the midpoint rounds to an end: one float64 ulp
    # near 0.4 is 5.55e-17, so 1e-20 can never be met
    model = make_model("ame6", 6, Bipartition(6, frozenset({1, 2, 3})))
    with pytest.raises(ValueError, match=r"narrowest bracket there is 2\.78e-17"):
        epsilon_max(CriterionSpec("ppt"), model, tol=1e-20)
    res = epsilon_max(CriterionSpec("ppt"), model, tol=1e-16)
    assert res.bracket <= 1e-16


# ---------------------------------------------------------------- sweeps


def test_fig1_criteria_default_set():
    labels = [c.label for c in fig1_criteria()]
    assert "ppt" in labels
    assert "stieltjes:3" in labels and "stieltjes:7" in labels
    assert "klm:1,2,3" in labels and "klm:3,6,7" in labels
    assert "fidelity" in labels and "purity" in labels


def test_sweep_fig1_rows():
    crits = (CriterionSpec("ppt"), CriterionSpec("stieltjes", m=3),
             CriterionSpec("klm", triple=(1, 2, 3)), CriterionSpec("fidelity"))
    rows = sweep_fig1((4, 2), criteria=crits)
    assert {r["n"] for r in rows} == {2, 4}
    assert all(set(r) == {"n", "criterion", "eps_max", "bracket", "flags"} for r in rows)
    # canonical order: sorted by n, then criterion key, regardless of input order
    assert [r["n"] for r in rows] == sorted(r["n"] for r in rows)
    ppt4 = next(r for r in rows if r["n"] == 4 and r["criterion"] == "ppt")
    assert abs(ppt4["eps_max"] - ppt_threshold_ghz(4)) < 1e-7


def test_sweep_fig1_determinism():
    crits = (CriterionSpec("ppt"), CriterionSpec("stieltjes", m=3))
    assert sweep_fig1((2,), criteria=crits) == sweep_fig1((2,), criteria=crits)


def test_sweeps_run_each_cut_and_criterion_once():
    assert (sweep_fig2(m_range=[3], cut_sizes=(1, 1))
            == sweep_fig2(m_range=[3], cut_sizes=(1,)))
    ppt = CriterionSpec("ppt")
    assert len(sweep_fig1((2,), criteria=(ppt, ppt))) == 1
    # a triple given as a list names the same criterion as the tuple
    p3 = (CriterionSpec("klm", triple=[1, 2, 3]),
          CriterionSpec("klm", triple=(1, 2, 3)))
    assert p3[0] == p3[1]
    assert len(sweep_fig1((2,), criteria=p3)) == 1


def test_sweep_fig2_row_gating():
    rows = sweep_fig2(m_range=range(3, 7), cut_sizes=(3,))
    crits = {r["criterion"] for r in rows}
    # odd orders only for Hankel and consecutive-triple rows
    assert "stieltjes:3" in crits and "stieltjes:5" in crits
    assert "stieltjes:4" not in crits and "stieltjes:6" not in crits
    assert "klm:1,2,3" in crits and "klm:3,4,5" in crits
    assert "klm:2,3,4" not in crits
    # sign-rule rows run at every order
    for m in (3, 4, 5, 6):
        assert f"descartes:{m}" in crits
    # reference rows have a blank order column
    for r in rows:
        if r["criterion"] in ("ppt", "fidelity", "purity"):
            assert r["m"] == ""
        else:
            assert isinstance(r["m"], int)
    assert all(r["cut"] == "3|3" for r in rows)


def test_sweep_fig2_rejects_bad_orders():
    with pytest.raises(ValueError):
        sweep_fig2(m_range=range(2, 5))
    with pytest.raises(ValueError):
        sweep_fig2(m_range=range(3, 40))


def test_sweep_fig2_dominance_columns():
    rows = sweep_fig2(m_range=range(3, 6), cut_sizes=(1,))
    by = {(r["criterion"]): r["eps_max"] for r in rows}
    # the Hankel threshold dominates the matching consecutive triple
    assert by["stieltjes:5"] >= by["klm:3,4,5"] - 1e-8
    assert by["stieltjes:3"] >= by["klm:1,2,3"] - 1e-8
    # and neither exceeds the exact PPT threshold
    assert by["stieltjes:5"] <= by["ppt"] + 1e-8
