"""Noise-threshold bisection, model routing, and figure sweeps."""

import math

import pytest

from ptml.criteria import Verdict, ppt_verdict
from ptml.pauli import Bipartition, state_catalog
from ptml.spectra import ghz_local_spectrum, ppt_threshold_ghz
from ptml.dense import state_from_group
from ptml.thresholds import (
    CriterionSpec,
    DenseModel,
    GHZModel,
    StabilizerModel,
    ThresholdResult,
    epsilon_max,
    evaluate,
    fig1_criteria,
    make_model,
    sweep_fig1,
    sweep_fig2,
)


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
    assert isinstance(make_model("ghz", 4), GHZModel)
    assert isinstance(make_model("ghz", 4, model="analytic_spectrum"), GHZModel)
    assert isinstance(make_model("ame6", 6), StabilizerModel)
    assert isinstance(make_model("ghz", 4, model="dense"), DenseModel)
    assert isinstance(make_model("ghz", 4, bip=Bipartition(4, frozenset({1}))),
                      StabilizerModel)


def test_make_model_errors():
    with pytest.raises(ValueError):
        make_model("ghz", 3)  # balanced cut needs even n
    with pytest.raises(ValueError):
        make_model("ame6", 6, model="analytic_spectrum")
    with pytest.raises(ValueError):
        make_model("nope", 2)


def test_ghz_model_describe():
    assert "ghz" in GHZModel(4).describe()


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
            want = ppt_verdict(ghz_local_spectrum(n, eps))
            assert got.entangled == want.entangled, (n, eps)
            if want.entangled:
                assert abs(got.witness["min_eigenvalue"]
                           - want.witness["min_eigenvalue"]) < 1e-40


@pytest.mark.parametrize("label,want", [
    ("descartes:7", 0.126052598159),
    ("stieltjes:7", 0.318571564697),
    ("klm:5,6,7", 0.212455540422),
])
def test_ghz12_moment_thresholds_pinned(label, want):
    # pinned to the spectrum power-sum route (ghz_local_spectrum plus
    # moments_from_spectrum), to which the closed form must agree
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
    """Scripted verdicts for exercising the bisection edge cases."""

    def __init__(self, fire):
        self._fire = fire

    def ppt(self, eps):
        hit = self._fire(eps)
        return Verdict(hit, 1.0 if hit else -1.0, None)

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


def test_epsilon_max_validation():
    with pytest.raises(ValueError):
        epsilon_max(CriterionSpec("ppt"), GHZModel(2), tol=0.0)
    with pytest.raises(ValueError):
        epsilon_max(CriterionSpec("ppt"), GHZModel(2), grid_points=3)


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
