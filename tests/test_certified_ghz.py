"""GHZ past the character cap (thresholds.GHZModel) decided on enclosures:
its bounds hold the exact values, its verdicts equal the exact stabilizer
model's wherever both reach, an exactly representable eps decides with no
escalation, and a verdict does not depend on the caller's precision."""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps, workprec
from mpmath.libmp import dps_to_prec, fone, from_man_exp, mpf_cmp

from ptml import criteria, spectra, thresholds
from ptml.cli import main
from ptml.criteria import build_hankel, hankel_min_eigenvalue
from ptml.pauli import Bipartition
from ptml.spectra import (_ghz_forms, enclose, ghz_local_spectrum,
                          moments_from_spectrum)
from ptml.thresholds import (CriterionSpec, GHZModel, GHZStabilizerModel,
                             epsilon_max, evaluate, make_model)
from stabilizers import encloses

LABELS = (["ppt", "fidelity", "purity"]
          + [f"stieltjes:{m}" for m in (3, 5, 7, 9)]
          + [f"descartes:{m}" for m in range(1, 10)]
          + ["klm:{},{},{}".format(*t)
             for t in itertools.combinations(range(1, 10), 3)])
SPECS = [CriterionSpec.parse(label) for label in LABELS]


def _models(n, a):
    bip = Bipartition(n, frozenset(range(1, a + 1)))
    exact = make_model("ghz", n, bip)
    assert type(exact) is GHZStabilizerModel
    return GHZModel(n, bip), exact


def _verdicts(model, eps):
    p = model.moments(eps, 9)
    return [evaluate(spec, model, eps, p).entangled for spec in SPECS]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 14), cut=st.integers(0, 12),
       eps=st.integers(0, 1 << 29).map(lambda i: i / (1 << 29)))
def test_verdicts_equal_the_exact_stabilizer_model(n, cut, eps):
    fast, exact = _models(n, 1 + cut % (n - 1))
    assert _verdicts(fast, eps) == _verdicts(exact, eps)


@pytest.mark.parametrize("n", range(2, 15))
def test_exact_ends_decide_without_escalating(n, monkeypatch):
    # at eps = 0 and 1 every bound is exact, so no verdict is left open
    def once(test, x):
        hit = test(x)
        assert hit is not None, "escalated"
        return hit, x

    monkeypatch.setattr(criteria, "_certified", once)
    for a in range(1, n):
        fast, exact = _models(n, a)
        for eps in (0.0, 1.0):
            p = fast.moments(eps, 9)
            assert all(lo == hi for lo, hi in zip(*p.bounds))
            assert _verdicts(fast, eps) == _verdicts(exact, eps), (a, eps)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 14), cut=st.integers(0, 12),
       eps=st.integers(0, 1 << 29).map(lambda i: i / (1 << 29)))
def test_bounds_hold_the_exact_numerators(n, cut, eps):
    fast, exact = _models(n, 1 + cut % (n - 1))
    (nums, s), p = exact.moments(eps, 15).exact, fast.moments(eps, 15)
    for k, (lo, hi) in enumerate(zip(*p.bounds), 1):
        assert encloses(lo, hi, Fraction(nums[k - 1], 1 << s * k)), k
    assert fast.ppt(eps).entangled == exact.ppt(eps).entangled
    f, (glob, sub) = fast.fidelity(eps), fast.purities(eps)
    for got, want in zip((f, glob, sub), (exact.fidelity(eps),
                                          *exact.purities(eps))):
        assert encloses(got.lo, got.hi, want)


def _normalized(x):
    sign, man, exp, _ = x
    return from_man_exp(-man if sign else man, exp)


@pytest.mark.parametrize("n, a", [(15, 4), (16, 8), (20, 3), (20, None),
                                  (180, None), (10 ** 8, None)])
def test_every_bound_is_normalized(n, a):
    # a one-term sum used to return its raw exact product: p_1 came out as
    # (0, 2, -1, 2), which mpf_cmp ranks above fone
    model = GHZModel(n, a and Bipartition(n, frozenset(range(1, a + 1))))
    for eps in (0.0, 0.1, 0.25, 0.75, 1.0):
        p, f, (glob, sub) = (model.moments(eps, 9), model.fidelity(eps),
                             model.purities(eps))
        for prec in (model.prec, 406, 812):
            p, f, glob, sub = (x.refine(prec) for x in (p, f, glob, sub))
            lo, hi = p.bounds
            assert mpf_cmp(lo[0], fone) == mpf_cmp(hi[0], fone) == 0
            bounds = [*lo, *hi, f.lo, f.hi, glob.lo, glob.hi, sub.lo, sub.hi,
                      *_ghz_forms(n, model.a, eps, 0, prec)[0]]
            assert all(_normalized(x) == x for x in bounds), (eps, prec)


def test_enclose_evaluates_its_closed_form_once_per_precision():
    calls = []

    def one(*args):
        calls.append(args[0])
        return fone, fone

    enclose(one, 10).refine(20).refine(40)
    assert calls == [10, 20, 40]


@pytest.mark.parametrize("label, eps", [("ppt", 0.540303),
                                        ("fidelity", 0.047232),
                                        ("purity", 0.037663)])
def test_each_model_closed_form_is_evaluated_once_per_precision(
        label, eps, monkeypatch):
    # eps lies within 1e-6 of the criterion's threshold at n = 20, so from 4
    # bits the verdict escalates to 32; each closed form the model hands to
    # enclose (two for purity) is evaluated once at each precision
    calls = collections.defaultdict(list)

    def counting(value, prec):
        def counted(*args):
            calls[value].append(args[0])
            return value(*args)
        return spectra.enclose(counted, prec)

    monkeypatch.setattr(thresholds, "enclose", counting)
    monkeypatch.setattr(GHZModel, "prec", 4)
    evaluate(CriterionSpec(label), GHZModel(20), eps)
    assert list(calls.values()) == [[4, 8, 16, 32]] * (1 + (label == "purity"))


# Printed with a 1e-50 tolerance: 3.5110861063e-07 at 60 digits and
# 3.66009771824e-07 at 150 or 300.
N8_LINE = ("eps_max=3.66009771824e-07 bracket=9.31e-10 iterations=23 "
           "flags=- criterion=stieltjes:7 state=ghz n=100000000 "
           "cut=balanced\n")


@pytest.mark.parametrize("digits", [None, 150])
def test_large_n_threshold_does_not_depend_on_the_precision(digits, capsys):
    assert main(["threshold", "--criterion", "stieltjes:7", "--state", "ghz",
                 "--n", "100000000"]) == 0
    assert capsys.readouterr().out == N8_LINE
    # the verdicts at the bracket ends hold on the model's bounds (None) and
    # on the same bounds refined to the given number of digits
    model = GHZModel(10 ** 8)
    r = epsilon_max(CriterionSpec.parse("stieltjes:7"), model)
    for eps, fires in ((r.eps_max - r.bracket, True),
                       (r.eps_max + r.bracket, False)):
        p = model.moments(eps, 7)
        if digits:
            p = p.refine(dps_to_prec(digits))
            assert p.prec > 2 * model.prec
        assert criteria.stieltjes(p, 7).entangled is fires, (eps, p.prec)


def test_the_default_cut_is_not_built_past_the_cap(monkeypatch, capsys):
    def refused(n):
        raise AssertionError(f"a {n}-qubit cut built")

    def no_group(name, n):
        raise AssertionError(f"a {n}-qubit {name} group built")

    monkeypatch.setattr(Bipartition, "balanced", staticmethod(refused))
    monkeypatch.setattr(thresholds, "state_catalog", no_group)
    assert main(["criterion", "--name", "ppt", "--state", "ghz", "--n",
                 str(10 ** 8), "--noise", "local:0.0000004"]) == 0
    assert capsys.readouterr().out.startswith("Entangled")
    assert GHZModel(10 ** 8).describe() == "ghz n=100000000 cut=balanced"
    with pytest.raises(ValueError, match="odd n"):
        GHZModel(15)


def test_high_order_hankel_threshold_is_certified():
    # 15 x 15 Hankel matrices, below the rank bound 93: lambda_min sits near
    # 1e-400 at the crossing, under the 1e-224 tolerance that put this
    # threshold at 0.148532972671; the 800-digit spectrum agrees
    model = GHZModel(180)
    assert model.hankel_rank_bound == 93
    res = evaluate(CriterionSpec.parse("stieltjes:29"), model, 0.1978)
    assert res.entangled
    assert not evaluate(CriterionSpec.parse("stieltjes:29"), model,
                        0.1979).entangled
    for eps, sign in ((0.1978, -1), (0.1979, 1)):
        p = moments_from_spectrum(ghz_local_spectrum(180, eps, 500), 29)
        with workdps(500):
            assert sign * hankel_min_eigenvalue(build_hankel(p, 29), 500) > 0


@pytest.mark.parametrize("model", [
    GHZModel(20), GHZModel(15, Bipartition(15, frozenset({1, 2, 3}))),
    make_model("ghz", 4, model="dense")], ids=["ghz20", "ghz15-3", "dense4"])
def test_verdicts_do_not_depend_on_the_callers_precision(model):
    def run():
        out = []
        for eps in (0.05, 0.2, 0.5, 0.8):
            p = model.moments(eps, 9)
            for spec in SPECS[:16] + SPECS[16::9]:
                v = evaluate(spec, model, eps, p)
                out.append((v.entangled, getattr(v.margin, "_mpf_", v.margin)))
        return out

    prec = mp.prec
    try:
        mp.prec = 53
        low = run()
    finally:
        mp.prec = prec
    with workprec(300):
        assert run() == low
