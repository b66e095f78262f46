"""Stieltjes past the Hankel rank bound is the PPT verdict.

With D distinct nonzero PT eigenvalues, the order-m Hankel matrix of Hankel
size s = (m+1)/2 >= D is PSD exactly when no eigenvalue is negative, so
thresholds.evaluate decides such an order by the model's exact PPT verdict.
These tests check the shortcut against the integer Hankel elimination it
skips, and the paper's global-noise claim (p_k for k <= 5 suffice) that is
its D = 3 case.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from ptml import criteria
from ptml.cli import main
from ptml.criteria import is_psd_exact
from ptml.pauli import Bipartition
from ptml.thresholds import (GRID_POINTS, CriterionSpec, GHZModel,
                             GlobalNoiseModel, StabilizerModel, epsilon_max,
                             epsilon_max_battery, evaluate, fig2_criteria,
                             make_model)
from stabilizers import random_cut, random_group


def _ame6(s, noise="local"):
    return make_model("ame6", 6, Bipartition(6, frozenset(range(1, s + 1))),
                      noise=noise)


def _hankel_fires(model, eps, m):
    """stieltjes:m by the fraction-free elimination of the integer Hankel
    matrix of the exact moment numerators."""
    a = model.moments(eps, m).exact[0]
    size = (m + 1) // 2
    return not is_psd_exact([a[i:i + size] for i in range(size)])


def test_rank_bounds_per_model():
    assert [_ame6(s).hankel_rank_bound for s in (1, 2, 3)] == [4, 5, 4]
    assert _ame6(2, noise="global").hankel_rank_bound == 3
    assert GHZModel(6).hankel_rank_bound is None
    assert make_model("ghz", 4, model="enumerator").hankel_rank_bound == 5
    assert make_model("ghz", 4, model="dense").hankel_rank_bound is None


# (state, n, side A, Bell pairs r across the cut)
GLOBAL_CASES = [
    ("ghz", 4, (1, 2), 1),
    ("ame6", 6, (1,), 1),
    ("ame6", 6, (1, 2), 2),
    ("bell_pairs", 4, (1, 3), 2),
    ("ame6", 6, (1, 2, 3), 3),
    ("bell_pairs", 8, (1, 3, 5, 7), 4),
    ("bell_pairs", 10, (1, 3, 5, 7, 9), 5),
    ("bell_pairs", 12, (1, 3, 5, 7, 9, 11), 6),
]


@pytest.mark.parametrize("name,n,side,r", GLOBAL_CASES)
def test_global_noise_stieltjes5_is_ppt(name, n, side, r):
    """The paper's closing claim: under global noise p_1..p_5 decide PPT,
    at the threshold 2^n / (2^n + 2^r), for every r."""
    model = make_model(name, n, Bipartition(n, frozenset(side)),
                       noise="global")
    assert model.bell_pairs == r
    exact = 2 ** n / (2 ** n + 2 ** r)
    ppt = epsilon_max(CriterionSpec("ppt"), model)
    st5 = epsilon_max(CriterionSpec("stieltjes", m=5), model)
    assert (st5.eps_max, st5.bracket, st5.flags) == (
        ppt.eps_max, ppt.bracket, ppt.flags)
    assert abs(st5.eps_max - exact) <= st5.bracket
    # the integer Hankel elimination agrees on both sides of the bracket
    assert _hankel_fires(model, st5.eps_max - st5.bracket, 5)
    assert not _hankel_fires(model, st5.eps_max + st5.bracket, 5)
    # p_1..p_3 fall short while a third level (eps / 2^n) is present
    st3 = epsilon_max(CriterionSpec("stieltjes", m=3), model)
    if 2 * r < n:
        assert st3.eps_max < exact - 0.05
    else:
        assert st3.eps_max == ppt.eps_max


def test_stieltjes3_on_global_ghz4():
    model = make_model("ghz", 4, Bipartition(4, frozenset({1, 2})),
                       noise="global")
    st3 = epsilon_max(CriterionSpec("stieltjes", m=3), model)
    assert abs(st3.eps_max - 0.6987) < 1e-4
    assert abs(epsilon_max(CriterionSpec("ppt"), model).eps_max - 8 / 9) < 1e-9


class RecordingPPT:
    """Passes ppt calls on and records the noise rates they ask for."""

    def __init__(self, model):
        self._model = model
        self.seen = []

    def ppt(self, eps):
        self.seen.append(eps)
        return self._model.ppt(eps)

    def describe(self):
        return self._model.describe()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 10 ** 6),
       global_noise=st.booleans(), data=st.data())
def test_shortcut_equals_integer_hankel_elimination(n, seed, global_noise,
                                                    data):
    g, bip = random_group(n, seed), random_cut(n, seed)
    model = (GlobalNoiseModel if global_noise else StabilizerModel)(g, bip)
    d = model.hankel_rank_bound
    assume(d <= 8)
    recorder = RecordingPPT(model)
    root = epsilon_max(CriterionSpec("ppt"), recorder)
    choices = [st.floats(0, 1)]
    if not root.never_fired:
        # the bisection midpoints, and rates within 1e-6 of the PPT root
        choices += [st.sampled_from(recorder.seen[GRID_POINTS:]),
                    st.floats(max(0.0, root.eps_max - 1e-6),
                              min(1.0, root.eps_max + 1e-6))]
    eps = data.draw(st.one_of(*choices), label="eps")
    ppt = model.ppt(eps).entangled
    for m in range(max(2 * d - 1, 1), 2 * d + 4, 2):
        spec = CriterionSpec("stieltjes", m=m)
        assert evaluate(spec, model, eps).entangled == ppt
        assert _hankel_fires(model, eps, m) == ppt


def test_shortcut_runs_no_hankel_elimination(monkeypatch):
    def forbidden(rows):
        raise AssertionError("an integer Hankel matrix was eliminated")

    monkeypatch.setattr(criteria, "is_psd_exact", forbidden)
    r = epsilon_max(CriterionSpec("stieltjes", m=15), _ame6(3))
    assert (f"{r.eps_max:.12g}", r.iterations) == ("0.400073355995", 23)
    # the PPT root on cut 3|3: the least PT eigenvalue vanishes where
    # 1 - 7 q^4 - 2 q^6 = 0, q = 1 - eps
    with mp.workdps(50):
        root = 1 - mp.findroot(lambda q: 1 - 7 * q ** 4 - 2 * q ** 6, 0.6)
        assert abs(r.eps_max - root) <= r.bracket
    for s in (1, 2, 3):
        model = _ame6(s)
        d = model.hankel_rank_bound
        specs = [spec for spec in fig2_criteria(range(3, 31))
                 if spec.kind == "stieltjes" and spec.m >= 2 * d - 1]
        ppt = epsilon_max(CriterionSpec("ppt"), model)
        for got in epsilon_max_battery(specs, model):
            assert (got.eps_max, got.bracket, got.iterations) == (
                ppt.eps_max, ppt.bracket, ppt.iterations)
    with pytest.raises(AssertionError):
        evaluate(CriterionSpec("stieltjes", m=5), _ame6(3), 0.3)


def test_criterion_prints_the_hankel_margin(capsys):
    code = main(["criterion", "--name", "stieltjes:9", "--state", "ame6",
                 "--bip-size", "1", "--noise", "local:0.3"])
    assert code == 0
    assert capsys.readouterr().out == "Entangled margin=4.19672076229e-05\n"
