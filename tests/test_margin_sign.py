"""A verdict's margin is 0 or has its verdict's sign (positive =
Entangled), on every analytic model and route, at dyadic noise rates like
the ones a threshold search evaluates.  Fidelity with no Bell pair across
the cut is measured against the bound 1 it then uses, so its margin is
never positive.  Only float64 input (the dense oracle) reads its margins
raw: the test builds no dense model."""

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptml.pauli import Bipartition
from ptml.thresholds import CriterionSpec, GHZModel, evaluate, make_model

LABELS = ("ppt", "fidelity", "purity", "stieltjes:3", "stieltjes:7",
          "stieltjes:25", "stieltjes:29", "descartes:2", "descartes:7",
          "klm:1,2,3", "klm:3,4,5", "klm:5,6,7", "klm:3,6,7")
SPECS = [CriterionSpec.parse(label) for label in LABELS]


def _cut(n: int, a: int) -> Bipartition:
    return Bipartition(n, frozenset(range(1, a + 1)))


@functools.cache
def _model(kind: str, n: int, a: int):
    if kind == "ghz_past_cap":
        return GHZModel(n, _cut(n, a))
    noise = "global" if kind.endswith("_global") else "local"
    return make_model(kind.removesuffix("_global"), n, _cut(n, a),
                      noise=noise)


MODELS = st.one_of(
    st.tuples(st.just("ame6"), st.just(6), st.integers(1, 3)),
    st.integers(2, 14).flatmap(lambda n: st.tuples(
        st.just("ghz"), st.just(n), st.integers(1, n - 1))),
    st.sampled_from([16, 20]).flatmap(lambda n: st.tuples(
        st.just("ghz_past_cap"), st.just(n), st.sampled_from([n // 2, 3]))),
    st.sampled_from([("ghz_global", 4, 2), ("ame6_global", 6, 2),
                     ("zero_global", 4, 2), ("bell_pairs_global", 4, 1)]),
)


@settings(max_examples=40, deadline=None)
@given(key=MODELS, eps=st.integers(0, 1 << 29).map(lambda k: k / (1 << 29)))
# mp.eigsy gives these Hankel matrices a least eigenvalue of about -1e-99
# and -1e-221, where the certified verdict is Inconclusive
@example(key=("ghz_past_cap", 16, 8), eps=1.0)
@example(key=("ghz_past_cap", 20, 3), eps=0.9375)
def test_every_margin_is_zero_or_has_its_verdicts_sign(key, eps):
    model = _model(*key)
    p = model.moments(eps, 29)
    for spec in SPECS:
        v = evaluate(spec, model, eps, p)
        assert v.margin == 0 or (v.margin > 0) == v.entangled, (
            model.describe(), spec.label, eps, v.margin)
