"""Exact verdicts on dyadic moment numerators (the stabilizer model's route),
checked against brute-force minors, the mpf route and the PPT verdict."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps
from mpmath.libmp import (dps_to_prec, from_rational, mpf_neg, round_nearest,
                          to_rational)

from ptml import criteria, thresholds
from ptml.cli import main
from ptml.criteria import (FLOAT_TOL, descartes, fidelity_criterion,
                           is_psd_exact, klm_ppt, ppt_verdict,
                           purity_criterion, stieltjes)
from ptml.enumerators import exact_decayed
from ptml.pauli import Bipartition, enumerate_group, state_catalog
from ptml.spectra import (DEFAULT_DIGITS, Enclosure, MomentVector,
                          ghz_local_spectrum)
from ptml.thresholds import (CriterionSpec, GHZModel, StabilizerModel,
                             epsilon_max, evaluate)
from stabilizers import random_cut, random_group


def _det(rows):
    """Determinant over Fractions by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _psd_by_minors(rows):
    """PSD exactly when every principal minor is nonnegative."""
    size = len(rows)
    return all(_det([[rows[i][j] for j in idx] for i in idx]) >= 0
               for r in range(1, size + 1)
               for idx in itertools.combinations(range(size), r))


def _gram(terms, size):
    """sum_t c_t v_t v_t^T over integer vectors v_t and integer weights c_t."""
    m = [[0] * size for _ in range(size)]
    for c, v in terms:
        for i in range(size):
            for j in range(size):
                m[i][j] += c * v[i] * v[j]
    return m


def _hankel(moments, size):
    return [list(moments[i:i + size]) for i in range(size)]


# ------------------------------------------------------- integer PSD test


@pytest.mark.parametrize("rows,want", [
    ([], True),
    ([[0]], True),
    ([[-1]], False),
    ([[3]], True),
    ([[0, 0], [0, 0]], True),
    ([[0, 1], [1, 0]], False),              # zero diagonal, nonzero block
    ([[1, 2], [2, 4]], True),               # rank 1
    ([[1, 2], [2, 3]], False),
    ([[4, 0, 2], [0, 0, 0], [2, 0, 1]], True),   # singular, zero row inside
    ([[1, 1, 0], [1, 1, 0], [0, 0, 0]], True),   # rank 1 with zero block
    ([[1, 1, 1], [1, 1, 1], [1, 1, 0]], False),  # zero diagonal after a pivot
    ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], True),
])
def test_is_psd_exact_cases(rows, want):
    assert is_psd_exact(rows) is want
    assert _psd_by_minors(rows) is want


vectors = st.lists(st.integers(-3, 3), min_size=5, max_size=5)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 5),
       terms=st.lists(st.tuples(st.sampled_from([-1, 1, 1, 2]), vectors),
                      max_size=4))
def test_is_psd_exact_matches_minors_on_gram_matrices(size, terms):
    # sums of few rank-one terms: singular PSD, rank 1 and zero blocks are
    # common, and a negative weight makes an indefinite matrix
    m = _gram([(c, v[:size]) for c, v in terms], size)
    assert is_psd_exact(m) == _psd_by_minors(m)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 5),
       entries=st.lists(st.integers(-4, 4), min_size=15, max_size=15))
def test_is_psd_exact_matches_minors_on_symmetric_matrices(size, entries):
    it = iter(entries)
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = next(it)
    assert is_psd_exact(m) == _psd_by_minors(m)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 4),
       spectrum=st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)),
                         min_size=1, max_size=5))
def test_is_psd_exact_matches_minors_on_hankel_matrices(size, spectrum):
    # H_ij = sum_s mu_s lambda_s^(i+j+1): rank at most the number of
    # distinct lambda, PSD exactly when none of them is negative
    moments = [sum(mu * lam ** k for lam, mu in spectrum)
               for k in range(1, 2 * size)]
    h = _hankel(moments, size)
    assert is_psd_exact(h) == _psd_by_minors(h)
    if len({lam for lam, _ in spectrum if lam}) <= size:
        assert is_psd_exact(h) == all(lam >= 0 for lam, _ in spectrum)


def test_is_psd_exact_random_large_entries():
    rng = random.Random(7)
    for _ in range(40):
        size = rng.randrange(1, 6)
        terms = [(rng.choice((-1, 1, 1)),
                  [rng.randrange(-2 ** 40, 2 ** 40) for _ in range(size)])
                 for _ in range(rng.randrange(0, size + 1))]
        m = _gram(terms, size)
        assert is_psd_exact(m) == _psd_by_minors(m)


# ---------------------------------------- exact route against the mpf route


def _rounded(p: MomentVector) -> MomentVector:
    """The same moments without their numerators: the mpf route, decided
    exactly on the rounded values."""
    return MomentVector(p.values, digits=p.digits)


def _clears(margin, tol):
    return abs(margin) > 10 * tol


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 10 ** 6),
       eps=st.floats(0, 1))
def test_exact_verdicts_match_mpf_where_decisive(n, seed, eps):
    # the rounded values move every margin by far less than tol
    model = StabilizerModel(random_group(n, seed), random_cut(n, seed))
    p = model.moments(eps, 9)
    q = _rounded(p)
    assert p.exact is not None and q.exact is None
    tol = mpf(10) ** -(p.digits - 10)
    for m in (3, 5, 7, 9):
        exact, approx = stieltjes(p, m), stieltjes(q, m)
        scale = tol * max(1, max(abs(x) for x in p.values[:m]))
        if _clears(approx.margin, scale):
            assert exact.entangled == approx.entangled, ("stieltjes", m, eps)
            assert abs(exact.margin - approx.margin) <= scale
    for m in range(1, 10):
        exact, approx = descartes(p, m), descartes(q, m)
        if _clears(approx.margin, tol):
            assert exact.entangled == approx.entangled, ("descartes", m, eps)
        assert abs(exact.margin - approx.margin) <= tol
    if all(v > 0 for v in p.values):
        for k, l, m in ((1, 2, 3), (3, 4, 5), (7, 8, 9), (3, 6, 7)):
            exact, approx = klm_ppt(p, k, l, m), klm_ppt(q, k, l, m)
            if _clears(approx.margin, tol):
                assert exact.entangled == approx.entangled, ("klm", k, l, m)
            # the same rounded values, the same raw margin
            assert exact._margin() == approx._margin()


@pytest.mark.parametrize("name,n,eps", [("ame6", 6, 1.0), ("ghz", 5, 1.0),
                                        ("zero", 4, 0.0), ("zero", 4, 0.5)])
def test_equality_cases_are_not_detected(name, n, eps):
    # a flat PT spectrum (eps = 1) or a product state makes klm hold with
    # equality and H_m rank one; an exact decision must not fire on either
    p = StabilizerModel(state_catalog(name, n),
                        Bipartition(n, frozenset({1, 2}))).moments(eps, 9)
    for k, l, m in itertools.combinations(range(1, 10), 3):
        assert not klm_ppt(p, k, l, m).entangled, (k, l, m)
    assert not any(stieltjes(p, m).entangled for m in (3, 5, 7, 9))
    assert not any(descartes(p, m).entangled for m in range(1, 10))


# ------------------------------------------- ame6 3|3 at high Hankel order


AME6_33 = StabilizerModel(state_catalog("ame6", 6),
                          Bipartition(6, frozenset({1, 2, 3})))


@pytest.mark.parametrize("m", [15, 29])
def test_ame6_high_order_stieltjes_is_ppt(m):
    # at most four distinct PT eigenvalues: H_m is singular for every eps
    # and PSD exactly when the PT spectrum is, with no tolerance deciding
    grid = [i / 63 for i in range(64)] + [0.4000733, 0.4000734, 0.45, 0.7]
    for eps in grid:
        v = stieltjes(AME6_33.moments(eps, m), m)
        assert v.entangled == AME6_33.ppt(eps).entangled, eps
    assert stieltjes(AME6_33.moments(0.0, m), m).entangled
    assert not stieltjes(AME6_33.moments(1.0, m), m).entangled


def test_exact_threshold_needs_no_eigenvalues(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("mp.eigsy on the exact route")

    monkeypatch.setattr(criteria, "hankel_min_eigenvalue", forbidden)
    res = epsilon_max(CriterionSpec.parse("stieltjes:15"), AME6_33)
    assert abs(res.eps_max - 0.400073355152) <= res.bracket
    with pytest.raises(AssertionError):
        stieltjes(AME6_33.moments(0.3, 15), 15).margin


def _record_eigenvalues(monkeypatch) -> list:
    """The values criteria.hankel_min_eigenvalue returns from now on."""
    calls = []
    real = criteria.hankel_min_eigenvalue

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(criteria, "hankel_min_eigenvalue", counted)
    return calls


def test_deferred_margin_is_computed_once(monkeypatch):
    calls = _record_eigenvalues(monkeypatch)
    v = stieltjes(AME6_33.moments(0.3, 15), 15)
    assert calls == []
    # negated exactly: a bare minus would round to mpmath's default precision
    assert v.margin._mpf_ == mpf_neg(calls[0]._mpf_)
    assert v.margin > 0
    assert len(calls) == 1


@pytest.mark.parametrize("model", [GHZModel(6), AME6_33],
                         ids=["ghz6-mpf", "ame6-exact"])
def test_stieltjes_margin_keeps_the_eigenvalue_precision(model, monkeypatch):
    calls = _record_eigenvalues(monkeypatch)
    v = evaluate(CriterionSpec.parse("stieltjes:5"), model, 0.3)
    assert v.margin._mpf_ == mpf_neg(calls[0]._mpf_) and len(calls) == 1
    assert v.margin._mpf_[3] > 300  # digits + 10, not mpmath's 53 bits


@pytest.mark.parametrize("label,n,eps", [("purity", 2, 0.189),
                                         ("fidelity", 4, 0.3),
                                         ("descartes:2", 4, 0.9)])
def test_rounded_margins_keep_the_model_precision(label, n, eps):
    # a bare minus outside the model's precision would round the margin to
    # mpmath's default 53 bits, and the CLI would then round it again
    v = evaluate(CriterionSpec.parse(label), GHZModel(n), eps)
    assert v.margin._mpf_[3] > 53
    spectrum = ghz_local_spectrum(n, eps)
    low = spectrum.min_eigenvalue()
    assert ppt_verdict(low).margin._mpf_ == mpf_neg(
        low._mpf_)


@pytest.mark.parametrize("argv,code,line", [
    ("--name purity --state ghz --n 2 --noise local:0.189", 0,
     "Entangled margin=0.0744476853807"),
    ("--name descartes:2 --state ghz --n 4 --noise local:0.9", 1,
     "Inconclusive margin=-0.468731247188"),
])
def test_criterion_prints_the_margin_rounded_once(argv, code, line, capsys):
    assert main(["criterion", *argv.split()]) == code
    assert capsys.readouterr().out == line + "\n"


def _elementary_exactly(p: MomentVector, m: int) -> list:
    """e_1..e_m by Newton's identities over Fractions from p_k = A_k /
    2^(s k)."""
    nums, s = p.exact
    ps = [Fraction(a, 1 << s * k) for k, a in enumerate(nums, 1)]
    es = [Fraction(1)]
    for j in range(1, m + 1):
        es.append(sum((-1) ** (i - 1) * es[j - i] * ps[i - 1]
                      for i in range(1, j + 1)) / j)
    return es[1:]


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_descartes_elementary_values_are_rounded_once(cut):
    # a bisection point carries up to 29 fraction bits; rounding F_j and
    # then F_j / j! 2^(s j) misses the once-rounded value in about one
    # elementary value of five there
    model = StabilizerModel(state_catalog("ame6", 6),
                            Bipartition(6, frozenset(range(1, cut + 1))))
    rng = random.Random(cut)
    for _ in range(6):
        eps = rng.randrange(1, 1 << 29) / (1 << 29)
        for m in (9, 20):
            p = model.moments(eps, m)
            nums, s = p.exact
            got = [Fraction(f, math.factorial(j) << s * j) for j, f in
                   enumerate(criteria._newton_numerators(nums)[1:m + 1], 1)]
            assert got == _elementary_exactly(p, m), (eps, m)
            prec = dps_to_prec(p.digits)
            want = max(mp.make_mpf(from_rational(-e.numerator, e.denominator,
                                                 prec, round_nearest))
                       for e in got)
            assert descartes(p, m).margin._mpf_ == want._mpf_, (eps, m)


def test_criterion_cli_prints_the_mpf_margin(capsys):
    code = main(["criterion", "--name", "stieltjes:15", "--state", "ame6",
                 "--bip-size", "3", "--noise", "local:0.3"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.strip() == "Entangled margin=0.00145117560836"


def test_deferred_margin_never_contradicts_its_verdict(capsys):
    # H_15 is singular and PSD here, so lambda_min is exactly 0, and the
    # margin is not mp.eigsy's rounding noise
    code = main(["criterion", "--name", "stieltjes:15", "--state", "ame6",
                 "--bip-size", "3", "--noise", "local:0.45"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.strip() == "Inconclusive margin=0"
    p = AME6_33.moments(0.45, 15)
    assert stieltjes(p, 15).margin == 0
    assert criteria.hankel_margin(p, 15) == 0
    # a rounded margin whose sign contradicts its verdict reads 0, and an
    # inexact verdict reads the raw value
    assert criteria.Verdict(False, lambda: mpf(2) ** -400).margin == 0
    assert criteria.Verdict(False, lambda: mpf(2) ** -400,
                            exact=False).margin == mpf(2) ** -400


def test_ppt_verdict_is_exact_below_any_tolerance():
    # eps* is the root of the minus-set polynomial that decides the PPT
    # threshold.  Just below it lambda_min is about -1e-71, under the 1e-50
    # tolerance a rounded spectrum is judged with; the numerators decide.
    thr = epsilon_max(CriterionSpec("ppt"), AME6_33).eps_max
    polys = [p for p, _ in AME6_33.polys]
    with workdps(150):
        def value(c, q):
            return mp.polyval(list(reversed(c)), q)

        q0 = 1 - mpf(thr)
        decisive = min(polys, key=lambda c: value(c, q0 + mpf("1e-6")))
        star = 1 - mp.findroot(lambda q: value(decisive, q), q0)
        below, above = star - mpf("1e-70"), star + mpf("1e-70")
    v = AME6_33.ppt(below)
    assert v.entangled
    assert 0 < v.margin < mpf(10) ** -50
    assert not AME6_33.ppt(above).entangled
    assert abs(star - thr) <= 1e-9


def test_ppt_verdict_decides_fraction_float_and_mpf_lows():
    # a Fraction low is decided exactly, its margin -low rounded once
    for low in (Fraction(-1, 3), Fraction(-1, 2 ** 400)):
        v = ppt_verdict(low)
        assert v.entangled and v._exact
        assert v.margin._mpf_ == from_rational(
            -low.numerator, low.denominator, dps_to_prec(DEFAULT_DIGITS),
            round_nearest)
    for low in (Fraction(0), Fraction(1, 5)):
        v = ppt_verdict(low)
        assert not v.entangled and v._exact and v.margin <= 0
    # a float low against the float64 tolerance
    v = ppt_verdict(-2 * FLOAT_TOL)
    assert v.entangled and not v._exact
    assert v.margin == 2e-10 and isinstance(v.margin, float)
    assert not ppt_verdict(-0.5e-10).entangled
    # an mpf low is the binary number it is, decided exactly at any size,
    # its margin negated exactly
    with workdps(100):
        low = -mpf(1) / 3 * mpf(10) ** -45
    for x in (low, low * mpf(10) ** -300):
        v = ppt_verdict(x)
        assert v.entangled and v._exact
        assert v.margin._mpf_ == mpf_neg(x._mpf_)
    assert not ppt_verdict(mpf(0)).entangled
    assert not ppt_verdict(-low).entangled


def _low(prec, settle_at, calls):
    """An Enclosure of a least eigenvalue at or below -2^-202 whose bounds
    straddle 0 below settle_at bits."""
    calls.append(prec)
    hi = 2.0 ** -200 if prec < settle_at else -(2.0 ** -202)
    return Enclosure(mpf(-(2.0 ** -200))._mpf_, mpf(hi)._mpf_, prec,
                     functools.partial(_low, settle_at=settle_at, calls=calls))


def test_an_open_enclosure_doubles_its_precision_until_decided(
        monkeypatch, capsys):
    calls = []
    v = ppt_verdict(_low(200, 800, calls))
    assert v.entangled and v._exact and calls == [200, 400, 800]
    assert v.margin == (mpf(2) ** -200 + mpf(2) ** -202) / 2
    # a verdict the bounds never settle is refused, not guessed
    calls = []
    with pytest.raises(RuntimeError, match="still undecided at 51200 bits"):
        ppt_verdict(_low(200, 10 ** 9, calls))
    assert calls == [200 << i for i in range(9)]
    monkeypatch.setattr(thresholds, "enclose",
                        lambda value, prec: _low(prec, 10 ** 9, []))
    assert main(["criterion", "--name", "ppt", "--state", "ghz", "--n", "16",
                 "--noise", "local:0.5"]) == 2
    assert "still undecided" in capsys.readouterr().err


# ------------------------------------------------ scalar criteria input


def test_scalar_criteria_decide_mpf_exactly_and_floats_with_the_tolerance():
    g, s = mpf("0.5") + mpf("1e-7"), mpf("0.5")
    assert purity_criterion(float(g), float(s)).entangled
    assert purity_criterion(g, s).entangled
    assert fidelity_criterion(g, 1).entangled
    # an mpf gap is the binary number it is, its own margin
    with workdps(200):
        tiny = mpf("0.5") + mpf(2) ** -400
    assert fidelity_criterion(tiny, 1).margin == mpf(2) ** -400
    # float input keeps the float64 tolerance
    assert not purity_criterion(0.5 + 1e-12, 0.5).entangled


# ------------------------------------------------ exact fidelity and purity


GHZ8_FULL_MINUS_ONE = StabilizerModel(state_catalog("ghz", 8),
                                      Bipartition(8, frozenset(range(1, 8))))


def _root(f, guess):
    with workdps(50):
        return mp.findroot(f, guess)


def test_enumerator_purity_threshold_brackets_the_true_root():
    # the root of the closed-form purity gap; a 1e-10 tolerance on the
    # float gap put the threshold 1.08e-9 from it, outside its bracket
    def gap(e):  # global minus 7-qubit marginal purity, r = (1-e)^2
        r = (1 - e) ** 2
        return (((1 + r) ** 8 + (1 - r) ** 8 + (2 * r) ** 8) / 2 ** 9
                - ((1 + r) ** 7 + (1 - r) ** 7) / 2 ** 8)

    star = _root(gap, 0.17)
    assert abs(star - mpf("0.17355381131")) < 1e-10
    res = epsilon_max(CriterionSpec("purity"), GHZ8_FULL_MINUS_ONE)
    assert abs(res.eps_max - star) <= res.bracket
    # decided exactly, far below any tolerance
    purity = CriterionSpec("purity")
    assert evaluate(purity, GHZ8_FULL_MINUS_ONE, float(star - 1e-13)).entangled
    assert not evaluate(purity, GHZ8_FULL_MINUS_ONE,
                        float(star + 1e-13)).entangled


def test_enumerator_fidelity_is_decided_exactly():
    model = StabilizerModel(state_catalog("ame6", 6),
                            Bipartition(6, frozenset({1, 2, 3})))
    # a secant step from 0.3 leaves [0, 1], which exact_decayed refuses
    star = _root(lambda e: mp.convert(exact_decayed(model.sl.values, e)
                                      - Fraction(1, 2)), 0.15)
    res = epsilon_max(CriterionSpec("fidelity"), model)
    assert abs(res.eps_max - star) <= res.bracket
    fidelity = CriterionSpec("fidelity")
    assert evaluate(fidelity, model, float(star - 1e-13)).entangled
    assert not evaluate(fidelity, model, float(star + 1e-13)).entangled


def _rounded_once(margin, exact, digits):
    """Whether an mpf margin is the exact value rounded once to digits:
    within a relative 2^-prec of it, where a float sum misses by 1e-17."""
    err = abs(Fraction(*to_rational(margin._mpf_)) - exact)
    return err <= abs(exact) / 2 ** dps_to_prec(digits)


def _decayed_exactly(a, eps, power):
    q = 1 - Fraction(eps)
    return sum(v * q ** (power * i) for i, v in enumerate(a.values))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 10 ** 6),
       eps=st.floats(0, 1))
def test_exact_fidelity_and_purity_verdicts(n, seed, eps):
    model = StabilizerModel(random_group(n, seed), random_cut(n, seed))
    f = _decayed_exactly(model.sl, eps, 1)
    v = evaluate(CriterionSpec("fidelity"), model, eps)
    assert v.entangled == (model.bell_pairs >= 1 and f > Fraction(1, 2))
    # the margin is the exact gap to the bound used, rounded once: 1/2, or
    # 1 with no Bell pair across the cut
    bound = Fraction(1, 2) if model.bell_pairs else 1
    assert _rounded_once(v.margin, f - bound, DEFAULT_DIGITS)
    # the marginal's enumerators count the group elements inside side A
    a_mask, size = model.bip.a_mask, len(model.bip.a_set)
    inside = [0] * (size + 1)
    for element in enumerate_group(model.g):
        if not (element.x_mask | element.z_mask) & ~a_mask:
            inside[(element.x_mask | element.z_mask).bit_count()] += 1
    sub = sum(Fraction(c, 2 ** size) * (1 - Fraction(eps)) ** (2 * i)
              for i, c in enumerate(inside))
    glob = _decayed_exactly(model.sl, eps, 2)
    v = evaluate(CriterionSpec("purity"), model, eps)
    assert v.entangled == (glob > sub)
    assert _rounded_once(v.margin, glob - sub, DEFAULT_DIGITS)


def test_ppt_margin_is_the_exact_value_rounded_once():
    # read at mpmath's default precision, as `ptml criterion` reads it
    for eps in (0.3, 0.45, 0.7):
        entries, s = AME6_33._pt_spectrum(eps)
        low = Fraction(min(a for a, _ in entries), 1 << s)
        v = AME6_33.ppt(eps)
        assert _rounded_once(v.margin, -low, DEFAULT_DIGITS), eps


# Printed before the integer Horner pass; the lines may not move, except
# that with no Bell pair across the cut fidelity is measured against 1.
@pytest.mark.parametrize("argv,code,line", [
    ("fidelity --state ghz --n 8 --bip 1,2,3,5,6,7,8 --noise local:0.111",
     0, "Entangled margin=0.0117216569125"),
    ("fidelity --state ghz --n 5 --bip 3,5 --noise local:0.045",
     0, "Entangled margin=0.343404471896"),
    ("fidelity --state bell_pairs --n 4 --noise local:0.1",
     1, "Inconclusive margin=-0.26469375"),
    ("fidelity --state bell_pairs --n 6 --bip 3 --noise local:0.297",
     1, "Inconclusive margin=-0.26091383336"),
    ("fidelity --state ghz --n 11 --bip 1,2,3 --noise local:0.2",
     1, "Inconclusive margin=-0.30014502899"),
    ("fidelity --state ame6 --n 6 --bip 1,2,3 --noise local:1",
     1, "Inconclusive margin=-0.484375"),
    ("fidelity --state ame6 --n 6 --bip 4 --noise global:0.069",
     0, "Entangled margin=0.432078125"),
    ("fidelity --state zero --n 2 --noise global:0.2",
     1, "Inconclusive margin=-0.15"),
    ("purity --state ame6 --n 6 --bip 1,2,3,4,5 --noise local:0.05",
     0, "Entangled margin=0.291840438238"),
    ("purity --state ghz --n 10 --bip 1,2,3,4,5,6,7,8,9 --noise local:0.01",
     0, "Entangled margin=0.40440665428"),
    ("purity --state bell_pairs --n 4 --bip 1 --noise local:0.0",
     0, "Entangled margin=0.5"),
    ("purity --state ame6 --n 6 --bip 1,2,3,5,6 --noise local:0.588",
     1, "Inconclusive margin=-0.0154236965316"),
    ("purity --state zero --n 8 --bip 1,2,3,5,6,7,8 --noise local:0.056",
     1, "Inconclusive margin=-0.0367877864176"),
    ("purity --state ghz --n 8 --bip 1,2,3,4,5,6 --noise global:0.6",
     0, "Entangled margin=0.07015625"),
    ("purity --state bell_pairs --n 8 --bip 2,3 --noise global:0.3",
     0, "Entangled margin=0.2419921875"),
])
def test_fidelity_and_purity_lines_are_unchanged(capsys, argv, code, line):
    assert main(["criterion", "--name"] + argv.split()) == code
    assert capsys.readouterr().out == line + "\n"
