"""One exact PT spectrum per stabilizer model: PPT, moments and Schatten
sums under local and global noise, checked against the dense reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptml.cli import main
from ptml.dense import depolarize_global, depolarize_local, pt_moments
from ptml.dense import state_from_group
from ptml.pauli import Bipartition, state_catalog
from ptml.thresholds import (CriterionSpec, GlobalNoiseModel, StabilizerModel,
                             epsilon_max, epsilon_max_battery)
from stabilizers import random_cut, random_group

# bell_pairs on 300 qubits, side A the odd qubits: one qubit of each of the
# 150 pairs, so r = 150 and the PPT threshold is 2^300 / (2^300 + 2^150),
# 1 - 7e-46, far past any absolute tolerance on lambda_min.
N_BIG = 300
ODD_CUT = Bipartition(N_BIG, frozenset(range(1, N_BIG + 1, 2)))


def test_global_ppt_decides_exactly_at_300_qubits(capsys):
    argv = ["--state", "bell_pairs", "--n", str(N_BIG), "--bip",
            ",".join(str(q) for q in sorted(ODD_CUT.a_set)),
            "--noise", "global:0.99999"]
    for name in ("ppt", "stieltjes:3"):
        code = main(["criterion", "--name", name] + argv)
        out, _ = capsys.readouterr()
        assert code == 0 and out.startswith("Entangled"), (name, out)
    model = GlobalNoiseModel(state_catalog("bell_pairs", N_BIG), ODD_CUT)
    assert model.bell_pairs == 150
    thr = Fraction(2 ** N_BIG, 2 ** N_BIG + 2 ** 150)
    ppt, st3 = epsilon_max_battery(
        [CriterionSpec("ppt"), CriterionSpec("stieltjes", m=3)], model)
    assert abs(Fraction(ppt.eps_max) - thr) <= Fraction(ppt.bracket)
    assert (ppt.eps_max, ppt.bracket) == (st3.eps_max, st3.bracket)


@pytest.mark.parametrize("argv", [
    "--name stieltjes:5 --state bell_pairs --n 4 --noise global:0.609",
    "--name stieltjes:9 --state zero --n 2 --noise global:0.796",
    "--name stieltjes:9 --state bell_pairs --n 4 --noise global:0.279",
])
def test_global_stieltjes_on_a_singular_hankel_matrix_reads_zero(
        capsys, argv):
    # H has more rows than the spectrum has levels, so it is singular and
    # PSD, and lambda_min is exactly 0
    code = main(["criterion"] + argv.split())
    out, _ = capsys.readouterr()
    assert code == 1
    assert out.strip() == "Inconclusive margin=0"


CASES = [("ghz", 4, {1, 2}), ("ghz", 5, {2, 5}), ("bell_pairs", 4, {1, 3}),
         ("bell_pairs", 6, {1, 2, 3}), ("zero", 3, {1}), ("ame6", 6, {1}),
         ("ame6", 6, {1, 2, 3})]


@pytest.mark.parametrize("name,n,a_set", CASES)
@pytest.mark.parametrize("noise", ["local", "global"])
def test_moments_and_schatten_sums_match_dense(name, n, a_set, noise):
    g, bip = state_catalog(name, n), Bipartition(n, frozenset(a_set))
    model = (StabilizerModel if noise == "local" else GlobalNoiseModel)(g, bip)
    channel = depolarize_local if noise == "local" else depolarize_global
    for eps in (0.0, 0.15, 0.5, 0.85, 1.0):
        got = model.moments(eps, 6)
        want = pt_moments(channel(state_from_group(g), eps), bip, 6)
        for k in range(1, 7):
            assert abs(got.p(k) - want.p(k)) <= 1e-12, (eps, k)
            assert abs(got.ptilde(k) - want.ptilde(k)) <= 1e-12, (eps, k)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 10 ** 6),
       eps=st.floats(0, 1), noise=st.sampled_from(["local", "global"]))
def test_exact_spectrum_sums_to_the_moments(n, seed, eps, noise):
    # p_k and ptilde_k are the k-th power sums of the spectrum (and of its
    # magnitudes) that the PPT verdict reads; ptilde_1 > 1 exactly when NPT
    g, bip = random_group(n, seed), random_cut(n, seed)
    model = (StabilizerModel if noise == "local" else GlobalNoiseModel)(g, bip)
    p = model.moments(eps, 5)
    nums, s = p.exact
    assert model._pt_spectrum(eps)[1] == s  # the spectrum's own exponent
    entries = list(model._pt_spectrum(eps)[0])
    for k, a in enumerate(nums, 1):
        assert Fraction(a, 2 ** (s * k)) == sum(
            Fraction(x) ** k * mu for x, mu in entries) / 2 ** (s * k)
        schatten = sum(Fraction(abs(x)) ** k * mu
                       for x, mu in entries) / 2 ** (s * k)
        assert abs(p.ptilde(k) - float(schatten)) <= 1e-15 * schatten
    assert sum(mu for _, mu in entries) == 2 ** n
    npt = min(x for x, _ in entries) < 0
    assert model.ppt(eps).entangled == npt
    assert (sum(abs(x) * mu for x, mu in entries) > 2 ** s) == npt


def test_thresholds_never_build_the_schatten_sums(monkeypatch):
    model = StabilizerModel(state_catalog("ame6", 6),
                            Bipartition(6, frozenset({1, 2})))
    calls = []
    real = StabilizerModel._pt_spectrum

    def counted(self, eps):
        calls.append(eps)
        return real(self, eps)

    monkeypatch.setattr(StabilizerModel, "_pt_spectrum", counted)
    for label in ("stieltjes:7", "klm:3,4,5", "descartes:5"):
        epsilon_max(CriterionSpec.parse(label), model)
    assert calls == []
    p = model.moments(0.2, 4)
    assert calls == []
    p.ptilde(2)
    p.ptilde(4)
    assert calls == [0.2]


def test_exact_moments_without_a_spectrum_have_no_schatten_sums():
    from ptml.spectra import MomentVector

    with pytest.raises(ValueError, match="no Schatten sums"):
        MomentVector(exact=((4, 2), 2), digits=30).ptilde(1)
