"""End-to-end CLI tests, run in-process through main()."""

import csv
import dataclasses
import json
import math
import os
import pathlib
import re
import time
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction

import pytest
from mpmath import mpf, workdps
from mpmath.libmp import to_rational

from ptml import cli, enumerators, thresholds
from ptml.cli import _fmt_cell, _twelve_digits, main
from ptml.spectra import ppt_threshold_ghz


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_moments_bell(capsys):
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "2", "--k-max", "4")
    assert code == 0
    rows = parse_csv(out)
    assert [float(r["p_k"]) for r in rows] == [1.0, 1.0, 0.25, 0.25]
    assert [float(r["ptilde_k"]) for r in rows] == [2.0, 1.0, 0.5, 0.25]
    assert out.startswith("# schema=1\n")


def test_moments_fully_depolarized(capsys):
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "4",
                       "--noise", "local:1", "--k-max", "3")
    assert code == 0
    rows = parse_csv(out)
    for r in rows:
        k = int(r["k"])
        assert float(r["p_k"]) == pytest.approx(2.0 ** (-4 * (k - 1)))


def test_moments_enumerator_route_matches_dense(capsys):
    # the stabilizer path has no dense cross-check inside the CLI, so do
    # one here at a size where both run
    from ptml.pauli import Bipartition, state_catalog
    from ptml.dense import depolarize_local, pt_moments, state_from_group

    code, out, _ = run(capsys, "moments", "--state", "ame6", "--n", "6",
                       "--bip", "1,2,3", "--noise", "local:0.25", "--k-max", "4")
    assert code == 0
    rho = depolarize_local(state_from_group(state_catalog("ame6", 6)), 0.25)
    want = pt_moments(rho, Bipartition(6, frozenset({1, 2, 3})), 4)
    for r in parse_csv(out):
        k = int(r["k"])
        assert float(r["p_k"]) == pytest.approx(want.p(k), abs=1e-9)
        assert float(r["ptilde_k"]) == pytest.approx(want.ptilde(k), abs=1e-9)


def test_moments_of_twelve_qubits_print_schatten_sums(capsys):
    # bell_pairs holds the pairs (1,2), (3,4), ...; side A = {1, 3, 4}
    # splits the first pair only.  Local noise acts pair by pair, so p_k and
    # ptilde_k are products of two-qubit moments: the split pair's across
    # its cut, the other five's with no transpose (a full transpose keeps
    # the spectrum).
    from ptml.pauli import Bipartition, state_catalog
    from ptml.dense import depolarize_local, pt_moments, state_from_group

    code, out, _ = run(capsys, "moments", "--state", "bell_pairs", "--n",
                       "12", "--bip", "1,3,4", "--noise", "local:0.2",
                       "--k-max", "5")
    assert code == 0
    pair = depolarize_local(state_from_group(state_catalog("bell_pairs", 2)),
                            0.2)
    split = pt_moments(pair, Bipartition(2, frozenset({1})), 5)
    whole = pt_moments(pair, Bipartition(2, frozenset()), 5)
    rows = parse_csv(out)
    assert [int(r["k"]) for r in rows] == [1, 2, 3, 4, 5]
    for r in rows:
        k = int(r["k"])
        assert r["ptilde_k"] != ""
        assert float(r["p_k"]) == pytest.approx(
            split.p(k) * whole.p(k) ** 5, rel=1e-10)
        assert float(r["ptilde_k"]) == pytest.approx(
            split.ptilde(k) * whole.ptilde(k) ** 5, rel=1e-10)
    assert float(rows[0]["ptilde_k"]) > 1  # the split pair is still NPT


def test_moments_ghz_beyond_dense_cap_matches_spectrum_oracle(capsys):
    # n = 12 is past the dense cap, so GHZ takes the closed-form model
    from ptml.spectra import ghz_local_spectrum, moments_from_spectrum

    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "12",
                       "--noise", "local:0.3", "--k-max", "6")
    assert code == 0
    want = moments_from_spectrum(ghz_local_spectrum(12, 0.3), 6)
    rows = parse_csv(out)
    assert [r["p_k"] for r in rows] == [
        f"{float(want.p(k)):.12g}" for k in range(1, 7)]
    assert [r["ptilde_k"] for r in rows] == [
        f"{float(want.ptilde(k)):.12g}" for k in range(1, 7)]


def test_moments_global_noise(capsys):
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--noise", "global:1", "--k-max", "2")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[1]["p_k"]) == pytest.approx(0.25)


@pytest.mark.parametrize("argv,k,want", [
    # p_2 = 0.54090392968749999780..., 2.2e-17 below a 12-digit tie
    (("zero", "--n", "7", "--bip", "2,5", "--noise", "global:0.267"), 2,
     "0.540903929687"),
    # p_4 lies just above 2^-18 = 3.814697265625e-06, itself a tie
    (("ame6", "--n", "6", "--bip", "2,3,4,6", "--noise", "local:0.996"), 4,
     "3.81469726563e-06"),
])
def test_moments_round_the_exact_value_once(capsys, argv, k, want):
    code, out, _ = run(capsys, "moments", "--state", *argv, "--k-max", str(k))
    assert code == 0
    row = parse_csv(out)[k - 1]
    assert (row["p_k"], row["ptilde_k"]) == (want, want)


def test_cells_round_exact_values_once():
    tie = mpf(2) ** -18  # 3.814697265625e-06: half to even
    with workdps(40):  # values a double would round to +-tie
        above = tie * (1 + mpf(2) ** -60)
        below = -above
    assert [_fmt_cell(v) for v in (
        tie, above, below, mpf(-0.75), mpf(0), Fraction(-1, 3), 0.1,
        2.0 ** -18)] == [
        "3.81469726562e-06", "3.81469726563e-06", "-3.81469726563e-06",
        "-0.75", "0", "-0.333333333333", "0.1", "3.81469726562e-06"]


def test_criterion_margin_is_rounded_once(capsys):
    # the exact margin is -0.03516064453124999772..., just inside the
    # 12-digit tie; the nearest double, -0.03516064453125000017..., lies
    # past it, so float() printed ...313
    code, out, _ = run(capsys, "criterion", "--name", "descartes:3",
                       "--state", "zero", "--n", "7", "--bip", "2,5",
                       "--noise", "global:0.3")
    assert code == 1
    assert out == "Inconclusive margin=-0.0351606445312\n"


@pytest.mark.parametrize("argv", [
    ("stieltjes:9", "--state", "ame6", "--bip-size", "1",
     "--noise", "local:0.6"),
    ("stieltjes:5", "--state", "zero", "--n", "4", "--noise", "global:0.05")])
def test_a_singular_psd_hankel_margin_is_zero(capsys, argv):
    # past the rank bound a PPT state's Hankel is PSD and singular, so
    # lambda_min is exactly 0, not the eigensolver's residue near 1e-125
    code, out, _ = run(capsys, "criterion", "--name", *argv)
    assert code == 1
    assert out == "Inconclusive margin=0\n"


def test_criterion_margin_past_the_spectrum_size_is_zero(capsys):
    # GHZ on 2 qubits has four nonzero PT eigenvalues, so e_5 = 0 exactly,
    # and the margin is that 0, not an mpf rounding residue near 1e-94
    code, out, _ = run(capsys, "criterion", "--name", "descartes:5",
                       "--state", "ghz", "--n", "2", "--noise", "local:0.45")
    assert code == 1
    assert out == "Inconclusive margin=0\n"


def test_cells_print_values_past_the_double_range(capsys):
    # p_3 = 2^-2000 of the maximally mixed 1000-qubit state, 0 as a double
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "1000",
                       "--k-max", "3", "--noise", "global:1")
    assert code == 0
    assert parse_csv(out)[2]["p_k"] == "8.70980981622e-603"
    # the exact global fidelity gap 2^-1101: Entangled, with its margin
    code, out, _ = run(capsys, "criterion", "--name", "fidelity", "--state",
                       "ghz", "--n", "1100", "--noise", "global:0.5")
    assert code == 0
    assert out == "Entangled margin=3.68107591451e-332\n"
    # a subnormal double would keep fewer digits; the normal range prints
    # as a double
    assert [_fmt_cell(v) for v in (
        Fraction(-1, 10 ** 400), Fraction(3, 2 ** 1075), mpf(2) ** -1022,
        Fraction(1, 2 ** 1022))] == [
        "-1e-400", "7.41098468762e-324", "2.22507385851e-308",
        "2.22507385851e-308"]


def test_a_margin_far_below_the_decimal_range_prints_quickly(capsys):
    # the purity gap, about -2^-(3.4e7), lies far below both the double
    # range and 1e-999999; its 12 digits come from its leading bits
    start = time.perf_counter()
    code, out, _ = run(capsys, "criterion", "--name", "purity", "--state",
                       "ghz", "--n", "100000000", "--noise", "local:0.5")
    assert time.perf_counter() - start < 5
    assert code == 1
    assert out == "Inconclusive margin=-3.68276294966e-10206000\n"


@pytest.mark.parametrize("x", [
    mpf(2) ** -18, -mpf(10) ** 12 + mpf("0.5"), mpf(10) ** 12 - mpf("0.5"),
    mpf(1) / 3, mpf(2) ** -3000, -mpf(2) ** 900 / 7, mpf("0.999999999999499"),
    mpf("0.9999999999995")])
def test_cells_from_leading_digits_match_the_exact_quotient(x):
    # 2^-18 is a tie, and 0.9999999999995 a binary number within 1e-16 of one
    exact = Context(prec=12, rounding=ROUND_HALF_EVEN).divide(
        *to_rational(x._mpf_))
    assert _twelve_digits(x) == exact


def test_criterion_bell_klm(capsys):
    code, out, _ = run(capsys, "criterion", "--name", "klm:1,2,3",
                       "--state", "ghz", "--n", "2")
    assert code == 0
    assert out.strip() == "Entangled margin=0.5"


def test_criterion_inconclusive_exit_code(capsys):
    code, out, _ = run(capsys, "criterion", "--name", "ppt",
                       "--state", "ghz", "--n", "2", "--noise", "local:0.9")
    assert code == 1
    assert out.startswith("Inconclusive")


def test_criterion_p3ppt_alias(capsys):
    a = run(capsys, "criterion", "--name", "p3ppt", "--state", "ghz", "--n", "2")
    b = run(capsys, "criterion", "--name", "klm:1,2,3", "--state", "ghz", "--n", "2")
    assert a == b


def test_criterion_ame_triple(capsys):
    code, out, _ = run(capsys, "criterion", "--name", "klm:3,4,5", "--state", "ame6",
                       "--n", "6", "--bip-size", "1", "--noise", "local:0.30")
    assert code == 0
    assert out.startswith("Entangled")


def test_criterion_global_noise_werner(capsys):
    # global depolarizing on a Bell pair stays NPT up to 2/3
    code, _, _ = run(capsys, "criterion", "--name", "ppt", "--state", "ghz",
                     "--n", "2", "--noise", "global:0.5")
    assert code == 0
    code, _, _ = run(capsys, "criterion", "--name", "ppt", "--state", "ghz",
                     "--n", "2", "--noise", "global:0.7")
    assert code == 1


def test_criterion_global_noise_beyond_dense_cap(capsys):
    # global-noise fidelity and purity are closed forms at any n
    code, out, err = run(capsys, "criterion", "--name", "purity",
                         "--state", "ghz", "--n", "12", "--noise", "global:0.2")
    assert code == 0, err
    q = 0.8 ** 2
    mixed = 1 - q
    want = (q + mixed / 2 ** 12) - (q / 2 + mixed / 2 ** 6)
    assert out.strip() == f"Entangled margin={want:.12g}"
    code, out, _ = run(capsys, "criterion", "--name", "fidelity",
                       "--state", "ghz", "--n", "40",
                       "--noise", "global:0.3")
    assert code == 0 and out.startswith("Entangled")



def test_purity_past_float64_range(capsys):
    # the global purity reaches 2^-1100 at eps = 1, below the smallest float
    code, out, err = run(capsys, "threshold", "--criterion", "purity",
                         "--state", "ghz", "--n", "1100")
    assert code == 0, err
    code, out, err = run(capsys, "criterion", "--name", "purity",
                         "--state", "ghz", "--n", "1100", "--noise", "global:1")
    assert code == 1, err
    assert out.startswith("Inconclusive")


def test_fidelity_on_product_cut_is_inconclusive(capsys):
    # the all-zero state holds no Bell pair: F > 1/2 certifies nothing
    code, out, _ = run(capsys, "criterion", "--name", "fidelity",
                       "--state", "zero", "--n", "2", "--bip", "1",
                       "--noise", "global:0.2")
    assert code == 1 and out.startswith("Inconclusive")
    code, out, _ = run(capsys, "criterion", "--name", "fidelity",
                       "--state", "bell_pairs", "--n", "4", "--bip", "1,2",
                       "--noise", "local:0.1")
    assert code == 1 and out.startswith("Inconclusive")
    code, out, _ = run(capsys, "threshold", "--criterion", "fidelity",
                       "--state", "zero", "--n", "4")
    assert code == 0
    fields = dict(kv.split("=", 1) for kv in out.strip().split(" ") if "=" in kv)
    assert float(fields["eps_max"]) == 0.0
    assert fields["flags"] == "never_fired"


def test_threshold_ppt_ghz4(capsys):
    code, out, _ = run(capsys, "threshold", "--criterion", "ppt",
                       "--state", "ghz", "--n", "4")
    assert code == 0
    fields = dict(kv.split("=", 1) for kv in out.strip().split(" ") if "=" in kv)
    assert abs(float(fields["eps_max"]) - ppt_threshold_ghz(4)) < 1e-8
    assert float(fields["bracket"]) <= 1e-9
    assert fields["flags"] == "-"
    assert fields["criterion"] == "ppt"


def test_threshold_ghz_off_balanced_past_the_enumerator_cap(capsys):
    # 15 qubits: one generator past the character-transform cap, so only
    # the closed form reaches this cut
    code, out, err = run(capsys, "threshold", "--criterion", "ppt",
                         "--state", "ghz", "--n", "15", "--bip", "1,2,3,4,5")
    assert code == 0, err
    fields = dict(kv.split("=", 1) for kv in out.strip().split(" ") if "=" in kv)
    assert fields["cut"] == "1,2,3,4,5"
    # the bracket holds the root of 2 (g - d(5)) = (1-e)^15 - (uv)^5 (u^5 + v^5)
    def gap(e):
        u, v = 1 - e / 2, e / 2
        return (1 - e) ** 15 - (u * v) ** 5 * (u ** 5 + v ** 5)

    e = float(fields["eps_max"])
    assert gap(e - 2e-9) > 0 > gap(e + 2e-9)


def test_threshold_tol_below_float_spacing_exits_2(capsys):
    code, out, err = run(capsys, "threshold", "--criterion", "ppt", "--state",
                         "ame6", "--bip-size", "3", "--tol", "1e-20")
    assert code == 2 and out == ""
    assert "tol 1e-20 is below the float64 spacing" in err


def test_threshold_model_choices(capsys):
    with pytest.raises(SystemExit):
        main(["threshold", "--criterion", "ppt", "--state", "ghz", "--n", "4",
              "--model", "analytic_spectrum"])
    capsys.readouterr()
    code, out, _ = run(capsys, "threshold", "--criterion", "ppt", "--state",
                       "ghz", "--n", "4", "--model", "enumerator")
    assert code == 0
    assert out.strip().endswith("state=ghz n=4 cut=1,2")


def test_threshold_dense_model(capsys):
    code, out, _ = run(capsys, "threshold", "--criterion", "fidelity",
                       "--state", "ghz", "--n", "2", "--model", "dense")
    assert code == 0
    fields = dict(kv.split("=", 1) for kv in out.strip().split(" ") if "=" in kv)
    assert abs(float(fields["eps_max"]) - (1 - 1 / math.sqrt(3))) < 1e-7


def test_sweep_fig2_values_and_determinism(capsys):
    args = ("sweep", "--preset", "fig2", "--m-range", "3:5", "--cuts", "3")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical reruns
    rows = parse_csv(out1)
    ppt_row = next(r for r in rows if r["criterion"] == "ppt")
    assert ppt_row["cut"] == "3|3"
    assert abs(float(ppt_row["eps_max"]) - 0.4001) < 0.01
    assert ppt_row["m"] == ""


def test_sweep_fig1_restricted_criteria(capsys):
    code, out, _ = run(capsys, "sweep", "--preset", "fig1", "--n-list", "2,4",
                       "--criteria", "ppt,stieltjes:3,klm:1,2,3")
    assert code == 0
    rows = parse_csv(out)
    assert {r["criterion"] for r in rows} == {"ppt", "stieltjes:3",
                                              "klm:1,2,3"}
    assert {r["n"] for r in rows} == {"2", "4"}
    for r in rows:
        if r["criterion"] == "ppt":
            assert abs(float(r["eps_max"]) - ppt_threshold_ghz(int(r["n"]))) < 1e-7


def test_sweep_fig1_matches_the_golden_table(capsys, tmp_path):
    # tests/golden/fig1.csv is the default fig1 table (n = 2, 4, ..., 12)
    # as the mpf closed form printed it, and the exact stabilizer route
    # prints it alike: a GHZ threshold that moves must change this file
    # with it
    out = tmp_path / "fig1.csv"
    code, _, _ = run(capsys, "sweep", "--preset", "fig1", "--out", str(out))
    assert code == 0
    golden = pathlib.Path(__file__).parent / "golden" / "fig1.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_sweep_runs_each_cut_and_criterion_once(capsys):
    code, out, _ = run(capsys, "sweep", "--preset", "fig2", "--m-range",
                       "3:3", "--cuts", "1,1")
    assert code == 0
    assert len(parse_csv(out)) == 6
    # PPT and ppt, p3ppt and klm:1,2,3 name one criterion each
    code, out, _ = run(capsys, "sweep", "--preset", "fig1", "--n-list", "2",
                       "--criteria", "ppt,PPT,p3ppt,klm:1,2,3")
    assert code == 0
    assert [r["criterion"] for r in parse_csv(out)] == ["klm:1,2,3", "ppt"]


def test_sweep_fig1_refuses_odd_n_up_front(capsys):
    code, out, err = run(capsys, "sweep", "--preset", "fig1",
                         "--n-list", "2:12")
    assert code == 2 and out == ""
    assert "n=3" in err and "balanced cut" in err


def test_sweep_fig1_help_examples_run(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    text = " ".join(capsys.readouterr().out.split()).split("--n-list")[-1]
    examples = re.search(r"e\.g\. ([\d,:]+) or ([\d,:]+)", text).groups()
    for n_list in examples:
        code, out, _ = run(capsys, "sweep", "--preset", "fig1", "--n-list",
                           n_list, "--criteria", "ppt")
        assert code == 0, n_list
        assert len(parse_csv(out)) == len(n_list.split(",")), n_list


def test_sweep_empty_criteria_is_error(capsys):
    code, _, err = run(capsys, "sweep", "--preset", "fig1", "--criteria", "")
    assert code == 2
    assert err.startswith("error:")


def test_json_format(capsys, tmp_path):
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--k-max", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["columns"] == ["k", "p_k", "ptilde_k"]
    assert doc["rows"][0] == ["1", "1", "2"]
    assert doc["rows"][1] == ["2", "1", "1"]
    # an --out name ending in .json writes JSON whatever --format says
    target = tmp_path / "moments.json"
    assert run(capsys, "moments", "--state", "ghz", "--n", "2", "--k-max",
               "2", "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


def test_out_is_refused_before_any_model_is_built(capsys, tmp_path,
                                                 monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")
    monkeypatch.setattr(thresholds, "epsilon_max_battery", refuse)
    monkeypatch.setattr(cli, "make_model", refuse)
    monkeypatch.setattr(cli, "state_catalog", refuse)
    for argv in (("sweep", "--preset", "fig2"),
                 ("moments", "--state", "ghz", "--n", "2", "--k-max", "2"),
                 ("enumerators", "--state", "ghz", "--n", "2")):
        assert run(capsys, *argv, "--out", str(tmp_path)) == (
            2, "", f"error: --out: {tmp_path} is a directory\n"), argv
        assert run(capsys, *argv, "--out", "") == (
            2, "", "error: --out: empty file name\n"), argv


def test_out_file_written_atomically(capsys, tmp_path):
    target = tmp_path / "moments.csv"
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--k-max", "2", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("# schema=1\n")
    # nothing else left behind in the directory
    assert os.listdir(tmp_path) == ["moments.csv"]


def test_out_into_missing_directory_fails_cleanly(capsys, tmp_path,
                                                  monkeypatch):
    target = tmp_path / "nodir" / "x.csv"
    code, _, err = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--k-max", "2", "--out", str(target))
    assert code == 2
    assert err.startswith("error:")
    assert not target.exists()
    # an existing directory is refused before anything is written
    argv = ("moments", "--state", "ghz", "--n", "2", "--k-max", "2", "--out")
    assert run(capsys, *argv, str(tmp_path)) == (
        2, "", f"error: --out: {tmp_path} is a directory\n")
    assert os.listdir(tmp_path) == []

    # a rename that fails removes its temp file
    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", refuse)
    assert run(capsys, *argv, str(tmp_path / "x.csv")) == (
        2, "", "error: rename refused\n")
    assert os.listdir(tmp_path) == []


def test_enumerators_both_agreement(capsys, monkeypatch):
    argv = ("enumerators", "--state", "ghz", "--n", "2", "--bip-size", "1",
            "--k", "3", "--method", "both")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "difference polynomial: 1 + 9z^4 - 6z^6" in out
    assert "agreement: true" in out
    rows = parse_csv(out.split("difference polynomial")[0])
    assert {r["w"]: (r["c_plus"], r["c_minus"]) for r in rows} == {
        "0": ("1", "0"), "4": ("9", "0"), "6": ("0", "6")}
    # tables that disagree are an error, reported after both are printed
    brute = cli.cw_bruteforce
    monkeypatch.setattr(cli, "cw_bruteforce", lambda *a: dataclasses.replace(
        brute(*a), cminus={6: 5}))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "counting and transform tables disagree\n")
    assert out.endswith("agreement: false\n")


def test_enumerators_fixtures(capsys, monkeypatch):
    code, out, _ = run(capsys, "enumerators", "--fixtures")
    assert code == 0
    assert all(ln.startswith("PASS") for ln in out.strip().splitlines())
    # a fixture that no longer matches fails its cut and exits 1
    dropped, *kept = enumerators._AME6_MINUS[2]
    monkeypatch.setitem(enumerators._AME6_MINUS, 2, tuple(kept))
    code, out, err = run(capsys, "enumerators", "--fixtures")
    assert code == 1
    assert out.splitlines() == ["PASS 0|6", "PASS 1|5", "FAIL 2|4",
                                "PASS 3|3"]
    assert err == f"  minus 2|4: unexpected {dropped}\n"


def test_enumerators_requires_state_without_fixtures(capsys):
    code, _, err = run(capsys, "enumerators", "--k", "2")
    assert code == 2
    assert "state" in err


def test_enumerators_budget_error_suggests_fourier(capsys):
    code, _, err = run(capsys, "enumerators", "--state", "ame6", "--n", "6",
                       "--bip-size", "3", "--k", "9", "--method", "brute")
    assert code == 2
    assert "--method fourier" in err
    # the budget is the library's default; the CLI has no option for it
    with pytest.raises(SystemExit):
        run(capsys, "enumerators", "--state", "ame6", "--n", "6", "--k", "2",
            "--method", "brute", "--budget", "10")


def test_gleason_checks(capsys):
    code, out, _ = run(capsys, "gleason", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(ln.startswith("PASS") for ln in lines)
    assert any("reconstruction" in ln for ln in lines)


def test_gleason_small_n(capsys):
    code, out, _ = run(capsys, "gleason", "--n", "4")
    assert code == 0
    # the six-qubit reconstruction check only runs at n = 6
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("state,message", [
    ("bell_pairs --n 3", "bell_pairs requires even n >= 2"),
    ("ame6 --n 5", "ame6 requires n = 6"),
    ("ghz --n 1", "ghz requires n >= 2"),
])
def test_a_bad_qubit_count_is_reported_before_the_cut(state, message,
                                                      capsys):
    # no cut can help here, so the default one is not asked for
    code, _, err = run(capsys, "criterion", "--name", "ppt", "--state",
                       *state.split())
    assert (code, err.strip()) == (2, f"error: {message}")


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "criterion", "--name", "stieltjes:4",
                       "--state", "ghz", "--n", "2")
    assert code == 2
    assert err.strip() == "error: stieltjes needs odd m"
    code, _, err = run(capsys, "threshold", "--criterion", "klm:0,1,2",
                       "--state", "ghz", "--n", "4")
    assert code == 2
    assert err.strip() == "error: klm needs a triple 1 <= k < l < m"
    code, _, err = run(capsys, "moments", "--state", "ghz", "--n", "3", "--k-max", "2")
    assert code == 2  # no default bipartition for odd n
    # the GHZ marginal purity needs both sides of the cut nonempty
    code, _, err = run(capsys, "criterion", "--name", "purity", "--state",
                       "ghz", "--n", "4", "--bip", "1,2,3,4")
    assert code == 2
    assert "cut" in err
    code, _, err = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--noise", "local:1.5", "--k-max", "2")
    assert code == 2
    # an order that is not an integer is reported with its label
    for command, flag, label in (("criterion", "--name", "stieltjes:"),
                                 ("criterion", "--name", "klm:1,2,x"),
                                 ("threshold", "--criterion", "descartes:seven")):
        code, _, err = run(capsys, command, flag, label, "--state", "ghz",
                           "--n", "4")
        assert (code, err.strip()) == (
            2, f"error: criterion {label!r}: its order must be an integer")
    # a malformed number is reported with its option and the bad token
    for argv, want in (
            (("criterion", "--name", "ppt", "--state", "ghz", "--n", "4",
              "--bip", "1,x"), "--bip: bad int 'x'"),
            (("sweep", "--preset", "fig2", "--m-range", "3:x"),
             "--m-range: bad int 'x'"),
            (("sweep", "--preset", "fig2", "--cuts", "1,y"),
             "--cuts: bad int 'y'"),
            (("sweep", "--preset", "fig1", "--n-list", "2,z"),
             "--n-list: bad int 'z'"),
            (("moments", "--state", "ghz", "--n", "2", "--noise", "local:abc",
              "--k-max", "2"), "--noise: bad float 'abc'"),
            # an empty cut list, and a cut given twice
            (("criterion", "--name", "ppt", "--state", "ghz", "--n", "4",
              "--bip", ""), "--bip: bad int ''"),
            (("criterion", "--name", "ppt", "--state", "ghz", "--n", "4",
              "--bip", "1", "--bip-size", "3"),
             "--bip and --bip-size exclude each other"),
            (("criterion", "--name", "ppt", "--state", "ghz", "--n", "4",
              "--bip-size", "0"), "--bip-size must lie in 1..n-1"),
            (("criterion", "--name", "ppt", "--state", "ghz", "--n", "4",
              "--noise", "local"), "noise must look like local:0.3 or "
                                   "global:0.3"),
            # an empty noise is no noise model, not the noiseless one
            (("criterion", "--name", "ppt", "--state", "ghz", "--n", "2",
              "--noise", ""), "noise must look like local:0.3 or "
                              "global:0.3"),
            # an empty file name is refused, not read as standard output
            (("moments", "--state", "ghz", "--n", "2", "--k-max", "2",
              "--out", ""), "--out: empty file name"),
            (("criterion", "--name", "ppt", "--state", "ghz"),
             "--n is required for this state"),
            (("moments", "--state", "ghz", "--n", "2", "--k-max", "0"),
             "--k-max must be at least 1"),
            (("enumerators", "--state", "ghz", "--n", "2", "--k", "0"),
             "need k >= 1"),
            # fig1 names its rule, not the catalog's, for n below 2
            (("sweep", "--preset", "fig1", "--n-list", "0"),
             "fig1 runs GHZ on its balanced cut n/2|n/2, which n=0 does "
             "not have; pass even n >= 2 only")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.strip()) == (2, "", f"error: {want}")


def test_full_cut_is_refused(capsys):
    code, out, err = run(capsys, "threshold", "--criterion", "ppt", "--state",
                         "ame6", "--bip", "1,2,3,4,5,6")
    assert code == 2 and out == ""
    assert "cut" in err


def test_the_environment_sets_no_precision(capsys, monkeypatch):
    # a purity margin of GHZ past the character cap is an enclosure's
    # midpoint; it and the moments print the same whatever the environment
    argvs = [("criterion", "--name", "purity", "--state", "ghz", "--n", "40",
              "--noise", "local:0.05"),
             ("moments", "--state", "ghz", "--n", "2", "--k-max", "3")]
    want = [run(capsys, *argv) for argv in argvs]
    assert want[0][:2] == (1, "Inconclusive margin=-0.108035410122\n")
    assert parse_csv(want[1][1])[2]["p_k"] == "0.25"
    for digits in ("5", "150"):
        monkeypatch.setenv("PTML_PRECISION_DIGITS", digits)
        assert [run(capsys, *argv) for argv in argvs] == want


def test_bip_parsing(capsys):
    # the list and the size shorthand name the same cut
    a = run(capsys, "moments", "--state", "ame6", "--n", "6", "--bip", "1,2",
            "--k-max", "3")
    b = run(capsys, "moments", "--state", "ame6", "--n", "6", "--bip-size", "2",
            "--k-max", "3")
    assert a == b
    code, _, err = run(capsys, "moments", "--state", "ame6", "--n", "6",
                       "--bip", "0,1", "--k-max", "2")
    assert code == 2


def test_a_repeated_bip_qubit_is_refused(capsys):
    # {2, 2} would be read as the cut {2}
    code, out, err = run(capsys, "criterion", "--name", "ppt", "--state",
                         "ghz", "--n", "4", "--bip", "2,2", "--noise",
                         "local:0.1")
    assert (code, out, err.strip()) == (2, "", "error: --bip repeats qubit 2")


def test_repeated_calls_in_one_process_behave_the_same(capsys):
    argvs = (
        ["criterion", "--name", "ppt", "--state", "ghz", "--n", "4",
         "--noise", "local:0.1"],
        ["threshold", "--criterion", "stieltjes:4", "--state", "ghz",
         "--n", "4"],
        ["sweep", "--preset", "fig9"],
        ["criterion", "--state", "ghz", "--n", "4"],
        ["moments", "--state", "ame6", "--bip-size", "2", "--k-max", "3",
         "--format", "json"],
        ["gleason", "--n", "4"],
        [],
    )

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        return (code, *capsys.readouterr())

    first = [outcome(a) for a in argvs]
    # in reverse, so each call follows another one than the first time
    again = [outcome(a) for a in reversed(argvs)][::-1]
    assert again == first
    assert [code for code, _, _ in first] == [0, 2, 2, 2, 0, 0, 2]
    assert "invalid choice: 'fig9'" in first[2][2]
    assert "--name" in first[3][2]


def test_sweep_refuses_the_other_presets_options(capsys):
    for argv, want in (
            (("--preset", "fig2", "--m-range", "3", "--cuts", "1",
              "--criteria", "ppt"), "--criteria applies to --preset fig1"),
            (("--preset", "fig2", "--n-list", "4"),
             "--n-list applies to --preset fig1"),
            (("--preset", "fig1", "--cuts", "2", "--m-range", "9"),
             "--m-range applies to --preset fig2"),
            (("--preset", "fig1", "--n-list", "2", "--cuts", "1,2,3"),
             "--cuts applies to --preset fig2"),
            # a cut outside 1..5 is reported with its option
            (("--preset", "fig2", "--m-range", "3", "--cuts", "0"),
             "--cuts: the cut needs 1 <= |A| <= 5 qubits"),
            (("--preset", "fig2", "--m-range", "3", "--cuts", "1,6"),
             "--cuts: the cut needs 1 <= |A| <= 5 qubits"),
            (("--preset", "fig2", "--cuts", " , "), "--cuts: empty list"),
            (("--preset", "fig1", "--criteria", " , "),
             "--criteria: empty list")):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {want}"), (argv, err)


def test_sweep_defaults_apply_when_an_option_is_absent(capsys):
    # fig2's default cuts 1,2,3 and fig1's default n list, each beside the
    # other option given explicitly
    code, out, _ = run(capsys, "sweep", "--preset", "fig2", "--m-range", "3")
    assert code == 0
    assert {r["cut"] for r in parse_csv(out)} == {"1|5", "2|4", "3|3"}
    code, out, _ = run(capsys, "sweep", "--preset", "fig1", "--criteria",
                       "ppt")
    assert code == 0
    assert [r["n"] for r in parse_csv(out)] == ["2", "4", "6", "8", "10", "12"]
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for default in ("default 2,4,6,8,10,12", "default 3:30",
                    "default 1,2,3"):
        assert default in text
