"""End-to-end CLI tests, run in-process through main()."""

import csv
import json
import math
import os

import numpy as np
import pytest

from ptml.cli import main
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
    # large-n stabilizer path has no dense cross-check inside the CLI, so
    # do one here at a size where both run
    from ptml.pauli import Bipartition, state_catalog
    from ptml.dense import depolarize_local, pt_moments, state_from_group

    code, out, _ = run(capsys, "moments", "--state", "ame6", "--n", "6",
                       "--bip", "1,2,3", "--noise", "local:0.25", "--k-max", "4")
    assert code == 0
    rho = depolarize_local(state_from_group(state_catalog("ame6", 6)), 0.25)
    want = pt_moments(rho, Bipartition(6, frozenset({1, 2, 3})), 4)
    for r in parse_csv(out):
        assert float(r["p_k"]) == pytest.approx(want.p(int(r["k"])), abs=1e-9)


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


def test_sweep_empty_criteria_is_error(capsys):
    code, _, err = run(capsys, "sweep", "--preset", "fig1", "--criteria", "")
    assert code == 2
    assert err.startswith("error:")


def test_json_format(capsys):
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--k-max", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["columns"] == ["k", "p_k", "ptilde_k"]
    assert doc["rows"][0] == ["1", "1", "2"]
    assert doc["rows"][1] == ["2", "1", "1"]


def test_out_file_written_atomically(capsys, tmp_path):
    target = tmp_path / "moments.csv"
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--k-max", "2", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("# schema=1\n")
    # nothing else left behind in the directory
    assert os.listdir(tmp_path) == ["moments.csv"]


def test_out_into_missing_directory_fails_cleanly(capsys, tmp_path):
    target = tmp_path / "nodir" / "x.csv"
    code, _, err = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--k-max", "2", "--out", str(target))
    assert code == 2
    assert err.startswith("error:")
    assert not target.exists()


def test_enumerators_both_agreement(capsys):
    code, out, _ = run(capsys, "enumerators", "--state", "ghz", "--n", "2",
                       "--bip-size", "1", "--k", "3", "--method", "both")
    assert code == 0
    assert "difference polynomial: 1 + 9z^4 - 6z^6" in out
    assert "agreement: true" in out
    rows = parse_csv(out.split("difference polynomial")[0])
    assert {r["w"]: (r["c_plus"], r["c_minus"]) for r in rows} == {
        "0": ("1", "0"), "4": ("9", "0"), "6": ("0", "6")}


def test_enumerators_fixtures(capsys):
    code, out, _ = run(capsys, "enumerators", "--fixtures")
    assert code == 0
    assert all(ln.startswith("PASS") for ln in out.strip().splitlines())


def test_enumerators_requires_state_without_fixtures(capsys):
    code, _, err = run(capsys, "enumerators", "--k", "2")
    assert code == 2
    assert "state" in err


def test_enumerators_budget_error_suggests_fourier(capsys):
    code, _, err = run(capsys, "enumerators", "--state", "ame6", "--n", "6",
                       "--bip-size", "3", "--k", "9", "--method", "brute")
    assert code == 2
    assert "--method fourier" in err


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


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "criterion", "--name", "stieltjes:4",
                       "--state", "ghz", "--n", "2")
    assert code == 2
    assert err.strip() == "error: stieltjes needs odd m"
    code, _, err = run(capsys, "moments", "--state", "ghz", "--n", "3", "--k-max", "2")
    assert code == 2  # balanced cut needs even n
    code, _, err = run(capsys, "moments", "--state", "ghz", "--n", "2",
                       "--noise", "local:1.5", "--k-max", "2")
    assert code == 2


def test_precision_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("PTML_PRECISION_DIGITS", "5")
    code, _, err = run(capsys, "moments", "--state", "ghz", "--n", "2", "--k-max", "2")
    assert code == 2
    assert "PTML_PRECISION_DIGITS" in err


def test_precision_env_accepted(capsys, monkeypatch):
    monkeypatch.setenv("PTML_PRECISION_DIGITS", "40")
    code, out, _ = run(capsys, "moments", "--state", "ghz", "--n", "2", "--k-max", "3")
    assert code == 0
    assert parse_csv(out)[2]["p_k"] == "0.25"


def test_bip_parsing(capsys):
    # explicit list beats size shorthand; both beat the balanced default
    a = run(capsys, "moments", "--state", "ame6", "--n", "6", "--bip", "1,2",
            "--k-max", "3")
    b = run(capsys, "moments", "--state", "ame6", "--n", "6", "--bip-size", "2",
            "--k-max", "3")
    assert a == b
    code, _, err = run(capsys, "moments", "--state", "ame6", "--n", "6",
                       "--bip", "0,1", "--k-max", "2")
    assert code == 2
