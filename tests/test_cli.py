import json
import math
import tracemalloc
import warnings

import pytest

from qndsim.cli import GAMMA_POINTS_MAX, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fidelity_inline(capsys):
    code, out, _ = run_cli(
        capsys,
        "fidelity",
        "--p-in", "1,0",
        "--p-m", "1,0",
        "--p-out", "1,0",
        "--conditionals", "1,1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["f_m"] == pytest.approx(1.0)
    assert report["results"]["f_qnd"] == pytest.approx(1.0)
    assert report["results"]["f_qsp"] == pytest.approx(1.0)
    assert report["version"]


def test_fidelity_uncorrelated(capsys):
    code, out, _ = run_cli(capsys, "fidelity", "--p-in", "1,0", "--p-m", "0.5,0.5")
    assert code == 0
    assert json.loads(out)["results"]["f_m"] == pytest.approx(0.5)


def test_fidelity_accepts_weights_whose_sum_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_cli(capsys, "fidelity", "--p-in", "1e308,1e308", "--p-m", "1,1")
    assert code == 0
    assert abs(json.loads(out)["results"]["f_m"] - 1.0) <= 1e-15


def test_fidelity_counts_file(capsys, tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"p_in": [90, 10], "p_m": [88, 12]}))
    code, out, _ = run_cli(capsys, "fidelity", "--counts-file", str(path))
    assert code == 0
    expected = (math.sqrt(0.9 * 0.88) + math.sqrt(0.1 * 0.12)) ** 2
    assert json.loads(out)["results"]["f_m"] == pytest.approx(expected, abs=1e-12)


def test_fidelity_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "fidelity", "--p-in", "1,0", "--counts-file", str(path))
    assert code != 0
    blob = json.loads(err)
    assert blob["field"] == "counts_file"


def test_cnot_sweep_default_grid(capsys):
    code, out, _ = run_cli(capsys, "cnot-sweep")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 11
    assert all(r["f_qnd"] == pytest.approx(1.0, abs=1e-10) for r in rows)


def test_cnot_sweep_single_gamma_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "cnot-sweep", "--gamma", "1.0", "--format", "csv", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "gamma,f_m,f_qnd,f_qsp,k,k_bar,englert,c2_raw,c2_shortcut"
    assert len(lines) == 2
    values = dict(zip(lines[0].split(","), [float(x) for x in lines[1].split(",")]))
    assert values["f_m"] == pytest.approx(1.0)
    assert values["f_qsp"] == pytest.approx(1.0)


def test_cnot_sweep_bounds_gamma_points_before_building_the_grid(capsys):
    # a grid one point over the bound would hold about 3 MB of floats; none is built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "cnot-sweep", "--gamma-points", str(GAMMA_POINTS_MAX + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == "gamma_points"
    assert peak < 1_000_000


def test_cnot_sweep_rejects_gamma(capsys):
    code, _, err = run_cli(capsys, "cnot-sweep", "--gamma", "0.5")
    assert code != 0
    blob = json.loads(err)
    assert blob["field"] == "gamma"
    assert "out of range" in blob["error"]


def test_optics_vertical(capsys):
    code, out, _ = run_cli(capsys, "optics", "--signal", "V", "--eta", "0.3333333333")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["success_prob"] == pytest.approx(0.5, abs=1e-9)


def test_optics_horizontal(capsys):
    code, out, _ = run_cli(capsys, "optics", "--signal", "H")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["success_prob"] == pytest.approx(1 / 6, abs=1e-9)
    assert results["c2"] == pytest.approx(1.0, abs=1e-9)


def test_optics_accepts_huge_amplitudes(capsys):
    # |alpha|^2 overflows a float; the signal is still |H> to within 1e-300, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_cli(capsys, "optics", "--alpha=-1e300", "--beta", "0.866")
    assert code == 0
    assert json.loads(out)["results"]["success_prob"] == pytest.approx(1 / 6, abs=1e-12)


def test_optics_strength_zero_uncorrelated(capsys):
    code, out, _ = run_cli(capsys, "optics", "--signal", "H", "--strength-a", "0")
    assert code == 0
    assert json.loads(out)["results"]["c2"] == pytest.approx(0.0, abs=1e-9)


def test_optics_rejects_strength_a(capsys):
    code, _, err = run_cli(capsys, "optics", "--signal", "H", "--strength-a", "2")
    assert code == 2
    assert json.loads(err)["field"] == "strength_a"


def test_weak_analytic(capsys):
    code, out, _ = run_cli(
        capsys, "weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.8", "--analytic"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["analytic"]["plus_value"] == pytest.approx(-9 / 7, abs=1e-9)


def test_weak_sampled_reproducible(capsys):
    args = [
        "weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.8",
        "--shots", "20000", "--seed", "42",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    r1 = json.loads(out1)["results"]["sampled"]
    r2 = json.loads(out2)["results"]["sampled"]
    assert r1 == r2
    assert r1["value"] == pytest.approx(-9 / 7, abs=1e-9)


def test_weak_sampled_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.8",
        "--shots", "1000",
    )
    assert code != 0
    assert json.loads(err)["field"] == "seed"


def test_weak_sampled_rejects_shots(capsys):
    code, _, err = run_cli(
        capsys, "weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.8",
        "--shots", "-5", "--seed", "1",
    )
    assert code == 2
    assert json.loads(err)["field"] == "shots"


def test_weak_at_gamma_min(capsys):
    weak = ("weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.7071067811865476")
    code, out, _ = run_cli(capsys, *weak, "--analytic")
    assert code == 0
    assert json.loads(out)["results"]["analytic"]["plus_value"] == pytest.approx(-3.0, abs=1e-12)
    code, out, err = run_cli(capsys, *weak, "--shots", "1000", "--seed", "1")
    assert (code, out) == (2, "")
    assert json.loads(err)["field"] == "gamma"


def test_weak_sampled_rejects_negative_seed(capsys):
    code, _, err = run_cli(
        capsys, "weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.8",
        "--shots", "100", "--seed", "-1",
    )
    assert code == 2
    assert json.loads(err)["field"] == "seed"


def test_format_is_rejected_outside_cnot_sweep():
    with pytest.raises(SystemExit) as exc:
        main(["weak", "--alpha", "0.8", "--bound", "--format", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["fidelity", "--p-in", "1,0", "--p-m", "1,0"], ["cnot-sweep"], ["optics", "--signal", "H"]],
)
def test_seed_is_rejected_outside_weak(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2


def test_weak_bound(capsys):
    code, out, _ = run_cli(capsys, "weak", "--alpha", "0.8", "--bound")
    assert code == 0
    assert json.loads(out)["results"]["gamma_max"] == pytest.approx(0.911, abs=1e-3)


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.8, "beta": -0.6, "gamma": 1.0}))
    code, out, _ = run_cli(
        capsys, "weak", "--config", str(cfg), "--gamma", "0.8", "--analytic"
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["gamma"] == 0.8  # flag wins
    assert report["results"]["analytic"]["plus_value"] == pytest.approx(-9 / 7, abs=1e-9)


def test_rerun_from_embedded_config(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.85",
        "--shots", "5000", "--seed", "11",
    )
    assert code == 0
    report = json.loads(out)
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(report["config"]))
    code2, out2, _ = run_cli(capsys, "weak", "--config", str(cfg))
    assert code2 == 0
    assert json.loads(out2)["results"] == report["results"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["fidelity", "--p-in", "90,10", "--p-m", "88,12", "--p-out", "85,15"], None),
        (["cnot-sweep", "--gamma-points", "3"], None),
        (["cnot-sweep", "--gamma", "0.9"], None),
        (["cnot-sweep", "--gamma", "1.0000000000005"], None),
        (["optics", "--signal", "V"], None),
        (["optics", "--alpha", "0.6", "--beta", "0.8", "--loss"], None),
        (["optics", "--strength-a", "0.4"], None),
        (["optics", "--eta", "0.4"], None),
        (["weak", "--alpha", "0.8", "--bound"], None),
        (["weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.8", "--analytic"], None),
        (["weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.85",
          "--shots", "2000", "--seed", "5"], None),
        (["weak"], {"alpha": 0.8, "beta": -0.6, "gamma": 0.85, "shots": 2000, "seed": 5}),
        # a finite parameter that the mode ignores is echoed and replayed
        (["optics", "--signal", "H", "--beta", "0.5"], None),
        (["weak", "--alpha", "0.8", "--beta", "-0.6", "--bound"], None),
    ],
)
def test_report_replays_from_its_own_config(capsys, tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "w.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    saved = tmp_path / "replay.json"
    saved.write_text(json.dumps(report["config"]))
    code2, out2, _ = run_cli(capsys, argv[0], "--config", str(saved))
    assert code2 == 0
    assert json.loads(out2)["results"] == report["results"]


WEAK = ["weak", "--alpha", "0.8", "--beta", "-0.6", "--gamma", "0.8"]


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["cnot-sweep"], {"gamma_points": "abc"}, "gamma_points"),
        (["cnot-sweep", "--gamma", "nan"], None, "gamma"),
        (["optics"], {"eta": "x"}, "eta"),
        (["optics", "--eta", "nan"], None, "eta"),
        (["weak"], {"alpha": 0.8, "beta": -0.6, "gamma": 0.8, "shots": "many", "seed": 1}, "shots"),
        (["weak"], {"alpha": "x", "bound": True}, "alpha"),
        (["weak"], {"alpha": 0.8, "beta": -0.6, "gamma": 0.8, "shots": 100, "seed": "x"}, "seed"),
        (["weak", "--alpha", "0.5", "--bound"], None, "alpha"),
        (["weak", "--alpha", "0.8", "--beta", "2", "--gamma", "0.9", "--analytic"], None, "alpha"),
        (["weak", "--alpha", "nan", "--beta", "0.6", "--gamma", "0.8", "--analytic"], None, "alpha"),
        (WEAK + ["--shots", "0", "--seed", "1"], None, "shots"),
        (["fidelity", "--p-in", "nan,1", "--p-m", "1,1"], None, "p_in"),
        (WEAK + ["--analytic", "--out", "{missing}"], None, "out"),
        (["fidelity", "--p-in", "1,0", "--p-m", "1,0,0"], None, "p_m"),
        (["fidelity", "--p-in", "1,0", "--p-out", "1,0,0"], None, "p_out"),
        (["fidelity", "--p-in", "1,0", "--p-m", "1,0", "--conditionals", "1,2"], None, "conditionals"),
        (["fidelity", "--p-in", "0,0", "--p-m", "1,0"], None, "p_in"),
        (["optics"], {"signal": "H", "loss": "false"}, "loss"),
        (["cnot-sweep"], {"gamma_points": 2.5}, "gamma_points"),
        (["cnot-sweep"], {"gamma_points": True}, "gamma_points"),
        (WEAK, {"analytic": "no"}, "analytic"),
        (["weak"], {"alpha": 0.8, "bound": 1}, "bound"),
        (["fidelity", "--p-in", "1,0", "--p-m", "1,0"], {"counts_file": ["a.json"]}, "counts_file"),
        (["fidelity", "--p-in", "1,0", "--p-m", "1,0"], {"counts_file": 3.5}, "counts_file"),
        (["cnot-sweep"], {"gamma_grid": [0.9], "gama": 0.8}, "gama"),
        (["cnot-sweep", "--gamma", "0.9"], {"gamma_grid": [0.9]}, "gamma_grid"),
        (["optics"], {"signal": "H", "meter": {"dims": [2], "amps": [1, 0]}}, "meter"),
        (["fidelity", "--p-in", "1,0", "--p-m", "1,0"], {"seed": 3}, "seed"),
        (WEAK + ["--analytic"], {"format": "csv"}, "format"),
        (WEAK + ["--analytic"], {"config": {"alpha": 0.8}, "results": {}}, "config"),
        # a parameter that the mode ignores is still parsed: its report would hold a bare NaN or Infinity
        (["optics", "--signal", "H", "--beta", "nan"], None, "beta"),
        (["optics", "--signal", "V", "--alpha", "inf"], None, "alpha"),
        (["weak", "--alpha", "0.8", "--beta=-inf", "--gamma", "1e300", "--bound"], None, "beta"),
    ],
)
def test_bad_input_exits_2_naming_the_field(capsys, tmp_path, argv, config, field):
    argv = [a.replace("{missing}", str(tmp_path / "missing" / "x.json")) for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == field


@pytest.mark.parametrize("counts", [5, [1, 2]])
def test_counts_file_must_hold_a_json_object(capsys, tmp_path, counts):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(counts))
    code, out, err = run_cli(capsys, "fidelity", "--p-in", "1,0", "--counts-file", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["field"] == "counts_file"


S = "0.7071067811865476"  # 1/sqrt(2)


@pytest.mark.parametrize(
    "argv, config, field, message",
    [
        (["fidelity", "--p-in", ",", "--p-m", "1,0"], None, "p_in", "malformed distribution for p_in"),
        (["fidelity", "--p-in", "1,0"], {"p_m": 5}, "p_m", "malformed distribution for p_m"),
        (["fidelity", "--p-m", "1,0"], None, "p_in", "p_in is required"),
        (["fidelity", "--p-in", "1,0", "--conditionals", "1,1"], None, "p_m", "conditionals require p_m"),
        (["fidelity", "--p-in", "1,0"], None, "p_m", "provide at least one of p_m, p_out"),
        (["optics"], {"signal": "D"}, "signal", "signal must be H or V, got D"),
        # the H signal, heralded with probability eta, underflows to probability 0
        (["optics", "--eta", "5e-324", "--strength-a", "0"], None, "eta",
         "Kraus stack heralds a basis or conjugate input with probability 0"),
        (["weak", "--beta", "0.6", "--gamma", "0.8"], None, "alpha", "alpha is required"),
        (["weak", "--alpha", "0.8", "--beta", "-0.6"], None, "gamma", "beta and gamma are required"),
        (["weak", "--alpha", "0.8", "--gamma", "0.8"], None, "beta", "beta and gamma are required"),
        # |-> at a weak strength passes the final '+' about 0.4 % of the time: one shot is lost
        (["weak", "--alpha", S, "--beta", "-" + S, "--gamma", "0.75", "--shots", "1", "--seed", "0"], None,
         "shots", "empty post-selected ensemble"),
    ],
    ids=["malformed_flag", "malformed_config", "p_in_missing", "conditionals_without_p_m", "no_figure",
         "signal_config", "eta_heralds_nothing", "alpha_missing", "gamma_missing", "beta_missing",
         "empty_post_selection"],
)
def test_each_bad_input_branch_exits_2_naming_its_field(capsys, tmp_path, argv, config, field, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": message, "field": field}
