"""Command-line interface: config handling, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from relwalk import cli, roup, verify
from relwalk.errors import ConfigError


# ------------------------------------------------------- expression compiler

def test_expression_polynomial():
    f = cli.compile_expression("0.5*X**2 - 3*T + 1")
    assert f(2.0, 3.0) == pytest.approx(0.5 * 9 - 6 + 1)


def test_expression_trig_and_pi():
    f = cli.compile_expression("sin(pi*T) + cos(X)")
    assert f(0.5, 0.0) == pytest.approx(2.0)
    x = np.linspace(-1, 1, 7)
    assert np.allclose(f(0.5, x), 1.0 + np.cos(x))


def test_expression_unary_and_division():
    f = cli.compile_expression("-X/2")
    assert f(0.0, 3.0) == pytest.approx(-1.5)


@pytest.mark.parametrize("text", [
    "__import__('os')",
    "X.real",
    "exp(X)",
    "Y + 1",
    "X**T",
    "X**-1",
    "(lambda: 1)()",
    "[1,2][0]",
    "sin(X, 2)",
])
def test_expression_rejects_unsafe(text):
    with pytest.raises(ConfigError):
        cli.compile_expression(text)


def test_expression_rejects_syntax_error():
    with pytest.raises(ConfigError):
        cli.compile_expression("3 +")


# ------------------------------------------------------------ config errors

def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[nonsense]\nQ = 1\n")
    code = cli.main(["roup", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[metric]\nbogus = 3\n")
    code = cli.main(["metric", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_ini_keys_keep_their_case(tmp_path):
    cfg = tmp_path / "h.ini"
    cfg.write_text("[heuristic]\nQ = 1\n")
    out = tmp_path / "h"
    assert cli.main(["heuristic", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["Q"] == 1.0
    # a lower-cased key is not the documented one
    cfg.write_text("[heuristic]\nq = 1\n")
    assert cli.main(["heuristic", "--config", str(cfg),
                     "--out", str(tmp_path / "lower")]) == 2


def test_missing_config_file(tmp_path):
    code = cli.main(["walk", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["walk", "--frobnicate"])
    assert exc.value.code == 2


def test_flags_a_command_does_not_read_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["heuristic", "--times", "1,2", "--eps", "0.3", "--threads", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["walk", "--Q", "2"])
    assert exc.value.code == 2


def test_preset_and_inline_conflict(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[walk]\npreset = zero\ntheta_bar = 0.1*X\n")
    code = cli.main(["walk", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_roup_rejects_double_sweep(tmp_path):
    code = cli.main(["roup", "--times", "1,2", "--Qs", "1,2",
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_heuristic_rejects_nonpositive(tmp_path):
    assert cli.main(["heuristic", "--Q", "-1", "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["heuristic", "--T", "0", "--out", str(tmp_path / "o")]) == 2


# -------------------------------------------------------------- walk family

def test_walk_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "w"
    code = cli.main(["walk", "--eps", "0.1", "--T", "0.5", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "walk"
    assert manifest["outputs"] == ["walk_density.csv"]
    assert len(manifest["config_sha256"]) == 64
    header = (out / "walk_density.csv").read_text().splitlines()[0]
    assert header.startswith("step,site,x")


def test_walk_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = ["walk", "--eps", "0.1", "--T", "0.5"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert (out_a / "walk_density.csv").read_bytes() == \
        (out_b / "walk_density.csv").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == \
        (out_b / "manifest.json").read_bytes()


def test_walk_inline_jet_from_config(tmp_path):
    cfg = tmp_path / "jet.ini"
    cfg.write_text("[walk]\n"
                   "theta_bar = 0.3*cos(X)\n"
                   "alpha_bar = 0.1*sin(T)\n"
                   "xi_bar = 0.2\n"
                   "epsilon = 0.1\n"
                   "t_final = 0.5\n")
    out = tmp_path / "o"
    assert cli.main(["walk", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["jet"]["theta_bar"] == "0.3*cos(X)"


def test_converge_orders_near_one(tmp_path):
    out = tmp_path / "c"
    code = cli.main(["converge", "--eps", "0.1,0.05", "--T", "0.5",
                     "--out", str(out)])
    assert code == 0
    rows = np.genfromtxt(out / "convergence.csv", delimiter=",", names=True)
    assert rows["order"][-1] == pytest.approx(1.0, abs=0.15)


def test_converge_mismatched_step_is_config_error(tmp_path):
    code = cli.main(["walk", "--eps", "0.1", "--T", "0.25",
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_dirac_density_csv(tmp_path):
    out = tmp_path / "d"
    assert cli.main(["dirac", "--eps", "0.1", "--T", "0.5",
                     "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "dirac_density.csv", delimiter=",", names=True)
    total = rows["density_total"]
    assert np.all(total >= 0)
    assert np.sum(total) * 0.1 == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------ kinetic family

def _small_cfg(tmp_path, section):
    cfg = tmp_path / "small.ini"
    cfg.write_text(f"[{section}]\nn_x = 128\nn_p = 512\nrefine = 2\nthreads = 1\n")
    return cfg


def test_roup_time_sweep(tmp_path):
    out = tmp_path / "r"
    cfg = _small_cfg(tmp_path, "roup")
    code = cli.main(["roup", "--config", str(cfg), "--Q", "1",
                     "--times", "0.25,0.5", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["nu_profile_T0.25.csv", "nu_profile_T0.5.csv"]
    rows = np.genfromtxt(out / "nu_profile_T0.5.csv", delimiter=",", names=True)
    assert set(rows.dtype.names) == {"T", "X", "N", "J", "xi", "nu"}
    dx = rows["X"][1] - rows["X"][0]
    assert np.sum(rows["N"]) * dx == pytest.approx(1.0, abs=1e-6)


def test_roup_q_sweep(tmp_path):
    out = tmp_path / "r"
    cfg = _small_cfg(tmp_path, "roup")
    code = cli.main(["roup", "--config", str(cfg), "--T", "0.5",
                     "--Qs", "1,2", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["nu_profile_Q1.csv", "nu_profile_Q2.csv"]
    assert manifest["parameters"]["T"] == 0.5


def test_roup_q_sweep_from_config(tmp_path):
    out = tmp_path / "r"
    cfg = _small_cfg(tmp_path, "roup")
    cfg.write_text(cfg.read_text() + "Qs = 1,2\nT = 0.5\n")
    assert cli.main(["roup", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["nu_profile_Q1.csv", "nu_profile_Q2.csv"]
    assert manifest["parameters"]["Qs"] == [1.0, 2.0]
    assert manifest["parameters"]["T"] == 0.5


def test_metric_outputs_and_rejection(tmp_path):
    out = tmp_path / "m"
    cfg = _small_cfg(tmp_path, "metric")
    code = cli.main(["metric", "--config", str(cfg), "--Q", "1",
                     "--times", "1", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "metric_T1.csv" in manifest["outputs"]
    assert "fick_rejection_T1.json" in manifest["outputs"]
    # plumbing check only: this grid is deliberately coarse (residual ~0.07,
    # falls to ~6e-3 at production resolution, covered by the verify suite)
    assert manifest["parameters"]["fick_residuals"]["T=1"] < 0.2
    report = json.loads((out / "fick_rejection_T1.json").read_text())
    assert report["simple_fick_rejected"] is True
    rows = np.genfromtxt(out / "metric_T1.csv", delimiter=",", names=True)
    inside = rows["valid"] > 0
    assert np.all(rows["g"][inside] > 0)


def test_heuristic_manifest_peak(tmp_path):
    out = tmp_path / "h"
    assert cli.main(["heuristic", "--Q", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["peak"] == pytest.approx(
        2.0 * np.sqrt(2.0) / 3.0)
    # monotone regime reports no peak instead of failing
    out2 = tmp_path / "h2"
    assert cli.main(["heuristic", "--Q", "1.9", "--out", str(out2)]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["parameters"]["peak"] is None


def test_config_hash_covers_resolved_inputs(tmp_path):
    cfg = tmp_path / "h.ini"
    cfg.write_text("[heuristic]\nn_xi = 31\n")

    def digest(*argv, out):
        assert cli.main(["heuristic", *argv, "--out", str(tmp_path / out)]) == 0
        return json.loads((tmp_path / out / "manifest.json").read_text())["config_sha256"]

    q1 = digest("--config", str(cfg), "--Q", "1", out="q1")
    q2 = digest("--config", str(cfg), "--Q", "2", out="q2")
    assert q1 != q2
    # the same inputs hash alike whether they come from a file or defaults
    cfg.write_text("[heuristic]\nn_xi = 481\n")
    assert digest("--config", str(cfg), "--Q", "1", out="file") == digest(
        "--Q", "1", out="default")


def test_numerical_failure_exits_3(tmp_path):
    # one giant step trips the step-doubling guard before any evolution
    cfg = tmp_path / "coarse.ini"
    cfg.write_text("[roup]\nn_x = 64\nn_p = 256\nrefine = 1\nthreads = 1\n"
                   "dt = 0.5\n")
    code = cli.main(["roup", "--config", str(cfg), "--Q", "1",
                     "--times", "0.5", "--out", str(tmp_path / "o")])
    assert code == 3


def _error_name(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_value_error_in_the_inputs_exits_2(tmp_path, capsys):
    cfg = tmp_path / "steps.ini"
    cfg.write_text("[roup]\nn_x = 64\nn_p = 256\nrefine = 1\nthreads = 1\n"
                   "dt = 0.01\n")
    code = cli.main(["roup", "--config", str(cfg), "--times", "0.333",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert _error_name(capsys) == "ConfigError"


@pytest.mark.parametrize("command", ["roup", "metric", "verify"])
def test_nonpositive_threads_exit_2(tmp_path, capsys, command):
    for threads in ("0", "-3"):
        code = cli.main([command, "--threads", threads, "--out", str(tmp_path / "o")])
        assert code == 2
        assert _error_name(capsys) == "ConfigError"


def test_degenerate_metric_exits_3(tmp_path, monkeypatch, capsys):
    # a profile without current leaves no point where h = I/N^2 is defined
    reconstruct = roup.reconstruct_density

    def without_current(state, **kwargs):
        profile = reconstruct(state, **kwargs)
        profile.current[:] = 0.0
        return profile

    monkeypatch.setattr(roup, "reconstruct_density", without_current)
    cfg = _small_cfg(tmp_path, "metric")
    code = cli.main(["metric", "--config", str(cfg), "--times", "1",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    assert _error_name(capsys) == "DegenerateMetricError"


def test_failed_criterion_exits_4(tmp_path, monkeypatch):
    failed = verify.CriterionResult(1, "walk-probability", "walk", False, 0.0)
    monkeypatch.setattr(verify, "run_all", lambda only, threads: [failed])
    code = cli.main(["verify", "--only", "walk", "--out", str(tmp_path / "v")])
    assert code == 4


def test_verify_group_report(tmp_path):
    out = tmp_path / "v"
    code = cli.main(["verify", "--only", "walk", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    numbers = [c["number"] for c in report["criteria"]]
    assert numbers == [1, 2, 3]
    assert all(c["passed"] for c in report["criteria"])
