"""Command-line interface: config handling, exit codes, reproducibility."""

import argparse
import json
import os
import re

import numpy as np
import pytest

from relwalk import _io, cli, dirac, fick, kernels, qwalk, roup, verify
from relwalk.errors import ConfigError, NumericalError
from relwalk.kernels import Grid1D


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


@pytest.mark.parametrize("text, t", [
    ("1/T", 0.0), ("1/X", 1.0), ("1e400", 1.0), ("sin(1e400)", 1.0), ("T**400", 1e3),
])
def test_expression_that_fails_or_is_not_finite_is_config_error(text, t):
    field = cli.compile_expression(text)
    with pytest.raises(ConfigError, match=re.escape(repr(text))):
        field(t, np.arange(-2.0, 3.0))


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


def test_bad_flag_exits_2(capsys):
    assert cli.main(["walk", "--frobnicate"]) == 2
    assert _error_name(capsys) == "ConfigError"


def test_flags_a_command_does_not_read_exit_2(capsys):
    assert cli.main(["heuristic", "--times", "1,2", "--eps", "0.3", "--threads", "9"]) == 2
    assert _error_name(capsys) == "ConfigError"
    assert cli.main(["walk", "--Q", "2"]) == 2
    assert _error_name(capsys) == "ConfigError"


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


def _error_name(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


@pytest.mark.parametrize("argv", [
    ["walk", "--eps", "0"],
    ["converge", "--eps", "0.1,0"],
    ["roup", "--Q", "0", "--times", "0.5"],
    ["metric", "--Q", "0"],
    ["heuristic", "--Q", "nan"],
    ["heuristic", "--Q", "inf"],
    # a value's %g text names its output file, so a repeat would overwrite one
    ["roup", "--times", "0.1,0.1000001"],
    ["roup", "--Qs", "2,2.0", "--T", "0.5"],
    ["metric", "--times", "0.1,0.1"],
    ["converge", "--eps", "0.1,0.1"],
], ids=" ".join)
def test_out_of_range_number_exits_2(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert _error_name(capsys) == "ConfigError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, text", [
    ("walk", "length = -16\n"),
    ("walk", "t_final = -1\n"),
    ("dirac", "packet_width = 0\n"),
    ("dirac", "packet_momentum = nan\n"),
    ("converge", "eps = 0.1,,-0.05\n"),
    ("roup", "dt = 0\n"),
    ("roup", "refine = 0\n"),
    ("metric", "times = 1,inf\n"),
    ("heuristic", "n_xi = 2\n"),
    ("heuristic", "xi_max = 0\n"),
    ("verify", "only = bogus\n"),
    ("roup", "n_x = 15\n"),
    ("roup", "n_p = 6\n"),
    ("metric", "n_x = 6\n"),
    ("metric", "n_p = 2049\n"),
    # angle fields that fail or are not finite where the run evaluates them
    ("walk", "theta_bar = 1/T\n"),
    ("converge", "theta_bar = 1/T\n"),
    ("walk", "theta_bar = 1/X\n"),
    ("dirac", "theta_bar = 1/X\n"),
    ("converge", "theta_bar = 1/X\n"),
    ("dirac", "theta_bar = 1e400\n"),
    # 2 w^2 underflows to 0, so the packet's centre sample is 0/0
    ("walk", "packet_width = 1e-200\n"),
    ("dirac", "packet_width = 1e-200\n"),
    ("converge", "packet_width = 1e-200\n"),
])
def test_out_of_range_ini_value_exits_2(tmp_path, capsys, section, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{text}")
    code = cli.main([section, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    # the JSON error is all of stderr: no numpy warning ahead of it
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, ini", [
    (["roup", "--T", "4", "--times", "0.5"], None),
    (["roup", "--times", "0.5"], "[roup]\nT = 4\n"),
    (["roup", "--Q", "3", "--Qs", "1", "--T", "0.5"], None),
    (["roup", "--Qs", "1"], "[roup]\ntimes = 0.5\n"),
    (["walk"], "[walk]\nzeta0 = 1.0\n"),
    (["converge"], "[converge]\npreset = zero\np = 1\n"),
], ids=["T-in-time-sweep", "ini-T-in-time-sweep", "Q-in-Q-sweep", "times-in-Q-sweep",
        "zeta0-without-angle-field", "p-with-preset"])
def test_inputs_a_run_would_ignore_exit_2(tmp_path, capsys, argv, ini):
    if ini is not None:
        cfg = tmp_path / "unread.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", str(cfg)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert _error_name(capsys) == "ConfigError"
    assert not (tmp_path / "o").exists()


# the flags and INI keys each subcommand accepted before the option table
_WALK_INI = {"preset", "theta_bar", "xi_bar", "alpha_bar", "zeta_bar", "zeta0", "p",
             "t_final", "length", "packet_center", "packet_width", "packet_momentum"}
_ACCEPTED = {
    "walk": ({"T", "eps"}, _WALK_INI | {"epsilon"}),
    "dirac": ({"T", "eps"}, _WALK_INI | {"epsilon"}),
    "converge": ({"T", "eps"}, _WALK_INI | {"eps"}),
    "roup": ({"threads", "Q", "T", "times", "Qs"},
             {"Q", "Qs", "T", "times", "n_x", "n_p", "dt", "refine", "threads"}),
    "metric": ({"threads", "Q", "times"},
               {"Q", "times", "n_x", "n_p", "dt", "refine", "threads"}),
    "heuristic": ({"Q", "T"}, {"Q", "T", "n_xi", "xi_max"}),
    "verify": ({"threads", "only"}, {"only", "threads"}),
}


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_option_table_is_the_only_source_of_flags_and_keys():
    subparsers = _subparsers()
    assert set(subparsers) == set(cli.OPTIONS) == set(_ACCEPTED)
    for command, options in cli.OPTIONS.items():
        flags = {opt.flag for opt in options if opt.flag}
        parsed = {a.dest for a in subparsers[command]._actions} - {"help", "config", "out"}
        assert parsed == flags
        assert (flags, {opt.key for opt in options}) == _ACCEPTED[command]
        # --help names each flag's INI key and default
        help_text = {a.dest: a.help for a in subparsers[command]._actions}
        for opt in options:
            if opt.flag:
                assert f"INI key {opt.key}, default " in help_text[opt.flag]


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


def test_walk_and_converge_report_one_lattice_error(tmp_path, capsys):
    messages = []
    for argv in (["walk", "--eps", "0.3"], ["converge", "--eps", "0.1,0.3"]):
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
        messages.append(json.loads(capsys.readouterr().err.strip().splitlines()[-1]))
    assert messages[0] == messages[1] == {
        "error": "ConfigError", "message": "length 16.0 is not a multiple of epsilon 0.3"}


def test_converge_error_in_a_forked_job_is_the_one_core_error(tmp_path, capsys, monkeypatch,
                                                             forks):
    # the product overflows from T = 4.14: every walk and Dirac job fails,
    # each at its own T (the finest walk, dealt first, at T = 4.15), and the
    # first job's error is raised whatever the core count
    (tmp_path / "jet.ini").write_text("[converge]\ntheta_bar = T**250 * T**250\n")
    errors = []
    for cores in (1, 2):
        monkeypatch.setattr(kernels, "_cores", lambda: cores)
        code = cli.main(["converge", "--config", str(tmp_path / "jet.ini"), "--T", "5",
                         "--out", str(tmp_path / "o")])
        errors.append((code, capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2
    assert json.loads(errors[0][1]) == {
        "error": "ConfigError",
        "message": "expression 'T**250 * T**250' is not finite at T=4.2"}
    assert len(forks) == 2  # and no_child_left checks that both were reaped
    assert not (tmp_path / "o").exists()


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


def test_converge_with_a_zero_jet_reports_nan_orders(tmp_path):
    # with every angle field 0 the walk and the Dirac scheme agree exactly
    cfg = tmp_path / "zero.ini"
    cfg.write_text("[converge]\ntheta_bar = 0\n")
    out = tmp_path / "c"
    assert cli.main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "convergence.csv", delimiter=",", names=True)
    assert rows.shape == (3,)
    assert np.all(rows["l2_error"] == 0.0)
    assert np.all(np.isnan(rows["order"]))


# ------------------------------------------------------------ kinetic family

_SMALL_GRID = "n_x = 128\nn_p = 512\nrefine = 2\nthreads = 1\n"


def _small_cfg(tmp_path, section):
    cfg = tmp_path / "small.ini"
    cfg.write_text(f"[{section}]\n{_SMALL_GRID}")
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


# ------------------------------------------------------------ concurrent runs

_POOL_GRID = "n_x = 64\nn_p = 256\nrefine = 2\ndt = 0.01\n"


def _pool_profiles(workers):
    opts = {"n_x": 64, "n_p": 256, "refine": 2, "dt": 0.01, "threads": workers}
    runs = [(1.0, 0.1), (1.0, 0.4), (2.0, 0.2), (1.0, 0.3)]
    return [(p.density.tobytes(), p.current.tobytes(), dt)
            for p, dt in cli._profiles(runs, opts)]


def test_profiles_bitwise_equal_for_1_2_4_workers(fan_outs):
    serial = _pool_profiles(1)
    assert _pool_profiles(2) == serial
    assert _pool_profiles(4) == serial
    # runs of 10, 40, 20 and 30 steps on one grid: on 2 processes the
    # 40-step run goes first, then the 30, 20 and 10 to the least loaded
    assert fan_outs == [(2, [[1, 0], [3, 2]]), (4, [[1], [3], [2], [0]])]


@pytest.mark.parametrize("argv", [
    ["roup", "--Q", "1", "--times", "0.1,0.2,0.3"],
    ["roup", "--T", "0.2", "--Qs", "1,2,4"],
    ["metric", "--Q", "1", "--times", "0.5,1"],
], ids=["roup-times", "roup-Qs", "metric"])
def test_kinetic_outputs_identical_for_1_2_4_workers(tmp_path, fan_outs, argv):
    cfg = tmp_path / "pool.ini"
    cfg.write_text(f"[{argv[0]}]\n{_POOL_GRID}")
    outputs = []
    for workers in ("1", "2", "4"):
        out = tmp_path / f"w{workers}"
        assert cli.main(argv + ["--config", str(cfg), "--threads", workers,
                                "--out", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        # the manifest records threads, and so its hash
        manifest = json.loads(files.pop("manifest.json"))
        assert manifest["parameters"].pop("threads") == int(workers)
        del manifest["config_sha256"]
        outputs.append((files, manifest))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    # at 2 and 4 threads, one fan-out marches the runs and one writes the CSVs
    assert len(fan_outs) == 4


# each study's arguments and the CSV files it writes
_WRITTEN = {"metric": (["metric", "--Q", "1", "--times", "0.5,1"],
                       ["metric_T0.5.csv", "metric_T1.csv"]),
            "roup": (["roup", "--T", "1", "--Qs", "0.5,2"],
                     ["nu_profile_Q0.5.csv", "nu_profile_Q2.csv"])}


def _study(tmp_path, command, threads, out):
    cfg = tmp_path / "grid.ini"
    cfg.write_text(f"[{command}]\n{_POOL_GRID}")
    return cli.main(_WRITTEN[command][0] + ["--config", str(cfg), "--threads", str(threads),
                                            "--out", str(out)])


@pytest.mark.parametrize("command", _WRITTEN)
def test_forked_csv_writers_write_the_one_thread_directory(tmp_path, fan_outs, command):
    written = {}
    for threads in (1, 2, 4):
        out = tmp_path / f"t{threads}"
        assert _study(tmp_path, command, threads, out) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        # the manifest records threads, and so its hash
        manifest = json.loads(files["manifest.json"])
        assert manifest["parameters"].pop("threads") == threads
        del manifest["config_sha256"]
        files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True).encode()
        written[threads] = files
    assert written[2] == written[1]
    assert written[4] == written[1]
    # two runs, then the files: roup's two CSVs of equal rows in two parts at
    # 2 and at 4 threads; metric's two CSVs, each followed by its one-row
    # report, a CSV and its report to each of 2 parts, or one file to each of 4
    assert len(fan_outs) == 4
    assert [parts for _, parts in fan_outs[1::2]] == {
        "roup": [[[0], [1]]] * 2,
        "metric": [[[0, 1], [2, 3]], [[0], [2], [1], [3]]]}[command]


@pytest.mark.parametrize("command", _WRITTEN)
def test_no_csv_is_formatted_in_the_calling_process(tmp_path, monkeypatch, fan_outs, command):
    out = tmp_path / "o"
    names = _WRITTEN[command][1]
    pids = kernels.shared_zeros(len(names))
    write_csv = _io.write_csv

    def spy(path, *args):
        pids[names.index(os.path.basename(path))] = os.getpid()
        return write_csv(path, *args)

    monkeypatch.setattr(_io, "write_csv", spy)
    assert _study(tmp_path, command, 2, out) == 0
    assert sorted(path.name for path in out.glob("*.csv")) == names
    assert 0 not in pids and os.getpid() not in pids


@pytest.mark.parametrize("threads", [1, 2])
def test_a_forked_csv_writers_error_is_raised_here_with_its_type(tmp_path, capsys, fan_outs,
                                                                 forks, threads):
    # no_child_left checks that every child (two march parts, two writers) is reaped
    out = tmp_path / "o"
    (out / "metric_T1.csv").mkdir(parents=True)
    assert _study(tmp_path, "metric", threads, out) == 2
    assert _error_name(capsys) == "IsADirectoryError"
    assert not (out / "manifest.json").exists()
    assert len(forks) == (0 if threads == 1 else 4)


def test_an_out_that_names_a_file_exits_2_and_leaves_the_file(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("kept\n")
    assert cli.main(["heuristic", "--out", str(out)]) == 2
    assert _error_name(capsys) == "FileExistsError"
    assert out.read_text() == "kept\n"


def test_no_forked_march_part_forks_again(tmp_path, monkeypatch, fan_outs):
    # two runs of two chunks each at 4 threads on 4 cores: one fan-out of 4
    # march parts, then 4 writers of two CSVs and two reports; each march
    # records in shared memory whether its process is a child of this one
    # (slot 0) or not (slot 1)
    caller, parents = os.getpid(), kernels.shared_zeros(2)
    march = roup._Strang.march

    def recording(self, *args):
        parents[int(os.getppid() != caller)] = 1.0
        march(self, *args)

    monkeypatch.setattr(roup._Strang, "march", recording)
    cfg = tmp_path / "grid.ini"
    cfg.write_text("[metric]\nn_x = 64\nn_p = 2048\nrefine = 2\ndt = 0.01\n")
    assert cli.main(["metric", "--config", str(cfg), "--times", "0.5,1", "--threads", "4",
                     "--out", str(tmp_path / "o")]) == 0
    assert [processes for processes, _ in fan_outs] == [4, 4]
    assert parents.tolist() == [1.0, 0.0]


def test_one_run_or_one_thread_starts_no_pool(tmp_path, fan_outs):
    cfg = tmp_path / "pool.ini"
    cfg.write_text(f"[roup]\n{_POOL_GRID}")
    for argv in (["--times", "0.5", "--threads", "4"], ["--times", "0.1,0.2", "--threads", "1"]):
        assert cli.main(["roup", "--config", str(cfg), *argv,
                         "--out", str(tmp_path / "o")]) == 0
    assert fan_outs == []


def test_step_size_error_in_a_pooled_worker_exits_3(tmp_path, capsys, fan_outs):
    cfg = tmp_path / "coarse.ini"
    cfg.write_text("[roup]\nn_x = 64\nn_p = 256\nrefine = 1\ndt = 0.5\n")
    code = cli.main(["roup", "--config", str(cfg), "--times", "0.5,1", "--threads", "2",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    assert _error_name(capsys) == "StepSizeError"
    assert fan_outs == [(2, [[1], [0]])]
    assert not (tmp_path / "o").exists()


def test_step_size_error_in_a_forked_march_part_exits_3(tmp_path, capsys, fan_outs):
    # one run of two chunks to march, split over two processes; only part
    # 1's chunk is too coarse at dt = 0.5
    cfg = tmp_path / "coarse.ini"
    cfg.write_text("[roup]\nn_x = 64\nn_p = 2048\nrefine = 1\ndt = 0.5\n")
    code = cli.main(["roup", "--config", str(cfg), "--times", "10", "--threads", "2",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    assert _error_name(capsys) == "StepSizeError"
    assert fan_outs == [(2, [[0], [1]])]
    assert not (tmp_path / "o").exists()


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


def test_truncated_momentum_tail_exits_3_and_writes_nothing(tmp_path, capsys):
    # at Q = 1e9 the cutoff rounds to P = 0, so the Run itself is refused
    code = cli.main(["roup", "--Q", "1e9", "--times", "1", "--out", str(tmp_path / "o")])
    assert code == 3
    assert _error_name(capsys) == "TailTruncationError"
    assert not (tmp_path / "o").exists()


def test_value_error_in_the_inputs_exits_2(tmp_path, capsys):
    cfg = tmp_path / "steps.ini"
    cfg.write_text("[roup]\nn_x = 64\nn_p = 256\nrefine = 1\nthreads = 1\n"
                   "dt = 0.01\n")
    code = cli.main(["roup", "--config", str(cfg), "--times", "0.333",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert _error_name(capsys) == "ConfigError"


@pytest.mark.parametrize("command", ["roup", "metric"])
def test_off_grid_output_time_writes_no_file(tmp_path, capsys, monkeypatch, command):
    # 0.5 is on the dt grid and 0.333 is not: nothing may be marched or written
    def no_march(run):
        raise AssertionError("marched before every run was checked")

    monkeypatch.setattr(roup, "march", no_march)
    cfg = tmp_path / "steps.ini"
    cfg.write_text(f"[{command}]\nn_x = 16\nn_p = 64\nrefine = 1\nthreads = 1\n"
                   "dt = 0.01\n")
    code = cli.main([command, "--config", str(cfg), "--times", "0.5,0.333",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert _error_name(capsys) == "ConfigError"
    assert not (tmp_path / "o").exists()


# each study's arguments and the last library call it makes
_LAST_CALL = {"walk": ([], qwalk, "run_walk"),
              "dirac": ([], dirac, "solve_dirac"),
              "converge": ([], dirac, "convergence_study"),
              "roup": (["--times", "0.5,1"], roup, "march_runs"),
              "metric": (["--times", "0.5,1"], fick, "generalized_fick_residual"),
              "heuristic": ([], fick, "heuristic_peak"),
              "verify": (["--only", "walk"], verify, "run_all")}


@pytest.mark.parametrize("command", cli.OPTIONS)
def test_a_study_makes_no_directory_before_its_last_result(tmp_path, capsys, monkeypatch,
                                                           command):
    argv, module, name = _LAST_CALL[command]

    def fails(*args):
        raise NumericalError(f"{name} failed")

    monkeypatch.setattr(module, name, fails)
    cfg = tmp_path / "grid.ini"
    cfg.write_text(f"[{command}]\n{_POOL_GRID if command in ('roup', 'metric') else ''}")
    code = cli.main([command, *argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert _error_name(capsys) == "NumericalError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["roup", "metric", "verify"])
def test_nonpositive_threads_exit_2(tmp_path, capsys, command):
    for threads in ("0", "-3"):
        code = cli.main([command, "--threads", threads, "--out", str(tmp_path / "o")])
        assert code == 2
        assert _error_name(capsys) == "ConfigError"


def test_degenerate_metric_exits_3(tmp_path, monkeypatch, capsys):
    # a profile without current leaves no point where h = I/N^2 is defined
    march_runs = roup.march_runs

    def without_current(runs, workers):
        found = march_runs(runs, workers)
        for profiles in found:
            for profile in profiles.values():
                profile.current[:] = 0.0
        return found

    monkeypatch.setattr(roup, "march_runs", without_current)
    cfg = _small_cfg(tmp_path, "metric")
    code = cli.main(["metric", "--config", str(cfg), "--times", "1",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    assert _error_name(capsys) == "DegenerateMetricError"
    assert not (tmp_path / "o").exists()


def test_one_point_central_metric_run_exits_3_and_writes_nothing(tmp_path, capsys):
    # at Q = 0.05 only two x-indices around the centre are valid and they
    # are not adjacent, so the central run is one point: no gradient
    cfg = tmp_path / "coarse.ini"
    cfg.write_text("[metric]\nn_x = 64\nn_p = 128\nrefine = 1\ndt = 0.01\n")
    code = cli.main(["metric", "--config", str(cfg), "--Q", "0.05", "--times", "0.5",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    assert _error_name(capsys) == "DegenerateMetricError"
    assert not (tmp_path / "o").exists()


def test_failed_criterion_exits_4(tmp_path, monkeypatch):
    failed = verify.CriterionResult(1, "walk-probability", "walk", False, 0.0)
    monkeypatch.setattr(verify, "run_all", lambda only, threads: ([failed], 0.0, 0))
    code = cli.main(["verify", "--only", "walk", "--out", str(tmp_path / "v")])
    assert code == 4


def _march_runs_stub(profiles):
    """A stand-in for roup.march_runs that gives profiles(run) for each run."""
    return lambda runs, workers: [profiles(run) for run in runs]


def test_run_context_marches_its_plan_when_built(monkeypatch):
    calls = []

    def march_runs(runs, workers):
        calls.append((list(runs), workers))
        return [{t: run for t in run.times} for run in runs]

    monkeypatch.setattr(roup, "march_runs", march_runs)
    ctx = verify.RunContext(threads=3, numbers=[7, 11])
    assert ctx.plan == [verify._PEAK_RUN, *verify._VALLEY_RUNS]
    assert calls == [(ctx.plan, 3)]
    assert ctx.plan_s >= 0.0
    assert ctx.profile(verify._VALLEY_RUNS[1]) == verify._VALLEY_RUNS[1]
    assert ctx.profile(verify._PEAK_RUN, 0.5) == verify._PEAK_RUN
    assert len(calls) == 1


def test_full_gate_plan_marches_each_run_once(monkeypatch):
    monkeypatch.setattr(roup, "march_runs", _march_runs_stub(lambda run: {}))
    plan = verify.RunContext(threads=1).plan
    assert len(plan) == 9
    # refine and output times only change what is read from a march
    assert len({(run.Q, run.t_final, run.dt, run.n_x, run.n_p) for run in plan}) == 9


def test_run_context_workers_return_profiles(monkeypatch, fan_outs):
    small = (roup.Run(1.0, 0.2, 0.01, (0.1, 0.2), 32, 128, 2),
             roup.Run(2.0, 0.3, 0.01, (0.3,), 32, 128, 4))
    monkeypatch.setattr(verify, "CRITERIA", [(5, "propagation-peak", "roup", None, small)])
    ctx = verify.RunContext(threads=2)
    assert fan_outs == [(2, [[1], [0]])]
    for run in small:
        for t, expected in roup.march_runs([run], 1)[0].items():
            profile = ctx.profile(run, t)
            # a profile, not a KineticState, came back from the forked part
            assert isinstance(profile, roup.DensityProfile)
            assert profile.x_grid.count == 32 * run.refine
            assert profile.density.tobytes() == expected.density.tobytes()
            assert profile.current.tobytes() == expected.current.tobytes()


def _front_profile(t, signs=(-1.0, 1.0), current=0.0):
    # equal peaks at xi = 0.948 * sign (the twin peaks where criterion 5
    # looks for them by default) and a uniform current
    x_grid = Grid1D.periodic(3.0 * t, 512)
    x = x_grid.points
    density = sum(np.exp(-((x - s * 0.948 * t) / (0.05 * t)) ** 2) for s in signs)
    return roup.DensityProfile(x_grid, t, 1.0, density, np.full_like(x, current))


@pytest.mark.parametrize("plan_s, passed", [(1.0, True), (400.0, False)])
def test_propagation_peak_budget_counts_the_plan(monkeypatch, plan_s, passed):
    monkeypatch.setattr(roup, "march_runs",
                        _march_runs_stub(lambda run: {t: _front_profile(t) for t in run.times}))
    ctx = verify.RunContext(threads=1, numbers=[5])
    ctx.plan_s = plan_s  # as if marching the plan had taken that long
    result = verify.run_criterion(5, ctx)
    assert result.passed is passed
    assert result.details["plan_s"] == plan_s
    assert 0.0 <= result.details["runtime_s"] < 1.0


@pytest.mark.parametrize("signs, current, passed", [
    ((-1.0, 1.0), 1.0, True),  # two maxima, each carrying the largest flux
    ((-1.0, 0.0, 1.0), 1.0, False),  # three maxima
    ((-1.0, 1.0), 0.0, False),  # two maxima with zero current
])
def test_simple_fick_rejection_verdict(monkeypatch, signs, current, passed):
    monkeypatch.setattr(roup, "march_runs", _march_runs_stub(
        lambda run: {t: _front_profile(t, signs, current) for t in run.times}))
    result = verify.run_criterion(11, verify.RunContext(threads=1, numbers=[11]))
    assert "error" not in result.details
    assert result.passed is passed
    # one flux check per maximum, and the count
    assert len(result.checks) == len(signs) + 1


def _ring_profiles(run):
    # profiles of one ring per run, with an outward current, that every check can read
    x_grid = Grid1D.periodic(3.0 * max(run.Q, 1.0) * run.t_final, run.n_x * run.refine)
    x = x_grid.points
    return {t: roup.DensityProfile(x_grid, t, run.Q, np.exp(-(x / t) ** 2),
                                   x * np.exp(-(x / t) ** 2)) for t in run.times}


@pytest.mark.parametrize("number", [n for n, _, _, _, runs in verify.CRITERIA if runs])
def test_criterion_reads_only_the_runs_its_row_lists(monkeypatch, number):
    # a profile outside the plan would be a KeyError; each check runs to its end
    monkeypatch.setattr(roup, "march_runs", _march_runs_stub(_ring_profiles))
    result = verify.run_criterion(number, verify.RunContext(threads=1, numbers=[number]))
    assert "error" not in result.details, result.details["error"]


@pytest.mark.parametrize("flux_speed", [1.0, 1.01])
def test_continuity_details_carry_each_levels_spectral_residual(monkeypatch, flux_speed):
    # N = 2 + sin(k (X - T)) moves at speed 1 and J = flux_speed * N: with
    # dJ/dX taken spectrally, only the centered time difference's error of
    # order (k dt)^2 / 6 is left, or |flux_speed - 1| / flux_speed at the
    # wrong speed
    def advected(run):
        x_grid = Grid1D.periodic(8.0, run.n_x * run.refine)
        k = 2.0 * np.pi / 8.0
        waves = {t: 2.0 + np.sin(k * (x_grid.points - t)) for t in run.times}
        return {t: roup.DensityProfile(x_grid, t, run.Q, n, flux_speed * n)
                for t, n in waves.items()}

    monkeypatch.setattr(roup, "march_runs", _march_runs_stub(advected))
    result = verify.run_criterion(8, verify.RunContext(threads=1, numbers=[8]))
    spectral = result.details["spectral_residual"]
    assert list(spectral) == ["n_x=256", "n_x=512"]
    expected = abs(flux_speed - 1.0) / flux_speed
    assert all(abs(value - expected) < 1e-7 for value in spectral.values()), spectral


def test_verify_group_report(tmp_path, capsys):
    out = tmp_path / "v"
    code = cli.main(["verify", "--only", "walk", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    # the walk group marches no kinetic run
    assert report["plan_runs"] == 0
    assert 0.0 <= report["plan_s"] < 0.1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kinetic run plan: 0 runs") and lines[0].endswith("s")
    assert len(lines) == 4
    numbers = [c["number"] for c in report["criteria"]]
    assert numbers == [1, 2, 3]
    assert all(c["passed"] for c in report["criteria"])
    for line, criterion in zip(lines[1:], report["criteria"]):
        # each line ends with the smallest margin of its criterion's checks
        assert np.isfinite(criterion["margin"])
        assert line.endswith(f"  margin {criterion['margin']:.3g}")
        assert criterion["checks"]
        assert all(np.isfinite([c["value"], c["bound"]]).all() for c in criterion["checks"])
        assert criterion["margin"] == min(c["margin"] for c in criterion["checks"])


# ------------------------------------------------------------ golden manifests

# config_sha256 and parameter keys written before the option table
_GOLDEN = {
    "heuristic": (
        ["heuristic", "--Q", "1"], None,
        "739af3d92259fd820af5490e36e94b83d086892470dcd22f7c3dde9f8f95ea95",
        ["Q", "T", "n_xi", "peak", "xi_max"]),
    "walk": (
        ["walk", "--eps", "0.1", "--T", "0.5"], None,
        "9481da0d152df11a5e992cd12dcd2b09f98ea6f5d0c810940d1bbd739ae7b473",
        ["epsilon", "jet", "length", "packet_center", "packet_momentum",
         "packet_width", "t_final"]),
    "walk-inline-jet": (
        ["walk"], "[walk]\ntheta_bar = 0.3*cos(X)\nalpha_bar = 0.1*sin(T)\n"
        "xi_bar = 0.2\nepsilon = 0.1\nt_final = 0.5\nzeta0 = 1.0\np = 1\n",
        "0797900e3deb64b9cc7615c4b7c88d7b84babce84f87dd7f4dc97bc91f9738e3",
        ["epsilon", "jet", "length", "packet_center", "packet_momentum",
         "packet_width", "t_final"]),
    "converge": (
        ["converge", "--eps", "0.1,0.05", "--T", "0.5"], None,
        "27e38216a35c421854c2c3ef7a3bb2391a8a06c7fd36660c0430cb4334fa8e05",
        ["epsilon", "jet", "length", "packet_center", "packet_momentum",
         "packet_width", "t_final"]),
    "roup-time-sweep": (
        ["roup", "--Q", "1", "--times", "0.25,0.5"], f"[roup]\n{_SMALL_GRID}",
        "7433a7a6ef9ece785f72ffafe1f1fb535acd091af98a9cc07025a9f0fb0a4e50",
        ["Q", "dt", "dt_used", "n_p", "n_x", "refine", "threads", "times"]),
    "roup-Q-sweep": (
        ["roup", "--T", "0.5", "--Qs", "1,2"], f"[roup]\n{_SMALL_GRID}",
        "86cf833c3aebd162ef51e42fd7011152cb5a2549a13ae5acc5d64882c7937d90",
        ["Qs", "T", "dt", "dt_used", "n_p", "n_x", "refine", "threads"]),
    "metric": (
        ["metric", "--Q", "1", "--times", "1"], f"[metric]\n{_SMALL_GRID}",
        "13a87ca963a0bdbac1450317c5baf010f0cac4df8615b210d15a723a9aac28c5",
        ["Q", "dt", "dt_used", "fick_residuals", "n_p", "n_x", "refine",
         "threads", "times"]),
}


@pytest.mark.parametrize("case", list(_GOLDEN))
def test_manifest_matches_golden(tmp_path, case):
    argv, ini, digest, keys = _GOLDEN[case]
    if ini is not None:
        (tmp_path / "golden.ini").write_text(ini)
        argv = argv + ["--config", str(tmp_path / "golden.ini")]
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == digest
    assert sorted(manifest["parameters"]) == keys
