"""Experiment runner: every study as a subcommand with reproducible outputs.

``OPTIONS`` holds one table per subcommand and is the one source of its
inputs. Each row names an INI key, its command-line flag (or None), a
parser that checks the value's type and range, and a default. From the
table come the subcommand's flags and their ``--help``, its INI section
(flat keys; unknown sections and keys are rejected) and the parameters
its manifest records. A flag wins over the INI value, which wins over the
default. An out-of-range value, and an input the run would not read, is a
configuration error. Jet angle fields are restricted to a safe expression
subset: polynomials and sin/cos in T and X.

A study computes every result and writes nothing: it returns its files
(each output name with a writer of one path and a cost), its manifest
results and its exit code. ``main`` alone makes the output directory,
writes the files through one kernels.run_jobs fan-out on the study's
``threads``, and the manifest last, so a study that fails writes nothing.
The manifest names the resolved parameters and the sha256 of the resolved
inputs; identical configurations reproduce output files byte for byte.

Exit codes: 0 ok, 2 bad configuration or unwritable output, 3 numerical
failure, 4 verification failure; errors are one-line JSON on stderr.
"""

import argparse
import ast
import configparser
from dataclasses import asdict
from functools import partial
import hashlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, dirac, fick, qwalk, roup
from . import verify as verify_mod
from ._io import write_csv, write_json
from .errors import ConfigError, NumericalError
from .kernels import run_jobs


# ---------------------------------------------------------------- expressions

_ALLOWED_CALLS = ("sin", "cos")


def _validate_expr(node, text):
    if isinstance(node, ast.Expression):
        _validate_expr(node.body, text)
    elif isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        _validate_expr(node.left, text)
        _validate_expr(node.right, text)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exp = node.right
        if not (isinstance(exp, ast.Constant) and isinstance(exp.value, int)
                and exp.value >= 0):
            raise ConfigError(
                f"expression {text!r}: exponents must be literal nonnegative integers")
        _validate_expr(node.left, text)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _validate_expr(node.operand, text)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"expression {text!r}: only numeric literals allowed")
    elif isinstance(node, ast.Name):
        if node.id not in ("T", "X", "pi"):
            raise ConfigError(f"expression {text!r}: unknown name {node.id!r}")
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
            raise ConfigError(f"expression {text!r}: only sin and cos may be called")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"expression {text!r}: sin/cos take exactly one argument")
        _validate_expr(node.args[0], text)
    else:
        raise ConfigError(
            f"expression {text!r}: node {type(node).__name__} is outside the "
            "allowed subset (polynomials and sin/cos in T, X)")


def compile_expression(text: str):
    """Angle-field expression -> callable(T, X), safe subset only."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from None
    _validate_expr(tree, text)
    code = compile(tree, "<angle-field>", "eval")

    def field(T, X):
        try:
            with np.errstate(all="ignore"):  # a non-finite value is caught below
                value = eval(code, {"__builtins__": {}},
                             {"T": T, "X": X, "sin": np.sin, "cos": np.cos, "pi": np.pi})
        except ArithmeticError as exc:
            raise ConfigError(f"expression {text!r} fails at T={T}: {exc}") from None
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"expression {text!r} is not finite at T={T}")
        return value

    return field


# -------------------------------------------------------------- option table

def _parser(what, cast, ok=lambda value: True):
    """Parser of one flag or INI value: cast the text, then require ok(value)."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise ValueError(f"must be {what}")
        return value
    parse.what = what
    return parse


_REAL = _parser("a finite number", float, math.isfinite)
_POSITIVE = _parser("a number > 0", float, lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = _parser("a number >= 0", float, lambda v: 0.0 <= v < math.inf)
_INTEGER = _parser("an integer", int)
_EVEN = _parser("an even integer >= 8", int, lambda v: v >= 8 and v % 2 == 0)
_COUNT = _parser("an integer >= 1", int, lambda v: v >= 1)
# a value's %g text names its output file, so no two may print alike
_POSITIVES = _parser(
    "comma-separated numbers > 0, distinct to 6 significant digits",
    lambda text: [_POSITIVE(part) for part in text.split(",") if part.strip()],
    lambda values: values and len({f"{v:g}" for v in values}) == len(values))
# an angle field is checked by compiling it and recorded as its text
_EXPRESSION = _parser("an expression in T and X",
                      lambda text: compile_expression(text) and text)


class Opt(NamedTuple):
    """One input of a subcommand; ``name`` is its manifest key if not ``key``."""

    key: str
    flag: str | None
    parse: Callable
    default: object
    name: str | None = None


_ANGLES = ("theta_bar", "xi_bar", "alpha_bar", "zeta_bar")
_JET_PRESETS = {"zero": qwalk.JetSpec(zeta0=-np.pi / 2.0),
                "benchmark": qwalk.JetSpec.benchmark()}
# the jet is a preset or inline angle fields, recorded as the manifest's "jet"
_PRESET = _parser(f"one of {', '.join(_JET_PRESETS)}", str, _JET_PRESETS.__contains__)
_JET = (Opt("preset", None, _PRESET, "benchmark"),
        *(Opt(key, None, _EXPRESSION, "0") for key in _ANGLES),
        Opt("zeta0", None, _REAL, -np.pi / 2.0),
        Opt("p", None, _INTEGER, 0))
_PACKET = (Opt("t_final", "T", _NONNEGATIVE, 1.0),
           Opt("length", None, _POSITIVE, 16.0),
           Opt("packet_center", None, _REAL, 0.0),
           Opt("packet_width", None, _POSITIVE, 1.0),
           Opt("packet_momentum", None, _REAL, 0.5))
_KINETIC = (Opt("n_x", None, _EVEN, 512),
            Opt("n_p", None, _EVEN, 2048),
            Opt("refine", None, _COUNT, 4),
            Opt("threads", "threads", _COUNT, 4),  # processes for runs' chunks and output files
            Opt("dt", None, _POSITIVE, None),
            Opt("Q", "Q", _POSITIVE, 1.0))
_GROUP = _parser(f"one of {', '.join(verify_mod.GROUPS)}", str,
                 verify_mod.GROUPS.__contains__)

OPTIONS = {
    "walk": (Opt("epsilon", "eps", _POSITIVE, 0.05), *_PACKET, *_JET),
    "dirac": (Opt("epsilon", "eps", _POSITIVE, 0.05), *_PACKET, *_JET),
    "converge": (Opt("eps", "eps", _POSITIVES, [0.1, 0.05, 0.025], "epsilon"),
                 *_PACKET, *_JET),
    # a time sweep at fixed Q, or a Q sweep at fixed T when Qs is given
    "roup": (*_KINETIC, Opt("times", "times", _POSITIVES, [0.5, 2.0, 10.0]),
             Opt("T", "T", _POSITIVE, 1.0), Opt("Qs", "Qs", _POSITIVES, None)),
    "metric": (*_KINETIC, Opt("times", "times", _POSITIVES, [1.0, 4.0, 10.0])),
    "heuristic": (Opt("Q", "Q", _POSITIVE, 1.0), Opt("T", "T", _POSITIVE, 0.05),
                  Opt("n_xi", None, _parser("an integer >= 3", int, lambda v: v >= 3), 481),
                  Opt("xi_max", None, _POSITIVE, 1.2)),
    "verify": (Opt("only", "only", _GROUP, None), Opt("threads", "threads", _COUNT, 4)),
}


def _drop(params, given, unread, context):
    """Remove the inputs a run does not read; giving one is an error."""
    bad = [key for key in unread if key in given]
    if bad:
        raise ConfigError(f"{', '.join(bad)} not read {context}")
    for key in unread:
        del params[key]


def _resolve(args, command):
    """The inputs of one run as its manifest records them.

    Each value is the flag's, else the INI file's, else the default. The
    whole INI file is checked, and the inputs the run does not read are
    dropped.
    """
    section = {}
    if args.config is not None:
        ini = configparser.ConfigParser()
        ini.optionxform = str  # keys are case-sensitive: Q, Qs, T
        if not ini.read(args.config):
            raise ConfigError(f"config file {args.config!r} not found or unreadable")
        for name in ini.sections():
            if name not in OPTIONS:
                raise ConfigError(f"unknown config section [{name}]")
            extra = set(ini[name]) - {opt.key for opt in OPTIONS[name]}
            if extra:
                raise ConfigError(f"unknown keys in [{name}]: {', '.join(sorted(extra))}")
        if ini.has_section(command):
            section = dict(ini[command])
    params, given = {}, set()
    for opt in OPTIONS[command]:
        flag = getattr(args, opt.flag) if opt.flag else None
        raw = section.get(opt.key) if flag is None else flag
        value = opt.default
        if raw is not None:
            try:
                value = opt.parse(raw)
            except ValueError as exc:
                where = f"[{command}] {opt.key}" if flag is None else f"--{opt.flag}"
                raise ConfigError(f"bad value for {where}: {raw!r} ({exc})") from None
            given.add(opt.key)
        params[opt.name or opt.key] = value
    if command == "roup":
        if "Qs" in given:
            _drop(params, given, ("Q", "times"), "by a Q sweep (Qs given)")
        else:
            _drop(params, given, ("T", "Qs"), "by a time sweep (no Qs given)")
    elif "preset" in params:  # the walk family
        if given.intersection(_ANGLES):
            _drop(params, given, ("preset",), "with inline angle fields")
        else:
            _drop(params, given, (*_ANGLES, "zeta0", "p"), "without an inline angle field")
        params["jet"] = {opt.key: params.pop(opt.key) for opt in _JET if opt.key in params}
    return params


def _config_hash(command, inputs):
    """sha256 of the resolved inputs, wherever each value came from."""
    text = json.dumps({"command": command, "inputs": inputs},
                      sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _write_manifest(out_dir, command, inputs, outputs, results):
    """Manifest whose parameters are the inputs plus the results; only the inputs are hashed."""
    payload = {
        "command": command,
        "version": __version__,
        "config_sha256": _config_hash(command, inputs),
        "parameters": {**inputs, **results},
        "outputs": sorted(outputs),
    }
    write_json(f"{out_dir}/manifest.json", payload)


# ------------------------------------------------------------------ commands

def _jet(record):
    if "preset" in record:
        return _JET_PRESETS[record["preset"]]
    return qwalk.JetSpec(p=record["p"], zeta0=record["zeta0"],
                         **{key: compile_expression(record[key]) for key in _ANGLES})


def _packet(params):
    return lambda grid: dirac.gaussian_packet(
        grid, center=params["packet_center"], width=params["packet_width"],
        momentum=params["packet_momentum"])


def _lattice_packet(params):
    """The packet on the ring of spacing epsilon, where walk and dirac start."""
    return _packet(params)(dirac.lattice(params["length"], params["epsilon"],
                                         params["packet_center"]))


def _cmd_walk(params):
    """Walk density after evolving a Gaussian packet."""
    state = qwalk.run_walk(_jet(params["jet"]), params["epsilon"], params["t_final"],
                           _lattice_packet(params))
    return {"walk_density.csv": (partial(qwalk.write_walk_csv, state), state.grid.count)}, {}, 0


def _cmd_dirac(params):
    """Dirac density, the walk's continuum limit, from the same packet."""
    initial = _lattice_packet(params)
    coeffs = dirac.DiracCoefficients.from_jet(_jet(params["jet"]))
    final = dirac.solve_dirac(coeffs, initial, params["t_final"], params["epsilon"])
    write = partial(dirac.write_density_csv, final)
    return {"dirac_density.csv": (write, final.grid.count)}, {}, 0


def _cmd_converge(params):
    """Walk-versus-Dirac L2 error and order over the lattice scales."""
    rows = dirac.convergence_study(_jet(params["jet"]), _packet(params),
                                   params["t_final"], params["epsilon"],
                                   params["length"], params["packet_center"])
    columns = [[r.epsilon for r in rows], [r.l2_error for r in rows],
               [np.nan if r.order is None else r.order for r in rows]]
    write = partial(write_csv, header=["epsilon", "l2_error", "order"], columns=columns)
    return {"convergence.csv": (write, len(rows))}, {}, 0


def _profiles(runs, opts):
    """(profile, dt) of each (Q, T) in runs, marched on up to opts["threads"] processes."""
    keys = [roup.Run(q, t, opts["dt"] if opts["dt"] is not None else roup.default_dt(t), (t,),
                     opts["n_x"], opts["n_p"], opts["refine"]) for q, t in runs]
    profiles = roup.march_runs(keys, opts["threads"])
    return [(found[run.t_final], run.dt) for found, run in zip(profiles, keys)]


def _cmd_roup(params):
    """Kinetic density profiles: times at fixed Q, or a Q sweep (Qs) at fixed T."""
    if "Qs" in params:
        runs = [("Q", q, q, params["T"]) for q in params["Qs"]]
    else:
        runs = [("T", t, params["Q"], t) for t in params["times"]]
    profiles = _profiles([(q, t) for _, _, q, t in runs], params)
    files, dts = {}, {}
    for (axis, value, _, _), (profile, dt) in zip(runs, profiles):
        files[f"nu_profile_{axis}{value:g}.csv"] = (
            partial(roup.write_profile_csv, profile), profile.x_grid.count)
        dts[f"{axis}={value:g}"] = dt
    return files, {"dt_used": dts}, 0


def _cmd_metric(params):
    """Diffusion metric, generalized Fick residual and simple-Fick rejection."""
    profiles = _profiles([(params["Q"], t) for t in params["times"]], params)
    metrics = [fick.metric_from_density(profile) for profile, _ in profiles]
    reports = [fick.simple_fick_rejection(profile) for profile, _ in profiles]
    residuals = {f"T={t:g}": fick.generalized_fick_residual(profile, metric)
                 for t, (profile, _), metric in zip(params["times"], profiles, metrics)}
    files, dts = {}, {}
    for t, (_, dt), metric, report in zip(params["times"], profiles, metrics, reports):
        dts[f"T={t:g}"] = dt
        files[f"metric_T{t:g}.csv"] = (partial(fick.write_metric_csv, metric),
                                       metric.x_grid.count)
        files[f"fick_rejection_T{t:g}.json"] = (partial(write_json, payload=report), 1)
    return files, {"dt_used": dts, "fick_residuals": residuals}, 0


def _cmd_heuristic(params):
    """Closed-form short-time heuristic profile."""
    q, t = params["Q"], params["T"]
    xi = np.linspace(-params["xi_max"], params["xi_max"], params["n_xi"])
    write = partial(fick.write_heuristic_csv, t, q, xi)
    return {"heuristic.csv": (write, xi.size)}, {"peak": fick.heuristic_peak(q)}, 0


def _cmd_verify(params):
    """Acceptance criteria, all or one group (only); exit 4 if any fails."""
    results, plan_s, plan_runs = verify_mod.run_all(params["only"], params["threads"])
    print(f"{f'kinetic run plan: {plan_runs} runs':<43s}{plan_s:.1f}s")
    for result in results:
        print(result.line())
    payload = {
        "all_passed": all(r.passed for r in results),
        "plan_s": plan_s,
        "plan_runs": plan_runs,
        "criteria": [asdict(result) for result in results],
    }
    return ({"verify_report.json": (partial(write_json, payload=payload), 1)}, {},
            0 if payload["all_passed"] else 4)


_COMMANDS = {"walk": _cmd_walk, "dirac": _cmd_dirac, "converge": _cmd_converge,
             "roup": _cmd_roup, "metric": _cmd_metric, "heuristic": _cmd_heuristic,
             "verify": _cmd_verify}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _shown(default):
    if isinstance(default, list):
        return ",".join(map(str, default))
    return "unset" if default is None else default


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relwalk",
                     description="walk, transport, and metric experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in OPTIONS.items():
        doc = _COMMANDS[name].__doc__.split("\n")[0]
        p = sub.add_parser(name, help=doc, description=doc)
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--out", default=f"out_{name}", help="output directory")
        for opt in options:
            if opt.flag:
                p.add_argument(f"--{opt.flag}", help=f"{opt.parse.what}; INI key "
                               f"{opt.key}, default {_shown(opt.default)}")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = _resolve(args, args.command)
        files, results, code = _COMMANDS[args.command](params)
        os.makedirs(args.out, exist_ok=True)
        run_jobs(lambda write, path: write(path),
                 [(write, f"{args.out}/{name}") for name, (write, _) in files.items()],
                 params.get("threads", 1), [cost for _, cost in files.values()])
        _write_manifest(args.out, args.command, params, files, results)
        return code
    except (ConfigError, NumericalError, OSError, ValueError) as exc:
        # every library ValueError the CLI reaches is bad input (ring, steps, grid, times);
        # an OSError is an output that cannot be written
        known = isinstance(exc, (ConfigError, NumericalError, OSError))
        json.dump({"error": type(exc).__name__ if known else "ConfigError",
                   "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
