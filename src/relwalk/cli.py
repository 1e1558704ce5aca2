"""Experiment runner: every study as a subcommand with reproducible outputs.

Configuration comes from an INI file (one section per subcommand, flat
typed keys) with command-line flags taking precedence; each subcommand
accepts only the flags it reads. Jet angle fields are restricted to a safe
expression subset: polynomials and sin/cos in T and X. Every run directory
gets a manifest naming the resolved parameters and the sha256 of the
resolved inputs, and identical configurations reproduce output files byte
for byte.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure,
4 verification failure. Errors are emitted as one-line JSON on stderr.
"""

import argparse
import ast
import configparser
import hashlib
import json
import sys

import numpy as np

from . import __version__, dirac, fick, qwalk, roup
from . import verify as verify_mod
from ._io import ensure_dir, write_json
from .errors import ConfigError, NumericalError
from .kernels import Grid1D


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
        return eval(code, {"__builtins__": {}},
                    {"T": T, "X": X, "sin": np.sin, "cos": np.cos, "pi": np.pi})

    return field


# ------------------------------------------------------------- configuration

_SECTION_KEYS = {
    "walk": {"preset", "theta_bar", "xi_bar", "alpha_bar", "zeta_bar", "zeta0",
             "p", "epsilon", "t_final", "length", "packet_center",
             "packet_width", "packet_momentum"},
    "dirac": {"preset", "theta_bar", "xi_bar", "alpha_bar", "zeta_bar", "zeta0",
              "p", "epsilon", "t_final", "length", "packet_center",
              "packet_width", "packet_momentum"},
    "converge": {"preset", "theta_bar", "xi_bar", "alpha_bar", "zeta_bar",
                 "zeta0", "p", "eps", "t_final", "length", "packet_center",
                 "packet_width", "packet_momentum"},
    "roup": {"Q", "Qs", "T", "times", "n_x", "n_p", "dt", "refine", "threads"},
    "metric": {"Q", "times", "n_x", "n_p", "dt", "refine", "threads"},
    "heuristic": {"Q", "T", "n_xi", "xi_max"},
    "verify": {"only", "threads"},
}

_JET_PRESETS = {
    "zero": qwalk.JetSpec.zero(zeta0=-np.pi / 2.0),
    "benchmark": qwalk.JetSpec(
        p=0,
        zeta0=-np.pi / 2.0,
        theta_bar=lambda T, X: 0.3 * np.cos(X),
        xi_bar=lambda T, X: 0.2,
        alpha_bar=lambda T, X: 0.1 * np.sin(T),
    ),
}


def _load_section(path, command):
    """Flat key-value section for one command; unknown keys rejected."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: Q, Qs, T
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser[section]) - _SECTION_KEYS[section]
        if extra:
            raise ConfigError(
                f"unknown keys in [{section}]: {', '.join(sorted(extra))}")
    if command not in parser:
        return {}
    return dict(parser[command])


def _pick(flag_value, section, key, cast, default):
    if flag_value is not None:
        return flag_value
    if key in section:
        raw = section[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    return default


def _float_list(text):
    try:
        values = [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}: {exc}") from None
    if not values:
        raise ConfigError(f"empty number list {text!r}")
    return values


def _jet_from(section):
    preset = section.get("preset")
    inline = {"theta_bar", "xi_bar", "alpha_bar", "zeta_bar"} & set(section)
    if preset is not None:
        if inline:
            raise ConfigError("jet preset and inline angle fields both given")
        if preset not in _JET_PRESETS:
            raise ConfigError(
                f"unknown jet preset {preset!r}; choose from "
                f"{sorted(_JET_PRESETS)}")
        return _JET_PRESETS[preset], {"preset": preset}
    if not inline:
        return _JET_PRESETS["benchmark"], {"preset": "benchmark"}
    fields = {}
    record = {}
    for key in ("theta_bar", "xi_bar", "alpha_bar", "zeta_bar"):
        text = section.get(key, "0")
        record[key] = text
        fields[key] = compile_expression(text)
    zeta0 = float(section.get("zeta0", -np.pi / 2.0))
    p = int(section.get("p", 0))
    record.update(zeta0=zeta0, p=p)
    jet = qwalk.JetSpec(p=p, zeta0=zeta0, **fields)
    return jet, record


def _config_hash(command, inputs):
    """sha256 of the resolved inputs, wherever each value came from."""
    text = json.dumps({"command": command, "inputs": inputs},
                      sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _write_manifest(out_dir, command, inputs, outputs, results=None):
    """Manifest whose parameters are the inputs plus any results; only the inputs are hashed."""
    payload = {
        "command": command,
        "version": __version__,
        "config_sha256": _config_hash(command, inputs),
        "parameters": {**inputs, **(results or {})},
        "outputs": sorted(outputs),
    }
    write_json(f"{out_dir}/manifest.json", payload)


# ------------------------------------------------------------------ commands

def _walk_setup(args, command):
    section = _load_section(args.config, command)
    jet, jet_record = _jet_from(section)
    eps_default = [0.1, 0.05, 0.025] if command == "converge" else 0.05
    if command == "converge":
        eps = _pick(args.eps and _float_list(args.eps), section, "eps",
                    _float_list, eps_default)
    else:
        eps = _pick(args.eps and float(args.eps), section, "epsilon",
                    float, eps_default)
    params = {
        "jet": jet_record,
        "epsilon": eps,
        "t_final": _pick(args.T, section, "t_final", float, 1.0),
        "length": _pick(None, section, "length", float, 16.0),
        "packet_center": _pick(None, section, "packet_center", float, 0.0),
        "packet_width": _pick(None, section, "packet_width", float, 1.0),
        "packet_momentum": _pick(None, section, "packet_momentum", float, 0.5),
    }
    packet = lambda grid: dirac.gaussian_packet(
        grid, center=params["packet_center"], width=params["packet_width"],
        momentum=params["packet_momentum"])
    return jet, packet, params


def _grid_for(params, eps):
    count = params["length"] / eps
    if abs(count - round(count)) > 1e-9:
        raise ConfigError(
            f"length {params['length']} is not a multiple of epsilon {eps}")
    return Grid1D.periodic(params["length"], int(round(count)),
                           params["packet_center"])


def _cmd_walk(args):
    jet, packet, params = _walk_setup(args, "walk")
    eps = params["epsilon"]
    initial = packet(_grid_for(params, eps))
    state = qwalk.run_walk(jet, eps, params["t_final"], initial)
    ensure_dir(args.out)
    qwalk.write_walk_csv(state, f"{args.out}/walk_density.csv")
    _write_manifest(args.out, "walk", params, ["walk_density.csv"])
    return 0


def _cmd_dirac(args):
    jet, packet, params = _walk_setup(args, "dirac")
    eps = params["epsilon"]
    initial = packet(_grid_for(params, eps))
    coeffs = dirac.DiracCoefficients.from_jet(jet)
    final = dirac.solve_dirac(coeffs, initial, params["t_final"], eps)
    ensure_dir(args.out)
    dirac.write_density_csv(final, f"{args.out}/dirac_density.csv")
    _write_manifest(args.out, "dirac", params, ["dirac_density.csv"])
    return 0


def _cmd_converge(args):
    jet, packet, params = _walk_setup(args, "converge")
    rows = dirac.convergence_study(jet, packet, params["t_final"],
                                   params["epsilon"], params["length"],
                                   params["packet_center"])
    ensure_dir(args.out)
    from ._io import write_csv
    write_csv(f"{args.out}/convergence.csv",
              ["epsilon", "l2_error", "order"],
              [[r.epsilon for r in rows],
               [r.l2_error for r in rows],
               [np.nan if r.order is None else r.order for r in rows]])
    _write_manifest(args.out, "converge", params, ["convergence.csv"])
    return 0


def _roup_params(args, command):
    section = _load_section(args.config, command)
    params = {
        "n_x": _pick(None, section, "n_x", int, 512),
        "n_p": _pick(None, section, "n_p", int, 2048),
        "refine": _pick(None, section, "refine", int, 4),
        "threads": _pick(args.threads, section, "threads", int, 4),
        "dt": _pick(None, section, "dt", float, None),
    }
    return section, params


def _run_profile(Q, t, opts):
    run = roup.RoupParams.standard(Q, t, n_x=opts["n_x"], n_p=opts["n_p"])
    dt = opts["dt"] if opts["dt"] is not None else roup.default_dt(t)
    state = roup.evolve_all(run, t, dt=dt, threads=opts["threads"])[0]
    return roup.reconstruct_density(state, refine=opts["refine"]), dt


def _cmd_roup(args):
    section, opts = _roup_params(args, "roup")
    qs = _pick(args.Qs and _float_list(args.Qs), section, "Qs", _float_list, None)
    times = _pick(args.times and _float_list(args.times), section, "times",
                  _float_list, None)
    if qs is not None and times is not None:
        raise ConfigError("give either a time sweep or a Q sweep, not both")
    ensure_dir(args.out)
    outputs = []
    resolved = dict(opts)
    dts = {}
    if qs is not None:
        t = _pick(args.T, section, "T", float, 1.0)
        resolved.update(T=t, Qs=qs)
        for q in qs:
            profile, dts[f"Q={q:g}"] = _run_profile(q, t, opts)
            name = f"nu_profile_Q{q:g}.csv"
            roup.write_profile_csv(profile, f"{args.out}/{name}")
            outputs.append(name)
    else:
        q = _pick(args.Q, section, "Q", float, 1.0)
        times = times if times is not None else [0.5, 2.0, 10.0]
        resolved.update(Q=q, times=times)
        for t in times:
            profile, dts[f"T={t:g}"] = _run_profile(q, t, opts)
            name = f"nu_profile_T{t:g}.csv"
            roup.write_profile_csv(profile, f"{args.out}/{name}")
            outputs.append(name)
    _write_manifest(args.out, "roup", resolved, outputs, {"dt_used": dts})
    return 0


def _cmd_metric(args):
    section, opts = _roup_params(args, "metric")
    q = _pick(args.Q, section, "Q", float, 1.0)
    times = _pick(args.times and _float_list(args.times), section, "times",
                  _float_list, [1.0, 4.0, 10.0])
    ensure_dir(args.out)
    outputs = []
    residuals = {}
    dts = {}
    for t in times:
        profile, dts[f"T={t:g}"] = _run_profile(q, t, opts)
        metric = fick.metric_from_density(profile)
        name = f"metric_T{t:g}.csv"
        fick.write_metric_csv(metric, f"{args.out}/{name}")
        outputs.append(name)
        rejection = fick.simple_fick_rejection(profile)
        rname = f"fick_rejection_T{t:g}.json"
        fick.write_rejection_report(rejection, f"{args.out}/{rname}")
        outputs.append(rname)
        residuals[f"T={t:g}"] = fick.generalized_fick_residual(profile, metric)
    _write_manifest(args.out, "metric", dict(opts, Q=q, times=times), outputs,
                    {"dt_used": dts, "fick_residuals": residuals})
    return 0


def _cmd_heuristic(args):
    section = _load_section(args.config, "heuristic")
    q = _pick(args.Q, section, "Q", float, 1.0)
    t = _pick(args.T, section, "T", float, 0.05)
    n_xi = _pick(None, section, "n_xi", int, 481)
    xi_max = _pick(None, section, "xi_max", float, 1.2)
    if q <= 0.0 or t <= 0.0 or n_xi < 3 or xi_max <= 0.0:
        raise ConfigError("heuristic needs Q > 0, T > 0, n_xi >= 3, xi_max > 0")
    xi = np.linspace(-xi_max, xi_max, n_xi)
    ensure_dir(args.out)
    fick.write_heuristic_csv(t, q, xi, f"{args.out}/heuristic.csv")
    try:
        peak = fick.heuristic_peak(q)
    except ConfigError:
        peak = None  # monotone regime, no interior maximum
    resolved = {"Q": q, "T": t, "n_xi": n_xi, "xi_max": xi_max}
    _write_manifest(args.out, "heuristic", resolved, ["heuristic.csv"],
                    {"peak": peak})
    return 0


def _cmd_verify(args):
    section = _load_section(args.config, "verify")
    only = _pick(args.only, section, "only", str, None)
    threads = _pick(args.threads, section, "threads", int, 4)
    results = verify_mod.run_all(only=only, threads=threads)
    for result in results:
        print(result.line())
    ensure_dir(args.out)
    payload = {
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"number": r.number, "name": r.name, "group": r.group,
             "passed": r.passed, "runtime_s": r.runtime, "details": r.details}
            for r in results
        ],
    }
    write_json(f"{args.out}/verify_report.json", payload)
    resolved = {"only": only, "threads": threads}
    _write_manifest(args.out, "verify", resolved, ["verify_report.json"])
    return 0 if payload["all_passed"] else 4


# each subcommand with the flags it reads besides --config and --out
_COMMANDS = {
    "walk": (_cmd_walk, ("T", "eps")),
    "dirac": (_cmd_dirac, ("T", "eps")),
    "converge": (_cmd_converge, ("T", "eps")),
    "roup": (_cmd_roup, ("threads", "Q", "T", "times", "Qs")),
    "metric": (_cmd_metric, ("threads", "Q", "times")),
    "heuristic": (_cmd_heuristic, ("Q", "T")),
    "verify": (_cmd_verify, ("threads", "only")),
}

_FLAGS = {
    "threads": dict(type=int),
    "Q": dict(type=float),
    "T": dict(type=float),
    "times": dict(help="comma-separated times"),
    "Qs": dict(help="comma-separated Q values"),
    "eps": dict(help="lattice scale (comma-separated list for converge)"),
    "only": dict(choices=list(verify_mod.GROUPS),
                 help="run a single criterion group"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        json.dump({"error": "ConfigError", "message": message}, sys.stderr)
        sys.stderr.write("\n")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relwalk",
                     description="walk, transport, and metric experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI configuration file")
        p.add_argument("--out", default=f"out_{name}", help="output directory")
        for flag in flags:
            p.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NumericalError as exc:
        # before ValueError: some numerical failures are ValueErrors too
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except ValueError as exc:
        json.dump({"error": "ConfigError", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
