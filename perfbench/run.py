"""relwalk benchmark: one workload, timed rounds, one JSON result line.

    python3 perfbench/run.py --workload {front,sweep,walk} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. Set-up (imports and input
building) is timed in this interpreter and in fresh probe interpreters, and
``setup_s`` is their median. The timed region then repeats rounds of the
workload until ``--seconds`` have passed (at least two rounds, so outputs
and counts can be compared).

With ``--trace 0`` the result carries the end-to-end metrics. With
``--trace 1`` rounds alternate untraced, traced, traced, untraced, ...;
the per-layer metrics are medians over the traced rounds, their exact
counts must repeat from round to round, and the tracing overhead is the
difference of the traced and untraced median round walls. ``--smoke``
shrinks every input for a quick check of the harness itself.

Detail lines (environment, rounds, problems) go to stdout first; the last
line is {"correct", "attempted", "failed", "metrics"}. The exit code is 1,
with no result line, when the package cannot be set up, and 1 after the
result line when a check fails.
"""

import time

_START = time.perf_counter()

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("front", "sweep", "walk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up only and print it (used internally)")
    return parser.parse_args(argv)


def cap_thread_env(cores):
    """Cap the BLAS/OpenMP pool sizes at the usable cores; numpy reads them on import."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)


def load_relwalk():
    """Import the package from this checkout's src directory."""
    if not (SRC / "relwalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no relwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relwalk
    from relwalk import _io, cli, dirac, fick, kernels, qwalk, roup

    if Path(relwalk.__file__).resolve().parent != SRC / "relwalk":
        sys.exit(f"perfbench: relwalk was imported from {relwalk.__file__}")
    return types.SimpleNamespace(package=relwalk, io=_io, cli=cli, dirac=dirac,
                                 fick=fick, kernels=kernels, qwalk=qwalk, roup=roup)


def cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return sizes


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(rw, workload, cores):
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "relwalk").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cores": cores,
        "threads_used": workload.threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "caches": cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "relwalk": rw.package.__version__,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def probe_setup(args):
    """Set-up time of a fresh interpreter running this script with --setup-probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(workload, rw, seconds, trace, tracing):
    """Repeat rounds until `seconds` have passed; returns one dict per round."""
    kinds = (itertools.chain([False, True, True], itertools.cycle([False, True]))
             if trace else itertools.repeat(False))
    min_rounds = 3 if trace else 2
    rounds = []
    began = time.perf_counter()
    for traced in kinds:
        if len(rounds) >= min_rounds and time.perf_counter() - began >= seconds:
            break
        tracer = tracing.Tracer() if traced else None
        start = time.perf_counter()
        try:
            if traced:
                with tracing.installed(tracer, rw):
                    attempted, failed, problems = workload.run(tracer)
            else:
                attempted, failed, problems = workload.run(None)
        except Exception as exc:  # a raising round fails all its operations
            traceback.print_exc()
            attempted = failed = workload.ops
            problems = [f"{type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        rounds.append({"traced": traced, "wall_s": wall, "attempted": attempted,
                       "failed": failed, "problems": problems,
                       "layers": tracer.metrics() if traced else None})
    return rounds


def layer_result(rounds, tracing):
    traced = [r["layers"] for r in rounds if r["traced"]]
    problems = []
    metrics = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        if tracing.PER_LAYER[name][1]:  # exact counts must repeat
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    traced_wall = statistics.median(r["wall_s"] for r in rounds if r["traced"])
    plain_wall = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    metrics["trace.round_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return ({name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
             for name, value in metrics.items()}, problems)


def main(argv=None):
    args = parse_args(argv)
    cores = len(os.sched_getaffinity(0))
    cap_thread_env(cores)
    rw = load_relwalk()
    # imported after the thread caps and the package path are in place
    import tracing
    import workloads

    WORKDIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        workload = workloads.WORKLOADS[args.workload](rw, args.seed, args.smoke,
                                                      workdir, cores)
        setup_s = time.perf_counter() - _START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        print(json.dumps({"environment": environment(rw, workload, cores),
                          "workload": args.workload, "seed": args.seed,
                          "smoke": args.smoke, "setup_samples_s": setups}))
        rounds = run_rounds(workload, rw, args.seconds, args.trace, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    for i, r in enumerate(rounds, 1):
        print(json.dumps({"round": i, **{k: v for k, v in r.items() if k != "layers"}}))
        problems += r["problems"]
    if args.trace:
        metrics, count_problems = layer_result(rounds, tracing)
        problems += count_problems
    else:
        plain = [r["wall_s"] for r in rounds]
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
        }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
