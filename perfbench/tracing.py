"""Per-layer spans and exact counts for the traced benchmark rounds.

Tracing happens from outside the package: for one round, ``installed``
swaps the module attributes that callers look up at call time (for
example ``relwalk.roup.tridiag_solve``, which roup imports by name) for
timed wrappers, and puts the originals back afterwards. Untraced rounds
therefore run the package exactly as shipped.

Spans are kept in memory as (name, start, end, id, parent). The parent is
the innermost open span on the same thread; spans on the marcher's worker
threads have none, so time inside ``evolve_all`` not covered by a solve is
measured as wall time minus the union of the solve intervals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Full passes over the (n_p, n_modes) complex array in one Strang step of the
# kinetic marcher, each an array read or write of 16-byte elements. Bytes from
# this model ignore caches and the small per-row vectors: they are computed
# from array sizes, not measured.
STEP_PASSES = {
    "F = phase * F": 3,
    "rhs = diag * F": 2,
    "rhs[1:] += lower * F[:-1] (temporary, then add)": 5,
    "rhs[:-1] += upper * F[1:] (temporary, then add)": 5,
    "solve_banded: Fortran-order copy, forward and back sweeps": 6,
    "F *= phase": 3,
}
BYTES_PER_CELL_STEP = 16 * sum(STEP_PASSES.values())

# name -> (unit, exact). Exact values are counts that must repeat bit for bit
# from round to round; the rest are times and rates.
PER_LAYER = {
    "roup.evolve_all.s": ("s", False),
    "roup.evolve_all.calls": ("count", True),
    "roup.step_ms": ("ms", False),
    "roup.march_other.s": ("s", False),
    "roup.steps_marched": ("count", True),
    "roup.guard_steps": ("count", True),
    "roup.cell_steps": ("count", True),
    "roup.bytes_per_step_computed": ("B", True),
    "roup.computed_gb_per_s": ("GB/s", False),
    "roup.useful_step_ratio": ("ratio", True),
    "roup.reconstruct_density.s": ("s", False),
    "kernels.tridiag_solve.s": ("s", False),
    "kernels.tridiag_solve.wall_s": ("s", False),
    "kernels.tridiag_solve.calls": ("count", True),
    "fick.metric_from_density.s": ("s", False),
    "fick.generalized_fick_residual.s": ("s", False),
    "fick.simple_fick_rejection.s": ("s", False),
    "io.write_csv.s": ("s", False),
    "io.write_csv.calls": ("count", True),
    "io.write_csv.bytes": ("B", True),
    "io.write_json.s": ("s", False),
    "cli.self.s": ("s", False),
    "qwalk.step_walk.s": ("s", False),
    "qwalk.step_walk.calls": ("count", True),
    "qwalk.angle_field.s": ("s", False),
    "qwalk.total_probability.s": ("s", False),
    "qwalk.site_steps": ("count", True),
    "dirac.solve_dirac.s": ("s", False),
    "dirac.solve_dirac.calls": ("count", True),
    "dirac.site_steps": ("count", True),
    # filled in by run.py from the traced and untraced round walls
    "trace.round_wall_s": ("s", False),
    "trace.overhead_s": ("s", False),
}


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        # one (study, Q, steps to the latest requested time, requested steps,
        # steps marched) record per evolve_all call
        self.evolutions = []
        self.study = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def call(self, name, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, span_id, parent))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def metrics(self) -> dict:
        busy = defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)
        for name, start, end, _, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        cli_self = sum(end - start - child_time[span_id]
                       for name, start, end, span_id, _ in self.spans
                       if name == "cli.main")
        solve_wall = _union_length(
            (start, end) for name, start, end, _, _ in self.spans
            if name == "kernels.tridiag_solve")

        marched = requested = 0
        latest = {}
        for study, q, needed, asked, steps in self.evolutions:
            marched += steps
            requested += asked
            latest[study, q] = max(latest.get((study, q), 0), needed)
        evolve_s = busy["roup.evolve_all"]
        computed_bytes = BYTES_PER_CELL_STEP * self.counts["roup.cell_steps"]

        def per_step(value):
            return value / marched if marched else 0.0

        out = {
            "roup.evolve_all.s": evolve_s,
            "roup.evolve_all.calls": calls["roup.evolve_all"],
            "roup.step_ms": 1e3 * per_step(evolve_s),
            "roup.march_other.s": evolve_s - solve_wall,
            "roup.steps_marched": marched,
            "roup.guard_steps": marched - requested,
            "roup.cell_steps": self.counts["roup.cell_steps"],
            "roup.bytes_per_step_computed": per_step(computed_bytes),
            "roup.computed_gb_per_s": computed_bytes / evolve_s / 1e9 if evolve_s else 0.0,
            "roup.useful_step_ratio": per_step(sum(latest.values())),
            "kernels.tridiag_solve.wall_s": solve_wall,
            "io.write_csv.bytes": self.counts["io.write_csv.bytes"],
            "cli.self.s": cli_self,
            "qwalk.site_steps": self.counts["qwalk.site_steps"],
            "dirac.site_steps": self.counts["dirac.site_steps"],
        }
        for name in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if name not in out and kind in ("s", "calls"):
                out[name] = busy[layer] if kind == "s" else calls[layer]
        return out


def _bindings(tracer, rw):
    """(module, attribute, wrapper) for every binding a traced round swaps."""
    roup, qwalk, dirac = rw.roup, rw.qwalk, rw.dirac
    evolve_sig = inspect.signature(roup.evolve_all)
    dirac_sig = inspect.signature(dirac.solve_dirac)

    def evolve_all(fn):
        def traced(*args, **kwargs):
            a = evolve_sig.bind(*args, **kwargs)
            a.apply_defaults()
            a = a.arguments
            params, t_final = a["params"], a["t_final"]
            dt = a["dt"] if a["dt"] is not None else roup.default_dt(t_final)
            latest = max(a["output_times"] or [t_final])
            cells_before = tracer.counts["roup.cell_steps"]
            out = tracer.call("roup.evolve_all", fn, *args, **kwargs)
            cells = tracer.counts["roup.cell_steps"] - cells_before
            tracer.evolutions.append((
                tracer.study, params.Q, round(latest / dt), round(t_final / dt),
                cells // (params.n_p * params.n_modes)))
            return out
        return traced

    def tridiag_solve(fn):
        def traced(sub, diag, sup, rhs):
            tracer.add("roup.cell_steps", rhs.size)
            return tracer.call("kernels.tridiag_solve", fn, sub, diag, sup, rhs)
        return traced

    def write_csv(fn):
        def traced(path, *args, **kwargs):
            out = tracer.call("io.write_csv", fn, path, *args, **kwargs)
            tracer.add("io.write_csv.bytes", os.path.getsize(path))
            return out
        return traced

    def step_walk(fn):
        def traced(state, angle_field):
            tracer.add("qwalk.site_steps", state.psi_minus.size)
            return tracer.call("qwalk.step_walk", fn, state, angle_field)
        return traced

    def realize_jet(fn):
        def traced(*args, **kwargs):
            return tracer.wrap("qwalk.angle_field", fn(*args, **kwargs))
        return traced

    def solve_dirac(fn):
        def traced(*args, **kwargs):
            a = dirac_sig.bind(*args, **kwargs).arguments
            steps = round(a["t_final"] / a["dt"])
            tracer.add("dirac.site_steps", steps * a["initial"].grid.count)
            return tracer.call("dirac.solve_dirac", fn, *args, **kwargs)
        return traced

    def cli_main(fn):
        def traced(*args, **kwargs):
            tracer.study += 1
            return tracer.call("cli.main", fn, *args, **kwargs)
        return traced

    def timed(name):
        return lambda fn: tracer.wrap(name, fn)

    return [
        (roup, "evolve_all", evolve_all),
        (roup, "tridiag_solve", tridiag_solve),
        (roup, "reconstruct_density", timed("roup.reconstruct_density")),
        (rw.fick, "metric_from_density", timed("fick.metric_from_density")),
        (rw.fick, "generalized_fick_residual", timed("fick.generalized_fick_residual")),
        (rw.fick, "simple_fick_rejection", timed("fick.simple_fick_rejection")),
        (rw.io, "write_csv", write_csv),
        (rw.io, "write_json", timed("io.write_json")),
        (rw.cli, "write_json", timed("io.write_json")),
        (rw.cli, "main", cli_main),
        (qwalk, "step_walk", step_walk),
        (qwalk, "total_probability", timed("qwalk.total_probability")),
        (qwalk, "realize_jet", realize_jet),
        (dirac, "solve_dirac", solve_dirac),
    ]


@contextmanager
def installed(tracer, rw):
    """Swap in the traced bindings for the duration of the block."""
    saved = []
    try:
        for module, attr, make in _bindings(tracer, rw):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, functools.wraps(original)(make(original)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
