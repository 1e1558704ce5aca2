"""Quantitative acceptance checks for the whole package.

Each criterion is a self-contained measurement: one Check per tolerance,
plus details. Its CRITERIA row lists the kinetic runs it reads. A
context marches the union of the selected rows' runs once, when it is
built, as independent jobs several at a time, so criteria that probe the
same run (the T = 0.5 profile feeds the peak check, the valley check, and
the flux-at-maximum check) pay for one evolution.
"""

from dataclasses import dataclass, field
import time
from typing import NamedTuple

import numpy as np

from . import dirac, fick, qwalk, roup
from .kernels import Grid1D, quad


class Check(NamedTuple):
    """One tolerance of a criterion: it holds when ``value sense bound`` is true."""

    name: str
    value: float
    sense: str
    bound: float

    def record(self) -> dict:
        """JSON form. margin is (bound - value)/|bound|, negated for a lower bound so it
        is positive when ok; None for ``==`` and for a zero bound."""
        v, b = self.value, self.bound
        ok = {"<": v < b, "<=": v <= b, ">": v > b, ">=": v >= b, "==": v == b}[self.sense]
        margin = None
        if self.sense != "==" and b != 0:
            margin = (float(b) - float(v)) / abs(float(b)) * (1.0 if "<" in self.sense else -1.0)
        return {"name": self.name, "value": float(v), "sense": self.sense,
                "bound": float(b), "margin": margin, "ok": bool(ok)}


@dataclass
class CriterionResult:
    number: int
    name: str
    group: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # Check.record() of each check
    margin: float | None = None  # the smallest margin of its checks

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        margin = "-" if self.margin is None else f"{self.margin:.3g}"
        return (f"criterion {self.number:2d} {self.name:<24s} {verdict}  "
                f"{self.runtime_s:.1f}s  margin {margin}")


class RunContext:
    """The kinetic runs of the given criteria, marched once when built.

    Every run the CRITERIA rows of ``numbers`` (default: all) list is
    marched by roup.march_runs, whose (run, chunk) units are dealt to
    ``threads`` processes at most; plan_s is the wall time of that march.
    """

    def __init__(self, threads: int = 4, numbers=None):
        self.plan = list(dict.fromkeys(
            run for number, _, _, _, runs in CRITERIA
            if numbers is None or number in numbers for run in runs))
        started = time.perf_counter()
        self._profiles = dict(zip(self.plan, roup.march_runs(self.plan, threads)))
        self.plan_s = time.perf_counter() - started

    def profile(self, run, t=None):
        """Density of a planned run at time t (default its t_final), at its refine."""
        return self._profiles[run][run.t_final if t is None else t]


def _crit_walk_probability(ctx):
    n_sites = 1024
    steps = 10_000
    coin_field = qwalk.random_smooth_angle_field(seed=20240811, n_sites=n_sites)
    rng = np.random.default_rng(7)
    pm = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    pp = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    norm = np.sqrt(np.sum(np.abs(pm) ** 2 + np.abs(pp) ** 2))
    state = qwalk.WalkState(pm / norm, pp / norm, 0, 1.0, 1.0,
                            Grid1D.periodic(float(n_sites), n_sites))
    p0 = qwalk.total_probability(state)
    drift = 0.0
    for _ in range(steps):
        state = qwalk.step_walk(state, coin_field)
        drift = max(drift, abs(qwalk.total_probability(state) - p0))
    return [Check("max_drift", drift, "<", 1e-10)], {"sites": n_sites, "steps": steps}


def _crit_continuum_convergence(ctx):
    jet = qwalk.JetSpec.benchmark()
    packet = lambda grid: dirac.gaussian_packet(grid, width=1.0, momentum=0.5)
    rows = dirac.convergence_study(jet, packet, 1.0, [0.1, 0.05, 0.025], 16.0)
    checks = [Check(f"order eps={r.epsilon:g}", r.order, ">=", 0.9)
              for r in rows if r.order is not None]
    return checks + [Check("error_at_finest", rows[-1].l2_error, "<", 1e-2)], {}


def _crit_dirac_dispersion(ctx):
    worst = 0.0
    measured = {}
    for k in (1.0, 2.0, 4.0):
        omega = dirac.measure_dispersion(k, mass=1.0, dt_target=1e-3)
        target = np.sqrt(k * k + 1.0)
        rel = abs(omega - target) / target
        measured[f"k={k:g}"] = {"omega": omega, "target": target, "rel_error": rel}
        worst = max(worst, rel)
    return [Check("worst_rel_error", worst, "<", 1e-3)], {"branches": measured}


def _crit_juttner_stationarity(ctx):
    # the K = 0 row of the standard initial state is the Juttner equilibrium
    run = roup.Run(1.0, 10.0, roup.default_dt(10.0), (10.0,), n_x=8)
    f0 = roup.juttner(run.p_grid.points, 1.0) / np.sqrt(2.0 * np.pi)
    f = roup.march(run)[0].modes[0]
    drift = float(quad(np.abs(f - f0), run.p_grid) / quad(np.abs(f0), run.p_grid))
    return [Check("relative_l1_drift", drift, "<", 1e-6)], {}


_PEAK_RUN = roup.Run(1.0, 0.75, 2.5e-4, (0.25, 0.5, 0.75))


def _crit_propagation_peak(ctx):
    started = time.perf_counter()
    peaks = {t: roup.peak_location(ctx.profile(_PEAK_RUN, t))[0] for t in _PEAK_RUN.times}
    elapsed = time.perf_counter() - started
    target = 0.948
    tolerance = 0.015
    checks = [Check(f"|peak T=0.5 - {target}|", abs(peaks[0.5] - target), "<=", tolerance)]
    checks += [Check(f"|peak T={t:g} - peak T=0.5|", abs(peaks[t] - peaks[0.5]), "<=", tolerance)
               for t in (0.25, 0.75)]
    checks.append(Check("plan_s + runtime_s", ctx.plan_s + elapsed, "<", 300.0))
    return checks, {"peaks": {f"T={t:g}": v for t, v in peaks.items()},
                    "plan_s": ctx.plan_s, "runtime_s": elapsed}


_SHORT_RUN = roup.Run(1.0, 0.05, 1e-4, (0.05,))


def _crit_short_time_heuristic(ctx):
    # the heuristic formula is not normalized (its 1/2pi prefactor is not
    # the free-streaming Juttner constant), so the distance is taken
    # between unit-mass shapes
    profile = ctx.profile(_SHORT_RUN)
    xi, nu = roup.rescaled_profile(profile)
    d_xi = xi[1] - xi[0]
    heur = fick.heuristic_rescaled(xi, 1.0)
    l1 = float(np.sum(np.abs(nu / np.sum(nu) - heur / np.sum(heur))))
    right = xi > 0.0
    formula_peak = float(xi[right][np.argmax(heur[right])])
    target = fick.heuristic_peak(1.0)
    checks = [Check("shape_l1_distance", l1, "<", 0.05),
              Check("|formula_grid_peak - peak_target|", abs(formula_peak - target), "<=", d_xi)]
    return checks, {"formula_grid_peak": formula_peak, "peak_target": target,
                    "profile_peak": roup.peak_location(profile)[0]}


def _nu_at_zero(profile):
    xi, nu = roup.rescaled_profile(profile)
    return float(nu[np.argmin(np.abs(xi))])


def _gaussian_l1(profile):
    xi, nu = roup.rescaled_profile(profile)
    d_xi = xi[1] - xi[0]
    mass = float(np.sum(nu) * d_xi)
    var = float(np.sum(xi * xi * nu) * d_xi / mass)
    gauss = mass * np.exp(-xi * xi / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return float(np.sum(np.abs(nu - gauss)) * d_xi / mass)


_FICK_RUNS = {t: roup.Run(1.0, t, dt, (t,), refine=4)
              for t, dt in ((1.0, 5e-4), (4.0, 2e-3), (10.0, 5e-3))}
# the T = 10 profile is criterion 9's run, so both read one march
_VALLEY_RUNS = (roup.Run(1.0, 2.0, 1e-3, (2.0,)), _FICK_RUNS[10.0])


def _crit_valley_to_gaussian(ctx):
    early = ctx.profile(_PEAK_RUN, 0.5)
    mid, late = (ctx.profile(run) for run in _VALLEY_RUNS)
    nu0 = {0.5: _nu_at_zero(early), 2.0: _nu_at_zero(mid), 10.0: _nu_at_zero(late)}
    return [Check("nu_at_zero T=0.5 vs T=2", nu0[0.5], "<", nu0[2.0]),
            Check("nu_at_zero T=2 vs T=10", nu0[2.0], "<", nu0[10.0]),
            Check("nu_at_zero T=0.5 vs peak", nu0[0.5], "<", roup.peak_location(early)[1]),
            Check("gaussian_l1 T=10 vs T=2", _gaussian_l1(late), "<", _gaussian_l1(mid))], {}


# base and refined levels: three output times dt apart around T = 0.5
_CONTINUITY_RUNS = tuple(roup.Run(1.0, 0.5 + dt, dt, (0.5 - dt, 0.5, 0.5 + dt), n_x, 1024, 16)
                         for n_x, dt in ((256, 2.5e-4), (512, 1.25e-4)))


def _crit_continuity(ctx):
    base, fine = (roup.continuity_residual([ctx.profile(run, t) for t in run.times])
                  for run in _CONTINUITY_RUNS)
    return [Check("base_residual", base, "<", 1e-2),
            Check("refined_residual", fine, "<=", 0.5 * base)], {"ratio": fine / base}


def _crit_generalized_fick(ctx):
    # the g-vs-xi family: every curve grows from the center toward the cone,
    # most (tenfold at |xi| = 0.95) for the earliest, propagative time, and
    # flattens as the profile gaussianizes, toward the flat Galilean limit
    checks = []
    ratios = {}
    for t, run in _FICK_RUNS.items():
        profile = ctx.profile(run)
        metric = fick.metric_from_density(profile)
        res = fick.generalized_fick_residual(profile, metric)
        xi = profile.x_grid.points / (profile.Q * t)
        g0 = float(metric.g[np.argmin(np.abs(xi))])
        g_edge = min(float(metric.g[np.argmin(np.abs(xi - 0.95))]),
                     float(metric.g[np.argmin(np.abs(xi + 0.95))]))
        ratios[t] = g_edge / g0
        checks.append(Check(f"fick_residual T={t:g}", res, "<", 1e-2))
    checks.append(Check("propagative g_ratio_at_0.95 T=1", ratios[1.0], ">", 10.0))
    checks += [Check(f"g_ratio_at_0.95 T={t:g}", r, ">", 1.0) for t, r in ratios.items()]
    return checks + [Check("g_ratio_at_0.95 T=1 vs T=4", ratios[1.0], ">", ratios[4.0]),
                     Check("g_ratio_at_0.95 T=4 vs T=10", ratios[4.0], ">", ratios[10.0])], {}


_GALILEAN_RUN = roup.Run(8.0, 10.0, 5e-3, (10.0,), refine=4)


def _crit_galilean_limit(ctx):
    reference = fick.galilean_ou_profile(10.0)
    metric = fick.metric_from_density(reference)
    h = metric.h[metric.valid]
    flat = float(np.max(np.abs(h - np.mean(h))) / np.mean(h))
    profile = ctx.profile(_GALILEAN_RUN)
    x = profile.x_grid.points
    s = fick.galilean_ou_variance(10.0)
    gauss = np.exp(-x * x / (2.0 * s)) / np.sqrt(2.0 * np.pi * s)
    l1 = float(np.sum(np.abs(profile.density - gauss)) * profile.x_grid.spacing)
    return [Check("ou_flatness", flat, "<", 1e-2),
            Check("l1_to_gaussian", l1, "<", 0.02)], {}


def _crit_simple_fick_rejection(ctx):
    # a flux above FLUX_RATIO at a maximum is what sets simple_fick_rejected
    peaks = fick.simple_fick_rejection(ctx.profile(_PEAK_RUN, 0.5))["peaks"]
    checks = [Check(f"abs_J_over_max peak {i}", p["abs_J_over_max"], ">", fick.FLUX_RATIO)
              for i, p in enumerate(peaks, 1)]
    return checks + [Check("peaks_found", len(peaks), "==", 2)], {}


# number, name, group, check, and the kinetic runs it reads through ctx.profile
CRITERIA = [
    (1, "walk-probability", "walk", _crit_walk_probability, ()),
    (2, "continuum-convergence", "walk", _crit_continuum_convergence, ()),
    (3, "dirac-dispersion", "walk", _crit_dirac_dispersion, ()),
    (4, "juttner-stationarity", "roup", _crit_juttner_stationarity, ()),
    (5, "propagation-peak", "roup", _crit_propagation_peak, (_PEAK_RUN,)),
    (6, "short-time-heuristic", "roup", _crit_short_time_heuristic, (_SHORT_RUN,)),
    (7, "valley-to-gaussian", "roup", _crit_valley_to_gaussian, (_PEAK_RUN, *_VALLEY_RUNS)),
    (8, "continuity", "roup", _crit_continuity, _CONTINUITY_RUNS),
    (9, "generalized-fick", "fick", _crit_generalized_fick, tuple(_FICK_RUNS.values())),
    (10, "galilean-limit", "fick", _crit_galilean_limit, (_GALILEAN_RUN,)),
    (11, "simple-fick-rejection", "fick", _crit_simple_fick_rejection, (_PEAK_RUN,)),
]

GROUPS = tuple(sorted({group for _, _, group, _, _ in CRITERIA}))


def run_criterion(number: int, ctx: RunContext) -> CriterionResult:
    """Criterion ``number`` checked against the runs ``ctx`` marched."""
    rows = [row for row in CRITERIA if row[0] == number]
    if not rows:
        raise ValueError(f"no criterion numbered {number}")
    num, name, group, fn, _ = rows[0]
    started = time.perf_counter()
    try:
        checks, details = fn(ctx)
        records = [check.record() for check in checks]
    except Exception as exc:  # controlled failure entry, never a crash
        records, details = [], {"error": f"{type(exc).__name__}: {exc}"}
    margins = [r["margin"] for r in records if r["margin"] is not None]
    return CriterionResult(num, name, group, bool(records) and all(r["ok"] for r in records),
                           time.perf_counter() - started, details, records,
                           min(margins, default=None))


def run_all(only: str | None = None, threads: int = 4):
    """(results, plan_s, plan_runs): the criteria of group ``only`` (default all).

    Their runs are marched first, plan_runs distinct marches up to
    ``threads`` at a time in plan_s of wall time; each result's runtime
    excludes it.
    """
    if only is not None and only not in GROUPS:
        raise ValueError(f"unknown group {only!r}; choose from {GROUPS}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    numbers = [num for num, _, group, _, _ in CRITERIA if only in (None, group)]
    ctx = RunContext(threads, numbers)
    return [run_criterion(num, ctx) for num in numbers], ctx.plan_s, len(ctx.plan)
