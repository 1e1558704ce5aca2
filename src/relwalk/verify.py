"""Quantitative acceptance checks for the whole package.

Each criterion is a self-contained measurement with a hard tolerance.
Its CRITERIA row lists the kinetic runs it reads. A context marches the
union of the selected rows' runs once, when it is built, as independent
jobs several at a time, so criteria that probe the same run (the T = 0.5
profile feeds the peak check, the valley check, and the flux-at-maximum
check) pay for one evolution.
"""

from dataclasses import dataclass, field
import time

import numpy as np

from . import dirac, fick, qwalk, roup
from .kernels import Grid1D, quad, run_jobs


@dataclass
class CriterionResult:
    number: int
    name: str
    group: str
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {self.name:<24s} {verdict}"


class RunContext:
    """The kinetic runs of the given criteria, marched once when built.

    Every run the CRITERIA rows of ``numbers`` (default: all) list is
    marched, up to ``threads`` at a time in worker processes that return
    profiles; plan_s is the wall time of that march.
    """

    def __init__(self, threads: int = 4, numbers=None):
        self.plan = list(dict.fromkeys(
            run for number, _, _, _, runs in CRITERIA
            if numbers is None or number in numbers for run in runs))
        started = time.perf_counter()
        self._profiles = dict(zip(self.plan, run_jobs(
            roup.march_run, [(run,) for run in self.plan], threads,
            [run.cost for run in self.plan])))
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
    return drift < 1e-10, {"max_drift": drift, "tolerance": 1e-10,
                           "sites": n_sites, "steps": steps}


def _crit_continuum_convergence(ctx):
    jet = qwalk.JetSpec.benchmark()
    packet = lambda grid: dirac.gaussian_packet(grid, width=1.0, momentum=0.5)
    rows = dirac.convergence_study(jet, packet, 1.0, [0.1, 0.05, 0.025], 16.0)
    orders = [r.order for r in rows if r.order is not None]
    err = rows[-1].l2_error
    ok = all(o >= 0.9 for o in orders) and err < 1e-2
    return ok, {"orders": orders, "error_at_finest": err,
                "order_floor": 0.9, "error_tolerance": 1e-2}


def _crit_dirac_dispersion(ctx):
    worst = 0.0
    measured = {}
    for k in (1.0, 2.0, 4.0):
        omega = dirac.measure_dispersion(k, mass=1.0, dt_target=1e-3)
        target = np.sqrt(k * k + 1.0)
        rel = abs(omega - target) / target
        measured[f"k={k:g}"] = {"omega": omega, "target": target, "rel_error": rel}
        worst = max(worst, rel)
    return worst < 1e-3, {"worst_rel_error": worst, "tolerance": 1e-3,
                          "branches": measured}


def _crit_juttner_stationarity(ctx):
    params = roup.RoupParams.standard(1.0, 10.0)
    p = params.p_grid.points
    f0 = roup.juttner(p, 1.0).astype(complex)
    f = roup.evolve_mode(f0, 0.0, params.p_grid, 1.0, 10.0, roup.default_dt(10.0))
    drift = float(quad(np.abs(f - f0), params.p_grid) / quad(np.abs(f0), params.p_grid))
    return drift < 1e-6, {"relative_l1_drift": drift, "tolerance": 1e-6}


_PEAK_RUN = roup.Run(1.0, 0.75, 2.5e-4, (0.25, 0.5, 0.75))


def _crit_propagation_peak(ctx):
    started = time.perf_counter()
    peaks = {}
    for t in _PEAK_RUN.times:
        peaks[t] = roup.peak_location(ctx.profile(_PEAK_RUN, t))[0]
    elapsed = time.perf_counter() - started
    anchor = peaks[0.5]
    ok = (abs(anchor - 0.948) <= 0.015
          and abs(peaks[0.25] - anchor) <= 0.015
          and abs(peaks[0.75] - anchor) <= 0.015
          and ctx.plan_s + elapsed < 300.0)
    return ok, {"peaks": {f"T={t:g}": v for t, v in peaks.items()},
                "target": 0.948, "tolerance": 0.015, "plan_s": ctx.plan_s,
                "runtime_s": elapsed, "runtime_budget_s": 300.0}


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
    ok = l1 < 0.05 and abs(formula_peak - target) <= d_xi
    return ok, {"shape_l1_distance": l1, "l1_tolerance": 0.05,
                "formula_grid_peak": formula_peak, "peak_target": target,
                "grid_resolution": d_xi,
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
    increasing = nu0[0.5] < nu0[2.0] < nu0[10.0]
    valley = nu0[0.5] < roup.peak_location(early)[1]
    d_mid = _gaussian_l1(mid)
    d_late = _gaussian_l1(late)
    ok = increasing and valley and d_late < d_mid
    return ok, {"nu_at_zero": {f"T={t:g}": v for t, v in nu0.items()},
                "strictly_increasing": increasing, "valley_at_half": valley,
                "gaussian_l1": {"T=2": d_mid, "T=10": d_late}}


# base and refined levels: three output times dt apart around T = 0.5
_CONTINUITY_RUNS = tuple(roup.Run(1.0, 0.5 + dt, dt, (0.5 - dt, 0.5, 0.5 + dt), n_x, 1024, 16)
                         for n_x, dt in ((256, 2.5e-4), (512, 1.25e-4)))


def _crit_continuity(ctx):
    base, fine = (roup.continuity_residual([ctx.profile(run, t) for t in run.times])
                  for run in _CONTINUITY_RUNS)
    ok = base < 1e-2 and fine <= 0.5 * base
    return ok, {"base_residual": base, "refined_residual": fine,
                "ratio": fine / base, "tolerance": 1e-2,
                "required_ratio": 0.5}


def _crit_generalized_fick(ctx):
    # the g-vs-xi family: every curve grows from the center toward the
    # cone, the growth is strongest for the earliest (propagative) time
    # and flattens as the profile gaussianizes, consistent with the flat
    # Galilean limit; the factor-10 excess at |xi| = 0.95 quantifies the
    # propagative curve
    details = {}
    residuals_ok = True
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
        details[f"T={t:g}"] = {"fick_residual": res, "g_ratio_at_0.95": ratios[t]}
        residuals_ok = residuals_ok and res < 1e-2
    shape_ok = (ratios[1.0] > 10.0
                and all(r > 1.0 for r in ratios.values())
                and ratios[1.0] > ratios[4.0] > ratios[10.0])
    return residuals_ok and shape_ok, {
        "runs": details, "residual_tolerance": 1e-2,
        "required_g_ratio_propagative": 10.0,
        "growth_toward_cone_all_times": all(r > 1.0 for r in ratios.values()),
        "growth_flattens_with_time": ratios[1.0] > ratios[4.0] > ratios[10.0]}


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
    dx = profile.x_grid.spacing
    l1 = float(np.sum(np.abs(profile.density - gauss)) * dx)
    ok = flat < 1e-2 and l1 < 0.02
    return ok, {"ou_flatness": flat, "flatness_tolerance": 1e-2,
                "l1_to_gaussian": l1, "l1_tolerance": 0.02}


def _crit_simple_fick_rejection(ctx):
    profile = ctx.profile(_PEAK_RUN, 0.5)
    report = fick.simple_fick_rejection(profile)
    ratios = [p["abs_J_over_max"] for p in report["peaks"]]
    ok = (report["simple_fick_rejected"] is True
          and len(report["peaks"]) == 2
          and all(r > 1e-3 for r in ratios))
    return ok, {"peak_flux_ratios": ratios, "threshold": 1e-3,
                "peaks_found": len(report["peaks"])}


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


def run_criterion(number: int, ctx: RunContext | None = None) -> CriterionResult:
    for num, name, group, fn, _ in CRITERIA:
        if num == number:
            break
    else:
        raise ValueError(f"no criterion numbered {number}")
    if ctx is None:
        ctx = RunContext(numbers=[number])
    started = time.perf_counter()
    try:
        passed, details = fn(ctx)
    except Exception as exc:  # controlled failure entry, never a crash
        passed = False
        details = {"error": f"{type(exc).__name__}: {exc}"}
    return CriterionResult(num, name, group, bool(passed),
                           time.perf_counter() - started, details)


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
