import json

import numpy as np
import pytest

from relwalk import _io, fick, kernels, roup
from relwalk.errors import DegenerateMetricError, NoInteriorPeakError, SignConventionError


def test_heuristic_center_value():
    for t, q in [(0.05, 1.0), (0.2, 0.7)]:
        want = np.exp(-q * q) / (2.0 * np.pi * t)
        assert fick.heuristic_density(t, 0.0, q) == pytest.approx(want, rel=1e-12)


def test_heuristic_even_and_compactly_supported():
    t, q = 0.1, 1.0
    x = np.linspace(-2.0 * q * t, 2.0 * q * t, 401)
    vals = fick.heuristic_density(t, x, q)
    assert np.allclose(vals, vals[::-1])
    assert np.all(vals[np.abs(x) >= q * t] == 0.0)
    with pytest.raises(ValueError):
        fick.heuristic_density(0.0, 0.0, q)


def test_heuristic_peak_formula():
    assert fick.heuristic_peak(1.0) == pytest.approx(0.9428, abs=1e-4)
    assert fick.heuristic_peak(0.5) == pytest.approx(0.4714, abs=1e-4)
    # linear in Q
    assert fick.heuristic_peak(1.2) == pytest.approx(1.2 * fick.heuristic_peak(1.0))


def test_heuristic_peak_matches_grid_argmax():
    # grid-search oracle; at Q = 1 the quoted linear formula coincides with
    # the exact stationary point of the ansatz
    q, t = 1.0, 0.05
    v = np.linspace(0.0, q, 200001)[:-1]
    vals = fick.heuristic_density(t, v * t, q)
    v_star = v[np.argmax(vals)]
    assert abs(v_star - fick.heuristic_peak(q)) < v[1] - v[0] + 1e-12


def test_heuristic_no_interior_peak_raises():
    with pytest.raises(NoInteriorPeakError):
        fick.heuristic_peak(2.0)
    with pytest.raises(ValueError):
        fick.heuristic_peak(-1.0)


def test_heuristic_light_cone_decay():
    # peak-relative weight at 0.999 of the cone sits just above 1e-6 for
    # Q = 1 (measured 1.61e-6); one step closer to the cone it collapses
    q, t = 1.0, 0.1
    peak = np.max(fick.heuristic_density(t, np.linspace(0, q * t, 4001), q))
    near = fick.heuristic_density(t, 0.999 * q * t, q) / peak
    nearer = fick.heuristic_density(t, 0.9995 * q * t, q) / peak
    assert 1e-6 < near < 2.5e-6
    assert nearer < 1e-6


def test_heuristic_rescaled_consistency():
    q, t = 0.8, 0.3
    xi = np.array([-0.9, -0.4, 0.0, 0.25, 0.7, 0.999, 1.2])
    nu = fick.heuristic_rescaled(xi, q)
    direct = q * t * fick.heuristic_density(t, xi * q * t, q)
    assert np.allclose(nu, direct, rtol=1e-12)
    assert nu[-1] == 0.0


def test_ou_variance_and_chi():
    t = np.array([1e-4, 1e-3, 1e-2])
    s = fick.galilean_ou_variance(t)
    taylor = t ** 2 - t ** 3 / 3.0 + t ** 4 / 12.0
    assert np.allclose(s, taylor, rtol=1e-6)
    big = 50.0
    assert fick.galilean_ou_variance(big) == pytest.approx(2.0 * big - 2.0, rel=1e-12)
    # chi is half the variance growth rate
    dt = 1e-6
    for tt in (0.3, 1.7, 6.0):
        rate = (fick.galilean_ou_variance(tt + dt) - fick.galilean_ou_variance(tt - dt)) / (2 * dt)
        assert fick.galilean_ou_chi(tt) == pytest.approx(rate / 2.0, rel=1e-8)
    assert fick.galilean_ou_chi(0.0) == 0.0
    with pytest.raises(ValueError):
        fick.galilean_ou_variance(-1.0)


def test_ou_variance_matches_langevin_oracle():
    # Monte-Carlo oracle for s(T): integrate the linear Langevin pair with
    # its exact one-step moments, which are derived from the SDE solution
    # and do not reuse the closed form under test
    rng = np.random.default_rng(20240817)
    m = 1_000_000
    dt = 0.05
    steps = 40
    e = np.exp(-dt)
    var_p = 1.0 - e * e
    var_x = 2.0 * dt - 3.0 + 4.0 * e - e * e
    cov = (1.0 - e) ** 2
    a = np.sqrt(var_p)
    b = cov / a
    c = np.sqrt(var_x - b * b)
    p = rng.standard_normal(m)
    x = np.zeros(m)
    checks = {10: 0.5, 40: 2.0}
    for n in range(1, steps + 1):
        z1 = rng.standard_normal(m)
        z2 = rng.standard_normal(m)
        x += (1.0 - e) * p + b * z1 + c * z2
        p = e * p + a * z1
        if n in checks:
            s = fick.galilean_ou_variance(checks[n])
            se = s * np.sqrt(2.0 / m)
            assert abs(float(np.var(x)) - s) < 3.0 * se


def test_ou_profile_shape():
    t = 2.0
    profile = fick.galilean_ou_profile(t)
    grid = profile.x_grid
    assert profile.Q == np.inf
    assert profile.time == t
    assert kernels.quad(profile.density, grid) == pytest.approx(1.0, abs=1e-10)
    center = np.argmin(np.abs(grid.points))
    assert grid.points[center] == pytest.approx(0.0, abs=1e-12)
    assert profile.current[center] == pytest.approx(0.0, abs=1e-14)
    grad = np.gradient(profile.density, grid.spacing)
    chi = fick.galilean_ou_chi(t)
    interior = np.abs(grid.points) < 3.0 * np.sqrt(fick.galilean_ou_variance(t))
    assert np.allclose(profile.current[interior], -chi * grad[interior],
                       atol=1e-3 * np.max(np.abs(profile.current)))
    with pytest.raises(ValueError):
        fick.galilean_ou_profile(0.0)


def test_ou_metric_is_flat_and_equals_chi():
    for t in (0.5, 4.0):
        profile = fick.galilean_ou_profile(t)
        metric = fick.metric_from_density(profile)
        h = metric.h[metric.valid]
        chi = fick.galilean_ou_chi(t)
        assert np.max(np.abs(h - np.mean(h))) / np.mean(h) < 1e-2
        assert np.mean(h) == pytest.approx(chi, rel=1e-2)
        gh = metric.g[metric.valid] * h
        assert np.allclose(gh, 1.0, atol=1e-12)
        assert np.all(h > 0.0)


def test_metric_defining_identity():
    # successive differences of the cumulative integral reproduce the
    # trapezoid panels of -2 N J exactly, by construction
    profile = fick.galilean_ou_profile(3.0)
    metric = fick.metric_from_density(profile)
    n = np.clip(profile.density, 0.0, None)
    nj = n * profile.current
    panels = -2.0 * 0.5 * profile.x_grid.spacing * (nj[:-1] + nj[1:])
    scale = np.max(np.abs(panels))
    assert np.allclose(np.diff(metric.integral), panels, rtol=0.0, atol=1e-14 * scale)


def test_metric_is_mirror_symmetric_on_a_symmetric_profile():
    # I starts at the nearer cone edge, so the right edge is a short sum,
    # not the cancellation of everything integrated from the left
    ref = fick.galilean_ou_profile(1.0)
    n = ref.x_grid.count
    mirror = -np.arange(n) % n
    density = 0.5 * (ref.density + ref.density[mirror])
    current = 0.5 * (ref.current - ref.current[mirror])
    cone = 5.9 * np.sqrt(fick.galilean_ou_variance(1.0))  # off the grid points
    profile = roup.DensityProfile(ref.x_grid, 1.0, cone, density, current)
    metric = fick.metric_from_density(profile)
    assert np.array_equal(metric.valid, metric.valid[mirror])
    g = metric.g[metric.valid]
    assert np.max(np.abs(metric.g[mirror][metric.valid] - g) / g) < 1e-12


def test_metric_sign_convention_raises():
    profile = fick.galilean_ou_profile(1.0)
    flipped = roup.DensityProfile(profile.x_grid, profile.time, profile.Q,
                                  profile.density, -profile.current)
    with pytest.raises(SignConventionError):
        fick.metric_from_density(flipped)


def test_fick_residual_small_on_ou_reference():
    profile = fick.galilean_ou_profile(2.0)
    metric = fick.metric_from_density(profile)
    res = fick.generalized_fick_residual(profile, metric)
    assert res < 1e-3


def test_fick_residual_validation():
    profile = fick.galilean_ou_profile(1.0)
    metric = fick.metric_from_density(profile)
    other = fick.galilean_ou_profile(2.0)
    with pytest.raises(ValueError):
        fick.generalized_fick_residual(other, metric)
    quiet = roup.DensityProfile(profile.x_grid, profile.time, profile.Q,
                                profile.density, np.zeros(profile.x_grid.count))
    quiet_metric = fick.metric_from_density(quiet)
    with pytest.raises(DegenerateMetricError):
        fick.generalized_fick_residual(quiet, quiet_metric)


def _roup_profile(t, n_x=128, n_p=1024, refine=4, dt=2e-3):
    return roup.march_runs([roup.Run(1.0, t, dt, (t,), n_x, n_p, refine)], 2)[0][t]


def test_metric_on_transport_profile():
    profile = _roup_profile(1.0)
    metric = fick.metric_from_density(profile)
    h = metric.h[metric.valid]
    assert np.all(np.isfinite(h))
    assert np.all(h > 0.0)
    res = fick.generalized_fick_residual(profile, metric)
    assert res < 0.1


def test_rejection_gaussian_keeps_simple_fick():
    report = fick.simple_fick_rejection(fick.galilean_ou_profile(1.5))
    assert report["simple_fick_rejected"] is False
    assert len(report["peaks"]) == 1
    assert report["peaks"][0]["X"] == pytest.approx(0.0, abs=1e-12)
    assert report["peaks"][0]["J"] == pytest.approx(0.0, abs=1e-14)


def test_rejection_twin_peak_profile():
    profile = _roup_profile(0.5, dt=1e-3)
    report = fick.simple_fick_rejection(profile)
    assert report["simple_fick_rejected"] is True
    assert len(report["peaks"]) == 2
    xs = sorted(p["X"] for p in report["peaks"])
    assert xs[0] == pytest.approx(-xs[1], abs=2 * profile.x_grid.spacing)
    for p in report["peaks"]:
        assert p["abs_J_over_max"] > 1e-3


def test_metric_csv_roundtrip(tmp_path):
    profile = fick.galilean_ou_profile(1.0)
    metric = fick.metric_from_density(profile)
    path = tmp_path / "metric.csv"
    fick.write_metric_csv(metric, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape == (512,)
    got = data["h"]
    assert np.allclose(got[metric.valid], metric.h[metric.valid])
    assert np.all(np.isnan(got[~metric.valid]))
    assert np.allclose(data["valid"], metric.valid.astype(float))


def test_heuristic_csv_and_rejection_json(tmp_path):
    xi = np.linspace(-1.2, 1.2, 97)
    cpath = tmp_path / "heuristic.csv"
    fick.write_heuristic_csv(0.05, 1.0, xi, cpath)
    data = np.genfromtxt(cpath, delimiter=",", names=True)
    assert np.allclose(data["N_heuristic"], fick.heuristic_density(0.05, xi * 0.05, 1.0))
    report = fick.simple_fick_rejection(fick.galilean_ou_profile(1.0))
    jpath = tmp_path / "report.json"
    _io.write_json(jpath, report)
    loaded = json.loads(jpath.read_text())
    assert loaded["simple_fick_rejected"] is False
    assert loaded["Q"] == "inf"
