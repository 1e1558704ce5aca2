import dataclasses

import numpy as np
import pytest

from relwalk import dirac, kernels, qwalk
from relwalk.kernels import Grid1D


def _benchmark_jet():
    return qwalk.JetSpec(
        theta_bar=lambda T, X: 0.3 * np.cos(X),
        xi_bar=lambda T, X: 0.2 * np.ones_like(np.asarray(X, dtype=float)),
        alpha_bar=lambda T, X: 0.1 * np.sin(T) * np.ones_like(np.asarray(X, dtype=float)),
        zeta0=-np.pi / 2.0,
    )


def _free_coeffs(mass=0.0, zeta0=-np.pi / 2.0):
    return dirac.DiracCoefficients(
        a0=lambda T, X: 0.0,
        a1=lambda T, X: 0.0,
        theta_bar=lambda T, X: mass,
        mu=np.pi / 2.0 + zeta0,
    )


def _reflect(values):
    # X -> -X on a periodic grid centered at zero: index k -> (N - k) mod N
    return np.roll(values[::-1], 1)


def test_gaussian_packet_normalized():
    grid = Grid1D.periodic(16.0, 200)
    f = dirac.gaussian_packet(grid, center=1.0, width=0.5, momentum=2.0)
    assert np.isclose(dirac.l2_norm(f), 1.0, atol=1e-12)


def test_l2_distance_rejects_mismatched_grids():
    a = dirac.gaussian_packet(Grid1D.periodic(16.0, 200))
    b = dirac.gaussian_packet(Grid1D.periodic(16.0, 100))
    with pytest.raises(ValueError):
        dirac.l2_distance(a, b)


def test_free_transport_is_exact_shift():
    grid = Grid1D.periodic(8.0, 80)
    rng = np.random.default_rng(5)
    f = dirac.SpinorField(
        rng.normal(size=80) + 1j * rng.normal(size=80),
        rng.normal(size=80) + 1j * rng.normal(size=80),
        grid,
    )
    out = dirac.solve_dirac(_free_coeffs(), f, t_final=1.2, dt=0.1)
    # left mover advects toward -X, right mover toward +X
    assert np.allclose(out.psi_minus, np.roll(f.psi_minus, -12), atol=1e-14)
    assert np.allclose(out.psi_plus, np.roll(f.psi_plus, 12), atol=1e-14)
    assert out.time == pytest.approx(1.2)


def test_constant_scalar_potential_is_global_phase():
    grid = Grid1D.periodic(8.0, 80)
    f = dirac.gaussian_packet(grid, width=0.8)
    a = 0.37
    coeffs = dirac.DiracCoefficients(
        a0=lambda T, X: a,
        a1=lambda T, X: 0.0,
        theta_bar=lambda T, X: 0.0,
        mu=0.0,
    )
    out = dirac.solve_dirac(coeffs, f, t_final=2.0, dt=0.1)
    expected_phase = np.exp(1j * a * 2.0)
    assert np.allclose(out.psi_minus, expected_phase * np.roll(f.psi_minus, -20), atol=1e-12)
    assert np.allclose(out.psi_plus, expected_phase * np.roll(f.psi_plus, 20), atol=1e-12)


def test_time_gauge_leaves_densities_invariant():
    # a0 depending on T alone multiplies the state by a common phase,
    # so rail densities must match the a0 = 0 run to rounding
    grid = Grid1D.periodic(8.0, 160)
    f = dirac.gaussian_packet(grid, width=0.7, momentum=1.0)
    base = dirac.DiracCoefficients(
        a0=lambda T, X: 0.0,
        a1=lambda T, X: 0.2,
        theta_bar=lambda T, X: 0.5,
        mu=0.0,
    )
    gauged = dirac.DiracCoefficients(
        a0=lambda T, X: 0.3 * np.cos(2.0 * T),
        a1=base.a1,
        theta_bar=base.theta_bar,
        mu=0.0,
    )
    out_a = dirac.solve_dirac(base, f, 1.5, 0.05)
    out_b = dirac.solve_dirac(gauged, f, 1.5, 0.05)
    assert np.allclose(np.abs(out_a.psi_minus), np.abs(out_b.psi_minus), atol=1e-12)
    assert np.allclose(np.abs(out_a.psi_plus), np.abs(out_b.psi_plus), atol=1e-12)


def test_gauge_transformed_benchmark_jet_converges_at_second_order():
    # psi -> exp(i phi) psi solves the continuum equations of the jet with
    # alpha_bar + d_T phi and xi_bar - d_X phi; through from_jet the scheme
    # keeps that to O(eps^2)
    jet = qwalk.JetSpec.benchmark()

    def phi(T, X):
        return 0.5 * np.sin(np.pi * X / 8.0 + T)

    def phi_dot(T, X):  # d_T phi; d_X phi is pi/8 of it
        return phi(T + 0.5 * np.pi, X)

    gauged = dataclasses.replace(
        jet, alpha_bar=lambda T, X: jet.alpha_bar(T, X) + phi_dot(T, X),
        xi_bar=lambda T, X: jet.xi_bar(T, X) - np.pi / 8.0 * phi_dot(T, X))
    errors = []
    for eps in (0.1, 0.05, 0.025, 0.0125):
        grid = dirac.lattice(16.0, eps)
        f = dirac.gaussian_packet(grid, width=1.0, momentum=0.5)
        start = np.exp(1j * phi(0.0, grid.points))
        out = dirac.solve_dirac(dirac.DiracCoefficients.from_jet(jet), f, 1.0, eps)
        twin = dirac.solve_dirac(
            dirac.DiracCoefficients.from_jet(gauged),
            dirac.SpinorField(start * f.psi_minus, start * f.psi_plus, grid), 1.0, eps)
        end = np.exp(1j * phi(1.0, grid.points))
        errors.append(dirac.l2_distance(
            twin, dirac.SpinorField(end * out.psi_minus, end * out.psi_plus, grid)))
    assert errors[0] < 1e-3
    assert np.all(np.log2(np.divide(errors[:-1], errors[1:])) >= 1.9)


def test_extrapolated_walk_meets_dirac_at_second_order():
    # the walk's O(eps) error cancels in 2 psi_{eps/2} - psi_eps, read on the
    # eps lattice, which every eps/2 lattice contains; what is left is O(eps^2)
    jet = qwalk.JetSpec.benchmark()
    coeffs = dirac.DiracCoefficients.from_jet(jet)
    eps = [0.1 / 2**k for k in range(5)]
    packets = [dirac.gaussian_packet(dirac.lattice(16.0, e), width=1.0, momentum=0.5)
               for e in eps]
    walks = [qwalk.run_walk(jet, e, 1.0, f) for e, f in zip(eps, packets)]
    psi = [np.stack((w.psi_minus, w.psi_plus)) for w in walks]
    errors = []
    for e, coarse, fine, packet in zip(eps, psi, psi[1:], packets[1:]):
        ref = dirac.solve_dirac(coeffs, packet, 1.0, 0.5 * e)
        extrapolated = 2.0 * fine[:, ::2] - coarse
        exact = np.stack((ref.psi_minus, ref.psi_plus))[:, ::2]
        errors.append(np.linalg.norm(extrapolated - exact) * np.sqrt(e))
    errors = np.array(errors)
    assert np.all(np.log2(errors[:-1] / errors[1:]) >= 1.9), errors


def test_norm_conserved_under_rough_coefficients():
    grid = Grid1D.periodic(8.0, 160)
    f = dirac.gaussian_packet(grid, width=0.6)
    coeffs = dirac.DiracCoefficients(
        a0=lambda T, X: np.sin(3.0 * X) + 0.5 * np.cos(T),
        a1=lambda T, X: 0.8 * np.cos(2.0 * X - T),
        theta_bar=lambda T, X: 1.0 + 0.5 * np.sin(X + 2.0 * T),
        mu=np.pi / 3.0,
    )
    out = dirac.solve_dirac(coeffs, f, 10.0, 0.05)
    assert abs(dirac.l2_norm(out) - 1.0) < 1e-12


def test_real_mass_reflection_swaps_rails():
    # with zeta0 = -pi/2 the coupling is symmetric, so reflecting X and
    # swapping the rails maps solutions to solutions
    grid = Grid1D.periodic(8.0, 160)
    g = np.exp(-((grid.points - 0.7) ** 2) / 0.5).astype(complex)
    zero = np.zeros_like(g)
    coeffs = _free_coeffs(mass=0.9, zeta0=-np.pi / 2.0)
    out_a = dirac.solve_dirac(coeffs, dirac.SpinorField(g, zero, grid), 2.0, 0.05)
    out_b = dirac.solve_dirac(coeffs, dirac.SpinorField(zero, _reflect(g), grid), 2.0, 0.05)
    assert np.allclose(np.abs(out_a.psi_minus) ** 2, _reflect(np.abs(out_b.psi_plus) ** 2), atol=1e-12)
    assert np.allclose(np.abs(out_a.psi_plus) ** 2, _reflect(np.abs(out_b.psi_minus) ** 2), atol=1e-12)


def test_support_grows_one_cell_per_step():
    grid = Grid1D.periodic(16.0, 320)
    psi = np.zeros(320, dtype=complex)
    psi[160] = 1.0
    f = dirac.SpinorField(psi.copy(), psi.copy(), grid)
    coeffs = _free_coeffs(mass=1.5)
    n = 40
    out = dirac.solve_dirac(coeffs, f, n * grid.spacing, grid.spacing)
    dens = np.abs(out.psi_minus) ** 2 + np.abs(out.psi_plus) ** 2
    inside = np.abs(np.arange(320) - 160) <= n
    assert np.all(dens[~inside] == 0.0)
    assert dens[inside].sum() > 0.0


def test_dispersion_matches_relativistic_branch():
    for k in (0.0, 1.0):
        exact = np.sqrt(k * k + 1.0)
        measured = dirac.measure_dispersion(k, mass=1.0, dt_target=5e-3, t_final=0.25)
        assert abs(measured - exact) / exact < 1e-3


def test_solver_validates_grid_and_steps():
    grid = Grid1D.periodic(8.0, 80)
    f = dirac.gaussian_packet(grid)
    with pytest.raises(ValueError):
        dirac.solve_dirac(_free_coeffs(), f, 1.0, 0.05)  # dt != spacing
    with pytest.raises(ValueError):
        dirac.solve_dirac(_free_coeffs(), f, 0.15, 0.1)  # fractional step count


def test_coupling_built_once_per_step():
    # both half couplings of a step share the midpoint coefficients, so
    # the pointwise exponential is built once and applied twice
    calls = []

    def theta_bar(T, X):
        calls.append(T)
        return 0.3 * np.cos(X)

    coeffs = dirac.DiracCoefficients(
        a0=lambda T, X: 0.1 * np.sin(T),
        a1=lambda T, X: -0.2,
        theta_bar=theta_bar,
        mu=0.0,
    )
    f = dirac.gaussian_packet(Grid1D.periodic(8.0, 80))
    out = dirac.solve_dirac(coeffs, f, t_final=1.2, dt=0.1)
    assert len(calls) == 12
    assert calls == pytest.approx(0.05 + 0.1 * np.arange(12))
    assert dirac.l2_norm(out) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scalar", ["a0", "a1", "theta_bar", "all"])
def test_scalar_coefficients_match_sampled_constants_bitwise(scalar):
    # a scalar coefficient skips the broadcast before the trigonometry; the
    # bits must match the same constant sampled on the grid
    grid = Grid1D.periodic(8.0, 80)
    f = dirac.gaussian_packet(grid, momentum=1.5)
    values = {"a0": lambda T: 0.1 * np.sin(T) + 0.7, "a1": lambda T: -0.2,
              "theta_bar": lambda T: 0.3}

    def coeffs(sampled):
        def field(name):
            if name in sampled:
                return lambda T, X: np.full_like(X, values[name](T))
            return lambda T, X: values[name](T)
        return dirac.DiracCoefficients(**{name: field(name) for name in values}, mu=0.4)

    everywhere = set(values)
    mixed = coeffs(set() if scalar == "all" else everywhere - {scalar})
    out = dirac.solve_dirac(mixed, f, 1.2, grid.spacing)
    ref = dirac.solve_dirac(coeffs(everywhere), f, 1.2, grid.spacing)
    assert np.array_equal(out.psi_minus, ref.psi_minus)
    assert np.array_equal(out.psi_plus, ref.psi_plus)
    entries = dirac._coupling_matrix(mixed, 0.05, grid.points, 0.05)
    assert all(e.shape == grid.points.shape for e in entries)


def _switching_coeffs():
    # theta_bar and xi_bar take other values from T = 0.6 on, a0 changes every step
    return dirac.DiracCoefficients(
        a0=lambda T, X: 0.1 * np.sin(T) + 0.05 * X,
        a1=lambda T, X: -0.2 if T < 0.6 else -0.35,
        theta_bar=lambda T, X: 0.3 * np.cos(X) if T < 0.6 else 0.5 * np.sin(X),
        mu=0.4,
    )


def test_one_solve_is_chained_one_step_solves_bitwise():
    # one solve rebuilds its cached coupling factors where theta_bar and
    # xi_bar change; each one-step solve builds them afresh
    grid = Grid1D.periodic(8.0, 80)
    field = dirac.gaussian_packet(grid, momentum=1.5)
    coeffs = _switching_coeffs()
    out = dirac.solve_dirac(coeffs, field, 1.2, grid.spacing)
    for _ in range(12):
        field = dirac.solve_dirac(coeffs, field, grid.spacing, grid.spacing)
    assert field.time == out.time
    assert np.array_equal(out.psi_minus, field.psi_minus)
    assert np.array_equal(out.psi_plus, field.psi_plus)


def test_step_matches_rolled_matrix_exponential():
    # reference: per-site expm of the half-step coupling, np.roll transport
    from scipy.linalg import expm

    n = 16
    grid = Grid1D.periodic(1.6, n)
    dt = grid.spacing
    rng = np.random.default_rng(12)
    a0, a1, theta = rng.uniform(-1.0, 1.0, size=(3, n))
    zeta0 = rng.uniform(-np.pi, np.pi)
    coeffs = dirac.DiracCoefficients(
        a0=lambda T, X: a0, a1=lambda T, X: a1, theta_bar=lambda T, X: theta,
        mu=np.pi / 2.0 + zeta0,
    )
    psi = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    out = dirac.solve_dirac(coeffs, dirac.SpinorField(psi[0], psi[1], grid), dt, dt)
    b = theta * np.exp(1j * zeta0)
    half = [expm(0.5 * dt * np.array([[1j * (a0[i] - a1[i]), b[i]],
                                      [-np.conj(b[i]), 1j * (a0[i] + a1[i])]]))
            for i in range(n)]
    expected = np.stack([half[i] @ psi[:, i] for i in range(n)], axis=1)
    expected = np.stack([np.roll(expected[0], -1), np.roll(expected[1], 1)])
    expected = np.stack([half[i] @ expected[:, i] for i in range(n)], axis=1)
    assert np.max(np.abs(out.psi_minus - expected[0])) <= 1e-15
    assert np.max(np.abs(out.psi_plus - expected[1])) <= 1e-15
    assert out.time == pytest.approx(dt)


def test_zero_jet_walk_matches_transport_exactly():
    jet = qwalk.JetSpec()
    rows = dirac.convergence_study(
        jet,
        lambda grid: dirac.gaussian_packet(grid, width=1.0),
        t_final=1.0,
        eps_list=[0.1],
        length=16.0,
    )
    assert rows[0].l2_error < 1e-13
    assert rows[0].order is None


def test_convergence_study_first_order():
    rows = dirac.convergence_study(
        _benchmark_jet(),
        lambda grid: dirac.gaussian_packet(grid, width=1.0),
        t_final=1.0,
        eps_list=[0.1, 0.05],
        length=16.0,
    )
    assert rows[0].l2_error > rows[1].l2_error
    assert rows[1].order is not None
    assert 0.7 < rows[1].order < 1.3


def test_convergence_study_rejects_bad_length():
    with pytest.raises(ValueError):
        dirac.convergence_study(
            qwalk.JetSpec(), dirac.gaussian_packet, 1.0, [0.3], 16.0
        )


@pytest.mark.parametrize("eps_list, length, t_final, match, center", [
    ([0.1, -0.1], 16.0, 1.0, "epsilon must be positive, got -0.1", 0.0),
    ([0.1, 0.0], 16.0, 1.0, "epsilon must be positive, got 0.0", 0.0),
    ([0.1, float("nan")], 16.0, 1.0, "epsilon must be positive, got nan", 0.0),
    ([0.1, 0.05, 0.1], 16.0, 1.0, "epsilon 0.1 is repeated", 0.0),
    ([0.1, 0.3], 16.0, 1.0, "length 16.0 is not a multiple of epsilon 0.3", 0.0),
    ([0.1, 0.05], 16.0, 0.125, "not an integer number of steps", 0.0),
    # the walk's lower edge center - length/2 must sit on every lattice
    ([0.1, 0.05, 0.025, 0.0125, 0.00625], 16.0, 2.0,
     "lower edge must be an integer multiple of epsilon 0.1", 0.01),
])
def test_convergence_study_checks_every_epsilon_before_any_fork(
        monkeypatch, forks, eps_list, length, t_final, match, center):
    monkeypatch.setattr(kernels, "_cores", lambda: 4)
    with pytest.raises(ValueError, match=match):
        dirac.convergence_study(_benchmark_jet(), dirac.gaussian_packet, t_final,
                                eps_list, length, center)
    assert forks == []


def test_convergence_rows_bitwise_equal_on_1_2_4_cores(monkeypatch, fan_outs):
    # one walk and one Dirac solve per epsilon, each costing sites x steps
    # (80, 320, 1280), dealt costliest first in one fan-out
    rows = []
    for cores in (1, 2, 4):
        monkeypatch.setattr(kernels, "_cores", lambda: cores)
        rows.append(dirac.convergence_study(_benchmark_jet(), dirac.gaussian_packet, 0.4,
                                            [0.2, 0.1, 0.05], 8.0))
    assert rows[0] == rows[1] == rows[2]
    assert [row.epsilon for row in rows[0]] == [0.2, 0.1, 0.05]
    assert fan_outs == [(2, [[4, 2, 0], [5, 3, 1]]), (4, [[4], [5], [2, 0], [3, 1]])]


def test_density_csv_roundtrip(tmp_path):
    grid = Grid1D.periodic(4.0, 40)
    f = dirac.gaussian_packet(grid, width=0.5)
    f.time = 2.5
    path = tmp_path / "dens.csv"
    dirac.write_density_csv(f, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape == (40,)
    assert np.allclose(data["T"], 2.5)
    assert np.allclose(
        data["density_total"], np.abs(f.psi_minus) ** 2 + np.abs(f.psi_plus) ** 2
    )
