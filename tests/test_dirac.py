import numpy as np
import pytest

from relwalk import dirac, qwalk
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
