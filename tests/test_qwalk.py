from dataclasses import replace

import numpy as np
import pytest

from relwalk.dirac import gaussian_packet, lattice
from relwalk.kernels import Grid1D
from relwalk.qwalk import (
    CoinAngles,
    JetSpec,
    WalkState,
    _coin_entries,
    random_smooth_angle_field,
    realize_jet,
    run_walk,
    step_walk,
    total_probability,
    write_walk_csv,
)


def build_coin(angles: CoinAngles) -> np.ndarray:
    """2x2 unitary coin for scalar angles."""
    a, b, c, d = _coin_entries(angles)
    return np.array([[a, b], [c, d]], dtype=complex)


def _state_from(psi_minus, psi_plus, eps=1.0, lower=0.0):
    n = len(psi_minus)
    grid = Grid1D(lower, lower + (n - 1) * eps, n)
    return WalkState(
        psi_minus=np.asarray(psi_minus, dtype=complex),
        psi_plus=np.asarray(psi_plus, dtype=complex),
        step_index=0,
        dt=eps,
        dx=eps,
        grid=grid,
    )


class _Packet:
    # lightweight stand-in for a SpinorField
    def __init__(self, psi_minus, psi_plus, grid):
        self.psi_minus = psi_minus
        self.psi_plus = psi_plus
        self.grid = grid


def _gaussian_packet(grid, width=1.0, k0=0.0):
    x = grid.points
    env = np.exp(-(x**2) / (2.0 * width**2)) * np.exp(1j * k0 * x)
    norm = np.sqrt(np.sum(2.0 * np.abs(env) ** 2) * grid.spacing)
    return _Packet(env / norm, env / norm, grid)


# ---------------------------------------------------------------- coin


def test_coin_at_origin_is_identity():
    B = build_coin(CoinAngles(0.0, 0.0, 0.0, 0.0))
    assert np.allclose(B, np.eye(2), atol=1e-16)


def test_coin_quarter_turn_swaps_rails():
    B = build_coin(CoinAngles(np.pi / 2.0, 0.0, 0.0, 0.0))
    assert np.allclose(B, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)


def test_coin_unitary_for_random_angles():
    # oracle: direct conjugate-transpose multiplication
    rng = np.random.default_rng(1)
    for _ in range(50):
        angles = CoinAngles(*rng.uniform(-np.pi, np.pi, size=4))
        B = build_coin(angles)
        assert np.max(np.abs(B.conj().T @ B - np.eye(2))) < 1e-14


def test_coin_determinant_is_pure_phase():
    rng = np.random.default_rng(2)
    for _ in range(20):
        angles = CoinAngles(*rng.uniform(-np.pi, np.pi, size=4))
        assert abs(abs(np.linalg.det(build_coin(angles))) - 1.0) < 1e-14


# ---------------------------------------------------------------- stepping


def test_identity_coin_pure_shifts():
    psi_m = np.zeros(8, dtype=complex)
    psi_p = np.zeros(8, dtype=complex)
    psi_m[3] = 1.0
    psi_p[5] = 2.0j
    state = _state_from(psi_m, psi_p)
    out = step_walk(state, lambda j, m: CoinAngles(0.0, 0.0, 0.0, 0.0))
    # left rail gathers from m+1, right rail from m-1
    assert out.psi_minus[2] == 1.0
    assert out.psi_plus[6] == 2.0j
    assert np.count_nonzero(out.psi_minus) == 1
    assert np.count_nonzero(out.psi_plus) == 1


def test_quarter_coin_swaps_after_shift():
    psi_m = np.zeros(4, dtype=complex)
    psi_p = np.zeros(4, dtype=complex)
    psi_m[1] = 1.0
    state = _state_from(psi_m, psi_p)
    out = step_walk(state, lambda j, m: CoinAngles(np.pi / 2.0, 0.0, 0.0, 0.0))
    # shifted left-rail value lands on the plus rail with a sign flip
    assert out.psi_plus[0] == -1.0
    assert np.max(np.abs(out.psi_minus)) < 1e-15  # cos(pi/2) is 6e-17 in floats


def test_probability_conserved_under_random_smooth_field():
    n = 128
    field = random_smooth_angle_field(seed=10, n_sites=n)
    rng = np.random.default_rng(3)
    psi_m = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi_p = rng.normal(size=n) + 1j * rng.normal(size=n)
    state = _state_from(psi_m, psi_p)
    p0 = total_probability(state)
    for _ in range(100):
        state = step_walk(state, field)
    assert abs(total_probability(state) - p0) < 1e-12 * p0


def test_single_site_spreads_at_most_one_cell_per_step():
    n = 64
    psi_m = np.zeros(n, dtype=complex)
    psi_p = np.zeros(n, dtype=complex)
    psi_m[32] = 1.0
    state = _state_from(psi_m, psi_p)
    field = random_smooth_angle_field(seed=4, n_sites=n)
    for k in range(1, 9):
        state = step_walk(state, field)
        occupied = np.nonzero(
            (np.abs(state.psi_minus) > 0) | (np.abs(state.psi_plus) > 0)
        )[0]
        assert occupied.min() >= 32 - k
        assert occupied.max() <= 32 + k


def _direct_smooth_field(seed, n_sites, amplitude=0.4, n_modes=3):
    # reference: the per-mode sum of sines, with the draws of
    # random_smooth_angle_field in the same order
    rng = np.random.default_rng(seed)
    spatial = 2.0 * np.pi * rng.integers(1, n_modes + 1, size=(4, n_modes)) / n_sites
    temporal = rng.uniform(0.0, 0.02, size=(4, n_modes))
    coeff = amplitude * rng.normal(size=(4, n_modes)) / np.sqrt(n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(4, n_modes))

    def field(j, m):
        m = np.asarray(m)
        vals = []
        for row in range(4):
            acc = 0.0
            for k in range(n_modes):
                acc = acc + coeff[row, k] * np.sin(
                    spatial[row, k] * m + temporal[row, k] * j + phase[row, k]
                )
            vals.append(acc)
        return vals

    return field


def _field_error(field, reference, j, m):
    got = field(j, m)
    want = reference(j, m)
    rows = [got.theta, got.xi, got.zeta, got.alpha]
    assert all(np.shape(r) == np.shape(m) for r in rows)
    return max(float(np.max(np.abs(g - w))) for g, w in zip(rows, want))


def test_smooth_field_matches_direct_sum():
    n = 1024
    field = random_smooth_angle_field(seed=7, n_sites=n)
    reference = _direct_smooth_field(seed=7, n_sites=n)
    m = np.arange(-n // 2, n // 2)
    for j in (0, 1, 9999):
        assert _field_error(field, reference, j, m) <= 1e-12
    assert _field_error(field, reference, 9999, 17) <= 1e-12  # scalar m
    # a different m must rebuild the cached basis, and going back as well
    assert _field_error(field, reference, 5, np.arange(n) + 3) <= 1e-12
    assert _field_error(field, reference, 9999, m) <= 1e-12


def test_step_matches_rolled_explicit_coins():
    # reference: np.roll shifts and one build_coin matrix per site
    n = 16
    rng = np.random.default_rng(11)
    psi = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
    state = _state_from(psi[0], psi[1])
    angles = CoinAngles(*rng.uniform(-np.pi, np.pi, size=(4, n)))
    out = step_walk(state, lambda j, m: angles)
    gathered = np.stack([np.roll(psi[0], -1), np.roll(psi[1], 1)])
    expected = np.empty_like(psi)
    for i in range(n):
        coin = build_coin(CoinAngles(angles.theta[i], angles.xi[i],
                                     angles.zeta[i], angles.alpha[i]))
        expected[:, i] = coin @ gathered[:, i]
    assert np.max(np.abs(out.psi_minus - expected[0])) <= 1e-15
    assert np.max(np.abs(out.psi_plus - expected[1])) <= 1e-15
    assert out.step_index == 1


# ---------------------------------------------------------------- jets


@pytest.mark.parametrize("p", [0, 1, 2])
def test_zero_scale_jet_gives_identity_coin(p):
    jet = JetSpec(p=p, zeta0=0.3)
    field = realize_jet(jet, 0.0)
    angles = field(5, 7)
    assert angles.theta == p * np.pi
    assert angles.xi == 0.0
    assert angles.zeta == 0.3
    assert angles.alpha == p * np.pi
    assert np.allclose(build_coin(angles), np.eye(2), atol=1e-15)


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        realize_jet(JetSpec(), -0.1)


def test_coin_distance_to_identity_linear_in_scale():
    jet = JetSpec(
        p=0,
        zeta0=-np.pi / 2.0,
        theta_bar=lambda T, X: 0.3 * np.cos(X),
        xi_bar=lambda T, X: 0.2,
        alpha_bar=lambda T, X: 0.1 * np.sin(T),
    )

    def max_coin_dist(eps):
        field = realize_jet(jet, eps)
        worst = 0.0
        for m in range(-25, 25):
            B = build_coin(field(0, m))
            worst = max(worst, np.max(np.abs(B - np.eye(2))))
        return worst

    d1, d2 = max_coin_dist(0.1), max_coin_dist(0.05)
    assert d1 / d2 == pytest.approx(2.0, rel=0.1)


# ---------------------------------------------------------------- runs


def test_zero_jet_transports_exactly():
    eps = 0.1
    grid = Grid1D.periodic(16.0, 160)
    packet = _gaussian_packet(grid, width=1.0, k0=1.0)
    out = run_walk(JetSpec(), eps, 1.0, packet)
    # ten steps: left rail moved 10 cells toward lower x, right rail opposite
    assert np.allclose(out.psi_minus, np.roll(packet.psi_minus, -10), atol=1e-15)
    assert np.allclose(out.psi_plus, np.roll(packet.psi_plus, 10), atol=1e-15)


def test_long_run_probability_drift_small():
    eps = 0.05
    grid = Grid1D.periodic(12.8, 256)
    packet = _gaussian_packet(grid, width=1.0, k0=0.5)
    jet = JetSpec(
        zeta0=0.4,
        theta_bar=lambda T, X: 0.25 * np.cos(X) + 0.1 * np.sin(T),
        xi_bar=lambda T, X: 0.2 * np.sin(X),
        alpha_bar=lambda T, X: 0.1,
    )
    out = run_walk(jet, eps, 50.0, packet)  # 1000 steps
    assert out.step_index == 1000
    p0 = total_probability(
        _state_from(packet.psi_minus, packet.psi_plus, eps, grid.lower)
    )
    assert abs(total_probability(out) - p0) < 1e-10


def test_run_walk_is_step_walk_in_a_loop_bitwise():
    # theta_bar, xi_bar and zeta_bar switch at T = 0.6, so run_walk rebuilds
    # its cached coin factors there; step_walk builds them every step
    jet = JetSpec(
        p=1,
        zeta0=0.3,
        theta_bar=lambda T, X: 0.3 * np.cos(X) if T < 0.6 else 0.5 * np.sin(X),
        xi_bar=lambda T, X: 0.2 if T < 0.6 else -0.1 * X,
        alpha_bar=lambda T, X: 0.1 * np.sin(T) + 0.05 * X,
        zeta_bar=lambda T, X: 0.0 if T < 0.6 else 0.4,
    )
    eps = 0.1
    initial = _gaussian_packet(Grid1D.periodic(8.0, 80), k0=1.5)
    out = run_walk(jet, eps, 1.2, initial)
    state = WalkState(initial.psi_minus, initial.psi_plus, 0, eps, eps, initial.grid)
    field = realize_jet(jet, eps)
    for _ in range(12):
        state = step_walk(state, field)
    assert out.step_index == state.step_index == 12
    assert np.array_equal(out.psi_minus, state.psi_minus)
    assert np.array_equal(out.psi_plus, state.psi_plus)


def test_run_walk_validates_grid_and_steps():
    grid = Grid1D.periodic(16.0, 160)
    packet = _gaussian_packet(grid)
    with pytest.raises(ValueError):
        run_walk(JetSpec(), 0.2, 1.0, packet)  # spacing mismatch
    with pytest.raises(ValueError):
        run_walk(JetSpec(), 0.1, 1.05, packet)  # fractional steps
    with pytest.raises(ValueError):
        run_walk(JetSpec(), 0.0, 1.0, packet)  # cannot step at zero scale
    # a lower edge 1e-7 of a cell off the lattice: the walk would sample its
    # jet at X = m*eps while a Dirac solve samples the grid's own points
    with pytest.raises(ValueError, match="integer multiple of epsilon"):
        run_walk(JetSpec(), 0.1, 1.0, _gaussian_packet(Grid1D.periodic(16.0, 160, center=1e-8)))


def test_walk_csv_round_trip(tmp_path):
    grid = Grid1D.periodic(8.0, 16)
    packet = _gaussian_packet(grid)
    out = run_walk(JetSpec(), 0.5, 1.0, packet)
    path = tmp_path / "walk.csv"
    write_walk_csv(out, path)
    rows = np.genfromtxt(path, delimiter=",", names=True)
    assert rows.shape[0] == 16
    re_minus = rows["re_psi_minus"]
    assert np.allclose(re_minus, out.psi_minus.real, atol=1e-16)


def gauge_error(angles, phi, psi):
    """Largest |psi' - exp(i phi) psi| after len(phi) - 1 steps on a ring.

    psi -> exp(i phi(j, m)) psi is again a walk, whose coin angles are
    shifted by D+- = phi(j+1, m) - phi(j, m+-1): alpha by (D+ + D-)/2, xi
    by (D+ - D-)/2 and zeta by -(D+ - D-)/2. angles holds theta, xi, zeta
    and alpha per (step, site), phi the gauge per (step, site) from step 0,
    psi the initial (psi_minus, psi_plus); psi' is the gauged walk's state.
    """
    theta, xi, zeta, alpha = angles
    d_plus = phi[1:] - np.roll(phi[:-1], -1, axis=1)
    d_minus = phi[1:] - np.roll(phi[:-1], 1, axis=1)
    shift = 0.5 * (d_plus - d_minus)

    def base(j, m):
        return CoinAngles(theta[j], xi[j], zeta[j], alpha[j])

    def gauged(j, m):
        return CoinAngles(theta[j], xi[j] + shift[j], zeta[j] - shift[j],
                          alpha[j] + 0.5 * (d_plus[j] + d_minus[j]))

    state = _state_from(*psi)
    twin = _state_from(*(np.exp(1j * phi[0]) * psi))
    for _ in range(len(phi) - 1):
        state, twin = step_walk(state, base), step_walk(twin, gauged)
    phase = np.exp(1j * phi[-1])
    return max(np.max(np.abs(twin.psi_minus - phase * state.psi_minus)),
               np.max(np.abs(twin.psi_plus - phase * state.psi_plus)))


def test_gauge_covariance_of_the_coin_angles():
    # a random phi on 256 sites over 200 steps
    rng = np.random.default_rng(13)
    n_sites, n_steps = 256, 200
    angles = rng.uniform(-np.pi, np.pi, size=(4, n_steps, n_sites))
    phi = rng.uniform(-np.pi, np.pi, size=(n_steps + 1, n_sites))
    psi = rng.normal(size=(2, n_sites)) + 1j * rng.normal(size=(2, n_sites))
    assert gauge_error(angles, phi, psi) <= 1e-13


def test_zeta_bar_drops_out_of_the_extrapolated_limit():
    # DiracCoefficients.from_jet drops zeta_bar. The walks with and without
    # it differ at order 1 in eps, but their Richardson extrapolations
    # 2 psi_{eps/2} - psi_eps, read on the eps lattice, agree at order 2
    jet = JetSpec(p=0, zeta0=-np.pi / 2.0,
                  theta_bar=lambda T, X: 0.3 * np.cos(X - 0.5 * T),
                  xi_bar=lambda T, X: 0.2 + 0.1 * np.sin(X + T),
                  alpha_bar=lambda T, X: 0.1 * np.sin(T) * np.cos(0.5 * X))
    twin = replace(jet, zeta_bar=lambda T, X: 0.7 * np.sin(X + T))
    eps = [0.1 / 2**k for k in range(5)]

    def walks(j):
        outs = [run_walk(j, e, 1.0, gaussian_packet(lattice(16.0, e), width=1.0, momentum=0.5))
                for e in eps]
        return [np.stack((o.psi_minus, o.psi_plus)) for o in outs]

    def extrapolated(psi):
        return [2.0 * fine[:, ::2] - coarse for coarse, fine in zip(psi, psi[1:])]

    plain, zeta = extrapolated(walks(jet)), extrapolated(walks(twin))
    errors = np.array([np.linalg.norm(a - b) * np.sqrt(e) for a, b, e in zip(zeta, plain, eps)])
    assert np.all(np.log2(errors[:-1] / errors[1:]) >= 1.9), errors
