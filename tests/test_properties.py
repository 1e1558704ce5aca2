"""Property tests of the walk's and the kinetic marcher's invariants."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from relwalk import roup  # noqa: E402
from relwalk.kernels import Grid1D, _ldl_factor, quad  # noqa: E402
from relwalk.qwalk import CoinAngles, WalkState, step_walk, total_probability  # noqa: E402
from test_qwalk import build_coin, gauge_error  # noqa: E402

# derandomized so the suite stays deterministic; few examples keep it fast
_settings = settings(derandomize=True, database=None, max_examples=30, deadline=None)
_angle = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_seed = st.integers(0, 2**32 - 1)


def _random_state(seed, n):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    psi *= rng.uniform(1e-3, 1e3)  # the checks are relative
    return rng, WalkState(psi[0], psi[1], 0, 1.0, 1.0, Grid1D(0.0, n - 1.0, n))


@_settings
@given(_angle, _angle, _angle, _angle)
def test_coin_is_unitary(theta, xi, zeta, alpha):
    coin = build_coin(CoinAngles(theta, xi, zeta, alpha))
    assert np.max(np.abs(coin.conj().T @ coin - np.eye(2))) < 1e-14


@_settings
@given(_seed, st.integers(3, 64), st.integers(1, 8))
def test_random_coins_preserve_probability(seed, n, steps):
    rng, state = _random_state(seed, n)
    p0 = total_probability(state)

    def field(j, m):
        return CoinAngles(*rng.uniform(-np.pi, np.pi, size=(4, n)))

    for _ in range(steps):
        state = step_walk(state, field)
    assert abs(total_probability(state) - p0) <= 1e-12 * p0


@_settings
@given(_seed, st.integers(3, 256))
def test_total_probability_is_squared_modulus_sum(seed, n):
    _, state = _random_state(seed, n)
    direct = np.sum(np.abs(state.psi_minus) ** 2) + np.sum(np.abs(state.psi_plus) ** 2)
    assert abs(total_probability(state) - direct) <= 1e-14 * direct


@_settings
@given(st.floats(0.3, 10.0), st.integers(4, 64), st.floats(1e-3, 2e-2), st.integers(1, 40))
def test_kinetic_march_keeps_symmetry_mass_and_equilibrium(Q, half_n_p, dt, steps):
    # Crank-Nicolson keeps these for any dt, so the accuracy guard is off
    t_final = steps * dt
    run = roup.Run(Q, t_final, dt, (t_final,), 8, 2 * half_n_p)
    f0 = roup.juttner(run.p_grid.points, Q) / np.sqrt(2.0 * np.pi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roup, "_GUARD_TOL", np.inf)
        state = roup.march(run)[0]
    assert roup.symmetry_residual(state) == 0.0
    mass0 = quad(f0, run.p_grid)
    assert abs(quad(state.modes[0], run.p_grid) - mass0) <= 1e-13 * mass0
    assert np.max(np.abs(state.modes[0] - f0)) <= 1e-12 * np.max(f0)


@_settings
@given(_seed, st.integers(2, 300), st.floats(1e-6, 10.0), st.floats(-12.0, 12.0))
def test_ldl_factor_matches_dpttrf_bitwise(seed, n, margin, log_scale):
    # diagonally dominant by margin times the band scale, so positive definite
    dpttrf = pytest.importorskip("scipy.linalg.lapack").dpttrf
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    off = scale * rng.uniform(-1.0, 1.0, size=n - 1)
    diag = np.abs(np.append(off, 0.0)) + np.abs(np.insert(off, 0, 0.0))
    diag += margin * scale * rng.uniform(0.5, 1.5, size=n)
    d_ref, e_ref, info = dpttrf(diag, off)
    assert info == 0
    d, e = _ldl_factor(diag, off)
    assert np.array_equal(d, d_ref) and np.array_equal(e, e_ref)


@settings(derandomize=True, database=None, max_examples=10, deadline=1000)
@given(st.integers(8, 64), st.integers(1, 40), _seed, _seed)
def test_walk_is_gauge_covariant(n, steps, field_seed, phi_seed):
    rng = np.random.default_rng(field_seed)
    angles = rng.uniform(-np.pi, np.pi, size=(4, steps, n))
    psi = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    phi = np.random.default_rng(phi_seed).uniform(-np.pi, np.pi, size=(steps + 1, n))
    assert gauge_error(angles, phi, psi) <= 1e-13
