"""Property tests of the walk's invariants under random coins and states."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from relwalk.kernels import Grid1D  # noqa: E402
from relwalk.qwalk import CoinAngles, WalkState, build_coin, step_walk, total_probability  # noqa: E402

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
