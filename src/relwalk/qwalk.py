"""Coined discrete-time quantum walk on a periodic 1D lattice.

State: two complex amplitude rails (left-mover, right-mover) over the ring.
One step shifts the rails one cell in opposite directions and mixes them
with a site-dependent U(2) coin

    B = exp(i*alpha) * [[exp(i*xi) cos(theta),  exp(i*zeta) sin(theta)],
                        [-exp(-i*zeta) sin(theta), exp(-i*xi) cos(theta)]]

Slow modulations around the transparent point (theta, xi, zeta, alpha) =
(p*pi, 0, zeta0, p*pi) are described by a first-order jet in the scale
epsilon; the lattice spacings are dt = dx = epsilon in the continuum units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _io
from .kernels import Grid1D, _cis, _reuse, count_steps

__all__ = [
    "CoinAngles",
    "JetSpec",
    "WalkState",
    "random_smooth_angle_field",
    "realize_jet",
    "run_walk",
    "step_walk",
    "total_probability",
    "write_walk_csv",
]


@dataclass(frozen=True)
class CoinAngles:
    """Coin parameters; fields may be scalars or per-site arrays."""

    theta: object
    xi: object
    zeta: object
    alpha: object


def _angle_factors(theta, xi, zeta):
    """cos theta, sin theta and exp(+-i xi), exp(+-i zeta): the coin without its alpha phase."""
    theta = np.asarray(theta, dtype=float)
    e_xi = _cis(xi)
    e_zeta = _cis(zeta)
    return np.cos(theta), np.sin(theta), e_xi, e_xi.conj(), e_zeta, e_zeta.conj()


def _coin_entries(angles: CoinAngles, cache=None):
    # single source of truth for the coin parametrisation; cache as in _reuse
    cos, sin, e_xi, e_xi_conj, e_zeta, e_zeta_conj = _reuse(
        cache, _angle_factors, angles.theta, angles.xi, angles.zeta)
    phase = _cis(angles.alpha)
    pc = phase * cos
    ps = phase * sin
    a = pc * e_xi
    b = ps * e_zeta
    c = -ps * e_zeta_conj
    d = pc * e_xi_conj
    return a, b, c, d


@dataclass(frozen=True)
class JetSpec:
    """First-order modulation around the transparent coin.

    theta = p*pi + eps*theta_bar(T, X), xi = eps*xi_bar(T, X),
    zeta = zeta0 + eps*zeta_bar(T, X), alpha = p*pi + eps*alpha_bar(T, X).
    All scaling exponents are fixed to one; zeta_bar is carried along but
    drops out of the continuum limit at this order.
    """

    p: int = 0
    zeta0: float = 0.0
    theta_bar: Callable = lambda T, X: 0.0
    xi_bar: Callable = lambda T, X: 0.0
    alpha_bar: Callable = lambda T, X: 0.0
    zeta_bar: Callable = lambda T, X: 0.0

    @classmethod
    def benchmark(cls) -> "JetSpec":
        """Jet of the convergence studies: p = 0, zeta0 = -pi/2, theta_bar =
        0.3 cos X, xi_bar = 0.2, alpha_bar = 0.1 sin T, zeta_bar = 0."""
        return cls(p=0, zeta0=-np.pi / 2.0, theta_bar=lambda T, X: 0.3 * np.cos(X),
                   xi_bar=lambda T, X: 0.2, alpha_bar=lambda T, X: 0.1 * np.sin(T))


def realize_jet(jet: JetSpec, epsilon: float) -> Callable:
    """Angle field (step j, site index m) -> CoinAngles at scale epsilon.

    Continuum coordinates are T = j*epsilon, X = m*epsilon; m may be signed
    and array-valued. epsilon = 0 collapses to the constant transparent
    angles; negative epsilon is rejected.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    base = jet.p * np.pi

    def field(j, m):
        t = j * epsilon
        x = np.asarray(m) * epsilon
        return CoinAngles(
            theta=base + epsilon * jet.theta_bar(t, x),
            xi=epsilon * jet.xi_bar(t, x),
            zeta=jet.zeta0 + epsilon * jet.zeta_bar(t, x),
            alpha=base + epsilon * jet.alpha_bar(t, x),
        )

    return field


@dataclass
class WalkState:
    """Amplitudes over the ring after step_index steps; dt = dx = epsilon."""

    psi_minus: np.ndarray
    psi_plus: np.ndarray
    step_index: int
    dt: float
    dx: float
    grid: Grid1D

    def site_indices(self) -> np.ndarray:
        # signed lattice indices m with x = m*dx
        m0 = int(round(self.grid.lower / self.dx))
        return m0 + np.arange(self.grid.count)


def total_probability(state: WalkState) -> float:
    pm, pp = state.psi_minus, state.psi_plus
    return float(np.vdot(pm, pm).real + np.vdot(pp, pp).real)


def _next_site(rail: np.ndarray) -> np.ndarray:
    """Value at m+1 on the ring (rail shifted one cell toward lower m)."""
    return np.concatenate((rail[1:], rail[:1]))


def _prev_site(rail: np.ndarray) -> np.ndarray:
    """Value at m-1 on the ring (rail shifted one cell toward higher m)."""
    return np.concatenate((rail[-1:], rail[:-1]))


def _mix(u, psi_minus, psi_plus):
    """The pointwise 2x2 matrix u = (a, b, c, d) applied to the rails.

    The local half of a walk step (the coin) and of a Dirac step (the
    coupling); the other half is the shift of the rails.
    """
    a, b, c, d = u
    return a * psi_minus + b * psi_plus, c * psi_minus + d * psi_plus


def _step(state: WalkState, angle_field: Callable, cache=None) -> WalkState:
    """step_walk, with the coin's factors kept in ``cache`` from step to step (see _reuse)."""
    coin = _coin_entries(angle_field(state.step_index, state.site_indices()), cache)
    psi_minus, psi_plus = _mix(coin, _next_site(state.psi_minus), _prev_site(state.psi_plus))
    return WalkState(psi_minus, psi_plus, state.step_index + 1, state.dt, state.dx, state.grid)


def step_walk(state: WalkState, angle_field: Callable) -> WalkState:
    """Advance one step: gather from neighbours, then apply the local coin."""
    return _step(state, angle_field)


def _check_lower_edge(grid: Grid1D, epsilon: float) -> None:
    """ValueError unless grid's lower edge is a whole number of epsilon steps."""
    m0 = grid.lower / epsilon
    if abs(m0 - round(m0)) > 1e-6:
        raise ValueError(f"grid lower edge must be an integer multiple of epsilon {epsilon}")


def run_walk(jet: JetSpec, epsilon: float, t_final: float, initial) -> WalkState:
    """Walk the sampled initial spinor to t_final with dt = dx = epsilon.

    ``initial`` is any object with psi_minus, psi_plus and grid attributes
    (a SpinorField fits); its grid spacing must equal epsilon and its lower
    edge must sit on the lattice. The coin's cos theta, sin theta,
    exp(i xi) and exp(i zeta) are rebuilt only when a step samples theta,
    xi or zeta with other bits than the step before; the alpha phase is
    made every step. The state is bitwise that of step_walk step by step.
    """
    if epsilon <= 0.0:
        raise ValueError("stepping requires epsilon > 0")
    grid = initial.grid
    if abs(grid.spacing - epsilon) > 1e-9 * epsilon:
        raise ValueError(
            f"grid spacing {grid.spacing} does not match epsilon {epsilon}"
        )
    _check_lower_edge(grid, epsilon)
    n_steps = count_steps(t_final, epsilon)
    field = realize_jet(jet, epsilon)
    state = WalkState(
        psi_minus=np.array(initial.psi_minus, dtype=complex),
        psi_plus=np.array(initial.psi_plus, dtype=complex),
        step_index=0,
        dt=epsilon,
        dx=epsilon,
        grid=grid,
    )
    cache = {}
    for _ in range(n_steps):
        state = _step(state, field, cache)
    return state


def random_smooth_angle_field(seed: int, n_sites: int) -> Callable:
    """Benchmark field: three random Fourier modes, smooth on the ring.

    Each angle is a trigonometric polynomial in the site index (periodic in
    n_sites) with a slow drift in the step index, so consecutive coins vary
    smoothly everywhere:

        angle_r(j, m) = sum_k c_rk sin(s_rk m + phi_rk + tau_rk j),

    with s_rk 1 to 3 turns over the ring and c_rk of deviation 0.4 / sqrt(3).

    The sum is evaluated by angle addition,
    sin(s m + phi + tau j) = sin(s m + phi) cos(tau j) + cos(s m + phi) sin(tau j),
    so a step costs a few scalar trig calls and one matmul against the
    (4, 6, n_sites) sin/cos basis in m. The basis is kept for the last m
    seen and rebuilt when m changes (kernels._reuse); scalar m works too.
    Values agree with the direct sum to rounding, not bitwise.
    """
    rng = np.random.default_rng(seed)
    n_modes = 3
    spatial = 2.0 * np.pi * rng.integers(1, n_modes + 1, size=(4, n_modes)) / n_sites
    temporal = rng.uniform(0.0, 0.02, size=(4, n_modes))
    coeff = 0.4 * rng.normal(size=(4, n_modes)) / np.sqrt(n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(4, n_modes))
    coeff2 = np.concatenate((coeff, coeff), axis=1)  # weights of the sin and the cos half
    cache = {}  # the basis of the last m seen, as in _reuse

    def sin_cos_basis(m):
        arg = spatial[:, :, None] * m.reshape(1, 1, -1) + phase[:, :, None]
        return np.concatenate((np.sin(arg), np.cos(arg)), axis=1)

    def field(j, m):
        m = np.asarray(m)
        basis = _reuse(cache, sin_cos_basis, m)
        tj = temporal * j
        weights = coeff2 * np.concatenate((np.cos(tj), np.sin(tj)), axis=1)
        vals = np.matmul(weights[:, None, :], basis)[:, 0, :].reshape((4,) + m.shape)
        return CoinAngles(theta=vals[0], xi=vals[1], zeta=vals[2], alpha=vals[3])

    return field


def write_walk_csv(state: WalkState, path) -> None:
    """Columns: step, site, x, then Re/Im of both rails."""
    m = state.site_indices()
    x = state.grid.points
    step = np.full(state.grid.count, state.step_index)
    _io.write_csv(
        path,
        ["step", "site", "x", "re_psi_minus", "im_psi_minus", "re_psi_plus", "im_psi_plus"],
        [step, m, x, state.psi_minus.real, state.psi_minus.imag,
         state.psi_plus.real, state.psi_plus.imag],
    )
