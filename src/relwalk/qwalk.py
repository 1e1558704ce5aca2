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
from .kernels import Grid1D, count_steps

__all__ = [
    "CoinAngles",
    "JetSpec",
    "WalkState",
    "build_coin",
    "constant_field",
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


def _coin_entries(angles: CoinAngles):
    # single source of truth for the coin parametrisation
    ct = np.cos(angles.theta)
    st = np.sin(angles.theta)
    phase = np.exp(1j * np.asarray(angles.alpha, dtype=float))
    a = phase * np.exp(1j * np.asarray(angles.xi, dtype=float)) * ct
    b = phase * np.exp(1j * np.asarray(angles.zeta, dtype=float)) * st
    c = -phase * np.exp(-1j * np.asarray(angles.zeta, dtype=float)) * st
    d = phase * np.exp(-1j * np.asarray(angles.xi, dtype=float)) * ct
    return a, b, c, d


def build_coin(angles: CoinAngles) -> np.ndarray:
    """2x2 unitary coin for scalar angles."""
    a, b, c, d = _coin_entries(angles)
    return np.array([[a, b], [c, d]], dtype=complex)


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
    def zero(cls, p: int = 0, zeta0: float = 0.0) -> "JetSpec":
        return cls(p=p, zeta0=zeta0)


def constant_field(value: float) -> Callable:
    return lambda T, X: value


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
    return float(
        np.sum(np.abs(state.psi_minus) ** 2) + np.sum(np.abs(state.psi_plus) ** 2)
    )


def step_walk(state: WalkState, angle_field: Callable) -> WalkState:
    """Advance one step: gather from neighbours, then apply the local coin."""
    angles = angle_field(state.step_index, state.site_indices())
    a, b, c, d = _coin_entries(angles)
    left = np.roll(state.psi_minus, -1)  # value at m+1
    right = np.roll(state.psi_plus, 1)  # value at m-1
    return WalkState(
        psi_minus=a * left + b * right,
        psi_plus=c * left + d * right,
        step_index=state.step_index + 1,
        dt=state.dt,
        dx=state.dx,
        grid=state.grid,
    )


def run_walk(jet: JetSpec, epsilon: float, t_final: float, initial) -> WalkState:
    """Walk the sampled initial spinor to t_final with dt = dx = epsilon.

    ``initial`` is any object with psi_minus, psi_plus and grid attributes
    (a SpinorField fits); its grid spacing must equal epsilon and its lower
    edge must sit on the lattice.
    """
    if epsilon <= 0.0:
        raise ValueError("stepping requires epsilon > 0")
    grid = initial.grid
    if abs(grid.spacing - epsilon) > 1e-9 * epsilon:
        raise ValueError(
            f"grid spacing {grid.spacing} does not match epsilon {epsilon}"
        )
    m0 = grid.lower / epsilon
    if abs(m0 - round(m0)) > 1e-6:
        raise ValueError("grid lower edge must be an integer multiple of epsilon")
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
    for _ in range(n_steps):
        state = step_walk(state, field)
    return state


def random_smooth_angle_field(seed: int, n_sites: int, amplitude: float = 0.4,
                              n_modes: int = 3) -> Callable:
    """Benchmark field: a few random Fourier modes, smooth on the ring.

    Each angle is a trigonometric polynomial in the site index (periodic in
    n_sites) with a slow drift in the step index, so consecutive coins vary
    smoothly everywhere.
    """
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
