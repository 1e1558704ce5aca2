"""(1+1)D Dirac solver used as the continuum reference for the walk.

The equations integrated here, in null form with light-cone speed one,

    (d/dT - d/dX) psi_minus = i(a + s) psi_minus + t_bar exp(+i zeta0) psi_plus
    (d/dT + d/dX) psi_plus  = i(a - s) psi_plus  - t_bar exp(-i zeta0) psi_minus

are the continuum limit of the modulated walk in :mod:`relwalk.qwalk`; the
modulations enter as an electromagnetic potential (A0, A1) = (a, -s) and a
mass term t_bar exp(i mu sigma_3) with mu = pi/2 + zeta0.

Scheme: characteristic-aligned Strang splitting on a periodic grid with
dx = dt. Transport is an exact one-cell shift of each rail; the local
coupling is applied with an exact pointwise 2x2 matrix exponential over
half steps, coefficients frozen at the step's temporal midpoint. Each
factor is unitary, so the L2 norm is conserved to rounding error and the
scheme is second order in dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _io, qwalk
from .kernels import Grid1D, count_steps

__all__ = [
    "ConvergenceRow",
    "DiracCoefficients",
    "SpinorField",
    "convergence_study",
    "gaussian_packet",
    "l2_distance",
    "l2_norm",
    "lattice",
    "measure_dispersion",
    "solve_dirac",
    "write_density_csv",
]


@dataclass
class SpinorField:
    """Two complex rails sampled on a spatial grid at one instant."""

    psi_minus: np.ndarray
    psi_plus: np.ndarray
    grid: Grid1D
    time: float = 0.0


def l2_norm(field: SpinorField) -> float:
    dens = np.abs(field.psi_minus) ** 2 + np.abs(field.psi_plus) ** 2
    return float(np.sqrt(np.sum(dens) * field.grid.spacing))


def l2_distance(a, b) -> float:
    """L2 distance of two fields; a qwalk.WalkState has the grid and rails it reads."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    dens = np.abs(a.psi_minus - b.psi_minus) ** 2 + np.abs(a.psi_plus - b.psi_plus) ** 2
    return float(np.sqrt(np.sum(dens) * a.grid.spacing))


def gaussian_packet(grid: Grid1D, center: float = 0.0, width: float = 1.0,
                    momentum: float = 0.0) -> SpinorField:
    """Smooth wave packet on equal rails, unit L2 norm."""
    x = grid.points
    env = np.exp(-((x - center) ** 2) / (2.0 * width**2)) * np.exp(1j * momentum * x)
    n = l2_norm(SpinorField(env, env, grid))
    if n == 0.0:
        raise ValueError("cannot normalize a zero packet")
    return SpinorField(env / n, env / n, grid, 0.0)


def lattice(length: float, eps: float, center: float = 0.0) -> Grid1D:
    """Periodic ring of spacing eps; ValueError unless length is a whole number of steps."""
    count = length / eps
    if abs(count - round(count)) > 1e-9:
        raise ValueError(f"length {length} is not a multiple of epsilon {eps}")
    return Grid1D.periodic(length, int(round(count)), center)


@dataclass(frozen=True)
class DiracCoefficients:
    """Coefficient fields of the continuum equations.

    a0 and a1 are the electromagnetic potential components as callables of
    (T, X); theta_bar(T, X) sets the mass scale and mu its complex angle.
    """

    a0: Callable
    a1: Callable
    theta_bar: Callable
    mu: float

    @classmethod
    def from_jet(cls, jet: qwalk.JetSpec) -> "DiracCoefficients":
        # A0 = alpha_bar and A1 = -xi_bar; zeta_bar does not survive the limit
        return cls(
            a0=jet.alpha_bar,
            a1=lambda T, X: -np.asarray(jet.xi_bar(T, X)),
            theta_bar=jet.theta_bar,
            mu=np.pi / 2.0 + jet.zeta0,
        )


def _coupling_matrix(coeffs, t_mid, x, s):
    """Entries (e11, e12, e21, e22) of exp(s*C(t_mid, x)) at every point.

    C is i*a*I plus an anti-Hermitian part, so the exponential is unitary.
    Scalar coefficients stay scalar through the trigonometry. The phase is
    then filled out to x.shape, so every complex product runs over whole
    arrays: numpy's vector loops fuse multiply-adds that its scalar
    products do not, and the entries must not depend on whether a
    coefficient came as a scalar or as samples of a constant.
    """
    alpha = np.asarray(coeffs.a0(t_mid, x), dtype=float)
    xi = -np.asarray(coeffs.a1(t_mid, x), dtype=float)
    theta = np.asarray(coeffs.theta_bar(t_mid, x), dtype=float)
    zeta0 = coeffs.mu - np.pi / 2.0
    b = theta * np.exp(1j * zeta0)
    omega = np.hypot(xi, theta)
    cos = np.cos(omega * s)
    # sin(omega*s)/omega with the omega -> 0 limit handled exactly
    sinc = s * np.sinc(omega * s / np.pi)
    phase = np.full(x.shape, qwalk._cis(alpha * s))
    e11 = phase * (cos + 1j * xi * sinc)
    e12 = phase * b * sinc
    e21 = -phase * np.conj(b) * sinc
    e22 = phase * (cos - 1j * xi * sinc)
    return e11, e12, e21, e22


def solve_dirac(coeffs: DiracCoefficients, initial: SpinorField, t_final: float,
                dt: float, callback: Callable | None = None) -> SpinorField:
    """March the coupled rails to t_final on the grid of ``initial``.

    Requires grid.spacing == dt (unit light-cone speed keeps the transport
    shifts exact) and t_final an integer number of steps. ``callback`` is
    invoked after every step with (time, psi_minus, psi_plus) views.
    """
    grid = initial.grid
    if abs(grid.spacing - dt) > 1e-9 * dt:
        raise ValueError(
            f"grid spacing {grid.spacing} must equal dt {dt} for exact transport"
        )
    n_steps = count_steps(t_final, dt)
    x = grid.points
    psi_minus = np.array(initial.psi_minus, dtype=complex)
    psi_plus = np.array(initial.psi_plus, dtype=complex)
    t = initial.time
    half = 0.5 * dt
    for _ in range(n_steps):
        # both half couplings freeze the coefficients at the midpoint
        coupling = _coupling_matrix(coeffs, t + half, x, half)
        psi_minus, psi_plus = qwalk._mix(coupling, psi_minus, psi_plus)
        # the left mover gathers from X + dt, the right mover from X - dt
        psi_minus, psi_plus = qwalk._mix(
            coupling, qwalk._next_site(psi_minus), qwalk._prev_site(psi_plus))
        t += dt
        if callback is not None:
            callback(t, psi_minus, psi_plus)
    return SpinorField(psi_minus, psi_plus, grid, t)


def measure_dispersion(k: float, mass: float, dt_target: float = 1e-3,
                       t_final: float = 0.5) -> float:
    """Measured phase frequency of the plane-wave branch with wavenumber k.

    Launches the positive-frequency eigen-spinor exp(ikX) on a 2*pi ring
    (zeta0 = -pi/2) and accumulates the per-step Rayleigh phase of the
    evolving state. The period constraint fixes dt to (2*pi)/round(2*pi/dt_target).
    """
    length = 2.0 * np.pi
    count = int(round(length / dt_target))
    dt = length / count
    grid = Grid1D.periodic(length, count)
    omega_guess = np.sqrt(k * k + mass * mass)
    spinor = np.array([mass, omega_guess + k], dtype=complex)
    spinor /= np.linalg.norm(spinor)
    wave = np.exp(1j * k * grid.points)
    initial = SpinorField(spinor[0] * wave, spinor[1] * wave, grid, 0.0)
    coeffs = DiracCoefficients(
        a0=lambda T, X: 0.0,
        a1=lambda T, X: 0.0,
        theta_bar=lambda T, X: mass,
        mu=0.0,
    )
    prev = {"m": initial.psi_minus.copy(), "p": initial.psi_plus.copy()}
    phases = []

    def grab(t, pm, pp):
        z = np.vdot(prev["m"], pm) + np.vdot(prev["p"], pp)
        phases.append(np.angle(z))
        prev["m"] = pm.copy()
        prev["p"] = pp.copy()

    n_steps = int(round(t_final / dt))
    solve_dirac(coeffs, initial, n_steps * dt, dt, callback=grab)
    return -float(np.mean(phases)) / dt


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    l2_error: float
    order: float | None  # slope against the previous row, None on the first


def convergence_study(jet: qwalk.JetSpec, packet: Callable, t_final: float,
                      eps_list: Sequence[float], length: float,
                      center: float = 0.0) -> list[ConvergenceRow]:
    """Walk-versus-Dirac L2 error at t_final for each lattice scale.

    ``packet`` maps a Grid1D to the initial SpinorField, so every scale
    samples the same physical data. The reference is integrated on the
    walk's own lattice (dt = dx = epsilon), which makes the comparison a
    plain pointwise distance.
    """
    rows = []
    prev = None
    for eps in eps_list:
        initial = packet(lattice(length, eps, center))
        walked = qwalk.run_walk(jet, eps, t_final, initial)
        reference = solve_dirac(DiracCoefficients.from_jet(jet), initial, t_final, eps)
        err = l2_distance(walked, reference)
        order = None
        if prev is not None:
            e_prev, err_prev = prev
            order = float(np.log(err_prev / err) / np.log(e_prev / eps))
        rows.append(ConvergenceRow(eps, err, order))
        prev = (eps, err)
    return rows


def write_density_csv(field: SpinorField, path) -> None:
    """Columns: T, X, rail densities and their sum."""
    dm = np.abs(field.psi_minus) ** 2
    dp = np.abs(field.psi_plus) ** 2
    t = np.full(field.grid.count, field.time)
    _io.write_csv(
        path,
        ["T", "X", "density_minus", "density_plus", "density_total"],
        [t, field.grid.points, dm, dp, dm + dp],
    )
