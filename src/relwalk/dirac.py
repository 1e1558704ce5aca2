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

from . import _io, kernels, qwalk
from .kernels import Grid1D, _cis, _reuse, count_steps

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
    with np.errstate(all="ignore"):  # a width too small to sample is caught below
        env = np.exp(-((x - center) ** 2) / (2.0 * width**2)) * np.exp(1j * momentum * x)
        n = l2_norm(SpinorField(env, env, grid))
    if not 0.0 < n < np.inf:
        raise ValueError(f"cannot normalize a packet of norm {n}")
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


def _coupling_factors(xi, theta, zeta0, s):
    """The parts of exp(s*C) free of the potential a, which multiplies each entry by exp(i*a*s)."""
    b = theta * np.exp(1j * zeta0)
    omega = np.hypot(xi, theta)
    cos = np.cos(omega * s)
    # sin(omega*s)/omega with the omega -> 0 limit handled exactly
    sinc = s * np.sinc(omega * s / np.pi)
    return cos + 1j * xi * sinc, b, np.conj(b), sinc, cos - 1j * xi * sinc


def _coupling_matrix(coeffs, t_mid, x, s, cache=None):
    """Entries (e11, e12, e21, e22) of exp(s*C(t_mid, x)) at every point.

    C is i*a*I plus an anti-Hermitian part, so the exponential is unitary.
    Scalar coefficients stay scalar through the trigonometry. The phase is
    then filled out to x.shape, so every complex product runs over whole
    arrays: numpy's vector loops fuse multiply-adds that its scalar
    products do not, and the entries must not depend on whether a
    coefficient came as a scalar or as samples of a constant. ``cache``
    keeps the factors free of a from call to call (see kernels._reuse).
    """
    alpha = np.asarray(coeffs.a0(t_mid, x), dtype=float)
    xi = -np.asarray(coeffs.a1(t_mid, x), dtype=float)
    theta = np.asarray(coeffs.theta_bar(t_mid, x), dtype=float)
    zeta0 = coeffs.mu - np.pi / 2.0
    plus, b, b_conj, sinc, minus = _reuse(cache, _coupling_factors, xi, theta, zeta0, s)
    phase = np.full(x.shape, _cis(alpha * s))
    e11 = phase * plus
    e12 = phase * b * sinc
    e21 = -phase * b_conj * sinc
    e22 = phase * minus
    return e11, e12, e21, e22


def solve_dirac(coeffs: DiracCoefficients, initial: SpinorField, t_final: float,
                dt: float) -> SpinorField:
    """March the coupled rails for a time t_final from ``initial.time``.

    Requires grid.spacing == dt (unit light-cone speed keeps the transport
    shifts exact) and t_final an integer number of steps. The result
    carries its time, so chained calls continue one march step by step.
    The coupling's b, omega = hypot(xi, theta), cos(omega*s) and s*sinc
    are rebuilt only when a step samples xi or theta with other bits than
    the step before; the phase of a is made every step. The state is
    bitwise that of one-step calls chained.
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
    cache = {}
    for _ in range(n_steps):
        # both half couplings freeze the coefficients at the midpoint
        coupling = _coupling_matrix(coeffs, t + half, x, half, cache)
        psi_minus, psi_plus = qwalk._mix(coupling, psi_minus, psi_plus)
        # the left mover gathers from X + dt, the right mover from X - dt
        psi_minus, psi_plus = qwalk._mix(
            coupling, qwalk._next_site(psi_minus), qwalk._prev_site(psi_plus))
        t += dt
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
    phases = []
    field = initial
    for _ in range(int(round(t_final / dt))):
        step = solve_dirac(coeffs, field, dt, dt)
        z = np.vdot(field.psi_minus, step.psi_minus) + np.vdot(field.psi_plus, step.psi_plus)
        phases.append(np.angle(z))
        field = step
    return -float(np.mean(phases)) / dt


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    l2_error: float
    # slope against the previous row: None on the first, nan if either error is 0
    order: float | None


def _rails(solve, *args):
    """(psi_minus, psi_plus) of solve(*args), or the exception it raised."""
    try:
        field = solve(*args)
    except Exception as exc:
        return exc
    return field.psi_minus, field.psi_plus


def convergence_study(jet: qwalk.JetSpec, packet: Callable, t_final: float,
                      eps_list: Sequence[float], length: float,
                      center: float = 0.0) -> list[ConvergenceRow]:
    """Walk-versus-Dirac L2 error at t_final for each lattice scale.

    ``packet`` maps a Grid1D to the initial SpinorField, so every scale
    samples the same physical data. The reference is integrated on the
    walk's own lattice (dt = dx = epsilon), which makes the comparison a
    plain pointwise distance.

    Every epsilon must be positive and distinct, and length, the lower
    edge center - length/2 and t_final whole numbers of its steps; this
    process checks them and samples the packets. Then the walk and the
    Dirac solve of every scale run as one job each, sites times steps its
    cost, dealt by kernels.run_jobs to every usable core. Each job
    returns its rails, and this process computes the errors and orders.
    A job's error is raised here, the first in (epsilon, walk, Dirac)
    order, so it does not depend on the number of cores.
    """
    coeffs = DiracCoefficients.from_jet(jet)
    initials, jobs, costs = [], [], []
    for i, eps in enumerate(eps_list):
        if not eps > 0.0:
            raise ValueError(f"epsilon must be positive, got {eps}")
        if eps in eps_list[:i]:
            raise ValueError(f"epsilon {eps} is repeated")
        grid = lattice(length, eps, center)
        qwalk._check_lower_edge(grid, eps)
        initial = packet(grid)
        initials.append(initial)
        jobs += [(qwalk.run_walk, jet, eps, t_final, initial),
                 (solve_dirac, coeffs, initial, t_final, eps)]
        costs += [initial.grid.count * count_steps(t_final, eps)] * 2
    rails = kernels.run_jobs(_rails, jobs, kernels._cores(), costs)
    for result in rails:
        if isinstance(result, Exception):
            raise result
    rows = []
    prev = None
    for eps, initial, walked, reference in zip(eps_list, initials, rails[::2], rails[1::2]):
        err = l2_distance(SpinorField(*walked, initial.grid),
                          SpinorField(*reference, initial.grid))
        order = None
        if prev is not None:
            e_prev, err_prev = prev
            order = (float(np.log(err_prev / err) / np.log(e_prev / eps))
                     if err_prev > 0.0 and err > 0.0 else np.nan)
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
