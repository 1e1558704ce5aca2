"""Relativistic Ornstein-Uhlenbeck kinetics in mixed Fourier space.

The phase-space density F(T, X, P) obeys

    dF/dT + v(P) dF/dX = d/dP ( v(P) F ) + d^2F/dP^2,     v(P) = P / Gamma_Q(P)

with Gamma_Q(P) = sqrt(1 + (P/Q)^2), in the fluid frame units where the
friction time and the thermal momentum spread are one. The single parameter
Q is the ratio of the rest-mass energy scale to the temperature; Q -> inf
recovers the Galilean Ornstein-Uhlenbeck process, while finite Q confines
all signal speeds below Q (v -> Q as P -> inf), so the density stays
inside the light cone |X| < Q T.

Spatial Fourier transform turns the X derivative into a multiplication, so
each wavenumber K evolves independently:

    dFhat/dT = -i K v(P) Fhat + L Fhat

where L is the momentum-space collision operator. This module discretizes
L with exponentially fitted finite-volume fluxes (drift and diffusion in
one flux, potential increments taken exactly), which makes the sampled
Juttner equilibrium the exact kernel of the discrete operator and keeps
the trapezoid mass of every mode constant to rounding. The fitted fluxes
obey detailed balance with respect to that Juttner, so the collision
matrix is diagonally similar to a symmetric one. Time stepping is Strang:
exact half phases around a Crank-Nicolson collision step, one real
tridiagonal shared by all modes. Adjacent half phases of consecutive steps
are folded into one full phase, and the Crank-Nicolson step is taken as
2 (I - aL)^-1 - I. The modes are marched in the symmetric frame, divided
by the similarity weights (a real diagonal that commutes with the phases),
so a step is one phase multiply, one L D L^T solve of a symmetric
positive-definite tridiagonal (blocked into small matrix products, see
kernels.BlockedLDL) and one subtraction, over fixed chunks of modes
stored momentum-major and marched one after another.

Real, P-even initial data makes every mode obey the momentum-flip symmetry
F(K, -P) = conj F(K, P), and both the phase and the collision step keep it,
so the marcher keeps only the P > 0 half (see _evolve_block). Snapshots are
full (n_modes, n_p) states like :class:`KineticState`, their P < 0 half
written as the mirror image, so they are symmetric exactly. evolve_all
therefore takes only symmetric initial states; evolve_mode splits
arbitrary data into two symmetric parts.

The Juttner normalization is a trapezoid rule in rapidity (see
juttner_normalization) rather than a Bessel function, so like the
marcher the module needs numpy alone.

Initial data throughout is a spatial delta times the Juttner equilibrium,
so the reconstructed density is the transition-density profile whose front
and metric the companion module :mod:`relwalk.fick` analyzes; its density
and current come back from the K >= 0 modes through one np.fft.hfft.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _io
from .errors import StepSizeError, SymmetryError, TailTruncationError
from .kernels import BlockedLDL, Grid1D, count_steps, quad
# not called here: perfbench/tracing.py swaps this binding to time the solve,
# so it stays until the tracer counts steps inside the marcher
from .kernels import tridiag_solve  # noqa: F401

__all__ = [
    "DensityProfile",
    "KineticState",
    "RoupParams",
    "Run",
    "apply_collision",
    "continuity_residual",
    "default_dt",
    "evolve_all",
    "evolve_mode",
    "gamma_factor",
    "initial_state",
    "juttner",
    "juttner_normalization",
    "march_run",
    "peak_location",
    "reconstruct_density",
    "rescaled_profile",
    "symmetry_residual",
    "velocity",
    "write_profile_csv",
]

# exp(-tail) at the momentum cutoff; 27.63 keeps the discarded weight
# below 1e-12 of the equilibrium mass
_MIN_TAIL = 27.63

# the marcher's symmetric frame divides by weights that fall to about
# exp(-tail/2); past this exponent they underflow to zero
_MAX_TAIL = 2.0 * np.log(1.0 / np.finfo(float).tiny)

# largest symmetry_residual evolve_all accepts in an initial state; the
# states initial_state builds measure about 2e-15
_SYMMETRY_TOL = 1e-12

# cells per marched chunk: it stays in L2, its products too small for BLAS threads
_CHUNK_CELLS = 16384

# trapezoid nodes of the rapidity integral in juttner_normalization
_RAPIDITY_NODES = 257

# equilibrium exponent at the momentum cutoff of RoupParams.standard
_TAIL = 32.0

# largest first-step doubling error, relative to each row's norm, that the
# step-size guard of evolve_all and evolve_mode accepts
_GUARD_TOL = 0.05


def gamma_factor(p, Q: float):
    p = np.asarray(p, dtype=float)
    return np.sqrt(1.0 + (p / Q) ** 2)


def velocity(p, Q: float):
    """Signal speed v = P / Gamma_Q(P), strictly inside (-Q, Q)."""
    p = np.asarray(p, dtype=float)
    return p / gamma_factor(p, Q)


def juttner_normalization(Q: float) -> float:
    """A with integral of A*exp(-Q^2 (Gamma_Q - 1)) over P equal to one.

    The integral is 2 Q exp(Q^2) K1(Q^2). With the rapidity P = Q sinh t it
    is 2 Q times the integral over t > 0 of exp(-2 Q^2 sinh^2(t/2)) cosh t;
    sinh^2 keeps the exponent accurate where Q^2 (cosh t - 1) would cancel.
    The trapezoid rule runs on _RAPIDITY_NODES nodes from t = 0 to
    2 asinh(sqrt(375) / Q), where the exponent reaches 750 and its
    exponential is below the smallest double. The integrand is even and
    analytic in t, so the rule converges geometrically: it agrees with a
    40-digit evaluation of the Bessel form to 5e-16 relative for Q from
    0.01 to 1000.
    """
    t = np.linspace(0.0, 2.0 * np.arcsinh(np.sqrt(375.0) / Q), _RAPIDITY_NODES)
    f = np.exp(-2.0 * Q * Q * np.sinh(0.5 * t) ** 2) * np.cosh(t)
    return 1.0 / (2.0 * Q * (t[1] * (np.sum(f) - 0.5 * (f[0] + f[-1]))))


def juttner(p, Q: float):
    """Normalized relativistic equilibrium density in P."""
    p = np.asarray(p, dtype=float)
    return juttner_normalization(Q) * np.exp(-Q * Q * (gamma_factor(p, Q) - 1.0))


def _tail_exponent(p_max: float, Q: float) -> float:
    return Q * Q * (gamma_factor(p_max, Q) - 1.0)


@dataclass(frozen=True)
class RoupParams:
    """Grids and physics for one kinetic run.

    Momentum lives on a symmetric endpoint grid, space on a periodic ring
    of the given length centered at the source. n_p must be even so the
    grid mirrors about a face at P = 0, which the P > 0 marcher uses.
    """

    Q: float
    p_max: float
    n_p: int = 2048
    length: float = 1.0
    n_x: int = 512

    def __post_init__(self):
        if self.Q <= 0.0:
            raise ValueError("Q must be positive")
        if self.n_p % 2 != 0 or self.n_p < 8:
            raise ValueError("n_p must be even and at least 8")
        if self.n_x % 2 != 0 or self.n_x < 8:
            raise ValueError("n_x must be even and at least 8")
        tail = _tail_exponent(self.p_max, self.Q)
        if tail < _MIN_TAIL:
            raise TailTruncationError(
                f"momentum cutoff keeps only exp(-{tail:.2f}) tails; "
                f"need the equilibrium exponent at p_max above {_MIN_TAIL}"
            )
        if tail > _MAX_TAIL:
            raise TailTruncationError(
                f"momentum cutoff reaches exp(-{tail:.2f}) tails; the "
                f"equilibrium exponent at p_max must stay below {_MAX_TAIL:.2f}"
            )

    @classmethod
    def standard(cls, Q: float, t_final: float, n_x: int = 512, n_p: int = 2048,
                 length: float | None = None) -> "RoupParams":
        """Cutoff at the tail exponent _TAIL, ring from the causal cone.

        length defaults to three times the light-cone radius: speeds stay
        below Q, so the density stays within |X| < Q*t_final, and a ring
        of 3*max(Q, 1)*t_final leaves at least Q*t_final of empty ring
        between the cone and its periodic image.
        """
        if t_final <= 0.0:
            raise ValueError("t_final must be positive")
        p_max = Q * np.sqrt((1.0 + _TAIL / (Q * Q)) ** 2 - 1.0)
        if length is None:
            length = 3.0 * max(Q, 1.0) * t_final
        return cls(Q=Q, p_max=p_max, n_p=n_p, length=length, n_x=n_x)

    @property
    def p_grid(self) -> Grid1D:
        return Grid1D.symmetric(self.p_max, self.n_p)

    @property
    def x_grid(self) -> Grid1D:
        return Grid1D.periodic(self.length, self.n_x)

    @property
    def n_modes(self) -> int:
        return self.n_x // 2 + 1

    @property
    def mode_wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_modes) / self.length


def _sinhc_inv(y: np.ndarray) -> np.ndarray:
    # y / sinh(y), series below 1e-6 where cancellation would bite
    out = np.empty_like(y)
    small = np.abs(y) < 1e-6
    ys = y[small]
    out[small] = 1.0 - ys * ys / 6.0
    yb = y[~small]
    out[~small] = yb / np.sinh(yb)
    return out


@functools.lru_cache(maxsize=16)
def _collision_bands(p_grid: Grid1D, Q: float):
    """Tridiagonal bands (lower, diag, upper) of the discrete collision operator.

    Fluxes between neighbouring nodes are exponentially fitted to the
    potential U = Q^2 Gamma_Q whose gradient is the drift speed, using the
    exact potential increment across each face. Boundary cells are half
    volumes with zero outer flux, so the vol-weighted sum of the output is
    exactly zero and samples of exp(-U) are exactly stationary.
    """
    p = p_grid.points
    dp = p_grid.spacing
    n = p_grid.count
    u = Q * Q * (gamma_factor(p, Q) - 1.0)
    w = np.diff(u)
    s = _sinhc_inv(w / 2.0)
    alpha = s * np.exp(w / 2.0) / dp  # flux weight on the upper node
    beta = s * np.exp(-w / 2.0) / dp  # flux weight on the lower node
    vol = np.full(n, dp)
    vol[0] = vol[-1] = dp / 2.0

    lower = np.empty(n - 1)
    diag = np.empty(n)
    upper = np.empty(n - 1)
    lower[:] = beta / vol[1:]
    upper[:] = alpha / vol[:-1]
    diag[0] = -beta[0] / vol[0]
    diag[-1] = -alpha[-1] / vol[-1]
    diag[1:-1] = -(beta[1:] + alpha[:-1]) / vol[1:-1]
    for arr in (lower, diag, upper):
        arr.setflags(write=False)
    return lower, diag, upper


def apply_collision(values: np.ndarray, p_grid: Grid1D, Q: float) -> np.ndarray:
    """L acting on samples over p_grid; batched over leading axes of values."""
    lower, diag, upper = _collision_bands(p_grid, Q)
    values = np.asarray(values)
    if values.shape[-1] != p_grid.count:
        raise ValueError("last axis must match the momentum grid")
    moved = np.moveaxis(values, -1, 0)
    out = diag.reshape(-1, *([1] * (moved.ndim - 1))) * moved
    out[1:] += lower.reshape(-1, *([1] * (moved.ndim - 1))) * moved[:-1]
    out[:-1] += upper.reshape(-1, *([1] * (moved.ndim - 1))) * moved[1:]
    return np.moveaxis(out, 0, -1)


def default_dt(t_final: float) -> float:
    """The step that reaches t_final in 2000 steps."""
    return t_final / 2000


def _evolve_block(F, Ks, p_grid, Q, dt, n_steps, snap_steps, out):
    """March mode rows F (n, n_p) n_steps, snapshot i into out[i].

    Only the P > 0 half G = F[:, n_p/2:] is marched: rows must obey the
    momentum-flip symmetry F(K, -P) = conj F(K, P), which the step
    preserves, and each snapshot gets its P < 0 half written as
    conj(G[:, ::-1]), so outputs are exactly symmetric. n_p is even, so
    the grid mirrors about the face at P = 0 and the node just below it
    holds conj(G[:, 0]). Folding that neighbour into row 0 of the P > 0
    block of the collision matrix is a reflection: even (diagonal plus
    the dropped coupling m) for the real part, odd (diagonal minus m) for
    the imaginary part. One solve takes the even matrix, and a
    Sherman-Morrison rank-1 update y.imag += gamma y.imag[0] z, with
    z = M_even^-1 e_0 and gamma = 2m / (1 - 2m z_0), turns its imaginary
    part into the odd solve; z decays fast and is cut where it falls
    below 1e-18 z_0.

    The march runs in the symmetric frame. Detailed balance makes
    S = W^-1 M W symmetric for the diagonal W = diag(w), w_0 = 1 and
    w_{i+1} / w_i = sqrt(sub_i / sup_i) (about exp(-dU/2) of the fitted
    potential), with off-diagonal -sqrt(sub_i sup_i). S has the
    eigenvalues of M, at least 1/2 because those of the detailed-balance
    generator L are real and non-positive, so it is positive definite and
    BlockedLDL factors it once. The marched state is W^-1 G: w divides
    the opening half phase and multiplies each snapshot's half phase.
    Since w_0 = 1, e_0, m and gamma carry over, and the rank-1 update
    uses z = S^-1 e_0, one more solve with the same factorization.

    Strang steps H C H, with H the exact half phase exp(i dt v K / 2) and C
    the Crank-Nicolson collision step, chain as H C P C P ... C H with the
    full phase P = exp(i dt v K) between solves; half phases are applied
    only at the start and into each snapshot. C is (I - aL)^-1 (I + aL)
    = 2 (I - aL)^-1 - I with a = dt/2: the solve takes the bands of
    (I - aL)/2, which returns 2 (I - aL)^-1 G exactly (a power-of-two
    scaling), and the step ends with one subtraction.

    The rows march one after another in fixed chunks of
    _CHUNK_CELLS // (n_p/2) modes, each stored momentum-major as G.T,
    (rows, k) complex and C-ordered with zero padding rows, so its float
    view is the (rows, 2k) real right-hand side of the real matrix. A
    chunk whose rows are all zero stays zero without a march; skipping it
    leaves the other chunks, and so the results, bitwise unchanged.
    """
    h = p_grid.count // 2
    lower, diag, upper = _collision_bands(p_grid, Q)
    a = 0.5 * dt
    m = -0.5 * a * lower[h - 1]
    sub, mid, sup = -0.5 * a * lower[h:], 0.5 - 0.5 * a * diag[h:], -0.5 * a * upper[h:]
    mid[0] += m
    # the symmetric frame; sub and sup are negative, and so is off
    w = np.concatenate(([1.0], np.cumprod(np.sqrt(sub / sup))))[:, None]
    off = -np.sqrt(sub * sup)
    ldl = BlockedLDL(mid, off)
    e0 = np.zeros((ldl.rows, 1))
    e0[0] = 1.0
    z = np.empty_like(e0)
    ldl.solver(1)(e0, z)
    z = z[:, 0]
    gamma = 2.0 * m / (1.0 - 2.0 * m * z[0])
    z = gamma * z[: np.nonzero(np.abs(z) >= 1e-18 * abs(z[0]))[0][-1] + 1, None]
    # the inverse transform kernel is exp(-iKX), so d/dX acts as -iK on the
    # modes and the streaming phase rotates the opposite way
    v = velocity(p_grid.points[h:], Q)
    snap_lookup = {s: i for i, s in enumerate(snap_steps)}
    size = max(1, _CHUNK_CELLS // h)
    for lo in range(0, F.shape[0], size):
        chunk = F[lo:lo + size, h:].T
        k = chunk.shape[1]
        if not chunk.any():  # a linear step keeps zero rows zero
            for snap in out:
                snap[lo:lo + k] = 0.0
            continue
        half = np.exp(0.5j * dt * np.outer(v, Ks[lo:lo + k]))
        full = np.exp(1j * dt * np.outer(v, Ks[lo:lo + k]))
        solve = ldl.solver(2 * k)

        def snapshot(step, right, phase):
            snap = out[snap_lookup[step]][lo:lo + k]
            np.multiply(right.T, phase.T, out=snap[:, h:])
            np.conjugate(snap[:, h:][:, ::-1], out=snap[:, :h])

        if 0 in snap_lookup:
            snapshot(0, chunk, np.ones(1))
        G, y = np.zeros((2, ldl.rows, k), dtype=complex)
        np.multiply(half, chunk, out=G[:h])
        G[:h] /= w
        half *= w
        for step in range(1, n_steps + 1):
            solve(G.view(float), y.view(float))
            y.imag[:z.size] += z * y.imag[0]
            G, y = np.subtract(y, G, out=y), G
            if step in snap_lookup:
                snapshot(step, G[:h], half)
            if step < n_steps:
                G[:h] *= full


def _check_step(F, Ks, p_grid, Q, dt, scale):
    """StepSizeError when one step's doubling error, row i over scale[i], exceeds _GUARD_TOL."""
    coarse, fine = np.empty((2, 1) + F.shape, dtype=complex)
    _evolve_block(F, Ks, p_grid, Q, dt, 1, [1], coarse)
    _evolve_block(F, Ks, p_grid, Q, dt / 2.0, 2, [2], fine)
    num = np.linalg.norm(coarse[0] - fine[0], axis=1)
    err = float(np.max(num / np.where(scale > 0.0, scale, 1.0)))
    if err > _GUARD_TOL:
        raise StepSizeError(
            f"first-step doubling error {err:.3e} exceeds {_GUARD_TOL}; reduce dt")


@dataclass
class KineticState:
    """Fourier modes F̂(K_j, P) at one time; rows follow mode_wavenumbers."""

    params: RoupParams
    time: float
    modes: np.ndarray  # (n_modes, n_p) complex


def initial_state(params: RoupParams) -> KineticState:
    """Spatial delta at the origin times the Juttner equilibrium.

    The delta is band limited strictly below the ring's Nyquist bin. That
    bin can hold an even wave but not its odd flux partner (sin(K X) is
    zero on the lattice), so populating it would break the continuity
    pairing by construction; leaving it empty costs one part in n_x of
    the comb height and keeps every stored mode physical.
    """
    f_eq = juttner(params.p_grid.points, params.Q)
    modes = np.tile(f_eq / np.sqrt(2.0 * np.pi), (params.n_modes, 1)).astype(complex)
    modes[-1] = 0.0
    return KineticState(params, 0.0, modes)


def evolve_mode(f0: np.ndarray, K: float, p_grid: Grid1D, Q: float,
                t_final: float, dt: float) -> np.ndarray:
    """Single-wavenumber evolution; raises StepSizeError when dt is too coarse.

    f0 need not be flip-symmetric: it splits as S + A with S and iA both
    symmetric, the two march as one block, and the result is S' - i (iA)'.
    The step-size guard measures both rows against the norm of f0.
    """
    n_steps = count_steps(t_final, dt)
    f = np.asarray(f0, dtype=complex)
    flipped = np.conj(f[::-1])
    F = np.stack([0.5 * (f + flipped), 0.5j * (f - flipped)])
    Ks = np.array([K, K], dtype=float)
    _check_step(F, Ks, p_grid, Q, dt, np.full(2, np.linalg.norm(f)))
    out = np.empty((1, 2, p_grid.count), dtype=complex)
    _evolve_block(F, Ks, p_grid, Q, dt, n_steps, [n_steps], out)
    return out[0, 0] - 1j * out[0, 1]


def evolve_all(params: RoupParams, t_final: float, dt: float | None = None,
               output_times=None, threads: int = 1,
               initial: KineticState | None = None) -> list[KineticState]:
    """Evolve every stored wavenumber, returning one state per output time.

    output_times must be integer multiples of dt (default: t_final only).
    A chunk of rows that are all zero (the empty Nyquist row of
    initial_state, alone in its chunk) is not marched. One march runs on
    one core; march_run is the job that marches independent runs
    concurrently through kernels.run_jobs. threads is checked (below 1
    raises ValueError) and otherwise unused. Only the P > 0 half is
    marched, so an initial state whose symmetry_residual exceeds 1e-12
    raises SymmetryError; the returned states are exactly symmetric.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if dt is None:
        dt = default_dt(t_final)
    n_steps = count_steps(t_final, dt)
    times = sorted(float(t) for t in ([t_final] if output_times is None else output_times))
    snap_steps = [count_steps(t, dt) for t in times]
    if snap_steps and snap_steps[-1] > n_steps:
        raise ValueError(f"output time {times[-1]} lies beyond t_final = {t_final}")
    if len(set(snap_steps)) != len(snap_steps):
        raise ValueError("output times collide on the step grid")

    state0 = initial if initial is not None else initial_state(params)
    if state0.params != params:
        raise ValueError("initial state was built for different parameters")
    asym = symmetry_residual(state0)
    if asym > _SYMMETRY_TOL:
        raise SymmetryError(
            f"initial state breaks the momentum-flip symmetry at {asym:.3e}; "
            "only the P > 0 half is marched")
    F = np.asarray(state0.modes, dtype=complex)  # (n_modes, n_p), never written
    run = (F, params.mode_wavenumbers, params.p_grid, params.Q, dt)
    _check_step(*run, np.linalg.norm(F, axis=1))
    # one array per snapshot, so a kept state does not pin the others
    out = [np.empty((params.n_modes, params.n_p), dtype=complex) for _ in snap_steps]
    _evolve_block(*run, n_steps, snap_steps, out)
    return [KineticState(params, state0.time + s * dt, m) for s, m in zip(snap_steps, out)]


def symmetry_residual(state: KineticState) -> float:
    """Largest violation of Fhat(K, -P) = conj(Fhat(K, P)) across modes.

    The initial data is real and even in P and the evolution preserves the
    combined flip, so growth here flags an operator bug rather than noise.
    Mode norms are floored at the global maximum times 1e-3 to keep empty
    modes from dominating the ratio.
    """
    modes = state.modes
    diff = np.linalg.norm(modes[:, ::-1] - np.conj(modes), axis=1)
    norms = np.linalg.norm(modes, axis=1)
    floor = 1e-3 * np.max(norms) if np.max(norms) > 0.0 else 1.0
    return float(np.max(diff / np.maximum(norms, floor)))


@dataclass
class DensityProfile:
    """Real-space density N and current J on the ring at one time."""

    x_grid: Grid1D
    time: float
    Q: float
    density: np.ndarray
    current: np.ndarray


def reconstruct_density(state: KineticState, refine: int = 1) -> DensityProfile:
    """Integrate the modes over momentum and invert the spatial transform.

    The K >= 0 integrals of N and J, twisted by exp(-i K X_lower), are a
    half spectrum: one np.fft.hfft extends it Hermitian, zero-pads it onto
    a refine-times-finer ring (trigonometric interpolation, the last bin
    halved between its two images) and inverts it. SymmetryError flags a
    broken momentum-flip symmetry, or an imaginary K = 0 integral (which
    hfft drops) large enough to make N or J measurably not real.
    """
    params = state.params
    if refine < 1:
        raise ValueError("refine must be a positive integer")
    res = symmetry_residual(state)
    if res > 1e-6:
        raise SymmetryError(
            f"momentum-flip symmetry violated at {res:.3e}; "
            "the evolution or the initial data is inconsistent"
        )
    p_grid = params.p_grid
    v = velocity(p_grid.points, params.Q)
    x_grid = Grid1D.periodic(params.length, params.n_x * refine)
    half = np.stack((quad(state.modes, p_grid), quad(state.modes * v, p_grid)))
    half *= np.exp(-1j * params.mode_wavenumbers * x_grid.lower)
    if refine > 1:
        half[:, -1] *= 0.5
    scale = np.sqrt(2.0 * np.pi) / x_grid.period
    density, current = np.fft.hfft(half, x_grid.count) * scale
    imag_n, imag_j = np.abs(half[:, 0].imag) * scale
    scale_n = np.max(np.abs(density))
    if imag_n > 1e-8 * scale_n:
        raise SymmetryError("reconstructed density is not real")
    if imag_j > 1e-8 * np.max(np.abs(current)) + 1e-14 * scale_n:
        raise SymmetryError("reconstructed current is not real")
    return DensityProfile(x_grid, state.time, params.Q, density, current)


class Run(NamedTuple):
    """One evolve_all run from the standard initial state, read at ``refine``."""

    Q: float
    t_final: float
    dt: float
    times: tuple  # output times, ascending
    n_x: int = 512
    n_p: int = 2048
    refine: int = 8

    @property
    def cost(self) -> int:
        """Steps times cells, the run's share of a pool's work."""
        return count_steps(self.t_final, self.dt) * (self.n_x // 2 + 1) * self.n_p


def march_run(run: Run) -> dict:
    """{t: DensityProfile} of a run; the pool job of every kinetic study.

    A worker returns the profiles, never the states, which are far larger.
    """
    params = RoupParams.standard(run.Q, run.t_final, n_x=run.n_x, n_p=run.n_p)
    states = evolve_all(params, run.t_final, dt=run.dt, output_times=list(run.times))
    return {t: reconstruct_density(state, refine=run.refine)
            for t, state in zip(run.times, states)}


def rescaled_profile(profile: DensityProfile):
    """Front coordinates: xi = X / (Q T), nu = N * Q * T."""
    if profile.time <= 0.0:
        raise ValueError("rescaling needs a positive time")
    scale = profile.Q * profile.time
    return profile.x_grid.points / scale, profile.density * scale


def peak_location(profile: DensityProfile) -> tuple[float, float]:
    """Position and height of the right-hand density peak in (xi, nu).

    Three-point parabolic refinement around the grid argmax on xi > 0.
    """
    xi, nu = rescaled_profile(profile)
    sel = np.nonzero(xi > 0.0)[0]
    if sel.size < 3:
        raise ValueError("not enough samples on the positive side")
    i = sel[np.argmax(nu[sel])]
    if i == 0 or i == xi.size - 1:
        return float(xi[i]), float(nu[i])
    y0, y1, y2 = nu[i - 1], nu[i], nu[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(xi[i]), float(y1)
    off = 0.5 * (y0 - y2) / denom
    step = xi[i + 1] - xi[i]
    peak_nu = y1 - 0.25 * (y0 - y2) * off
    return float(xi[i] + off * step), float(peak_nu)


def continuity_residual(profiles) -> float:
    """Relative residual of dN/dT + dJ/dX = 0 from profiles at uniform times.

    Centered differences in both directions: the time derivative pairs the
    neighbours of each interior level, the flux divergence wraps around
    the ring. Returns the L2 norm of the residual over all interior levels
    normalized by the L2 norm of the flux divergence.
    """
    profiles = list(profiles)
    if len(profiles) < 3:
        raise ValueError("need at least 3 time levels for centered differencing")
    times = np.array([p.time for p in profiles])
    deltas = np.diff(times)
    if np.any(deltas <= 0.0) or not np.allclose(deltas, deltas[0], rtol=1e-9):
        raise ValueError("time levels must be strictly increasing and uniform")
    grid = profiles[0].x_grid
    for p in profiles[1:]:
        if p.x_grid != grid:
            raise ValueError("profiles live on different spatial grids")
    delta = float(deltas[0])
    num = 0.0
    den = 0.0
    for i in range(1, len(profiles) - 1):
        dndt = (profiles[i + 1].density - profiles[i - 1].density) / (2.0 * delta)
        j = profiles[i].current
        djdx = (np.roll(j, -1) - np.roll(j, 1)) / (2.0 * grid.spacing)
        num += float(np.sum((dndt + djdx) ** 2))
        den += float(np.sum(djdx ** 2))
    if den == 0.0:
        raise ValueError("flux divergence vanishes; residual is not defined")
    return float(np.sqrt(num / den))


def write_profile_csv(profile: DensityProfile, path) -> None:
    """Columns: T, X, N, J plus the front coordinates xi and nu."""
    x = profile.x_grid.points
    t = np.full(x.size, profile.time)
    xi, nu = rescaled_profile(profile)
    _io.write_csv(
        path,
        ["T", "X", "N", "J", "xi", "nu"],
        [t, x, profile.density, profile.current, xi, nu],
    )
