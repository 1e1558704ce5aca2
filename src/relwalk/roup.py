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
so a step is one phase multiply, one pivot-free L D L^T solve of a
symmetric positive-definite tridiagonal (LAPACK ?pttrs) and one
subtraction over the modes, stored mode-major.

Real, P-even initial data makes every mode obey the momentum-flip symmetry
F(K, -P) = conj F(K, P), and both the phase and the collision step keep it.
Since n_p is even the momentum grid mirrors about the face at P = 0, so
the marcher keeps only the P > 0 half, (n_modes, n_p/2): the neighbour
across P = 0 folds into the first row as an even reflection for the real
part and an odd one for the imaginary part, which differ by a rank-1 term
(a Sherman-Morrison update after one complex solve). Snapshots are full
(n_modes, n_p) states like :class:`KineticState`, their P < 0 half written
as the mirror image, so they are symmetric exactly. evolve_all therefore
takes only symmetric initial states; evolve_mode splits arbitrary data
into two symmetric parts.

Initial data throughout is a spatial delta times the Juttner equilibrium,
so the reconstructed density is the transition-density profile whose front
and metric the companion module :mod:`relwalk.fick` analyzes.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import kve

from . import _io
from .errors import StepSizeError, SymmetryError, TailTruncationError
from .kernels import Grid1D, count_steps, dft_inverse, quad, tridiag_solve, wavenumbers

__all__ = [
    "DensityProfile",
    "KineticState",
    "RoupParams",
    "apply_collision",
    "continuity_residual",
    "default_dt",
    "evolve_all",
    "evolve_mode",
    "gamma_factor",
    "initial_state",
    "juttner",
    "juttner_normalization",
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


def gamma_factor(p, Q: float):
    p = np.asarray(p, dtype=float)
    return np.sqrt(1.0 + (p / Q) ** 2)


def velocity(p, Q: float):
    """Signal speed v = P / Gamma_Q(P), strictly inside (-Q, Q)."""
    p = np.asarray(p, dtype=float)
    return p / gamma_factor(p, Q)


def juttner_normalization(Q: float) -> float:
    """A with integral of A*exp(-Q^2 (Gamma_Q - 1)) over P equal to one.

    The closed form uses the modified Bessel function: the unshifted
    integral of exp(-Q^2 Gamma_Q) is 2 Q K1(Q^2). The exponentially
    scaled kve keeps this finite for large Q.
    """
    return 1.0 / (2.0 * Q * kve(1, Q * Q))


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
    trapezoid weights coincide with the finite-volume cell volumes, which
    is what makes mass conservation exact in the reconstruction, and so
    the grid mirrors about a face at P = 0, which the P > 0 marcher uses.
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
                 length: float | None = None, tail: float = 32.0) -> "RoupParams":
        """Cutoff from a target tail exponent, ring from the causal cone.

        length defaults to three times the light-cone radius: speeds stay
        below Q, so the density stays within |X| < Q*t_final, and a ring
        of 3*max(Q, 1)*t_final leaves at least Q*t_final of empty ring
        between the cone and its periodic image.
        """
        if t_final <= 0.0:
            raise ValueError("t_final must be positive")
        p_max = Q * np.sqrt((1.0 + tail / (Q * Q)) ** 2 - 1.0)
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


def default_dt(t_final: float, n_steps: int = 2000) -> float:
    return t_final / n_steps


def _evolve_block(F, Ks, p_grid, Q, dt, n_steps, snap_steps, out, lo):
    """March mode rows F (k, n_p) n_steps, snapshot i into out[i][lo:lo + k].

    Only the P > 0 half G = F[:, n_p/2:] is marched: rows must obey the
    momentum-flip symmetry F(K, -P) = conj F(K, P), which the step
    preserves, and each snapshot gets its P < 0 half written as
    conj(G[:, ::-1]), so outputs are exactly symmetric. n_p is even, so
    the grid mirrors about the face at P = 0 and the node just below it
    holds conj(G[:, 0]). Folding that neighbour into row 0 of the P > 0
    block of the collision matrix is a reflection: even (diagonal plus
    the dropped coupling m) for the real part, odd (diagonal minus m) for
    the imaginary part. One complex solve takes the even matrix, and a
    Sherman-Morrison rank-1 update y.imag += gamma y.imag[:, 0] z, with
    z = M_even^-1 e_0 and gamma = 2m / (1 - 2m z_0), turns its imaginary
    part into the odd solve; z decays fast and is cut where it falls
    below 1e-18 z_0.

    The march runs in the symmetric frame. Detailed balance makes
    S = W^-1 M W symmetric for the diagonal W = diag(w), w_0 = 1 and
    w_{i+1} / w_i = sqrt(sub_i / sup_i) (about exp(-dU/2) of the fitted
    potential), with off-diagonal -sqrt(sub_i sup_i). S has the
    eigenvalues of M, at least 1/2 because those of the detailed-balance
    generator L are real and non-positive, so it is positive definite and
    tridiag_solve takes it pivot-free as L D L^T. The marched state is
    W^-1 G: w divides the opening half phase and multiplies each
    snapshot's half phase. Since w_0 = 1, e_0, m and gamma carry over, and
    the rank-1 update uses z = S^-1 e_0.

    Strang steps H C H, with H the exact half phase exp(i dt v K / 2) and C
    the Crank-Nicolson collision step, chain as H C P C P ... C H with the
    full phase P = exp(i dt v K) between solves; half phases are applied
    only at the start and into each snapshot. C is (I - aL)^-1 (I + aL)
    = 2 (I - aL)^-1 - I with a = dt/2: the solve takes the bands of
    (I - aL)/2, which returns 2 (I - aL)^-1 G exactly (a power-of-two
    scaling), and the step ends with one subtraction. G.T of a C-ordered
    row block is Fortran-ordered, as LAPACK stores it. Rows never mix, so
    any contiguous block of modes computes bit-identical results
    regardless of partitioning.
    """
    h = p_grid.count // 2
    # the inverse transform kernel is exp(-iKX), so d/dX acts as -iK on the
    # modes and the streaming phase rotates the opposite way
    v = velocity(p_grid.points[h:], Q)
    half = np.exp(0.5j * dt * np.outer(Ks, v))
    full = np.exp(1j * dt * np.outer(Ks, v))
    lower, diag, upper = _collision_bands(p_grid, Q)
    a = 0.5 * dt
    m = -0.5 * a * lower[h - 1]
    sub, mid, sup = -0.5 * a * lower[h:], 0.5 - 0.5 * a * diag[h:], -0.5 * a * upper[h:]
    mid[0] += m
    # the symmetric frame; sub and sup are negative, and so is off
    w = np.concatenate(([1.0], np.cumprod(np.sqrt(sub / sup))))
    off = -np.sqrt(sub * sup)
    e0 = np.zeros(h)
    e0[0] = 1.0
    z = tridiag_solve(off, mid, off, e0)
    gamma = 2.0 * m / (1.0 - 2.0 * m * z[0])
    z = gamma * z[: np.nonzero(np.abs(z) >= 1e-18 * abs(z[0]))[0][-1] + 1]

    snap_lookup = {s: i for i, s in enumerate(snap_steps)}
    hi = lo + F.shape[0]

    def snapshot(step, right, phase):
        snap = out[snap_lookup[step]][lo:hi]
        np.multiply(right, phase, out=snap[:, h:])
        np.conjugate(snap[:, h:][:, ::-1], out=snap[:, :h])

    if 0 in snap_lookup:
        snapshot(0, F[:, h:], 1.0)
    G = half * F[:, h:]
    G /= w
    half *= w
    for step in range(1, n_steps + 1):
        y = tridiag_solve(off, mid, off, G.T).T
        y.imag[:, :z.size] += y.imag[:, :1] * z
        G = np.subtract(y, G, out=y)
        if step in snap_lookup:
            snapshot(step, G, half)
        if step < n_steps:
            G *= full


def _doubling_error(F, Ks, p_grid, Q, dt, scale):
    """First-step error from step doubling, row i relative to scale[i], maximized."""
    shape = (1,) + F.shape
    coarse = np.empty(shape, dtype=complex)
    fine = np.empty(shape, dtype=complex)
    _evolve_block(F, Ks, p_grid, Q, dt, 1, [1], coarse, 0)
    _evolve_block(F, Ks, p_grid, Q, dt / 2.0, 2, [2], fine, 0)
    num = np.linalg.norm(coarse[0] - fine[0], axis=1)
    den = np.where(scale > 0.0, scale, 1.0)
    return float(np.max(num / den))


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
                t_final: float, dt: float, guard_tol: float = 0.05) -> np.ndarray:
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
    err = _doubling_error(F, Ks, p_grid, Q, dt, np.full(2, np.linalg.norm(f)))
    if err > guard_tol:
        raise StepSizeError(
            f"first-step doubling error {err:.3e} exceeds {guard_tol};"
            " reduce dt"
        )
    out = np.empty((1, 2, p_grid.count), dtype=complex)
    _evolve_block(F, Ks, p_grid, Q, dt, n_steps, [n_steps], out, 0)
    return out[0, 0] - 1j * out[0, 1]


def evolve_all(params: RoupParams, t_final: float, dt: float | None = None,
               output_times=None, threads: int = 1,
               initial: KineticState | None = None,
               guard_tol: float = 0.05) -> list[KineticState]:
    """Evolve every stored wavenumber, returning one state per output time.

    output_times must be integer multiples of dt (default: t_final only).
    threads > 1 splits the mode rows into contiguous blocks; results
    are identical for any thread count. Only the P > 0 half is marched, so
    an initial state whose symmetry_residual exceeds 1e-12 raises
    SymmetryError; the returned states are exactly symmetric.
    """
    if dt is None:
        dt = default_dt(t_final)
    n_steps = count_steps(t_final, dt)
    if output_times is None:
        output_times = [t_final]
    output_times = sorted(float(t) for t in output_times)
    snap_steps = []
    for t in output_times:
        s = count_steps(t, dt)
        if s > n_steps:
            raise ValueError(f"output time {t} lies beyond t_final = {t_final}")
        snap_steps.append(s)
    if len(set(snap_steps)) != len(snap_steps):
        raise ValueError("output times collide on the step grid")

    state0 = initial if initial is not None else initial_state(params)
    if state0.params != params:
        raise ValueError("initial state was built for different parameters")
    asym = symmetry_residual(state0)
    if asym > _SYMMETRY_TOL:
        raise SymmetryError(
            f"initial state breaks the momentum-flip symmetry at {asym:.3e}; "
            "only the P > 0 half is marched"
        )
    t0 = state0.time
    F = np.asarray(state0.modes, dtype=complex)  # (n_modes, n_p), never written
    Ks = params.mode_wavenumbers
    p_grid = params.p_grid

    err = _doubling_error(F, Ks, p_grid, params.Q, dt, np.linalg.norm(F, axis=1))
    if err > guard_tol:
        raise StepSizeError(
            f"first-step doubling error {err:.3e} exceeds {guard_tol}; reduce dt"
        )

    # one array per snapshot, so a kept state does not pin the others
    out = [np.empty((params.n_modes, params.n_p), dtype=complex) for _ in snap_steps]
    if threads <= 1:
        _evolve_block(F, Ks, p_grid, params.Q, dt, n_steps, snap_steps, out, 0)
    else:
        blocks = np.array_split(np.arange(params.n_modes), threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = []
            for block in blocks:
                if block.size == 0:
                    continue
                lo = int(block[0])
                hi = int(block[-1]) + 1
                futures.append(pool.submit(
                    _evolve_block, F[lo:hi], Ks[lo:hi], p_grid,
                    params.Q, dt, n_steps, snap_steps, out, lo))
            for fut in futures:
                fut.result()
    return [KineticState(params, t0 + s * dt, modes) for s, modes in zip(snap_steps, out)]


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


def _hermitian_extend(half: np.ndarray, n_x: int) -> np.ndarray:
    """Half-spectrum (j = 0..n_x/2) to full fft-order, forcing a real field."""
    full = np.zeros(n_x, dtype=complex)
    m = n_x // 2
    full[: m + 1] = half
    full[m] = half[m].real  # shared Nyquist bin must be self-conjugate
    full[m + 1:] = np.conj(half[1:m][::-1])
    return full


def reconstruct_density(state: KineticState, refine: int = 1,
                        check: bool = True) -> DensityProfile:
    """Integrate the modes over momentum and invert the spatial transform.

    refine > 1 zero-pads the spectrum onto a refine-times-finer ring, a
    pure trigonometric interpolation. With check on, violations of the
    momentum-flip symmetry or a non-real reconstruction raise SymmetryError.
    """
    params = state.params
    if refine < 1:
        raise ValueError("refine must be a positive integer")
    if check:
        res = symmetry_residual(state)
        if res > 1e-6:
            raise SymmetryError(
                f"momentum-flip symmetry violated at {res:.3e}; "
                "the evolution or the initial data is inconsistent"
            )
    p_grid = params.p_grid
    v = velocity(p_grid.points, params.Q)
    n_half = quad(state.modes, p_grid)
    j_half = quad(state.modes * v, p_grid)

    n_x = params.n_x * refine
    x_grid = Grid1D.periodic(params.length, n_x)
    full_n = _zero_pad(_hermitian_extend(n_half, params.n_x), n_x)
    full_j = _zero_pad(_hermitian_extend(j_half, params.n_x), n_x)
    density = dft_inverse(full_n, x_grid)
    current = dft_inverse(full_j, x_grid)
    if check:
        scale_n = np.max(np.abs(density))
        scale_j = max(np.max(np.abs(current)), 1e-300)
        if np.max(np.abs(density.imag)) > 1e-8 * scale_n:
            raise SymmetryError("reconstructed density is not real")
        if np.max(np.abs(current.imag)) > 1e-8 * scale_j + 1e-14 * scale_n:
            raise SymmetryError("reconstructed current is not real")
    return DensityProfile(x_grid, state.time, params.Q,
                          density.real.copy(), current.real.copy())


def _zero_pad(full: np.ndarray, n_fine: int) -> np.ndarray:
    n = full.size
    if n_fine == n:
        return full
    m = n // 2
    padded = np.zeros(n_fine, dtype=complex)
    padded[:m] = full[:m]
    # split the Nyquist bin symmetrically to keep the interpolant real
    padded[m] = 0.5 * full[m]
    padded[n_fine - m] = 0.5 * np.conj(full[m])
    padded[n_fine - m + 1:] = full[m + 1:]
    return padded


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
