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
so a step is one phase multiply and one Crank-Nicolson step of a
symmetric positive-definite tridiagonal factored as L D L^T (three matrix
products on a padded block layout, the middle one over a band of block
carries, see kernels.BlockedLDL), over fixed chunks of modes stored
momentum-major, each building its phase tables once, from cos and sin.
The (run, chunk) units of one run or of many are dealt in one fan-out
to forked parts (_march_units); chunks never mix, so results are bitwise
those of a one-process march.

Real, P-even initial data makes every mode obey the momentum-flip symmetry
F(K, -P) = conj F(K, P), and both the phase and the collision step keep it,
so the marcher keeps only the P > 0 half (see _Strang). Snapshots are
full (n_modes, n_p) states like :class:`KineticState`, their P < 0 half
written as the mirror image, so they are symmetric exactly. A Run holds
every input of one march. march(run) returns its states; march_runs
returns the density profiles of many runs, from two momentum integrals
per mode and output time that each chunk reduces its rows to.

Memory: a march holds its snapshots plus O(_CHUNK_CELLS) scratch per
process, and march_runs holds no snapshot, only each run's integrals. The
initial rows are built one chunk at a time, and the step guard and the
march work chunk by chunk, so nothing else of full grid size is
allocated; symmetry_residual and reconstruct_density read a state in
row blocks of _CHUNK_CELLS cells.

The Juttner normalization is a trapezoid rule in rapidity (see
juttner_normalization) rather than a Bessel function, so like the
marcher the module needs numpy alone.

Initial data throughout is a spatial delta times the Juttner equilibrium,
so the reconstructed density is the transition-density profile whose front
and metric the companion module :mod:`relwalk.fick` analyzes; its density
and current come back from the K >= 0 modes through one np.fft.hfft.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _io, kernels
from .errors import StepSizeError, SymmetryError, TailTruncationError
from .kernels import _BLOCK, BlockedLDL, Grid1D, _cis, count_steps, quad, shared_zeros
# not called here: perfbench/tracing.py swaps this binding to time the solve,
# so it stays until the tracer counts steps inside the marcher
from .kernels import tridiag_solve  # noqa: F401

__all__ = [
    "DensityProfile",
    "KineticState",
    "Run",
    "continuity_residual",
    "default_dt",
    "gamma_factor",
    "juttner",
    "juttner_normalization",
    "march",
    "march_runs",
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

# cells per marched chunk, the unit a march deals to its processes: it stays
# in L2, its products too small for BLAS threads
_CHUNK_CELLS = 16384

# trapezoid nodes of the rapidity integral in juttner_normalization
_RAPIDITY_NODES = 257

# equilibrium exponent at the momentum cutoff of every Run
_TAIL = 32.0

# largest first-step doubling error, relative to each row's norm, that the
# step-size guard of march accepts
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


def default_dt(t_final: float) -> float:
    """The step that reaches t_final in 2000 steps."""
    return t_final / 2000


@dataclass(frozen=True)
class Run:
    """The initial state marched to t_final in steps of dt, read at each of times at ``refine``.

    Momentum lives on a symmetric endpoint grid cut at the equilibrium
    exponent _TAIL, space on a periodic ring centered at the source. n_p
    is even so the grid mirrors about a face at P = 0, which the P > 0
    marcher uses. Every input is checked here: no Run is invalid.
    """

    Q: float
    t_final: float
    dt: float
    times: tuple  # output times
    n_x: int = 512
    n_p: int = 2048
    refine: int = 8

    def __post_init__(self):
        if self.Q <= 0.0:
            raise ValueError("Q must be positive")
        if self.n_p % 2 != 0 or self.n_p < 8:
            raise ValueError("n_p must be even and at least 8")
        if self.n_x % 2 != 0 or self.n_x < 8:
            raise ValueError("n_x must be even and at least 8")
        if self.t_final <= 0.0:
            raise ValueError("t_final must be positive")
        if self.refine < 1:
            raise ValueError("refine must be a positive integer")
        n_steps, steps = count_steps(self.t_final, self.dt), self.snap_steps
        if steps and steps[-1] > n_steps:
            raise ValueError(f"output time {max(self.times)} lies beyond t_final = {self.t_final}")
        if len(set(steps)) != len(steps):
            raise ValueError("output times collide on the step grid")
        # the cutoff collapses to 0 once _TAIL / Q^2 falls below rounding
        tail = self.Q * self.Q * (gamma_factor(self.p_max, self.Q) - 1.0)
        if not tail >= _MIN_TAIL:
            raise TailTruncationError(f"momentum cutoff keeps only exp(-{tail:.2f}) tails; "
                                      f"need the equilibrium exponent at p_max above {_MIN_TAIL}")

    @property
    def snap_steps(self) -> list[int]:
        """Step counts of the output times, ascending."""
        return sorted(count_steps(t, self.dt) for t in self.times)

    @property
    def p_max(self) -> float:
        return self.Q * np.sqrt((1.0 + _TAIL / (self.Q * self.Q)) ** 2 - 1.0)

    @property
    def length(self) -> float:
        # speeds stay below Q, so three light-cone radii leave at least
        # Q*t_final of empty ring between the cone and its periodic image
        return 3.0 * max(self.Q, 1.0) * self.t_final

    @property
    def p_grid(self) -> Grid1D:
        return Grid1D(-self.p_max, self.p_max, self.n_p)

    @property
    def n_modes(self) -> int:
        return self.n_x // 2 + 1

    @property
    def mode_wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_modes) / self.length


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
    y = np.diff(u) / 2.0  # half the potential increment across each face
    s = np.divide(y, np.sinh(y), out=np.ones_like(y), where=y != 0.0)
    alpha = s * np.exp(y) / dp  # flux weight on the upper node
    beta = s * np.exp(-y) / dp  # flux weight on the lower node
    vol = np.full(n, dp)
    vol[0] = vol[-1] = dp / 2.0
    # each cell's outflow; the two outer faces carry none
    outflow = np.concatenate((beta, [0.0])) + np.concatenate(([0.0], alpha))
    return beta / vol[1:], -outflow / vol, alpha / vol[:-1]


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive slices of rows, each of at most _CHUNK_CELLS cells (one row at least)."""
    size = max(1, _CHUNK_CELLS // n_cols)
    return [slice(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)]


class _Strang:
    """Strang steps of size dt on one momentum grid, factored once for every chunk.

    Only the P > 0 half G = F[:, n_p/2:] of mode rows F is marched: rows
    must obey the momentum-flip symmetry F(K, -P) = conj F(K, P), which
    the step preserves, and each snapshot gets its P < 0 half written as
    conj(G[:, ::-1]), so outputs are exactly symmetric. n_p is even, so
    the grid mirrors about the face at P = 0 and the node just below it
    holds conj(G[:, 0]). Folding that neighbour into row 0 of the P > 0
    block of the collision matrix is a reflection: even (diagonal plus
    the dropped coupling m) for the real part, odd (diagonal minus m) for
    the imaginary part. One step takes the even matrix, and a
    Sherman-Morrison rank-1 update x.imag += gamma x.imag[0] z, with
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
    the opening rows and multiplies each snapshot. Since w_0 = 1, e_0, m
    and gamma carry over, and the rank-1 update uses z = S^-1 e_0, one
    more step with the same factorization.

    Strang steps H C H, with H the exact half phase exp(i dt v K / 2) and C
    the Crank-Nicolson collision step, chain as H C P C P ... C H with the
    full phase P = exp(i dt v K) between solves; half phases are applied
    only at the start and into each snapshot. C is (I - aL)^-1 (I + aL)
    = 2 (I - aL)^-1 - I with a = dt/2: BlockedLDL factors the bands of
    (I - aL)/2, so its step (A^-1 - I) G is C G, with no subtraction
    pass, and the rank-1 update reads x.imag[0] as y.imag[0] + G.imag[0].
    """

    def __init__(self, p_grid: Grid1D, Q: float, dt: float):
        self.p_grid, self.Q, self.dt = p_grid, Q, dt
        self.h = h = p_grid.count // 2
        lower, diag, upper = _collision_bands(p_grid, Q)
        a = 0.5 * dt
        m = -0.5 * a * lower[h - 1]
        sub, mid, sup = -0.5 * a * lower[h:], 0.5 - 0.5 * a * diag[h:], -0.5 * a * upper[h:]
        mid[0] += m
        # the symmetric frame; sub and sup are negative, and so is off
        self.w = np.concatenate(([1.0], np.cumprod(np.sqrt(sub / sup))))[:, None]
        off = -np.sqrt(sub * sup)
        self.ldl = ldl = BlockedLDL(mid, off)
        e0 = ldl.pad(np.eye(h, 1))
        z = np.zeros_like(e0)
        ldl.stepper(1)(e0, z)
        z = ldl.unpad(z)[:, 0]
        z[0] += 1.0
        gamma = 2.0 * m / (1.0 - 2.0 * m * z[0])
        keep = np.nonzero(np.abs(z) >= 1e-18 * abs(z[0]))[0][-1] + 1
        self.z = ldl.pad(gamma * z[:keep, None])[:-(-keep // _BLOCK)]
        # the inverse transform kernel is exp(-iKX), so d/dX acts as -iK on the
        # modes and the streaming phase rotates the opposite way
        self.v = ldl.pad(velocity(p_grid.points[h:], Q)[:, None])

    def phase(self, Ks, fraction):
        """exp(i fraction dt v K) for wavenumbers Ks, in the padded layout (1 in the slots).

        _cis gives np.exp(1j * fraction * dt * np.outer(v, Ks)) (bit for
        bit with numpy 2.4 on x86-64 Linux) without its complex temporaries.
        A chunk's tables are built for it alone and never cached: a cache
        would hold tables for every chunk.
        """
        return _cis(self.v * Ks * (fraction * self.dt))

    def march(self, rows, Ks, n_steps, snap_steps, out, half, full):
        """March mode rows (k, n_p) at wavenumbers Ks n_steps, snapshot i into out[i].

        half and full are phase(Ks, 0.5) and phase(Ks, 1.0), only read;
        full is used between steps, so a one-step march may pass None.
        The P > 0 half G.T is stored momentum-major in the solver's padded
        layout, (nb, 18, k) complex with zero padding rows, so its float
        view is the (nb, 18, 2k) real right-hand side of the real matrix.
        """
        h, w, z = self.h, self.w, self.z
        k = Ks.size
        step = self.ldl.stepper(2 * k)
        snap_lookup = {s: i for i, s in enumerate(snap_steps)}
        G, y = np.zeros((2,) + half.shape, dtype=complex)
        # float views of the work arrays and the rank-1 update's scratch,
        # taken once; the views swap with the arrays they view
        G_f, y_f = G.view(float), y.view(float)
        nz = len(z)
        x0, dy = np.empty(k), np.empty((nz,) + half.shape[1:])

        def staged(free):
            # the memory of the work array not in use, as momentum-major
            # rows (ldl.rows, k) and as their (nb, 16, k) blocks
            flat = free.reshape(-1)[:self.ldl.rows * k]
            return flat.reshape(-1, k), flat.reshape(-1, _BLOCK, k)

        def snapshot(s, right):
            snap = out[snap_lookup[s]]
            np.copyto(snap[:, h:].T, right)
            np.conjugate(snap[:, h:][:, ::-1], out=snap[:, :h])

        if 0 in snap_lookup:
            snapshot(0, rows[:, h:].T)
        stage, blocks = staged(y)
        np.divide(rows[:, h:].T, w, out=stage[:h])
        stage[h:] = 0.0
        np.multiply(half[:, :_BLOCK], blocks, out=G[:, :_BLOCK])
        for s in range(1, n_steps + 1):
            step(G_f, y_f)
            np.add(y[0, 0].imag, G[0, 0].imag, out=x0)
            np.multiply(z, x0, out=dy)
            y[:nz].imag += dy
            G, y, G_f, y_f = y, G, y_f, G_f
            if s in snap_lookup:
                stage, blocks = staged(y)
                np.multiply(G[:, :_BLOCK], half[:, :_BLOCK], out=blocks)
                stage[:h] *= w
                snapshot(s, stage[:h])
            if s < n_steps:
                G *= full


def _step_error(chunk, K, strang, fine) -> float:
    """The largest first-step doubling error of chunk's rows at wavenumbers K.

    strang's one step against two steps of fine, which is half its size,
    each row's error against its own norm. A march reads its rows before
    its first step, so the two half steps overwrite chunk. It builds two
    phase tables: the half step's full phase is strang's half phase, bit
    for bit, and the one step needs no full phase.
    """
    norm = np.linalg.norm(chunk, axis=1)
    coarse = np.empty((1,) + chunk.shape, dtype=complex)
    half = strang.phase(K, 0.5)
    strang.march(chunk, K, 1, [1], coarse, half, None)
    fine.march(chunk, K, 2, [2], chunk[None], fine.phase(K, 0.5), half)
    num = np.linalg.norm(np.subtract(coarse[0], chunk, out=coarse[0]), axis=1)
    return float(np.max(num / np.where(norm > 0.0, norm, 1.0)))


def _check_step(errors) -> None:
    """StepSizeError when the largest of the chunks' doubling errors exceeds _GUARD_TOL."""
    if (err := max(errors, default=0.0)) > _GUARD_TOL:
        raise StepSizeError(
            f"first-step doubling error {err:.3e} exceeds {_GUARD_TOL}; reduce dt")


def _chunks(run: Run) -> list[slice]:
    """The chunks of run's modes to march: _row_blocks of the P > 0 half.

    A chunk of the empty Nyquist row alone (see _initial_rows) is left
    out: a linear step keeps zero rows zero. Chunks never mix, so leaving
    it out changes no other row.
    """
    return [block for block in _row_blocks(run.n_modes, run.n_p // 2)
            if block.start < run.n_modes - 1]


def _march_units(runs, workers: int, outs=None) -> list:
    """((run index, chunk), result) of every chunk of every run, marched in one fan-out.

    kernels.run_parts deals the (run, chunk) units, each costing its steps
    times its cells, to min(workers, usable cores, units) parts. A part
    sets up each run it holds (its _initial_rows and _Strang), checks the
    step on all its units (_check_step), and only then marches them; the
    guard and the march each build a unit's initial rows afresh, and its
    two phase tables. With outs, one list of snapshots per run
    (shared_zeros arrays, which forked parts write), a unit marches into
    its rows of them and gives None; without, it marches into chunk-sized
    scratch and gives the _integrals of its rows at each output time, a
    (times, 2, rows) array.
    """
    units = [(i, block) for i, run in enumerate(runs) for block in _chunks(run)]
    steps = [count_steps(run.t_final, run.dt) for run in runs]

    def part(units):
        held = dict.fromkeys(i for i, _ in units)
        rows = {i: _initial_rows(runs[i]) for i in held}
        strang = {i: _Strang(runs[i].p_grid, runs[i].Q, runs[i].dt) for i in held}
        fine = {i: _Strang(runs[i].p_grid, runs[i].Q, 0.5 * runs[i].dt) for i in held}
        _check_step([_step_error(rows[i](block), runs[i].mode_wavenumbers[block],
                                 strang[i], fine[i]) for i, block in units])
        return [march_unit(i, block, rows[i], strang[i]) for i, block in units]

    def march_unit(i, block, rows, strang):
        run, chunk, K = runs[i], rows(block), runs[i].mode_wavenumbers[block]
        out = ([snap[block] for snap in outs[i]] if outs else
               np.empty((len(run.times),) + chunk.shape, dtype=complex))
        strang.march(chunk, K, steps[i], run.snap_steps, out,
                     strang.phase(K, 0.5), strang.phase(K, 1.0))
        return None if outs else np.array([_integrals(snap, run) for snap in out])

    costs = [steps[i] * (block.stop - block.start) * runs[i].n_p for i, block in units]
    return list(zip(units, kernels.run_parts(part, units, workers, costs)))


@dataclass
class KineticState:
    """Fourier modes F̂(K_j, P) of a run at one time; rows follow run.mode_wavenumbers."""

    run: Run
    time: float
    modes: np.ndarray  # (n_modes, n_p) complex


def _initial_rows(run: Run):
    """rows(block): the initial modes of run in a slice, built on demand.

    A spatial delta at the origin times the Juttner equilibrium, band
    limited strictly below the ring's Nyquist bin. That bin can hold an
    even wave but not its odd flux partner (sin(K X) is zero on the
    lattice), so populating it would break the continuity pairing; leaving
    it empty costs one part in n_x of the comb height.
    """
    row = juttner(run.p_grid.points, run.Q) / np.sqrt(2.0 * np.pi)
    nyquist = run.n_modes - 1

    def rows(block):
        lo, hi, _ = block.indices(run.n_modes)
        out = np.empty((hi - lo, run.n_p), dtype=complex)
        out[:] = row
        out[nyquist - lo:] = 0.0
        return out

    return rows


def march(run: Run) -> list[KineticState]:
    """One exactly symmetric state per output time of run, in ascending time.

    The states are shared_zeros arrays, which the march's chunks are
    marched into by _march_units on every usable core, at most one
    process per chunk to march, each with O(_CHUNK_CELLS) scratch. With
    one process it runs here; with more, this process holds only the
    snapshots, and an error in a forked part is raised here with its type.
    Each part checks the step on all its chunks first, so a dt too coarse
    raises StepSizeError before that part marches. The kinetic studies
    call march_runs, which returns profiles and holds no state.
    """
    # one array per snapshot, so a kept state does not pin the others
    out = [shared_zeros((run.n_modes, run.n_p), dtype=complex) for _ in run.snap_steps]
    _march_units([run], kernels._cores(), [out])
    return [KineticState(run, s * run.dt, m) for s, m in zip(run.snap_steps, out)]


def symmetry_residual(state: KineticState) -> float:
    """Largest violation of Fhat(K, -P) = conj(Fhat(K, P)) across modes.

    The initial data is real and even in P and the evolution preserves the
    combined flip, so growth here flags an operator bug rather than noise.
    Mode norms are floored at the global maximum times 1e-3 to keep empty
    modes from dominating the ratio.
    """
    modes = state.modes
    diff, norms = np.empty((2, modes.shape[0]))
    for block in _row_blocks(*modes.shape):
        rows = modes[block]
        diff[block] = np.linalg.norm(rows[:, ::-1] - np.conj(rows), axis=1)
        norms[block] = np.linalg.norm(rows, axis=1)
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

    The K >= 0 integrals of N and J go through _profile onto a
    refine-times-finer ring. SymmetryError flags a broken momentum-flip
    symmetry, or N or J measurably not real.
    """
    run = state.run
    res = symmetry_residual(state)
    if res > 1e-6:
        raise SymmetryError(
            f"momentum-flip symmetry violated at {res:.3e}; "
            "the evolution or the initial data is inconsistent"
        )
    half = np.empty((2, run.n_modes), dtype=complex)
    for block in _row_blocks(run.n_modes, run.n_p):
        half[:, block] = _integrals(state.modes[block], run)
    return _profile(run, state.time, half, refine)


def _integrals(rows, run: Run):
    """quad(rows) and quad(rows v): the density and current integrals of run's mode rows."""
    return quad(rows, run.p_grid), quad(rows * velocity(run.p_grid.points, run.Q), run.p_grid)


def _profile(run: Run, time: float, half, refine: int) -> DensityProfile:
    """The density and current at time from their K >= 0 momentum integrals half, (2, n_modes).

    half, overwritten here, twisted by exp(-i K X_lower), is a half
    spectrum: one np.fft.hfft extends it Hermitian, zero-pads it onto a
    refine-times-finer ring (trigonometric interpolation, the last bin
    halved between its two images) and inverts it. SymmetryError flags an
    imaginary K = 0 integral (which hfft drops) large enough to make N or
    J measurably not real.
    """
    if refine < 1:
        raise ValueError("refine must be a positive integer")
    x_grid = Grid1D.periodic(run.length, run.n_x * refine)
    half *= np.exp(-1j * run.mode_wavenumbers * x_grid.lower)
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
    return DensityProfile(x_grid, time, run.Q, density, current)


def march_runs(runs, workers: int) -> list[dict]:
    """{t: DensityProfile} of each run, at its refine; the march of every kinetic study.

    Every chunk of every run marches in one fan-out on up to ``workers``
    processes (_march_units). A chunk returns its two momentum integrals
    per mode and output time, never its states; this process puts them
    into each run's half spectrum and inverts it, bitwise as
    reconstruct_density(state, run.refine) of march(run). The keys of each
    dict are run.times in ascending order.
    """
    halves = [np.zeros((len(run.times), 2, run.n_modes), dtype=complex) for run in runs]
    for (i, block), moments in _march_units(runs, workers):
        halves[i][:, :, block] = moments
    return [{t: _profile(run, t, half, run.refine) for t, half in zip(sorted(run.times), spectra)}
            for run, spectra in zip(runs, halves)]


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


# ---------------------------------------------------------- benchmark seams
# perfbench's workloads and tracer bind these names (tests/test_bench_seams.py
# pins them); nothing in the package calls them.

class RoupParams:
    """Only its constructor is left, building the Run of t_final."""

    @staticmethod
    def standard(Q: float, t_final: float, n_x: int = 512, n_p: int = 2048) -> Run:
        return Run(Q, t_final, default_dt(t_final), (t_final,), n_x, n_p)


def initial_state(run: Run) -> KineticState:
    """The rows march(run) starts from, as one state at T = 0."""
    return KineticState(run, 0.0, _initial_rows(run)(slice(0, run.n_modes)))


def evolve_all(params: Run, t_final: float, dt: float | None = None,
               output_times=None, threads: int = 1) -> list[KineticState]:
    """march(params) at dt and output_times (default: default_dt(t_final), t_final).

    t_final must be the run's own, which sets its ring; threads, at least 1, is unused.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if t_final != params.t_final:
        raise ValueError(f"t_final = {t_final} is not the run's t_final = {params.t_final}")
    return march(replace(params, dt=default_dt(t_final) if dt is None else dt,
                         times=(t_final,) if output_times is None else tuple(output_times)))
