"""Shared kernels: 1D grids, quadrature, the BlockedLDL solver, step counts, phases, fan-out.

Conventions used throughout the package:

* grids are uniform and store both endpoints explicitly,
* the forward transform is F_hat(K) = (2*pi)**-0.5 * integral F(X) exp(+i K X) dX,
  discretised on a periodic sample set, so the inverse carries exp(-i K X),
* reductions use numpy's pairwise summation, which is deterministic and
  independent of how work is dealt to processes higher up.

Everything here needs numpy alone: BlockedLDL, the package's one linear
solver, factors with an in-package L D L^T recurrence.
_cis (exp(i angle) from libm cos and sin) serves the Dirac step and the
kinetic phase tables, which tests pin within 2e-16 of np.exp; the walk's
coin takes a tan route instead (qwalk._cis_rows, within 4.0e-16).
_reuse serves the walk and Dirac steps.
run_parts is the package's one process fan-out, one forked child per
dealt part: it runs the (run, chunk) units of kinetic marches and,
through run_jobs, every study's output files and a convergence study's
walk and Dirac solves; no forked part forks again.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import select
import signal
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

__all__ = [
    "Grid1D",
    "quad",
    "cumquad",
    "BlockedLDL",
    "count_steps",
    "run_parts",
    "run_jobs",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid with inclusive endpoints.

    count >= 3 and upper > lower; spacing is derived, never stored.
    For periodic use the convention is that ``upper`` is the last sample,
    one spacing short of the wrap point, so the period is count * spacing.
    """

    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if self.count < 3:
            raise ValueError(f"grid needs at least 3 points, got {self.count}")
        if not self.upper > self.lower:
            raise ValueError("grid upper bound must exceed lower bound")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)

    @property
    def period(self) -> float:
        # wrap length when the grid is read as one period of a periodic set
        return self.count * self.spacing

    @classmethod
    def periodic(cls, length: float, count: int, center: float = 0.0) -> "Grid1D":
        """count samples of one period of length ``length`` centred on ``center``.

        The last sample sits one spacing below center + length/2 so that the
        sample set tiles the line without duplication.
        """
        step = length / count
        lower = center - length / 2.0
        return cls(lower, lower + (count - 1) * step, count)


def _check_length(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[-1] != grid.count:
        raise ValueError(
            f"data length {values.shape[-1]} does not match grid count {grid.count}"
        )
    return values


def quad(values, grid: Grid1D):
    """Integrate sampled data over the grid with the trapezoid rule.

    Its weights h/2, h, ..., h, h/2 are the cell volumes of the kinetic
    solver's finite-volume momentum grid, which keeps its mass exact.
    Works on the last axis, so stacked integrands are fine.
    """
    values = _check_length(values, grid)
    h = grid.spacing
    w = np.full(grid.count, h)
    w[0] = w[-1] = h / 2.0
    return np.sum(values * w, axis=-1)


def cumquad(values, grid: Grid1D, from_lower: bool = True) -> np.ndarray:
    """Cumulative trapezoid integral along the grid.

    from_lower=True:  out[i] = integral from grid.lower to x_i, out[0] = 0.
    from_lower=False: out[i] = integral from x_i to grid.upper, out[-1] = 0.
    """
    values = _check_length(values, grid)
    h = grid.spacing
    panels = 0.5 * h * (values[..., 1:] + values[..., :-1])
    out = np.zeros_like(values, dtype=panels.dtype)
    if from_lower:
        np.cumsum(panels, axis=-1, out=out[..., 1:])
    else:
        out[..., :-1] = np.cumsum(panels[..., ::-1], axis=-1)[..., ::-1]
    return out


_BLOCK = 16  # rows per diagonal block of BlockedLDL
_SLOTS = 2  # carry slots after each block in BlockedLDL's padded layout
_TILE = 4  # blocks per row tile of BlockedLDL's banded carry product

# terms below this are cut from BlockedLDL's edge-factor chains and carries:
# subnormals slow every product, and they could only matter against 1e150
# larger edges
_TINY = np.sqrt(np.finfo(float).tiny)

# BlockedLDL cuts the carry block pairs whose largest coefficient is below
# this times the largest carry: A^-1 decays exponentially away from its
# diagonal, so a narrow band is left, and each cut term is eps below one
# rounding of the largest coefficient's term
_CUT = np.finfo(float).eps ** 2


def _chain(f):
    """c[j, k] = prod f[k+1..j-1] for k < j, else 0, with terms below _TINY cut."""
    rank = np.arange(f.size)
    c = np.cumprod(np.where(rank[:, None] > rank, f[:, None], 1.0), axis=0)
    c = np.tril(np.roll(c, 1, axis=0), -1)
    c[np.abs(c) < _TINY] = 0.0
    return c


def _ldl_factor(diag, off):
    """d, e with A = L D L^T, D = diag(d) and e the subdiagonal of the unit L.

    The recurrence e_i <- e_i / d_i, d_{i+1} <- d_{i+1} - e_i e_i_old of
    LAPACK dpttrf, with its rounding, as a loop over Python floats; it runs
    once per factorization, so the loop costs little next to the solves.
    Raises SingularSystemError at the first pivot that is not positive,
    numbered from 1 like dpttrf's info.
    """
    d = np.asarray(diag, dtype=float).tolist()
    e = np.asarray(off, dtype=float).tolist()
    if len(d) < 1 or len(e) != len(d) - 1:
        raise ValueError("need n >= 1 diagonal entries and n - 1 off-diagonal ones")
    for i, ei in enumerate(e):
        if not d[i] > 0.0:
            break
        e[i] = ei / d[i]
        d[i + 1] -= e[i] * ei
    else:
        i = len(e)
    if not d[i] > 0.0:
        raise SingularSystemError(
            f"pivot {i + 1} is not positive: the matrix is not positive definite")
    return np.array(d), np.array(e)


class BlockedLDL:
    """A real symmetric positive-definite tridiagonal A = L D L^T, factored for many steps.

    diag has length n and off, the sub- and superdiagonal, n - 1. After
    _ldl_factor the system is padded with identity rows to ``rows``, a
    multiple of 16, and cut into 16-row blocks:
    x_j = M_j (b_j - e s e_0 - g r e_15), with M_j the explicit inverse of
    (L D L^T)_jj, e and g the couplings of L and D L^T across the block
    edges, s the last entry of L^-1 b in block j - 1 and r the first of x
    in block j + 1. Both carries are linear in two edge rows of every
    block, (L_jj^-1 b_j)[15] and (M_j b_j)[0], through precomposed
    products of edge factors. Like A^-1 these decay exponentially away
    from the diagonal, so only the block pairs at most B apart are kept
    (see _CUT), packed as row tiles of S = _TILE blocks: tile t maps the
    edge pairs of blocks tS - B .. tS + S - 1 + B to the slots of blocks
    tS .. tS + S - 1. Where tiles would not halve the stored coefficients,
    one tile holds all of them (S = nb, B = 0).

    Vectors live in the padded block layout of shape ``shape`` = (nb, 18):
    each block's 16 rows, then two carry slots for -e s and -g r (see
    pad). A step takes (A^-1 - I) b, the Crank-Nicolson step when A is
    half the implicit matrix, in three matrix products and with no loop
    over rows or blocks: the edge rows, the carries of every tile in one
    batched product, and the augmented
    [M_j - I | M_j e_0 | M_j e_15] on each padded block, which adds the
    carries and subtracts b on the way. Raises SingularSystemError unless
    every pivot is positive.
    """

    def __init__(self, diag, off):
        d, e = _ldl_factor(diag, off)
        self.n = d.size
        nb = -(-d.size // _BLOCK)
        self.rows = nb * _BLOCK
        self.shape = (nb, _BLOCK + _SLOTS)
        d = np.concatenate((d, np.ones(self.rows - d.size))).reshape(nb, _BLOCK)
        # e[j, 15] couples block j to block j + 1, and is zero after the last real row
        e = np.concatenate((e, np.zeros(self.rows - e.size))).reshape(nb, _BLOCK)
        # L_jj^-1 row by row, then (D L^T)_jj^-1 = L_jj^-T D_jj^-1
        l_inv = np.tile(np.eye(_BLOCK), (nb, 1, 1))
        for i in range(1, _BLOCK):
            l_inv[:, i, :i] = -e[:, i - 1, None] * l_inv[:, i - 1, :i]
        u_inv = np.swapaxes(l_inv, 1, 2) / d[:, None, :]
        inv = u_inv @ l_inv
        # s chains from c = (L_jj^-1 b_j)[15], s_j = c_j - e s_{j-1} l_inv[15, 0];
        # r from u = (M_j b_j)[0] - M_j[0, 0] e s_{j-1}, r_j = u_j - g r_{j+1} u_inv[0, 15]
        self._edges = np.stack((l_inv[:, -1], inv[:, 0]), axis=1)
        e_in = np.concatenate(([0.0], e[:-1, -1]))
        g_out = d[:, -1] * e[:, -1]
        s_in = -e_in[:, None] * _chain(-e_in * l_inv[:, -1, 0])
        r_in = -g_out[:, None] * _chain(-g_out[::-1] * u_inv[::-1, 0, -1])[::-1, ::-1]
        # slot pair j is (S c)_j and (R (u + M[0, 0] S c))_j, edge pair j' is (c, u)_j'
        carries = np.zeros((nb, _SLOTS, nb, 2))
        carries[:, 0, :, 0] = s_in
        carries[:, 1, :, 0] = r_in @ (inv[:, 0, :1] * s_in)
        carries[:, 1, :, 1] = r_in
        carries[np.abs(carries) < _TINY] = 0.0
        # cut the far block pairs, then pack the band: tile t's rows are the
        # slot pairs of blocks tS + i, its columns the edge pairs of blocks
        # tS - B + i', a window of W = S + 2B blocks
        size = np.abs(carries).max(axis=(1, 3))
        kept = size >= _CUT * size.max()
        carries *= kept[:, None, :, None]
        rows, cols = np.nonzero(kept)
        band, tile = int(np.abs(rows - cols).max()), _TILE
        tiles = -(-nb // tile)
        if 2 * tiles * tile * (tile + 2 * band) > nb * nb:
            band, tile, tiles = 0, nb, 1  # tiles would not halve the matrix
        self._band, self._tile = band, tile
        padded = np.zeros((tiles * tile, _SLOTS, tiles * tile + 2 * band, 2))
        padded[:nb, :, band:band + nb] = carries
        first = tile * np.arange(tiles)[:, None]
        rows, cols = first + np.arange(tile), first + np.arange(tile + 2 * band)
        self._tiles = padded[rows[:, :, None], :, cols[:, None, :]].transpose(
            0, 1, 3, 2, 4).reshape(tiles, _SLOTS * tile, -1)
        self._step = np.concatenate((inv - np.eye(_BLOCK), inv[:, :, ::_BLOCK - 1]), axis=2)

    def pad(self, values):
        """Rows (at most n, ...) as a new array in the padded layout, zero in slots and below."""
        values = np.asarray(values)
        rows = np.zeros((self.rows,) + values.shape[1:], dtype=values.dtype)
        rows[:len(values)] = values
        out = np.zeros(self.shape + values.shape[1:], dtype=values.dtype)
        out[:, :_BLOCK] = rows.reshape((-1, _BLOCK) + values.shape[1:])
        return out

    def unpad(self, padded):
        """The n real rows of a padded array, as a new (n, ...) array."""
        return padded[:, :_BLOCK].reshape((self.rows,) + padded.shape[2:])[:self.n]

    def stepper(self, cols):
        """step(b, out): out = (A^-1 - I) b for real (nb, 18, cols) arrays in the padded layout.

        b has zero padding rows. The step writes the carry slots of b (its
        rows are kept) and every row of out, but not out's slots.
        """
        nb, band, tile = self.shape[0], self._band, self._tile
        tiles, _, width = self._tiles.shape
        # edge pairs of blocks -B .. tiles S + B - 1, zero but for blocks 0 .. nb - 1,
        # and tile t's window of them, starting at block tS - B, as a view
        edges = np.zeros((tiles * tile + 2 * band, 2, cols))
        windows = np.lib.stride_tricks.as_strided(
            edges, (tiles, width, cols), (tile * edges.strides[0],) + edges.strides[1:],
            writeable=False)
        carries = np.empty((tiles, _SLOTS * tile, cols))
        written, slots = edges[band:band + nb], carries.reshape(-1, _SLOTS, cols)[:nb]

        def step(b, out):
            np.matmul(self._edges, b[:, :_BLOCK], out=written)
            # contiguous products and a small copy beat a product broadcast
            # over blocks straight into the strided slots
            np.matmul(self._tiles, windows, out=carries)
            b[:, _BLOCK:] = slots
            np.matmul(self._step, b, out=out[:, :_BLOCK])

        return step


def count_steps(t_final: float, dt: float) -> int:
    """Number of steps of size dt that reach t_final exactly.

    Raises ValueError unless dt > 0, t_final >= 0 and t_final / dt is an
    integer to within 1e-9 of a step.
    """
    if dt <= 0.0 or t_final < 0.0:
        raise ValueError("need dt > 0 and t_final >= 0")
    n = t_final / dt
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"t_final = {t_final} is not an integer number of steps of {dt}")
    return int(round(n))


def _cis(angle):
    """exp(i*angle) as one complex array: cos into .real, sin into .imag."""
    angle = np.asarray(angle, dtype=float)
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _reuse(cache, build, *args):
    """build(*args), or the value ``cache`` keeps from a call whose args had the same bits.

    cache is a dict kept across calls (None builds every time). Keys are
    the bits, not the values, of the args as float arrays: 0.0 and -0.0
    are different keys, since their sines differ.
    """
    if cache is None:
        return build(*args)
    key = [(a.shape, a.tobytes()) for a in (np.asarray(a, dtype=float) for a in args)]
    if cache.get("key") != key:
        cache["key"], cache["value"] = key, build(*args)
    return cache["value"]


def _cores() -> int:
    """Cores this process may run on: its CPU affinity, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def shared_zeros(shape, dtype=float) -> np.ndarray:
    """A zero array in anonymous shared memory: forked children write straight into it."""
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize),
                         dtype).reshape(shape)


def _deal(costs, size: int) -> list[list[int]]:
    """Job indices of size parts: costliest first, each to the least-loaded part."""
    parts, loads = [[] for _ in range(size)], [0] * size
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        least = loads.index(min(loads))
        parts[least].append(i)
        loads[least] += costs[i]
    return parts


def _reply(file):
    """The (ok, results or exception) a part pickled to file, or None if it is cut short."""
    with file, contextlib.suppress(EOFError, pickle.UnpicklingError):
        file.seek(0)
        return pickle.load(file)


def run_parts(fn, jobs: list, workers: int, costs) -> list:
    """The results of jobs, in job order, where fn(part) gives those of one part's jobs.

    The jobs are dealt costliest first by costs, each to the least-loaded
    of min(workers, len(jobs), usable cores) parts; fn gets a part's jobs
    in dealing order. With one part, or without os.fork, fn(jobs) runs
    here. Otherwise each part is a forked child that pickles its results,
    or its exception, to its own unlinked temporary file: a reply is one
    whole pickle or none. A child forks nothing, so its pipe ends when it
    does. After the first error this process waits at most 0.1 s for the
    parts numbered below it, SIGKILLs and reaps the rest, takes any whole
    reply they wrote, and raises the lowest-numbered failed part's error
    with its type. Children may also write to shared_zeros arrays.
    """
    size = min(workers, _cores(), len(jobs)) if hasattr(os, "fork") else 1
    if size <= 1:
        return fn(jobs)
    parts = _deal(costs, size)
    ends, done, failed = {}, {}, {}
    poller = select.poll()
    try:
        for part, indices in enumerate(parts):
            file = tempfile.TemporaryFile()
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    try:
                        reply = pickle.dumps((True, fn([jobs[i] for i in indices])))
                    except BaseException as exc:
                        reply = pickle.dumps((False, exc))
                    file.write(reply)
                    file.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            ends[read] = part, pid, file
            poller.register(read, select.POLLIN)
        # after the first error, parts below the lowest failed one get
        # 0.1 s to end, so parts that fail together raise in order
        deadline = wait = None
        while any(part < min(failed, default=size) for part, _, _ in ends.values()):
            if failed:
                deadline = deadline or time.monotonic() + 0.1
                if (wait := deadline - time.monotonic()) <= 0.0:
                    break
            for fd, _ in poller.poll(None if wait is None else 1000.0 * wait):
                poller.unregister(fd)
                os.close(fd)
                part, pid, file = ends.pop(fd)
                status = os.waitpid(pid, 0)[1]
                ok, value = _reply(file) or (False, ChildProcessError(
                    f"a forked part ended with wait status {status}"))
                (done if ok else failed)[part] = value
    finally:
        # a part killed after its whole reply was written may have failed first
        for fd, (part, pid, file) in ends.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
            if (whole := _reply(file)) and not whole[0]:
                failed[part] = whole[1]
    if failed:
        raise failed[min(failed)]
    results = {i: result for part, out in done.items() for i, result in zip(parts[part], out)}
    return [results[i] for i in range(len(jobs))]


def run_jobs(fn, jobs: list, workers: int, costs) -> list:
    """[fn(*job) for job in jobs], dealt to parts by run_parts: a study's files, or its solves."""
    return run_parts(lambda part: [fn(*job) for job in part], jobs, workers, costs)
