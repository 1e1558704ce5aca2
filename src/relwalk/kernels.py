"""Shared kernels: 1D grids, quadrature, tridiagonal solves, step counts, process fan-out.

Conventions used throughout the package:

* grids are uniform and store both endpoints explicitly,
* the forward transform is F_hat(K) = (2*pi)**-0.5 * integral F(X) exp(+i K X) dX,
  discretised on a periodic sample set, so the inverse carries exp(-i K X),
* reductions use numpy's pairwise summation, which is deterministic and
  independent of how work is dealt to processes higher up.

Everything here needs numpy alone. BlockedLDL factors with an in-package
L D L^T recurrence; only the general tridiag_solve calls LAPACK, and it
imports scipy on its first call, so importing the package loads no scipy.
fork_each is the package's one process fan-out: of runs and of a
kinetic study's CSV files (both through run_jobs), and of the chunks of
one march.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import pickle
import select
import signal
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

__all__ = [
    "Grid1D",
    "quad",
    "cumquad",
    "tridiag_solve",
    "BlockedLDL",
    "count_steps",
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
    def symmetric(cls, half_width: float, count: int) -> "Grid1D":
        """Grid on [-half_width, half_width] inclusive."""
        return cls(-half_width, half_width, count)

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


def tridiag_solve(sub, diag, sup, rhs) -> np.ndarray:
    """Solve a tridiagonal system A x = rhs.

    sub and sup have length n-1; rhs may be (n,) or (n, k) for many
    right-hand sides sharing one matrix, and is never overwritten.
    A is factored with partial pivoting by LAPACK ?gttrf and solved by
    ?gttrs on a copy of rhs; scipy.linalg.lapack is imported on the first
    call, so only callers of this function load it. A Fortran-ordered rhs
    (the transpose of a C-ordered (k, n) stack) is copied without a
    transpose. Each column is solved independently, so the result does not
    depend on how the columns are blocked. Raises SingularSystemError on a
    zero pivot. Many Crank-Nicolson steps with one symmetric
    positive-definite A are cheaper through BlockedLDL.
    """
    sub, diag, sup, rhs = map(np.asarray, (sub, diag, sup, rhs))
    n = diag.shape[0]
    if sub.shape[0] != n - 1 or sup.shape[0] != n - 1:
        raise ValueError("off-diagonals must have length n - 1")
    if rhs.shape[0] != n:
        raise ValueError("right-hand side length does not match the matrix")
    import scipy.linalg.lapack

    dtype = np.result_type(diag, sub, sup, rhs, float)
    if n < 3:
        # scipy's ?gttrf wrapper rejects n < 3, so these go through a dense solve
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        try:
            return np.linalg.solve(dense.astype(dtype), rhs.astype(dtype))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
    gttrf, gttrs = scipy.linalg.lapack.get_lapack_funcs(("gttrf", "gttrs"), dtype=dtype)
    *factors, info = gttrf(sub, diag, sup)
    if info > 0:
        raise SingularSystemError(f"zero pivot in row {info}: the matrix is singular")
    x, info = gttrs(*factors, rhs)
    if info < 0:
        raise ValueError(f"LAPACK gttrs rejected argument {-info}")
    return x


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


# processes one march may split its chunks over; None: every usable core
_share = None


def _cores() -> int:
    """Cores this process may run on: its CPU affinity, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _with_share(share, fn, *args):
    """fn(*args) with a march's share of processes set to ``share``."""
    global _share
    kept, _share = _share, share
    try:
        return fn(*args)
    finally:
        _share = kept


def shared_zeros(shape, dtype=float) -> np.ndarray:
    """A zero array in anonymous shared memory: forked children write straight into it."""
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize),
                         dtype).reshape(shape)


# seconds fork_each still waits, after a part's error, for lower-numbered parts
_GRACE = 0.1


def _die_with(parent):
    """Have this forked child SIGKILLed when its parent ends (Linux prctl; elsewhere nothing).

    So a part killed by fork_each takes down the children of its own
    fork_each, which would otherwise march on with no one to read them.
    """
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG; a failure leaves the child as it was
        if os.getppid() != parent:  # it ended before the prctl
            os._exit(1)


def _fill(fd, reply) -> bool:
    """Read what a part's pipe holds into reply, a [buffer, bytes filled] pair; False at its end.

    The part writes its reply's length, 8 bytes in one write (which a pipe
    keeps whole), before the reply, so the buffer is made once at full
    size and filled in place: buffers grown in turns by several parts
    would fragment this process's heap and raise its peak RSS.
    """
    if reply[0] is None:
        if header := os.read(fd, 8):
            reply[:] = bytearray(int.from_bytes(header, "little")), 0
        return bool(header)
    filled = os.readv(fd, [memoryview(reply[0])[reply[1]:]])
    reply[1] += filled
    return filled > 0


def _whole(reply):
    """The unpickled (ok, results or exception) of a complete reply, else None."""
    buffer, filled = reply
    return pickle.loads(buffer) if buffer is not None and filled == len(buffer) else None


def fork_each(fn, items, processes: int) -> list:
    """[fn(item) for item in items], dealt round-robin to ``processes`` forked children.

    With more than one process, min(processes, len(items)) children each
    pipe back the pickled results of their share, or its exception, and
    this process only waits, on every pipe at once, reading each reply as
    it comes. After the first error it waits at most _GRACE seconds for
    the parts numbered below it, then SIGKILLs and reaps the children not
    yet read, takes any reply they completed, and raises the error of the
    lowest-numbered failed part with its type. Every child is reaped.
    Children may also write to shared_zeros arrays. Here, in order, with
    one process or without os.fork.
    """
    processes = min(processes, len(items)) if hasattr(os, "fork") else 1
    if processes <= 1:
        return [fn(item) for item in items]
    pids, replies, parts, done, failed = {}, {}, {}, {}, {}
    caller, poller = os.getpid(), select.poll()
    try:
        for part in range(processes):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    _die_with(caller)
                    try:
                        reply = pickle.dumps((True, [fn(item) for item in items[part::processes]]))
                    except BaseException as exc:
                        reply = pickle.dumps((False, exc))
                    os.write(write, len(reply).to_bytes(8, "little"))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(reply)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            pids[part], replies[part], parts[read] = pid, [None, 0], part
            poller.register(read, select.POLLIN)
        # after the first error, parts below the lowest failed one get
        # _GRACE seconds to end, so parts that fail together raise in order
        deadline = wait = None
        while any(part < min(failed, default=processes) for part in pids):
            if failed:
                deadline = deadline or time.monotonic() + _GRACE
                if (wait := deadline - time.monotonic()) <= 0.0:
                    break
            for fd, _ in poller.poll(None if wait is None else 1000.0 * wait):
                part = parts[fd]
                if _fill(fd, replies[part]):
                    continue
                poller.unregister(fd)
                os.close(fd)
                del parts[fd]
                status = os.waitpid(pids.pop(part), 0)[1]
                ok, value = _whole(replies.pop(part)) or (False, ChildProcessError(
                    f"a forked part ended with wait status {status}"))
                (done if ok else failed)[part] = value
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        # a part killed after its whole reply was written may have failed
        # first; its pipe is read without blocking, as a forked child of the
        # part may still hold it open
        for fd, part in parts.items():
            os.set_blocking(fd, False)
            with contextlib.suppress(BlockingIOError):
                while _fill(fd, replies[part]):
                    pass
            os.close(fd)
            if (whole := _whole(replies[part])) and not whole[0]:
                failed[part] = whole[1]
    if failed:
        raise failed[min(failed)]
    return [done[i % processes][i // processes] for i in range(len(items))]


def run_jobs(fn, jobs, workers: int, costs) -> list:
    """[fn(*job) for job in jobs], up to ``workers`` jobs at a time, in job order.

    The jobs are a study's kinetic runs (roup.march_run) or, once those
    are done, its CSV files (a writer and its (result, path) pairs). They
    are dealt costliest first (costs[i] estimates job i, say steps times
    cells, or a file's rows), each to the least-loaded of min(workers,
    len(jobs), usable cores) parts, and fork_each runs the parts at once;
    results are the same however the jobs are dealt. With one part the
    jobs run here, in order. A job's march splits its chunks over
    min(workers, usable cores) processes, divided by the number of parts
    (at least 1). An exception in a job is raised here.
    """
    jobs = list(jobs)
    share = min(workers, _cores())
    size = min(share, len(jobs))
    if size <= 1:
        return [_with_share(share, fn, *job) for job in jobs]
    parts, loads = [[] for _ in range(size)], [0] * size
    for i in sorted(range(len(jobs)), key=lambda i: -costs[i]):
        least = loads.index(min(loads))
        parts[least].append(i)
        loads[least] += costs[i]
    done = fork_each(lambda part: [(i, _with_share(share // size, fn, *jobs[i])) for i in part],
                     parts, size)
    results = dict(pair for part in done for pair in part)
    return [results[i] for i in range(len(jobs))]
