"""Shared numerical kernels: 1D grids, quadrature, DFT pair, tridiagonal solves, step counts.

Conventions used throughout the package:

* grids are uniform and store both endpoints explicitly,
* the forward transform is F_hat(K) = (2*pi)**-0.5 * integral F(X) exp(+i K X) dX,
  discretised on a periodic sample set, so the inverse carries exp(-i K X),
* reductions use numpy's pairwise summation, which is deterministic and
  independent of any worker-pool layout chosen higher up.

Everything here needs numpy alone. BlockedLDL factors with an in-package
L D L^T recurrence; only the general tridiag_solve calls LAPACK, and it
imports scipy on its first call, so importing the package loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

__all__ = [
    "Grid1D",
    "quad",
    "cumquad",
    "wavenumbers",
    "dft_forward",
    "dft_inverse",
    "tridiag_solve",
    "BlockedLDL",
    "count_steps",
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
    """Integrate sampled data over the grid.

    Composite Simpson when the point count is odd, trapezoid otherwise.
    Works on the last axis, so stacked integrands are fine.
    """
    values = _check_length(values, grid)
    h = grid.spacing
    n = grid.count
    if n % 2 == 1:
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= h / 3.0
    else:
        w = np.full(n, h)
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


def wavenumbers(x_grid: Grid1D) -> np.ndarray:
    """Conjugate wavenumbers K_j = 2*pi*j/L in FFT order, L = count * spacing."""
    return 2.0 * np.pi * np.fft.fftfreq(x_grid.count, d=x_grid.spacing)


def dft_forward(values, x_grid: Grid1D) -> np.ndarray:
    """Modes F_hat(K_j) = (2*pi)**-0.5 * sum F(X_m) exp(+i K_j X_m) dX, FFT order."""
    values = _check_length(values, x_grid)
    m = x_grid.count
    k = wavenumbers(x_grid)
    raw = np.fft.ifft(values, axis=-1) * m  # sum with exp(+2*pi*i*j*m/M) kernel
    scale = x_grid.spacing / np.sqrt(2.0 * np.pi)
    return raw * (scale * np.exp(1j * k * x_grid.lower))


def dft_inverse(modes, x_grid: Grid1D) -> np.ndarray:
    """Inverse of :func:`dft_forward`; exact round trip to rounding error."""
    modes = np.asarray(modes)
    if modes.shape[-1] != x_grid.count:
        raise ValueError(
            f"mode count {modes.shape[-1]} does not match grid count {x_grid.count}"
        )
    k = wavenumbers(x_grid)
    twisted = modes * np.exp(-1j * k * x_grid.lower)
    scale = np.sqrt(2.0 * np.pi) / x_grid.period
    return scale * np.fft.fft(twisted, axis=-1)


_BLOCK = 16  # rows per diagonal block of BlockedLDL


def _chain(f):
    """c[j, k] = prod f[k+1..j-1] for k < j, else 0; terms below sqrt(tiny) are cut:
    subnormals slow every product, and they could only matter against 1e150 larger edges."""
    rank = np.arange(f.size)
    c = np.cumprod(np.where(rank[:, None] > rank, f[:, None], 1.0), axis=0)
    c = np.tril(np.roll(c, 1, axis=0), -1)
    c[np.abs(c) < np.sqrt(np.finfo(float).tiny)] = 0.0
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
    """A real symmetric positive-definite tridiagonal A = L D L^T, factored for many solves.

    diag has length n and off, the sub- and superdiagonal, n - 1. After
    _ldl_factor the system is padded with identity rows to ``rows``, a
    multiple of 16, and cut into 16-row blocks:
    x_j = M_j (b_j - e s e_0 - g r e_15), with M_j the explicit inverse of
    (L D L^T)_jj, e and g the couplings of L and D L^T across the block
    edges, s the last entry of L^-1 b in block j - 1 and r the first of x
    in block j + 1. Each carry is a triangular (nb, nb) matrix of products
    of edge factors applied to one edge row per block, so a solve is four
    matrix products and has no loop over rows or blocks. Raises
    SingularSystemError unless every pivot is positive.
    """

    def __init__(self, diag, off):
        d, e = _ldl_factor(diag, off)
        nb = -(-d.size // _BLOCK)
        self.rows = nb * _BLOCK
        d = np.concatenate((d, np.ones(self.rows - d.size))).reshape(nb, _BLOCK)
        # e[j, 15] couples block j to block j + 1, and is zero after the last real row
        e = np.concatenate((e, np.zeros(self.rows - e.size))).reshape(nb, _BLOCK)
        # L_jj^-1 row by row, then (D L^T)_jj^-1 = L_jj^-T D_jj^-1
        l_inv = np.tile(np.eye(_BLOCK), (nb, 1, 1))
        for i in range(1, _BLOCK):
            l_inv[:, i, :i] = -e[:, i - 1, None] * l_inv[:, i - 1, :i]
        u_inv = np.swapaxes(l_inv, 1, 2) / d[:, None, :]
        self._inv = u_inv @ l_inv
        # s chains from c = (L_jj^-1 b_j)[15], s_j = c_j - e s_{j-1} l_inv[15, 0];
        # r from u = (M_j b_j)[0] - M_j[0, 0] e s_{j-1}, r_j = u_j - g r_{j+1} u_inv[0, 15]
        self._edges = np.stack((l_inv[:, -1], self._inv[:, 0]), axis=1)
        e_in = np.concatenate(([0.0], e[:-1, -1]))
        g_out = d[:, -1] * e[:, -1]
        self._s_in = -e_in[:, None] * _chain(-e_in * l_inv[:, -1, 0])
        self._r_in = -g_out[:, None] * _chain(-g_out[::-1] * u_inv[::-1, 0, -1])[::-1, ::-1]

    def solver(self, cols):
        """solve(rhs, out): out = A^-1 rhs for C-ordered real (rows, cols) arrays.

        rhs has zero padding rows and is not written; each solver owns its
        scratch buffers, so threads share one factorization.
        """
        nb = self.rows // _BLOCK
        edges, carries = np.empty((2, nb, 2, cols))
        work = np.empty((nb, _BLOCK, cols))

        def solve(rhs, out):
            if not (rhs.flags.c_contiguous and out.flags.c_contiguous):
                raise ValueError("rhs and out must be C-ordered")
            b = rhs.reshape(nb, _BLOCK, cols)
            np.matmul(self._edges, b, out=edges)
            np.matmul(self._s_in, edges[:, 0], out=carries[:, 0])
            np.multiply(self._inv[:, :1, 0], carries[:, 0], out=edges[:, 0])
            np.add(edges[:, 0], edges[:, 1], out=edges[:, 0])
            np.matmul(self._r_in, edges[:, 0], out=carries[:, 1])
            np.copyto(work, b)
            work[:, ::_BLOCK - 1] += carries
            np.matmul(self._inv, work, out=out.reshape(nb, _BLOCK, cols))

        return solve


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
    zero pivot. Many solves with one symmetric positive-definite A are
    cheaper through BlockedLDL.
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
