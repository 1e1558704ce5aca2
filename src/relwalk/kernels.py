"""Shared numerical kernels: 1D grids, quadrature, DFT pair, tridiagonal solve, step counts.

Conventions used throughout the package:

* grids are uniform and store both endpoints explicitly,
* the forward transform is F_hat(K) = (2*pi)**-0.5 * integral F(X) exp(+i K X) dX,
  discretised on a periodic sample set, so the inverse carries exp(-i K X),
* reductions use numpy's pairwise summation, which is deterministic and
  independent of any worker-pool layout chosen higher up.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
from scipy.linalg import cython_lapack

from .errors import SingularSystemError

__all__ = [
    "Grid1D",
    "quad",
    "cumquad",
    "wavenumbers",
    "dft_forward",
    "dft_inverse",
    "tridiag_solve",
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


def _capi_routine(name, *argtypes):
    """A scipy.linalg.cython_lapack routine as a ctypes function.

    scipy's f2py wrappers of ?pttrs hold the interpreter lock while LAPACK
    runs, so solves on worker threads would serialize; a CFUNCTYPE call
    releases it. The routine is the one cython_lapack exports, found
    through the capsule in its __pyx_capi__ table.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype = ctypes.c_char_p
    get_name.argtypes = [ctypes.py_object]
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_int_p = ctypes.POINTER(ctypes.c_int)
# (n, nrhs, d, e, b, ldb, info) and (uplo, n, nrhs, d, e, b, ldb, info)
_dpttrs = _capi_routine("dpttrs", _int_p, _int_p, *[ctypes.c_void_p] * 3, _int_p, _int_p)
_zpttrs = _capi_routine("zpttrs", ctypes.c_char_p, _int_p, _int_p,
                        *[ctypes.c_void_p] * 3, _int_p, _int_p)


def _pttrs(d, e, x):
    """Overwrite the Fortran-ordered x (n,) or (n, k) with A^-1 x.

    d and e are the ?pttrf factors of a real symmetric A = L D L^T; e has
    the dtype of x.
    """
    n = ctypes.c_int(d.shape[0])
    nrhs = ctypes.c_int(x.size // d.shape[0])
    info = ctypes.c_int(0)
    args = (ctypes.byref(n), ctypes.byref(nrhs), d.ctypes.data, e.ctypes.data,
            x.ctypes.data, ctypes.byref(n), ctypes.byref(info))
    if x.dtype == np.complex128:
        _zpttrs(b"L", *args)
    else:
        _dpttrs(*args)
    if info.value < 0:
        raise ValueError(f"LAPACK pttrs rejected argument {-info.value}")


def tridiag_solve(sub, diag, sup, rhs) -> np.ndarray:
    """Solve a tridiagonal system A x = rhs.

    sub and sup have length n-1; rhs may be (n,) or (n, k) for many
    right-hand sides sharing one matrix, and is never overwritten.
    A real symmetric positive-definite A (sub equal to sup, and ?pttrf
    finds every pivot positive) is solved pivot-free as L D L^T by
    ?pttrs, with the interpreter lock released; any other A is factored
    with partial pivoting by ?gttrf and solved by ?gttrs. Either way the
    sweeps run on a copy of rhs; a Fortran-ordered rhs (the transpose of
    a C-ordered (k, n) stack) is copied without a transpose. Each column
    is solved independently, so the result does not depend on how the
    columns are blocked. Raises SingularSystemError on a zero pivot.
    """
    diag = np.asarray(diag)
    sub = np.asarray(sub)
    sup = np.asarray(sup)
    rhs = np.asarray(rhs)
    n = diag.shape[0]
    if sub.shape[0] != n - 1 or sup.shape[0] != n - 1:
        raise ValueError("off-diagonals must have length n - 1")
    if rhs.shape[0] != n:
        raise ValueError("right-hand side length does not match the matrix")
    dtype = np.result_type(diag, sub, sup, rhs, float)
    if n < 3:
        # scipy's ?gttrf wrapper rejects n < 3, so these go through a dense solve
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        try:
            return np.linalg.solve(dense.astype(dtype), rhs.astype(dtype))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(str(exc)) from exc
    if dtype in (np.float64, np.complex128) and not np.iscomplexobj(diag) \
            and not np.iscomplexobj(sub) and np.array_equal(sub, sup):
        d, e, info = scipy.linalg.lapack.dpttrf(diag, sub)
        if info == 0:
            x = np.array(rhs, dtype=dtype, order="F")
            _pttrs(d, e.astype(dtype), x)
            return x
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
