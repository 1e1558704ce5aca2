"""Short-time density heuristic, diffusion metric, and the Galilean reference.

The heuristic treats the early-time gas as freely streaming equilibrium
matter: each velocity class rides its own ray X = VT, which gives a closed
form with twin maxima near the light cone.

The transport law behind the late-time profiles is a generalized Fick law
with a position-dependent metric. Writing the flux as
J = -(1/2) N dh/dX - h dN/dX, the inverse metric h follows from the profile
alone: h = I / N^2 with I(X) = -2 * integral of N J from the left edge of
the light cone up to X, or equally, when N J integrates to zero over the
cone, 2 * integral of N J from X to the right edge. The Galilean
Ornstein-Uhlenbeck process is the infinite-Q reference; its h field is
spatially flat, which anchors both the sign convention and the flatness
tolerance used here.
"""

from dataclasses import dataclass

import numpy as np

from . import _io, kernels
from .errors import DegenerateMetricError, NoInteriorPeakError, SignConventionError
from .roup import DensityProfile

# fraction of max N below which h = I/N^2 is not trusted
N_FLOOR_RATIO = 1e-6

# flux at a density maximum above this fraction of max |J| rules out
# a simple Fick law with finite diffusion coefficient
FLUX_RATIO = 1e-3


def heuristic_density(t, x, Q):
    """Freely streaming equilibrium ansatz for the propagative regime.

    Even in X, vanishes outside |X/T| < Q, decays like exp(-Q^2 gamma)
    toward the cone. t must be positive.
    """
    if t <= 0.0:
        raise ValueError("heuristic density needs t > 0")
    v = np.asarray(x, dtype=float) / t
    out = np.zeros(v.shape)
    inside = np.abs(v) < Q
    gamma = 1.0 / np.sqrt(1.0 - (v[inside] / Q) ** 2)
    out[inside] = gamma ** 3 * np.exp(-Q * Q * gamma) / (2.0 * np.pi * t)
    return out


def heuristic_rescaled(xi, Q):
    """Time-free form of the heuristic: nu(xi) = Q T N(T, xi Q T)."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape)
    inside = np.abs(xi) < 1.0
    gamma = 1.0 / np.sqrt(1.0 - xi[inside] ** 2)
    out[inside] = Q * gamma ** 3 * np.exp(-Q * Q * gamma) / (2.0 * np.pi)
    return out


def heuristic_peak(Q) -> float:
    """Predicted velocity |X/T| of the twin density maxima, 2 sqrt(2) Q / 3.

    The stationarity condition puts the maxima at gamma = 3/Q^2, which is
    reachable only for Q <= sqrt(3); beyond that the profile is monotone
    between center and cone and there is no interior peak.
    """
    if Q <= 0.0:
        raise ValueError("Q must be positive")
    if Q > np.sqrt(3.0):
        raise NoInteriorPeakError(
            f"no interior maximum for Q = {Q:g} > sqrt(3); profile is monotone"
        )
    return 2.0 * np.sqrt(2.0) * Q / 3.0


@dataclass(frozen=True)
class MetricField:
    """Inverse metric h and metric g = 1/h reconstructed from one profile.

    integral holds I(X), the cumulative flux integral taken from the
    nearer cone edge (see metric_from_density); h and g are nan
    where valid is False (density below N_FLOOR_RATIO of its max).
    """

    x_grid: kernels.Grid1D
    time: float
    Q: float
    integral: np.ndarray
    h: np.ndarray
    g: np.ndarray
    valid: np.ndarray


def metric_from_density(profile: DensityProfile) -> MetricField:
    """Reconstruct the diffusion metric h = I/N^2 from a density profile.

    The cumulative integral starts at the nearer light-cone edge: at
    X = -QT for X <= 0 and at X = QT for X > 0 (the full grid edges when
    Q is infinite), so I near either edge is a short sum rather than the
    cancellation of the whole left half, and a mirror-symmetric profile
    gives a mirror-symmetric metric. The two starts agree when N J
    integrates to zero over the cone, as it does for an even density and
    odd current. The valid region is where the density clears the floor
    inside the cone; outside the cone the continuum density vanishes
    identically and the samples are spectral ringing, not signal.
    Material negativity of I on the valid region means the profile's flux
    disagrees with the adopted sign convention and raises; isolated
    non-positive values at the reconstruction noise floor are masked
    rather than divided.
    """
    x = profile.x_grid.points
    n = np.clip(np.asarray(profile.density, dtype=float), 0.0, None)
    j = np.asarray(profile.current, dtype=float)
    # zero contributions outside the cone so cumquad starts the integrals
    # at -QT and QT regardless of grid padding; infinite Q keeps every point
    integrand = np.where(np.abs(x) <= profile.Q * profile.time, n * j, 0.0)
    big_i = np.where(x > 0.0,
                     2.0 * kernels.cumquad(integrand, profile.x_grid, from_lower=False),
                     -2.0 * kernels.cumquad(integrand, profile.x_grid))
    valid = (n >= N_FLOOR_RATIO * n.max()) & (np.abs(x) < profile.Q * profile.time)
    scale = max(float(np.max(big_i[valid], initial=0.0)), 0.0)
    worst = float(np.min(big_i[valid], initial=0.0))
    if worst < -1e-6 * scale:
        raise SignConventionError(
            f"flux integral reached {worst:.3e} on the resolved region "
            f"(positive scale {scale:.3e}); profile violates the "
            "J = -(N/2) h' - h N' sign convention"
        )
    valid &= big_i > 0.0
    h = np.full(x.size, np.nan)
    g = np.full(x.size, np.nan)
    h[valid] = big_i[valid] / n[valid] ** 2
    g[valid] = 1.0 / h[valid]
    return MetricField(profile.x_grid, profile.time, profile.Q, big_i, h, g, valid)


def _central_valid_slice(metric: MetricField, density) -> slice:
    """Contiguous valid run containing the density maximum, else the longest.

    DegenerateMetricError unless that run has the 2 points a gradient needs.
    """
    idx = np.flatnonzero(metric.valid)
    if idx.size == 0:
        raise DegenerateMetricError("no valid points in metric field")
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    peak = int(np.argmax(density))
    run = next((r for r in runs if r[0] <= peak <= r[-1]), max(runs, key=len))
    if run.size < 2:
        raise DegenerateMetricError(
            "the central valid run of the metric is one point; a gradient needs 2")
    return slice(int(run[0]), int(run[-1]) + 1)


def generalized_fick_residual(profile: DensityProfile, metric: MetricField) -> float:
    """Relative L2 residual of (N/2) dh/dX + h dN/dX + J on the valid region."""
    if profile.x_grid != metric.x_grid:
        raise ValueError("profile and metric live on different grids")
    sl = _central_valid_slice(metric, profile.density)
    dx = profile.x_grid.spacing
    n = np.asarray(profile.density, dtype=float)[sl]
    j = np.asarray(profile.current, dtype=float)[sl]
    h = metric.h[sl]
    res = 0.5 * n * np.gradient(h, dx) + h * np.gradient(n, dx) + j
    denom = float(np.linalg.norm(j))
    if denom == 0.0:
        raise DegenerateMetricError("current vanishes on the valid region")
    return float(np.linalg.norm(res)) / denom


def galilean_ou_variance(t):
    """Position variance of the dimensionless OU tracer started at the origin.

    s(T) = 2 (T - 1 + exp(-T)); ballistic 1 + T^2-ish at short times, slope 2
    diffusion at long times.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("variance defined for t >= 0")
    s = 2.0 * (t - 1.0 + np.exp(-t))
    return float(s) if s.ndim == 0 else s


def galilean_ou_chi(t):
    """Effective Fick coefficient chi = s'/2 = 1 - exp(-T)."""
    t = np.asarray(t, dtype=float)
    chi = 1.0 - np.exp(-t)
    return float(chi) if chi.ndim == 0 else chi


def galilean_ou_profile(t) -> DensityProfile:
    """Gaussian reference profile of the infinite-Q process on 512 points.

    The ring spans 8 standard deviations of the Gaussian on each side,
    which keeps the boundary density below 1e-13 of the peak.
    """
    if t <= 0.0:
        raise ValueError("reference profile needs t > 0")
    s = galilean_ou_variance(t)
    sd = np.sqrt(s)
    grid = kernels.Grid1D.periodic(16.0 * sd, 512)
    x = grid.points
    density = np.exp(-x * x / (2.0 * s)) / np.sqrt(2.0 * np.pi * s)
    # J = -chi dN/dX
    current = galilean_ou_chi(t) * (x / s) * density
    return DensityProfile(grid, float(t), np.inf, density, current)


def simple_fick_rejection(profile: DensityProfile):
    """Probe J = -D dN/dX at the density maxima.

    Any finite D forces J to vanish where N has an interior extremum, so a
    flux above FLUX_RATIO of max |J| at a maximum rules the simple law out.
    Returns a JSON-ready report listing each interior local maximum at or
    above half the peak density. Spectral ringing can pass that cut: at the
    `metric` defaults and T = 1 it lists 71 ripples between the twin peaks,
    with |J|/max up to 0.19, so one such "peak" alone would reject the law.
    """
    n = np.asarray(profile.density, dtype=float)
    j = np.asarray(profile.current, dtype=float)
    x = profile.x_grid.points
    # interior maxima at or above half peak; ringing on the plateau can clear it
    local = (n[1:-1] > n[:-2]) & (n[1:-1] >= n[2:]) & (n[1:-1] >= 0.5 * n.max())
    peaks = np.flatnonzero(local) + 1
    max_abs_j = float(np.max(np.abs(j)))
    entries = []
    rejected = False
    for p in peaks:
        ratio = abs(float(j[p])) / max_abs_j if max_abs_j > 0.0 else 0.0
        entries.append(
            {
                "X": float(x[p]),
                "N": float(n[p]),
                "J": float(j[p]),
                "abs_J_over_max": ratio,
            }
        )
        if ratio > FLUX_RATIO:
            rejected = True
    return {
        "time": profile.time,
        "Q": profile.Q if np.isfinite(profile.Q) else "inf",
        "flux_ratio_threshold": FLUX_RATIO,
        "max_abs_J": max_abs_j,
        "peaks": entries,
        "simple_fick_rejected": rejected,
    }


def write_metric_csv(metric: MetricField, path) -> None:
    """Columns: T, xi, g, h, valid. xi falls back to X for infinite Q."""
    x = metric.x_grid.points
    if np.isfinite(metric.Q):
        xi = x / (metric.Q * metric.time)
    else:
        xi = x
    t = np.full(x.size, metric.time)
    _io.write_csv(path, ["T", "xi", "g", "h", "valid"],
                  [t, xi, metric.g, metric.h, metric.valid.astype(float)])


def write_heuristic_csv(t, Q, xi, path) -> None:
    """Columns: T, xi, N_heuristic sampled at X = xi Q T."""
    xi = np.asarray(xi, dtype=float)
    values = heuristic_density(t, xi * Q * t, Q)
    _io.write_csv(path, ["T", "xi", "N_heuristic"],
                  [np.full(xi.size, float(t)), xi, values])
