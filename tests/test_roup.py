import ctypes
import dataclasses
import mmap
import os
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from relwalk import kernels, roup
from relwalk.errors import StepSizeError, SymmetryError, TailTruncationError
from relwalk.kernels import Grid1D, count_steps, quad


def apply_collision(values: np.ndarray, p_grid: Grid1D, Q: float) -> np.ndarray:
    """L acting on samples over p_grid; batched over leading axes of values."""
    lower, diag, upper = roup._collision_bands(p_grid, Q)
    moved = np.moveaxis(np.asarray(values), -1, 0)
    shape = (-1,) + (1,) * (moved.ndim - 1)
    out = diag.reshape(shape) * moved
    out[1:] += lower.reshape(shape) * moved[:-1]
    out[:-1] += upper.reshape(shape) * moved[1:]
    return np.moveaxis(out, 0, -1)


def _small_run(Q=1.0, t_final=0.5, n_x=128, n_p=512, dt=None, times=None):
    dt = roup.default_dt(t_final) if dt is None else dt
    return roup.Run(Q, t_final, dt, (t_final,) if times is None else tuple(times), n_x, n_p)


def _initial_modes(run):
    """All the initial rows march(run) starts from."""
    return roup._initial_rows(run)(slice(None))


def _march_row(run, f0, K, t, dt):
    """A P-even row f0 marched alone at wavenumber K to time t, guarded as march is."""
    row, Ks, n_steps = np.asarray(f0, dtype=complex)[None, :], np.array([K]), count_steps(t, dt)
    strang = roup._Strang(run.p_grid, run.Q, dt)
    fine = roup._Strang(run.p_grid, run.Q, 0.5 * dt)
    roup._check_step([roup._step_error(row.copy(), Ks, strang, fine)])
    out = np.empty((1, 1, run.n_p), dtype=complex)
    strang.march(row, Ks, n_steps, [n_steps], out, strang.phase(Ks, 0.5), strang.phase(Ks, 1.0))
    return out[0, 0]


def test_juttner_normalization_against_adaptive_quadrature():
    # independent oracle: adaptive integration of the shifted exponent
    for Q in (0.5, 1.0, 3.0, 8.0):
        integral, err = scipy_quad(
            lambda p: np.exp(-Q * Q * (np.sqrt(1.0 + (p / Q) ** 2) - 1.0)),
            -np.inf, np.inf)
        assert err < 1e-7
        assert roup.juttner_normalization(Q) == pytest.approx(1.0 / integral, rel=1e-8)


def test_juttner_normalization_matches_the_scaled_bessel_form():
    # A = 1 / (2 Q exp(Q^2) K1(Q^2)); kve itself is accurate to about 2e-15 here
    kve = pytest.importorskip("scipy.special").kve
    for Q in np.geomspace(0.01, 1000.0, 401):
        exact = 1.0 / (2.0 * Q * kve(1, Q * Q))
        assert abs(roup.juttner_normalization(Q) / exact - 1.0) <= 2e-15


def test_juttner_grid_mass_is_one():
    for Q in (1.0, 8.0):
        run = _small_run(Q=Q)
        f = roup.juttner(run.p_grid.points, Q)
        assert quad(f, run.p_grid) == pytest.approx(1.0, abs=1e-10)


def test_velocity_bounded_by_light_speed():
    # v -> Q as P -> inf, so light speed is Q in these units, not one
    p = np.linspace(-500.0, 500.0, 1001)
    for Q in (0.7, 2.0):
        v = roup.velocity(p, Q)
        assert np.all(np.abs(v) < Q)
        assert np.max(np.abs(v)) > 0.99 * Q
        assert np.all(np.diff(v) > 0.0)


def test_params_reject_thin_tails():
    # the cutoff keeps the tail exponent at 32 to rounding (31.09 at Q = 1e8)
    # until _TAIL / Q^2 rounds away and it collapses to 0
    assert roup.Run(1e8, 1.0, 1e-3, (1.0,), 8, 64).p_max > 0.0
    with pytest.raises(TailTruncationError):
        roup.Run(1e9, 1.0, 1e-3, (1.0,), 8, 64)


def test_params_reject_odd_counts():
    with pytest.raises(ValueError):
        roup.Run(1.0, 1.0, 1e-3, (1.0,), n_x=128, n_p=511)
    with pytest.raises(ValueError):
        roup.Run(1.0, 1.0, 1e-3, (1.0,), n_x=129, n_p=512)


@pytest.mark.parametrize("Q, t_final, dt, times, match", [
    (0.0, 1.0, 0.01, (1.0,), "Q must be positive"),
    (-1.0, 1.0, 0.01, (1.0,), "Q must be positive"),
    (1.0, 0.0, 0.01, (), "t_final must be positive"),
    (1.0, -0.5, 0.01, (), "t_final must be positive"),
    (1.0, 1.005, 0.01, (1.0,), "not an integer number of steps"),
    (1.0, 1.0, 0.01, (0.333,), "not an integer number of steps"),
    (1.0, 1.0, 0.0, (1.0,), "need dt > 0"),
    (1.0, 1.0, 0.01, (0.5, 1.01), "beyond t_final"),
    (1.0, 1.0, 0.01, (0.5, 0.5 + 1e-12), "collide"),
])
def test_run_rejects_invalid_inputs(Q, t_final, dt, times, match):
    with pytest.raises(ValueError, match=match):
        roup.Run(Q, t_final, dt, times, 16, 64)


@pytest.mark.parametrize("refine", [0, -2])
def test_run_rejects_a_refine_below_one_before_any_fork(monkeypatch, forks, refine):
    # march_runs would otherwise march every chunk before reading refine
    monkeypatch.setattr(kernels, "_cores", lambda: 4)
    with pytest.raises(ValueError, match="refine must be a positive integer"):
        roup.march_runs([roup.Run(1.0, 0.1, 0.01, (0.1,), 16, 64, refine=refine)], 4)
    assert forks == []


def test_run_is_a_frozen_hashable_key():
    run = roup.Run(1.0, 0.5, 0.01, (0.25, 0.5), 16, 64, 2)
    assert {run: 1}[roup.Run(1.0, 0.5, 0.01, (0.25, 0.5), 16, 64, 2)] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.dt = 0.02
    # replace checks the new inputs too
    with pytest.raises(ValueError, match="not an integer number of steps"):
        dataclasses.replace(run, dt=0.3)


def test_standard_params_hit_target_tail():
    run = roup.Run(1.0, 1.0, 1e-3, (1.0,))
    gamma = np.sqrt(1.0 + run.p_max**2)
    assert (gamma - 1.0) == pytest.approx(32.0, rel=1e-12)
    assert run.length == pytest.approx(3.0)
    assert run.n_modes == 257 and run.p_grid.count == 2048


def test_collision_kills_equilibrium_exactly():
    for Q in (0.7, 1.0, 8.0):
        run = _small_run(Q=Q)
        f = roup.juttner(run.p_grid.points, Q)
        lf = apply_collision(f, run.p_grid, Q)
        # fluxes are exponentially fitted, so this is pure rounding noise
        assert np.max(np.abs(lf)) < 1e-10 * np.max(f)


def test_collision_conserves_mass_for_any_state():
    run = _small_run()
    rng = np.random.default_rng(7)
    p = run.p_grid.points
    f = np.exp(-0.3 * p * p) * (1.0 + 0.2 * np.sin(3.0 * p)) + 0.01 * rng.random(p.size)
    lf = apply_collision(f, run.p_grid, run.Q)
    # trapezoid weights equal the cell volumes, so the sum telescopes
    assert abs(quad(lf, run.p_grid)) < 1e-12 * np.max(np.abs(lf)) * run.p_max


def test_collision_matches_galilean_ou_generator():
    # Q -> inf limit: L F = d/dP(P F) + F'' with an O(1/Q^2) correction;
    # oracle is the closed form for a variance-2 Gaussian
    Q = 1e3
    run = roup.Run(Q, 1.0, 1e-3, (1.0,), n_p=2048)
    p = run.p_grid.points
    f = np.exp(-p * p / 4.0)
    expected = (0.5 - p * p / 4.0) * f
    lf = apply_collision(f, run.p_grid, Q)
    assert np.max(np.abs(lf - expected)) < 5e-4 * np.max(np.abs(expected))


def test_collision_preserves_parity():
    run = _small_run()
    p = run.p_grid.points
    f = np.exp(-0.2 * p * p) * np.cos(p)
    lf = apply_collision(f, run.p_grid, run.Q)
    assert np.allclose(lf, lf[::-1], atol=1e-12 * np.max(np.abs(lf)))


def test_collision_batched_rows():
    run = _small_run()
    p = run.p_grid.points
    stack = np.stack([np.exp(-p * p / 3.0), np.exp(-p * p / 5.0) * p])
    lf = apply_collision(stack, run.p_grid, run.Q)
    for row_in, row_out in zip(stack, lf):
        assert np.allclose(row_out, apply_collision(row_in, run.p_grid, run.Q))


def test_collision_face_with_no_potential_increment_has_weight_one():
    # points -1.5, -0.5, 0.5, 1.5: the central face sees y = 0 exactly, where
    # y / sinh(y) is 0/0 unless guarded; its weight must be the limit 1
    p_grid = Grid1D(-1.5, 1.5, 4)
    assert p_grid.spacing == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bands = roup._collision_bands(p_grid, 1.0)
    assert all(np.all(np.isfinite(band)) for band in bands)
    lower, _, upper = bands
    assert lower[1] == upper[1] == 1.0  # weight 1 / (dp * vol), with dp = vol = 1


def test_zero_mode_freezes_equilibrium():
    run = _small_run()
    f0 = roup.juttner(run.p_grid.points, run.Q)
    f1 = _march_row(run, f0, 0.0, 0.5, 0.5 / 200)
    assert np.max(np.abs(f1 - f0)) < 1e-12 * np.max(np.abs(f0))


def test_zero_mode_relaxes_toward_equilibrium():
    # an even start: the Juttner split into two lobes at P = -1 and P = +1
    run = _small_run()
    p = run.p_grid.points
    f_eq = roup.juttner(p, run.Q)
    split = roup.juttner(p - 1.0, run.Q) + roup.juttner(p + 1.0, run.Q)
    split /= quad(split, run.p_grid)
    d0 = quad(np.abs(split - f_eq), run.p_grid)
    dist = []
    f = split
    for _ in range(6):
        f = _march_row(run, f, 0.0, 1.0, 1.0 / 200)
        dist.append(quad(np.abs(f.real - f_eq), run.p_grid))
    assert all(d2 < d1 for d1, d2 in zip(dist, dist[1:]))
    assert dist[-1] < 0.1 * d0
    # mass never leaks while relaxing
    assert quad(f.real, run.p_grid) == pytest.approx(1.0, abs=1e-10)


def test_mode_short_time_error_is_second_order():
    # exact solution approaches exp(+iKvT) F* with an O(T^2) defect, and
    # the integrator must reproduce it at that order; the phase sign
    # follows the exp(-iKX) inverse-transform kernel
    run = _small_run()
    p = run.p_grid.points
    v = roup.velocity(p, run.Q)
    f0 = roup.juttner(p, run.Q)
    K = 20.0
    errs = []
    for t in (0.02, 0.01):
        f = _march_row(run, f0, K, t, t / 20.0)
        ref = f0 * np.exp(1j * K * v * t)
        errs.append(np.linalg.norm(f - ref))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def _exact_modes(run, t):
    """The initial modes of run carried to time t by exp(t (L + iKv)), one eig per mode.

    L is the full-grid collision matrix; iKv streams with the marcher's sign
    (see _Strang.v). The eigenbasis is not orthogonal, so the reference is
    trusted only once a dt-halving march converges to it at order 2.
    """
    L = apply_collision(np.eye(run.n_p), run.p_grid, run.Q).T
    v = roup.velocity(run.p_grid.points, run.Q)
    initial = _initial_modes(run)
    exact = np.empty_like(initial)
    for row, K in enumerate(run.mode_wavenumbers):
        lam, vectors = np.linalg.eig(L + 1j * K * np.diag(v))
        exact[row] = vectors @ (np.exp(lam * t) * np.linalg.solve(vectors, initial[row]))
    return exact


@pytest.mark.parametrize("Q, C", [(1.0, 0.34), (8.0, 0.062)])
def test_march_time_error_is_c_dt_squared_against_the_exact_propagator(Q, C):
    # 5 modes (the Nyquist row empty) on 64 momenta to T = 0.5; the largest
    # state error relative to the largest exact mode value, divided by dt^2,
    # measured 0.3333 at Q = 1 and 0.0606 at Q = 8 for dt from 0.02 to
    # 0.0025, with error ratios 4.000 to 4.004 at every halving
    errors = []
    for dt in (0.01, 0.005):
        run = roup.Run(Q, 0.5, dt, (0.5,), n_x=8, n_p=64)
        exact = _exact_modes(run, 0.5)
        marched = roup.march(run)[0].modes
        errors.append(np.max(np.abs(marched - exact)) / np.max(np.abs(exact)))
    assert 3.9 < errors[0] / errors[1] < 4.1
    assert errors[1] <= C * 0.005 ** 2


def test_mode_guard_rejects_coarse_dt():
    run = _small_run()
    f0 = roup.juttner(run.p_grid.points, run.Q)
    with pytest.raises(StepSizeError):
        _march_row(run, f0, 400.0, 1.0, 0.5)
    _march_row(run, f0, 400.0, 0.01, 1e-3)


def test_evolve_all_preserves_momentum_flip_symmetry():
    states = roup.march(_small_run(dt=0.5 / 200))
    assert len(states) == 1
    assert states[0].time == pytest.approx(0.5)
    # only P > 0 is marched and P < 0 is its mirror image, so exactly zero
    assert roup.symmetry_residual(states[0]) == 0.0


def test_evolve_all_zero_mode_is_stationary():
    run = _small_run(dt=0.5 / 200)
    state = roup.march(run)[0]
    expected = roup.juttner(run.p_grid.points, run.Q) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(state.modes[0] - expected)) < 1e-12


def test_evolve_all_skips_the_empty_nyquist_chunk_bitwise(monkeypatch):
    run = _small_run(n_x=64, n_p=2048, t_final=0.05, dt=1e-3, times=[0.0, 0.05])
    # 33 modes march as chunks of 16 and 16; the third chunk is the empty
    # Nyquist row alone, which is not marched and stays zero
    assert run.n_modes == 2 * (roup._CHUNK_CELLS // (run.n_p // 2)) + 1
    skipped = roup.march(run)
    # a nonzero last row, with every chunk marched; rows never mix across
    # chunks, so the other rows come out bitwise the same
    initial = _initial_modes(run)
    initial[-1] = initial[0]
    monkeypatch.setattr(roup, "_initial_rows", lambda _: lambda block: initial[block].copy())
    monkeypatch.setattr(roup, "_chunks", lambda run: roup._row_blocks(run.n_modes, run.n_p // 2))
    marched = roup.march(run)
    for a, b in zip(skipped, marched, strict=True):
        assert a.modes[:-1].tobytes() == b.modes[:-1].tobytes()
        assert not a.modes[-1].any()
    assert marched[-1].modes[-1].any()
    assert roup.symmetry_residual(skipped[-1]) == 0.0


def test_zero_row_sharing_a_chunk_marches_to_zero():
    # 5 modes on 32 momenta are one chunk: the Nyquist row is marched with
    # the others and comes out zero, as the skipped chunk above is written
    run = _small_run(n_x=8, n_p=64, dt=0.5 / 200)
    state = roup.march(run)[0]
    assert np.array_equal(state.modes[-1], np.zeros(run.n_p))
    assert state.modes[-2].any()


def test_initial_state_is_the_tiled_juttner_row_bitwise():
    run = _small_run(n_x=64, n_p=256)
    row = roup.juttner(run.p_grid.points, run.Q) / np.sqrt(2.0 * np.pi)
    expected = np.tile(row, (run.n_modes, 1)).astype(complex)
    expected[-1] = 0.0
    assert _initial_modes(run).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_x, n_p", [(130, 256), (70, 2048)])
def test_streamed_march_matches_the_materialized_initial_state_bitwise(n_x, n_p):
    # 66 modes on 128 momenta are one chunk, its empty Nyquist row marched
    # with the others; 36 modes on 1024 march as chunks of 16, 16 and 4,
    # the last one mixed. Built chunk by chunk, the initial rows must march
    # exactly as the rows of the whole initial state do.
    run = _small_run(n_x=n_x, n_p=n_p, t_final=0.05, dt=1e-3, times=[0.0, 0.02, 0.05])
    streamed = roup.march(run)
    F = _initial_modes(run)
    out = np.empty((3,) + F.shape, dtype=complex)
    strang = roup._Strang(run.p_grid, run.Q, run.dt)
    for block in roup._row_blocks(run.n_modes, run.n_p // 2):
        K = run.mode_wavenumbers[block]
        strang.march(F[block], K, 50, [0, 20, 50], out[:, block],
                     strang.phase(K, 0.5), strang.phase(K, 1.0))
    for state, expected in zip(streamed, out, strict=True):
        assert np.array_equal(state.modes, expected)
        assert state.modes.tobytes() == expected.tobytes()


def test_evolve_all_guard_checks_every_chunk_before_any_march(monkeypatch):
    # 33 modes on 1024 momenta are chunks of 16, 16 and the empty Nyquist
    # row; dt = 0.5 is far too coarse for the fastest modes
    monkeypatch.setattr(kernels, "_cores", lambda: 1)
    run = _small_run(n_x=64, n_p=2048, t_final=10.0, dt=0.5)
    steps = []
    march = roup._Strang.march

    def recording(self, rows, Ks, n_steps, *args):
        steps.append(n_steps)
        march(self, rows, Ks, n_steps, *args)

    monkeypatch.setattr(roup._Strang, "march", recording)
    with pytest.raises(StepSizeError):
        roup.march(run)
    # one step and two half steps per chunk but the empty Nyquist row, and
    # no 20-step march
    assert steps == [1, 2] * 2


def test_evolve_all_builds_two_phase_tables_per_chunk_in_guard_and_march(monkeypatch):
    # 32 modes on 1024 momenta are two chunks of 16, the Nyquist row in the
    # second; the guard shares one table between its two marches
    monkeypatch.setattr(kernels, "_cores", lambda: 1)
    run = _small_run(n_x=62, n_p=2048, t_final=0.05, dt=1e-3)
    built = []
    phase = roup._Strang.phase

    def counting(self, Ks, fraction):
        built.append(fraction)
        return phase(self, Ks, fraction)

    monkeypatch.setattr(roup._Strang, "phase", counting)
    roup.march(run)
    assert len(built) == (2 + 2) * 2


def test_guard_and_march_build_no_phase_table_for_the_empty_nyquist_chunk(monkeypatch):
    # 33 modes on 1024 momenta are chunks of 16, 16 and the empty Nyquist
    # row, which neither the guard nor the march steps
    monkeypatch.setattr(kernels, "_cores", lambda: 1)
    run = _small_run(n_x=64, n_p=2048, t_final=0.05, dt=1e-3)
    built = []
    phase = roup._Strang.phase

    def counting(self, Ks, fraction):
        built.append(Ks.size)
        return phase(self, Ks, fraction)

    monkeypatch.setattr(roup._Strang, "phase", counting)
    roup.march(run)
    assert built == [16] * 8


def test_phase_tables_are_the_complex_exponential():
    # bit for bit with numpy 2.4 on x86-64 Linux; within an ulp anywhere
    run = roup.Run(1.0, 0.5, 1e-3, (0.5,))
    strang = roup._Strang(run.p_grid, run.Q, run.dt)
    Ks = run.mode_wavenumbers
    v = strang.ldl.unpad(strang.v)[:, 0]
    for fraction, scale in ((0.5, 0.5j), (1.0, 1j)):
        table = strang.phase(Ks, fraction)
        expected = np.exp(scale * 1e-3 * np.outer(v, Ks))
        assert np.max(np.abs(strang.ldl.unpad(table) - expected)) <= 2e-16
        assert np.all(table[:, 16:] == 1.0)


@pytest.mark.parametrize("cells", [8192, 32768])
def test_evolve_all_is_bitwise_independent_of_the_chunk_size(monkeypatch, cells):
    # the standard grid's 257 modes march as chunks of 8, 16 or 32 rows and
    # the empty Nyquist row alone; every column of a product is its own
    run = roup.Run(1.0, 0.01, 1e-3, (0.005, 0.01))
    march = lambda: roup.march(run)
    reference = march()
    monkeypatch.setattr(roup, "_CHUNK_CELLS", cells)
    for state, expected in zip(march(), reference, strict=True):
        assert state.modes.tobytes() == expected.modes.tobytes()


def _traced_peak(fn):
    """(fn(), the peak of traced allocations during the call above its start, in bytes)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


# one complex array of _CHUNK_CELLS cells, the unit of a march's scratch
_CHUNK_BYTES = 16 * roup._CHUNK_CELLS


def test_evolve_all_holds_its_snapshots_plus_chunk_scratch(monkeypatch):
    # the initial rows, the guard's one-step result (its half steps are
    # written over the rows) and the march's work arrays are each at most
    # two chunks (about 10.7 chunks above the snapshots at the peak, in the
    # guard); one state here is 8 chunks, and a full-size initial state
    # with full-size guard results peaked 24 chunks above the snapshots.
    # tracemalloc does not see the shared memory the snapshots are in, so
    # each shared array is traced by hand
    monkeypatch.setattr(kernels, "_cores", lambda: 1)
    monkeypatch.setattr(roup, "shared_zeros", _tracked_shared_zeros)
    run = _small_run(n_x=256, n_p=1024, t_final=0.02, dt=2e-3, times=[0.01, 0.02])
    states, peak = _traced_peak(lambda: roup.march(run))
    snapshots = sum(state.modes.nbytes for state in states)
    assert snapshots <= peak <= snapshots + 12 * _CHUNK_BYTES


def _in_shared_memory(state):
    base = state.modes
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)


# an unused tracemalloc domain for the shared arrays below
_SHARED_DOMAIN = 0x5EA


def _tracked_shared_zeros(shape, dtype=float):
    """roup's shared_zeros, its memory traced as numpy traces its own arrays."""
    out = kernels.shared_zeros(shape, dtype)
    track, untrack = ctypes.pythonapi.PyTraceMalloc_Track, ctypes.pythonapi.PyTraceMalloc_Untrack
    track.argtypes, untrack.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t), (
        ctypes.c_uint, ctypes.c_size_t)
    track(_SHARED_DOMAIN, out.ctypes.data, out.nbytes)
    weakref.finalize(out, untrack, _SHARED_DOMAIN, out.ctypes.data)
    return out


def test_fanned_out_march_holds_its_snapshots_plus_chunk_scratch(monkeypatch):
    # two forked children march the 4 chunks of 32 rows, and this process
    # holds the one-core bound above
    monkeypatch.setattr(kernels, "_cores", lambda: 2)
    monkeypatch.setattr(roup, "shared_zeros", _tracked_shared_zeros)
    run = _small_run(n_x=256, n_p=1024, t_final=0.02, dt=2e-3, times=[0.01, 0.02])
    states, peak = _traced_peak(lambda: roup.march(run))
    assert all(_in_shared_memory(state) for state in states)
    snapshots = sum(state.modes.nbytes for state in states)
    assert snapshots <= peak <= snapshots + 12 * _CHUNK_BYTES


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("run, cores, forked", [
    # 17 chunks (the empty Nyquist row alone last) in 3 processes
    (roup.Run(1.0, 0.01, 1e-3, (0.005, 0.01)), 3, 3),
    # chunks of 16, 16 and 4 rows, the last one mixed, in 2 processes
    (_small_run(n_x=70, n_p=2048, t_final=0.05, dt=1e-3, times=[0.0, 0.02, 0.05]), 2, 2),
    # a chunk of 16 rows and the empty Nyquist row alone, which takes no process
    (_small_run(n_x=32, n_p=2048, t_final=0.05, dt=1e-3, times=[0.02, 0.05]), 2, 0),
], ids=["standard", "70x2048", "one-chunk"])
def test_fanned_out_march_is_the_one_core_march_bitwise(monkeypatch, forks, run, cores, forked):
    monkeypatch.setattr(kernels, "_cores", lambda: 1)
    reference = roup.march(run)
    assert forks == []
    monkeypatch.setattr(kernels, "_cores", lambda: cores)
    fanned = roup.march(run)
    # one fan-out, a child per process, guards and marches the chunks
    assert len(forks) == forked
    for state, expected in zip(fanned, reference, strict=True):
        assert _in_shared_memory(state) and _in_shared_memory(expected)
        assert state.modes.tobytes() == expected.modes.tobytes()
    assert all(_reaped(pid) for pid in forks)


def _logging_strang_march(monkeypatch, log, run):
    """Log the pid, steps and first mode number of each _Strang.march to the file log."""
    march = roup._Strang.march

    def recording(self, rows, Ks, n_steps, *args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {n_steps} {round(Ks[0] / run.mode_wavenumbers[1])}\n")
        march(self, rows, Ks, n_steps, *args)

    monkeypatch.setattr(roup._Strang, "march", recording)

    def steps():
        out = {}
        for line in log.read_text().splitlines():
            pid, n_steps, first = map(int, line.split())
            out.setdefault(pid, []).append((n_steps, first))
        return out

    return steps


def test_fanned_out_guard_raises_before_any_march(monkeypatch, forks, tmp_path):
    # chunks of 16, 16 and the empty Nyquist row; only the second, which
    # part 1 holds, is too coarse at dt = 0.5 (the first's error is about
    # 0.03), so part 1 raises on its guard and marches nothing, while part
    # 0 passes its guard into a march that would take a minute; this
    # process raises part 1's error as it comes and kills part 0
    run = _small_run(n_x=64, n_p=2048, t_final=10.0, dt=0.5)
    monkeypatch.setattr(kernels, "_cores", lambda: 1)
    with pytest.raises(StepSizeError) as one:
        roup.march(run)
    steps = _logging_strang_march(monkeypatch, tmp_path / "steps", run)
    march = roup._Strang.march

    def long(self, rows, Ks, n_steps, *args):
        march(self, rows, Ks, n_steps, *args)
        if n_steps > 2:
            time.sleep(60)

    monkeypatch.setattr(roup._Strang, "march", long)
    monkeypatch.setattr(kernels, "_cores", lambda: 2)
    started = time.perf_counter()
    with pytest.raises(StepSizeError) as fanned:
        roup.march(run)
    assert time.perf_counter() - started < 5
    assert str(fanned.value) == str(one.value)
    # the guard's one step and two half steps on each chunk; part 0 may
    # have begun its 20-step march before it was killed
    logged = steps()
    assert logged[forks[1]] == [(1, 16), (2, 16)]
    assert logged[forks[0]] in ([(1, 0), (2, 0)], [(1, 0), (2, 0), (20, 0)])
    assert len(forks) == 2 and all(_reaped(pid) for pid in forks)


def test_a_fanned_out_march_steps_only_in_its_children(monkeypatch, forks, tmp_path):
    # chunks of 16, 16 and 4 rows, dealt costliest first to 2 processes:
    # each guards all its chunks, then marches them; this one marches nothing
    run = _small_run(n_x=70, n_p=2048, t_final=0.05, dt=1e-3, times=[0.02, 0.05])
    steps = _logging_strang_march(monkeypatch, tmp_path / "steps", run)
    monkeypatch.setattr(kernels, "_cores", lambda: 2)
    roup.march(run)
    assert steps() == {forks[0]: [(1, 0), (2, 0), (1, 32), (2, 32), (50, 0), (50, 32)],
                       forks[1]: [(1, 16), (2, 16), (50, 16)]}


def test_no_child_is_left_when_the_parent_part_fails(monkeypatch, forks):
    # part 0 fails in its march while the other parts still march;
    # they are killed, and every child is reaped, before the error leaves march
    run = roup.Run(1.0, 0.05, 1e-3, (0.05,))
    march = roup._Strang.march

    def failing(self, rows, Ks, n_steps, *args):
        if Ks[0] == 0.0 and n_steps > 2:
            raise MemoryError("no room")
        march(self, rows, Ks, n_steps, *args)

    monkeypatch.setattr(roup._Strang, "march", failing)
    monkeypatch.setattr(kernels, "_cores", lambda: 3)
    with pytest.raises(MemoryError, match="no room"):
        roup.march(run)
    assert len(forks) == 3
    assert all(_reaped(pid) for pid in forks)


@pytest.mark.parametrize("read", [
    roup.symmetry_residual,
    lambda state: roup.reconstruct_density(state, refine=8),
], ids=["symmetry_residual", "reconstruct_density"])
def test_state_read_outs_work_in_row_blocks(read):
    # one standard-grid state is 32 chunks; row blocks keep each read-out
    # under 4 (about 2.5-2.8 measured), where whole-state temporaries took 65
    run = roup.Run(1.0, 0.5, 1e-3, (0.5,))
    state = roup.KineticState(run, 0.0, _initial_modes(run))
    assert _traced_peak(lambda: read(state))[1] <= 4 * _CHUNK_BYTES


@pytest.mark.parametrize("threads", [0, -3])
def test_evolve_all_rejects_nonpositive_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        roup.evolve_all(roup.RoupParams.standard(1.0, 0.5, n_x=8, n_p=64), 0.5, threads=threads)


def _textbook_strang(run, n_steps, snap_steps):
    """Per-step H C H with a dense Crank-Nicolson solve on the full grid, as a reference."""
    p_grid, dt = run.p_grid, run.dt
    v = roup.velocity(p_grid.points, run.Q)
    half = np.exp(0.5j * dt * np.outer(run.mode_wavenumbers, v))
    a = 0.5 * dt
    # apply_collision maps each row e_j to L e_j, the j-th column of L
    coll = apply_collision(np.eye(run.n_p), p_grid, run.Q).T
    lhs = np.eye(run.n_p) - a * coll
    F = _initial_modes(run)
    snaps = []
    for step in range(1, n_steps + 1):
        F = half * F
        rhs = F + a * apply_collision(F, p_grid, run.Q)
        F = half * np.linalg.solve(lhs, rhs.T).T
        if step in snap_steps:
            snaps.append(F.copy())
    return snaps


def test_evolve_all_matches_textbook_strang():
    run = _small_run(n_x=32, n_p=64, t_final=0.1, dt=2e-3, times=[0.05, 0.1])
    reference = _textbook_strang(run, 50, (25, 50))
    for state, ref in zip(roup.march(run), reference, strict=True):
        err = np.max(np.abs(state.modes - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12


def test_evolve_all_output_time_grid():
    states = roup.march(_small_run(n_x=64, n_p=256, t_final=0.2, dt=1e-3, times=[0.2, 0.1]))
    assert [s.time for s in states] == pytest.approx([0.1, 0.2])
    with pytest.raises(ValueError):
        _small_run(n_x=64, n_p=256, t_final=0.2, dt=1e-3, times=[0.25])
    with pytest.raises(ValueError):
        _small_run(n_x=64, n_p=256, t_final=0.2, dt=1e-3, times=[0.0501])


def test_initial_reconstruction_is_a_band_limited_delta():
    # the comb drops the Nyquist wave, so the peak loses 1/L and every
    # other site picks up an alternating +-1/L instead of exact zero
    run = _small_run()
    profile = roup.reconstruct_density(roup.KineticState(run, 0.0, _initial_modes(run)))
    dx = profile.x_grid.spacing
    length = run.length
    center = np.argmin(np.abs(profile.x_grid.points))
    assert profile.x_grid.points[center] == pytest.approx(0.0, abs=1e-12)
    expected_peak = (run.n_x - 1.0) / length
    assert profile.density[center] == pytest.approx(expected_peak, rel=1e-9)
    off_peak = np.delete(profile.density, center)
    assert np.max(np.abs(np.abs(off_peak) - 1.0 / length)) < 1e-9 / length
    mass = np.sum(profile.density) * dx
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_density_mass_and_causal_support():
    leak = {}
    for n_x in (128, 256):
        state = roup.march(_small_run(n_x=n_x, dt=0.5 / 400))[0]
        profile = roup.reconstruct_density(state)
        x = profile.x_grid.points
        mass = np.sum(profile.density) * profile.x_grid.spacing
        assert mass == pytest.approx(1.0, abs=1e-9)
        outside = np.abs(x) > 0.5 * 1.10
        leak[n_x] = np.max(np.abs(profile.density[outside])) / np.max(profile.density)
        # current is odd and vanishes at the origin
        center = np.argmin(np.abs(x))
        assert abs(profile.current[center]) < 1e-10 * np.max(np.abs(profile.current))
    # truncated-spectrum ringing bounds the acausal residue and dies
    # quickly under spatial refinement
    assert leak[128] < 2e-2
    assert leak[256] < 0.25 * leak[128]


def test_refined_reconstruction_interpolates_through_samples():
    state = roup.march(_small_run(n_x=64, n_p=256, t_final=0.3, dt=1e-3))[0]
    coarse = roup.reconstruct_density(state)
    fine = roup.reconstruct_density(state, refine=4)
    assert fine.x_grid.count == 4 * coarse.x_grid.count
    assert np.allclose(fine.density[::4], coarse.density, atol=1e-12)
    assert np.allclose(fine.current[::4], coarse.current, atol=1e-12)


def test_reconstruct_flags_corrupted_modes():
    run = _small_run(n_x=64, n_p=256, t_final=0.1, dt=1e-3)
    state = roup.march(run)[0]
    state.modes[3] += 1e-3 * np.exp(run.p_grid.points / run.p_max)
    with pytest.raises(SymmetryError):
        roup.reconstruct_density(state)


def _reference_reconstruction(state, refine):
    # the Hermitian extension built by hand, zero-padded with the real
    # Nyquist bin split between its two images, through the complex DFT
    run = state.run
    v = roup.velocity(run.p_grid.points, run.Q)
    m = run.n_x // 2
    n_fine = run.n_x * refine
    x_grid = Grid1D.periodic(run.length, n_fine)
    out = []
    for half in (quad(state.modes, run.p_grid), quad(state.modes * v, run.p_grid)):
        full = np.zeros(n_fine, dtype=complex)
        full[:m] = half[:m]
        full[n_fine - m + 1:] = np.conj(half[1:m][::-1])
        full[m] = full[n_fine - m] = half[m].real * (1.0 if refine == 1 else 0.5)
        k = 2.0 * np.pi * np.fft.fftfreq(n_fine, d=x_grid.spacing)
        twisted = full * np.exp(-1j * k * x_grid.lower)
        out.append((np.sqrt(2.0 * np.pi) / x_grid.period * np.fft.fft(twisted)).real)
    return out


@pytest.mark.parametrize("refine", [1, 4])
def test_reconstruct_density_matches_hand_built_hermitian_spectrum(refine):
    state = roup.march(_small_run(n_x=64, n_p=256, t_final=0.3, dt=1e-3))[0]
    state.modes[-1] = 0.5 * state.modes[0]  # a symmetric Nyquist mode, to test its split
    profile = roup.reconstruct_density(state, refine=refine)
    density, current = _reference_reconstruction(state, refine)
    assert profile.x_grid.count == 64 * refine
    assert np.max(np.abs(profile.density - density)) <= 1e-13 * np.max(np.abs(density))
    assert np.max(np.abs(profile.current - current)) <= 1e-13 * np.max(np.abs(current))


def test_reconstruct_flags_a_density_that_is_not_real():
    # the imaginary K = 0 integral is the one part hfft would drop silently;
    # this one keeps the symmetry residual at 5e-7, below its 1e-6 check
    run = _small_run(n_x=64, n_p=256, t_final=0.1, dt=1e-3)
    state = roup.march(run)[0]
    state.modes[0] += 1e-7j * roup.juttner(run.p_grid.points, run.Q)
    assert roup.symmetry_residual(state) == pytest.approx(5.0e-7, rel=1e-2)
    with pytest.raises(SymmetryError, match="not real"):
        roup.reconstruct_density(state)


def test_rescaled_profile_and_peak_refinement():
    grid = Grid1D.periodic(4.0, 400)
    t, Q = 2.0, 1.0
    xi_true = 0.35
    nu = np.exp(-((grid.points / (Q * t) - xi_true) ** 2) / 0.01)
    profile = roup.DensityProfile(grid, t, Q, nu / (Q * t), np.zeros(400))
    xi, nu_r = roup.rescaled_profile(profile)
    assert np.allclose(nu_r, nu)
    xi_peak, nu_peak = roup.peak_location(profile)
    assert xi_peak == pytest.approx(xi_true, abs=1e-4)
    assert nu_peak == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValueError):
        roup.rescaled_profile(roup.DensityProfile(grid, 0.0, Q, nu, nu))


def test_continuity_residual_small_and_validated():
    dt = 1e-3
    times = [0.5 - dt, 0.5, 0.5 + dt]
    states = roup.march(_small_run(n_x=128, t_final=0.5 + dt, dt=dt, times=times))
    profiles = [roup.reconstruct_density(s, refine=8) for s in states]
    res = roup.continuity_residual(profiles)
    assert 0.0 < res < 1e-2
    with pytest.raises(ValueError):
        roup.continuity_residual(profiles[:2])
    with pytest.raises(ValueError):
        roup.continuity_residual(profiles[::-1])
    coarse = roup.march(_small_run(n_x=64, n_p=256, t_final=0.5 + dt, dt=dt, times=[0.5 - dt]))
    mixed = [roup.reconstruct_density(coarse[0], refine=8)] + profiles[1:]
    with pytest.raises(ValueError):
        roup.continuity_residual(mixed)


def test_profile_csv_roundtrip(tmp_path):
    run = _small_run(n_x=64, n_p=256, t_final=0.2, dt=1e-3)
    profile = roup.reconstruct_density(roup.march(run)[0])
    path = tmp_path / "profile.csv"
    roup.write_profile_csv(profile, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape == (64,)
    assert np.allclose(data["N"], profile.density)
    assert np.allclose(data["xi"], profile.x_grid.points / (run.Q * 0.2))


@pytest.mark.parametrize("workers", [1, 3])
def test_march_runs_is_march_then_reconstruct_bitwise(fan_outs, workers):
    # three runs, four times and refines, one of them chunks of 16, 16
    # and a mixed 4; at 3 workers their units are dealt to 3 parts
    runs = [roup.Run(2.0, 0.3, 1e-2, (0.1, 0.2, 0.3), n_x=32, n_p=128, refine=4),
            roup.Run(1.0, 0.05, 1e-3, (0.05, 0.02), n_x=70, n_p=2048, refine=2),
            roup.Run(0.5, 0.2, 1e-2, (0.2,), n_x=64, n_p=256, refine=16)]
    found = roup.march_runs(runs, workers)
    assert [processes for processes, _ in fan_outs] == ([] if workers == 1 else [3])
    for run, profiles in zip(runs, found, strict=True):
        assert list(profiles) == sorted(run.times)
        for state, (t, profile) in zip(roup.march(run), profiles.items(), strict=True):
            expected = roup.reconstruct_density(state, refine=run.refine)
            assert profile.time == expected.time and profile.x_grid == expected.x_grid
            assert profile.density.tobytes() == expected.density.tobytes()
            assert profile.current.tobytes() == expected.current.tobytes()


def test_march_runs_deals_units_by_steps_times_cells(fan_outs):
    # a 50-step run of chunks of 16, 16 and 4 rows, and a 100-step run of
    # one chunk of 16 (and the empty Nyquist row alone, which is no unit),
    # on one momentum grid: the 100-step chunk goes first, then the 50-step
    # chunks to the least-loaded part, the 4-row chunk last
    runs = [_small_run(n_x=70, n_p=2048, t_final=0.05, dt=1e-3),
            _small_run(n_x=32, n_p=2048, t_final=0.1, dt=1e-3)]
    roup.march_runs(runs, 2)
    assert fan_outs == [(2, [[3, 2], [0, 1]])]


def test_march_runs_holds_chunks_and_moments_not_states(monkeypatch):
    # 257 modes on 1024 momenta are 16 chunks of 32 rows and the empty
    # Nyquist row, marched here one after another; one full state would be
    # 16 chunks, where a chunk's scratch and its moments are a few
    monkeypatch.setattr(kernels, "_cores", lambda: 1)
    run = _small_run(n_x=512, n_p=1024, t_final=0.02, dt=2e-3, times=[0.02])
    _, peak = _traced_peak(lambda: roup.march_runs([run], 1))
    assert peak <= 12 * _CHUNK_BYTES < run.n_modes * run.n_p * 16


def test_march_runs_parts_each_hold_chunks_and_moments_not_states(monkeypatch):
    # the run above on two forked parts of 8 chunks each; each part traces
    # its own allocations and writes its pid and peak to shared memory,
    # in the row of its first chunk
    monkeypatch.setattr(kernels, "_cores", lambda: 2)
    run = _small_run(n_x=512, n_p=1024, t_final=0.02, dt=2e-3, times=[0.02])
    units = [(0, block) for block in roup._chunks(run)]
    peaks = kernels.shared_zeros((len(units), 2))
    run_parts = kernels.run_parts

    def traced(fn, jobs, workers, costs):
        def part(jobs):
            out, peak = _traced_peak(lambda: fn(jobs))
            peaks[units.index(jobs[0])] = os.getpid(), peak
            return out
        return run_parts(part, jobs, workers, costs)

    monkeypatch.setattr(kernels, "run_parts", traced)
    roup.march_runs([run], 2)
    pids, part_peaks = peaks[peaks[:, 0] > 0].T
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert max(part_peaks) <= 12 * _CHUNK_BYTES < run.n_modes * run.n_p * 16


def test_march_run_keys_each_profile_by_its_own_time():
    # march returns its states in ascending time, whatever order the run lists
    shuffled, ascending = roup.march_runs([roup.Run(1.0, 0.2, 0.01, (0.2, 0.1), 64, 128, 2),
                                           roup.Run(1.0, 0.2, 0.01, (0.1, 0.2), 64, 128, 2)], 1)
    assert list(shuffled) == [0.1, 0.2]
    for t, profile in shuffled.items():
        assert profile.time == pytest.approx(t)
        assert profile.density.tobytes() == ascending[t].density.tobytes()


# ------------------------------------------------- benchmark seams on march


def test_evolve_all_seam_is_march_bitwise():
    params = roup.RoupParams.standard(1, 0.05, n_x=16, n_p=64)
    seam = roup.evolve_all(params, 0.05, dt=1e-3, output_times=[0.0, 0.05], threads=1)
    marched = roup.march(roup.Run(1, 0.05, 1e-3, (0.0, 0.05), 16, 64))
    for a, b in zip(seam, marched, strict=True):
        assert a.run == b.run and a.time == b.time
        assert a.modes.tobytes() == b.modes.tobytes()


def test_initial_state_seam_is_the_rows_march_starts_from():
    run = roup.RoupParams.standard(1.0, 0.05, n_x=70, n_p=2048)
    assert run == roup.Run(1.0, 0.05, roup.default_dt(0.05), (0.05,), 70, 2048)
    state = roup.initial_state(run)
    assert state.time == 0.0
    assert state.modes.tobytes() == _initial_modes(run).tobytes()
    # march's snapshot at T = 0 copies the P > 0 half it starts from
    start = roup.march(dataclasses.replace(run, times=(0.0,)))[0]
    assert start.modes[:, 1024:].tobytes() == state.modes[:, 1024:].tobytes()


def test_evolve_all_seam_rejects_a_foreign_t_final():
    # the ring derives from t_final, so a march to another time is another run
    params = roup.RoupParams.standard(1.0, 0.5, n_x=8, n_p=64)
    with pytest.raises(ValueError, match="not the run's t_final"):
        roup.evolve_all(params, 0.2, dt=1e-3)
