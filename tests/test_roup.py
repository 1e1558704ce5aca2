import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from relwalk import roup
from relwalk.errors import StepSizeError, SymmetryError, TailTruncationError
from relwalk.kernels import Grid1D, quad


def _small_params(Q=1.0, t_final=0.5, n_x=128, n_p=512):
    return roup.RoupParams.standard(Q, t_final, n_x=n_x, n_p=n_p)


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
        params = _small_params(Q=Q)
        f = roup.juttner(params.p_grid.points, Q)
        assert quad(f, params.p_grid) == pytest.approx(1.0, abs=1e-10)


def test_velocity_bounded_by_light_speed():
    # v -> Q as P -> inf, so light speed is Q in these units, not one
    p = np.linspace(-500.0, 500.0, 1001)
    for Q in (0.7, 2.0):
        v = roup.velocity(p, Q)
        assert np.all(np.abs(v) < Q)
        assert np.max(np.abs(v)) > 0.99 * Q
        assert np.all(np.diff(v) > 0.0)


def test_params_reject_thin_tails():
    with pytest.raises(TailTruncationError):
        roup.RoupParams(Q=1.0, p_max=5.0, n_p=512, length=1.0, n_x=128)


def test_params_reject_tails_past_the_symmetric_frame():
    # the marcher divides by weights of about exp(-tail/2), which underflow
    # past tail = 2 ln(1/tiny) = 1416.8; just inside, the state stays finite
    def params(tail):
        p_max = np.sqrt((1.0 + tail) ** 2 - 1.0)
        return roup.RoupParams(Q=1.0, p_max=p_max, n_p=64, length=1.0, n_x=8)

    with pytest.raises(TailTruncationError):
        params(1420.0)
    state = roup.evolve_all(params(1400.0), 0.01, dt=0.01)[0]
    assert np.all(np.isfinite(state.modes))


def test_params_reject_odd_counts():
    with pytest.raises(ValueError):
        roup.RoupParams(Q=1.0, p_max=40.0, n_p=511, length=1.0, n_x=128)
    with pytest.raises(ValueError):
        roup.RoupParams(Q=1.0, p_max=40.0, n_p=512, length=1.0, n_x=129)


def test_standard_params_hit_target_tail():
    params = roup.RoupParams.standard(1.0, 1.0)
    gamma = np.sqrt(1.0 + params.p_max**2)
    assert (gamma - 1.0) == pytest.approx(32.0, rel=1e-12)
    assert params.length == pytest.approx(3.0)


def test_collision_kills_equilibrium_exactly():
    for Q in (0.7, 1.0, 8.0):
        params = _small_params(Q=Q)
        f = roup.juttner(params.p_grid.points, Q)
        lf = roup.apply_collision(f, params.p_grid, Q)
        # fluxes are exponentially fitted, so this is pure rounding noise
        assert np.max(np.abs(lf)) < 1e-10 * np.max(f)


def test_collision_conserves_mass_for_any_state():
    params = _small_params()
    rng = np.random.default_rng(7)
    p = params.p_grid.points
    f = np.exp(-0.3 * p * p) * (1.0 + 0.2 * np.sin(3.0 * p)) + 0.01 * rng.random(p.size)
    lf = roup.apply_collision(f, params.p_grid, params.Q)
    # trapezoid weights equal the cell volumes, so the sum telescopes
    assert abs(quad(lf, params.p_grid)) < 1e-12 * np.max(np.abs(lf)) * params.p_max


def test_collision_matches_galilean_ou_generator():
    # Q -> inf limit: L F = d/dP(P F) + F'' with an O(1/Q^2) correction;
    # oracle is the closed form for a variance-2 Gaussian
    Q = 1e3
    params = roup.RoupParams.standard(Q, 1.0, n_p=2048)
    p = params.p_grid.points
    f = np.exp(-p * p / 4.0)
    expected = (0.5 - p * p / 4.0) * f
    lf = roup.apply_collision(f, params.p_grid, Q)
    assert np.max(np.abs(lf - expected)) < 5e-4 * np.max(np.abs(expected))


def test_collision_preserves_parity():
    params = _small_params()
    p = params.p_grid.points
    f = np.exp(-0.2 * p * p) * np.cos(p)
    lf = roup.apply_collision(f, params.p_grid, params.Q)
    assert np.allclose(lf, lf[::-1], atol=1e-12 * np.max(np.abs(lf)))


def test_collision_batched_rows():
    params = _small_params()
    p = params.p_grid.points
    stack = np.stack([np.exp(-p * p / 3.0), np.exp(-p * p / 5.0) * p])
    lf = roup.apply_collision(stack, params.p_grid, params.Q)
    for row_in, row_out in zip(stack, lf):
        assert np.allclose(row_out, roup.apply_collision(row_in, params.p_grid, params.Q))


def test_zero_mode_freezes_equilibrium():
    params = _small_params()
    f0 = roup.juttner(params.p_grid.points, params.Q).astype(complex)
    f1 = roup.evolve_mode(f0, 0.0, params.p_grid, params.Q, 0.5, 0.5 / 200)
    assert np.max(np.abs(f1 - f0)) < 1e-12 * np.max(np.abs(f0))


def test_zero_mode_relaxes_toward_equilibrium():
    params = _small_params()
    p = params.p_grid.points
    f_eq = roup.juttner(p, params.Q)
    shifted = roup.juttner_normalization(params.Q) * np.exp(
        -params.Q**2 * (roup.gamma_factor(p - 1.0, params.Q) - 1.0))
    shifted /= quad(shifted, params.p_grid)
    d0 = quad(np.abs(shifted - f_eq), params.p_grid)
    dist = []
    f = shifted.astype(complex)
    for _ in range(6):
        f = roup.evolve_mode(f, 0.0, params.p_grid, params.Q, 1.0, 1.0 / 200)
        dist.append(quad(np.abs(f.real - f_eq), params.p_grid))
    assert all(d2 < d1 for d1, d2 in zip(dist, dist[1:]))
    # the heavy equilibrium tails make the spectral gap well below one,
    # so six friction times only buy about a factor of twelve
    assert dist[-1] < 0.1 * d0
    # mass never leaks while relaxing
    assert quad(f.real, params.p_grid) == pytest.approx(1.0, abs=1e-10)


def test_mode_short_time_error_is_second_order():
    # exact solution approaches exp(+iKvT) F* with an O(T^2) defect, and
    # the integrator must reproduce it at that order; the phase sign
    # follows the exp(-iKX) inverse-transform kernel
    params = _small_params()
    p = params.p_grid.points
    v = roup.velocity(p, params.Q)
    f0 = roup.juttner(p, params.Q).astype(complex)
    K = 20.0
    errs = []
    for t in (0.02, 0.01):
        f = roup.evolve_mode(f0, K, params.p_grid, params.Q, t, t / 20.0)
        ref = f0 * np.exp(1j * K * v * t)
        errs.append(np.linalg.norm(f - ref))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_mode_guard_rejects_coarse_dt():
    params = _small_params()
    f0 = roup.juttner(params.p_grid.points, params.Q).astype(complex)
    with pytest.raises(StepSizeError):
        roup.evolve_mode(f0, 400.0, params.p_grid, params.Q, 1.0, 0.5)
    roup.evolve_mode(f0, 400.0, params.p_grid, params.Q, 0.01, 1e-3)


def test_mode_guard_ignores_rounding_level_split_rows():
    # the odd part of the sampled Juttner is rounding noise; measured
    # against its own norm its doubling error is O(1) on this grid, so the
    # guard must measure every split row against the norm of f0
    params = roup.RoupParams.standard(1.0, 10.0)
    f0 = roup.juttner(params.p_grid.points, 1.0).astype(complex)
    f = roup.evolve_mode(f0, 0.0, params.p_grid, 1.0, 0.05, 5e-3)
    assert np.max(np.abs(f - f0)) < 1e-12 * np.max(np.abs(f0))


def test_evolve_all_preserves_momentum_flip_symmetry():
    params = _small_params()
    states = roup.evolve_all(params, 0.5, dt=0.5 / 200)
    assert len(states) == 1
    assert states[0].time == pytest.approx(0.5)
    # only P > 0 is marched and P < 0 is its mirror image, so exactly zero
    assert roup.symmetry_residual(states[0]) == 0.0


def test_evolve_all_zero_mode_is_stationary():
    params = _small_params()
    state = roup.evolve_all(params, 0.5, dt=0.5 / 200)[0]
    expected = roup.juttner(params.p_grid.points, params.Q) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(state.modes[0] - expected)) < 1e-12


def test_evolve_all_skips_the_empty_nyquist_chunk_bitwise(monkeypatch):
    params = _small_params(n_x=64, n_p=2048, t_final=0.05)
    # 33 modes march as chunks of 16 and 16; the third chunk is the empty
    # Nyquist row alone, which is not marched and stays zero
    assert params.n_modes == 2 * (roup._CHUNK_CELLS // (params.n_p // 2)) + 1
    skipped = roup.evolve_all(params, 0.05, dt=1e-3, output_times=[0.0, 0.05])
    # a nonzero last row marches every chunk; rows never mix across
    # chunks, so the other rows come out bitwise the same
    initial = roup.initial_state(params).modes
    initial[-1] = initial[0]
    monkeypatch.setattr(roup, "_initial_rows", lambda _: initial.__getitem__)
    marched = roup.evolve_all(params, 0.05, dt=1e-3, output_times=[0.0, 0.05])
    for a, b in zip(skipped, marched, strict=True):
        assert a.modes[:-1].tobytes() == b.modes[:-1].tobytes()
        assert not a.modes[-1].any()
    assert marched[-1].modes[-1].any()
    assert roup.symmetry_residual(skipped[-1]) == 0.0


def test_zero_row_sharing_a_chunk_marches_to_zero():
    # 5 modes on 32 momenta are one chunk: the Nyquist row is marched with
    # the others and comes out zero, as the skipped chunk above is written
    params = _small_params(n_x=8, n_p=64)
    state = roup.evolve_all(params, 0.5, dt=0.5 / 200)[0]
    assert np.array_equal(state.modes[-1], np.zeros(params.n_p))
    assert state.modes[-2].any()


def test_initial_state_is_the_tiled_juttner_row_bitwise():
    params = _small_params(n_x=64, n_p=256)
    row = roup.juttner(params.p_grid.points, params.Q) / np.sqrt(2.0 * np.pi)
    expected = np.tile(row, (params.n_modes, 1)).astype(complex)
    expected[-1] = 0.0
    assert roup.initial_state(params).modes.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_x, n_p", [(130, 256), (70, 2048)])
def test_streamed_march_matches_the_materialized_initial_state_bitwise(n_x, n_p):
    # 66 modes on 128 momenta are one chunk, its empty Nyquist row marched
    # with the others; 36 modes on 1024 march as chunks of 16, 16 and 4,
    # the last one mixed. Built chunk by chunk, the initial rows must march
    # exactly as the rows of the whole initial state do.
    params = _small_params(n_x=n_x, n_p=n_p, t_final=0.05)
    dt = 1e-3
    streamed = roup.evolve_all(params, 0.05, dt=dt, output_times=[0.0, 0.02, 0.05])
    F = roup.initial_state(params).modes
    out = np.empty((3,) + F.shape, dtype=complex)
    roup._evolve_block(F.__getitem__, params.mode_wavenumbers,
                       roup._Strang(params.p_grid, params.Q, dt), 50, [0, 20, 50], out)
    for state, expected in zip(streamed, out, strict=True):
        assert np.array_equal(state.modes, expected)
        assert state.modes.tobytes() == expected.tobytes()


def test_evolve_all_guard_checks_every_chunk_before_any_march(monkeypatch):
    # 33 modes on 1024 momenta are chunks of 16, 16 and the empty Nyquist
    # row; dt = 0.5 is far too coarse for the fastest modes
    params = _small_params(n_x=64, n_p=2048, t_final=10.0)
    steps = []
    march = roup._Strang.march

    def recording(self, rows, Ks, n_steps, snap_steps, out):
        steps.append(n_steps)
        march(self, rows, Ks, n_steps, snap_steps, out)

    monkeypatch.setattr(roup._Strang, "march", recording)
    with pytest.raises(StepSizeError):
        roup.evolve_all(params, 10.0, dt=0.5)
    # one step and two half steps per chunk, and no 20-step march
    assert steps == [1, 2] * 3


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


def test_evolve_all_holds_its_snapshots_plus_chunk_scratch():
    # the initial rows, the guard's two results and the march's work arrays
    # are each at most two chunks (about 9.3 chunks at the peak); one state
    # here is 8 chunks, and a full-size initial state with full-size guard
    # results peaked 24 chunks above the snapshots
    params = _small_params(n_x=256, n_p=1024, t_final=0.02)
    states, peak = _traced_peak(
        lambda: roup.evolve_all(params, 0.02, dt=2e-3, output_times=[0.01, 0.02]))
    snapshots = sum(state.modes.nbytes for state in states)
    assert peak <= snapshots + 12 * _CHUNK_BYTES


@pytest.mark.parametrize("read", [
    roup.symmetry_residual,
    lambda state: roup.reconstruct_density(state, refine=8),
], ids=["symmetry_residual", "reconstruct_density"])
def test_state_read_outs_work_in_row_blocks(read):
    # one standard-grid state is 32 chunks; row blocks keep each read-out
    # under 4 (about 2.5-2.8 measured), where whole-state temporaries took 65
    state = roup.initial_state(roup.RoupParams.standard(1.0, 0.5))
    assert _traced_peak(lambda: read(state))[1] <= 4 * _CHUNK_BYTES


@pytest.mark.parametrize("threads", [0, -3])
def test_evolve_all_rejects_nonpositive_threads(threads):
    with pytest.raises(ValueError, match="threads"):
        roup.evolve_all(_small_params(n_x=8, n_p=64), 0.5, threads=threads)


def _textbook_strang(params, dt, n_steps, snap_steps, F=None, Ks=None):
    """Per-step H C H with a dense Crank-Nicolson solve on the full grid, as a reference.

    Rows F at wavenumbers Ks default to the initial state's modes.
    """
    p_grid = params.p_grid
    v = roup.velocity(p_grid.points, params.Q)
    Ks = params.mode_wavenumbers if Ks is None else Ks
    half = np.exp(0.5j * dt * np.outer(Ks, v))
    a = 0.5 * dt
    # apply_collision maps each row e_j to L e_j, the j-th column of L
    coll = roup.apply_collision(np.eye(params.n_p), p_grid, params.Q).T
    lhs = np.eye(params.n_p) - a * coll
    F = roup.initial_state(params).modes.copy() if F is None else F
    snaps = []
    for step in range(1, n_steps + 1):
        F = half * F
        rhs = F + a * roup.apply_collision(F, p_grid, params.Q)
        F = half * np.linalg.solve(lhs, rhs.T).T
        if step in snap_steps:
            snaps.append(F.copy())
    return snaps


def test_evolve_all_matches_textbook_strang():
    params = _small_params(n_x=32, n_p=64, t_final=0.1)
    dt = 2e-3
    reference = _textbook_strang(params, dt, 50, (25, 50))
    states = roup.evolve_all(params, 0.1, dt=dt, output_times=[0.05, 0.1])
    for state, ref in zip(states, reference, strict=True):
        err = np.max(np.abs(state.modes - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12


def test_evolve_mode_matches_full_grid_on_asymmetric_data():
    # the marcher keeps only P > 0, so evolve_mode must split data without
    # the momentum-flip symmetry into symmetric rows and recombine them
    params = _small_params(n_x=32, n_p=64, t_final=0.1)
    p = params.p_grid.points
    shifted = roup.juttner(p - 1.0, params.Q).astype(complex)
    dt = 2e-3
    for K in (0.0, 20.0):
        ref = _textbook_strang(params, dt, 50, (50,), F=shifted[None, :],
                               Ks=np.array([K]))[0][0]
        f = roup.evolve_mode(shifted, K, params.p_grid, params.Q, 0.1, dt)
        assert np.max(np.abs(f - ref)) / np.max(np.abs(ref)) <= 1e-12


def test_evolve_all_output_time_grid():
    params = _small_params(n_x=64, n_p=256)
    states = roup.evolve_all(params, 0.2, dt=1e-3, output_times=[0.1, 0.2])
    assert [s.time for s in states] == pytest.approx([0.1, 0.2])
    with pytest.raises(ValueError):
        roup.evolve_all(params, 0.2, dt=1e-3, output_times=[0.25])
    with pytest.raises(ValueError):
        roup.evolve_all(params, 0.2, dt=1e-3, output_times=[0.0501])


def test_initial_reconstruction_is_a_band_limited_delta():
    # the comb drops the Nyquist wave, so the peak loses 1/L and every
    # other site picks up an alternating +-1/L instead of exact zero
    params = _small_params()
    profile = roup.reconstruct_density(roup.initial_state(params))
    dx = profile.x_grid.spacing
    length = params.length
    center = np.argmin(np.abs(profile.x_grid.points))
    assert profile.x_grid.points[center] == pytest.approx(0.0, abs=1e-12)
    expected_peak = (params.n_x - 1.0) / length
    assert profile.density[center] == pytest.approx(expected_peak, rel=1e-9)
    off_peak = np.delete(profile.density, center)
    assert np.max(np.abs(np.abs(off_peak) - 1.0 / length)) < 1e-9 / length
    mass = np.sum(profile.density) * dx
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_density_mass_and_causal_support():
    leak = {}
    for n_x in (128, 256):
        params = _small_params(n_x=n_x)
        state = roup.evolve_all(params, 0.5, dt=0.5 / 400)[0]
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
    params = _small_params(n_x=64, n_p=256)
    state = roup.evolve_all(params, 0.3, dt=1e-3)[0]
    coarse = roup.reconstruct_density(state)
    fine = roup.reconstruct_density(state, refine=4)
    assert fine.x_grid.count == 4 * coarse.x_grid.count
    assert np.allclose(fine.density[::4], coarse.density, atol=1e-12)
    assert np.allclose(fine.current[::4], coarse.current, atol=1e-12)


def test_reconstruct_flags_corrupted_modes():
    params = _small_params(n_x=64, n_p=256)
    state = roup.evolve_all(params, 0.1, dt=1e-3)[0]
    state.modes[3] += 1e-3 * np.exp(params.p_grid.points / params.p_max)
    with pytest.raises(SymmetryError):
        roup.reconstruct_density(state)


def _reference_reconstruction(state, refine):
    # the Hermitian extension built by hand, zero-padded with the real
    # Nyquist bin split between its two images, through the complex DFT
    params = state.params
    v = roup.velocity(params.p_grid.points, params.Q)
    m = params.n_x // 2
    n_fine = params.n_x * refine
    x_grid = Grid1D.periodic(params.length, n_fine)
    out = []
    for half in (quad(state.modes, params.p_grid), quad(state.modes * v, params.p_grid)):
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
    params = _small_params(n_x=64, n_p=256)
    state = roup.evolve_all(params, 0.3, dt=1e-3)[0]
    state.modes[-1] = 0.5 * state.modes[0]  # a symmetric Nyquist mode, to test its split
    profile = roup.reconstruct_density(state, refine=refine)
    density, current = _reference_reconstruction(state, refine)
    assert profile.x_grid.count == 64 * refine
    assert np.max(np.abs(profile.density - density)) <= 1e-13 * np.max(np.abs(density))
    assert np.max(np.abs(profile.current - current)) <= 1e-13 * np.max(np.abs(current))


def test_reconstruct_flags_a_density_that_is_not_real():
    # the imaginary K = 0 integral is the one part hfft would drop silently;
    # this one keeps the symmetry residual at 5e-7, below its 1e-6 check
    params = _small_params(n_x=64, n_p=256)
    state = roup.evolve_all(params, 0.1, dt=1e-3)[0]
    state.modes[0] += 1e-7j * roup.juttner(params.p_grid.points, params.Q)
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
    params = _small_params(n_x=128)
    dt = 1e-3
    times = [0.5 - dt, 0.5, 0.5 + dt]
    states = roup.evolve_all(params, 0.5 + dt, dt=dt, output_times=times)
    profiles = [roup.reconstruct_density(s, refine=8) for s in states]
    res = roup.continuity_residual(profiles)
    assert 0.0 < res < 1e-2
    with pytest.raises(ValueError):
        roup.continuity_residual(profiles[:2])
    with pytest.raises(ValueError):
        roup.continuity_residual(profiles[::-1])
    coarse = roup.evolve_all(_small_params(n_x=64, n_p=256), 0.5 + dt, dt=dt,
                             output_times=[0.5 - dt])
    mixed = [roup.reconstruct_density(coarse[0], refine=8)] + profiles[1:]
    with pytest.raises(ValueError):
        roup.continuity_residual(mixed)


def test_profile_csv_roundtrip(tmp_path):
    params = _small_params(n_x=64, n_p=256)
    state = roup.evolve_all(params, 0.2, dt=1e-3)[0]
    profile = roup.reconstruct_density(state)
    path = tmp_path / "profile.csv"
    roup.write_profile_csv(profile, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape == (64,)
    assert np.allclose(data["N"], profile.density)
    assert np.allclose(data["xi"], profile.x_grid.points / (params.Q * 0.2))


def test_march_run_is_evolve_all_then_reconstruct_bitwise():
    run = roup.Run(2.0, 0.3, 1e-2, (0.1, 0.2, 0.3), n_x=32, n_p=128, refine=4)
    profiles = roup.march_run(run)
    assert list(profiles) == [0.1, 0.2, 0.3]
    params = roup.RoupParams.standard(2.0, 0.3, n_x=32, n_p=128)
    states = roup.evolve_all(params, 0.3, dt=1e-2, output_times=[0.1, 0.2, 0.3])
    for state, (t, profile) in zip(states, profiles.items()):
        expected = roup.reconstruct_density(state, refine=4)
        assert profile.time == expected.time and profile.x_grid == expected.x_grid
        assert profile.density.tobytes() == expected.density.tobytes()
        assert profile.current.tobytes() == expected.current.tobytes()
    assert run.cost == 30 * 17 * 128  # steps times cells
