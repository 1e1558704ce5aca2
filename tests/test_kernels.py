import math
import os
import pickle
import signal
import sys
import time

import numpy as np
import pytest

from relwalk import dirac, kernels, qwalk, roup
from relwalk.errors import SingularSystemError, StepSizeError
from relwalk.kernels import (
    BlockedLDL,
    Grid1D,
    _ldl_factor,
    count_steps,
    cumquad,
    fork_each,
    quad,
    run_jobs,
    shared_zeros,
    tridiag_solve,
)


# ---------------------------------------------------------------- Grid1D


def test_grid_spacing_and_points():
    g = Grid1D(0.0, 1.0, 11)
    assert g.spacing == pytest.approx(0.1)
    assert np.allclose(g.points, np.arange(11) * 0.1)


def test_grid_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        Grid1D(2.0, 1.0, 5)


def test_periodic_grid_tiles_one_period():
    g = Grid1D.periodic(16.0, 32)
    assert g.spacing == pytest.approx(0.5)
    assert g.period == pytest.approx(16.0)
    assert g.lower == pytest.approx(-8.0)
    # last sample one spacing short of the wrap point
    assert g.upper == pytest.approx(8.0 - 0.5)


# ---------------------------------------------------------------- quad


def test_quad_constant():
    g = Grid1D(0.0, 2.0, 21)
    assert quad(np.ones(21), g) == pytest.approx(2.0, abs=1e-14)


def test_quad_is_trapezoid_on_any_count():
    for count in (10, 11):
        g = Grid1D(0.0, 1.0, count)
        x = g.points
        # trapezoid is exact for affine data, and is h**2/6 high for x**2
        assert quad(3.0 * x + 1.0, g) == pytest.approx(2.5, abs=1e-14)
        assert quad(x**2, g) - 1.0 / 3.0 == pytest.approx(g.spacing**2 / 6.0, rel=1e-12)


def test_quad_odd_function_cancels():
    g = Grid1D.symmetric(1.0, 201)
    assert quad(g.points**3, g) == pytest.approx(0.0, abs=1e-15)


def test_quad_length_mismatch():
    with pytest.raises(ValueError):
        quad(np.ones(5), Grid1D(0.0, 1.0, 11))


def test_quad_batched_rows():
    g = Grid1D(0.0, 1.0, 11)
    stacked = np.vstack([np.ones(11), g.points])
    out = quad(stacked, g)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.5)


# ---------------------------------------------------------------- cumquad


def test_cumquad_of_ones_is_coordinate():
    g = Grid1D(0.0, 1.0, 11)
    out = cumquad(np.ones(11), g)
    assert np.allclose(out, g.points, atol=1e-15)
    assert out[0] == 0.0


def test_cumquad_linear_gives_square():
    # trapezoid is exact for 2P, so the result is P**2 to rounding error,
    # comfortably inside the 1e-3 envelope asked of a 101-point grid
    g = Grid1D(0.0, 1.0, 101)
    out = cumquad(2.0 * g.points, g)
    assert np.max(np.abs(out - g.points**2)) < 1e-3
    assert np.allclose(out, g.points**2, atol=1e-14)


def test_cumquad_from_upper_mirrors():
    g = Grid1D(0.0, 1.0, 101)
    vals = np.cos(g.points)
    left = cumquad(vals, g, from_lower=True)
    right = cumquad(vals, g, from_lower=False)
    assert right[-1] == 0.0
    # left[i] + right[i] telescopes to the full integral
    assert np.allclose(left + right, left[-1], atol=1e-14)


def test_cumquad_final_entry_matches_quad_on_even_counts():
    # both are the trapezoid rule, so they agree to rounding
    rng = np.random.default_rng(3)
    g = Grid1D(0.0, 2.0, 64)
    vals = rng.normal(size=64)
    assert cumquad(vals, g)[-1] == pytest.approx(quad(vals, g), abs=1e-12)


def test_cumquad_odd_count_agrees_with_quad_at_second_order():
    # quad is the trapezoid rule on odd counts too, so the two agree to
    # rounding there, and both converge to the exact integral at O(h**2)
    exact = 0.5 * math.sqrt(math.pi) * math.erf(1.0)
    f = lambda x: np.exp(-(x**2))
    errors = []
    for count in (65, 257):
        g = Grid1D(0.0, 1.0, count)
        total = cumquad(f(g.points), g)[-1]
        assert total == pytest.approx(quad(f(g.points), g), abs=1e-12)
        errors.append(abs(total - exact))
    assert errors[1] < errors[0] / 8.0  # O(h**2) shrink, factor 16 expected


def test_cumquad_zeros():
    g = Grid1D(0.0, 1.0, 11)
    assert np.all(cumquad(np.zeros(11), g) == 0.0)


# ---------------------------------------------------------------- tridiag


def test_tridiag_identity():
    rhs = np.array([1.0, 2.0, 3.0])
    x = tridiag_solve(np.zeros(2), np.ones(3), np.zeros(2), rhs)
    assert np.allclose(x, rhs, atol=1e-15)


def test_tridiag_forward_multiply_oracle():
    # b is produced by explicit multiplication with tridiag(-1, 2, -1),
    # so the solve must reproduce the generating vector
    rng = np.random.default_rng(42)
    n = 200
    x0 = rng.normal(size=n)
    sub = -np.ones(n - 1)
    sup = -np.ones(n - 1)
    diag = 2.0 * np.ones(n)
    b = diag * x0
    b[:-1] += sup * x0[1:]
    b[1:] += sub * x0[:-1]
    x = tridiag_solve(sub, diag, sup, b)
    assert np.max(np.abs(x - x0)) < 1e-10


def test_tridiag_complex_and_multi_rhs():
    rng = np.random.default_rng(9)
    n = 64
    sub = rng.normal(size=n - 1) * 0.1
    sup = rng.normal(size=n - 1) * 0.1
    diag = 2.0 + rng.normal(size=n) * 0.1
    x0 = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    b = diag[:, None] * x0
    b[:-1] += sup[:, None] * x0[1:]
    b[1:] += sub[:, None] * x0[:-1]
    x = tridiag_solve(sub, diag, sup, b)
    assert x.shape == (n, 3)
    assert np.max(np.abs(x - x0)) < 1e-11


def _bands(kind, rng, n):
    # strictly diagonally dominant, so every kind is well conditioned
    diag = rng.uniform(2.5, 3.5, size=n)
    sub = rng.uniform(-1.0, 1.0, size=n - 1)
    if kind == "general":
        return sub, diag, rng.uniform(-1.0, 1.0, size=n - 1)
    if kind == "indefinite":
        # symmetric, but with negative pivots
        diag[::2] *= -1.0
    return sub, diag, sub.copy()


def test_tridiag_keeps_rhs_and_ignores_its_layout():
    # a C-ordered (n, k) rhs and the transpose of a C-ordered (k, n) stack
    # must give the same bits and stay untouched, for each kind of matrix
    rng = np.random.default_rng(4)
    n, k = 50, 6
    for kind in ("general", "spd", "indefinite"):
        sub, diag, sup = _bands(kind, rng, n)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        for dtype in (float, complex):
            stack = rng.normal(size=(k, n)).astype(dtype)
            if dtype is complex:
                stack += 1j * rng.normal(size=(k, n))
            c_rhs = np.ascontiguousarray(stack.T)
            saved = stack.copy()
            x_f = tridiag_solve(sub, diag, sup, stack.T)
            x_c = tridiag_solve(sub, diag, sup, c_rhs)
            assert np.array_equal(stack, saved)
            assert np.array_equal(c_rhs, saved.T)
            assert np.array_equal(x_f, x_c)
            assert x_f.dtype == np.dtype(dtype)
            reference = np.linalg.solve(dense, c_rhs)
            assert np.max(np.abs(x_f - reference)) <= 1e-13 * np.max(np.abs(reference))
            column = tridiag_solve(sub, diag, sup, c_rhs[:, 0])
            assert np.array_equal(column, x_f[:, 0])


def _scratch(step):
    # the arrays a stepper's step closes over, by name
    return dict(zip(step.__code__.co_freevars, (c.cell_contents for c in step.__closure__)))


def _check_blocked_ldl(diag, off, rng):
    ldl = BlockedLDL(diag, off)
    n, nb = diag.size, -(-diag.size // 16)
    assert ldl.rows % 16 == 0 and n <= ldl.rows < n + 16
    assert ldl.shape == (ldl.rows // 16, 18)
    dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    # rows spanning 1 to 1e-12, like the tails of the symmetric frame
    tails = np.logspace(0.0, -12.0, n)[:, None]
    for cols, scale in ((1, 1.0), (32, 1.0), (32, tails)):
        rhs = scale * rng.normal(size=(n, cols))
        b = ldl.pad(rhs)
        assert b.shape == ldl.shape + (cols,) and np.array_equal(ldl.unpad(b), rhs)
        out = np.full_like(b, np.nan)
        step = ldl.stepper(cols)
        step(b, out)
        # the rows of b are kept; its carry slots are scratch
        assert np.array_equal(ldl.unpad(b), rhs)
        assert np.all(out[:, :16].reshape(ldl.rows, cols)[n:] == 0.0)
        # the step is (A^-1 - I) b
        reference = np.linalg.solve(dense, rhs)
        err = np.max(np.abs(ldl.unpad(out) + rhs - reference))
        assert err <= 1e-13 * np.max(np.abs(reference))
        # only the edge pairs of the nb blocks are written, never the halo
        edges = _scratch(step)["written"].base
        assert not edges[:ldl._band].any() and not edges[ldl._band + nb:].any()


def _barely_dominant(sub):
    # the carries reach across many blocks
    return np.abs(np.append(sub, 0.0)) + np.abs(np.insert(sub, 0, 0.0)) + 0.05, sub


@pytest.mark.parametrize("n", [3, 15, 16, 17, 1024])
def test_blocked_ldl_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    sub, diag, _ = _bands("spd", rng, n)
    _check_blocked_ldl(diag, sub, rng)
    _check_blocked_ldl(*_barely_dominant(sub), rng)


def _front_crank_nicolson(n_p=2048):
    # the symmetric-frame P > 0 matrix that roup factors for Q = 1, dt = 1e-3
    p_grid = roup.Run(1.0, 0.5, 1e-3, (0.5,), n_p=n_p).p_grid
    lower, diag, upper = roup._collision_bands(p_grid, 1.0)
    h, a = p_grid.count // 2, 0.5e-3
    mid = 0.5 - 0.5 * a * diag[h:]
    mid[0] -= 0.5 * a * lower[h - 1]
    off = -0.5 * a * np.sqrt(lower[h:] * upper[h:])
    return mid, off


def test_blocked_ldl_on_the_front_crank_nicolson_matrix():
    _check_blocked_ldl(*_front_crank_nicolson(), np.random.default_rng(7))


def _unpacked(ldl):
    """The (nb, 2, nb, 2) carries the tiles of ldl hold, and what they hold outside them."""
    nb, tile, band = ldl.shape[0], ldl._tile, ldl._band
    tiles = ldl._tiles.reshape(-1, tile, 2, tile + 2 * band, 2)
    dense = np.zeros((len(tiles) * tile, 2, len(tiles) * tile + 2 * band, 2))
    for t, coefficients in enumerate(tiles):
        dense[t * tile:(t + 1) * tile, :, t * tile:(t + 1) * tile + 2 * band] = coefficients
    inside = dense[:nb, :, band:band + nb].copy()
    dense[:nb, :, band:band + nb] = 0.0
    return inside, dense


def _spd(n):
    sub, diag, _ = _bands("spd", np.random.default_rng(n), n)
    return diag, sub


_MATRICES = {
    "front": _front_crank_nicolson,
    "front 8192": lambda: _front_crank_nicolson(8192),
    "spd": lambda: _spd(1024),
    "barely dominant": lambda: _barely_dominant(_spd(1024)[1]),
    # too wide a band for tiles to halve the stored carries
    "barely dominant 256": lambda: _barely_dominant(_spd(256)[1]),
}


@pytest.mark.parametrize("matrix", list(_MATRICES))
def test_blocked_ldl_tiles_hold_every_carry_above_the_cut(matrix, monkeypatch):
    diag, off = _MATRICES[matrix]()
    ldl = BlockedLDL(diag, off)
    # uncut, the carries reach every block pair, so one tile holds them all
    with monkeypatch.context() as m:
        m.setattr(kernels, "_CUT", 0.0)
        whole = BlockedLDL(diag, off)
    nb = ldl.shape[0]
    assert whole._tiles.shape == (1, 2 * nb, 2 * nb)
    carries = whole._tiles[0].reshape(nb, 2, nb, 2)
    size = np.abs(carries).max(axis=(1, 3))
    kept = size >= np.finfo(float).eps ** 2 * size.max()
    rows, cols = np.nonzero(kept)
    inside, outside = _unpacked(ldl)
    assert np.array_equal(inside, carries * kept[:, None, :, None])
    assert not outside.any()
    if ldl._tile < nb:
        assert ldl._band == np.max(np.abs(rows - cols))


def test_one_tile_blocked_ldl_is_the_dense_carry_product():
    diag, off = _MATRICES["barely dominant 256"]()
    ldl = BlockedLDL(diag, off)
    rng = np.random.default_rng(5)
    nb, cols = ldl.shape[0], 32
    assert ldl._tiles.shape == (1, 2 * nb, 2 * nb) and ldl._band == 0
    b = ldl.pad(rng.normal(size=(diag.size, cols)))
    out = np.empty_like(b)
    ldl.stepper(cols)(b, out)
    expected = b.copy()
    edges = (ldl._edges @ b[:, :16]).reshape(2 * nb, cols)
    expected[:, 16:] = (ldl._tiles[0] @ edges).reshape(nb, 2, cols)
    assert np.array_equal(b, expected)
    assert np.array_equal(out[:, :16], ldl._step @ expected)


def test_blocked_ldl_carries_grow_linearly_with_the_grid():
    # n_p = 8192 on the front grid: 256 blocks, whose dense carries hold (2 nb)^2
    ldl = BlockedLDL(*_front_crank_nicolson(8192))
    nb = ldl.shape[0]
    assert nb == 256
    assert ldl._tiles.size <= (2 * nb) ** 2 // 4


def test_blocked_ldl_rejects_indefinite_matrices():
    sub, diag, _ = _bands("indefinite", np.random.default_rng(5), 40)
    with pytest.raises(SingularSystemError):
        BlockedLDL(diag, sub)


def test_ldl_factor_matches_dpttrf_bitwise_on_the_front_matrix():
    dpttrf = pytest.importorskip("scipy.linalg.lapack").dpttrf
    mid, off = _front_crank_nicolson()
    d_ref, e_ref, info = dpttrf(mid, off)
    assert info == 0
    d, e = _ldl_factor(mid, off)
    assert np.array_equal(d, d_ref) and np.array_equal(e, e_ref)


@pytest.mark.parametrize("row", [0, 1, 7, 39])
def test_ldl_factor_names_the_first_bad_pivot_like_dpttrf(row):
    # a zero diagonal entry makes that pivot zero (row 0) or negative
    dpttrf = pytest.importorskip("scipy.linalg.lapack").dpttrf
    sub, diag, _ = _bands("spd", np.random.default_rng(row), 40)
    diag[row] = 0.0
    info = dpttrf(diag, sub)[2]
    assert info == row + 1
    with pytest.raises(SingularSystemError, match=f"pivot {info} "):
        _ldl_factor(diag, sub)
    with pytest.raises(SingularSystemError, match=f"pivot {info} "):
        BlockedLDL(diag, sub)


def test_tridiag_tiny_systems():
    x = tridiag_solve(np.array([1.0]), np.array([2.0, 3.0]), np.array([0.5]),
                      np.array([2.5, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-15)
    x = tridiag_solve(np.zeros(0), np.array([4.0]), np.zeros(0), np.array([2.0]))
    assert np.array_equal(x, [0.5])
    with pytest.raises(SingularSystemError):
        tridiag_solve(np.zeros(1), np.zeros(2), np.zeros(1), np.ones(2))


def test_tridiag_singular_raises():
    with pytest.raises(SingularSystemError):
        tridiag_solve(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))


def test_tridiag_shape_checks():
    with pytest.raises(ValueError):
        tridiag_solve(np.zeros(3), np.ones(3), np.zeros(2), np.ones(3))
    with pytest.raises(ValueError):
        tridiag_solve(np.zeros(2), np.ones(3), np.zeros(2), np.ones(4))


# ------------------------------------------------------------- step counts


def test_count_steps():
    assert count_steps(1.0, 0.1) == 10
    assert count_steps(0.0, 0.1) == 0
    for t_final, dt in ((1.0, 0.0), (-0.1, 0.1), ((50.0 + 1e-7) * 0.1, 0.1)):
        with pytest.raises(ValueError):
            count_steps(t_final, dt)


def test_every_stepper_rejects_fractional_step_counts():
    dt = 0.1
    t_final = 50.1 * dt
    packet = dirac.gaussian_packet(Grid1D.periodic(16.0, 160))
    jet = qwalk.JetSpec()
    callers = [
        lambda: qwalk.run_walk(jet, dt, t_final, packet),
        lambda: dirac.solve_dirac(dirac.DiracCoefficients.from_jet(jet), packet,
                                  t_final, dt),
        lambda: roup.Run(1.0, t_final, dt, (), 16, 64),
        lambda: roup.Run(1.0, 60 * dt, dt, (t_final,), 16, 64),
    ]
    for call in callers:
        with pytest.raises(ValueError, match="not an integer number of steps"):
            call()


# ---------------------------------------------------------------- fan-out


def test_run_jobs_takes_costliest_first_and_returns_in_job_order(fan_outs):
    jobs = [(2, k) for k in range(5)]
    assert run_jobs(pow, jobs, 2, [1, 5, 3, 5, 2]) == [1, 2, 4, 8, 16]
    # costliest first to the least-loaded part; ties keep their job order
    assert fan_outs == [(2, [[1, 2], [3, 4, 0]])]


def test_run_jobs_deals_each_job_to_the_least_loaded_part(fan_outs):
    costs = [400, 200, 100, 50]
    done = run_jobs(lambda cost: (cost, os.getpid()), [(cost,) for cost in costs], 2, costs)
    assert [cost for cost, _ in done] == costs
    # loads of 400 and 350, each part in its own child; dealt round-robin
    # they would be 500 and 250
    assert fan_outs == [(2, [[0], [1, 2, 3]])]
    pids = [pid for _, pid in done]
    assert len({*pids[1:]}) == 1 and len({*pids, os.getpid()}) == 3


def test_run_jobs_pool_is_capped_by_jobs_and_cores(fan_outs):
    run_jobs(pow, [(2, k) for k in range(3)], 8, [1] * 3)
    run_jobs(pow, [(2, k) for k in range(6)], 8, [1] * 6)
    assert [processes for processes, _ in fan_outs] == [3, 4]


def test_run_jobs_starts_no_pool_for_one_job_or_one_worker(fan_outs):
    assert run_jobs(pow, [(2, 3)], 4, [1]) == [8]
    assert run_jobs(pow, [(2, 1), (2, 2)], 1, [1, 2]) == [2, 4]
    assert run_jobs(pow, [], 4, []) == []
    assert fan_outs == []


def test_run_jobs_raises_a_job_error_here(fan_outs):
    with pytest.raises(ValueError, match="math domain error"):
        run_jobs(math.sqrt, [(4.0,), (-1.0,), (9.0,)], 2, [1, 1, 1])
    assert len(fan_outs) == 1


def _share_here():
    return kernels._share


def test_run_jobs_shares_the_usable_cores_between_runs(fan_outs):
    # one part: the one run may use min(workers, cores); parts split that
    assert run_jobs(_share_here, [()], 3, [1]) == [3]
    assert run_jobs(_share_here, [(), ()], 8, [1, 1]) == [2, 2]
    assert run_jobs(_share_here, [()] * 3, 8, [1] * 3) == [1] * 3
    assert [processes for processes, _ in fan_outs] == [2, 3]
    assert kernels._share is None


def _march_without_forking(run):
    def refuse():
        raise AssertionError("a forked run forked")

    os.fork = refuse  # in this forked part alone
    return kernels._share, roup.march_run(run)


def test_a_pool_worker_with_a_share_of_one_never_forks(fan_outs):
    # 33 modes on 1024 momenta: two chunks to march, which a share of two would split
    runs = [roup.Run(1.0, t, 1e-3, (t,), 64, 2048, 2) for t in (0.01, 0.02)]
    forked = run_jobs(_march_without_forking, [(run,) for run in runs], 2, [1, 1])
    assert fan_outs == [(2, [[0], [1]])]
    for (share, profiles), run in zip(forked, runs, strict=True):
        expected = roup.march_run(run)[run.t_final]
        assert share == 1
        assert profiles[run.t_final].density.tobytes() == expected.density.tobytes()


def test_fork_each_deals_the_items_round_robin_into_shared_memory():
    out = shared_zeros((7, 2))

    def fn(item):
        out[item] = item, os.getpid()
        return -item

    assert fork_each(fn, range(7), 3) == [-item for item in range(7)]
    assert out[:, 0].tolist() == list(range(7))
    # a child each takes items 0, 3 and 6, 1 and 4, and 2 and 5; this process none
    pids = out[:, 1].astype(int).tolist()
    assert all(len({*pids[part::3]}) == 1 for part in range(3))
    assert len(set(pids)) == 3 and os.getpid() not in pids


def test_fork_each_forks_no_more_children_than_items(forks):
    assert fork_each(lambda item: item * item, [3, 4], 8) == [9, 16]
    assert len(forks) == 2
    # one process, or one item, runs here
    assert fork_each(lambda item: os.getpid(), range(3), 1) == [os.getpid()] * 3
    assert fork_each(lambda item: os.getpid(), [0], 4) == [os.getpid()]
    assert len(forks) == 2


def _raising(errors):
    def fn(item):
        if item in errors:
            raise errors[item]
    return fn


def test_fork_each_raises_a_child_error_here_with_its_type():
    with pytest.raises(StepSizeError, match="too coarse"):
        fork_each(_raising({2: StepSizeError("too coarse")}), range(3), 3)
    # the error of the first failed part read, in part order
    with pytest.raises(KeyError, match="first"):
        fork_each(_raising({1: KeyError("first"), 2: ValueError("second")}), range(3), 3)
    with pytest.raises(ChildProcessError, match="wait status"):
        fork_each(lambda item: item and os.kill(os.getpid(), signal.SIGKILL), range(2), 2)
    # a result that cannot be pickled is its part's error
    with pytest.raises((AttributeError, pickle.PicklingError), match="(?i)pickle"):
        fork_each(lambda item: lambda: item, range(2), 2)


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_fork_each_kills_and_reaps_its_children_when_this_part_fails(forks):
    # this process fails while it waits, as on an interrupt: every child,
    # each sleeping 60 s, is killed and reaped before the error leaves
    def interrupt(signum, frame):
        raise OSError("this process failed")

    kept = signal.signal(signal.SIGALRM, interrupt)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(OSError, match="this process failed"):
            fork_each(lambda item: time.sleep(60), range(3), 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, kept)
    assert time.perf_counter() - started < 30
    assert len(forks) == 3 and all(_reaped(pid) for pid in forks)


def test_fork_each_raises_part_0s_error_while_the_other_parts_sleep(forks):
    caller = os.getpid()

    def fn(item):
        if os.getpid() == caller:
            raise AssertionError("a part ran in the caller")
        if item:
            time.sleep(60)
        raise OSError("part 0 failed")

    started = time.perf_counter()
    with pytest.raises(OSError, match="part 0 failed"):
        fork_each(fn, range(3), 3)
    assert time.perf_counter() - started < 30
    assert len(forks) == 3 and all(_reaped(pid) for pid in forks)


def test_fork_each_raises_a_later_parts_error_while_part_0_sleeps(forks):
    # part 0 would run 60 s, but part 1's error is raised as it arrives
    def fn(item):
        if item == 0:
            time.sleep(60)
        raise StepSizeError("part 1 failed")

    started = time.perf_counter()
    with pytest.raises(StepSizeError, match="part 1 failed"):
        fork_each(fn, range(2), 2)
    assert time.perf_counter() - started < 5
    assert len(forks) == 2 and all(_reaped(pid) for pid in forks)


def _ended(pid):
    """pid is gone, or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux's")
def test_a_killed_parts_own_children_end_with_it():
    # part 0 forks two children that would sleep 60 s; part 1 fails once
    # both have started, and killing part 0 must end them too
    grandchildren = shared_zeros(2)

    def sleep(item):
        grandchildren[item] = os.getpid()
        time.sleep(60)

    def fn(item):
        if item == 0:
            fork_each(sleep, range(2), 2)
        while not grandchildren.all():
            time.sleep(0.01)
        raise StepSizeError("part 1 failed")

    started = time.perf_counter()
    with pytest.raises(StepSizeError, match="part 1 failed"):
        fork_each(fn, range(2), 2)
    deadline = started + 5
    assert time.perf_counter() < deadline
    while not all(_ended(int(pid)) for pid in grandchildren):
        assert time.perf_counter() < deadline, "a killed part's children outlived it"
        time.sleep(0.01)


def test_fork_each_takes_a_killed_parts_whole_reply():
    # part 1 fails first, but a child it forked holds its pipe open, so its
    # reply is read only once part 2's error has made this process kill it
    holder = shared_zeros(1)

    def fn(item):
        if item == 1:
            if (pid := os.fork()) == 0:
                time.sleep(60)
                os._exit(0)
            holder[0] = pid
            raise KeyError("first")
        if item == 2:
            while not holder[0]:
                time.sleep(0.01)
            raise ValueError("second")

    started = time.perf_counter()
    try:
        with pytest.raises(KeyError, match="first"):
            fork_each(fn, range(3), 3)
        assert time.perf_counter() - started < 5
    finally:
        if holder[0]:
            os.kill(int(holder[0]), signal.SIGKILL)


def test_fork_each_keeps_item_order_whatever_part_ends_first():
    def fn(item):
        time.sleep(0.1 * (item % 3 == 0))
        return item, os.getpid()

    results = fork_each(fn, list(range(7)), 3)
    assert [item for item, _ in results] == list(range(7))
    assert len({pid for _, pid in results}) == 3


def test_fork_each_runs_every_part_here_without_os_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(kernels, "_cores", lambda: 4)
    items = []
    assert fork_each(items.append, range(5), 2) == [None] * 5
    assert items == [0, 1, 2, 3, 4]
    # so run_jobs marches its parts one after another here, in dealing order
    assert run_jobs(lambda k: items.append(k) or 2 ** k, [(k,) for k in range(4)], 2,
                    [1, 4, 2, 3]) == [1, 2, 4, 8]
    assert items[5:] == [1, 0, 3, 2]
