import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pseudopde import core, mild
from pseudopde.core import LipschitzDriver, ProblemSpec, SpaceTimeGrid
from pseudopde.errors import ConfigurationError, NumericalError
from pseudopde.mild import (
    PicardConfig,
    mild_residuals,
    picard_solve,
    update_u,
    update_v_variance,
    update_v_volterra,
)
from pseudopde.processes import Diffusion
from pseudopde.semigroup import build_cache

from cell_reference import terminal_expectation, terminal_plus_running


def brownian():
    return Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 1.0)


def zero_driver():
    return LipschitzDriver(fn=lambda t, x, y, z: np.zeros(np.atleast_2d(x).shape[0]))


@pytest.fixture(scope="module")
def grid():
    return SpaceTimeGrid.regular(1.0, 10, -4.0, 4.0, 9)


@pytest.fixture(scope="module")
def bm_cache(grid):
    return build_cache(brownian(), grid, 8000, master_seed=2024)


@pytest.fixture(scope="module")
def square_problem():
    return ProblemSpec(
        generator=brownian(), driver=zero_driver(),
        terminal_g=lambda p: p[:, 0] ** 2,
    )


def test_picard_config_validation():
    with pytest.raises(ConfigurationError):
        PicardConfig(tolerance=0.0)
    with pytest.raises(ConfigurationError):
        PicardConfig(max_iterations=0)
    with pytest.raises(ConfigurationError):
        PicardConfig(v_scheme="secant")


def _assert_one_sweep_fixed_point(sol, problem, cache):
    # z-free: the solve stops after one sweep, and one more sweep reproduces it
    assert sol.converged and sol.iterations == 1 and len(sol.deltas) == 1
    again, _ = update_u(sol.v, problem, cache)
    assert np.max(np.abs(again - sol.u)) <= 1e-12 * sol.deltas[0]


def test_zero_driver_converges_in_one_update(square_problem, bm_cache):
    sol = picard_solve(square_problem, bm_cache, PicardConfig(tolerance=1e-9))
    _assert_one_sweep_fixed_point(sol, square_problem, bm_cache)
    est, _ = terminal_expectation(bm_cache, 0, 4, square_problem.g)
    assert sol.u[0, 4] == pytest.approx(est, rel=1e-14)


def test_z_free_solve_is_one_sweep_and_one_v_update(square_problem, bm_cache, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("update_u", "update_v_variance", "update_v_volterra"):
        monkeypatch.setattr(mild, name, counted(getattr(mild, name)))
    picard_solve(square_problem, bm_cache, PicardConfig(tolerance=1e-9))
    assert calls == ["update_u", "update_v_variance"]


def test_update_u_first_sweep_matches_gaussian_moment(square_problem, bm_cache, grid):
    zero = np.zeros((grid.n_times, bm_cache.n_nodes))
    u1, se = update_u(zero, square_problem, bm_cache)
    x0 = bm_cache.nodes[6, 0]
    assert abs(u1[0, 6] - (x0**2 + 1.0)) < 3 * se[0, 6]


def test_update_u_constant_driver_shift(bm_cache, grid):
    # f = 1 with the identity clock adds exactly T - s to the terminal part
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: np.ones(np.atleast_2d(x).shape[0])),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    zero = np.zeros((grid.n_times, bm_cache.n_nodes))
    u1, _ = update_u(zero, prob, bm_cache)
    u0, _ = update_u(zero, ProblemSpec(
        generator=brownian(), driver=zero_driver(),
        terminal_g=lambda p: p[:, 0] ** 2,
    ), bm_cache)
    for i, t in enumerate(grid.times):
        np.testing.assert_allclose(u1[i] - u0[i], 1.0 - t, atol=1e-12)


def test_update_u_zero_dynamics_reproduces_terminal(grid):
    frozen = Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.0)
    cache = build_cache(frozen, grid, 50, master_seed=3)
    prob = ProblemSpec(
        generator=frozen, driver=zero_driver(), terminal_g=lambda p: np.sin(p[:, 0]),
    )
    zero = np.zeros((grid.n_times, cache.n_nodes))
    u1, _ = update_u(zero, prob, cache)
    for i in range(grid.n_times):
        np.testing.assert_allclose(u1[i], np.sin(grid.nodes()[:, 0]), atol=1e-12)


@pytest.fixture(scope="module")
def linear_terminal_problem():
    return ProblemSpec(
        generator=brownian(), driver=zero_driver(), terminal_g=lambda p: p[:, 0],
    )


def test_volterra_recovers_unit_bracket(linear_terminal_problem, bm_cache, grid):
    # u(t,x) = x has bracket density 1 under unit volatility
    sol = picard_solve(linear_terminal_problem, bm_cache, PicardConfig(tolerance=1e-9))
    w, se_w, _ = update_v_volterra(sol.u, sol.v, linear_terminal_problem, bm_cache)
    inner = w[:7, 2:7]  # away from terminal carry row and boundary
    tol = np.maximum(3 * se_w[:7, 2:7] * 2 * np.maximum(inner, 0.5), 0.05)
    assert np.all(np.abs(inner**2 - 1.0) < tol)


def test_variance_recovers_unit_bracket(linear_terminal_problem, bm_cache):
    sol = picard_solve(linear_terminal_problem, bm_cache, PicardConfig(tolerance=1e-9))
    v = sol.v[:9, 2:7]
    assert np.max(np.abs(v - 1.0)) < 0.05


def test_v_schemes_agree_on_linear_terminal(linear_terminal_problem, bm_cache):
    sol = picard_solve(linear_terminal_problem, bm_cache, PicardConfig(tolerance=1e-9))
    v_var = sol.v
    v_vol, se_vol, _ = update_v_volterra(sol.u, sol.v, linear_terminal_problem, bm_cache)
    gap = np.abs(v_var[:9, 2:7] - v_vol[:9, 2:7])
    tol = np.maximum(3 * np.abs(se_vol[:9, 2:7]), 0.1 * np.max(np.abs(v_var)))
    assert np.all(gap < tol)


def test_constant_terminal_gives_zero_v(bm_cache, grid):
    prob = ProblemSpec(
        generator=brownian(), driver=zero_driver(),
        terminal_g=lambda p: np.full(p.shape[0], 2.0),
    )
    for scheme in ("volterra", "variance"):
        sol = picard_solve(prob, bm_cache, PicardConfig(tolerance=1e-9, v_scheme=scheme))
        np.testing.assert_allclose(sol.v, 0.0, atol=1e-6)


def test_zero_dynamics_gives_zero_v(grid):
    frozen = Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.0)
    cache = build_cache(frozen, grid, 50, master_seed=4)
    prob = ProblemSpec(
        generator=frozen, driver=zero_driver(), terminal_g=lambda p: np.sin(p[:, 0]),
    )
    for scheme in ("volterra", "variance"):
        sol = picard_solve(prob, cache, PicardConfig(tolerance=1e-9, v_scheme=scheme))
        # square roots of float dust from means of identical values remain
        np.testing.assert_allclose(sol.v, 0.0, atol=1e-6)


def test_variance_scheme_quadratic_bracket():
    # the one-step conditional variance rate of u(t,x) = x^2 at x = 2
    # approaches Gamma(u,u) = 4 x^2 = 16 with O(dt) bias
    dt = 0.005
    grid = SpaceTimeGrid.regular(dt, 1, -6.0, 6.0, 25)
    cache = build_cache(brownian(), grid, 100000, master_seed=6)
    prob = ProblemSpec(
        generator=brownian(), driver=zero_driver(), terminal_g=lambda p: p[:, 0] ** 2,
    )
    u_field = np.tile(grid.nodes()[:, 0] ** 2, (grid.n_times, 1))
    v_field, _, _ = update_v_variance(u_field, np.zeros_like(u_field), prob, cache)
    node = 16  # x = 2 on the 25-node grid over [-6, 6]
    assert abs(v_field[0, node] ** 2 - 16.0) / 16.0 < 0.10


def test_picard_deterministic_given_cache(square_problem, bm_cache):
    a = picard_solve(square_problem, bm_cache, PicardConfig(tolerance=1e-9))
    b = picard_solve(square_problem, bm_cache, PicardConfig(tolerance=1e-9))
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)
    assert a.deltas == b.deltas


def test_contraction_observable(bm_cache):
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    sol = picard_solve(prob, bm_cache, PicardConfig(max_iterations=8, tolerance=1e-3))
    _assert_one_sweep_fixed_point(sol, prob, bm_cache)
    assert sol.residuals.residual_1 <= 1e-10


def test_z_coupled_solve_contracts(bm_cache):
    # v enters each sweep from the previous iterate, so the deltas still shrink
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y) + 0.3 * z,
                               K_Y=0.5, K_Z=0.3),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    sol = picard_solve(prob, bm_cache, PicardConfig(max_iterations=8, tolerance=1e-6))
    deltas = sol.deltas
    assert len(deltas) >= 3
    assert all(deltas[k + 1] / deltas[k] <= 0.9 for k in range(len(deltas) - 1))


def test_terminal_row_is_exact(square_problem, bm_cache, grid):
    sol = picard_solve(square_problem, bm_cache, PicardConfig(tolerance=1e-9))
    np.testing.assert_array_equal(sol.u[-1].ravel(), square_problem.g(grid.nodes()))


def test_v_nonnegative_everywhere(square_problem, bm_cache):
    for scheme in ("volterra", "variance"):
        sol = picard_solve(square_problem, bm_cache, PicardConfig(tolerance=1e-9, v_scheme=scheme))
        assert np.all(sol.v >= 0.0)


def test_nonconvergence_is_flagged_not_raised(bm_cache):
    # only a z-coupled driver iterates, so only it can run out of iterations
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y) + 0.3 * z,
                               K_Y=0.5, K_Z=0.3),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    with pytest.warns(UserWarning, match="did not reach tolerance"):
        sol = picard_solve(prob, bm_cache, PicardConfig(max_iterations=1, tolerance=1e-9))
    assert not sol.converged


def test_nan_driver_raises_with_iteration(square_problem, bm_cache):
    bad = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: np.full(np.atleast_2d(x).shape[0], np.nan)),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    with pytest.raises(NumericalError):
        picard_solve(bad, bm_cache, PicardConfig(tolerance=1e-9))


def _constant_driver_problem(value):
    return ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: np.full(np.atleast_2d(x).shape[0], value)),
        terminal_g=lambda p: p[:, 0] ** 2,
    )


def test_infinite_driver_raises_naming_the_row(bm_cache, grid):
    # the backward sweep solves row N-1 first, so that row is named
    # and at once: the implicit solve stops at its first non-finite iterate, warning nothing
    zero = np.zeros((grid.n_times, bm_cache.n_nodes))
    with warnings.catch_warnings(), pytest.raises(
        NumericalError, match=f"u update .* in row {grid.n_times - 2}$"
    ):
        warnings.simplefilter("error")
        update_u(zero, _constant_driver_problem(np.inf), bm_cache)


def test_overflowing_increments_raise_in_the_v_update(bm_cache, grid):
    # finite u, but f dV ~ 1e199 squares past the float range: v must not come out inf
    zero = np.zeros((grid.n_times, bm_cache.n_nodes))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match="v update produced non-finite values in row 0$"
    ):
        update_v_variance(zero, zero, _constant_driver_problem(1e200), bm_cache)


def test_residual_of_perturbed_solution(square_problem, bm_cache, grid):
    # with f = -0.5 y a uniform +0.1 shift leaves at least 0.1 (1 - K_Y V(T))
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: -0.5 * np.asarray(y), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    sol = picard_solve(prob, bm_cache, PicardConfig(tolerance=1e-6, max_iterations=25))
    base = mild_residuals(sol.u, sol.v, prob, bm_cache)
    shifted = sol.u + 0.1
    res = mild_residuals(shifted, sol.v, prob, bm_cache)
    assert res.residual_1 >= 0.05
    assert base.residual_1 < res.residual_1


def test_residuals_zero_driver_at_fixed_point(square_problem, bm_cache):
    sol = picard_solve(square_problem, bm_cache, PicardConfig(tolerance=1e-12, max_iterations=4))
    assert sol.residuals.residual_1 <= max(1e-10, sol.residuals.stderr_floor_1 * 1e-6)


def test_cache_generator_mismatch_rejected(square_problem, grid):
    # fingerprint tokens distinguish coefficient functions across builds
    drift = lambda t, x: 1.0
    drift.fingerprint_token = "1"
    vol = lambda t, x: 1.0
    vol.fingerprint_token = "1"
    other = Diffusion(mu=drift, sigma=vol)
    cache = build_cache(other, grid, 50, master_seed=5)
    with pytest.raises(ConfigurationError):
        picard_solve(square_problem, cache, PicardConfig())


def test_picard_solve_rejects_a_noncontracting_row_solve(bm_cache):
    # K_Y dV = 10 * 0.1 = 1: the implicit solve at each node need not contract
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 10.0 * np.asarray(y), K_Y=10.0),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    with pytest.raises(ConfigurationError, match="finer grid"):
        picard_solve(prob, bm_cache, PicardConfig())


def test_row_solve_warns_once_when_it_hits_the_cap(bm_cache, grid):
    # K_Y dV = 0.99: 50 fixed-point steps leave each row short of 1e-12
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 9.9 * np.asarray(y), K_Y=9.9),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    with pytest.warns(UserWarning, match=r"implicit row solve of u did not converge within 50 "
                      r"iterations at 10 rows; worst at row \d+: last change \d") as record:
        update_u(np.zeros((grid.n_times, bm_cache.n_nodes)), prob, bm_cache)
    assert len(record) == 1


def test_flat_clock_suffix_sets_v_zero_with_warning(grid):
    from pseudopde.core import ClockV

    ts = np.linspace(0.0, 1.0, 201)
    clock = ClockV(kind="tabulated", times=ts, values=np.zeros_like(ts))
    cache = build_cache(brownian(), replace(grid, clock=clock), 64, master_seed=8)
    prob = ProblemSpec(
        generator=brownian(), driver=zero_driver(), terminal_g=lambda p: p[:, 0],
    )
    with pytest.warns(UserWarning):
        sol = picard_solve(prob, cache, PicardConfig(tolerance=1e-9))
    np.testing.assert_allclose(sol.v, 0.0, atol=1e-12)


@pytest.mark.parametrize("scheme", ["variance", "volterra"])
@pytest.mark.parametrize("flat_from", [0.9, 0.5])
def test_flat_clock_suffix_sets_v_zero(grid, scheme, flat_from):
    # V flat on [flat_from, 1]: no step with dV > 0 follows the rows from
    # flat_from on, so v there and on the terminal row is 0 with stderr 0
    from pseudopde.core import ClockV

    clock = ClockV(kind="tabulated", times=[0.0, flat_from, 1.0],
                   values=[0.0, flat_from, flat_from])
    cache = build_cache(brownian(), replace(grid, clock=clock), 200, master_seed=12)
    first = int(round(flat_from * 10))
    assert np.all(cache.grid.dvs[first:] == 0.0) and np.all(cache.grid.dvs[:first] > 0.0)
    with pytest.warns(UserWarning, match=r"dV = 0 on steps \[" + str(first)):
        sol = picard_solve(_chunk_problem("z_coupled"), cache, PicardConfig(v_scheme=scheme))
    assert np.all(sol.v[first:] == 0.0) and np.all(sol.v_stderr[first:] == 0.0)
    assert np.all(np.isfinite(sol.v)) and np.any(sol.v[:first] > 0.0)


def test_update_u_matches_per_cell_reference_on_2d_grid_with_flat_step():
    # block sweeps must reproduce the per-cell semigroup estimator bit for bit:
    # 2-d grid, a clock with one flat step (dV = 0), a driver in x, y and z
    from pseudopde.core import ClockV

    times = np.linspace(0.0, 1.0, 5)
    clock = ClockV(kind="tabulated", times=times, values=np.array([0.0, 0.3, 0.3, 0.7, 1.2]))
    grid = SpaceTimeGrid.regular(1.0, 4, [-2.0, -1.5], [2.0, 1.5], [3, 4], clock=clock)
    gen = Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.8, dimension=2)
    cache = build_cache(gen, grid, 64, master_seed=11)
    assert grid.dvs[1] == 0.0
    prob = ProblemSpec(
        generator=gen,
        driver=LipschitzDriver(
            fn=lambda t, x, y, z: np.sin(x[:, 0]) * x[:, 1] - 0.3 * y + 0.2 * z * (1.0 + t),
            K_Y=0.3, K_Z=0.4,
        ),
        terminal_g=lambda p: np.cos(p[:, 0]) + p[:, 1] ** 2,
    )
    xy = grid.nodes()
    u = np.stack([xy[:, 0] * xy[:, 1] + t for t in grid.times])
    v = np.stack([1.0 + 0.5 * np.abs(xy[:, 1]) + t for t in grid.times])

    def at(field, j, xs):
        return core._multilinear(grid.axes, field[j][None], core.bracket(grid.axes, xs))[0]

    def psi(j, xs):
        return prob.driver(grid.times[j], xs, at(u, j, xs), at(v, j, xs))

    n_t, n_nodes = grid.n_times, cache.n_nodes
    ref = np.empty((n_t, n_nodes))
    for i in range(n_t):
        for nd in range(n_nodes):
            ref[i, nd], _ = terminal_plus_running(cache, i, nd, prob.g, psi)

    res = mild_residuals(u, v, prob, cache)
    assert res.residual_1 == np.max(np.abs(u - ref))

    # update_u solves the rows backward: the terminal row is g at the nodes;
    # row i sums the steps j > i on the rows already solved, then solves its
    # diagonal y = B + f(t_i, x, y, v) dV_i at the nodes (none where dV_i = 0)
    back = np.zeros((n_t, n_nodes))
    back_se = np.zeros((n_t, n_nodes))
    back[-1] = prob.g(cache.nodes)
    nodes = cache.nodes
    for i in range(n_t - 2, -1, -1):
        def psi_later(j, xs, i=i):
            if j == i:
                return np.zeros(xs.shape[0])
            return prob.driver(grid.times[j], xs, at(back, j, xs), at(v, j, xs))

        for nd in range(n_nodes):
            back[i, nd], back_se[i, nd] = terminal_plus_running(cache, i, nd, prob.g, psi_later)
        if grid.dvs[i] > 0:
            b, y = back[i].copy(), back[i].copy()
            for _ in range(50):
                y_next = b + prob.driver(grid.times[i], nodes, y, v[i]) * grid.dvs[i]
                change, y = np.max(np.abs(y_next - y)), y_next
                if change < 1e-12:
                    break
            back[i] = y
    got, got_se = update_u(v, prob, cache)
    np.testing.assert_array_equal(got, back)
    np.testing.assert_array_equal(got_se, back_se)

    # v is not identified on the flat step: its row takes the next row's
    for update_v in (update_v_variance, update_v_volterra):
        with pytest.warns(UserWarning, match=r"dV = 0 on steps \[1\]"):
            v_new, v_se, _ = update_v(u, v, prob, cache)
        assert v_new[1].tobytes() == v_new[2].tobytes()
        assert v_se[1].tobytes() == v_se[2].tobytes()


def _chunk_problem(coupling):
    # z-free: update_u reads no v; z-coupled: it interpolates v beside u
    if coupling == "z_free":
        driver = LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y) + np.sin(x[:, 0]),
                                 K_Y=0.5)
    else:
        driver = LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y) + 0.3 * z,
                                 K_Y=0.5, K_Z=0.3)
    return ProblemSpec(generator=brownian(), driver=driver,
                       terminal_g=lambda p: p[:, 0] ** 2)


@pytest.mark.parametrize("coupling", ["z_free", "z_coupled"])
def test_sweeps_are_independent_of_the_chunk_size(coupling, bm_cache, grid, monkeypatch):
    # 9 nodes x 8,000 paths: the default chunk holds 4 nodes; a cap of 1 path
    # gives one node per chunk, and a cap of every path one chunk per block
    prob = _chunk_problem(coupling)
    x = grid.nodes()[:, 0]
    u = np.stack([x**2 + 1.0 - t for t in grid.times])
    v = np.stack([0.5 + np.abs(x) + t for t in grid.times])

    def outputs():
        u_next, u_se = update_u(v, prob, bm_cache)
        by_variance = update_v_variance(u, v, prob, bm_cache)
        by_volterra = update_v_volterra(u, v, prob, bm_cache)
        fields = [a.tobytes() for a in (u_next, u_se, *by_variance[:2], *by_volterra[:2])]
        return fields, by_variance[2], by_volterra[2], mild_residuals(u, v, prob, bm_cache)

    ref = outputs()
    for cap in (1, bm_cache.n_nodes * bm_cache.M):
        monkeypatch.setattr(core, "_CHUNK_POINTS", cap)
        assert outputs() == ref


def test_residual_sweep_holds_chunks_not_blocks():
    # 21 nodes x 5,000 paths: 105,000 positions per step, read 6 nodes at a
    # time; the block's terminal values (0.8 MiB) and a few chunk-sized
    # arrays read 2.8 MiB, where whole-block temporaries read 6.8 MiB
    grid = SpaceTimeGrid.regular(1.0, 4, -4.0, 4.0, 21)
    cache = build_cache(brownian(), grid, 5000, master_seed=9)
    prob = _chunk_problem("z_coupled")
    x = grid.nodes()[:, 0]
    u = np.stack([x**2 + 1.0 - t for t in grid.times])
    v = np.stack([0.5 + np.abs(x) + t for t in grid.times])
    mild_residuals(u, v, prob, cache)
    tracemalloc.start()
    try:
        mild_residuals(u, v, prob, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
