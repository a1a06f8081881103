import tracemalloc

import numpy as np
import pytest

from pseudopde import cli, core
from pseudopde.core import ClockV, SpaceTimeGrid
from pseudopde.errors import ConfigurationError, ResourceError
from pseudopde.processes import (
    Diffusion,
    DistributionalDrift,
    JumpDiffusion,
    JumpLaw,
    LevyKernel,
    Stable,
    simulate,
)
from pseudopde.semigroup import (
    ROWS_PER_PATH_SET,
    build_cache,
    cache_memory_estimate,
    chapman_kolmogorov_test,
    derive_cell_seed,
    rows_per_path_set,
)

from cell_reference import cell, running_expectation, terminal_expectation, terminal_plus_running


def brownian():
    return Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 1.0)


def zero_dynamics():
    return Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.0)


@pytest.fixture(scope="module")
def small_grid():
    return SpaceTimeGrid.regular(1.0, 2, -1.0, 1.0, 5)


@pytest.fixture(scope="module")
def bm_cache():
    grid = SpaceTimeGrid.regular(1.0, 20, -4.0, 4.0, 9)
    return build_cache(brownian(), grid, 20000, master_seed=17)


def test_cache_counts_cells(small_grid):
    cache = build_cache(brownian(), small_grid, 50, master_seed=1)
    assert sum(b.shape[1] // cache.M for b in cache.blocks.values()) == 3 * 5
    for i in range(3):
        # step-major: the steps of block i after its start, then its 5 nodes x 50 paths
        assert cache.blocks[i].shape == (2 - i, 5 * 50, 1)
        assert cache.index[i].shape == cache.blocks[i].shape
    assert cache.blocks[2].size == 0  # a path started at T has no step to store


@pytest.mark.parametrize("grid", [
    SpaceTimeGrid.regular(1.0, 4, -1.0, 1.0, 7),
    SpaceTimeGrid.regular(1.0, 3, [-1.0, -0.5], [1.0, 0.5], [4, 3]),
], ids=["1d", "2d"])
def test_cache_keeps_the_bracket_of_every_position(grid):
    gen = Diffusion(mu=lambda t, x: 0.0 * x, sigma=lambda t, x: 1.0, dimension=grid.dimension)
    cache = build_cache(gen, grid, 40, master_seed=3)
    outside = 0
    for i, block in cache.blocks.items():
        assert cache.index[i].dtype == np.uint8
        for k, ax in enumerate(grid.axes):
            want = core._bracket(ax, block[..., k])[0]
            np.testing.assert_array_equal(cache.index[i][..., k], want)
            outside += int(np.sum((block[..., k] < ax[0]) | (block[..., k] > ax[-1])))
    assert outside > 0  # the unit-variance paths leave the grid, so clamping is covered


def test_cache_memory_counts_positions_and_brackets(small_grid):
    cache = build_cache(brownian(), small_grid, 30, master_seed=4)
    stored = sum(a.nbytes for a in (*cache.blocks.values(), *cache.index.values()))
    assert cache.memory_bytes == cache_memory_estimate(small_grid, 30) == stored


def test_bracket_widens_past_256_nodes_per_axis():
    assert core.bracket_dtype((np.linspace(0.0, 1.0, 256),)) == np.uint8
    grid = SpaceTimeGrid.regular(1.0, 1, -1.0, 1.0, 257)
    cache = build_cache(zero_dynamics(), grid, 2, master_seed=5)
    assert all(index.dtype == np.uint16 for index in cache.index.values())
    # the paths stay on their nodes, so block 0 brackets every node up to the last
    np.testing.assert_array_equal(cache.index[0][0, :, 0], np.repeat(np.arange(257), 2))
    stored = sum(a.nbytes for a in (*cache.blocks.values(), *cache.index.values()))
    assert cache.memory_bytes == stored


def test_cache_counts_points_outside_the_grid():
    grid = SpaceTimeGrid.regular(1.0, 4, -1.0, 1.0, 5)
    cache = build_cache(brownian(), grid, 40, master_seed=6)
    # every path point, the start points included, as a per-cell simulation draws it
    points = np.concatenate([cell(cache, i, j)[:, :, 0].ravel()
                             for i in range(grid.n_times) for j in range(cache.n_nodes)])
    outside = int(np.count_nonzero((points < -1.0) | (points > 1.0)))
    assert outside > 0
    assert cache.out_of_bounds_fraction == outside / points.size


def test_cache_deterministic(small_grid):
    a = build_cache(brownian(), small_grid, 64, master_seed=5)
    b = build_cache(brownian(), small_grid, 64, master_seed=5)
    for i in a.blocks:
        assert np.array_equal(a.blocks[i], b.blocks[i])


def test_cache_thread_count_does_not_change_bits(small_grid):
    a = build_cache(brownian(), small_grid, 64, master_seed=5, threads=1)
    b = build_cache(brownian(), small_grid, 64, master_seed=5, threads=4)
    for i in a.blocks:
        assert np.array_equal(a.blocks[i], b.blocks[i])


def test_cache_preconditions(small_grid):
    with pytest.raises(ConfigurationError):
        build_cache(brownian(), small_grid, 0, master_seed=1)
    with pytest.raises(ResourceError, match=r"lower mild\.cache_paths.*coarser grid"
                       r".*raise mild\.memory_budget_mb"):
        build_cache(brownian(), small_grid, 10**7, master_seed=1, memory_budget_mb=1.0)


def _flat_step_clock(grid):
    # one flat step: dV = 0 between the second and third of the five grid times
    return ClockV(kind="tabulated", times=grid.times, values=np.array([0.0, 0.3, 0.3, 0.7, 1.2]))


def _distributional_drift():
    xs = np.linspace(-3.0, 3.0, 801)
    return DistributionalDrift(
        b_x=xs, b_values=np.abs(xs) * 0.3 - xs**2 / 8.0, sigma_fn=lambda v: 1.0 + 0.1 * np.sin(v),
    )


def _cache_generators():
    sde_1d = dict(mu=lambda t, x: -0.5 * x[:, 0] + np.sin(t),
                  sigma=lambda t, x: 0.6 + 0.2 * np.cos(x[:, 0]))
    laws = [
        JumpLaw(kind="two_point", param=0.4),
        JumpLaw(kind="gaussian", param=0.3),
        JumpLaw(kind="laplace", param=0.2),
        JumpLaw(kind="atoms", atoms=((0.5, 0.25), (-0.2, 0.75))),
    ]
    diffusion_2d = Diffusion(
        mu=lambda t, x: np.stack([np.sin(x[:, 1]), -0.3 * x[:, 0] * (1.0 + t)], axis=1),
        sigma=lambda t, x: np.stack([
            np.stack([0.5 + 0.1 * x[:, 0] ** 2, np.full(len(x), 0.2)], axis=1),
            np.stack([0.1 * np.cos(x[:, 1]), np.full(len(x), 0.7)], axis=1),
        ], axis=1),
        dimension=2,
    )
    return [
        pytest.param(diffusion_2d, id="diffusion-2d"),
        *(pytest.param(JumpDiffusion(levy=LevyKernel(rate=1.3, law=law), **sde_1d),
                       id=f"jump-{law.kind}") for law in laws),
        pytest.param(Stable(alpha=1.4, scale=0.7), id="stable"),
        pytest.param(_distributional_drift(), id="distributional-drift"),
    ]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("gen", _cache_generators())
def test_cache_cells_equal_per_cell_simulation(gen, threads):
    # every cell is the ensemble `simulate` draws from the cell's own key
    if gen.dimension == 2:
        grid = SpaceTimeGrid.regular(1.0, 4, [-1.0, -0.5], [1.0, 0.5], [3, 2])
    else:
        grid = SpaceTimeGrid.regular(1.0, 4, -1.5, 1.5, 4)
    clock = _flat_step_clock(grid)
    seed, M = 23, 16
    cache = build_cache(gen, grid, M, master_seed=seed, clock=clock, threads=threads)
    assert cache.dvs[1] == 0.0
    for i in range(grid.n_times):
        for j in range(cache.n_nodes):
            ref = simulate(gen, grid.times[i], cache.nodes[j], grid, M,
                           derive_cell_seed(seed, i, j), clock)
            np.testing.assert_array_equal(cell(cache, i, j), ref.paths)


def _generator_from_config(kind="diffusion", **section):
    """A generator built as the CLI builds it from its config section."""
    errors = []
    gen = cli._build_generator(kind, cli._Section(section, "generator", errors), 1, [-4.0, 4.0])
    assert not errors
    return gen


def _assert_cells_are_simulated(cache, gen, seed, clock=None):
    """Cell (i, node) holds the first n_t - i positions of the ensemble that
    ``simulate`` draws from (t_h, node) with key (seed, h, node), h the head
    row of i; each position's kept bracket is the one ``core._bracket`` finds."""
    grid = cache.grid
    per_set = cache.rows_per_path_set
    for i in range(grid.n_times):
        h = i - i % per_set
        for j in range(cache.n_nodes):
            ref = simulate(gen, grid.times[h], cache.nodes[j], grid, cache.M,
                           derive_cell_seed(seed, h, j), clock)
            np.testing.assert_array_equal(cell(cache, i, j), ref.paths[:, : grid.n_times - i])
        for k, ax in enumerate(grid.axes):
            want = core._bracket(ax, cache.blocks[i][..., k])[0]
            np.testing.assert_array_equal(cache.index[i][..., k], want)


def _one_row_per_path_set_cases():
    regular = SpaceTimeGrid.regular(1.0, 5, -1.5, 1.5, 4)
    uneven = SpaceTimeGrid(times=np.array([0.0, 0.1, 0.3, 0.35, 0.7, 1.0]),
                           space_min=[-1.5], space_max=[1.5], space_nodes=[4])
    ts = np.linspace(0.0, 1.0, 11)
    curved = ClockV(kind="tabulated", times=ts, values=ts**2)
    homogeneous = _generator_from_config(mu="-0.5*x1", sigma="0.8")
    return [
        pytest.param(_generator_from_config(mu="0.1*t"), regular, None, id="mu-reads-t"),
        pytest.param(brownian(), regular, None, id="bare-callable"),
        pytest.param(homogeneous, regular, curved, id="curved-clock"),
        pytest.param(homogeneous, uneven, None, id="uneven-grid"),
    ]


@pytest.mark.parametrize("gen, grid, clock", _one_row_per_path_set_cases())
def test_inhomogeneous_problems_simulate_every_row(gen, grid, clock):
    cache = build_cache(gen, grid, 12, master_seed=29, clock=clock)
    assert cache.rows_per_path_set == 1
    assert cache.stored_rows == grid.n_times * (grid.n_times - 1) // 2
    _assert_cells_are_simulated(cache, gen, 29, clock)
    blocks = [cache.blocks[i] for i in range(grid.n_times)]
    assert not any(np.shares_memory(a, b) for a, b in zip(blocks, blocks[1:]))


def test_time_homogeneity_is_read_from_the_generator():
    assert _generator_from_config(mu="0", sigma="1").time_homogeneous
    assert not _generator_from_config(mu="0.1*t").time_homogeneous
    assert not _generator_from_config(mu="0", sigma="1 + 0*t").time_homogeneous
    assert not brownian().time_homogeneous  # a bare callable may read t
    levy = {"rate": 1.0, "jump_law": {"kind": "two_point", "param": 0.3}}
    assert _generator_from_config("jump_diffusion", mu="-x1", levy=levy).time_homogeneous
    assert not _generator_from_config("jump_diffusion", sigma="exp(-t)", levy=levy).time_homogeneous
    assert Stable(alpha=1.5).time_homogeneous
    assert _distributional_drift().time_homogeneous


def test_uniform_steps_are_read_within_a_tolerance():
    gen = Stable(alpha=1.5)
    grid = SpaceTimeGrid.regular(1.0, 50, -1.0, 1.0, 3)
    dvs = core.v_increments(grid, ClockV())
    assert np.unique(np.diff(grid.times)).size > 1  # linspace steps differ in their last bits
    assert rows_per_path_set(gen, grid, dvs) == ROWS_PER_PATH_SET == 4
    assert rows_per_path_set(gen, grid, dvs * (1.0 + 1e-9 * (np.arange(50) == 7))) == 1
    bent = grid.times.copy()
    bent[20] += 1e-9
    uneven = SpaceTimeGrid(times=bent, space_min=[-1.0], space_max=[1.0], space_nodes=[3])
    assert rows_per_path_set(gen, uneven, dvs) == 1
    assert rows_per_path_set(brownian(), grid, dvs) == 1


@pytest.mark.parametrize("gen", [Stable(alpha=1.4, scale=0.7),
                                 _generator_from_config(mu="0", sigma="1")],
                         ids=["stable", "heat"])
def test_homogeneous_cache_shares_one_path_set_across_rows(gen):
    # 10 grid times: head rows 0, 4 and 8 are simulated, the others are views
    grid = SpaceTimeGrid.regular(1.0, 9, -1.0, 1.0, 5)
    M = 16
    cache = build_cache(gen, grid, M, master_seed=31)
    assert cache.rows_per_path_set == 4
    heads = (0, 4, 8)
    for i in range(grid.n_times):
        h = i - i % 4
        assert cache.blocks[i].shape == (grid.n_times - i - 1, 5 * M, 1)
        if i != h and i < grid.n_times - 1:  # block N is empty
            assert np.shares_memory(cache.blocks[i], cache.blocks[h])
            assert np.shares_memory(cache.index[i], cache.index[h])
    _assert_cells_are_simulated(cache, gen, 31)

    stored = sum(cache.blocks[h].nbytes + cache.index[h].nbytes for h in heads)
    assert cache.stored_rows == 9 + 5 + 1
    assert cache.memory_bytes == cache_memory_estimate(grid, M, 4) == stored
    # the budget is checked against the rows stored, not the rows read
    build_cache(gen, grid, M, master_seed=31, memory_budget_mb=1.01 * stored / 2**20)

    # every cell's paths, start points included, with the shared rows read once per cell
    points = np.concatenate([cell(cache, i, j)[:, :, 0].ravel()
                             for i in range(grid.n_times) for j in range(cache.n_nodes)])
    outside = int(np.count_nonzero((points < -1.0) | (points > 1.0)))
    assert outside > 0
    assert cache.out_of_bounds_fraction == outside / points.size

    threaded = build_cache(gen, grid, M, master_seed=31, threads=2)
    for i in range(grid.n_times):
        np.testing.assert_array_equal(threaded.blocks[i], cache.blocks[i])
        np.testing.assert_array_equal(threaded.index[i], cache.index[i])
    assert threaded.out_of_bounds_fraction == cache.out_of_bounds_fraction


@pytest.mark.parametrize("gen", [Stable(alpha=1.5), _distributional_drift()],
                         ids=["stable", "distributional-drift"])
def test_cache_rejects_2d_grid_for_1d_families(gen):
    grid = SpaceTimeGrid.regular(1.0, 2, [-1.0, -1.0], [1.0, 1.0], [3, 3])
    with pytest.raises(ConfigurationError, match="requires dimension 1"):
        build_cache(gen, grid, 8, master_seed=1)


def test_cell_seeds_distinct():
    seeds = {derive_cell_seed(7, i, j) for i in range(10) for j in range(10)}
    assert len(seeds) == 100


def test_terminal_expectation_constant_is_exact(bm_cache):
    est, se = terminal_expectation(bm_cache, 3, 2, lambda xs: np.ones(xs.shape[0]))
    assert (est, se) == (1.0, 0.0)


def test_terminal_expectation_gaussian_second_moment(bm_cache):
    # E[(x0 + W_1)^2] = x0^2 + 1 from the cell at s = 0
    node = 6  # x0 = -4 + node on the 9-node grid
    x0 = bm_cache.nodes[node, 0]
    est, se = terminal_expectation(bm_cache, 0, node, lambda xs: xs[:, 0] ** 2)
    assert abs(est - (x0**2 + 1.0)) < 3 * se


def test_terminal_expectation_zero_dynamics_exact(small_grid):
    cache = build_cache(zero_dynamics(), small_grid, 100, master_seed=2)
    est, se = terminal_expectation(cache, 0, 3, lambda xs: np.cos(xs[:, 0]))
    # all paths sit at the node, so only summation rounding separates
    # the mean from the single value
    assert est == pytest.approx(np.cos(cache.nodes[3, 0]), abs=1e-14)
    assert se == pytest.approx(0.0, abs=1e-14)


def test_running_expectation_constant_identity_clock(bm_cache):
    est, se = running_expectation(bm_cache, 0, 4, lambda j, xs: np.ones(xs.shape[0]))
    assert est == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_running_expectation_martingale_mean(bm_cache):
    # E[ int_s^T X_r dr ] = x0 (T - s) for driftless paths
    node, s_idx = 7, 4
    x0 = bm_cache.nodes[node, 0]
    horizon = 1.0 - bm_cache.grid.times[s_idx]
    est, se = running_expectation(bm_cache, s_idx, node, lambda j, xs: xs[:, 0])
    assert abs(est - x0 * horizon) < 3 * se


def test_running_expectation_tabulated_clock_exact():
    ts = np.linspace(0.0, 1.0, 2001)
    clock = ClockV(kind="tabulated", times=ts, values=ts**2)
    grid = SpaceTimeGrid.regular(1.0, 10, -1.0, 1.0, 3)
    cache = build_cache(brownian(), grid, 200, master_seed=9, clock=clock)
    est, se = running_expectation(cache, 0, 1, lambda j, xs: np.ones(xs.shape[0]))
    assert est == pytest.approx(clock.value(1.0) - clock.value(0.0), abs=1e-9)
    assert se == pytest.approx(0.0, abs=1e-9)


def test_linearity_exact(bm_cache):
    phi = lambda xs: xs[:, 0] ** 2
    chi = lambda xs: np.sin(xs[:, 0])
    a, b = 2.5, -1.25
    combo, _ = terminal_expectation(bm_cache, 2, 3, lambda xs: a * phi(xs) + b * chi(xs))
    e1, _ = terminal_expectation(bm_cache, 2, 3, phi)
    e2, _ = terminal_expectation(bm_cache, 2, 3, chi)
    assert combo == pytest.approx(a * e1 + b * e2, rel=1e-14)


def test_positivity(bm_cache):
    est, _ = terminal_expectation(bm_cache, 1, 0, lambda xs: np.abs(xs[:, 0]))
    assert est >= 0.0


def test_determinism_same_inputs_same_bits(bm_cache):
    f = lambda xs: np.tanh(xs[:, 0])
    assert terminal_expectation(bm_cache, 5, 4, f) == terminal_expectation(bm_cache, 5, 4, f)


def test_terminal_plus_running_consistent(bm_cache):
    phi = lambda xs: xs[:, 0] ** 2
    psi = lambda j, xs: np.cos(xs[:, 0])
    combined, _ = terminal_plus_running(bm_cache, 2, 5, phi, psi, running_sign=-1.0)
    t, _ = terminal_expectation(bm_cache, 2, 5, phi)
    r, _ = running_expectation(bm_cache, 2, 5, psi)
    assert combined == pytest.approx(t - r, rel=1e-12)


def test_phi_failure_names_cell_and_path(bm_cache):
    def bad(xs):
        if np.any(xs[:, 0] > -100):
            raise ValueError("boom")
        return xs[:, 0]

    with pytest.raises(ValueError, match=r"cell \(2, 3\), path 0"):
        terminal_expectation(bm_cache, 2, 3, bad)


def test_chapman_kolmogorov_zero_dynamics_exact(small_grid):
    z = chapman_kolmogorov_test(
        zero_dynamics(), 0.0, 0.5, 1.0, [0.3], lambda xs: np.tanh(xs[:, 0]), 100, 5, small_grid
    )
    assert z == 0.0


def test_chapman_kolmogorov_z_is_pinned():
    # pinned: releasing each ensemble early changes no draw and no estimate
    grid = SpaceTimeGrid.regular(1.0, 20, -4.0, 4.0, 5)
    z = chapman_kolmogorov_test(
        brownian(), 0.0, 0.5, 1.0, [0.3], lambda xs: np.tanh(xs[:, 0]), 2000, 77, grid
    )
    assert z == 0.6977282247231963


def test_chapman_kolmogorov_holds_one_ensemble_at_a_time():
    grid = SpaceTimeGrid.regular(1.0, 40, -4.0, 4.0, 5)
    M = 20000
    ensemble_bytes = M * grid.n_times * 8
    # the direct, outer and restarted ensembles are never alive together
    tracemalloc.start()
    try:
        chapman_kolmogorov_test(
            brownian(), 0.0, 0.5, 1.0, [0.3], lambda xs: np.tanh(xs[:, 0]), M, 3, grid
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * ensemble_bytes


def test_chapman_kolmogorov_brownian():
    grid = SpaceTimeGrid.regular(1.0, 20, -4.0, 4.0, 5)
    z = chapman_kolmogorov_test(
        brownian(), 0.0, 0.5, 1.0, [0.0], lambda xs: xs[:, 0] ** 2, 10000, 4242, grid
    )
    assert abs(z) < 3.0


def test_chapman_kolmogorov_broken_restart_detected():
    # restarted stage misses the late drift the direct simulation has
    grid = SpaceTimeGrid.regular(1.0, 20, -4.0, 4.0, 5)
    late_drift = Diffusion(mu=lambda t, x: np.where(t >= 0.5, 1.5, 0.0), sigma=lambda t, x: 1.0)
    z = chapman_kolmogorov_test(
        late_drift, 0.0, 0.5, 1.0, [0.3], lambda xs: np.tanh(xs[:, 0]),
        10000, 11, grid, inner_gen=brownian(),
    )
    assert abs(z) > 3.0


def test_chapman_kolmogorov_requires_grid_times(small_grid):
    with pytest.raises(ConfigurationError):
        chapman_kolmogorov_test(
            brownian(), 0.0, 0.3, 1.0, [0.0], lambda xs: xs[:, 0], 100, 1, small_grid
        )
