import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pseudopde import core, processes
from pseudopde.core import Abscissa, ClockV, SpaceTimeGrid
from pseudopde.errors import ConfigurationError, InputError
from pseudopde.processes import (
    Diffusion,
    DistributionalDrift,
    JumpLaw,
    LevyKernel,
    Stable,
    _rng,
    build_h_transform,
    simulate,
)
from pseudopde.semigroup import build_cache


@pytest.fixture(scope="module")
def grid():
    return SpaceTimeGrid.regular(1.0, 50, -4.0, 4.0, 41)


def brownian():
    return Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 1.0)


def test_jump_law_validation():
    with pytest.raises(ConfigurationError):
        JumpLaw(kind="two_point", param=0.0)
    with pytest.raises(ConfigurationError):
        JumpLaw(kind="atoms", atoms=((1.0, 0.4), (2.0, 0.4)))
    with pytest.raises(ConfigurationError):
        JumpLaw(kind="cauchy", param=1.0)
    with pytest.raises(ConfigurationError):
        LevyKernel(rate=-1.0, law=JumpLaw(kind="gaussian", param=1.0))


def expect(law, fn):
    """E[fn(Y)] from the law's quadrature: exact for discrete laws."""
    ys, ws = law.quadrature()
    return np.sum(ws * fn(ys))


def test_jump_law_expectations():
    assert expect(JumpLaw(kind="two_point", param=0.7), lambda y: y**2) == pytest.approx(0.49)
    assert expect(JumpLaw(kind="gaussian", param=0.5), lambda y: y**2) == pytest.approx(0.25)
    # laplace(b) has variance 2 b^2
    assert expect(JumpLaw(kind="laplace", param=0.3), lambda y: y**2) == pytest.approx(0.18)
    law = JumpLaw(kind="atoms", atoms=((1.0, 0.25), (-0.5, 0.75)))
    assert expect(law, lambda y: y) == pytest.approx(0.25 - 0.375)
    ys, ws = law.quadrature()
    assert ws.sum() == pytest.approx(1.0)


def test_jump_law_sampled_sums_match_moments():
    rng = np.random.Generator(np.random.Philox(key=5))
    counts = rng.poisson(2.0, 200000)
    for law, var1 in [
        (JumpLaw(kind="two_point", param=0.7), 0.49),
        (JumpLaw(kind="gaussian", param=0.5), 0.25),
        (JumpLaw(kind="laplace", param=0.3), 0.18),
        (JumpLaw(kind="atoms", atoms=((1.0, 0.5), (-1.0, 0.5))), 1.0),
    ]:
        sums = law.sample_sums(np.random.Generator(np.random.Philox(key=7)), counts)
        mean_jump = expect(law, lambda y: y)
        # compound sums: E = E[N] m, Var = E[N] E[Y^2] for centered-ish laws
        ey2 = expect(law, lambda y: y**2)
        expected_mean = counts.mean() * mean_jump
        expected_var = counts.mean() * (ey2 - mean_jump**2) + counts.var() * mean_jump**2
        assert sums.mean() == pytest.approx(expected_mean, abs=4 * np.sqrt(expected_var / counts.size) + 1e-12)
        assert sums.var() == pytest.approx(expected_var, rel=0.05)


def test_degenerate_dynamics_paths_constant(grid):
    gen = Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.0)
    ens = simulate(gen, 0.0, [0.7], grid, 50, 1)
    assert np.all(ens.paths == 0.7)


def test_brownian_terminal_moments(grid):
    ens = simulate(brownian(), 0.0, [0.0], grid, 100000, 42)
    xt = ens.paths[:, -1, 0]
    stderr = xt.std(ddof=1) / np.sqrt(xt.size)
    assert abs(xt.mean()) < 3 * stderr
    assert xt.var() == pytest.approx(1.0, rel=0.05)


def test_stable_alpha2_characteristic_function(grid):
    # symbol |xi|^alpha at alpha = 2 means variance 2t
    ens = simulate(Stable(alpha=2.0, scale=1.0), 0.0, [0.0], grid, 100000, 7)
    xt = ens.paths[:, -1, 0]
    vals = np.cos(1.0 * xt)
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - np.exp(-1.0)) < 3 * stderr


def test_simulate_reproducible_bitwise(grid):
    a = simulate(brownian(), 0.0, [0.0], grid, 500, 99)
    b = simulate(brownian(), 0.0, [0.0], grid, 500, 99)
    assert np.array_equal(a.paths, b.paths)


def test_simulate_prefix_stable_under_path_count(grid):
    # path j depends only on (seed, j): growing M keeps earlier paths intact
    small = simulate(brownian(), 0.0, [0.0], grid, 100, 99)
    big = simulate(brownian(), 0.0, [0.0], grid, 200, 99)
    assert np.array_equal(small.paths, big.paths[:100])


def test_simulate_preconditions(grid):
    with pytest.raises(ConfigurationError):
        simulate(brownian(), 0.0, [0.0], grid, 0, 1)
    with pytest.raises(ConfigurationError):
        simulate(brownian(), 0.123, [0.0], grid, 10, 1)
    with pytest.raises(InputError):
        simulate(brownian(), 0.0, [np.inf], grid, 10, 1)
    grid2 = SpaceTimeGrid.regular(1.0, 4, [-1.0, -1.0], [1.0, 1.0], [3, 3])
    with pytest.raises(ConfigurationError):
        simulate(Stable(alpha=1.0), 0.0, [0.0, 0.0], grid2, 10, 1)


def test_philox_normals_drawn_in_row_pieces_equal_one_draw():
    # evolve_paths draws a group's rows one chunk at a time and relies on this
    whole = _rng(5).standard_normal((23, 4, 2))
    rng = _rng(5)
    pieces = [rng.standard_normal((k, 4, 2)) for k in (1, 7, 15)]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


def _state_dependent_2d():
    def vol(t, x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + 0.3 * np.tanh(x[:, 1])
        out[:, 1, 0] = 0.2 * np.cos(x[:, 0])
        out[:, 1, 1] = 0.8 + 0.1 * np.sin(x[:, 0])
        return out

    return Diffusion(mu=lambda t, x: -0.3 * np.atleast_2d(x), sigma=vol, dimension=2)


def _drift():
    xs = np.linspace(-4.0, 4.0, 401)
    return DistributionalDrift(b_x=xs, b_values=-(xs**2) / 4.0 + 0.1 * np.abs(xs),
                               sigma_fn=lambda v: np.ones_like(v))


def _jumps():
    return Diffusion(mu=lambda t, x: 0.1, sigma=lambda t, x: 0.5,
                     levy=LevyKernel(rate=2.0, law=JumpLaw(kind="gaussian", param=0.3)))


CHUNKED = {
    "brownian": (brownian, 1),
    "state_dependent_2d": (_state_dependent_2d, 2),
    "distributional_drift": (_drift, 1),
    "jump_diffusion": (_jumps, 1),
    "stable": (lambda: Stable(alpha=1.5, scale=0.5), 1),
}


@pytest.mark.parametrize("name",
                         ["brownian", "state_dependent_2d", "distributional_drift", "stable"])
def test_simulate_is_independent_of_the_chunk_size(name, monkeypatch):
    # sizes 1 and 7 set the draw chunk's rows; stable draws stay whole, and
    # there the transform maps one of the 40 rows at a time over the 6
    # steps, all 40 at the default
    make, d = CHUNKED[name]
    grid = SpaceTimeGrid.regular(1.0, 6, [-3.0] * d, [3.0] * d, [5] * d)
    ref = simulate(make(), 0.0, [0.1] * d, grid, 40, 3).paths
    for size in (1, 7):
        monkeypatch.setattr(processes, "_DRAW_ROWS", size)
        monkeypatch.setattr(processes, "_BLOCK_POINTS", size)
        assert simulate(make(), 0.0, [0.1] * d, grid, 40, 3).paths.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["brownian", "state_dependent_2d", "jump_diffusion", "stable"])
def test_cache_is_independent_of_the_chunk_size(name, monkeypatch):
    # 5 paths per cell: chunks of 7 rows cut through the cells' groups; jump
    # draws stay whole per cell: there a chunk is 1 cell at sizes 1 and 7, all 3 at the default;
    # the stable transform then takes 1 row at a time
    make, d = CHUNKED[name]
    grid = SpaceTimeGrid.regular(1.0, 4, [-2.0] * d, [2.0] * d, [3] * d)

    def contents():
        cache = build_cache(make(), grid, 5, 11)
        return [(cache.blocks[i].tobytes(), cache.index[i].tobytes()) for i in sorted(cache.blocks)]

    ref = contents()
    for size in (1, 7):
        monkeypatch.setattr(processes, "_DRAW_ROWS", size)
        monkeypatch.setattr(processes, "_BLOCK_POINTS", size)
        assert contents() == ref
    monkeypatch.undo()
    # the default node chunk holds every node; caps of 1 and 10 paths give
    # chunks of 1 and 2 nodes, each node's paths from one evolve_paths call
    for cap in (1, 10):
        monkeypatch.setattr(core, "_CHUNK_POINTS", cap)
        assert contents() == ref


def test_simulate_holds_one_chunk_of_draws_at_a_time():
    # all 50,000 x 24 normals at once would take 9.2 MiB beside the paths
    grid = SpaceTimeGrid.regular(1.0, 24, -4.0, 4.0, 5)
    tracemalloc.start()
    try:
        paths = simulate(brownian(), 0.0, [0.0], grid, 50000, 3).paths
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= paths.nbytes + 5 * 2**20


def test_drift_simulate_holds_a_half_size_draw_chunk():
    # the drift workload's 30,000 x 40 ensemble: a 16,384-row chunk of normals
    # took 7.1 MiB beside the paths, an 8,192-row one takes 4.0
    grid = SpaceTimeGrid.regular(1.0, 40, -2.5, 2.5, 11)
    tracemalloc.start()
    try:
        paths = simulate(_drift(), 0.0, [0.0], grid, 30000, 3).paths
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= paths.nbytes + 4.5 * 2**20


def test_stable_simulate_transforms_a_few_rows_at_a_time():
    # the uniform and exponential draws of 50,000 x 10 are held whole (7.6
    # MiB), but the transform's temporaries are not: whole, they took 12 MiB more
    grid = SpaceTimeGrid.regular(1.0, 10, -4.0, 4.0, 5)
    tracemalloc.start()
    try:
        paths = simulate(Stable(alpha=1.5), 0.0, [0.0], grid, 50000, 3).paths
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    draws = 2 * 50000 * 10 * 8
    assert peak <= draws + paths.nbytes + 2 * 2**20


def test_two_dimensional_diffusion_moments():
    # anisotropic volatility: coordinate variances (sigma sigma^T)_kk T
    def vol(t, x):
        n = np.atleast_2d(x).shape[0]
        mat = np.array([[1.0, 0.0], [0.5, 0.5]])
        return np.broadcast_to(mat, (n, 2, 2))

    gen = Diffusion(mu=lambda t, x: 0.0, sigma=vol, dimension=2)
    grid2 = SpaceTimeGrid.regular(1.0, 20, [-6.0, -6.0], [6.0, 6.0], [3, 3])
    ens = simulate(gen, 0.0, [0.0, 0.0], grid2, 60000, 21)
    xt = ens.paths[:, -1, :]
    assert xt[:, 0].var() == pytest.approx(1.0, rel=0.05)
    assert xt[:, 1].var() == pytest.approx(0.5, rel=0.05)
    assert np.cov(xt.T)[0, 1] == pytest.approx(0.5, rel=0.1)


def test_jump_diffusion_moments(grid):
    lam, size, sig = 2.0, 0.5, 0.3
    gen = Diffusion(
        mu=lambda t, x: 0.0,
        sigma=lambda t, x: sig,
        levy=LevyKernel(rate=lam, law=JumpLaw(kind="two_point", param=size)),
    )
    ens = simulate(gen, 0.0, [0.0], grid, 100000, 11)
    xt = ens.paths[:, -1, 0]
    want_var = sig**2 + lam * size**2  # T = 1
    assert abs(xt.mean()) < 4 * xt.std(ddof=1) / np.sqrt(xt.size)
    assert xt.var() == pytest.approx(want_var, rel=0.05)


def test_jump_intensity_follows_clock(grid):
    # pure-jump process with deterministic unit jumps counts Poisson(rate * V(T))
    ts = np.linspace(0.0, 1.0, 101)
    grid = replace(grid, clock=ClockV(kind="tabulated", times=ts, values=2.0 * ts))
    gen = Diffusion(
        mu=lambda t, x: 0.0,
        sigma=lambda t, x: 0.0,
        levy=LevyKernel(rate=1.5, law=JumpLaw(kind="atoms", atoms=((1.0, 1.0),))),
    )
    ens = simulate(gen, 0.0, [0.0], grid, 60000, 3)
    counts = ens.paths[:, -1, 0]
    assert counts.mean() == pytest.approx(3.0, rel=0.03)  # rate * V(1) = 1.5 * 2
    assert counts.var() == pytest.approx(3.0, rel=0.05)


def test_brownian_paths_have_the_clock_as_variance():
    # the paths step in dV: under V(t) = t^2, W_V has variance V(t_i), not t_i
    ts = np.linspace(0.0, 1.0, 201)
    clock = ClockV(kind="tabulated", times=ts, values=ts**2)
    grid = SpaceTimeGrid.regular(1.0, 10, -4.0, 4.0, 5, clock=clock)
    M = 20000
    ens = simulate(brownian(), 0.0, [0.0], grid, M, 5)
    want = grid.clock.value(grid.times[1:])
    # the sample variance of M normals has stderr sqrt(2 / M) times their variance
    z = (ens.paths[:, 1:, 0].var(axis=0) - want) / (want * np.sqrt(2.0 / M))
    assert np.max(np.abs(z)) < 4.0


@pytest.mark.parametrize("name", list(CHUNKED))
def test_flat_clock_stretch_freezes_the_paths(name):
    # dV = 0 on steps 2 and 3: every family stands still there, and moves elsewhere
    make, d = CHUNKED[name]
    times = np.linspace(0.0, 1.0, 7)
    clock = ClockV(kind="tabulated", times=times, values=[0.0, 0.2, 0.4, 0.4, 0.4, 0.7, 1.0])
    grid = SpaceTimeGrid.regular(1.0, 6, [-3.0] * d, [3.0] * d, [5] * d, clock=clock)
    paths = simulate(make(), 0.0, [0.1] * d, grid, 200, 7).paths
    np.testing.assert_array_equal(paths[:, 3], paths[:, 2])
    np.testing.assert_array_equal(paths[:, 4], paths[:, 3])
    for k in (1, 2, 5, 6):
        assert np.any(paths[:, k] != paths[:, k - 1])


def test_h_transform_zero_drift_is_identity():
    xs = np.linspace(-1.0, 1.0, 2001)
    tr = build_h_transform(xs, np.zeros_like(xs), lambda v: 2.0 + 0.1 * v)
    np.testing.assert_allclose(tr.Sigma_table, 0.0, atol=1e-14)
    np.testing.assert_allclose(tr.h_table, xs, atol=1e-12)
    np.testing.assert_allclose(tr.sigma0(tr.h(xs)), 2.0 + 0.1 * xs, atol=1e-9)


def test_h_transform_linear_b_closed_form():
    # b(x) = x, sigma = 1: Sigma = 2x, h = (1 - e^{-2x})/2, sigma0(y) = 1 - 2y
    xs = np.linspace(-1.0, 1.0, 10001)
    tr = build_h_transform(xs, xs, lambda v: np.ones_like(v))
    assert np.max(np.abs(tr.Sigma_table - 2 * xs)) < 1e-4
    assert np.max(np.abs(tr.h_table - (1 - np.exp(-2 * xs)) / 2)) < 1e-4
    assert np.max(np.abs(tr.sigma0_table - (1 - 2 * tr.h_table))) < 1e-4
    # defining identities at table nodes
    assert np.max(np.abs(tr.h_inv_and_sigma0(tr.h_table)[0] - xs)) < 1e-8
    hp = np.exp(-tr.Sigma_table)
    np.testing.assert_allclose(tr.sigma0_table, 1.0 * hp, rtol=1e-8)


def test_h_transform_bounded_variation_b():
    xs = np.linspace(-1.0, 1.0, 10001)
    tr = build_h_transform(xs, np.minimum(xs, 0.0), lambda v: np.ones_like(v))
    assert np.max(np.abs(tr.Sigma_table - 2 * np.minimum(xs, 0.0))) < 1e-4


def test_h_transform_input_errors():
    xs = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(InputError):
        build_h_transform(xs, xs, lambda v: np.zeros_like(v))
    with pytest.raises(InputError):
        build_h_transform(xs + 5.0, xs, lambda v: np.ones_like(v))  # 0 not bracketed


def _oscillating_table():
    xs = np.linspace(-2.0, 2.5, 4001)
    return build_h_transform(xs, np.abs(xs) * 0.4 - np.sin(3.0 * xs) * 0.1,
                             lambda v: 1.0 + 0.2 * np.cos(v))


def _drift_config_table():
    # scripts/configs/distributional_drift.json: b = -x^2/4, sigma = 1
    xs = np.linspace(-3.5, 3.5, 8001)
    return build_h_transform(xs, -(xs**2) / 4.0, lambda v: np.ones_like(v))


def _strained_table():
    xs = np.linspace(-5.0, 5.0, 4001)
    with pytest.warns(UserWarning):
        return build_h_transform(xs, xs, lambda v: np.ones_like(v))  # exp(Sigma) spans e^20


def test_h_transform_two_sided_bound_warning():
    _strained_table()


def _probe_points(ax, rng):
    return np.concatenate([
        [ax[0] - 1.0, ax[0] - 1e-12, ax[-1] + 1e-12, ax[-1] + 3.0],  # below and above the table
        ax,  # every node, the first and last included
        np.nextafter(ax, -np.inf), np.nextafter(ax, np.inf),  # one ulp either side of each node
        rng.uniform(ax[0], ax[-1], 5000),  # interior points
        [np.nan],
    ])


def _assert_bits_equal(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def test_h_transform_shared_search_equals_interp_bitwise():
    for make in (_oscillating_table, _drift_config_table, _strained_table):
        _check_reads_against_interp(make())


def _check_reads_against_interp(tr):
    Sigma_prime = np.gradient(tr.Sigma_table, tr.x_table)
    rng = np.random.default_rng(4)

    y = _probe_points(tr.h_table, rng)
    x_got, s0_got = tr.h_inv_and_sigma0(y)
    _assert_bits_equal(x_got, np.interp(y, tr.h_table, tr.x_table))
    _assert_bits_equal(s0_got, np.interp(y, tr.h_table, tr.sigma0_table))
    _assert_bits_equal(tr.sigma0(y), s0_got)

    x = _probe_points(tr.x_table, rng)
    sig_got, sp_got = tr.sigma_and_Sigma_prime(x)
    _assert_bits_equal(tr.h(x), np.interp(x, tr.x_table, tr.h_table))
    _assert_bits_equal(sig_got, np.interp(x, tr.x_table, tr.sigma_table))
    _assert_bits_equal(sp_got, np.interp(x, tr.x_table, Sigma_prime))
    _assert_bits_equal(tr.sigma(x), sig_got)


@pytest.mark.parametrize("make, resolved", [
    (_oscillating_table, True), (_drift_config_table, True), (_strained_table, False),
])
def test_h_transform_guide_estimate(make, resolved):
    # The guide plus one correction each way brackets every point of the
    # smooth tables; on the e^20-strained h table it leaves points off, and
    # the searchsorted fallback is what keeps the reads exact there.
    tr = make()
    rng = np.random.default_rng(9)
    for ax, want_resolved in ((tr.h_table, resolved), (tr.x_table, True)):
        pts = np.clip(_probe_points(ax, rng)[:-1], ax[0], ax[-1])
        want = np.searchsorted(ax, pts, side="right") - 1
        assert np.array_equal(Abscissa(ax)._estimate(pts), want) == want_resolved


def test_distributional_smooth_case_matches_direct_euler():
    # b = -x^2/4 has b' = -x/2: ordinary mean-reverting diffusion
    xs = np.linspace(-3.5, 3.5, 8001)
    dd = DistributionalDrift(b_x=xs, b_values=-(xs**2) / 4.0, sigma_fn=lambda v: np.ones_like(v))
    fine = SpaceTimeGrid.regular(1.0, 200, -3.5, 3.5, 29)
    ou = Diffusion(mu=lambda t, x: -0.5 * np.atleast_2d(x), sigma=lambda t, x: 1.0)
    a = np.tanh(simulate(dd, 0.0, [0.4], fine, 20000, 901).paths[:, -1, 0])
    b = np.tanh(simulate(ou, 0.0, [0.4], fine, 20000, 902).paths[:, -1, 0])
    z = (a.mean() - b.mean()) / np.hypot(
        a.std(ddof=1) / np.sqrt(a.size), b.std(ddof=1) / np.sqrt(b.size)
    )
    assert abs(z) < 3.0


def test_distributional_moment_sanity():
    # finite moments, stable under doubling the path count
    xs = np.linspace(-3.5, 3.5, 8001)
    dd = DistributionalDrift(b_x=xs, b_values=-(xs**2) / 4.0, sigma_fn=lambda v: np.ones_like(v))
    grid = SpaceTimeGrid.regular(1.0, 50, -3.5, 3.5, 15)
    m1 = simulate(dd, 0.0, [0.2], grid, 20000, 31).paths[:, -1, 0]
    m2 = simulate(dd, 0.0, [0.2], grid, 40000, 31).paths[:, -1, 0]
    for p in (1, 2, 4):
        a, b = np.mean(np.abs(m1) ** p), np.mean(np.abs(m2) ** p)
        assert np.isfinite(a) and np.isfinite(b)
        assert a == pytest.approx(b, rel=0.1)
