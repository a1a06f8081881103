import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudopde import core
from pseudopde.core import (
    ClockV,
    ImplicitSteps,
    LipschitzDriver,
    ProblemSpec,
    SpaceTimeGrid,
)
from pseudopde.errors import ConfigurationError

from test_processes import _drift_config_table, _oscillating_table, _strained_table


def _grid_1d(clock=ClockV()):
    return SpaceTimeGrid.regular(1.0, 2, -1.0, 1.0, 3, clock=clock)


@pytest.fixture
def grid_1d():
    return _grid_1d()


def test_identity_clock_increments(grid_1d):
    np.testing.assert_allclose(grid_1d.dvs, [0.5, 0.5])


def test_tabulated_quadratic_clock():
    ts = np.linspace(0.0, 1.0, 2001)
    clock = ClockV(kind="tabulated", times=ts, values=ts**2)
    inc = _grid_1d(clock).dvs
    np.testing.assert_allclose(inc, [0.25, 0.75], atol=1e-6)


def test_constant_zero_clock():
    clock = ClockV(kind="tabulated", times=np.array([0.0, 1.0]), values=np.array([0.0, 0.0]))
    np.testing.assert_array_equal(_grid_1d(clock).dvs, [0.0, 0.0])


def test_grid_increments_are_read_only(grid_1d):
    with pytest.raises(ValueError):
        grid_1d.dvs[0] = 1.0


def test_clock_invariants():
    with pytest.raises(ConfigurationError):
        ClockV(kind="tabulated", times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
    with pytest.raises(ConfigurationError):
        ClockV(kind="tabulated", times=np.array([0.0, 1.0]), values=np.array([0.5, 1.0]))
    with pytest.raises(ConfigurationError):
        ClockV(kind="weird")


def test_clock_not_covering_grid_is_configuration_error():
    clock = ClockV(kind="tabulated", times=np.array([0.0, 0.5]), values=np.array([0.0, 0.5]))
    with pytest.raises(ConfigurationError):
        _grid_1d(clock)


@given(n_steps=st.integers(2, 12), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_increments_telescope(n_steps, seed):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 2.0, 301)
    vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0, 0.1, 300))])
    clock = ClockV(kind="tabulated", times=ts, values=vals)
    inc = SpaceTimeGrid.regular(2.0, n_steps, -1.0, 1.0, 2, clock=clock).dvs
    assert np.all(inc >= 0)
    assert np.isclose(inc.sum(), clock.value(2.0) - clock.value(0.0), rtol=0, atol=1e-12)


def test_grid_invariants():
    with pytest.raises(ConfigurationError):
        SpaceTimeGrid(times=np.array([0.0]), space_min=[-1.0], space_max=[1.0], space_nodes=[3])
    with pytest.raises(ConfigurationError):
        SpaceTimeGrid.regular(1.0, 2, [1.0], [-1.0], [3])
    with pytest.raises(ConfigurationError):
        SpaceTimeGrid.regular(1.0, 2, [-1.0], [1.0], [1])


def test_time_index():
    grid = SpaceTimeGrid.regular(1.0, 10, -1.0, 1.0, 3)
    for i, t in enumerate(grid.times):
        assert grid.time_index(t) == i
    assert grid.time_index(0.3 + 1e-10) == 3
    for off_grid in (0.3 + 1e-6, 0.3 + 5e-9, float("nan")):
        with pytest.raises(ConfigurationError, match="not a grid time"):
            grid.time_index(off_grid)
    # the tolerance is 1e-9 * max(1, horizon)
    long = SpaceTimeGrid.regular(10.0, 10, -1.0, 1.0, 3)
    assert long.time_index(3.0 + 5e-9) == 3
    with pytest.raises(ConfigurationError, match="not a grid time"):
        long.time_index(3.0 + 2e-8)


def test_grid_axes_built_once():
    grid = SpaceTimeGrid.regular(1.0, 2, [-1.0, 0.0], [1.0, 3.0], [5, 4])
    assert grid.axes is grid.axes
    np.testing.assert_array_equal(grid.axes[0], np.linspace(-1.0, 1.0, 5))
    np.testing.assert_array_equal(grid.axes[1], np.linspace(0.0, 3.0, 4))
    with pytest.raises(ValueError):
        grid.axes[0][0] = 7.0


def _read_row(grid, row, points):
    """A flat field row, in ``grid.nodes()`` order, read at ``points`` (n, d)."""
    points = np.asarray(points, dtype=float)
    return core._multilinear(grid.axes, row[None], core.bracket(grid.axes, points))[0]


def test_interpolate_constant_field(grid_1d):
    assert _read_row(grid_1d, np.full(3, 3.5), [[0.123], [-0.9]]).tolist() == [3.5, 3.5]


def test_interpolate_linear_between_nodes(grid_1d):
    # nodes at -1, 0, 1 with values x^2: between 0 and 1 the interpolant is linear
    got = _read_row(grid_1d, np.array([1.0, 0.0, 1.0]), [[0.5], [-0.25]])
    np.testing.assert_allclose(got, [0.5, 0.25])


def test_interpolate_clamps_out_of_bounds(grid_1d):
    got = _read_row(grid_1d, np.array([2.0, 0.0, 7.0]), [[10.0], [-10.0]])
    assert got.tolist() == [7.0, 2.0]


def test_interpolate_exact_at_nodes_and_monotone(grid_1d):
    row = np.random.default_rng(3).normal(size=3)
    assert _read_row(grid_1d, row, [[-1.0], [0.0], [1.0]]).tolist() == row.tolist()
    # multilinear between adjacent nodes: values stay inside the node bracket
    out = _read_row(grid_1d, row, np.linspace(0.0, 1.0, 17)[:, None])
    lo, hi = min(row[1], row[2]), max(row[1], row[2])
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_interpolate_2d_multilinear():
    grid = SpaceTimeGrid.regular(1.0, 2, [-1.0, -1.0], [1.0, 1.0], [3, 3])
    pts = grid.nodes()
    row = 2.0 * pts[:, 0] + 3.0 * pts[:, 1]
    # multilinear interpolation reproduces affine functions exactly
    q = np.array([[0.3, -0.7], [0.15, 0.45]])
    np.testing.assert_allclose(_read_row(grid, row, q), 2.0 * q[:, 0] + 3.0 * q[:, 1], atol=1e-12)


# (lo, hi, nodes): odd and even node counts, a two-node axis, and an axis far
# from the origin, where the nodes carry few bits below the spacing
BRACKET_AXES = [(-2.5, 2.5, 11), (-4.0, 4.0, 41), (0.1, 0.7, 7), (1e6, 1e6 + 1.0, 21), (-3.0, 5.0, 2)]


def _probes(ax, rng):
    """Points below and above the axis, on every node (the last included), one
    ulp either side of every node, and uniform interior points."""
    span = ax[-1] - ax[0]
    outside = [ax[0] - span, ax[0] - 1e-3 * span, ax[-1] + 1e-3 * span, ax[-1] + span]
    return np.concatenate(
        [outside, ax, np.nextafter(ax, -np.inf), np.nextafter(ax, np.inf),
         rng.uniform(ax[0], ax[-1], 200)]
    )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _searchsorted_multilinear(axes, table, points):
    """Reference for d > 1: brackets by np.searchsorted, clipped to the last
    interval, then the corner-weight formula of core._multilinear."""
    idx, frac = [], []
    for k, ax in enumerate(axes):
        x = np.clip(points[:, k], ax[0], ax[-1])
        i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, ax.size - 2)
        idx.append(i)
        frac.append((x - ax[i]) / (ax[i + 1] - ax[i]))
    out = np.zeros(points.shape[0])
    for corner in range(1 << len(axes)):
        w = np.ones(points.shape[0])
        loc = []
        for k in range(len(axes)):
            up = corner >> k & 1
            w = w * (frac[k] if up else 1.0 - frac[k])
            loc.append(idx[k] + up)
        out += w * table[tuple(loc)]
    return out


def _reader_cases():
    """Abscissa makers: the uniform grid axes, and both abscissae of three h
    tables, the strained one's far from uniform."""
    for lo, hi, n in BRACKET_AXES:
        yield pytest.param(lambda lo=lo, hi=hi, n=n: np.linspace(lo, hi, n),
                           id=f"grid-{lo}-{hi}-{n}")
    for make in (_oscillating_table, _drift_config_table, _strained_table):
        for name in ("x_table", "h_table"):
            yield pytest.param(lambda make=make, name=name: getattr(make(), name),
                               id=f"{make.__name__.strip('_')}-{name}")


@pytest.mark.parametrize("make_axis", _reader_cases())
def test_abscissa_brackets_as_searchsorted_and_reads_as_np_interp_bitwise(make_axis):
    ax = make_axis()
    rng = np.random.default_rng(ax.size)
    reader = core.Abscissa(ax)
    x = np.append(_probes(ax, rng), np.nan)
    i, clamped = reader.bracket(x)
    np.testing.assert_array_equal(clamped, np.clip(x, ax[0], ax[-1]))
    np.testing.assert_array_equal(i, np.searchsorted(ax, clamped, side="right") - 1)
    assert i[-1] == ax.size - 1  # NaN gets the last node
    # and the same probes again, shuffled over more than two passes
    x = rng.permutation(np.resize(x, 2 * core._BLOCK_POINTS + 7))
    tables = rng.normal(size=(3, ax.size))
    got = reader.read(tables, core.interp_slopes(ax, tables), x)
    want = np.stack([np.interp(x, ax, t) for t in tables])
    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("lo, hi, n", BRACKET_AXES)
def test_multilinear_1d_equals_np_interp_bitwise(lo, hi, n):
    ax = np.linspace(lo, hi, n)
    rng = np.random.default_rng(n)
    x = _probes(ax, rng)
    # and the same probes again, shuffled over more than two read blocks
    x = np.concatenate([x, rng.permutation(np.resize(x, 2 * core._BLOCK_POINTS + 7))])
    for k in (1, 2, 3):
        tables = rng.normal(size=(k, n))
        got = core._multilinear((ax,), tables, core.bracket((ax,), x[:, None]))
        assert got.shape == (k, x.size)
        want = np.stack([np.interp(x, ax, t) for t in tables])
        np.testing.assert_array_equal(_bits(got), _bits(want))
    nan_points = core.bracket((ax,), np.array([[np.nan], [lo]]))
    got = core._multilinear((ax,), rng.normal(size=(2, n)), nan_points)
    assert np.all(np.isnan(got[:, 0])) and np.all(np.isfinite(got[:, 1]))


@pytest.mark.parametrize("first, second", [(0, 1), (2, 3), (4, 0)])
def test_multilinear_2d_equals_searchsorted_reference_bitwise(first, second):
    axes = tuple(np.linspace(*BRACKET_AXES[k]) for k in (first, second))
    rng = np.random.default_rng(10 * first + second)
    grid_points = np.meshgrid(*(_probes(ax, rng) for ax in axes), indexing="ij")
    points = np.stack([g.ravel() for g in grid_points], axis=-1)
    shape = tuple(ax.size for ax in axes)
    for k in (1, 2, 3):
        tables = rng.normal(size=(k,) + shape)
        # the program reads each table flat, its rows in C order over the axes
        got = core._multilinear(axes, tables.reshape(k, -1), core.bracket(axes, points))
        assert got.shape == (k, points.shape[0])
        for table, row in zip(tables, got):
            want = _searchsorted_multilinear(axes, table, points)
            np.testing.assert_array_equal(_bits(row), _bits(want))
    nan_points = np.array([[np.nan, axes[1][0]], [axes[0][0], np.nan], [axes[0][-1], axes[1][-1]]])
    got = core._multilinear(axes, rng.normal(size=(2, np.prod(shape))),
                            core.bracket(axes, nan_points))
    assert np.all(np.isnan(got[:, :2])) and np.all(np.isfinite(got[:, 2]))


def test_driver_constants_validated():
    with pytest.raises(ConfigurationError):
        LipschitzDriver(fn=lambda t, x, y, z: y, K_Y=-1.0)


def test_driver_lipschitz_check_passes_and_flags():
    ok = LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y), K_Y=0.5)
    assert ok.check_lipschitz((0.0, 1.0), ([-1.0], [1.0]))
    lying = LipschitzDriver(fn=lambda t, x, y, z: 2.0 * np.asarray(y), K_Y=0.5)
    with pytest.warns(UserWarning):
        assert not lying.check_lipschitz((0.0, 1.0), ([-1.0], [1.0]))


def _scan_first_solve(driver, t, x, c, z, dv):
    """The implicit solve that scans each iterate for non-finite values
    before taking its change: (y, driver calls, converged)."""
    y, change = c.copy(), np.inf
    for calls in range(1, ImplicitSteps.ITERATIONS + 1):
        y_try = c + driver(t, x, y, z) * dv
        if not np.all(np.isfinite(y_try)):
            return y_try, calls, True
        change = np.max(np.abs(y_try - y))
        y = y_try
        if change < ImplicitSteps.TOLERANCE:
            return y, calls, True
    return y, ImplicitSteps.ITERATIONS, False


@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
def test_implicit_step_matches_a_scan_of_every_iterate(bad):
    # same iterate, stop and early return as a solve that scans each iterate;
    # a NaN or an inf in c returns the first iterate, warning nothing
    calls = []

    def fn(t, x, y, z):
        calls.append(t)
        return 0.5 * np.asarray(y) + np.asarray(z)

    driver = LipschitzDriver(fn=fn, K_Y=0.5, K_Z=1.0)
    x, z = np.zeros((7, 1)), np.linspace(0.0, 1.0, 7)
    c = np.linspace(-1.0, 1.0, 7)
    if bad is not None:
        c[3] = bad
    ref, ref_calls, converged = _scan_first_solve(driver, 0.0, x, c, z, 0.1)
    calls.clear()
    steps = ImplicitSteps(driver, [0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = steps.solve(4, 0.0, x, c, z, 0.1)
    assert y.tobytes() == ref.tobytes() and len(calls) == ref_calls and converged
    assert steps.unconverged == []
    if bad is not None:
        assert ref_calls == 1 and not np.isfinite(y[3]) and np.all(np.isfinite(np.delete(y, 3)))


def test_problem_spec_validation():
    # the horizon is the grid's: a spec takes none, so none can disagree with it
    drv = LipschitzDriver(fn=lambda t, x, y, z: np.zeros(np.atleast_2d(x).shape[0]))
    with pytest.raises(TypeError):
        ProblemSpec(generator=None, driver=drv, terminal_g=lambda p: p[:, 0], horizon_T=1.0)
