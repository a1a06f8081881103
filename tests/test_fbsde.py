import tracemalloc
import warnings

import numpy as np
import pytest

from pseudopde import fbsde
from pseudopde.core import LipschitzDriver, ProblemSpec, SpaceTimeGrid
from pseudopde.errors import ConfigurationError, InputError, NumericalError
from pseudopde.fbsde import RegressionBasis, crosscheck, lsmc_solve, regress, regression_design
from pseudopde.mild import PicardConfig, picard_solve
from pseudopde.processes import Diffusion
from pseudopde.semigroup import build_cache

from cell_reference import terminal_expectation
from test_processes import _drift


def brownian():
    return Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 1.0)


def zero_driver():
    return LipschitzDriver(fn=lambda t, x, y, z: np.zeros(np.atleast_2d(x).shape[0]))


@pytest.fixture(scope="module")
def grid():
    return SpaceTimeGrid.regular(1.0, 50, -4.0, 4.0, 41)


@pytest.fixture(scope="module")
def square_problem():
    return ProblemSpec(
        generator=brownian(), driver=zero_driver(), terminal_g=lambda p: p[:, 0] ** 2,
    )


def test_basis_validation():
    with pytest.raises(ConfigurationError):
        RegressionBasis(degree=-1)
    with pytest.raises(ConfigurationError):
        RegressionBasis(ridge=-1e-9)


def fit(x, y, basis):
    return regress(regression_design(x, basis), y, basis.ridge)


def test_regress_constant_targets():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 1))
    fitted, rms = fit(x, np.full(200, 3.25), RegressionBasis(degree=3))
    assert rms < 1e-10
    assert fitted.shape == (200,)
    np.testing.assert_allclose(fitted, 3.25, atol=1e-9)


def test_regress_exact_linear_fit():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(500, 1))
    y = 2.0 * x[:, 0] - 1.0
    fitted, rms = fit(x, y, RegressionBasis(degree=1))
    assert rms <= 1e-10
    np.testing.assert_allclose(fitted, y, atol=1e-9)


def test_regress_recovers_curvature_under_noise():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, size=(10000, 1))
    y = x[:, 0] ** 2 + rng.normal(size=10000)
    fitted, _ = fit(x, y, RegressionBasis(degree=2))
    # the fitted values lie on one quadratic; its leading coefficient is the
    # curvature, read off by an exact interpolation through three samples
    picks = [int(np.argmin(np.abs(x[:, 0] - v))) for v in (-1.5, 0.0, 1.5)]
    curvature = np.polyfit(x[picks, 0], fitted[picks], 2)[0]
    assert curvature == pytest.approx(1.0, rel=0.05)


def test_regress_underdetermined():
    with pytest.raises(NumericalError):
        fit(np.zeros((3, 1)), np.zeros(3), RegressionBasis(degree=5))
    # zero spread with degree >= 1 leaves the slope unidentified
    with pytest.raises(NumericalError):
        fit(np.ones((100, 1)), np.ones(100), RegressionBasis(degree=1))


def test_regress_needs_one_sample_row_per_target():
    # samples are (n, d); a (1, n) row is not read as n one-d samples
    with pytest.raises(InputError):
        fit(np.zeros((1, 50)), np.zeros(50), RegressionBasis(degree=1))
    with pytest.raises(InputError):
        fit(np.zeros(50), np.zeros(50), RegressionBasis(degree=1))


def test_lsmc_zero_driver_matches_terminal_expectation(square_problem, grid):
    basis = RegressionBasis(degree=4, ridge=1e-9)
    sol = lsmc_solve(square_problem, brownian(), 0.0, [0.0], grid, 20000, basis, 901)
    # tower property: y0 estimates P_{0,T}[g](0) = 1
    assert abs(sol.y0 - 1.0) < 3 * sol.y0_stderr


def test_lsmc_tower_degeneracy_single_bin(square_problem, grid):
    basis = RegressionBasis(degree=0)
    sol = lsmc_solve(square_problem, brownian(), 0.0, [0.0], grid, 5000, basis, 902)
    assert sol.y0 == pytest.approx(np.mean(sol.terminal_values), rel=1e-13)


def test_lsmc_linear_terminal(grid):
    prob = ProblemSpec(
        generator=brownian(), driver=zero_driver(), terminal_g=lambda p: p[:, 0],
    )
    basis = RegressionBasis(degree=3, ridge=1e-9)
    sol = lsmc_solve(prob, brownian(), 0.0, [0.5], grid, 30000, basis, 903)
    assert sol.y0 == pytest.approx(0.5, abs=3 * sol.y0_stderr + 1e-3)
    assert sol.z0 == pytest.approx(1.0, rel=0.10)


def test_lsmc_carries_z_over_a_flat_first_step():
    # V flat on [0, 0.1]: Z_0 is not identified, so it carries Z_1, as mild's
    # v(0, x) carries v(0.1, x); u = e^{(0.9 - V)/2} (x^2 + 0.9 - V), so
    # both should read |d_x u|(0, 1.2) = 2.4 e^{0.45}
    from pseudopde.core import ClockV

    clock = ClockV(kind="tabulated", times=[0.0, 0.1, 1.0], values=[0.0, 0.0, 0.9])
    grid = SpaceTimeGrid.regular(1.0, 10, -4.0, 4.0, 21, clock=clock)
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    basis = RegressionBasis(degree=3, ridge=1e-9)
    with pytest.warns(UserWarning, match=r"dV = 0 at backward steps \[0\]"):
        sol = lsmc_solve(prob, brownian(), 0.0, [1.2], grid, 20000, basis, 907)
    with pytest.warns(UserWarning, match=r"dV = 0 on steps \[0\]"):
        mild = picard_solve(prob, build_cache(brownian(), grid, 1000, master_seed=7),
                            PicardConfig())
    v0 = mild.v[0, 13]  # node 13 is x = 1.2
    assert v0 == mild.v[1, 13]
    assert sol.z0 > 0.0 and sol.z0 == pytest.approx(v0, rel=0.15)
    assert sol.z0 == pytest.approx(2.4 * np.exp(0.45), rel=0.1)


def test_lsmc_takes_the_mean_where_positions_coincide():
    # V flat on [0, 0.1]: every path still sits at x at step 1, where the
    # ridge-free degree-3 design has rank 1, so that step takes the sample
    # mean, as the origin step does; u = e^{(0.9 - V)/2} (x^2 + 0.9 - V)
    from pseudopde.core import ClockV

    clock = ClockV(kind="tabulated", times=[0.0, 0.1, 1.0], values=[0.0, 0.0, 0.9])
    grid = SpaceTimeGrid.regular(1.0, 10, -4.0, 4.0, 21, clock=clock)
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    with pytest.warns(UserWarning, match=r"dV = 0 at backward steps \[0\]"):
        sol = lsmc_solve(prob, brownian(), 0.0, [1.2], grid, 5000, RegressionBasis(degree=3), 909)
    assert sol.regression_residuals[:2] == [0.0, 0.0]
    assert min(sol.regression_residuals[2:]) > 0.0
    # 0.02: the left-endpoint rule's bias, (1 - 0.05)^-9 against e^0.45
    assert abs(sol.y0 - np.exp(0.45) * 2.34) < 3 * sol.y0_stderr + 0.02 * np.exp(0.45) * 2.34
    assert sol.z0 == pytest.approx(2.4 * np.exp(0.45), rel=0.1)


def test_lsmc_linear_driver_integrating_factor(grid):
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    basis = RegressionBasis(degree=4, ridge=1e-9)
    sol = lsmc_solve(prob, brownian(), 0.0, [0.0], grid, 50000, basis, 904)
    assert abs(sol.y0 - np.exp(0.5)) < max(3 * sol.y0_stderr, 0.02 * np.exp(0.5))


def test_lsmc_terminal_values_exact(square_problem, grid):
    basis = RegressionBasis(degree=2, ridge=1e-9)
    sol = lsmc_solve(square_problem, brownian(), 0.0, [0.0], grid, 2000, basis, 905)
    assert sol.terminal_values.shape == (2000,)
    # one regression residual per backward step, the first one (the plain
    # sample mean at the origin) recorded as 0.0; z stays nonnegative
    assert len(sol.regression_residuals) == 50
    assert np.all(np.isfinite(sol.regression_residuals))
    assert sol.regression_residuals[0] == 0.0
    assert sol.z0 >= 0.0


def test_lsmc_builds_one_design_per_backward_step(square_problem, grid, monkeypatch):
    designs, fitted_on = [], []
    real_design, real_regress = fbsde.regression_design, fbsde.regress

    def recording_design(x, basis):
        designs.append(real_design(x, basis))
        return designs[-1]

    def recording_regress(design, y, ridge, gram=None):
        fitted_on.append((design, gram))
        return real_regress(design, y, ridge, gram)

    monkeypatch.setattr(fbsde, "regression_design", recording_design)
    monkeypatch.setattr(fbsde, "regress", recording_regress)
    basis = RegressionBasis(degree=2, ridge=1e-9)
    lsmc_solve(square_problem, brownian(), 0.0, [0.0], grid, 500, basis, 908)
    # the origin step is a plain mean; every other step fits Y and the
    # squared innovation on one design and one Gram matrix
    assert len(designs) == 49 and len(fitted_on) == 98
    pairs = list(zip(fitted_on[::2], fitted_on[1::2], designs))
    assert all(a is d and b is d for (a, _), (b, _), d in pairs)
    assert all(g is not None and h is g for (_, g), (_, h), _ in pairs)


def test_lsmc_holds_its_ensemble_and_one_step_of_work():
    # drift workload sizes: 30,000 paths over 40 steps (9.4 MiB), degree 4;
    # with two Gram matrices a step and the previous step's design alive
    # while the next was built, the solve took 6.5 MiB beside the paths
    grid = SpaceTimeGrid.regular(1.0, 40, -2.5, 2.5, 11)
    gen = _drift()
    problem = ProblemSpec(generator=gen,
                          driver=LipschitzDriver(fn=lambda t, x, y, z: 0.2 * y, K_Y=0.2),
                          terminal_g=lambda p: np.tanh(p[:, 0]))
    tracemalloc.start()
    try:
        lsmc_solve(problem, gen, 0.0, [0.4], grid, 30000, RegressionBasis(degree=4, ridge=1e-9), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 30000 * 41 * 8 + 4 * 2**20


def test_lsmc_contraction_precondition(grid):
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 60.0 * np.asarray(y), K_Y=60.0),
        terminal_g=lambda p: p[:, 0],
    )
    with pytest.raises(ConfigurationError, match="finer grid"):
        lsmc_solve(prob, brownian(), 0.0, [0.0], grid, 100, RegressionBasis(), 906)


def test_lsmc_warns_when_inner_fixed_point_does_not_converge(grid):
    # K_Y dV = 0.99: 50 fixed-point steps leave each step short of 1e-12
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: -49.5 * y + np.cos(x[:, 0]), K_Y=49.5),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    basis = RegressionBasis(degree=2)
    with pytest.warns(UserWarning, match=r"within 50 iterations at 50 backward steps; "
                      r"worst at backward step \d+: last change \d") as record:
        lsmc_solve(prob, brownian(), 0.0, [0.0], grid, 500, basis, 907)
    assert len(record) == 1


def test_lsmc_infinite_driver_raises_naming_the_step():
    # the backward pass solves step N-1 first, so that step is named, with no warning on the way
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: np.full(np.atleast_2d(x).shape[0], np.inf)),
        terminal_g=lambda p: p[:, 0] ** 2,
    )
    small = SpaceTimeGrid.regular(1.0, 4, -2.0, 2.0, 5)
    with warnings.catch_warnings(), pytest.raises(
        NumericalError, match="Y turned non-finite at backward step 3$"
    ):
        warnings.simplefilter("error")
        lsmc_solve(prob, brownian(), 0.0, [0.0], small, 200, RegressionBasis(degree=2), 908)


def test_poly_design_columns_are_prefix_products():
    # degree 3 in 2 coordinates: 1, a, b, aa, ab, bb, aaa, aab, abb, bbb
    x = np.array([[2.0, 3.0], [-1.0, 0.5]])
    a, b = x[:, 0], x[:, 1]
    want = np.stack([np.ones(2), a, b, a * a, a * b, b * b,
                     a * a * a, a * a * b, a * b * b, b * b * b], axis=1)
    design = fbsde._poly_design(x, 3)
    assert np.array_equal(design, want) and design.flags.c_contiguous


def test_crosscheck_rejects_off_grid_origin(square_problem):
    small = SpaceTimeGrid.regular(1.0, 4, -2.0, 2.0, 5)
    cache = build_cache(brownian(), small, 20, master_seed=3)
    mild = picard_solve(square_problem, cache, PicardConfig(max_iterations=2))
    with pytest.raises(ConfigurationError, match="time 0.1 is not a grid time"):
        crosscheck(mild, square_problem, brownian(), small, [(0.1, [0.0])], 100,
                   RegressionBasis(degree=2), 5)


def test_crosscheck_zero_driver_agreement(square_problem, grid):
    cache = build_cache(brownian(), grid, 1000, master_seed=31)
    mild = picard_solve(square_problem, cache, PicardConfig(tolerance=1e-9))
    basis = RegressionBasis(degree=4, ridge=1e-9)
    rows = crosscheck(mild, square_problem, brownian(), grid, [(0.0, [0.0])], 20000, basis, 907)
    r = rows[0]
    assert r.u_gap < 3 * r.combined_stderr
    est, _ = terminal_expectation(cache, 0, 20, square_problem.g)
    assert r.u_value == pytest.approx(est, rel=1e-12)
