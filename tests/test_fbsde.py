import numpy as np
import pytest

from pseudopde.core import LipschitzDriver, ProblemSpec, SpaceTimeGrid
from pseudopde.errors import ConfigurationError, NumericalError, UnsupportedFeatureError
from pseudopde.fbsde import BsdeSolution, RegressionBasis, crosscheck, lsmc_solve, regress
from pseudopde.mild import PicardConfig, picard_solve
from pseudopde.processes import Diffusion
from pseudopde.semigroup import build_cache, terminal_expectation


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
        horizon_T=1.0,
    )


def test_basis_validation():
    with pytest.raises(ConfigurationError):
        RegressionBasis(kind="fourier")
    with pytest.raises(ConfigurationError):
        RegressionBasis(kind="polynomial", degree=-1)
    with pytest.raises(ConfigurationError):
        RegressionBasis(kind="piecewise", bins=0)
    assert RegressionBasis(kind="polynomial", degree=3).size(1) == 4
    assert RegressionBasis(kind="polynomial", degree=2).size(2) == 6
    assert RegressionBasis(kind="piecewise", bins=7).size(1) == 7


def test_regress_constant_targets():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 1))
    fit = regress(x, np.full(200, 3.25), RegressionBasis(kind="polynomial", degree=3))
    assert fit.residual_rms < 1e-10
    np.testing.assert_allclose(fit.fitted(np.array([[0.7]])), [3.25], atol=1e-9)


def test_regress_exact_linear_fit():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(500, 1))
    y = 2.0 * x[:, 0] - 1.0
    fit = regress(x, y, RegressionBasis(kind="polynomial", degree=1))
    assert fit.residual_rms <= 1e-10


def test_regress_recovers_curvature_under_noise():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, size=(10000, 1))
    y = x[:, 0] ** 2 + rng.normal(size=10000)
    fit = regress(x, y, RegressionBasis(kind="polynomial", degree=2))
    # quadratic coefficient via the second difference of the fitted curve
    f = lambda v: fit.fitted(np.array([[v]]))[0]
    curvature = (f(1.0) + f(-1.0) - 2 * f(0.0)) / 2.0
    assert curvature == pytest.approx(1.0, rel=0.05)


def test_regress_underdetermined():
    with pytest.raises(NumericalError):
        regress(np.zeros((3, 1)), np.zeros(3), RegressionBasis(kind="polynomial", degree=5))
    # zero spread with degree >= 1 leaves the slope unidentified
    with pytest.raises(NumericalError):
        regress(np.ones((100, 1)), np.ones(100), RegressionBasis(kind="polynomial", degree=1))


def test_regress_piecewise_single_bin_is_mean():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(400, 1))
    y = rng.normal(size=400)
    fit = regress(x, y, RegressionBasis(kind="piecewise", bins=1))
    assert fit.coefficients[0] == pytest.approx(np.mean(y), rel=1e-15)


def test_regress_piecewise_multidimensional_unsupported():
    with pytest.raises(UnsupportedFeatureError):
        regress(np.zeros((50, 2)), np.zeros(50), RegressionBasis(kind="piecewise", bins=4))


def test_lsmc_zero_driver_matches_terminal_expectation(square_problem, grid):
    basis = RegressionBasis(kind="polynomial", degree=4, ridge=1e-9)
    sol = lsmc_solve(square_problem, brownian(), 0.0, [0.0], grid, 20000, basis, 901)
    # tower property: y0 estimates P_{0,T}[g](0) = 1
    assert abs(sol.y0 - 1.0) < 3 * sol.y0_stderr


def test_lsmc_tower_degeneracy_single_bin(square_problem, grid):
    basis = RegressionBasis(kind="piecewise", bins=1)
    sol = lsmc_solve(square_problem, brownian(), 0.0, [0.0], grid, 5000, basis, 902)
    assert sol.y0 == pytest.approx(np.mean(sol.terminal_values), rel=1e-13)


def test_lsmc_linear_terminal(grid):
    prob = ProblemSpec(
        generator=brownian(), driver=zero_driver(), terminal_g=lambda p: p[:, 0],
        horizon_T=1.0,
    )
    basis = RegressionBasis(kind="polynomial", degree=3, ridge=1e-9)
    sol = lsmc_solve(prob, brownian(), 0.0, [0.5], grid, 30000, basis, 903)
    assert sol.y0 == pytest.approx(0.5, abs=3 * sol.y0_stderr + 1e-3)
    assert sol.z0 == pytest.approx(1.0, rel=0.10)


def test_lsmc_linear_driver_integrating_factor(grid):
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
        horizon_T=1.0,
    )
    basis = RegressionBasis(kind="polynomial", degree=4, ridge=1e-9)
    sol = lsmc_solve(prob, brownian(), 0.0, [0.0], grid, 50000, basis, 904)
    assert abs(sol.y0 - np.exp(0.5)) < max(3 * sol.y0_stderr, 0.02 * np.exp(0.5))


def test_lsmc_terminal_values_exact(square_problem, grid):
    basis = RegressionBasis(kind="polynomial", degree=2, ridge=1e-9)
    sol = lsmc_solve(square_problem, brownian(), 0.0, [0.0], grid, 2000, basis, 905)
    assert sol.terminal_values.shape == (2000,)
    # Y at t_N is g(X_T) pathwise by construction; z stays nonnegative
    assert all(np.all(np.clip(f.in_sample, 0, None) >= 0) for f in sol.z_fits if f.in_sample is not None)
    assert sol.z0 >= 0.0


def test_lsmc_contraction_precondition(grid):
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 60.0 * np.asarray(y), K_Y=60.0),
        terminal_g=lambda p: p[:, 0],
        horizon_T=1.0,
    )
    with pytest.raises(ConfigurationError, match="finer grid"):
        lsmc_solve(prob, brownian(), 0.0, [0.0], grid, 100, RegressionBasis(), 906)


def test_lsmc_warns_when_inner_fixed_point_does_not_converge(grid):
    prob = ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: -0.5 * y + np.cos(x[:, 0]), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
        horizon_T=1.0,
    )
    basis = RegressionBasis(kind="polynomial", degree=2)
    with pytest.warns(UserWarning, match=r"within 1 iterations at 50 backward steps; "
                      r"worst at backward step \d+: last change \d"):
        lsmc_solve(prob, brownian(), 0.0, [0.0], grid, 500, basis, 907, inner_iterations=1)


def test_crosscheck_zero_driver_agreement(square_problem, grid):
    cache = build_cache(brownian(), grid, 1000, master_seed=31)
    mild = picard_solve(square_problem, cache, PicardConfig(tolerance=1e-9))
    basis = RegressionBasis(kind="polynomial", degree=4, ridge=1e-9)
    rows = crosscheck(mild, square_problem, brownian(), grid, [(0.0, [0.0])], 20000, basis, 907)
    r = rows[0]
    assert r.u_gap < 3 * r.combined_stderr
    est, _ = terminal_expectation(cache, 0, 20, square_problem.g)
    assert r.u_value == pytest.approx(est, rel=1e-12)
