"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at fixed seeds, so the whole suite is deterministic.
Shared solves are computed once per module; the heat-family problems share
one frozen path cache (common random numbers), the z-coupled problem uses
its own.
"""

import json
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from pseudopde.core import LipschitzDriver, ProblemSpec, SpaceTimeGrid
from pseudopde.fbsde import RegressionBasis, crosscheck
from pseudopde.mild import PicardConfig, mild_residuals, picard_solve, update_v_volterra
from pseudopde.operators import (
    SmoothTestFunction,
    SpectralFractional,
    bounded_test_functions,
    decaying_test_functions,
    gamma_fractional,
    gamma_from_generator,
    generator_action,
    martingale_test,
)
from pseudopde.processes import (
    Diffusion,
    DistributionalDrift,
    JumpDiffusion,
    JumpLaw,
    LevyKernel,
    Stable,
    build_h_transform,
    simulate,
)
from pseudopde.semigroup import build_cache, chapman_kolmogorov_test

TIMINGS = {}


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def brownian():
    return Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 1.0)


def zero_driver():
    return LipschitzDriver(fn=lambda t, x, y, z: np.zeros(np.atleast_2d(x).shape[0]))


@pytest.fixture(scope="module")
def grid():
    return SpaceTimeGrid.regular(1.0, 50, -4.0, 4.0, 41)


@pytest.fixture(scope="module")
def heat_cache(grid):
    t0 = time.perf_counter()
    cache = build_cache(brownian(), grid, 1500, master_seed=20240612)
    TIMINGS["cache"] = time.perf_counter() - t0
    return cache


@pytest.fixture(scope="module")
def problem1():
    return ProblemSpec(
        generator=brownian(), driver=zero_driver(), terminal_g=lambda p: p[:, 0] ** 2,
        horizon_T=1.0,
    )


@pytest.fixture(scope="module")
def solve1(problem1, heat_cache):
    t0 = time.perf_counter()
    sol = picard_solve(problem1, heat_cache, PicardConfig(max_iterations=8, tolerance=1e-6))
    TIMINGS["solve1"] = time.perf_counter() - t0
    return sol


@pytest.fixture(scope="module")
def problem2():
    return ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.5 * np.asarray(y), K_Y=0.5),
        terminal_g=lambda p: p[:, 0] ** 2,
        horizon_T=1.0,
    )


@pytest.fixture(scope="module")
def solve2(problem2, heat_cache):
    t0 = time.perf_counter()
    sol = picard_solve(problem2, heat_cache, PicardConfig(max_iterations=8, tolerance=0.01))
    TIMINGS["solve2"] = time.perf_counter() - t0
    return sol


@pytest.fixture(scope="module")
def problem3():
    return ProblemSpec(
        generator=brownian(),
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.3 * np.asarray(z), K_Z=0.3),
        terminal_g=lambda p: np.tanh(p[:, 0]),
        horizon_T=1.0,
    )


@pytest.fixture(scope="module")
def cache3(grid):
    return build_cache(brownian(), grid, 1500, master_seed=31415)


@pytest.fixture(scope="module")
def solve3(problem3, cache3):
    return picard_solve(problem3, cache3, PicardConfig(max_iterations=10, tolerance=0.002))


def _node(grid, x):
    return int(np.argmin(np.abs(grid.nodes()[:, 0] - x)))


def test_criterion_01_heat_baseline(grid, solve1):
    n0 = _node(grid, 0.0)
    u00, se = solve1.u.values[0, n0], solve1.u_stderr[0, n0]
    ok_u = abs(u00 - 1.0) < 3 * se
    n1 = _node(grid, 1.0)
    v_val, v_se = solve1.v.values[25, n1], solve1.v_stderr[25, n1]
    ok_v = abs(v_val - 2.0) < max(3 * v_se, 0.10 * 2.0)
    runtime = TIMINGS["cache"] + TIMINGS["solve1"]
    ok_t = runtime < 60.0
    _report(
        1, ok_u and ok_v and ok_t,
        f"u(0,0)={u00:.4f}+-{se:.4f} (want 1), v(0.5,1)={v_val:.4f} (want 2), "
        f"runtime {runtime:.0f}s < 60s",
    )


def test_criterion_02_linear_y_driver(grid, solve2):
    n0 = _node(grid, 0.0)
    u00, se = solve2.u.values[0, n0], solve2.u_stderr[0, n0]
    target = np.exp(0.5)
    gap = abs(u00 - target)
    ok_u = gap <= max(3 * se, 0.02 * target)
    runtime = TIMINGS["cache"] + TIMINGS["solve2"]
    ok_t = runtime < 120.0
    _report(
        2, ok_u and ok_t,
        f"u(0,0)={u00:.4f}+-{se:.4f} vs e^0.5={target:.5f} (gap {gap:.4f}), "
        f"runtime {runtime:.0f}s < 120s",
    )


def test_criterion_03_linear_z_driver(grid, solve3):
    oracle, err = integrate.quad(lambda w: np.tanh(0.3 + w) * norm.pdf(w), -12.0, 12.0)
    assert err < 1e-8
    n0 = _node(grid, 0.0)
    u00, se = solve3.u.values[0, n0], solve3.u_stderr[0, n0]
    gap = abs(u00 - oracle)
    ok = gap <= max(3 * se, 0.02 * abs(oracle))
    _report(3, ok, f"u(0,0)={u00:.4f}+-{se:.4f} vs quadrature oracle {oracle:.5f} (gap {gap:.4f})")


def test_criterion_04_picard_contraction(solve2):
    deltas = solve2.deltas
    monotone = all(deltas[k + 1] <= deltas[k] for k in range(1, len(deltas) - 1))
    ratios = [deltas[k + 1] / deltas[k] for k in range(1, len(deltas) - 1)]
    ok = monotone and all(r <= 0.9 for r in ratios) and solve2.iterations <= 8
    _report(
        4, ok,
        f"deltas={[f'{d:.3g}' for d in deltas]}, ratios<=0.9: {[f'{r:.2f}' for r in ratios]}, "
        f"iterations={solve2.iterations}",
    )


def test_criterion_05_mild_fbsde_equivalence(grid, problem1, problem2, problem3, solve1, solve2, solve3):
    basis = RegressionBasis(degree=4, ridge=1e-9)
    details = []
    ok = True
    for label, prob, sol, seed in [
        ("f=0", problem1, solve1, 907001),
        ("f=0.5y", problem2, solve2, 907002),
        ("f=0.3z", problem3, solve3, 777),
    ]:
        row = crosscheck(sol, prob, brownian(), grid, [(0.0, [0.0])], 50000, basis, seed)[0]
        u_tol = max(3 * row.combined_stderr, 0.02 * max(abs(row.u_value), abs(row.y0)))
        v_scale = float(np.max(np.abs(sol.v.values)))
        v_tol = 0.10 * v_scale
        ok_here = row.u_gap <= u_tol and row.v_gap <= v_tol
        ok = ok and ok_here
        details.append(
            f"{label}: |u-y0|={row.u_gap:.4f}<={u_tol:.4f}, |v-Z0|={row.v_gap:.4f}<={v_tol:.4f}"
        )
    _report(5, ok, "; ".join(details))


def test_criterion_06_second_line_residual(grid, problem1, problem2, problem3, solve1, solve2, solve3, heat_cache, cache3):
    details = []
    ok = True
    # z-decoupled problems: check the pair with the backward-identified w,
    # the scheme that solves the second line directly
    for label, prob, sol, cache in [
        ("f=0", problem1, solve1, heat_cache),
        ("f=0.5y", problem2, solve2, heat_cache),
    ]:
        v_volt, _, _ = update_v_volterra(sol.u, sol.v, prob, cache)
        res = mild_residuals(sol.u, v_volt, prob, cache)
        scale = float(np.max(sol.u.values**2))
        tol = max(3 * res.stderr_floor_2, 0.02 * scale)
        ok_here = res.residual_2 <= tol
        ok = ok and ok_here
        details.append(f"{label}: r2={res.residual_2:.3g}<={tol:.3g}")
    # the z-coupled problem is checked with its own converged pair
    res3 = solve3.residuals
    scale3 = float(np.max(solve3.u.values**2))
    tol3 = max(3 * res3.stderr_floor_2, 0.02 * scale3)
    ok3 = res3.residual_2 <= tol3
    ok = ok and ok3
    details.append(f"f=0.3z: r2={res3.residual_2:.3g}<={tol3:.3g}")
    _report(6, ok, "; ".join(details))


def test_criterion_07_martingale_problem_tests():
    grid = SpaceTimeGrid.regular(1.0, 100, -6.0, 6.0, 25)
    xs = np.linspace(-3.5, 3.5, 8001)
    variants = [
        ("brownian", brownian(), bounded_test_functions(1), 500),
        ("drifted", Diffusion(mu=lambda t, x: -0.2 * np.atleast_2d(x), sigma=lambda t, x: 1.0),
         bounded_test_functions(1), 500),
        ("jump", JumpDiffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 0.5,
                               levy=LevyKernel(rate=1.0, law=JumpLaw(kind="two_point", param=0.7))),
         bounded_test_functions(1), 500),
        ("stable", Stable(alpha=1.2), decaying_test_functions(1), 500),
        ("distributional",
         DistributionalDrift(b_x=xs, b_values=-(xs**2) / 4.0, sigma_fn=lambda v: np.ones_like(v)),
         bounded_test_functions(1), 800),
    ]
    details = []
    ok = True
    for name, gen, fns, seed_base in variants:
        act = generator_action(gen)
        worst = max(
            martingale_test(
                simulate(gen, 0.0, [0.3], grid, 100000, seed_base + k), phi, act(phi)
            ).max_abs_z
            for k, phi in enumerate(fns)
        )
        ok = ok and worst < 4.0
        details.append(f"{name}: max|z|={worst:.2f}")
    # negative control: missing compensator for phi = x^2 must be flagged
    phi_sq = SmoothTestFunction(value=lambda t, x: x[:, 0] ** 2)
    control = martingale_test(
        simulate(brownian(), 0.0, [0.3], grid, 100000, 99),
        phi_sq, lambda t, x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    ok = ok and control.max_abs_z > 10.0
    details.append(f"control: max|z|={control.max_abs_z:.1f}>10")
    _report(7, ok, "; ".join(details))


def test_criterion_08_chapman_kolmogorov():
    grid = SpaceTimeGrid.regular(1.0, 50, -6.0, 6.0, 25)
    phi = lambda xs: np.tanh(xs[:, 0])
    z_bm = chapman_kolmogorov_test(brownian(), 0.0, 0.5, 1.0, [0.3], phi, 10000, 555, grid)
    z_st = chapman_kolmogorov_test(Stable(alpha=1.0), 0.0, 0.5, 1.0, [0.3], phi, 10000, 1001, grid)
    ok = abs(z_bm) < 3.0 and abs(z_st) < 3.0
    _report(8, ok, f"brownian |z|={abs(z_bm):.2f}, stable(alpha=1) |z|={abs(z_st):.2f}")


def test_criterion_09_fractional_gamma_route_agreement():
    t0 = time.perf_counter()
    bump = SmoothTestFunction(value=lambda t, x: np.exp(-x[:, 0] ** 2))
    pts = np.array([[0.0], [0.5], [1.0]])
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        quad_route = gamma_fractional(bump, alpha)
        spec = SpectralFractional(alpha)

        def a_action(phi, spec=spec):
            def act(t, x):
                return phi.dt_at(t, x) - spec.frac_laplacian(phi, t, x[:, 0])
            return act

        comp = gamma_from_generator(a_action, bump, bump)
        rel = np.max(np.abs(quad_route(0.0, pts) - comp(0.0, pts)) / np.abs(comp(0.0, pts)))
        worst = max(worst, float(rel))
    runtime = time.perf_counter() - t0
    ok = worst < 0.01 and runtime < 30.0
    _report(9, ok, f"max relative gap {worst:.2e} < 1%, runtime {runtime:.1f}s < 30s")


def test_criterion_10_stable_law():
    grid = SpaceTimeGrid.regular(1.0, 50, -6.0, 6.0, 25)
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0):
        ens = simulate(Stable(alpha=alpha), 0.0, [0.0], grid, 100000, 314000 + int(alpha * 10))
        xt = ens.paths[:, -1, 0]
        for xi in (0.5, 1.0, 2.0):
            vals = np.cos(xi * xt)
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            worst = max(worst, abs(vals.mean() - np.exp(-abs(xi) ** alpha)) / se)
    ok = worst < 3.0
    _report(10, ok, f"worst |z| over (alpha, xi) grid = {worst:.2f} < 3")


def test_criterion_11_distributional_drift():
    # (a) closed-form transform for b(x) = x on a 10^4-node table
    xs = np.linspace(-1.0, 1.0, 10001)
    tr = build_h_transform(xs, xs, lambda v: np.ones_like(v))
    err_a = max(
        float(np.max(np.abs(tr.Sigma_table - 2 * xs))),
        float(np.max(np.abs(tr.h_table - (1 - np.exp(-2 * xs)) / 2))),
        float(np.max(np.abs(tr.sigma0_table - (1 - 2 * tr.h_table)))),
    )
    ok_a = err_a < 1e-4

    # (b) smooth b: transform simulation vs direct Euler on E[tanh(X_1)]
    xs2 = np.linspace(-3.5, 3.5, 8001)
    dd = DistributionalDrift(b_x=xs2, b_values=-(xs2**2) / 4.0, sigma_fn=lambda v: np.ones_like(v))
    fine = SpaceTimeGrid.regular(1.0, 200, -3.5, 3.5, 29)
    a_vals = np.tanh(simulate(dd, 0.0, [0.4], fine, 20000, 901).paths[:, -1, 0])
    ou = Diffusion(mu=lambda t, x: -0.5 * np.atleast_2d(x), sigma=lambda t, x: 1.0)
    b_vals = np.tanh(simulate(ou, 0.0, [0.4], fine, 20000, 902).paths[:, -1, 0])
    z = (a_vals.mean() - b_vals.mean()) / np.hypot(
        a_vals.std(ddof=1) / np.sqrt(a_vals.size), b_vals.std(ddof=1) / np.sqrt(b_vals.size)
    )
    ok_b = abs(z) < 3.0

    # (c) full solve with f = 0.2 y, g = tanh against the backward solver
    grid = SpaceTimeGrid.regular(1.0, 40, -2.5, 2.5, 26)
    prob = ProblemSpec(
        generator=dd,
        driver=LipschitzDriver(fn=lambda t, x, y, z_: 0.2 * np.asarray(y), K_Y=0.2),
        terminal_g=lambda p: np.tanh(p[:, 0]),
        horizon_T=1.0,
    )
    cache = build_cache(dd, grid, 1500, master_seed=5151)
    sol = picard_solve(prob, cache, PicardConfig(max_iterations=10, tolerance=0.002))
    basis = RegressionBasis(degree=4, ridge=1e-9)
    row = crosscheck(sol, prob, dd, grid, [(0.0, [0.4])], 30000, basis, 999)[0]
    u_tol = max(3 * row.combined_stderr, 0.02 * max(abs(row.u_value), abs(row.y0)))
    v_tol = 0.10 * float(np.max(np.abs(sol.v.values)))
    ok_c = row.u_gap <= u_tol and row.v_gap <= v_tol
    _report(
        11, ok_a and ok_b and ok_c,
        f"(a) table err {err_a:.2e} < 1e-4; (b) |z|={abs(z):.2f} < 3; "
        f"(c) |u-y0|={row.u_gap:.4f}<={u_tol:.4f}, |v-Z0|={row.v_gap:.4f}<={v_tol:.4f}",
    )


def test_criterion_12_fractional_semilinear():
    gen = Stable(alpha=1.5)
    grid = SpaceTimeGrid.regular(1.0, 40, -4.0, 4.0, 21)
    prob = ProblemSpec(
        generator=gen,
        driver=LipschitzDriver(fn=lambda t, x, y, z: 0.3 * np.asarray(y), K_Y=0.3),
        terminal_g=lambda p: np.tanh(p[:, 0]),
        horizon_T=1.0,
    )
    cache = build_cache(gen, grid, 6000, master_seed=2718, memory_budget_mb=2048)
    sol = picard_solve(prob, cache, PicardConfig(max_iterations=10, tolerance=0.002))
    basis = RegressionBasis(
        degree=5, ridge=1e-8, clip=(np.array([-4.0]), np.array([4.0]))
    )
    row = crosscheck(sol, prob, gen, grid, [(0.0, [0.4])], 50000, basis, 888)[0]
    u_tol = max(3 * row.combined_stderr, 0.02 * max(abs(row.u_value), abs(row.y0)))
    v_tol = 0.10 * float(np.max(np.abs(sol.v.values)))
    ok = row.u_gap <= u_tol and row.v_gap <= v_tol
    _report(
        12, ok,
        f"|u-y0|={row.u_gap:.4f}<={u_tol:.4f}, |v-Z0|={row.v_gap:.4f}<={v_tol:.4f}",
    )


def test_criterion_13_reproducibility(tmp_path):
    from pseudopde.cli import run

    cfg = {
        "schema": 1,
        "seed": 4711,
        "problem": {
            "generator": {"kind": "diffusion", "mu": "0", "sigma": "1"},
            "driver": {"expr": "0.5*y", "K_Y": 0.5},
            "terminal_g": {"expr": "x1^2"},
            "horizon_T": 1.0,
        },
        "grid": {"dimension": 1, "time_steps": 10, "space_min": [-4.0],
                 "space_max": [4.0], "space_nodes": [11]},
        "mild": {"cache_paths": 300, "max_iterations": 8, "tolerance": 0.01},
        "fbsde": {"paths": 2000, "basis": {"kind": "polynomial", "degree": 3},
                  "origins": [[0.0, 0.0]]},
        "operators": {"martingale_paths": 2000, "test_functions": 2},
        "phases": ["cache", "mild", "fbsde", "crosscheck", "operators"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(path, out_dir=tmp_path / "a") == 0
    assert run(path, out_dir=tmp_path / "b") == 0
    assert run(path, out_dir=tmp_path / "c", threads=4) == 0
    names = ["u.csv", "v.csv", "deltas.csv", "crosscheck.csv", "operator_report.csv"]
    same = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        and (tmp_path / "a" / n).read_bytes() == (tmp_path / "c" / n).read_bytes()
        for n in names
    )
    _report(13, same, "byte-identical reruns, --threads does not change bytes")
