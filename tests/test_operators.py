import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pseudopde.core import ClockV, LipschitzDriver, ProblemSpec, SpaceTimeGrid
from pseudopde.errors import NumericalError, UnsupportedFeatureError
from pseudopde.operators import (
    SmoothTestFunction, SpectralFractional, bounded_test_functions, decaying_test_functions,
    generator_action, martingale_test, _bounded_basis,
)
from pseudopde.processes import (
    Diffusion,
    DistributionalDrift,
    JumpLaw,
    LevyKernel,
    Stable,
    simulate,
)

from operator_reference import (
    FiniteDifferenceFunction, classical_residual, gamma_for_generator, gamma_fractional,
    gamma_from_generator, gamma_local, product, stable_intensity,
)
from test_processes import _drift


def brownian():
    return Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 1.0)


def phi_linear():
    return SmoothTestFunction(
        value=lambda t, x: x[:, 0],
        dt=lambda t, x: np.zeros(x.shape[0]),
        grad=lambda t, x: np.ones((x.shape[0], 1)),
        hess=lambda t, x: np.zeros((x.shape[0], 1, 1)),
    )


def phi_square():
    return SmoothTestFunction(
        value=lambda t, x: x[:, 0] ** 2,
        dt=lambda t, x: np.zeros(x.shape[0]),
        grad=lambda t, x: 2.0 * x[:, :1],
        hess=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
    )


def gaussian_bump():
    return FiniteDifferenceFunction(value=lambda t, x: np.exp(-x[:, 0] ** 2))


def test_finite_difference_partials_are_second_order():
    # halving h divides the error by ~4 where closed forms exist
    exact = decaying_test_functions(1)[0]
    pts = np.array([[0.3], [1.1], [-0.7]])
    errs = []
    for h in (1e-3, 5e-4):
        fd = FiniteDifferenceFunction(value=exact.value, h_fd=h)
        errs.append(
            max(
                np.max(np.abs(fd.grad_at(0.0, pts) - exact.grad_at(0.0, pts))),
                np.max(np.abs(fd.hess_at(0.0, pts) - exact.hess_at(0.0, pts))),
            )
        )
    assert errs[1] < errs[0] / 2.5


def test_product_rule_partials():
    p, q = phi_square(), decaying_test_functions(1)[0]
    prod = product(p, q)
    pts = np.array([[0.4], [-1.2]])
    ref = FiniteDifferenceFunction(value=lambda t, x: p.value(t, x) * q.value(t, x), h_fd=1e-5)
    np.testing.assert_allclose(prod.grad_at(0.0, pts), ref.grad_at(0.0, pts), atol=1e-6)
    np.testing.assert_allclose(prod.hess_at(0.0, pts), ref.hess_at(0.0, pts), atol=1e-4)


def test_gamma_local_identity_gradient():
    g = gamma_local(phi_linear(), phi_linear(), lambda t, x: 1.0)
    np.testing.assert_allclose(g(0.0, np.array([[0.3], [2.0]])), [1.0, 1.0])


def test_gamma_local_square():
    g = gamma_local(phi_square(), phi_square(), lambda t, x: 1.0)
    np.testing.assert_allclose(g(0.0, np.array([[1.0], [2.0]])), [4.0, 16.0])


def test_gamma_local_with_deterministic_jumps():
    levy = LevyKernel(rate=2.0, law=JumpLaw(kind="atoms", atoms=((1.0, 1.0),)))
    g = gamma_local(phi_linear(), phi_linear(), lambda t, x: 1.0, levy=levy)
    np.testing.assert_allclose(g(0.0, np.array([[0.0]])), [3.0])  # 1 + 2 * 1^2


def test_gamma_local_symmetry_and_bilinearity():
    rng = np.random.default_rng(0)
    fns = decaying_test_functions(1)
    pts = rng.uniform(-2, 2, (7, 1))
    a, b = fns[0], fns[2]
    g_ab = gamma_local(a, b, lambda t, x: 1.0)(0.3, pts)
    g_ba = gamma_local(b, a, lambda t, x: 1.0)(0.3, pts)
    np.testing.assert_allclose(g_ab, g_ba, atol=1e-12)
    two_a = SmoothTestFunction(
        value=lambda t, x: 2.0 * a.value(t, x),
        dt=lambda t, x: 2.0 * a.dt(t, x),
        grad=lambda t, x: 2.0 * a.grad(t, x),
        hess=lambda t, x: 2.0 * a.hess(t, x),
    )
    np.testing.assert_allclose(
        gamma_local(two_a, b, lambda t, x: 1.0)(0.3, pts), 2.0 * g_ab, atol=1e-12
    )


def test_gamma_from_generator_matches_local_for_brownian():
    act = generator_action(brownian())
    g = gamma_from_generator(act, phi_square(), phi_square())
    pts = np.array([[0.0], [1.0], [2.0]])
    ref = gamma_local(phi_square(), phi_square(), lambda t, x: 1.0)(0.0, pts)
    np.testing.assert_allclose(g(0.0, pts), ref, atol=1e-8)


def test_gamma_from_generator_constants_vanish():
    act = generator_action(brownian())
    const = SmoothTestFunction(
        value=lambda t, x: np.full(x.shape[0], 2.5),
        dt=lambda t, x: np.zeros(x.shape[0]),
        grad=lambda t, x: np.zeros((x.shape[0], 1)),
        hess=lambda t, x: np.zeros((x.shape[0], 1, 1)),
    )
    np.testing.assert_allclose(
        gamma_from_generator(act, const, const)(0.0, np.array([[0.7]])), [0.0], atol=1e-12
    )


def test_gamma_fractional_constant_vanishes():
    const = FiniteDifferenceFunction(value=lambda t, x: np.full(x.shape[0], 3.0))
    g = gamma_fractional(const, 1.2)
    # the closed tail of phi(x)^2 is offset exactly by zero differences only
    # for genuinely decaying phi; a constant has zero differences everywhere
    # and the tail term is spurious, so evaluate the difference parts alone
    vals = g(0.0, np.array([[0.0]]))
    tail = 2.0 * 9.0 * stable_intensity(1.2) / (1.2 * 50.0**1.2)
    np.testing.assert_allclose(vals - tail, [0.0], atol=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_gamma_routes_agree_on_bump(alpha):
    bump = gaussian_bump()
    quad_route = gamma_fractional(bump, alpha)
    spec = SpectralFractional(alpha)

    def a_action(phi):
        def act(t, x):
            return phi.dt_at(t, x) - spec.frac_laplacian(phi, t, x[:, 0])
        return act

    composition = gamma_from_generator(a_action, bump, bump)
    pts = np.array([[0.0], [0.5], [1.0]])
    q, c = quad_route(0.0, pts), composition(0.0, pts)
    assert np.max(np.abs(q - c) / np.abs(c)) < 0.01


def test_gamma_routes_agree_on_windowed_linear():
    ramp = FiniteDifferenceFunction(value=lambda t, x: x[:, 0] * np.exp(-((x[:, 0] / 6.0) ** 4)))
    quad_route = gamma_fractional(ramp, 1.0)
    spec = SpectralFractional(1.0)

    def a_action(phi):
        def act(t, x):
            return phi.dt_at(t, x) - spec.frac_laplacian(phi, t, x[:, 0])
        return act

    composition = gamma_from_generator(a_action, ramp, ramp)
    pts = np.array([[0.0], [0.5]])
    q, c = quad_route(0.0, pts), composition(0.0, pts)
    assert np.max(np.abs(q - c) / np.abs(c)) < 0.01


def test_gamma_nonnegative_on_diagonal():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-2, 2, (9, 1))
    for phi in decaying_test_functions(1):
        assert np.all(gamma_local(phi, phi, lambda t, x: 1.0)(0.1, pts) >= -1e-12)
        assert np.all(gamma_fractional(phi, 1.3)(0.1, pts) >= -1e-10)


def test_gamma_fractional_rejects_bad_alpha():
    with pytest.raises(Exception):
        gamma_fractional(gaussian_bump(), 2.5)


def _zero_driver():
    return LipschitzDriver(fn=lambda t, x, y, z: np.zeros(np.atleast_2d(x).shape[0]))


def test_classical_residual_heat_polynomial():
    # u = x^2 + (T - s) solves du/dt + u''/2 = 0
    u = SmoothTestFunction(
        value=lambda t, x: x[:, 0] ** 2 + (1.0 - t),
        dt=lambda t, x: -np.ones(x.shape[0]),
        grad=lambda t, x: 2.0 * x[:, :1],
        hess=lambda t, x: np.full((x.shape[0], 1, 1), 2.0),
    )
    prob = ProblemSpec(
        generator=brownian(), driver=_zero_driver(), terminal_g=lambda p: p[:, 0] ** 2,
    )
    grid = SpaceTimeGrid.regular(1.0, 4, -2.0, 2.0, 9)
    res = classical_residual(u, prob, grid)
    assert np.max(np.abs(res)) < 1e-10


def test_classical_residual_manufactured_solution():
    # pick u* = sin(x) e^{-(T-s)} and set f := -a(u*): residual vanishes
    u = SmoothTestFunction(
        value=lambda t, x: np.sin(x[:, 0]) * np.exp(-(1.0 - t)),
        dt=lambda t, x: np.sin(x[:, 0]) * np.exp(-(1.0 - t)),
        grad=lambda t, x: (np.cos(x[:, 0]) * np.exp(-(1.0 - t)))[:, None],
        hess=lambda t, x: (-np.sin(x[:, 0]) * np.exp(-(1.0 - t)))[:, None, None],
    )
    # a(u*) = u* - u*/2 = u*/2 under d/dt + (1/2) d^2/dx^2
    forced = LipschitzDriver(
        fn=lambda t, x, y, z: -0.5 * np.sin(np.atleast_2d(x)[:, 0]) * np.exp(-(1.0 - t))
    )
    prob = ProblemSpec(
        generator=brownian(), driver=forced, terminal_g=lambda p: np.sin(p[:, 0])
    )
    grid = SpaceTimeGrid.regular(1.0, 4, -2.0, 2.0, 9)
    res = classical_residual(u, prob, grid)
    assert np.max(np.abs(res)) < 1e-10

    # shifting u* by +0.1 with driver f = -y moves the residual by >= 0.05
    shifted = SmoothTestFunction(
        value=lambda t, x: u.value(t, x) + 0.1, dt=u.dt, grad=u.grad, hess=u.hess
    )
    decay = LipschitzDriver(fn=lambda t, x, y, z: -np.asarray(y), K_Y=1.0)
    prob2 = ProblemSpec(
        generator=brownian(), driver=decay, terminal_g=lambda p: np.sin(p[:, 0])
    )
    base = classical_residual(u, prob2, grid)
    moved = classical_residual(shifted, prob2, grid)
    assert np.max(np.abs(moved - base)) >= 0.05


def test_classical_residual_flags_broken_gamma():
    prob = ProblemSpec(
        generator=brownian(), driver=_zero_driver(), terminal_g=lambda p: p[:, 0]
    )
    grid = SpaceTimeGrid.regular(1.0, 2, -1.0, 1.0, 3)
    broken = lambda t, x: -np.ones(np.atleast_2d(x).shape[0])
    with pytest.raises(NumericalError):
        classical_residual(phi_linear(), prob, grid, gamma_impl=broken)


def test_martingale_test_brownian_linear():
    grid = SpaceTimeGrid.regular(1.0, 25, -4.0, 4.0, 5)
    phi = phi_linear()
    res = martingale_test(
        simulate(brownian(), 0.0, [0.0], grid, 30000, seed=1),
        phi, lambda t, x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    assert res.max_abs_z < 4.0


def test_martingale_test_compensated_square():
    grid = SpaceTimeGrid.regular(1.0, 25, -4.0, 4.0, 5)
    res = martingale_test(
        simulate(brownian(), 0.0, [0.0], grid, 30000, seed=2),
        phi_square(), lambda t, x: np.ones(np.atleast_2d(x).shape[0]),
    )
    assert res.max_abs_z < 4.0


def test_martingale_test_detects_missing_compensator():
    grid = SpaceTimeGrid.regular(1.0, 25, -4.0, 4.0, 5)
    res = martingale_test(
        simulate(brownian(), 0.0, [0.0], grid, 30000, seed=3),
        phi_square(), lambda t, x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    assert res.max_abs_z > 10.0


def test_martingale_rows_hold_on_a_quadratic_clock():
    # under V(t) = t^2 the paths step in dV, and the compensator charges the
    # spatial generator against dV and d_t phi against dt: the time-free fn0
    # and the time-dependent fn2 stay centred
    ts = np.linspace(0.0, 1.0, 201)
    clock = ClockV(kind="tabulated", times=ts, values=ts**2)
    grid = SpaceTimeGrid.regular(1.0, 25, -4.0, 4.0, 5, clock=clock)
    ens = simulate(brownian(), 0.0, [0.0], grid, 30000, seed=5)
    functions = bounded_test_functions(1)
    act = generator_action(brownian())
    for k in (0, 2):
        assert martingale_test(ens, functions[k], act(functions[k])).max_abs_z < 4.0


def _martingale_z_both_ends(ens, phi, a_phi, solve="normal"):
    """Reference z-scores: phi evaluated afresh at both ends of every step.

    ``solve="normal"`` takes beta from the normal equations, as the program
    does, with the intercept-only step (every path at one point) as a plain
    mean; ``solve="svd"`` takes it from an SVD least-squares solve on every
    step, an oracle independent of that form.
    """
    zs = []
    for j, dv in enumerate(ens.dvs):
        xs = ens.paths[:, j, :]
        incr = (
            phi(ens.times[j + 1], ens.paths[:, j + 1, :])
            - phi(ens.times[j], xs)
            - np.asarray(a_phi(ens.times[j], xs), dtype=float) * dv
        )
        design = _bounded_basis(xs)
        spread = design.std(axis=0)
        keep = np.concatenate([[True], spread[1:] > 1e-10 * (1.0 + np.abs(design[0, 1:]))])
        sub = design[:, keep]
        row = np.zeros(design.shape[1])
        if solve == "normal" and keep.sum() == 1:
            n = incr.size
            beta = np.sum(incr) / n
            row[0] = beta / np.sqrt(max(np.sum((incr - beta) ** 2) / n**2, 1e-300))
            zs.append(row)
            continue
        xtx_inv = np.linalg.inv(sub.T @ sub)
        if solve == "normal":
            beta = xtx_inv @ (sub.T @ incr)
        else:
            beta, *_ = np.linalg.lstsq(sub, incr, rcond=None)
        resid = incr - sub @ beta
        cov = xtx_inv @ (sub.T @ (sub * (resid**2)[:, None])) @ xtx_inv
        row[keep] = beta / np.sqrt(np.clip(np.diag(cov), 1e-300, None))
        zs.append(row)
    return np.array(zs)


def test_martingale_test_evaluates_phi_once_per_grid_time():
    grid = SpaceTimeGrid.regular(1.0, 12, -4.0, 4.0, 5)
    gen = Diffusion(mu=lambda t, x: -0.5 * np.atleast_2d(x), sigma=lambda t, x: 1.0)
    ens = simulate(gen, 0.0, [0.3], grid, 5000, seed=8)
    act = generator_action(gen)
    for fn in bounded_test_functions(1):
        times = []
        counted = FiniteDifferenceFunction(value=lambda t, x, f=fn: times.append(t) or f(t, x))
        res = martingale_test(ens, counted, act(fn))
        assert times == list(ens.times)
        ref = _martingale_z_both_ends(ens, fn, act(fn))
        assert np.array_equal(res.z_scores, ref)
        assert res.max_abs_z == float(np.max(np.abs(ref)))


def test_martingale_z_scores_agree_with_an_svd_least_squares_solve():
    # the normal equations against an independent SVD solve, on every step;
    # the first step keeps only the intercept
    grid = SpaceTimeGrid.regular(1.0, 12, -4.0, 4.0, 5)
    gen = Diffusion(mu=lambda t, x: -0.5 * np.atleast_2d(x), sigma=lambda t, x: 1.0)
    ens = simulate(gen, 0.0, [0.3], grid, 5000, seed=8)
    act = generator_action(gen)
    for fn in bounded_test_functions(1):
        z = martingale_test(ens, fn, act(fn)).z_scores
        assert np.count_nonzero(z[0]) == 1 and np.all(z[1:] != 0)
        np.testing.assert_allclose(z, _martingale_z_both_ends(ens, fn, act(fn), solve="svd"),
                                   rtol=1e-9, atol=0)


THREADED_Z = """
import hashlib
import numpy as np
from pseudopde.core import SpaceTimeGrid
from pseudopde.operators import bounded_test_functions, generator_action, martingale_test
from pseudopde.processes import Diffusion, simulate
grid = SpaceTimeGrid.regular(1.0, 4, -4.0, 4.0, 5)
gen = Diffusion(mu=lambda t, x: -np.atleast_2d(x), sigma=lambda t, x: 1.0)
act = generator_action(gen)
for seed in (1, 2):
    ens = simulate(gen, 0.0, [0.0], grid, 30000, seed)
    for fn in bounded_test_functions(1):
        z = martingale_test(ens, fn, act(fn)).z_scores
        print(seed, hashlib.sha256(z.tobytes()).hexdigest())
"""


def test_martingale_z_scores_do_not_depend_on_the_blas_thread_count():
    # every path starts at 0, so the first step keeps only the intercept; a
    # 30,000-path product of one column through OpenBLAS changed its last
    # bits between 1 and 2 threads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", THREADED_Z], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.splitlines())
    assert len(out[0]) == 10 and out[0] == out[1]


def test_martingale_tests_hold_one_step_of_work_beside_the_ensemble():
    # the drift workload's operators phase: three test functions on one
    # 30,000 x 40 ensemble; with a second, SVD-based solve, a copied design
    # and the previous step's work alive, they took 4.4 MiB above it
    grid = SpaceTimeGrid.regular(1.0, 40, -2.5, 2.5, 11)
    gen = _drift()
    ens = simulate(gen, 0.0, [0.0], grid, 30000, 3)
    act = generator_action(gen)
    tracemalloc.start()
    try:
        for phi in bounded_test_functions(1)[:3]:
            martingale_test(ens, phi, act(phi))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_bracket_consistency_one_step():
    # empirical quadratic variation of the compensated square over one step
    # matches Gamma(phi, phi) = 4 x^2 in conditional mean
    grid = SpaceTimeGrid.regular(1.0, 50, -4.0, 4.0, 5)
    from pseudopde.processes import simulate

    ens = simulate(brownian(), 0.0, [1.0], grid, 200000, 12)
    j = 20
    dt = 0.02
    xs = ens.paths[:, j, 0]
    incr = ens.paths[:, j + 1, 0] ** 2 - xs**2 - dt  # d(X^2 - t): a martingale
    qv = incr**2 / dt
    gam = 4.0 * xs**2
    diff = qv - gam
    z = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
    # one-step bias is O(dt): 2 dt / (se) stays within the band at this scale
    assert abs(z) < 4.0


def test_jump_generator_action_consistency():
    # a(phi) for the jump variant includes the uncompensated kernel term
    lam, size = 2.0, 0.8
    gen = Diffusion(
        mu=lambda t, x: 0.0,
        sigma=lambda t, x: 1.0,
        levy=LevyKernel(rate=lam, law=JumpLaw(kind="atoms", atoms=((size, 1.0),))),
    )
    act = generator_action(gen)(phi_square())
    out = act(0.0, np.array([[0.5]]))
    want = 0.5 * 2.0 + lam * ((0.5 + size) ** 2 - 0.25)
    np.testing.assert_allclose(out, [want], atol=1e-10)


def test_gamma_for_generator_dispatch():
    assert gamma_for_generator(brownian())(phi_square(), phi_square())(
        0.0, np.array([[1.0]])
    ) == pytest.approx(4.0)
    with pytest.raises(UnsupportedFeatureError):
        gamma_for_generator(Stable(alpha=1.5))(phi_linear(), phi_square())


def test_distributional_drift_action_and_gamma_equal_interp_bitwise():
    # b = -x^2/4 (the OU process dX = -X/2 dt + sigma dW) with a varying sigma,
    # read at stationary OU points, every table node and points off the table
    xs = np.linspace(-3.5, 3.5, 8001)
    gen = DistributionalDrift(b_x=xs, b_values=-(xs**2) / 4.0,
                              sigma_fn=lambda v: 1.0 + 0.2 * np.cos(v))
    tr = gen.transform
    pts = np.concatenate([
        np.random.default_rng(12).standard_normal(20000), xs, [-4.0, 3.5 + 1e-9, 6.0],
    ])[:, None]
    t = 0.3
    # the formula as written with np.interp before the shared table reads
    sig = np.interp(pts[:, 0], tr.x_table, tr.sigma_table)
    sp = np.interp(pts[:, 0], tr.x_table, np.gradient(tr.Sigma_table, tr.x_table))
    gamma = gamma_for_generator(gen)
    for phi in bounded_test_functions(1):
        gp = phi.grad_at(t, pts)[:, 0]
        want_act = phi.dt_at(t, pts) + 0.5 * sig**2 * (phi.hess_at(t, pts)[:, 0, 0] + sp * gp)
        got_act = generator_action(gen)(phi)(t, pts)
        np.testing.assert_array_equal(got_act.view(np.int64), want_act.view(np.int64))
        got_gamma = gamma(phi, phi)(t, pts)
        np.testing.assert_array_equal(got_gamma.view(np.int64), (sig**2 * gp * gp).view(np.int64))


def test_bounded_test_set_has_closed_partials():
    for phi in bounded_test_functions(1) + decaying_test_functions(1):
        pts = np.array([[0.2], [-1.4]])
        assert phi.grad is not None and phi.hess is not None and phi.dt is not None
        fd = FiniteDifferenceFunction(value=phi.value, h_fd=1e-4)
        np.testing.assert_allclose(phi.grad_at(0.5, pts), fd.grad_at(0.5, pts), atol=1e-6)
        np.testing.assert_allclose(phi.dt_at(0.5, pts), fd.dt_at(0.5, pts), atol=1e-6)
        np.testing.assert_allclose(phi.hess_at(0.5, pts), fd.hess_at(0.5, pts), atol=1e-6)
