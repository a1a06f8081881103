#!/usr/bin/env python3
"""Heat-kernel baseline: solve the coupled system for the Brownian generator
with g(x) = x^2 and a linear driver, and compare against closed forms.

    python scripts/heat_baseline.py [--paths 1500] [--driver-slope 0.5]
"""

import argparse
import time

import numpy as np

from pseudopde.core import LipschitzDriver, ProblemSpec, SpaceTimeGrid
from pseudopde.fbsde import RegressionBasis, crosscheck
from pseudopde.mild import PicardConfig, picard_solve
from pseudopde.processes import Diffusion
from pseudopde.semigroup import build_cache


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=1500, help="paths per cache cell")
    parser.add_argument("--driver-slope", type=float, default=0.5, help="f = slope * y")
    parser.add_argument("--seed", type=int, default=20240612)
    args = parser.parse_args()

    mu, sigma = (lambda t, x: 0.0), (lambda t, x: 1.0)
    # coefficients free of t, so the path cache shares path sets across start times
    mu.reads_t = sigma.reads_t = False
    gen = Diffusion(mu=mu, sigma=sigma)
    grid = SpaceTimeGrid.regular(1.0, 50, -4.0, 4.0, 41)
    c = args.driver_slope
    driver = LipschitzDriver(fn=lambda t, x, y, z: c * np.asarray(y), K_Y=abs(c))
    problem = ProblemSpec(
        generator=gen, driver=driver, terminal_g=lambda p: p[:, 0] ** 2
    )

    t0 = time.perf_counter()
    cache = build_cache(gen, grid, args.paths, master_seed=args.seed)
    t1 = time.perf_counter()
    sol = picard_solve(problem, cache, PicardConfig(max_iterations=8, tolerance=0.01))
    t2 = time.perf_counter()

    node0 = int(np.argmin(np.abs(grid.nodes()[:, 0])))
    u00, se = sol.u[0, node0], sol.u_stderr[0, node0]
    exact = np.exp(c) * 1.0  # integrating factor applied to E[g(W_1)] = 1
    print(f"cache build      {t1 - t0:6.1f}s  ({cache.memory_bytes / 2**20:.0f} MiB)")
    print(f"fixed-point      {t2 - t1:6.1f}s  ({sol.iterations} iterations)")
    print(f"deltas           {['%.3g' % d for d in sol.deltas]}")
    print(f"u(0,0)           {u00:.5f} +- {se:.5f}   closed form {exact:.5f}")
    print(f"residuals        line1 {sol.residuals.residual_1:.3g}, line2 {sol.residuals.residual_2:.3g}")

    basis = RegressionBasis(degree=4, ridge=1e-9)
    row = crosscheck(sol, problem, gen, grid, [(0.0, [0.0])], 50000, basis, args.seed + 1)[0]
    print(f"backward solver  y0 = {row.y0:.5f} +- {row.y0_stderr:.5f}  (gap {row.u_gap:.5f})")
    print(f"bracket root     v(0,0) = {row.v_value:.5f}, Z0 = {row.z0:.5f}")


if __name__ == "__main__":
    main()
