#!/usr/bin/env python3
"""Semilinear equation under the symmetric stable generator: solve with the
fixed-point scheme, cross-check against the backward solver, and print the
bracket-density comparison along the spatial axis.

    python scripts/fractional_semilinear.py [--alpha 1.5] [--paths 6000]
"""

import argparse
import time

import numpy as np

from pseudopde.core import LipschitzDriver, ProblemSpec, SpaceTimeGrid
from pseudopde.fbsde import RegressionBasis, crosscheck
from pseudopde.mild import PicardConfig, picard_solve
from pseudopde.processes import Stable
from pseudopde.semigroup import build_cache


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=1.5)
    parser.add_argument("--paths", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=2718)
    args = parser.parse_args()

    gen = Stable(alpha=args.alpha)
    grid = SpaceTimeGrid.regular(1.0, 40, -4.0, 4.0, 21)
    driver = LipschitzDriver(fn=lambda t, x, y, z: 0.3 * np.asarray(y), K_Y=0.3)
    problem = ProblemSpec(
        generator=gen, driver=driver, terminal_g=lambda p: np.tanh(p[:, 0])
    )

    t0 = time.perf_counter()
    cache = build_cache(gen, grid, args.paths, master_seed=args.seed, memory_budget_mb=2048)
    sol = picard_solve(problem, cache, PicardConfig(max_iterations=10, tolerance=0.002))
    print(f"solved in {time.perf_counter() - t0:.1f}s, {sol.iterations} iterations, "
          f"{100 * sol.out_of_bounds_fraction:.1f}% of path points clamped at the bounds")

    basis = RegressionBasis(
        degree=5, ridge=1e-8,
        clip=(grid.space_min, grid.space_max),
    )
    row = crosscheck(sol, problem, gen, grid, [(0.0, [0.4])], 50000, basis, args.seed + 170)[0]
    print(f"u(0, 0.4) = {row.u_value:.5f}   y0 = {row.y0:.5f}   gap = {row.u_gap:.5f}")
    print(f"v(0, 0.4) = {row.v_value:.5f}   Z0 = {row.z0:.5f}")

    print("\n  x      u(0,x)      v(0,x)")
    xs = grid.nodes()[:, 0]
    for j in range(0, xs.size, 2):
        print(f"{xs[j]:5.1f}  {sol.u[0, j]:9.5f}  {sol.v[0, j]:9.5f}")


if __name__ == "__main__":
    main()
