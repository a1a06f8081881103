#!/usr/bin/env python3
"""Null study of the mild solve's u against the closed form of a benchmark workload.

    python3 scripts/null_study.py --workload heat --seeds 0 100 [--threads N] [--per-seed]

For every seed in [first, last) it builds the path cache and runs the Picard
solve of the workload's config, as `perfbench/run.py` runs it with that seed:
the config from `perfbench/workloads.make_config` at the benchmark's sizes,
the seed as the master seed.  Over the interior cells the benchmark checks,
it reads the z-score of each cell's u against the closed form, with the
cell's own stderr.  It prints quantiles over the seeds of the rms z and the
max |z|, and every seed above the benchmark's `RMS_Z` or `MAX_Z`.  Only
`heat` and `drift` have a closed form.  Run it in two checkouts to compare
their calibration.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pseudopde import cli, mild, semigroup  # noqa: E402
import workloads  # noqa: E402

EXACT = {"heat": workloads._heat_u, "drift": workloads._drift_u}
QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)


def cell_z(plan, grid_cfg, exact, seed, threads):
    """z-scores of u on the checked cells, and whether the solve converged."""
    grid = plan.grid
    cache = semigroup.build_cache(plan.problem.generator, grid, plan.cache_paths, seed,
                                  memory_budget_mb=plan.memory_budget_mb, threads=threads)
    sol = mild.picard_solve(plan.problem, cache, plan.picard)
    del cache
    x = grid.nodes()[:, 0]
    cells = np.column_stack([np.repeat(grid.times, x.size), np.tile(x, grid.n_times),
                             sol.u.reshape(-1), sol.u_stderr.reshape(-1)])
    t, x, u, se = cells[workloads._interior(cells, grid_cfg)].T
    return (u - exact(t, x)) / np.maximum(se, 1e-12), sol.converged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(EXACT), required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), default=(0, 20))
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--per-seed", action="store_true", help="print one line per seed")
    args = parser.parse_args(argv)

    cfg = workloads.make_config(ROOT, args.workload, workloads.SIZES[args.workload])
    with tempfile.TemporaryDirectory(prefix="null-study-") as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        plan = cli.validate_config(path)

    seeds = range(*args.seeds)
    rms, worst, unconverged = [], [], []
    for seed in seeds:
        z, converged = cell_z(plan, cfg["grid"], EXACT[args.workload], seed, args.threads)
        rms.append(float(np.sqrt(np.mean(z * z))))
        worst.append(float(np.max(np.abs(z))))
        if not converged:
            unconverged.append(seed)
        if args.per_seed:
            print(f"seed {seed} rms_z {rms[-1]:.3f} max_abs_z {worst[-1]:.2f}", flush=True)

    print(f"{args.workload}: seeds {seeds.start}..{seeds.stop - 1}, {z.size} cells per seed")
    print("quantile   " + " ".join(f"{q:>6.2f}" for q in QUANTILES))
    for name, values in (("rms z", rms), ("max |z|", worst)):
        print(f"{name:<10} " + " ".join(f"{v:6.3f}" for v in np.quantile(values, QUANTILES)))
    over_rms = [s for s, v in zip(seeds, rms) if v > workloads.RMS_Z]
    over_max = [s for s, v in zip(seeds, worst) if v > workloads.MAX_Z]
    print(f"rms z > {workloads.RMS_Z}: {len(over_rms)} seeds {over_rms}")
    print(f"max |z| > {workloads.MAX_Z}: {len(over_max)} seeds {over_max}")
    print(f"not converged: {len(unconverged)} seeds {unconverged}")


if __name__ == "__main__":
    main()
