import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_with_tracing(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracer = tracing.Tracer(); tracing.install(tracer)\n"
         + code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_benchmark_tracing_installs_on_the_program():
    # perfbench/tracing.py wraps program attributes by name; a renamed or
    # deleted one (fbsde.regress, cli.lsmc_solve, ...) fails here, not only
    # when the benchmark runs
    _run_with_tracing("")


SWEEP = """
import numpy as np
from pseudopde import core, mild, processes, semigroup
grid = core.SpaceTimeGrid.regular(1.0, 3, -1.0, 1.0, 5)
gen = processes.Diffusion(mu=lambda t, x: 0.0, sigma=lambda t, x: 1.0)
cache = semigroup.build_cache(gen, grid, 4, master_seed=1)
driver = core.LipschitzDriver(fn=lambda t, x, y, z: 0.5 * y + 0.1 * z, K_Y=0.5, K_Z=0.1)
problem = core.ProblemSpec(generator=gen, driver=driver, terminal_g=lambda p: p[:, 0])
zero = np.zeros((grid.n_times, cache.n_nodes))
mild.update_u(zero, problem, cache)
m = tracer.metrics()
print(m["core.interp_calls"], m["core.interp_points"], m["core.axes_calls"])
"""


def test_mild_sweep_interpolation_is_traced():
    # the benchmark times the sweep's interpolation as core.interp by wrapping
    # core._multilinear; one call per step reads both u and v: 2 + 1 steps
    # after the start over the blocks of a 3-step grid, 5 nodes x 4 paths
    # each (at its start step a block reads the field rows at the nodes)
    calls, points, axes = map(int, _run_with_tracing(SWEEP).split())
    assert (calls, points) == (3, 3 * 20)
    assert axes >= calls
