"""Smoke test of the benchmark at tiny sizes: checks, tracing and the result line.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "heat": {"time_steps": 8, "space_nodes": 11, "cache_paths": 120, "fbsde_paths": 4000},
    "stable-z": {"time_steps": 6, "space_nodes": 21, "cache_paths": 800, "fbsde_paths": 4000},
    "drift": {"time_steps": 8, "space_nodes": 9, "cache_paths": 120, "fbsde_paths": 4000,
              "martingale_paths": 4000},
}
CHECKS = {
    "heat": {"check.u_closed_form", "check.y0_closed_form"},
    "stable-z": {"check.u_vs_lsmc", "check.v_vs_lsmc", "check.picard_contracts"},
    "drift": {"check.u_quadrature", "check.y0_quadrature", "check.volterra_residual"},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_round_is_checked(name, tmp_path):
    result, rounds = run.measure(name, 3, 0, False, TINY[name], tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    names = {op for op, _, _ in rounds[0]["ops"]}
    assert CHECKS[name] | {"check.converged", "check.csv_bytes_repeat"} <= names
    assert result["correct"], rounds[0]["ops"]
    failed = {op for op, ok, _ in rounds[0]["ops"] if not ok}
    assert failed == ({"operator.martingale_max_abs_z_fn1"} if name == "drift" else set())
    assert result["attempted"] == len(rounds[0]["ops"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer(name, tmp_path):
    result, rounds = run.measure(name, 3, 0, True, TINY[name], tmp_path)
    assert [r["traced"] for r in rounds] == [False, True]
    assert set(result["metrics"]) == set(tracing.METRIC_UNITS)
    # tracing must not change a byte of the program's output
    assert all(ok for op, ok, _ in rounds[1]["ops"] if op == "check.csv_bytes_repeat")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["mild.update_u_calls"] == m["mild.iterations"] > 0
    assert m["core.interp_calls"] > 0 and m["core.axes_calls"] >= m["core.interp_calls"]
    assert m["fbsde.lsmc_solve_calls"] == 2
    assert 0 <= m["mild.update_u_self_s"] <= m["mild.update_u_s"] <= m["mild.picard_solve_s"]
    if name == "drift":
        assert m["mild.update_v_volterra_calls"] == 1 and m["mild.update_v_variance_calls"] == 0
        assert m["operators.martingale_test_calls"] == 3
    else:
        assert m["mild.update_v_volterra_calls"] == 0 and m["operators.martingale_test_calls"] == 0
    if name == "stable-z":
        assert m["mild.update_v_variance_calls"] == m["mild.iterations"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()

