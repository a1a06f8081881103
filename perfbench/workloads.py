"""The benchmark's workloads: configs derived from `scripts/configs` and checks of their outputs.

Every check compares the program's output with a computation made here, or
with a property the method must have. Each phase, each row of
`operator_report.csv` that is counted, and each check is one operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# Sizes of each workload; the smoke test passes smaller ones.
SIZES = {
    "heat": {"time_steps": 25, "space_nodes": 41, "cache_paths": 600, "fbsde_paths": 50000},
    "stable-z": {"time_steps": 10, "space_nodes": 21, "cache_paths": 6000, "fbsde_paths": 50000},
    "drift": {"time_steps": 40, "space_nodes": 11, "cache_paths": 300, "fbsde_paths": 30000,
              "martingale_paths": 30000},
}

# Operator rows whose outcome is the same on every seed. The one failure kept
# is `martingale_max_abs_z_fn1` on `drift`: a fault of the martingale test
# (see README), which reads far above its threshold on every seed.
COUNTED_OPERATOR_ROWS = ("martingale_max_abs_z_fn1",)

# A check on many cells accepts when the root mean square of the cells'
# z-scores stays below RMS_Z and no single |z| exceeds MAX_Z: with a few
# hundred cells, |z| > 6 has probability below 1e-6 under correct output.
RMS_Z = 1.5
MAX_Z = 6.0
# single-value checks against an outside reference
POINT_Z = 5.0

_SOURCES = {
    "heat": "heat_baseline.json",
    "stable-z": "fractional_semilinear.json",
    "drift": "distributional_drift.json",
}


def make_config(root: Path, name: str, sizes: dict) -> dict:
    """The workload's config: its shipped config with the workload's changes and sizes."""
    cfg = json.loads((root / "scripts" / "configs" / _SOURCES[name]).read_text())
    if name == "heat":
        cfg["phases"] = ["cache", "mild", "fbsde", "crosscheck"]
        cfg["mild"]["v_scheme"] = "variance"
    elif name == "stable-z":
        cfg["problem"]["driver"] = {"expr": "0.3*z", "K_Y": 0.0, "K_Z": 0.3}
        cfg["mild"]["v_scheme"] = "variance"
    elif name == "drift":
        cfg["phases"] = ["cache", "mild", "fbsde", "crosscheck", "operators"]
        cfg["mild"]["v_scheme"] = "volterra"
        cfg["operators"] = {"martingale_paths": sizes["martingale_paths"], "test_functions": 3}
    else:
        raise KeyError(name)
    cfg["grid"]["time_steps"] = sizes["time_steps"]
    cfg["grid"]["space_nodes"] = [sizes["space_nodes"]]
    cfg["mild"]["cache_paths"] = sizes["cache_paths"]
    cfg["fbsde"]["paths"] = sizes["fbsde_paths"]
    return cfg


def reference_lsmc_seed(seed: int) -> int:
    """Seed of the benchmark's own LSMC solve; the program never uses it."""
    return 7_000_003 + 2 * seed


def _read_csv(path: Path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return rows[0], rows[1:]


def _field(out: Path, name: str) -> np.ndarray:
    header, rows = _read_csv(out / name)
    if header != ["t", "x1", "value", "stderr"]:
        raise ValueError(f"{name}: unexpected columns {header}")
    return np.array(rows, dtype=float)


def _cells_ok(values, exact, stderr):
    """(ok, detail) for a many-cell comparison with an exact field."""
    z = (values - exact) / np.maximum(stderr, 1e-12)
    rms = float(np.sqrt(np.mean(z * z)))
    worst = float(np.max(np.abs(z)))
    return rms <= RMS_Z and worst <= MAX_Z, f"rms z {rms:.3f}, max |z| {worst:.2f}, {z.size} cells"


def _interior(field, grid_cfg):
    """Cells strictly before the horizon whose node lies in the middle half of the grid."""
    lo, hi = grid_cfg["space_min"][0], grid_cfg["space_max"][0]
    t, x = field[:, 0], field[:, 1]
    return (t < t.max()) & (np.abs(x - (lo + hi) / 2) <= (hi - lo) / 4 + 1e-12)


def _heat_u(t, x):
    return np.exp((1.0 - t) / 2.0) * (x * x + 1.0 - t)


_GH_X, _GH_W = hermegauss(96)
_GH_W = _GH_W / _GH_W.sum()


def _drift_u(t, x):
    """e^{0.2(1-s)} E[tanh(x e^{-(1-s)/2} + sqrt(1 - e^{-(1-s)}) W)] by Gauss-Hermite quadrature.

    With b = -x^2/4 the process is the Ornstein-Uhlenbeck dX = -X/2 dt + dW.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tau = 1.0 - t
    mean = x * np.exp(-tau / 2.0)
    sd = np.sqrt(1.0 - np.exp(-tau))
    inner = np.tanh(mean[:, None] + sd[:, None] * _GH_X[None, :]) @ _GH_W
    return np.exp(0.2 * tau) * inner


def check(name: str, out: Path, cfg: dict, report: dict) -> list:
    """[(operation, ok, detail)] for one round's outputs in `out`."""
    manifest = json.loads((out / "manifest.json").read_text())
    ops = []
    for phase in cfg["phases"]:
        ok = phase in manifest["phases_completed"]
        ops.append((f"phase.{phase}", ok, manifest["errors"].get(phase, "")))
    if "operators" in cfg["phases"]:
        _, rows = _read_csv(out / "operator_report.csv")
        for check_name, value, threshold, passed in rows:
            if check_name in COUNTED_OPERATOR_ROWS:
                ops.append((f"operator.{check_name}", passed == "true", f"{value} vs {threshold}"))
    ops.append(("check.converged", manifest["exit_code"] == 0 and bool(manifest["converged"]),
                f"exit code {manifest['exit_code']}, {manifest.get('iterations')} iterations"))

    u = _field(out, "u.csv")
    fb = manifest["fbsde"][0]
    if name == "heat":
        inner = _interior(u, cfg["grid"])
        ok, detail = _cells_ok(u[inner, 2], _heat_u(u[inner, 0], u[inner, 1]), u[inner, 3])
        ops.append(("check.u_closed_form", ok, detail))
        ops.append(_point("check.y0_closed_form", fb["y0"], float(_heat_u(fb["s"], fb["x"][0])),
                          fb["y0_stderr"]))
    elif name == "drift":
        inner = _interior(u, cfg["grid"])
        ok, detail = _cells_ok(u[inner, 2], _drift_u(u[inner, 0], u[inner, 1]), u[inner, 3])
        ops.append(("check.u_quadrature", ok, detail))
        ops.append(_point("check.y0_quadrature", fb["y0"], float(_drift_u(fb["s"], fb["x"][0])[0]),
                          fb["y0_stderr"]))
        res = manifest["residuals"]
        scale = float(np.max(u[:, 2] ** 2))
        tol = max(MAX_Z * res["stderr_floor_2"], 0.02 * scale)
        ops.append(("check.volterra_residual", res["residual_2"] <= tol,
                    f"{res['residual_2']:.4g} <= {tol:.4g}"))
    elif name == "stable-z":
        v = _field(out, "v.csv")
        ref = report["reference_lsmc"]
        s, x = ref["s"], ref["x"][0]
        at = np.flatnonzero(np.isclose(u[:, 0], s) & np.isclose(u[:, 1], x))
        if at.size != 1:
            raise ValueError(f"origin ({s}, {x}) is not a grid cell")
        u0, u0_se, v0 = u[at[0], 2], u[at[0], 3], v[at[0], 2]
        u_tol = max(POINT_Z * math.hypot(u0_se, ref["y0_stderr"]),
                    0.02 * max(abs(u0), abs(ref["y0"])))
        ops.append(("check.u_vs_lsmc", abs(u0 - ref["y0"]) <= u_tol,
                    f"|{u0:.4f} - {ref['y0']:.4f}| <= {u_tol:.4f}"))
        v_tol = 0.10 * float(np.max(np.abs(v[:, 2])))
        ops.append(("check.v_vs_lsmc", abs(v0 - ref["z0"]) <= v_tol,
                    f"|{v0:.4f} - {ref['z0']:.4f}| <= {v_tol:.4f}"))
        _, rows = _read_csv(out / "deltas.csv")
        deltas = [float(r[1]) for r in rows]
        ratios = [b / a for a, b in zip(deltas, deltas[1:])]
        ops.append(("check.picard_contracts", len(deltas) > 1 and max(ratios) <= 0.9,
                    "ratios " + ", ".join(f"{r:.3g}" for r in ratios)))
    return [(op, bool(ok), detail) for op, ok, detail in ops]


def _point(op, value, exact, stderr):
    z = (value - exact) / max(stderr, 1e-12)
    return op, abs(z) <= POINT_Z, f"{value:.5f} vs {exact:.5f}, z {z:.2f}"
