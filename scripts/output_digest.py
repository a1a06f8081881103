#!/usr/bin/env python3
"""SHA-256 of every output file of `pseudopde run` on the benchmark workloads
and the shipped configs.

    python3 scripts/output_digest.py [--threads N]

Runs `pseudopde.cli.run` from this checkout's `src/` on the three benchmark
workloads (configs built by `perfbench/workloads.make_config` at the
benchmark's sizes, seed 1), on every `scripts/configs/*.json` (its own seed),
on one 2-d heat config (`HEAT_2D`, seed 4711), on one heat config on the
clock V(t) = t^2 (`HEAT_CLOCK`, seed 4711), on one stable and one
jump-diffusion config with the operators phase (`STABLE_OPS`, `JUMP_OPS`,
seed 4711) and on one heat config on a clock flat on its first and last steps
(`HEAT_FLAT`, seed 4711), then prints one line per output file: run, file
name, sha256.
`manifest.json` is hashed without `timings_seconds` and `peak_rss_mb`, the
parts of the output that depend on the host. Each CSV gets a second line,
`<name>:values`, hashed without its first line, `# config_hash=...`, so a
change that only edits the echoed config shows its values unchanged. Run it
in two checkouts and diff the printed lines to see whether a change keeps the
output bytes.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pseudopde import cli  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_SEED = 1

# The config of tests/test_cli.py::test_two_dimensional_heat_run_matches_closed_form,
# the one run here with d > 1: its cache is 2-d, and the sweeps and the
# crosscheck read fields at the corners of 2-d cells.
HEAT_2D = {
    "schema": 1,
    "seed": 4711,
    "problem": {
        "generator": {"kind": "diffusion", "mu": "0", "sigma": "1"},
        "driver": {"expr": "0.5*y", "K_Y": 0.5, "K_Z": 0.0},
        "terminal_g": {"expr": "x1^2 + x2^2"},
        "horizon_T": 1.0,
        "clock": {"kind": "identity"},
    },
    "grid": {
        "dimension": 2, "time_steps": 10,
        "space_min": [-3.0, -3.0], "space_max": [3.0, 3.0], "space_nodes": [11, 9],
    },
    "mild": {"cache_paths": 300, "max_iterations": 6, "tolerance": 0.001},
    "fbsde": {"paths": 3000, "basis": {"kind": "polynomial", "degree": 2},
              "origins": [[0.0, 0.0, 0.0]]},
    "operators": {"martingale_paths": 3000, "test_functions": 2},
    "phases": ["cache", "mild", "fbsde", "crosscheck"],
}


# The one run here on a clock other than V(t) = t: V(t) = t^2, tabulated, so
# the paths step in dV != dt and the martingale compensator charges its
# d_t phi term against dt.
HEAT_CLOCK = {
    "schema": 1,
    "seed": 4711,
    "problem": {
        "generator": {"kind": "diffusion", "mu": "0", "sigma": "1"},
        "driver": {"expr": "0.5*y", "K_Y": 0.5, "K_Z": 0.0},
        "terminal_g": {"expr": "x1^2"},
        "horizon_T": 1.0,
        "clock": {"kind": "tabulated", "times": [k / 20 for k in range(21)],
                  "values": [(k / 20) ** 2 for k in range(21)]},
    },
    "grid": {"dimension": 1, "time_steps": 10, "space_min": [-4.0], "space_max": [4.0],
             "space_nodes": [11]},
    "mild": {"cache_paths": 400},
    "fbsde": {"paths": 3000, "basis": {"kind": "polynomial", "degree": 3},
              "origins": [[0.0, 0.0]]},
    "operators": {"martingale_paths": 3000, "test_functions": 3},
    "phases": ["cache", "mild", "fbsde", "crosscheck", "operators"],
}


# The one run here on a clock with flat steps (dV = 0), the first and the
# last, so both solvers' flat-step rule (README, clock paragraph) is hashed.
HEAT_FLAT = {
    "schema": 1,
    "seed": 4711,
    "problem": {
        "generator": {"kind": "diffusion", "mu": "0", "sigma": "1"},
        "driver": {"expr": "0.5*y", "K_Y": 0.5, "K_Z": 0.0},
        "terminal_g": {"expr": "x1^2"},
        "horizon_T": 1.0,
        "clock": {"kind": "tabulated", "times": [0.0, 0.1, 0.9, 1.0],
                  "values": [0.0, 0.0, 0.8, 0.8]},
    },
    "grid": {"dimension": 1, "time_steps": 10, "space_min": [-4.0], "space_max": [4.0],
             "space_nodes": [11]},
    "mild": {"cache_paths": 300},
    "fbsde": {"paths": 3000, "basis": {"kind": "polynomial", "degree": 3},
              "origins": [[0.0, 0.0]]},
    "phases": ["cache", "mild", "fbsde", "crosscheck"],
}


def _small_1d(generator):
    """HEAT_CLOCK's sizes, identity clock, on ``generator``, every phase run."""
    return {
        "schema": 1,
        "seed": 4711,
        "problem": {
            "generator": generator,
            "driver": {"expr": "0.3*y", "K_Y": 0.3, "K_Z": 0.0},
            "terminal_g": {"expr": "tanh(x1)"},
            "horizon_T": 1.0,
        },
        "grid": {"dimension": 1, "time_steps": 10, "space_min": [-4.0], "space_max": [4.0],
                 "space_nodes": [11]},
        "mild": {"cache_paths": 300},
        "fbsde": {"paths": 3000, "basis": {"kind": "polynomial", "degree": 3},
                  "origins": [[0.0, 0.0]]},
        "operators": {"martingale_paths": 3000, "test_functions": 3},
        "phases": ["cache", "mild", "fbsde", "crosscheck", "operators"],
    }


# With HEAT_CLOCK and the drift workload, these two take every branch of
# operators.generator_action through the operators phase: the spectral stable
# action and the jump sum of a diffusion.
STABLE_OPS = _small_1d({"kind": "stable", "alpha": 1.5})
JUMP_OPS = _small_1d({"kind": "jump_diffusion", "mu": "0", "sigma": "0.5",
                      "levy": {"rate": 1.0, "jump_law": {"kind": "two_point", "param": 0.5}}})


def digests(path: Path):
    """(name, sha256) of the file and, for a CSV, of the lines below its hash line."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("timings_seconds", None)
        manifest.pop("peak_rss_mb", None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    yield path.name, hashlib.sha256(data).hexdigest()
    if path.suffix == ".csv":
        yield f"{path.name}:values", hashlib.sha256(data.split(b"\n", 1)[1]).hexdigest()


def runs(tmp: Path):
    """(label, config path, seed override) of every run."""
    for name, sizes in workloads.SIZES.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(workloads.make_config(ROOT, name, sizes)))
        yield name, path, WORKLOAD_SEED
    for path in sorted((ROOT / "scripts" / "configs").glob("*.json")):
        yield path.stem, path, None
    for label, config in (("heat-2d", HEAT_2D), ("heat-clock", HEAT_CLOCK),
                          ("stable-ops", STABLE_OPS), ("jump-ops", JUMP_OPS),
                          ("heat-flat", HEAT_FLAT)):
        path = tmp / f"{label}.json"
        path.write_text(json.dumps(config))
        yield label, path, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        tmp = Path(tmp)
        for label, config, seed in runs(tmp):
            out = tmp / "out" / label
            code = cli.run(config, out_dir=out, threads=args.threads, seed_override=seed)
            print(f"{label} exit_code {code}", flush=True)
            for path in sorted(out.iterdir()):
                for name, digest in digests(path):
                    print(f"{label} {name} {digest}", flush=True)


if __name__ == "__main__":
    main()
