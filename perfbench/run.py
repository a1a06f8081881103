"""Benchmark of `pseudopde run` on three workloads; see perfbench/README.md.

    python3 perfbench/run.py --workload heat --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload until `--seconds` have passed. A round is
one solve of the workload's config by `pseudopde.cli.run` in a fresh,
single-threaded interpreter, followed by the checks of its outputs. The last
line of standard output is the result as JSON: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`.
"""

import os

# Thread pools are pinned before numpy is imported, here and in every round.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUTS = ("u.csv", "v.csv", "deltas.csv", "crosscheck.csv", "operator_report.csv")
ROUND_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


class BenchmarkError(Exception):
    pass


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": PINNED_THREADS,
    }


def run_round(cfg_path, out, seed, traced, reference_seed):
    """One solve in a fresh interpreter; its report with `setup_s` added."""
    cmd = [sys.executable, str(HERE / "solve.py"), str(cfg_path), str(out), str(seed),
           "1" if traced else "0"]
    if reference_seed is not None:
        cmd.append(str(reference_seed))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"round did not end within {ROUND_TIMEOUT_S} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"round failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    program = Path(report["program"]).resolve()
    if (ROOT / "src").resolve() not in program.parents:
        raise BenchmarkError(f"the round ran {program}, not the program under {ROOT / 'src'}")
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child
    report["setup_s"] = report["setup_end"] - spawned
    return report


def _hashes(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUTS if (out / name).exists()}


def measure(workload, seed, seconds, trace, sizes, run_dir):
    """Run whole rounds for `seconds` in the existing `run_dir`; returns (result, rounds)."""
    cfg = workloads.make_config(ROOT, workload, sizes)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    reference_seed = workloads.reference_lsmc_seed(seed) if workload == "stable-z" else None

    rounds = []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds, for the overhead
        traced = trace and len(rounds) % 2 == 1
        out = run_dir / f"round{len(rounds)}"
        report = run_round(cfg_path, out, seed, traced, reference_seed)
        try:
            ops = workloads.check(workload, out, cfg, report)
            hashes = _hashes(out)
            report["phase_s"] = json.loads((out / "manifest.json").read_text())["timings_seconds"]
        except (OSError, KeyError, ValueError, IndexError) as err:
            ops, hashes = [("check.outputs", False, f"{type(err).__name__}: {err}")], {}
        same = not rounds or hashes == rounds[0]["hashes"]
        ops.append(("check.csv_bytes_repeat", same, f"{len(hashes)} files"))
        report.update(traced=traced, ops=ops, hashes=hashes)
        rounds.append(report)
        shutil.rmtree(out)
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) % 2 == 0):
            break

    all_ops = [op for r in rounds for op in r["ops"]]
    result = {
        "correct": all(ok for name, ok, _ in all_ops if name.startswith("check.")),
        "attempted": len(all_ops),
        "failed": sum(1 for _, ok, _ in all_ops if not ok),
        "metrics": layer_metrics(rounds) if trace else end_to_end_metrics(rounds),
    }
    return result, rounds


def end_to_end_metrics(rounds):
    return {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def layer_metrics(rounds):
    traced = [r["layers"] for r in rounds if r["traced"]]
    for name in tracing.COUNT_METRICS:
        if len({t[name] for t in traced}) != 1:
            raise BenchmarkError(f"count {name} differs between traced rounds")
    metrics = {name: {"value": statistics.median(t[name] for t in traced), "unit": unit}
               for name, unit in tracing.METRIC_UNITS.items() if name != "trace.overhead_s"}
    overhead = (statistics.median(r["run_s"] for r in rounds if r["traced"])
                - statistics.median(r["run_s"] for r in rounds if not r["traced"]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "pseudopde" / "cli.py", ROOT / "scripts" / "configs")
               if not p.exists()]
    if missing:
        print(f"perfbench: program not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-",
                                    dir=runs))
    try:
        result, rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 workloads.SIZES[args.workload], run_dir)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "result": result,
              "rounds": [{k: v for k, v in r.items() if k != "hashes"} for r in rounds]}
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    failed = sorted({name for r in rounds for name, ok, _ in r["ops"] if not ok})
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds, failed operations: "
          f"{', '.join(failed) or 'none'}; record in {run_dir.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
