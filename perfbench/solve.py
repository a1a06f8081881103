"""One round of a workload in a fresh interpreter.

    python3 perfbench/solve.py <config.json> <out dir> <seed> <trace 0|1> [<reference seed>]

Imports the program, validates the config (the end of set-up), then times
`pseudopde.cli.run` on it, single-threaded, with the seed given. With trace 1
the layer boundaries are wrapped first (see tracing.py). With a reference
seed, an LSMC solve at the config's first origin is made after the timed run,
for the benchmark's checks. Prints one JSON report as its last line.
"""

import json
import resource
import sys
import time


def main(argv):
    config, out, seed, trace = argv[1], argv[2], int(argv[3]), argv[4] == "1"
    from pseudopde import cli

    plan = cli.validate_config(config)
    setup_end = time.perf_counter()
    report = {"setup_end": setup_end, "program": cli.__file__}

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    code = cli.run(config, out_dir=out, threads=1, seed_override=seed)
    report["run_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["exit_code"] = code
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.spans

    if len(argv) > 5:
        from pseudopde.fbsde import lsmc_solve

        s, x = plan.origins[0]
        ref = lsmc_solve(plan.problem, plan.problem.generator, s, x, plan.grid,
                         plan.fbsde_paths, plan.basis, int(argv[5]))
        report["reference_lsmc"] = {"s": s, "x": [float(v) for v in x], "y0": ref.y0,
                                    "y0_stderr": ref.y0_stderr, "z0": ref.z0}
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv)
