"""Per-layer tracing of one `pseudopde.cli.run`, installed from outside the program.

`install` replaces module attributes of `pseudopde` with wrappers; no source
file of the program is changed. Coarse calls (validation, cache build, Picard
solve and its sweeps, LSMC solves and regressions, operator diagnostics) are
recorded as spans: name, start, end, parent span. Hot inner calls
(interpolation, `SpaceTimeGrid.axes`, the driver and terminal expressions,
path simulation) are recorded only as counts and busy time, so tracing stays
cheap. Everything is kept in memory until `metrics` is read at the end.

Self time: a span's or hot call's duration minus the time covered by the
spans and hot calls nested inside it.
"""

from __future__ import annotations

from time import perf_counter

# Traced boundaries by metric prefix: a span keeps one record per call, a hot
# call only aggregates.
SPANS = (
    "cli.validate",
    "semigroup.build_cache",
    "semigroup.chapman_kolmogorov",
    "mild.picard_solve",
    "mild.update_u",
    "mild.update_v_variance",
    "mild.update_v_volterra",
    "mild.residuals",
    "fbsde.lsmc_solve",
    "fbsde.regress",
    "operators.martingale_test",
)
HOT = (
    "processes.simulate",
    "core.interp",
    "expressions.driver",
    "expressions.terminal",
)
# per-layer metrics that are counts of calls
CALL_COUNTS = (
    "processes.simulate",
    "mild.update_u",
    "mild.update_v_variance",
    "mild.update_v_volterra",
    "core.interp",
    "expressions.driver",
    "expressions.terminal",
    "fbsde.lsmc_solve",
    "fbsde.regress",
    "operators.martingale_test",
)
# metric name -> unit, in report order
METRIC_UNITS = {}
for _name in SPANS + HOT:
    METRIC_UNITS[_name + "_s"] = "s"
    METRIC_UNITS[_name + "_self_s"] = "s"
for _name in CALL_COUNTS:
    METRIC_UNITS[_name + "_calls"] = "count"
METRIC_UNITS.update({
    "semigroup.cache_mb": "MiB",
    "processes.path_steps": "count",
    "mild.iterations": "count",
    "core.interp_points": "count",
    "core.axes_calls": "count",
    "trace.overhead_s": "s",
})
COUNT_METRICS = tuple(k for k, unit in METRIC_UNITS.items() if unit == "count")


class Tracer:
    """Spans and hot-call aggregates of one traced run."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, child seconds)
        self.hot = {name: [0, 0.0, 0.0] for name in HOT}  # calls, busy, child seconds
        self.values = {"semigroup.cache_mb": 0.0, "processes.path_steps": 0,
                       "mild.iterations": 0, "core.interp_points": 0, "core.axes_calls": 0}
        self._open = []  # frames [span id or None, child seconds] of calls in progress
        self._next_id = 0

    def span(self, name, fn):
        def traced(*args, **kwargs):
            parent = next((f[0] for f in reversed(self._open) if f[0] is not None), None)
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._open.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans.append((frame[0], name, start, end, parent, frame[1]))
                if self._open:
                    self._open[-1][1] += end - start

        return traced

    def hot_call(self, name, fn):
        stat = self.hot[name]

        def traced(*args, **kwargs):
            frame = [None, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                self._open.pop()
                stat[0] += 1
                stat[1] += busy
                stat[2] += frame[1]
                if self._open:
                    self._open[-1][1] += busy

        return traced

    def metrics(self):
        """Per-layer metrics (without `trace.overhead_s`) as {name: value}."""
        out = dict.fromkeys((k for k in METRIC_UNITS if k != "trace.overhead_s"), 0)
        for name in SPANS:
            out[name + "_s"] = 0.0
            out[name + "_self_s"] = 0.0
        for _, name, start, end, _, child in self.spans:
            out[name + "_s"] += end - start
            out[name + "_self_s"] += end - start - child
            if name + "_calls" in out:
                out[name + "_calls"] += 1
        for name, (calls, busy, child) in self.hot.items():
            out[name + "_calls"] = calls
            out[name + "_s"] = busy
            out[name + "_self_s"] = busy - child
        out.update(self.values)
        return out


def _patch(modules, attr, wrapper):
    for mod in modules:
        setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the layer boundaries of an imported `pseudopde` with `tracer`.

    A function imported by name into several modules is replaced in each of
    them, so every call site goes through the wrapper.
    """
    from pseudopde import cli, core, expressions, fbsde, mild, operators, processes, semigroup

    _patch([cli], "validate_config", tracer.span("cli.validate", cli.validate_config))

    build = tracer.span("semigroup.build_cache", cli.build_cache)

    def build_cache(*args, **kwargs):
        cache = build(*args, **kwargs)
        tracer.values["semigroup.cache_mb"] += cache.memory_bytes / 2**20
        return cache

    _patch([cli], "build_cache", build_cache)
    _patch([cli], "chapman_kolmogorov_test",
           tracer.span("semigroup.chapman_kolmogorov", cli.chapman_kolmogorov_test))

    solve = tracer.span("mild.picard_solve", cli.picard_solve)

    def picard_solve(*args, **kwargs):
        solution = solve(*args, **kwargs)
        tracer.values["mild.iterations"] += solution.iterations
        return solution

    _patch([cli], "picard_solve", picard_solve)
    for attr, name in (("update_u", "mild.update_u"),
                       ("update_v_variance", "mild.update_v_variance"),
                       ("update_v_volterra", "mild.update_v_volterra"),
                       ("mild_residuals", "mild.residuals")):
        _patch([mild], attr, tracer.span(name, getattr(mild, attr)))

    _patch([cli, fbsde], "lsmc_solve", tracer.span("fbsde.lsmc_solve", fbsde.lsmc_solve))
    _patch([fbsde], "regress", tracer.span("fbsde.regress", fbsde.regress))
    _patch([cli], "martingale_test",
           tracer.span("operators.martingale_test", cli.martingale_test))

    _patch([processes, semigroup, fbsde, operators], "simulate",
           tracer.hot_call("processes.simulate", processes.simulate))
    evolve = processes.evolve_paths

    def evolve_paths(gen, times, dvs, starts, rng):
        paths = evolve(gen, times, dvs, starts, rng)
        tracer.values["processes.path_steps"] += paths.shape[0] * (paths.shape[1] - 1)
        return paths

    _patch([processes, semigroup], "evolve_paths", evolve_paths)

    interp = tracer.hot_call("core.interp", core._multilinear)

    def multilinear(axes, table, points):
        tracer.values["core.interp_points"] += points.shape[0]
        return interp(axes, table, points)

    _patch([core], "_multilinear", multilinear)
    axes = core.SpaceTimeGrid.axes.fget

    def counted_axes(grid):
        tracer.values["core.axes_calls"] += 1
        return axes(grid)

    core.SpaceTimeGrid.axes = property(counted_axes)

    as_driver, as_terminal = expressions.as_driver_fn, expressions.as_function_of_x
    expressions.as_driver_fn = lambda node, dim: tracer.hot_call(
        "expressions.driver", as_driver(node, dim))
    expressions.as_function_of_x = lambda node, dim: tracer.hot_call(
        "expressions.terminal", as_terminal(node, dim))
