"""Configuration ingestion, run orchestration, and artifact emission.

Usage:
    pseudopde run <config.json> [--out DIR] [--threads N] [--seed S] [--phases LIST]
    pseudopde validate <config.json>
    pseudopde version

A run executes the requested phases in order (cache -> mild -> fbsde ->
crosscheck -> operators), each with the phases it reads from (crosscheck
needs mild, mild needs cache), writes one CSV per field plus crosscheck /
operator reports and a manifest, and exits 0 on success, 2 when the solver
ran but did not converge, 1 on error.  Outputs are byte-identical across
reruns with the same effective config and independent of --threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, processes
from .core import ClockV, LipschitzDriver, ProblemSpec, SpaceTimeGrid
from .errors import ConfigurationError, PseudoPdeError
from . import expressions as xp
from .fbsde import RegressionBasis, crosscheck, lsmc_seed, lsmc_solve
from .mild import PicardConfig, picard_solve
from .operators import bounded_test_functions, generator_action, martingale_test
from .processes import (
    Diffusion,
    DistributionalDrift,
    JumpLaw,
    LevyKernel,
    Stable,
)
from .semigroup import build_cache, chapman_kolmogorov_test

PHASE_ORDER = ("cache", "mild", "fbsde", "crosscheck", "operators")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _real(value) -> bool:
    """A finite JSON number; bools and strings are not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _integral(value) -> bool:
    """A JSON number with no fractional part, such as 3 or 3.0."""
    return _real(value) and float(value).is_integer()


# ``bound`` arguments of ``_Section.number``
_POSITIVE = ("positive", lambda v: v > 0)
_NONNEGATIVE = (">= 0", lambda v: v >= 0)


class _Section:
    """One object of the config, read key by key.

    Each getter names its key once.  A missing required key is reported as
    ``<path>: required`` and a value of the wrong type or out of bounds as
    ``<path>: must be <what> (got <value!r>)``; either way ``default`` stands
    in for it, so one pass collects every error.  The value a getter returns
    is recorded in ``echo``, from which ``config.json`` is assembled, so the
    keys of ``echo`` are the keys read; ``report_unread`` reports the rest.
    """

    def __init__(self, cfg: dict, name: str, errors: list):
        self.cfg, self.name, self.errors = cfg, name, errors
        self.echo = {}
        self.sections = []  # the sections read from this one
        self.checked = True  # whether report_unread looks at this section's keys

    def __contains__(self, key) -> bool:
        return key in self.cfg

    def path(self, key=None) -> str:
        if key is None:
            return self.name
        return f"{self.name}.{key}" if self.name else key

    def error(self, message: str, key=None):
        self.errors.append(f"{self.path(key)}: {message}")

    def value(self, key, default, checks, convert=None, required=False):
        """``cfg[key]``, through ``convert``, if it passes every ``(what, test)``
        in ``checks``; otherwise the first ``what`` it fails is reported."""
        if key not in self.cfg:
            if required:
                self.error("required", key)
            value = default
        else:
            value = self.cfg[key]
            failed = next((what for what, test in checks if not test(value)), None)
            if failed is not None:
                self.error(f"must be {failed} (got {value!r})", key)
                value = default
            elif convert is not None:
                value = convert(value)
        self.echo[key] = value
        return value

    def section(self, key, default=None, *, required=False, raw=False) -> "_Section":
        """The object at ``key``, echoed as the keys read from it or, with
        ``raw``, as written.  A missing or malformed object is reported once:
        reads from its stand-in report nothing more."""
        before = len(self.errors)
        value = self.value(key, default or {}, [("an object", lambda v: isinstance(v, dict))],
                           required=required)
        sub = _Section(value, self.path(key), self.errors if len(self.errors) == before else [])
        if not raw:
            self.echo[key] = sub.echo
        self.sections.append(sub)
        return sub

    def report_unread(self):
        """Report, here and in every section read from this one, each key
        that was never read as ``<path>: unknown key``; a section that an
        earlier error kept from being read (``checked`` false) is passed over."""
        if not self.checked:
            return
        for key in self.cfg:
            if key not in self.echo:
                self.error("unknown key", key)
        for sub in self.sections:
            sub.report_unread()

    def number(self, key, default, *, required=False, bound=None) -> float:
        """A finite number; ``bound`` is one more ``(what, test)`` it must pass."""
        checks = [("a number", _real)] + ([bound] if bound else [])
        return self.value(key, default, checks, float, required)

    def count(self, key, default, *, minimum=None, maximum=None) -> int:
        checks = [("an integer", _integral)]
        if maximum is not None:
            checks.append((f"in {minimum}..{maximum}", lambda v: minimum <= v <= maximum))
        elif minimum is not None:
            checks.append((f">= {minimum}", lambda v: v >= minimum))
        return self.value(key, default, checks, int)

    def flag(self, key, default: bool) -> bool:
        return self.value(key, default, [("true or false", lambda v: isinstance(v, bool))])

    def string(self, key, default, *, required=False):
        return self.value(key, default, [("a string", lambda v: isinstance(v, str))],
                          required=required)

    def choice(self, key, options: tuple, default, *, required=False):
        # returns the option itself, so `"schema": 1.0` is echoed as 1
        what = "one of " + ", ".join(map(str, options))
        return self.value(key, default, [(what, lambda v: v in options)],
                          lambda v: options[options.index(v)], required)

    def items(self, key, default) -> list:
        return self.value(key, default, [("a list", lambda v: isinstance(v, list))])

    def _list(self, key, default, what, item, convert, length, required):
        checks = [(what, lambda v: isinstance(v, list) and all(map(item, v)))]
        if length is not None:
            checks.append((f"of length {length}", lambda v: len(v) == length))
        return self.value(key, default, checks, lambda v: [convert(c) for c in v], required)

    def numbers(self, key, default, *, length=None, required=False) -> list:
        return self._list(key, default, "a list of numbers", _real, float, length, required)

    def counts(self, key, default, *, length=None) -> list:
        return self._list(key, default, "a list of integers", _integral, int, length, False)


@dataclass
class RunPlan:
    """Validated, normalized run inputs."""

    problem: ProblemSpec
    grid: SpaceTimeGrid
    picard: PicardConfig
    cache_paths: int
    memory_budget_mb: float
    fbsde_paths: int
    basis: RegressionBasis
    origins: list
    operator_paths: int
    operator_functions: int
    phases: list
    seed: int
    normalized: dict = field(repr=False, default_factory=dict)


def _expr_function(section, key, dimension, compile_fn, default=None):
    """The expression at ``key`` compiled by ``compile_fn``, or None when it
    is missing (required when ``default`` is None) or does not compile."""
    text = section.string(key, default, required=default is None)
    if text is None:
        return None
    try:
        node = xp.parse(text, dimension)
        fn = compile_fn(node, dimension)
    except PseudoPdeError as err:
        section.error(str(err), key)
        return None
    fn.fingerprint_token = text
    fn.variables = xp.variables(node)
    fn.reads_t = "t" in fn.variables
    return fn


def _drift_table(b, grid_bounds):
    """Nodes and values of the drift b: its ``expr`` sampled at ``nodes``
    points over ``bounds``, or the table given as ``x`` and ``values``."""
    if "expr" not in b:
        xs = b.numbers("x", None, required=True)
        values = b.numbers("values", None, required=True)
        return None if xs is None or values is None else (np.asarray(xs), np.asarray(values))
    b_fn = _expr_function(b, "expr", 1, xp.as_function_of_x)
    lo, hi = b.numbers("bounds", grid_bounds, length=2)
    xs = np.linspace(lo, hi, b.count("nodes", 10001, minimum=3))
    return None if b_fn is None else (xs, b_fn(xs[:, None]))


def _build_generator(kind, gen, dimension, grid_bounds):
    if kind == "stable":
        return Stable(
            alpha=gen.number("alpha", 2.0, required=True,
                             bound=("in (0, 2]", lambda v: 0 < v <= 2)),
            scale=gen.number("scale", 1.0, bound=_POSITIVE),
        )
    # the drift's b and sigma are functions of x alone
    drift = kind == "distributional_drift"
    sigma = _expr_function(gen, "sigma", dimension,
                           xp.as_function_of_x if drift else xp.as_coefficient_fn, "1")
    if drift:
        b = gen.section("b", required=True)
        try:
            table = _drift_table(b, grid_bounds)
            if sigma is None or table is None:
                return None
            sigma_of_x = lambda xs: sigma(np.asarray(xs, dtype=float)[:, None])
            sigma_of_x.fingerprint_token = sigma.fingerprint_token
            return DistributionalDrift(b_x=table[0], b_values=table[1], sigma_fn=sigma_of_x)
        except PseudoPdeError as err:
            b.error(str(err))
            return None
    mu = _expr_function(gen, "mu", dimension, xp.as_coefficient_fn, "0")
    if kind == "diffusion":
        if mu is None or sigma is None:
            return None
        return Diffusion(mu=mu, sigma=sigma, dimension=dimension)
    levy = gen.section("levy", required=True)
    law = levy.section("jump_law")
    pairs = lambda v: isinstance(v, list) and all(
        isinstance(a, list) and len(a) == 2 and all(map(_real, a)) for a in v
    )
    atoms = law.value("atoms", (), [("a list of [size, weight] number pairs", pairs)],
                      lambda v: tuple(map(tuple, v)))
    try:
        kernel = LevyKernel(
            rate=levy.number("rate", 0.0, required=True),
            law=JumpLaw(kind=law.string("kind", ""), param=law.number("param", 0.0), atoms=atoms),
        )
    except ConfigurationError as err:
        levy.error(str(err))
        return None
    if mu is None or sigma is None:
        return None
    return Diffusion(mu=mu, sigma=sigma, dimension=dimension, levy=kernel)


def validate_config(path, phases=None) -> RunPlan:
    """Parse, check every cross-field constraint, and normalize with defaults.

    All violations are collected and reported at once.  The normalized config
    is the echo of every key read, with its default when absent.  ``phases``,
    a ``--phases`` list, replaces the config's ``phases``, so the checks that
    depend on which phases run see the ones that will.
    """
    errors = []
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"{path}: {err}") from err
    if not isinstance(raw, dict):
        errors.append(f"top level: must be an object (got {type(raw).__name__})")
        raw = {}
    top = _Section(raw, "", errors)
    top.choice("schema", (1,), 1)
    seed = top.count("seed", 0)

    grid_cfg = top.section("grid")
    dimension = grid_cfg.count("dimension", 1, minimum=1)
    problem_cfg = top.section("problem", required=True)
    horizon = problem_cfg.number("horizon_T", 1.0, required=True, bound=_POSITIVE)
    clock_cfg = problem_cfg.section("clock", {"kind": "identity"}, raw=True)
    clock = ClockV()
    if clock_cfg.choice("kind", ("identity", "tabulated"), "identity") == "tabulated":
        times = clock_cfg.numbers("times", None, required=True)
        values = clock_cfg.numbers("values", None, required=True)
        try:
            if times is not None and values is not None:
                clock = ClockV(kind="tabulated", times=times, values=values)
        except PseudoPdeError as err:
            clock_cfg.error(str(err))
    if not clock.covers(0.0, horizon):
        clock_cfg.error("domain must cover [0, horizon_T]")
        clock = ClockV()

    grid = None
    try:
        grid = SpaceTimeGrid.regular(
            horizon=horizon,
            time_steps=grid_cfg.count("time_steps", 50, minimum=1),
            space_min=grid_cfg.numbers("space_min", [-4.0] * dimension, length=dimension),
            space_max=grid_cfg.numbers("space_max", [4.0] * dimension, length=dimension),
            space_nodes=grid_cfg.counts("space_nodes", [41] * dimension, length=dimension),
            clock=clock,
        )
    except PseudoPdeError as err:
        grid_cfg.error(str(err))

    terminal = _expr_function(
        problem_cfg.section("terminal_g", required=True), "expr", dimension, xp.as_function_of_x
    )

    d_cfg = problem_cfg.section("driver", required=True)
    fn = _expr_function(d_cfg, "expr", dimension, xp.as_driver_fn)
    k_y = d_cfg.number("K_Y", 0.0, bound=_NONNEGATIVE)
    k_z = d_cfg.number("K_Z", 0.0, bound=_NONNEGATIVE)
    # K_Z = 0 declares f constant in z, and the mild sweep then reads z as 0
    if fn is not None and "z" in fn.variables and k_z == 0:
        d_cfg.error(f"must be > 0 when the driver reads z (got {k_z})", "K_Z")
    verify_lipschitz = d_cfg.flag("verify_lipschitz", False)
    driver = None if fn is None else LipschitzDriver(fn=fn, K_Y=k_y, K_Z=k_z)

    gen_cfg = problem_cfg.section("generator", required=True, raw=True)
    kind = gen_cfg.choice(
        "kind", ("diffusion", "jump_diffusion", "stable", "distributional_drift"), None,
        required=True,
    )
    generator = None
    # which keys a generator reads depends on its kind: unchecked unless it is built
    gen_cfg.checked = False
    if kind in ("jump_diffusion", "stable", "distributional_drift") and dimension != 1:
        gen_cfg.error(f"{kind} requires {grid_cfg.path('dimension')} = 1")
    elif kind is not None and grid is not None:
        gen_cfg.checked = True
        bounds = [float(grid.space_min[0]), float(grid.space_max[0])]
        generator = _build_generator(kind, gen_cfg, dimension, bounds)

    mild_cfg = top.section("mild")
    cache_paths = mild_cfg.count("cache_paths", 1000, minimum=1)
    memory_budget = mild_cfg.number("memory_budget_mb", 4096.0, bound=_POSITIVE)
    picard = PicardConfig(
        max_iterations=mild_cfg.count("max_iterations", 15, minimum=1),
        tolerance=mild_cfg.number("tolerance", 1e-3, bound=_POSITIVE),
        v_scheme=mild_cfg.choice("v_scheme", ("variance", "volterra"), "variance"),
    )

    fb_cfg = top.section("fbsde")
    fbsde_paths = fb_cfg.count("paths", 20000, minimum=1)
    basis_cfg = fb_cfg.section("basis", {"kind": "polynomial", "degree": 3}, raw=True)
    basis_cfg.choice("kind", ("polynomial",), "polynomial")
    basis = RegressionBasis(
        degree=basis_cfg.count("degree", 3, minimum=0),
        ridge=fb_cfg.number("ridge", 1e-9, bound=_NONNEGATIVE),
        clip=None if grid is None else (grid.space_min, grid.space_max),
    )
    origins = []
    for k, o in enumerate(fb_cfg.items("origins", [[0.0] * (dimension + 1)])):
        where = f"origins[{k}]"
        if not (isinstance(o, list) and o and all(map(_real, o))):
            fb_cfg.error(f"must be a list [s, x1, ...] of numbers (got {o!r})", where)
            continue
        s, x = float(o[0]), np.asarray(o[1:], dtype=float)
        if grid is not None:
            try:
                grid.time_index(s)
            except ConfigurationError as err:
                fb_cfg.error(str(err), where)
        if x.size != dimension:
            fb_cfg.error(f"point has dimension {x.size}, expected {dimension}", where)
        origins.append((s, x))
    fb_cfg.echo["origins"] = [[s] + list(map(float, x)) for s, x in origins]  # as floats

    listed = top.items("phases", list(PHASE_ORDER))
    for p in listed:
        if p not in PHASE_ORDER:
            top.error(f"unknown phase {p!r}", "phases")
    if phases:
        errors.extend(f"--phases: unknown phase {p!r}" for p in phases if p not in PHASE_ORDER)
        listed = phases
    phases = top.echo["phases"] = [p for p in PHASE_ORDER if p in listed]  # in run order

    ops_cfg = top.section("operators")
    operator_paths = ops_cfg.count("martingale_paths", 20000, minimum=1)
    operator_functions = ops_cfg.count(
        "test_functions", 3, minimum=1, maximum=len(bounded_test_functions(1))
    )

    # cross-field constraints
    # the mild sweep and the backward solver both solve y = c + f(t, x, y, z) dV
    if driver is not None and grid is not None and {"mild", "fbsde", "crosscheck"} & set(phases):
        max_dv = float(np.max(grid.dvs))
        if driver.K_Y * max_dv >= 1.0:
            d_cfg.error(
                f"K_Y * max dV = {driver.K_Y * max_dv:.3g} >= 1 violates the "
                f"implicit-step contraction requirement; refine {grid_cfg.path('time_steps')}",
                "K_Y",
            )
    # the Chapman-Kolmogorov check restarts at grid.times[n_times // 2], inside (0, T)
    if grid is not None and "operators" in phases and grid.n_times < 3:
        grid_cfg.error(f"must be >= 2 when the operators phase runs (got {grid.n_times - 1})",
                       "time_steps")
    growth_zeta = problem_cfg.number("growth_zeta", 0.0)
    if isinstance(generator, Stable) and growth_zeta and growth_zeta >= generator.alpha:
        problem_cfg.error(
            "terminal growth exponent >= alpha has no finite moments under the stable "
            "generator", "growth_zeta"
        )

    top.report_unread()
    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(errors))

    problem = ProblemSpec(
        generator=generator,
        driver=driver,
        terminal_g=terminal,
    )
    if verify_lipschitz:
        problem.driver.check_lipschitz(
            (0.0, horizon), (grid.space_min, grid.space_max)
        )
    return RunPlan(
        problem=problem,
        grid=grid,
        picard=picard,
        cache_paths=cache_paths,
        memory_budget_mb=memory_budget,
        fbsde_paths=fbsde_paths,
        basis=basis,
        origins=origins,
        operator_paths=operator_paths,
        operator_functions=operator_functions,
        phases=phases,
        seed=seed,
        normalized=top.echo,
    )


def _write_csv(path: Path, config_hash, header, rows):
    """One output CSV: the config hash line, the header, then one line per
    row, numbers at 17 significant digits and strings as they are."""
    lines = [f"# config_hash={config_hash}", ",".join(header)]
    lines += [",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def run(config_path, out_dir=None, threads=1, seed_override=None, phases_override=None) -> int:
    """Execute the configured phases; returns the process exit code."""
    out = Path(out_dir) if out_dir else Path.cwd() / "pseudopde_out"
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "timings_seconds": {},
        "peak_rss_mb": {},
        "phases_completed": [],
        "errors": {},
        "converged": None,
    }
    try:
        plan = validate_config(config_path, phases_override)
        if threads < 1:
            raise ConfigurationError(
                f"invalid configuration:\n  --threads: must be >= 1, got {threads}")
    except PseudoPdeError as err:
        manifest["errors"]["validate"] = str(err)
        manifest["exit_code"] = 1
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(err, file=sys.stderr)
        return 1

    if seed_override is not None:
        plan.seed = int(seed_override)
        plan.normalized["seed"] = plan.seed

    config_bytes = (json.dumps(plan.normalized, indent=2, sort_keys=True) + "\n").encode()
    config_hash = hashlib.sha256(config_bytes).hexdigest()
    (out / "config.json").write_bytes(config_bytes)
    manifest["config_hash"] = config_hash
    manifest["seed"] = plan.seed

    # a phase runs with the phases whose results it reads
    phases = set(plan.phases)
    if "crosscheck" in phases:
        phases.add("mild")
    if "mild" in phases:
        phases.add("cache")
    grid = plan.grid
    coords = [f"x{k + 1}" for k in range(grid.dimension)]
    done = {}  # the result of each completed phase

    def do_cache():
        cache = build_cache(
            plan.problem.generator,
            grid,
            plan.cache_paths,
            plan.seed,
            memory_budget_mb=plan.memory_budget_mb,
            threads=threads,
        )
        manifest["cache_memory_bytes"] = cache.memory_bytes
        manifest["cache_rows_per_path_set"] = cache.rows_per_path_set
        manifest["cache_stored_rows"] = cache.stored_rows
        return cache

    def do_mild():
        # no later phase reads the cache: it is released when the solve returns
        sol = picard_solve(plan.problem, done.pop("cache"), plan.picard)
        manifest["converged"] = sol.converged
        manifest["iterations"] = sol.iterations
        manifest["clamp_telemetry"] = asdict(sol.clamp)
        manifest["residuals"] = asdict(sol.residuals)
        manifest["out_of_bounds_fraction"] = sol.out_of_bounds_fraction
        if sol.out_of_bounds_fraction > 0.01:
            manifest.setdefault("warnings", []).append(
                f"{100 * sol.out_of_bounds_fraction:.1f}% of cached path points "
                "fall outside the spatial bounds and were clamped during interpolation"
            )
        nodes = grid.nodes()
        for name, values, stderr in (("u.csv", sol.u, sol.u_stderr),
                                     ("v.csv", sol.v, sol.v_stderr)):
            _write_csv(out / name, config_hash, ["t", *coords, "value", "stderr"],
                       ((t, *x, value, err) for t, row, row_se in zip(grid.times, values, stderr)
                        for x, value, err in zip(nodes, row, row_se)))
        _write_csv(out / "deltas.csv", config_hash, ["iteration", "sup_delta"],
                   enumerate(sol.deltas, start=1))
        return sol

    def do_fbsde():
        solutions = [
            lsmc_solve(plan.problem, plan.problem.generator, s, x, grid,
                       plan.fbsde_paths, plan.basis, lsmc_seed(plan.seed, idx))
            for idx, (s, x) in enumerate(plan.origins)
        ]
        manifest["fbsde"] = [
            {"s": s, "x": list(map(float, x)), "y0": sol.y0, "z0": sol.z0,
             "y0_stderr": sol.y0_stderr}
            for (s, x), sol in zip(plan.origins, solutions)
        ]

    def do_crosscheck():
        # repeats do_fbsde's solves on the same seeds; perfbench/test_smoke.py pins
        # fbsde.lsmc_solve_calls == 2, so dropping the repeat needs a benchmark change first
        rows = crosscheck(
            done["mild"], plan.problem, plan.problem.generator, grid,
            plan.origins, plan.fbsde_paths, plan.basis, plan.seed,
        )
        _write_csv(out / "crosscheck.csv", config_hash,
                   ["s", *coords, "u", "y0", "v", "z0", "combined_stderr"],
                   ((r.s, *r.x, r.u_value, r.y0, r.v_value, r.z0, r.combined_stderr)
                    for r in rows))

    def do_operators():
        gen = plan.problem.generator
        # first, so a grid the built-in test set does not cover fails before any simulation
        functions = bounded_test_functions(grid.dimension)[: plan.operator_functions]
        act = generator_action(gen)
        x0 = np.zeros(grid.dimension)
        # through the module, so a wrapper installed on processes.simulate sees the call
        ens = processes.simulate(gen, grid.times[0], x0, grid, plan.operator_paths, plan.seed)
        checks = [
            (f"martingale_max_abs_z_fn{k}", martingale_test(ens, phi, act(phi)).max_abs_z, 4.0)
            for k, phi in enumerate(functions)
        ]
        # released before the Chapman-Kolmogorov paths exist, so the two never share peak memory
        del ens
        mid = grid.times[grid.n_times // 2]
        z_ck = chapman_kolmogorov_test(
            gen, grid.times[0], mid, grid.times[-1], x0,
            lambda xs: np.tanh(xs[:, 0]), plan.operator_paths, plan.seed + 997, grid,
        )
        checks.append(("chapman_kolmogorov_z", abs(z_ck), 3.0))
        _write_csv(out / "operator_report.csv", config_hash,
                   ["check", "value", "threshold", "passed"],
                   ((name, value, limit, str(value < limit).lower())
                    for name, value, limit in checks))
        manifest["operator_checks_passed"] = all(value < limit for _, value, limit in checks)

    steps = {
        "cache": do_cache,
        "mild": do_mild,
        "fbsde": do_fbsde,
        "crosscheck": do_crosscheck,
        "operators": do_operators,
    }
    failed = False
    for phase in (p for p in PHASE_ORDER if p in phases):
        if failed:
            manifest["errors"][phase] = "skipped: earlier phase failed"
            continue
        t0 = time.perf_counter()
        try:
            done[phase] = steps[phase]()
            manifest["phases_completed"].append(phase)
        except PseudoPdeError as err:
            manifest["errors"][phase] = str(err)
            failed = True
        manifest["timings_seconds"][phase] = round(time.perf_counter() - t0, 6)
        # the process's peak so far (ru_maxrss is in KiB on Linux)
        manifest["peak_rss_mb"][phase] = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

    solution = done.get("mild")
    exit_code = 1 if failed else 2 if solution is not None and not solution.converged else 0
    manifest["exit_code"] = exit_code
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pseudopde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured phases")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--phases", default=None, help="comma-separated subset of phases")

    p_val = sub.add_parser("validate", help="check a config and echo its normalized form")
    p_val.add_argument("config")

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    if args.command == "validate":
        try:
            plan = validate_config(args.config)
        except PseudoPdeError as err:
            print(err, file=sys.stderr)
            return 1
        print(json.dumps(plan.normalized, indent=2, sort_keys=True))
        return 0
    phases = args.phases.split(",") if args.phases else None
    return run(
        args.config,
        out_dir=args.out,
        threads=args.threads,
        seed_override=args.seed,
        phases_override=phases,
    )


if __name__ == "__main__":
    sys.exit(main())
