"""Configuration ingestion, run orchestration, and artifact emission.

Usage:
    pseudopde run <config.json> [--out DIR] [--threads N] [--seed S] [--phases LIST]
    pseudopde validate <config.json>
    pseudopde version

A run executes the requested phases in order (cache -> mild -> fbsde ->
crosscheck -> operators), writes one CSV per field plus crosscheck /
operator reports and a manifest, and exits 0 on success, 2 when the solver
ran but did not converge, 1 on error.  Outputs are byte-identical across
reruns with the same effective config and independent of --threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, processes
from .core import ClockV, LipschitzDriver, ProblemSpec, ScalarField, SpaceTimeGrid, v_increments
from .errors import ConfigurationError, PseudoPdeError
from . import expressions as xp
from .fbsde import RegressionBasis, crosscheck, lsmc_solve
from .mild import PicardConfig, picard_solve
from .operators import bounded_test_functions, generator_action, martingale_test
from .processes import (
    Diffusion,
    DistributionalDrift,
    JumpDiffusion,
    JumpLaw,
    LevyKernel,
    Stable,
)
from .semigroup import build_cache, chapman_kolmogorov_test

PHASE_ORDER = ("cache", "mild", "fbsde", "crosscheck", "operators")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _is_integer(value) -> bool:
    """A JSON number with no fractional part; bools and strings are not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and float(value).is_integer()
    )


def _is_number(value) -> bool:
    """A finite JSON number; bools and strings are not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _number(cfg: dict, key: str, default: float, name: str, errors: list) -> float:
    """The number ``cfg[key]`` as a float (``default`` when absent), reported
    in ``errors`` and replaced by ``default`` otherwise, as ``_count`` does."""
    value = cfg.get(key, default)
    if not _is_number(value):
        errors.append(f"{name}: must be a number (got {value!r})")
        return default
    return float(value)


def _section(cfg: dict, key: str, default: dict, name: str, errors: list) -> dict:
    """The object ``cfg[key]`` (``default`` when absent), reported in
    ``errors`` and replaced by ``default`` otherwise, as ``_count`` does."""
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        errors.append(f"{name}: must be an object (got {value!r})")
        return default
    return value


def _count(cfg: dict, key: str, default: int, name: str, errors: list) -> int:
    """The integer ``cfg[key]`` (``default`` when absent).  Any other value is
    reported in ``errors`` under ``name`` and ``default`` stands in for it, so
    validation goes on and every violation is reported at once."""
    value = cfg.get(key, default)
    if not _is_integer(value):
        errors.append(f"{name}: must be an integer (got {value!r})")
        return default
    return int(value)


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


def _expr_function(text, dimension, kind, where, errors):
    if not isinstance(text, str):
        errors.append(f"{where}: must be a string (got {text!r})")
        return None
    try:
        node = xp.parse(text, dimension)
    except PseudoPdeError as err:
        errors.append(f"{where}: {err}")
        return None
    try:
        if kind == "driver":
            fn = xp.as_driver_fn(node, dimension)
        elif kind == "terminal":
            fn = xp.as_function_of_x(node, dimension)
        else:
            fn = xp.as_coefficient_fn(node, dimension)
    except PseudoPdeError as err:
        errors.append(f"{where}: {err}")
        return None
    fn.fingerprint_token = text
    return fn


def _build_generator(cfg, dimension, grid_bounds, errors):
    kind = cfg.get("kind")
    if kind == "diffusion" or kind == "jump_diffusion":
        mu = _expr_function(cfg.get("mu", "0"), dimension, "coef", "problem.generator.mu", errors)
        sigma = _expr_function(
            cfg.get("sigma", "1"), dimension, "coef", "problem.generator.sigma", errors
        )
        if mu is None or sigma is None:
            return None
        if kind == "diffusion":
            return Diffusion(mu=mu, sigma=sigma, dimension=dimension)
        levy_cfg = cfg.get("levy")
        if not isinstance(levy_cfg, dict):
            errors.append("problem.generator.levy: required for jump_diffusion")
            return None
        law_cfg = _section(levy_cfg, "jump_law", {}, "problem.generator.levy.jump_law", errors)
        param = _number(law_cfg, "param", 0.0, "problem.generator.levy.jump_law.param", errors)
        rate = _number(levy_cfg, "rate", -1.0, "problem.generator.levy.rate", errors)
        try:
            law = JumpLaw(
                kind=law_cfg.get("kind", ""),
                param=param,
                atoms=tuple(tuple(a) for a in law_cfg.get("atoms", ())),
            )
            levy = LevyKernel(rate=rate, law=law)
        except (ConfigurationError, TypeError, ValueError) as err:
            errors.append(f"problem.generator.levy: {err}")
            return None
        return JumpDiffusion(mu=mu, sigma=sigma, levy=levy, dimension=dimension)
    if kind == "stable":
        if dimension != 1:
            errors.append("problem.generator: stable requires grid.dimension = 1")
            return None
        alpha = _number(cfg, "alpha", 0.0, "problem.generator.alpha", errors)
        scale = _number(cfg, "scale", 1.0, "problem.generator.scale", errors)
        try:
            return Stable(alpha=alpha, scale=scale)
        except ConfigurationError as err:
            errors.append(f"problem.generator: {err}")
            return None
    if kind == "distributional_drift":
        if dimension != 1:
            errors.append("problem.generator: distributional_drift requires grid.dimension = 1")
            return None
        sigma = _expr_function(
            cfg.get("sigma", "1"), 1, "coef", "problem.generator.sigma", errors
        )
        if sigma is None:
            return None
        sigma_of_x = lambda xs: sigma(0.0, np.asarray(xs, dtype=float)[:, None])
        sigma_of_x.fingerprint_token = cfg.get("sigma", "1")
        b_cfg = cfg.get("b")
        if not isinstance(b_cfg, dict):
            errors.append("problem.generator.b: required (expression or sample table)")
            return None
        try:
            if "expr" in b_cfg:
                b_fn = _expr_function(b_cfg["expr"], 1, "coef", "problem.generator.b.expr", errors)
                if b_fn is None:
                    return None
                lo, hi = b_cfg.get("bounds", grid_bounds)
                n = _count(b_cfg, "nodes", 10001, "problem.generator.b.nodes", errors)
                xs = np.linspace(float(lo), float(hi), n)
                bv = b_fn(0.0, xs[:, None])
            else:
                xs = np.asarray(b_cfg["x"], dtype=float)
                bv = np.asarray(b_cfg["values"], dtype=float)
            return DistributionalDrift(b_x=xs, b_values=bv, sigma_fn=sigma_of_x)
        except (PseudoPdeError, KeyError, TypeError, ValueError) as err:
            errors.append(f"problem.generator.b: {err}")
            return None
    errors.append(
        "problem.generator.kind: must be one of diffusion, jump_diffusion, stable, "
        f"distributional_drift (got {kind!r})"
    )
    return None


def validate_config(path) -> RunPlan:
    """Parse, check every cross-field constraint, and normalize with defaults.

    All violations are collected and reported at once.
    """
    errors = []
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"{path}: {err}") from err
    if not isinstance(raw, dict):
        errors.append(f"top level: must be an object (got {type(raw).__name__})")
        raw = {}
    if raw.get("schema", 1) != 1:
        errors.append(f"schema: unsupported version {raw.get('schema')!r}")

    grid_cfg = _section(raw, "grid", {}, "grid", errors)
    dimension = _count(grid_cfg, "dimension", 1, "grid.dimension", errors)
    problem_cfg = raw.get("problem")
    if not isinstance(problem_cfg, dict):
        errors.append("problem: required")
        problem_cfg = {}

    if "horizon_T" not in problem_cfg:
        errors.append("problem.horizon_T: required")
        horizon = 1.0
    else:
        horizon = _number(problem_cfg, "horizon_T", 1.0, "problem.horizon_T", errors)
        if horizon <= 0:
            errors.append("problem.horizon_T: must be positive")
            horizon = 1.0

    time_steps = _count(grid_cfg, "time_steps", 50, "grid.time_steps", errors)
    space_nodes = grid_cfg.get("space_nodes", [41] * dimension)
    if not isinstance(space_nodes, list) or not all(_is_integer(n) for n in space_nodes):
        errors.append(f"grid.space_nodes: must be a list of integers (got {space_nodes!r})")
        space_nodes = [41] * dimension
    grid = None
    try:
        grid = SpaceTimeGrid.regular(
            horizon=horizon,
            time_steps=time_steps,
            space_min=np.asarray(grid_cfg.get("space_min", [-4.0] * dimension), dtype=float),
            space_max=np.asarray(grid_cfg.get("space_max", [4.0] * dimension), dtype=float),
            space_nodes=np.asarray(space_nodes, dtype=int),
        )
    except (PseudoPdeError, TypeError, ValueError) as err:
        errors.append(f"grid: {err}")

    clock_cfg = _section(problem_cfg, "clock", {"kind": "identity"}, "problem.clock", errors)
    clock = ClockV()
    try:
        if clock_cfg.get("kind", "identity") == "tabulated":
            clock = ClockV(
                kind="tabulated",
                times=np.asarray(clock_cfg["times"], dtype=float),
                values=np.asarray(clock_cfg["values"], dtype=float),
            )
        if not clock.covers(0.0, horizon):
            errors.append("problem.clock: domain must cover [0, horizon_T]")
    except (PseudoPdeError, KeyError, TypeError, ValueError) as err:
        errors.append(f"problem.clock: {err}")

    g_cfg = problem_cfg.get("terminal_g")
    terminal = None
    if not isinstance(g_cfg, dict) or "expr" not in g_cfg:
        errors.append("problem.terminal_g: required")
    else:
        terminal = _expr_function(g_cfg["expr"], dimension, "terminal", "problem.terminal_g.expr", errors)

    d_cfg = problem_cfg.get("driver")
    driver = None
    verify_lipschitz = False
    if not isinstance(d_cfg, dict) or "expr" not in d_cfg:
        errors.append("problem.driver: required (expr, K_Y, K_Z)")
    else:
        fn = _expr_function(d_cfg["expr"], dimension, "driver", "problem.driver.expr", errors)
        k_y = _number(d_cfg, "K_Y", 0.0, "problem.driver.K_Y", errors)
        k_z = _number(d_cfg, "K_Z", 0.0, "problem.driver.K_Z", errors)
        # declared but read by no computation; validated and echoed only
        c_prime = _number(d_cfg, "C_prime", 0.0, "problem.driver.C_prime", errors)
        if c_prime < 0:
            errors.append("problem.driver: C_prime must be nonnegative")
        verify_lipschitz = d_cfg.get("verify_lipschitz", False)
        if not isinstance(verify_lipschitz, bool):
            errors.append(
                f"problem.driver.verify_lipschitz: must be true or false (got {verify_lipschitz!r})"
            )
        if fn is not None:
            try:
                driver = LipschitzDriver(fn=fn, K_Y=k_y, K_Z=k_z)
            except PseudoPdeError as err:
                errors.append(f"problem.driver: {err}")

    gen_cfg = problem_cfg.get("generator")
    generator = None
    if not isinstance(gen_cfg, dict):
        errors.append("problem.generator: required")
    elif grid is not None:
        generator = _build_generator(
            gen_cfg, dimension, (float(grid.space_min[0]), float(grid.space_max[0])), errors
        )

    mild_cfg = _section(raw, "mild", {}, "mild", errors)
    max_iterations = _count(mild_cfg, "max_iterations", 15, "mild.max_iterations", errors)
    picard = None
    try:
        picard = PicardConfig(
            max_iterations=max_iterations,
            tolerance=_number(mild_cfg, "tolerance", 1e-3, "mild.tolerance", errors),
            v_scheme=mild_cfg.get("v_scheme", "variance"),
            damping=_number(mild_cfg, "damping", 1.0, "mild.damping", errors),
        )
    except PseudoPdeError as err:
        errors.append(f"mild: {err}")
    cache_paths = _count(mild_cfg, "cache_paths", 1000, "mild.cache_paths", errors)
    if cache_paths < 1:
        errors.append("mild.cache_paths: must be >= 1")
    memory_budget = _number(mild_cfg, "memory_budget_mb", 4096.0, "mild.memory_budget_mb", errors)

    fb_cfg = _section(raw, "fbsde", {}, "fbsde", errors)
    basis = None
    basis_cfg = _section(
        fb_cfg, "basis", {"kind": "polynomial", "degree": 3}, "fbsde.basis", errors
    )
    degree = _count(basis_cfg, "degree", 3, "fbsde.basis.degree", errors)
    try:
        clip = None
        if grid is not None:
            clip = (grid.space_min, grid.space_max)
        kind = basis_cfg.get("kind", "polynomial")
        if kind != "polynomial":
            raise ConfigurationError(f"unknown basis kind {kind!r}; the basis is 'polynomial'")
        basis = RegressionBasis(
            degree=degree,
            ridge=_number(fb_cfg, "ridge", 1e-9, "fbsde.ridge", errors),
            clip=clip,
        )
    except PseudoPdeError as err:
        errors.append(f"fbsde.basis: {err}")
    fbsde_paths = _count(fb_cfg, "paths", 20000, "fbsde.paths", errors)
    if fbsde_paths < 1:
        errors.append("fbsde.paths: must be >= 1")
    origins_cfg = fb_cfg.get("origins", [[0.0] + [0.0] * dimension])
    if not isinstance(origins_cfg, list):
        errors.append(f"fbsde.origins: must be a list (got {origins_cfg!r})")
        origins_cfg = []
    origins = []
    for k, o in enumerate(origins_cfg):
        if not (isinstance(o, list) and o and all(_is_number(c) for c in o)):
            errors.append(
                f"fbsde.origins[{k}]: must be a list [s, x1, ...] of numbers (got {o!r})"
            )
            continue
        origins.append((float(o[0]), np.asarray(o[1:], dtype=float)))
    for k, (s, x) in enumerate(origins):
        if grid is not None:
            try:
                grid.time_index(s)
            except ConfigurationError as err:
                errors.append(f"fbsde.origins[{k}]: {err}")
        if x.size != dimension:
            errors.append(f"fbsde.origins[{k}]: point has dimension {x.size}, expected {dimension}")

    phases = raw.get("phases", list(PHASE_ORDER))
    if not isinstance(phases, list):
        errors.append(f"phases: must be a list (got {phases!r})")
        phases = list(PHASE_ORDER)
    for p in phases:
        if p not in PHASE_ORDER:
            errors.append(f"phases: unknown phase {p!r}")
    phases = [p for p in PHASE_ORDER if p in phases]

    ops_cfg = _section(raw, "operators", {}, "operators", errors)
    operator_paths = _count(ops_cfg, "martingale_paths", 20000, "operators.martingale_paths", errors)
    operator_functions = _count(ops_cfg, "test_functions", 3, "operators.test_functions", errors)
    if operator_paths < 1:
        errors.append("operators.martingale_paths: must be >= 1")
    n_builtin = len(bounded_test_functions(1))
    if not 1 <= operator_functions <= n_builtin:
        errors.append(f"operators.test_functions: must be in 1..{n_builtin}")

    seed = _count(raw, "seed", 0, "seed", errors)

    # cross-field constraints
    if driver is not None and grid is not None and ("fbsde" in phases or "crosscheck" in phases):
        max_dv = float(np.max(v_increments(grid, clock)))
        if driver.K_Y * max_dv >= 1.0:
            errors.append(
                f"fbsde: K_Y * max dV = {driver.K_Y * max_dv:.3g} >= 1 violates the "
                "implicit-step contraction requirement; refine grid.time_steps"
            )
    growth_zeta = _number(problem_cfg, "growth_zeta", 0.0, "problem.growth_zeta", errors)
    growth_eta = _number(problem_cfg, "growth_eta", 0.0, "problem.growth_eta", errors)
    if isinstance(generator, Stable) and growth_zeta:
        if growth_zeta >= generator.alpha:
            errors.append(
                "problem.growth_zeta: terminal growth exponent >= alpha has no finite "
                "moments under the stable generator"
            )

    if errors:
        raise ConfigurationError("invalid configuration:\n  " + "\n  ".join(errors))

    problem = ProblemSpec(
        generator=generator,
        driver=driver,
        terminal_g=terminal,
        horizon_T=horizon,
        clock=clock,
        growth_zeta=growth_zeta,
        growth_eta=growth_eta,
    )
    if verify_lipschitz:
        problem.driver.check_lipschitz(
            (0.0, horizon), (grid.space_min, grid.space_max)
        )

    normalized = {
        "schema": 1,
        "seed": seed,
        "problem": {
            "generator": gen_cfg,
            "driver": {
                "expr": d_cfg["expr"],
                "K_Y": problem.driver.K_Y,
                "K_Z": problem.driver.K_Z,
                "C_prime": c_prime,
                "verify_lipschitz": verify_lipschitz,
            },
            "terminal_g": {"expr": g_cfg["expr"]},
            "horizon_T": horizon,
            "clock": clock_cfg,
            "growth_zeta": problem.growth_zeta,
            "growth_eta": problem.growth_eta,
        },
        "grid": {
            "dimension": dimension,
            "time_steps": grid.n_times - 1,
            "space_min": grid.space_min.tolist(),
            "space_max": grid.space_max.tolist(),
            "space_nodes": grid.space_nodes.tolist(),
        },
        "mild": {
            "cache_paths": cache_paths,
            "max_iterations": picard.max_iterations,
            "tolerance": picard.tolerance,
            "v_scheme": picard.v_scheme,
            "damping": picard.damping,
            "memory_budget_mb": memory_budget,
        },
        "fbsde": {
            "paths": fbsde_paths,
            "basis": basis_cfg,
            "ridge": basis.ridge,
            "origins": [[s] + list(map(float, x)) for s, x in origins],
        },
        "operators": {
            "martingale_paths": operator_paths,
            "test_functions": operator_functions,
        },
        "phases": phases,
    }
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
        normalized=normalized,
    )


def _write_field_csv(path: Path, grid: SpaceTimeGrid, fieldobj: ScalarField, stderr, config_hash):
    d = grid.dimension
    nodes = grid.nodes()
    flat = fieldobj.values.reshape(grid.n_times, -1)
    se = np.asarray(stderr).reshape(grid.n_times, -1)
    header = ",".join(["t"] + [f"x{k + 1}" for k in range(d)] + ["value", "stderr"])
    lines = [f"# config_hash={config_hash}", header]
    for i, t in enumerate(grid.times):
        for j in range(nodes.shape[0]):
            coords = ",".join(_fmt(c) for c in nodes[j])
            lines.append(f"{_fmt(t)},{coords},{_fmt(flat[i, j])},{_fmt(se[i, j])}")
    path.write_text("\n".join(lines) + "\n")


def run(config_path, out_dir=None, threads=1, seed_override=None, phases_override=None) -> int:
    """Execute the configured phases; returns the process exit code."""
    out = Path(out_dir) if out_dir else Path.cwd() / "pseudopde_out"
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "timings_seconds": {},
        "phases_completed": [],
        "errors": {},
        "converged": None,
    }
    exit_code = 0
    try:
        plan = validate_config(config_path)
    except PseudoPdeError as err:
        manifest["errors"]["validate"] = str(err)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(err, file=sys.stderr)
        return 1

    if seed_override is not None:
        plan.seed = int(seed_override)
        plan.normalized["seed"] = plan.seed
    if phases_override:
        plan.phases = [p for p in PHASE_ORDER if p in phases_override]
        plan.normalized["phases"] = plan.phases

    config_bytes = (json.dumps(plan.normalized, indent=2, sort_keys=True) + "\n").encode()
    config_hash = hashlib.sha256(config_bytes).hexdigest()
    (out / "config.json").write_bytes(config_bytes)
    manifest["config_hash"] = config_hash
    manifest["seed"] = plan.seed

    phases = list(plan.phases)
    if "mild" in phases or "crosscheck" in phases:
        if "cache" not in phases:
            phases.insert(0, "cache")
    cache = None
    mild_solution = None
    fbsde_solutions = []

    def record(phase, fn):
        nonlocal exit_code
        t0 = time.perf_counter()
        try:
            fn()
            manifest["phases_completed"].append(phase)
            return True
        except PseudoPdeError as err:
            manifest["errors"][phase] = str(err)
            exit_code = 1
            return False
        finally:
            manifest["timings_seconds"][phase] = round(time.perf_counter() - t0, 6)

    def do_cache():
        nonlocal cache
        cache = build_cache(
            plan.problem.generator,
            plan.grid,
            plan.cache_paths,
            plan.seed,
            plan.problem.clock,
            memory_budget_mb=plan.memory_budget_mb,
            threads=threads,
        )
        manifest["cache_memory_bytes"] = cache.memory_bytes

    def do_mild():
        nonlocal mild_solution
        mild_solution = picard_solve(plan.problem, cache, plan.picard)
        manifest["converged"] = mild_solution.converged
        manifest["iterations"] = mild_solution.iterations
        manifest["clamp_telemetry"] = {
            "count": mild_solution.clamp.count,
            "total_mass": mild_solution.clamp.total_mass,
            "max_magnitude": mild_solution.clamp.max_magnitude,
        }
        manifest["residuals"] = {
            "residual_1": mild_solution.residuals.residual_1,
            "residual_2": mild_solution.residuals.residual_2,
            "stderr_floor_1": mild_solution.residuals.stderr_floor_1,
            "stderr_floor_2": mild_solution.residuals.stderr_floor_2,
        }
        manifest["out_of_bounds_fraction"] = mild_solution.out_of_bounds_fraction
        if mild_solution.out_of_bounds_fraction > 0.01:
            manifest.setdefault("warnings", []).append(
                f"{100 * mild_solution.out_of_bounds_fraction:.1f}% of cached path points "
                "fall outside the spatial bounds and were clamped during interpolation"
            )
        _write_field_csv(out / "u.csv", plan.grid, mild_solution.u, mild_solution.u_stderr, config_hash)
        _write_field_csv(out / "v.csv", plan.grid, mild_solution.v, mild_solution.v_stderr, config_hash)
        lines = [f"# config_hash={config_hash}", "iteration,sup_delta"]
        for k, dlt in enumerate(mild_solution.deltas, start=1):
            lines.append(f"{k},{_fmt(dlt)}")
        (out / "deltas.csv").write_text("\n".join(lines) + "\n")

    def do_fbsde():
        for idx, (s, x) in enumerate(plan.origins):
            sol = lsmc_solve(
                plan.problem, plan.problem.generator, s, x, plan.grid,
                plan.fbsde_paths, plan.basis, plan.seed + 104729 + 7919 * idx,
            )
            fbsde_solutions.append(sol)
        manifest["fbsde"] = [
            {"s": s, "x": list(map(float, x)), "y0": sol.y0, "z0": sol.z0,
             "y0_stderr": sol.y0_stderr}
            for (s, x), sol in zip(plan.origins, fbsde_solutions)
        ]

    def do_crosscheck():
        # repeats do_fbsde's solves on the same seeds; perfbench/test_smoke.py pins
        # fbsde.lsmc_solve_calls == 2, so dropping the repeat needs a benchmark change first
        rows = crosscheck(
            mild_solution, plan.problem, plan.problem.generator, plan.grid,
            plan.origins, plan.fbsde_paths, plan.basis, plan.seed + 104729,
        )
        d = plan.grid.dimension
        header = ",".join(
            ["s"] + [f"x{k + 1}" for k in range(d)]
            + ["u", "y0", "v", "z0", "combined_stderr"]
        )
        lines = [f"# config_hash={config_hash}", header]
        for r in rows:
            coords = ",".join(_fmt(c) for c in r.x)
            lines.append(
                f"{_fmt(r.s)},{coords},{_fmt(r.u_value)},{_fmt(r.y0)},"
                f"{_fmt(r.v_value)},{_fmt(r.z0)},{_fmt(r.combined_stderr)}"
            )
        (out / "crosscheck.csv").write_text("\n".join(lines) + "\n")

    def do_operators():
        gen = plan.problem.generator
        rows = []
        act = generator_action(gen)
        x0 = np.zeros(plan.grid.dimension)
        # through the module, so a wrapper installed on processes.simulate sees the call
        ens = processes.simulate(gen, plan.grid.times[0], x0, plan.grid, plan.operator_paths,
                                 plan.seed, plan.problem.clock)
        for k, phi in enumerate(bounded_test_functions(1)[: plan.operator_functions]):
            result = martingale_test(ens, phi, act(phi))
            rows.append((f"martingale_max_abs_z_fn{k}", result.max_abs_z, 4.0,
                         result.max_abs_z < 4.0))
        # released before the Chapman-Kolmogorov paths exist, so the two never share peak memory
        del ens
        mid = plan.grid.times[plan.grid.n_times // 2]
        z_ck = chapman_kolmogorov_test(
            gen, plan.grid.times[0], mid, plan.grid.times[-1], x0,
            lambda xs: np.tanh(xs[:, 0]), plan.operator_paths,
            plan.seed + 997, plan.grid, plan.problem.clock,
        )
        rows.append(("chapman_kolmogorov_z", abs(z_ck), 3.0, abs(z_ck) < 3.0))
        lines = [f"# config_hash={config_hash}", "check,value,threshold,passed"]
        for name, value, thr, ok in rows:
            lines.append(f"{name},{_fmt(value)},{_fmt(thr)},{str(ok).lower()}")
        (out / "operator_report.csv").write_text("\n".join(lines) + "\n")
        manifest["operator_checks_passed"] = all(r[3] for r in rows)

    steps = {
        "cache": do_cache,
        "mild": do_mild,
        "fbsde": do_fbsde,
        "crosscheck": do_crosscheck,
        "operators": do_operators,
    }
    failed = False
    for phase in PHASE_ORDER:
        if phase not in phases:
            continue
        if failed:
            manifest["errors"][phase] = "skipped: earlier phase failed"
            continue
        if phase == "crosscheck" and mild_solution is None:
            manifest["errors"][phase] = "skipped: no mild solution available"
            continue
        if not record(phase, steps[phase]):
            failed = True

    if exit_code == 0 and mild_solution is not None and not mild_solution.converged:
        exit_code = 2
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
