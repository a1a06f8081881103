import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from pseudopde import cli, operators, processes
from pseudopde.cli import main, run, validate_config
from pseudopde.errors import ConfigurationError
from pseudopde.operators import bounded_test_functions, generator_action, martingale_test

ROOT = Path(__file__).resolve().parents[1]

def smoke_config(**overrides):
    cfg = {
        "schema": 1,
        "seed": 4711,
        "problem": {
            "generator": {"kind": "diffusion", "mu": "0", "sigma": "1"},
            "driver": {"expr": "0", "K_Y": 0.0, "K_Z": 0.0},
            "terminal_g": {"expr": "x1^2"},
            "horizon_T": 1.0,
            "clock": {"kind": "identity"},
        },
        "grid": {
            "dimension": 1, "time_steps": 10,
            "space_min": [-4.0], "space_max": [4.0], "space_nodes": [11],
        },
        "mild": {"cache_paths": 400, "max_iterations": 6, "tolerance": 0.001},
        "fbsde": {"paths": 3000, "basis": {"kind": "polynomial", "degree": 3},
                  "origins": [[0.0, 0.0]]},
        "operators": {"martingale_paths": 3000, "test_functions": 2},
        "phases": ["cache", "mild", "fbsde", "crosscheck", "operators"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_happy_path(tmp_path):
    plan = validate_config(write_config(tmp_path, smoke_config()))
    assert plan.seed == 4711
    assert plan.grid.n_times == 11
    assert plan.normalized["mild"]["v_scheme"] == "variance"  # default echoed


def test_validate_missing_terminal_g(tmp_path):
    cfg = smoke_config()
    del cfg["problem"]["terminal_g"]
    with pytest.raises(ConfigurationError, match=r"problem\.terminal_g: required"):
        validate_config(write_config(tmp_path, cfg))


def test_validate_reports_all_violations_at_once(tmp_path):
    cfg = smoke_config()
    del cfg["problem"]["terminal_g"]
    cfg["problem"]["generator"] = {"kind": "warp"}
    cfg["mild"]["tolerance"] = -1.0
    with pytest.raises(ConfigurationError) as err:
        validate_config(write_config(tmp_path, cfg))
    text = str(err.value)
    assert "terminal_g" in text and "generator.kind" in text and "mild" in text


def test_validate_rejects_non_polynomial_basis_with_other_errors(tmp_path):
    cfg = smoke_config()
    cfg["fbsde"]["basis"] = {"kind": "piecewise", "bins": 8}
    cfg["mild"]["tolerance"] = -1.0
    with pytest.raises(ConfigurationError) as err:
        validate_config(write_config(tmp_path, cfg))
    text = str(err.value)
    assert "fbsde.basis.kind: must be one of polynomial (got 'piecewise')" in text
    assert "mild.tolerance: must be positive (got -1.0)" in text
    # the polynomial basis is echoed as written
    plan = validate_config(write_config(tmp_path, smoke_config()))
    assert plan.normalized["fbsde"]["basis"] == {"kind": "polynomial", "degree": 3}
    assert plan.basis.degree == 3


def test_validate_rejects_off_grid_origin_with_other_errors(tmp_path):
    cfg = smoke_config()
    cfg["fbsde"]["origins"] = [[0.1 + 5e-8, 0.0]]  # 10 steps: 0.1 is a grid time
    cfg["problem"]["driver"]["K_Z"] = -1.0
    with pytest.raises(ConfigurationError) as err:
        validate_config(write_config(tmp_path, cfg))
    text = str(err.value)
    assert "fbsde.origins[0]: time 0.10000005" in text and "not a grid time" in text
    assert "problem.driver.K_Z: must be >= 0 (got -1.0)" in text


def test_validate_rejects_path_and_function_counts_with_other_errors(tmp_path):
    for functions in (-1, 0, 6, 9):
        cfg = smoke_config()
        cfg["fbsde"]["paths"] = 0
        cfg["operators"] = {"martingale_paths": 0, "test_functions": functions}
        cfg["mild"]["tolerance"] = -1.0
        with pytest.raises(ConfigurationError) as err:
            validate_config(write_config(tmp_path, cfg))
        text = str(err.value)
        assert "fbsde.paths: must be >= 1" in text
        assert "mild.tolerance: must be positive (got -1.0)" in text
        assert "operators.martingale_paths: must be >= 1" in text
        assert "operators.test_functions: must be in 1..5" in text
    for functions in (1, 5):
        cfg = smoke_config()
        cfg["operators"]["test_functions"] = functions
        plan = validate_config(write_config(tmp_path, cfg))
        assert plan.normalized["operators"] == {"martingale_paths": 3000, "test_functions": functions}


def test_validate_reports_non_integer_counts_with_other_errors(tmp_path):
    cfg = smoke_config(seed="abc")
    cfg["fbsde"]["paths"] = "many"
    cfg["mild"]["cache_paths"] = 2.7
    cfg["grid"]["space_nodes"] = [11.5]
    cfg["operators"]["test_functions"] = True
    cfg["mild"]["tolerance"] = -1.0
    with pytest.raises(ConfigurationError) as err:
        validate_config(write_config(tmp_path, cfg))
    text = str(err.value)
    for line in ("fbsde.paths: must be an integer (got 'many')",
                 "mild.cache_paths: must be an integer (got 2.7)",
                 "grid.space_nodes: must be a list of integers (got [11.5])",
                 "operators.test_functions: must be an integer (got True)",
                 "seed: must be an integer (got 'abc')",
                 "mild.tolerance: must be positive (got -1.0)"):
        assert line in text
    # run reports it in the manifest instead of raising
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 1
    assert "fbsde.paths" in json.loads((out / "manifest.json").read_text())["errors"]["validate"]
    # an integral float is an integer
    cfg = smoke_config()
    cfg["fbsde"]["paths"] = 3000.0
    assert validate_config(write_config(tmp_path, cfg)).normalized["fbsde"]["paths"] == 3000


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(cfg):
        target = cfg
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return cfg
    return edit


@pytest.mark.parametrize("edit, line", [
    (lambda cfg: [cfg], "top level: must be an object (got list)"),
    (_set("grid", 5), "grid: must be an object (got 5)"),
    (_set("problem", "clock", "identity"), "problem.clock: must be an object (got 'identity')"),
    (_set("problem", "horizon_T", "abc"), "problem.horizon_T: must be a number (got 'abc')"),
    (_set("mild", 5), "mild: must be an object (got 5)"),
    (_set("mild", "memory_budget_mb", "big"), "mild.memory_budget_mb: must be a number (got 'big')"),
    (_set("fbsde", "lsmc"), "fbsde: must be an object (got 'lsmc')"),
    (_set("fbsde", "basis", "polynomial"), "fbsde.basis: must be an object (got 'polynomial')"),
    (_set("fbsde", "origins", 0.4), "fbsde.origins: must be a list (got 0.4)"),
    (_set("fbsde", "origins", [0.4]), "fbsde.origins[0]: must be a list [s, x1, ...] of numbers"),
    (_set("operators", [1]), "operators: must be an object (got [1])"),
    (_set("phases", "all"), "phases: must be a list (got 'all')"),
    (_set("problem", "generator", {"kind": "jump_diffusion", "levy": {"rate": 1.0, "jump_law": 5}}),
     "problem.generator.levy.jump_law: must be an object (got 5)"),
    (_set("problem", "driver", "expr", 5), "problem.driver.expr: must be a string (got 5)"),
    (_set("problem", "terminal_g", "expr", [1]),
     "problem.terminal_g.expr: must be a string (got [1])"),
    (_set("problem", "generator", "sigma", 1), "problem.generator.sigma: must be a string (got 1)"),
    (_set("problem", "driver", "K_Y", "0.5"), "problem.driver.K_Y: must be a number (got '0.5')"),
    (_set("problem", "driver", "K_Z", None), "problem.driver.K_Z: must be a number (got None)"),
    (_set("problem", "driver", "verify_lipschitz", "no"),
     "problem.driver.verify_lipschitz: must be true or false (got 'no')"),
    (_set("mild", "tolerance", "1e-3"), "mild.tolerance: must be a number (got '1e-3')"),
    (_set("mild", "tolerance", float("inf")), "mild.tolerance: must be a number (got inf)"),
    (_set("fbsde", "ridge", "1e-9"), "fbsde.ridge: must be a number (got '1e-9')"),
    (_set("problem", "generator", {"kind": "stable", "alpha": "1.5"}),
     "problem.generator.alpha: must be a number (got '1.5')"),
    (_set("problem", "generator", {"kind": "stable", "alpha": 1.5, "scale": float("nan")}),
     "problem.generator.scale: must be a number (got nan)"),
    (_set("problem", "generator", {"kind": "jump_diffusion", "levy": {
        "rate": "1", "jump_law": {"kind": "two_point", "param": 0.5}}}),
     "problem.generator.levy.rate: must be a number (got '1')"),
    (_set("problem", "generator", {"kind": "jump_diffusion", "levy": {
        "rate": 1.0, "jump_law": {"kind": "two_point", "param": "0.5"}}}),
     "problem.generator.levy.jump_law.param: must be a number (got '0.5')"),
    (_set("grid", "space_min", ["-4"]), "grid.space_min: must be a list of numbers (got ['-4'])"),
    (_set("grid", "space_max", ["4"]), "grid.space_max: must be a list of numbers (got ['4'])"),
    (_set("grid", "space_min", -4), "grid.space_min: must be a list of numbers (got -4)"),
    (_set("problem", "clock", {"kind": "tabulated", "times": ["0", "1"], "values": [0, 1]}),
     "problem.clock.times: must be a list of numbers (got ['0', '1'])"),
    (_set("problem", "generator", {"kind": "distributional_drift",
                                   "b": {"expr": "-x1^2/4", "bounds": ["-4", "4"]}}),
     "problem.generator.b.bounds: must be a list of numbers (got ['-4', '4'])"),
    (_set("problem", "generator", {"kind": "distributional_drift",
                                   "b": {"x": ["0", "1", "2"], "values": [0, 0, 0]}}),
     "problem.generator.b.x: must be a list of numbers (got ['0', '1', '2'])"),
    (_set("problem", "generator", {"kind": "jump_diffusion", "levy": {
        "rate": 1.0, "jump_law": {"kind": "atoms", "atoms": [["0.5", 1.0]]}}}),
     "problem.generator.levy.jump_law.atoms: must be a list of [size, weight] number pairs"),
    (_set("problem", "clock", {"kind": "warp"}),
     "problem.clock.kind: must be one of identity, tabulated (got 'warp')"),
    (_set("problem", "clock", {"kind": "tabulated", "times": [0, 1]}),
     "problem.clock.values: required"),
    (_set("problem", "generator", {"kind": "distributional_drift", "b": {"values": [0, 0, 0]}}),
     "problem.generator.b.x: required"),
    (_set("problem", "generator", {"kind": "jump_diffusion", "levy": {
        "rate": 1.0, "jump_law": {"kind": "atoms", "atoms": [[0.5]]}}}),
     "problem.generator.levy.jump_law.atoms: must be a list of [size, weight] number pairs"),
    (_set("problem", "generator", {"kind": "jump_diffusion", "levy": {
        "rate": 1.0, "jump_law": {"kind": "atoms", "atoms": 0.5}}}),
     "problem.generator.levy.jump_law.atoms: must be a list of [size, weight] number pairs"),
    (_set("grid", "dimension", 0), "grid.dimension: must be >= 1"),
    (_set("mild", "memory_budget_mb", 0), "mild.memory_budget_mb: must be positive"),
    (_set("fbsde", "ridge", -1.0), "fbsde.ridge: must be >= 0 (got -1.0)"),
    (_set("fbsde", "basis", "degree", -1), "fbsde.basis.degree: must be >= 0 (got -1)"),
    (_set("mild", "max_iterations", 0), "mild.max_iterations: must be >= 1 (got 0)"),
    (_set("mild", "v_scheme", "secant"),
     "mild.v_scheme: must be one of variance, volterra (got 'secant')"),
    (_set("problem", "driver", "K_Z", -1), "problem.driver.K_Z: must be >= 0 (got -1)"),
    (_set("problem", "generator", {"kind": "stable", "alpha": 2.5}),
     "problem.generator.alpha: must be in (0, 2] (got 2.5)"),
    (_set("problem", "generator", {"kind": "stable", "alpha": 1.5, "scale": 0}),
     "problem.generator.scale: must be positive (got 0)"),
    (_set("problem", "generator", "mu", "0.1*z"),
     "problem.generator.mu: may not use z (allowed: t, x1)"),
    (_set("problem", "generator", "sigma", "1 + 0*y"),
     "problem.generator.sigma: may not use y (allowed: t, x1)"),
    (_set("problem", "generator", {"kind": "jump_diffusion", "sigma": "1 + y*z", "levy": {
        "rate": 1.0, "jump_law": {"kind": "two_point", "param": 0.5}}}),
     "problem.generator.sigma: may not use y, z (allowed: t, x1)"),
    (_set("problem", "terminal_g", "expr", "x1 + t"),
     "problem.terminal_g.expr: may not use t (allowed: x1)"),
    (_set("problem", "generator", {"kind": "distributional_drift", "b": {"expr": "-x1^2/4 + t"}}),
     "problem.generator.b.expr: may not use t (allowed: x1)"),
    (_set("problem", "generator", {"kind": "distributional_drift", "sigma": "1 + 0.1*t",
                                   "b": {"expr": "-x1^2/4"}}),
     "problem.generator.sigma: may not use t (allowed: x1)"),
    (_set("mild", "tolerence", 1e-9), "mild.tolerence: unknown key"),
    (_set("mild", "damping", 0.5), "mild.damping: unknown key"),
    (_set("problem", "driver", "C_prime", -3), "problem.driver.C_prime: unknown key"),
    (_set("problem", "driver", {"expr": "0.5*y + 1.0*z", "K_Y": 0.5}),
     "problem.driver.K_Z: must be > 0 when the driver reads z (got 0.0)"),
], ids=["top_level", "grid", "clock", "horizon_T", "mild", "memory_budget_mb",
        "fbsde", "basis", "origins", "origin", "operators", "phases", "jump_law",
        "driver_expr", "terminal_expr", "sigma_expr", "K_Y", "K_Z",
        "verify_lipschitz", "tolerance", "tolerance_inf", "ridge", "alpha", "scale",
        "rate", "param", "space_min_strings", "space_max_strings", "space_min_bare",
        "clock_times", "b_bounds", "b_x", "atoms_string", "clock_kind", "clock_values_missing",
        "b_x_missing", "atoms_short", "atoms_bare", "dimension_zero", "memory_budget_zero",
        "ridge_negative", "degree_negative", "max_iterations_zero", "v_scheme_unknown",
        "K_Z_negative", "alpha_above_two", "scale_zero",
        "mu_reads_z", "sigma_reads_y", "jump_sigma_reads_y_z", "terminal_reads_t",
        "drift_b_reads_t", "drift_sigma_reads_t",
        "tolerence_unknown", "damping_unknown", "C_prime_unknown", "K_Z_missing_reads_z"])
def test_run_reports_malformed_sections_in_manifest(tmp_path, edit, line):
    cfg = smoke_config(seed="abc")
    cfg = edit(cfg)
    with pytest.raises(ConfigurationError) as err:
        validate_config(write_config(tmp_path, cfg))
    text = str(err.value)
    other = "problem: required" if isinstance(cfg, list) else "seed: must be an integer"
    assert line in text and other in text
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 1
    assert line in json.loads((out / "manifest.json").read_text())["errors"]["validate"]


def test_unknown_keys_are_reported_once_and_only_where_known(tmp_path):
    # a malformed section's stand-in reports nothing more, and a generator
    # whose kind failed has no known keys to compare its own with
    cfg = smoke_config()
    cfg["mild"]["tolerence"] = 1e-9
    cfg["fbsde"]["basis"] = "polynomial"
    cfg["problem"]["generator"]["kind"] = "brownian"
    with pytest.raises(ConfigurationError) as err:
        validate_config(write_config(tmp_path, cfg))
    assert sorted(line.strip() for line in str(err.value).splitlines()[1:]) == [
        "fbsde.basis: must be an object (got 'polynomial')",
        "mild.tolerence: unknown key",
        "problem.generator.kind: must be one of diffusion, jump_diffusion, stable, "
        "distributional_drift (got 'brownian')",
    ]


SHIPPED_ECHO_DIGESTS = {
    "distributional_drift": "b763ac8e8a377dbf2f5ae3c60a5ac448888b8bb0f44fdc031bf94a76601b4968",
    "fractional_semilinear": "e005f8437a2ae801597f14a80f747b5bfcf19731ae74b0b24d287f392b643596",
    "heat_baseline": "698d4ea795bbda0f9bb10710fd8bf1ecb00b451ca8c9bd8575cfd7c2f1642e24",
}


@pytest.mark.parametrize("name, digest", SHIPPED_ECHO_DIGESTS.items(), ids=SHIPPED_ECHO_DIGESTS)
def test_shipped_config_echo_bytes_are_pinned(name, digest):
    # config.json, and with it config_hash and every CSV header, depends on these bytes
    path = ROOT / "scripts" / "configs" / f"{name}.json"
    echoed = (json.dumps(validate_config(path).normalized, indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(echoed).hexdigest() == digest


STARTUP = """
import json, sys
from pseudopde import cli

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

cli.validate_config(sys.argv[1])
after_validate = scipy_loaded()
code = cli.run(sys.argv[1], out_dir=sys.argv[2])
print(json.dumps([after_validate, code, scipy_loaded()]))
"""


@pytest.mark.parametrize("generator, loads_scipy", [
    ({"kind": "diffusion", "mu": "0", "sigma": "1"}, False),
    ({"kind": "stable", "alpha": 1.5}, False),
    ({"kind": "distributional_drift", "b": {"expr": "-x1^2/4", "nodes": 2001}, "sigma": "1"},
     False),
    ({"kind": "jump_diffusion", "mu": "0", "sigma": "0.5",
      "levy": {"rate": 1.0, "jump_law": {"kind": "gaussian", "param": 0.3}}}, True),
], ids=["diffusion", "stable", "distributional_drift", "jump_gaussian"])
def test_run_imports_scipy_only_where_used(tmp_path, generator, loads_scipy):
    # scipy takes most of a run's start-up; in a run only the gaussian/laplace
    # jump quadrature loads it, on first use
    cfg = smoke_config()
    cfg["problem"]["generator"] = generator
    cfg["problem"]["terminal_g"] = {"expr": "cos(x1)"}
    path, out = write_config(tmp_path, cfg), tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", STARTUP, str(path), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    after_validate, code, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["phases_completed"] == list(
        cli.PHASE_ORDER)
    assert not after_validate
    assert after_run == loads_scipy


def _operator_rows(out):
    lines = (out / "operator_report.csv").read_text().splitlines()[2:]
    return {ln.split(",")[0]: ln.split(",")[1] for ln in lines}


def test_operator_rows_share_one_ensemble(tmp_path, monkeypatch):
    simulated, received = [], []
    real_simulate, real_test = processes.simulate, cli.martingale_test

    def recording_simulate(gen, s, x, grid, M, seed):
        ens = real_simulate(gen, s, x, grid, M, seed)
        simulated.append((seed, ens))
        return ens

    def recording_test(ens, *args):
        received.append(ens)
        return real_test(ens, *args)

    # the Chapman-Kolmogorov test simulates through semigroup's name, not recorded
    monkeypatch.setattr(processes, "simulate", recording_simulate)
    monkeypatch.setattr(operators, "simulate", recording_simulate, raising=False)
    monkeypatch.setattr(cli, "martingale_test", recording_test)
    cfg = smoke_config(phases=["operators"])
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0
    assert [seed for seed, _ in simulated] == [4711]
    assert len(received) == 2 and all(ens is simulated[0][1] for ens in received)
    assert set(_operator_rows(tmp_path / "out")) == {
        "martingale_max_abs_z_fn0", "martingale_max_abs_z_fn1", "chapman_kolmogorov_z"}


def test_operator_fn0_row_matches_a_standalone_test(tmp_path):
    path = write_config(tmp_path, smoke_config(phases=["operators"]))
    assert run(path, out_dir=tmp_path / "out") == 0
    plan = validate_config(path)
    gen, grid = plan.problem.generator, plan.grid
    ens = processes.simulate(gen, grid.times[0], np.zeros(1), grid, plan.operator_paths,
                             plan.seed)
    fn0 = bounded_test_functions(1)[0]
    z = martingale_test(ens, fn0, generator_action(gen)(fn0)).max_abs_z
    assert _operator_rows(tmp_path / "out")["martingale_max_abs_z_fn0"] == cli._fmt(z)


def test_validate_contraction_rule(tmp_path):
    cfg = smoke_config()
    cfg["problem"]["driver"] = {"expr": "2*y", "K_Y": 2.0}
    cfg["grid"]["time_steps"] = 2  # max dV = 0.5, K_Y dV = 1
    with pytest.raises(ConfigurationError, match="K_Y"):
        validate_config(write_config(tmp_path, cfg))


def test_validate_contraction_rule_when_only_mild_runs(tmp_path):
    # the mild sweep solves y = B + f(t, x, y, z) dV at each node as well
    cfg = smoke_config(phases=["cache", "mild"])
    cfg["problem"]["driver"] = {"expr": "2*y", "K_Y": 2.0}
    cfg["grid"]["time_steps"] = 2  # max dV = 0.5, K_Y dV = 1
    with pytest.raises(ConfigurationError, match=r"problem\.driver\.K_Y: K_Y \* max dV = 1 >= 1"):
        validate_config(write_config(tmp_path, cfg))


def _refused_before_any_phase(out, message):
    manifest = json.loads((out / "manifest.json").read_text())
    assert message in manifest["errors"]["validate"]
    assert manifest["exit_code"] == 1 and manifest["phases_completed"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("phases, override", [(["operators"], None), (["cache"], ["operators"])],
                         ids=["config", "override"])
def test_operators_phase_needs_a_grid_time_inside_the_horizon(tmp_path, phases, override):
    # the Chapman-Kolmogorov check restarts at a grid time inside (0, T); with
    # one step there is none, which validation finds before any phase runs
    cfg = smoke_config(phases=phases)
    cfg["grid"]["time_steps"] = 1
    path, out = write_config(tmp_path, cfg), tmp_path / "out"
    assert run(path, out_dir=out, phases_override=override) == 1
    _refused_before_any_phase(
        out, "grid.time_steps: must be >= 2 when the operators phase runs (got 1)")
    if override is None:
        assert main(["validate", str(path)]) == 1
    else:
        validate_config(path)
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--phases", ",".join(override)]) == 1


@pytest.mark.parametrize("override", [["mild"], ["fbsde"], ["crosscheck"]])
def test_contraction_rule_sees_the_phases_override(tmp_path, override):
    # the config runs only the operators phase, where K_Y is not read; the
    # override runs a phase that solves y = c + f(t, x, y, z) dV
    cfg = smoke_config(phases=["operators"])
    cfg["problem"]["driver"] = {"expr": "2*y", "K_Y": 2.0}
    cfg["grid"]["time_steps"] = 2  # max dV = 0.5, K_Y dV = 1
    path, out = write_config(tmp_path, cfg), tmp_path / "out"
    assert validate_config(path).phases == ["operators"]
    assert run(path, out_dir=out, phases_override=override) == 1
    _refused_before_any_phase(out, "problem.driver.K_Y: K_Y * max dV = 1 >= 1")
    # and the other way round: a config whose phases need the rule, run without them
    cfg["phases"] = override
    path = write_config(tmp_path, cfg, "solving.json")
    with pytest.raises(ConfigurationError, match="K_Y"):
        validate_config(path)
    assert validate_config(path, ["operators"]).normalized["phases"] == ["operators"]


def test_validate_stable_needs_dimension_one(tmp_path):
    cfg = smoke_config()
    cfg["problem"]["generator"] = {"kind": "stable", "alpha": 1.5}
    cfg["grid"].update({"dimension": 2, "space_min": [-4, -4], "space_max": [4, 4],
                        "space_nodes": [5, 5]})
    with pytest.raises(ConfigurationError, match="dimension"):
        validate_config(write_config(tmp_path, cfg))


def test_run_produces_expected_artifacts(tmp_path):
    path = write_config(tmp_path, smoke_config())
    out = tmp_path / "out"
    assert run(path, out_dir=out) == 0
    for name in ("u.csv", "v.csv", "deltas.csv", "crosscheck.csv",
                 "operator_report.csv", "manifest.json", "config.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is True
    assert manifest["exit_code"] == 0
    # u(0,0) lands within 3 stderr of the heat value 1.0
    rows = [ln.split(",") for ln in (out / "u.csv").read_text().splitlines()[2:]]
    vals = {(float(r[0]), float(r[1])): (float(r[2]), float(r[3])) for r in rows}
    u00, se = vals[(0.0, 0.0)]
    assert abs(u00 - 1.0) < 3 * se
    # every artifact names the config hash
    for name in ("u.csv", "v.csv", "deltas.csv", "crosscheck.csv", "operator_report.csv"):
        assert (out / name).read_text().splitlines()[0] == f"# config_hash={manifest['config_hash']}"


def test_run_byte_identical_and_thread_invariant(tmp_path):
    path = write_config(tmp_path, smoke_config())
    run(path, out_dir=tmp_path / "a")
    run(path, out_dir=tmp_path / "b")
    run(path, out_dir=tmp_path / "c", threads=4)
    for name in ("u.csv", "v.csv", "deltas.csv", "crosscheck.csv", "operator_report.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert a == (tmp_path / "c" / name).read_bytes()


def test_run_from_emitted_copy_reproduces(tmp_path):
    path = write_config(tmp_path, smoke_config())
    run(path, out_dir=tmp_path / "a", seed_override=99)
    run(tmp_path / "a" / "config.json", out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "u.csv").read_bytes() == (tmp_path / "b" / "u.csv").read_bytes()
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert ma["config_hash"] == mb["config_hash"]
    assert ma["seed"] == 99 and mb["seed"] == 99


def test_phase_selection(tmp_path):
    cfg = smoke_config(phases=["operators"])
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 0
    assert (out / "operator_report.csv").exists()
    assert not (out / "u.csv").exists()


def test_phase_runs_with_the_phases_it_reads(tmp_path):
    # crosscheck reads the mild solution, and mild reads the cache
    out = tmp_path / "out"
    assert run(write_config(tmp_path, smoke_config(phases=["crosscheck"])), out_dir=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["phases_completed"] == ["cache", "mild", "crosscheck"]
    assert manifest["errors"] == {}
    assert (out / "crosscheck.csv").exists() and (out / "u.csv").exists()
    assert json.loads((out / "config.json").read_text())["phases"] == ["crosscheck"]


def test_unknown_phase_override_is_reported(tmp_path):
    # as an unknown phase in the config: under errors.validate, and no phase runs
    out = tmp_path / "out"
    path = write_config(tmp_path, smoke_config())
    assert run(path, out_dir=out, phases_override=["mlid", "cache", "opertors"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    error = manifest["errors"]["validate"]
    assert "--phases: unknown phase 'mlid'" in error
    assert "--phases: unknown phase 'opertors'" in error
    assert manifest["exit_code"] == 1 and manifest["phases_completed"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--phases", "mild,"]) == 1


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_is_reported(tmp_path, threads):
    # as an unknown --phases name: under errors.validate, and no phase runs
    out = tmp_path / "out"
    path = write_config(tmp_path, smoke_config())
    assert run(path, out_dir=out, threads=threads) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert f"--threads: must be >= 1, got {threads}" in manifest["errors"]["validate"]
    assert manifest["exit_code"] == 1 and manifest["phases_completed"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    assert main(["run", str(path), "--out", str(tmp_path / "o"), "--threads", str(threads)]) == 1


def test_two_dimensional_heat_run_matches_closed_form(tmp_path):
    # every phase that reads a field runs on a 2-d grid, so the sweeps and the
    # crosscheck read flat field rows by their corner node indices; with
    # Brownian motion, g = |x|^2 and f = y/2, u = e^{(1-t)/2} (|x|^2 + 2(1-t))
    cfg = smoke_config(phases=["cache", "mild", "fbsde", "crosscheck"])
    cfg["problem"]["driver"] = {"expr": "0.5*y", "K_Y": 0.5, "K_Z": 0.0}
    cfg["problem"]["terminal_g"] = {"expr": "x1^2 + x2^2"}
    cfg["grid"].update({"dimension": 2, "space_min": [-3.0, -3.0], "space_max": [3.0, 3.0],
                        "space_nodes": [11, 9]})
    cfg["mild"]["cache_paths"] = 300
    cfg["fbsde"]["basis"]["degree"] = 2
    cfg["fbsde"]["origins"] = [[0.0, 0.0, 0.0]]
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["phases_completed"] == ["cache", "mild", "fbsde", "crosscheck"]
    lines = (out / "u.csv").read_text().splitlines()
    assert lines[1] == "t,x1,x2,value,stderr"
    t, x1, x2, u, se = np.array([ln.split(",") for ln in lines[2:]], dtype=float).T
    assert t.size == 11 * 11 * 9
    # the benchmark's many-cell rule, on the cells before T in the middle half of the box
    inner = (t < 1.0) & (np.abs(x1) <= 1.5) & (np.abs(x2) <= 1.5)
    exact = np.exp((1.0 - t) / 2.0) * (x1**2 + x2**2 + 2.0 * (1.0 - t))
    z = (u - exact)[inner] / se[inner]
    assert z.size == 10 * 5 * 5
    assert np.sqrt(np.mean(z * z)) <= 1.5 and np.max(np.abs(z)) <= 6.0


def test_heat_run_on_a_quadratic_clock_matches_closed_form(tmp_path):
    # the paths step in dV: under V(t) = t^2 Brownian paths are W_V, so with
    # g = x^2 and f = y/2, u = e^{(V(T)-V(t))/2} (x^2 + V(T) - V(t))
    ts = np.linspace(0.0, 1.0, 201)
    cfg = smoke_config(phases=["cache", "mild"])
    cfg["problem"]["clock"] = {"kind": "tabulated", "times": ts.tolist(),
                               "values": (ts**2).tolist()}
    cfg["problem"]["driver"] = {"expr": "0.5*y", "K_Y": 0.5, "K_Z": 0.0}
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 0
    lines = (out / "u.csv").read_text().splitlines()
    t, x, u, se = np.array([ln.split(",") for ln in lines[2:]], dtype=float).T
    # the benchmark's many-cell rule, on the cells before T in the middle half of the box
    inner = (t < 1.0) & (np.abs(x) <= 2.0)
    left = 1.0 - t**2
    z = (u - np.exp(left / 2.0) * (x**2 + left))[inner] / se[inner]
    assert z.size == 10 * 5
    assert np.sqrt(np.mean(z * z)) <= 1.5 and np.max(np.abs(z)) <= 6.0


def test_run_on_a_clock_flat_on_the_last_step(tmp_path):
    # no step with dV > 0 follows t = 0.9: v is 0 on the last two rows
    cfg = smoke_config(phases=["cache", "mild", "fbsde", "crosscheck"])
    cfg["problem"]["clock"] = {"kind": "tabulated", "times": [0.0, 0.9, 1.0],
                               "values": [0.0, 0.9, 0.9]}
    cfg["problem"]["driver"] = {"expr": "0.5*y", "K_Y": 0.5, "K_Z": 0.0}
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match=r"dV = 0 on steps \[9\]"):
        assert run(write_config(tmp_path, cfg), out_dir=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["phases_completed"] == ["cache", "mild", "fbsde", "crosscheck"]
    lines = (out / "v.csv").read_text().splitlines()
    t, _, v, se = np.array([ln.split(",") for ln in lines[2:]], dtype=float).T
    assert np.all(v[t >= 0.9] == 0.0) and np.all(se[t >= 0.9] == 0.0)
    assert np.any(v[t < 0.9] > 0.0)


def test_cache_is_released_after_the_mild_phase(tmp_path, monkeypatch):
    # no phase after mild reads the cache, so none runs with its memory
    caches, alive = [], []
    build, solve = cli.build_cache, cli.lsmc_solve

    def watched_build(*args, **kwargs):
        cache = build(*args, **kwargs)
        caches.append(weakref.ref(cache))
        return cache

    def watched_solve(*args, **kwargs):
        alive.append(caches[0]() is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "build_cache", watched_build)
    monkeypatch.setattr(cli, "lsmc_solve", watched_solve)
    out = tmp_path / "out"
    assert run(write_config(tmp_path, smoke_config()), out_dir=out) == 0
    assert alive == [False]
    manifest = json.loads((out / "manifest.json").read_text())
    peaks = [manifest["peak_rss_mb"][p] for p in cli.PHASE_ORDER]
    assert 0 < peaks[0] and peaks == sorted(peaks)


@pytest.mark.parametrize("mu, per_set, rows", [("0", 4, 10 + 6 + 2), ("0.1*t", 1, 55)])
def test_manifest_records_the_cache_layout(tmp_path, mu, per_set, rows):
    # 11 grid times: a generator free of t simulates the head rows 0, 4 and 8
    cfg = smoke_config(phases=["cache"])
    cfg["problem"]["generator"]["mu"] = mu
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cache_rows_per_path_set"] == per_set
    assert manifest["cache_stored_rows"] == rows
    assert manifest["cache_memory_bytes"] == rows * 11 * 400 * (8 + 1)


def test_operators_on_a_2d_grid_is_reported(tmp_path):
    # the built-in test functions are 1-d; the run records that and exits 1
    cfg = smoke_config(phases=["operators"])
    cfg["problem"]["terminal_g"] = {"expr": "x1^2 + x2^2"}
    cfg["grid"].update({"dimension": 2, "space_min": [-4, -4], "space_max": [4, 4],
                        "space_nodes": [5, 5]})
    cfg["fbsde"]["origins"] = [[0.0, 0.0, 0.0]]
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert "1-d" in manifest["errors"]["operators"]
    assert manifest["exit_code"] == 1 and manifest["phases_completed"] == []
    assert not (out / "operator_report.csv").exists()


def test_nonconvergence_exit_code(tmp_path):
    cfg = smoke_config()
    # only a z-coupled driver iterates, so only it can run out of iterations
    cfg["problem"]["driver"] = {"expr": "0.5*y + 0.3*z", "K_Y": 0.5, "K_Z": 0.3}
    cfg["mild"].update({"max_iterations": 1, "tolerance": 1e-9})
    cfg["phases"] = ["cache", "mild"]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["converged"] is False


def test_invalid_config_exit_code_and_manifest(tmp_path):
    cfg = smoke_config()
    del cfg["problem"]["terminal_g"]
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), out_dir=out) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert "validate" in manifest["errors"]


def test_main_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip()


def test_main_validate_echoes_normalized(tmp_path, capsys):
    path = write_config(tmp_path, smoke_config())
    assert main(["validate", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["grid"]["space_nodes"] == [11]


def test_main_run_with_flags(tmp_path):
    path = write_config(tmp_path, smoke_config())
    code = main(["run", str(path), "--out", str(tmp_path / "o"), "--phases", "cache,mild",
                 "--seed", "7"])
    assert code == 0
    assert (tmp_path / "o" / "u.csv").exists()
    assert not (tmp_path / "o" / "crosscheck.csv").exists()


def test_distributional_generator_config(tmp_path):
    cfg = smoke_config()
    cfg["problem"]["generator"] = {
        "kind": "distributional_drift",
        "b": {"expr": "-x1^2/4", "nodes": 2001, "bounds": [-4.0, 4.0]},
        "sigma": "1",
    }
    cfg["phases"] = ["cache", "mild"]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0


def test_jump_generator_config(tmp_path):
    cfg = smoke_config()
    cfg["problem"]["generator"] = {
        "kind": "jump_diffusion", "mu": "0", "sigma": "0.5",
        "levy": {"rate": 1.0, "jump_law": {"kind": "two_point", "param": 0.5}},
    }
    cfg["phases"] = ["cache", "mild"]
    assert run(write_config(tmp_path, cfg), out_dir=tmp_path / "out") == 0


def test_seventeen_digit_serialization(tmp_path):
    path = write_config(tmp_path, smoke_config())
    out = tmp_path / "out"
    run(path, out_dir=out)
    line = (out / "u.csv").read_text().splitlines()[2]
    x_field = line.split(",")[1]
    assert x_field == "-4"  # %.17g drops trailing zeros but keeps full precision
    assert float(line.split(",")[2]) == np.float64(line.split(",")[2])
