import json

import numpy as np
import pytest

from pseudopde import cli, operators, processes
from pseudopde.cli import main, run, validate_config
from pseudopde.errors import ConfigurationError
from pseudopde.operators import bounded_test_functions, generator_action, martingale_test


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
    assert "fbsde.basis: unknown basis kind 'piecewise'" in text and "mild:" in text
    # the polynomial basis is echoed as written
    plan = validate_config(write_config(tmp_path, smoke_config()))
    assert plan.normalized["fbsde"]["basis"] == {"kind": "polynomial", "degree": 3}
    assert plan.basis.degree == 3


def test_validate_rejects_off_grid_origin_with_other_errors(tmp_path):
    cfg = smoke_config()
    cfg["fbsde"]["origins"] = [[0.1 + 5e-8, 0.0]]  # 10 steps: 0.1 is a grid time
    cfg["problem"]["driver"]["C_prime"] = -1.0
    with pytest.raises(ConfigurationError) as err:
        validate_config(write_config(tmp_path, cfg))
    text = str(err.value)
    assert "fbsde.origins[0]: time 0.10000005" in text and "not a grid time" in text
    assert "problem.driver: C_prime must be nonnegative" in text
    # C_prime is echoed as a float, 0.0 when absent
    assert validate_config(write_config(tmp_path, smoke_config())).normalized[
        "problem"]["driver"]["C_prime"] == 0.0
    cfg = smoke_config()
    cfg["problem"]["driver"]["C_prime"] = 2
    echoed = validate_config(write_config(tmp_path, cfg)).normalized["problem"]["driver"]
    assert echoed["C_prime"] == 2.0 and isinstance(echoed["C_prime"], float)


def test_validate_rejects_path_and_function_counts_with_other_errors(tmp_path):
    for functions in (-1, 0, 6, 9):
        cfg = smoke_config()
        cfg["fbsde"]["paths"] = 0
        cfg["operators"] = {"martingale_paths": 0, "test_functions": functions}
        cfg["mild"]["tolerance"] = -1.0
        with pytest.raises(ConfigurationError) as err:
            validate_config(write_config(tmp_path, cfg))
        text = str(err.value)
        assert "fbsde.paths: must be >= 1" in text and "mild:" in text
        assert "operators.martingale_paths: must be >= 1" in text
        assert "operators.test_functions: must be in 1..5" in text
    for functions in (1, 5):
        cfg = smoke_config()
        cfg["operators"]["test_functions"] = functions
        plan = validate_config(write_config(tmp_path, cfg))
        assert plan.normalized["operators"] == {"martingale_paths": 3000, "test_functions": functions}


def _operator_rows(out):
    lines = (out / "operator_report.csv").read_text().splitlines()[2:]
    return {ln.split(",")[0]: ln.split(",")[1] for ln in lines}


def test_operator_rows_share_one_ensemble(tmp_path, monkeypatch):
    simulated, received = [], []
    real_simulate, real_test = processes.simulate, cli.martingale_test

    def recording_simulate(gen, s, x, grid, M, seed, clock=None):
        ens = real_simulate(gen, s, x, grid, M, seed, clock)
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
                             plan.seed, plan.problem.clock)
    fn0 = bounded_test_functions(1)[0]
    z = martingale_test(ens, fn0, generator_action(gen)(fn0)).max_abs_z
    assert _operator_rows(tmp_path / "out")["martingale_max_abs_z_fn0"] == cli._fmt(z)


def test_validate_contraction_rule(tmp_path):
    cfg = smoke_config()
    cfg["problem"]["driver"] = {"expr": "2*y", "K_Y": 2.0}
    cfg["grid"]["time_steps"] = 2  # max dV = 0.5, K_Y dV = 1
    with pytest.raises(ConfigurationError, match="K_Y"):
        validate_config(write_config(tmp_path, cfg))


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


def test_nonconvergence_exit_code(tmp_path):
    cfg = smoke_config()
    cfg["problem"]["driver"] = {"expr": "0.5*y", "K_Y": 0.5}
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
