import json
import math
import subprocess
import sys

import pytest
import yaml

from scerm import ConfigError
from scerm.cli import main
from scerm.config import parse_config


MINIMAL_DIAGNOSE = {
    "command": "diagnose",
    "seed": 3,
    "population": {"generator": "source", "d": 8, "r": 0.5, "alpha": 2.0, "seed": 1},
    "diagnose": {"log2_min": 1, "log2_max": 8},
}


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


# -- parsing -----------------------------------------------------------------------


def test_parse_minimal_diagnose():
    cfg = parse_config(MINIMAL_DIAGNOSE)
    assert cfg.command == "diagnose"
    assert cfg.population.generator == "source"
    assert cfg.diagnose.log2_max == 8


def test_parse_rejects_bad_delta():
    doc = {
        "command": "rates",
        "population": {"generator": "source", "d": 8, "r": 0.5, "alpha": 2.0},
        "rates": {"regime": "none", "n_grid": [64, 128], "replicates": 2, "delta": 0.7},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any("delta must lie in (0, 0.5]" in msg for _, msg in err.value.errors)
    assert any(path == "rates.delta" for path, _ in err.value.errors)


def test_parse_rejects_bad_source_r():
    doc = {
        "command": "diagnose",
        "population": {"generator": "source", "d": 8, "r": 0.8, "alpha": 2.0},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any("source condition range" in msg for _, msg in err.value.errors)


def test_parse_rejects_unknown_keys():
    doc = dict(MINIMAL_DIAGNOSE)
    doc["mystery"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any(path == "mystery" and msg == "unknown key" for path, msg in err.value.errors)


def test_parse_rejects_unknown_nested_key():
    doc = {
        "command": "diagnose",
        "population": {"generator": "source", "d": 8, "r": 0.5, "alpha": 2.0, "noise": 3},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any(path == "population.noise" for path, _ in err.value.errors)


def test_parse_inline_population():
    doc = {
        "command": "solve",
        "population": {
            "generator": "inline",
            "loss": {"kind": "logistic"},
            "atoms": [
                {"features": [1.0], "label": 1, "weight": 0.75},
                {"features": [1.0], "label": -1, "weight": 0.25},
            ],
        },
        "solve": {"lambda": 0.1},
    }
    cfg = parse_config(doc)
    assert cfg.population.loss_kind == "logistic"
    assert len(cfg.population.atoms) == 2


def test_parse_collects_multiple_errors():
    doc = {
        "command": "rates",
        "population": {"generator": "source", "d": 8, "r": 0.9, "alpha": 0.2},
        "rates": {"regime": "none", "n_grid": [64, 32], "replicates": 0, "delta": 0.9},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    paths = {path for path, _ in err.value.errors}
    assert {"population.r", "population.alpha", "rates.n_grid", "rates.replicates",
            "rates.delta"} <= paths


# -- end-to-end commands -------------------------------------------------------------


def test_invalid_config_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, {"command": "diagnose"})
    out = tmp_path / "out"
    code = main(["--config", cfg_path, "--out", str(out)])
    assert code == 2
    assert not out.exists() or not list(out.iterdir())


def test_missing_config_file_exits_2(tmp_path):
    assert main(["--config", str(tmp_path / "nope.yaml")]) == 2


def test_diagnose_end_to_end(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, MINIMAL_DIAGNOSE)
    out = tmp_path / "out"
    code = main(["--config", cfg_path, "--out", str(out)])
    assert code == 0
    csv_text = (out / "diagnostics.csv").read_text()
    assert csv_text.startswith("# scerm report\n# config_digest: ")
    assert "# seed: 3" in csv_text
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "diagnose"
    assert "fitted_r" in summary


def test_solve_end_to_end_and_byte_identical_rerun(tmp_path):
    doc = {
        "command": "solve",
        "seed": 11,
        "population": {
            "generator": "inline",
            "loss": {"kind": "square"},
            "atoms": [
                {"features": [1.0], "label": 0.0, "weight": 0.5},
                {"features": [1.0], "label": 2.0, "weight": 0.5},
            ],
        },
        "solve": {"lambda": 1.0},
    }
    cfg_path = write_cfg(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "solve.csv").read_bytes() == (out2 / "solve.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["converged"] is True
    # theta*_1 = 0.5 for the ridge-regularized two-atom population
    theta_line = (out1 / "solve.csv").read_text().strip().splitlines()[-1]
    assert abs(float(theta_line.split(",")[1]) - 0.5) < 1e-9


def test_rates_end_to_end(tmp_path):
    doc = {
        "command": "rates",
        "seed": 4,
        "population": {"generator": "source", "d": 8, "r": 0.5, "alpha": 2.0, "seed": 1},
        "rates": {
            "regime": "source_capacity",
            "n_grid": [32, 64, 128],
            "replicates": 3,
            "delta": 0.25,
            "lambda": {"mode": "anchored", "anchor": 0.2, "n_anchor": 32},
        },
    }
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "rates.csv").read_text().strip().splitlines()
    assert lines[3] == "n,replicate,lambda,excess_risk,bound_rhs,guard_ok,seed"
    assert len(lines) == 4 + 9
    summary = json.loads((out / "summary.json").read_text())
    assert summary["regime"] == "source_capacity"
    assert summary["theoretical_exponent"] == pytest.approx(0.8)


def test_rates_seed_override_changes_digest_and_cells(tmp_path):
    doc = {
        "command": "rates",
        "seed": 4,
        "population": {"generator": "source", "d": 6, "r": 0.5, "alpha": 2.0, "seed": 1},
        "rates": {
            "regime": "source_capacity",
            "n_grid": [32, 64],
            "replicates": 2,
            "delta": 0.25,
            "lambda": {"mode": "anchored", "anchor": 0.2, "n_anchor": 32},
        },
    }
    cfg_path = write_cfg(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["--config", cfg_path, "--seed", "99", "--out", str(out2)]) == 0
    assert (out1 / "rates.csv").read_bytes() != (out2 / "rates.csv").read_bytes()


def test_verify_command(tmp_path):
    doc = {"command": "verify", "seed": 2, "verify": {"trials_per_case": 5}}
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "verify.csv").read_text().strip().splitlines()
    assert lines[3] == "loss_kind,check,trials,violations,worst_margin"
    assert len(lines) == 4 + 20


def test_population_round_trips_through_config():
    from scerm.config import build_population, parse_config, population_to_config
    from scerm.population import make_source_population

    pop = make_source_population(d=4, r=0.5, alpha=2.0, seed=8)
    doc = {
        "command": "solve",
        "population": population_to_config(pop),
        "solve": {"lambda": 0.5},
    }
    cfg = parse_config(doc)
    rebuilt = build_population(cfg.population)
    import numpy as np

    np.testing.assert_array_equal(rebuilt.weights, pop.weights)
    np.testing.assert_array_equal(rebuilt.sample_set.features, pop.sample_set.features)
    np.testing.assert_array_equal(rebuilt.sample_set.labels, pop.sample_set.labels)


def test_concentration_command_auto_n(tmp_path):
    doc = {
        "command": "concentration",
        "seed": 6,
        "population": {"generator": "logistic", "d": 4, "alpha": 1.0, "seed": 2},
        "concentration": {"kind": "hessian", "lambda": 0.5, "replicates": 30, "delta": 0.1},
    }
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["premise_ok"] is True
    assert summary["frequency"] >= summary["threshold"]


def test_concentration_gradient_command(tmp_path):
    doc = {
        "command": "concentration",
        "seed": 6,
        "population": {
            "generator": "inline",
            "loss": {"kind": "square"},
            "atoms": [
                {"features": [1.0], "label": 0.0, "weight": 0.5},
                {"features": [1.0], "label": 2.0, "weight": 0.5},
            ],
        },
        "concentration": {"kind": "gradient", "lambda": 0.25, "replicates": 40,
                          "delta": 0.1, "k": 4},
    }
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "gradient"
    assert summary["premise_ok"] is True


def test_rates_tolerance_failure_exits_1(tmp_path):
    # an absurd tolerance on a noisy tiny run forces exit code 1
    doc = {
        "command": "rates",
        "seed": 4,
        "population": {"generator": "source", "d": 6, "r": 0.5, "alpha": 2.0, "seed": 1},
        "rates": {
            "regime": "source_capacity",
            "n_grid": [16, 32],
            "replicates": 1,
            "delta": 0.25,
            "tolerance": 1e-9,
            "lambda": {"mode": "anchored", "anchor": 0.3, "n_anchor": 16},
        },
    }
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["--config", cfg_path, "--out", str(tmp_path / "out")]) == 1


def test_jobs_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SCERM_JOBS", "2")
    doc = {
        "command": "rates",
        "seed": 4,
        "population": {"generator": "source", "d": 6, "r": 0.5, "alpha": 2.0, "seed": 1},
        "rates": {
            "regime": "source_capacity",
            "n_grid": [32],
            "replicates": 2,
            "delta": 0.25,
            "lambda": {"mode": "explicit", "values": [0.2]},
        },
    }
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "rates.csv").exists()


# H(theta*) = diag(5/2, 0): theta* is not unique and the lambda = 0 solve fails
SINGULAR_POPULATION = {
    "generator": "inline",
    "loss": {"kind": "square"},
    "atoms": [
        {"features": [1.0, 0.0], "label": 1.0, "weight": 0.5},
        {"features": [2.0, 0.0], "label": 0.0, "weight": 0.5},
    ],
}


# separable logistic data: the risk decreases toward 0 as theta -> inf, so no
# minimizer exists although the lambda = 0 decrement vanishes
SEPARABLE_POPULATION = {
    "generator": "inline",
    "loss": {"kind": "logistic"},
    "atoms": [
        {"features": [1.0], "label": 1.0, "weight": 0.5},
        {"features": [-1.0], "label": -1.0, "weight": 0.5},
    ],
}


@pytest.mark.parametrize("population, command, spec", [
    pytest.param(SINGULAR_POPULATION, "solve", {"lambda": 0.1, "max_iter": 1}, id="solve-spec0"),
    pytest.param(SINGULAR_POPULATION, "diagnose", {}, id="diagnose-spec1"),
    pytest.param(SINGULAR_POPULATION, "rates",
                 {"regime": "none", "n_grid": [16, 32], "replicates": 1, "delta": 0.1},
                 id="rates-spec2"),
    pytest.param(SINGULAR_POPULATION, "verify", {"trials_per_case": 1, "localization_trials": 1},
                 id="verify-spec3"),
    pytest.param(SEPARABLE_POPULATION, "diagnose", {}, id="separable-diagnose"),
    pytest.param(SEPARABLE_POPULATION, "rates",
                 {"regime": "none", "n_grid": [16, 32, 64], "replicates": 1, "delta": 0.1},
                 id="separable-rates"),
    pytest.param(SEPARABLE_POPULATION, "verify",
                 {"trials_per_case": 1, "localization_trials": 1}, id="separable-verify"),
])
def test_nonconvergence_exits_1_with_one_line_error(tmp_path, population, command, spec):
    doc = {"command": command, "population": population, command: spec}
    cfg_path = write_cfg(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "scerm.cli", "--config", cfg_path,
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    out = tmp_path / "out"
    assert not list(out.glob("*.csv")) and not (out / "summary.json").exists()


def test_diagnose_log2_max_zero_gives_one_grid_point(tmp_path):
    doc = dict(MINIMAL_DIAGNOSE, diagnose={"log2_min": 0, "log2_max": 0})
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["n_grid_points"] == 1


def _inline(atoms, loss=None):
    return {"generator": "inline", "loss": loss or {"kind": "square"},
            "atoms": [{"features": f, "label": 0.0, "weight": 0.5} for f in atoms]}


SOLVE = {"command": "solve", "population": SINGULAR_POPULATION, "solve": {"lambda": 0.1}}


@pytest.mark.parametrize("doc, argv, path", [
    pytest.param(dict(SOLVE, solve={"lambda": math.inf}), [], "solve.lambda", id="inf-lambda"),
    pytest.param(dict(SOLVE, solve={"lambda": 10**400}), [], "solve.lambda",
                 id="lambda-too-large-for-a-float"),
    pytest.param(dict(MINIMAL_DIAGNOSE, diagnose={"lambda_grid": [math.nan, 0.1]}), [],
                 "diagnose.lambda_grid", id="nan-in-lambda-grid"),
    pytest.param(dict(SOLVE, population=_inline([[[1.0, 2.0], [1.0]], [[1.0]]])), [],
                 "population.atoms[0]", id="ragged-features"),
    pytest.param(dict(SOLVE, population=_inline([[1.0], ["x"]])), [],
                 "population.atoms[1]", id="string-in-features"),
    pytest.param(dict(SOLVE, population=_inline([[1.0, 0.0], [1.0]])), [],
                 "population.atoms", id="atoms-disagree-on-dimension"),
    pytest.param(dict(SOLVE, population=_inline(
        [[[1.0, 0.0], [0.0, 1.0]]], {"kind": "softmax_glm", "base_measure": [1, "x"]})), [],
                 "population.loss.base_measure", id="string-in-base-measure"),
    pytest.param(dict(MINIMAL_DIAGNOSE, population=dict(MINIMAL_DIAGNOSE["population"], seed=-1)),
                 [], "population.seed", id="negative-population-seed"),
    pytest.param(dict(MINIMAL_DIAGNOSE, seed=-3), [], "seed", id="negative-seed"),
    pytest.param(MINIMAL_DIAGNOSE, ["--seed", "-1"], None, id="negative-seed-flag"),
    pytest.param(MINIMAL_DIAGNOSE, {"SCERM_JOBS": "abc"}, None, id="non-integer-jobs-env"),
    pytest.param("command: [solve\n", [], None, id="yaml-syntax-error"),
    pytest.param(None, [], None, id="config-is-a-directory"),
])
def test_malformed_input_exits_2_with_error_line(tmp_path, capsys, monkeypatch, doc, argv, path):
    if isinstance(argv, dict):  # environment variables instead of flags
        for name, value in argv.items():
            monkeypatch.setenv(name, value)
        argv = []
    if doc is None:
        cfg_path = str(tmp_path)
    elif isinstance(doc, str):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(doc)
    else:
        cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "--quiet", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if path is not None:
        assert f"  {path}: " in err
    assert not list(out.glob("*.csv")) and not (out / "summary.json").exists()
