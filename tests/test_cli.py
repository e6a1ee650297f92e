import inspect
import json
import math
import os
import stat
import subprocess
import sys

import pytest
import yaml

import scerm.cli
from scerm import ConfigError, SolverConfig
from scerm.cli import main
from scerm.config import _GENERATORS, _POPULATIONS, build_population, load_config_file, parse_config
from scerm.population import pointwise_bounds
from scerm.rates import RateParams, lambda_schedule
from scerm.verify import LocalizationRecord


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
    assert cfg["command"] == "diagnose"
    assert cfg["population"]["generator"] == "source"
    assert cfg["diagnose"]["log2_max"] == 8


def test_parse_fills_table_defaults():
    pop = {"generator": "logistic", "d": 4}
    sections = {
        "solve": {"lambda": 0.1},
        "diagnose": None,
        "verify": None,
        "rates": {"regime": "none", "n_grid": [8, 16], "replicates": 1, "delta": 0.1},
        "concentration": {"kind": "hessian", "lambda": 0.1, "replicates": 1, "delta": 0.1},
    }
    cfgs = {}
    for command, section in sections.items():
        doc = {"command": command, "population": pop}
        if section is not None:
            doc[command] = section
        cfgs[command] = cfg = parse_config(doc)
        assert cfg["seed"] == 0
        assert cfg["population"] == {"generator": "logistic", "d": 4, "seed": 0, "alpha": 1.0}
    assert cfgs["solve"]["solve"] == {
        "lambda": 0.1, "tol": SolverConfig().tol, "max_iter": SolverConfig().max_iter}
    assert cfgs["diagnose"]["diagnose"] == {"lambda_grid": None, "log2_min": 0, "log2_max": 16}
    assert cfgs["verify"]["verify"] == {"trials_per_case": 650, "localization_trials": 50}
    rates = cfgs["rates"]["rates"]
    assert (rates["lambda"], rates["tolerance"]) == ({"mode": "corollary"}, None)
    concentration = cfgs["concentration"]["concentration"]
    assert (concentration["n"], concentration["k"]) == (None, 4.0)
    source = parse_config(MINIMAL_DIAGNOSE | {"population": {
        "generator": "source", "d": 8, "r": 0.5, "alpha": 2.0}})["population"]
    assert source["seed"] == 0


def test_generator_tables_are_constructor_parameters():
    # build_population passes a generator's checked keys as its keyword arguments
    assert set(_GENERATORS) == set(_POPULATIONS) - {"inline"}
    for generator, constructor in _GENERATORS.items():
        assert set(_POPULATIONS[generator]) == set(inspect.signature(constructor).parameters)


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


@pytest.mark.parametrize("d", [0, 18])
def test_parse_rejects_logistic_d_outside_the_generators_domain(d):
    doc = {"command": "diagnose", "population": {"generator": "logistic", "d": d}}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.errors == [
        ("population.d", "d must lie in [1, 17] (the margin equation needs d <= 17)")]
    # the edges of the domain pass
    for edge in (1, 17):
        assert parse_config(dict(doc, population={"generator": "logistic", "d": edge}))


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
    assert cfg["population"]["loss"]["kind"] == "logistic"
    assert len(cfg["population"]["atoms"]) == 2


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


def test_yaml_exponent_floats_parse_as_numbers(tmp_path):
    # YAML 1.1 reads 1e-3 as a string; the YAML 1.2 float forms are numbers here
    text = (
        "command: rates\n"
        "population: {generator: source, d: 8, r: 0.5, alpha: 2.0}\n"
        "solve: {lambda: 1e-3}\n"
        "rates: {regime: source, n_grid: [16, 32], replicates: 2, delta: 0.1, tolerance: 5E-2,\n"
        "        lambda: {mode: anchored, anchor: 6e-2, n_anchor: 16}}\n"
    )
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    for cfg in (parse_config(text), load_config_file(str(path))[0]):
        assert (cfg["solve"]["lambda"], cfg["rates"]["tolerance"],
                cfg["rates"]["lambda"]["anchor"]) == (1e-3, 5e-2, 6e-2)
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("1e-3", ".inf"))
    assert [path for path, _ in err.value.errors] == ["solve.lambda"]


# -- end-to-end commands -------------------------------------------------------------


def test_invalid_config_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, {"command": "diagnose"})
    out = tmp_path / "out"
    code = main(["--config", cfg_path, "--out", str(out)])
    assert code == 2
    assert not out.exists()


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


TWO_ATOM_SOLVE = {
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


def test_solve_end_to_end_and_byte_identical_rerun(tmp_path):
    cfg_path = write_cfg(tmp_path, TWO_ATOM_SOLVE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "solve.csv").read_bytes() == (out2 / "solve.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["final_decrement"] <= SolverConfig.tol
    # theta*_1 = 0.5 for the ridge-regularized two-atom population
    theta_line = (out1 / "solve.csv").read_text().strip().splitlines()[-1]
    assert abs(float(theta_line.split(",")[1]) - 0.5) < 1e-9


def test_inline_weights_are_renormalized(tmp_path):
    population = {**TWO_ATOM_SOLVE["population"], "atoms": [
        dict(atom, weight=2) for atom in TWO_ATOM_SOLVE["population"]["atoms"]]}
    doc = dict(TWO_ATOM_SOLVE, population=population)
    assert build_population(parse_config(doc)["population"]).weights.tolist() == [0.5, 0.5]
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0


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


@pytest.mark.parametrize("regime", ["none", "source_capacity"])
def test_rates_corollary_lambdas_end_to_end(tmp_path, regime):
    # no rates.lambda: the corollary's schedule, clamped to B2*, picks every lambda
    doc = {
        "command": "rates",
        "seed": 2,
        "population": {"generator": "source", "d": 8, "r": 0.5, "alpha": 2.0, "seed": 1},
        "rates": {"regime": regime, "n_grid": [32, 64, 128], "replicates": 2, "delta": 0.25},
    }
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    lambdas = json.loads((out / "summary.json").read_text())["lambdas"]
    pop = build_population(parse_config(doc)["population"])
    params = RateParams.of(pop, 0.25)
    assert lambdas == [lambda_schedule(regime, n, params).value for n in (32, 64, 128)]
    _, b2_star = pointwise_bounds(pop)
    assert all(0 < lam <= b2_star for lam in lambdas)


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


def test_verify_localization_trials(tmp_path, capsys, monkeypatch):
    doc = {"command": "verify", "seed": 2,
           "population": {"generator": "source", "d": 6, "r": 0.5, "alpha": 2.0, "seed": 1},
           "verify": {"trials_per_case": 2, "localization_trials": 5}}
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    assert "-> PASS" in capsys.readouterr().out
    assert json.loads((out / "summary.json").read_text())["localization_failures"] == 0

    def violated(*args, **kwargs):
        return LocalizationRecord(antecedent=True, consequent=False, gradient_norm=0.0,
                                  radius=1.0, seminorm=1.0, empirical=False)

    monkeypatch.setattr(scerm.cli, "check_localization", violated)
    out = tmp_path / "fail"
    assert main(["--config", cfg_path, "--out", str(out)]) == 1
    assert "-> FAIL" in capsys.readouterr().out
    assert (out / "verify.csv").exists()
    assert json.loads((out / "summary.json").read_text())["localization_failures"] == 5


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


def test_rates_output_bytes_do_not_depend_on_jobs(tmp_path):
    # a pool task is one whole n row, solved as one batch whatever --jobs is
    doc = {
        "command": "rates",
        "seed": 9,
        "population": {"generator": "logistic", "d": 4, "alpha": 1.0, "seed": 2},
        "rates": {"regime": "none", "n_grid": [32, 64, 128], "replicates": 5, "delta": 0.1,
                  "lambda": {"mode": "anchored", "anchor": 0.2, "n_anchor": 32}},
    }
    cfg_path = write_cfg(tmp_path, doc)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["--config", cfg_path, "--out", str(out), "--jobs", jobs, "--quiet"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == ["rates.csv", "summary.json"]
    assert outputs[0] == outputs[1]


def _overflow(kind, feature, label0, label1):
    """A one-dimensional inline population whose sums overflow at theta = 0."""
    return {"generator": "inline", "loss": {"kind": kind},
            "atoms": [{"features": [feature], "label": label0, "weight": 0.75},
                      {"features": [feature], "label": label1, "weight": 0.25}]}


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
    # the Hessian overflows to inf, which dpotrf factors without complaint
    *[pytest.param(_overflow(kind, 1.0e200, 1, -1), "solve", {"lambda": 1.0},
                   id=f"overflowing-hessian-{kind}")
      for kind in ("logistic", "square", "huber_sqrt")],
    pytest.param(_overflow("square", 1.0e10, 1.0e300, -1.0e300), "solve", {"lambda": 1.0},
                 id="overflowing-gradient"),
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
    assert not (tmp_path / "out").exists()


def test_logistic_population_takes_the_generators_domain(tmp_path):
    # make_logistic_population accepts 1 <= d <= 17 and alpha >= 0
    doc = {"command": "diagnose", "population": {"generator": "logistic", "d": 1, "alpha": 0.5}}
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["n_grid_points"] > 0


def test_diagnose_log2_max_zero_gives_one_grid_point(tmp_path):
    doc = dict(MINIMAL_DIAGNOSE, diagnose={"log2_min": 0, "log2_max": 0})
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["n_grid_points"] == 1


def test_diagnose_repeated_lambda_grid_runs_without_fits(tmp_path):
    # 3 grid points but 2 distinct lambdas: too few for an exponent fit
    doc = dict(MINIMAL_DIAGNOSE, diagnose={"lambda_grid": [0.1, 0.1, 0.05]})
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_grid_points"] == 3
    assert not [key for key in summary if key.startswith("fitted_")]


def _inline(atoms, loss=None):
    return {"generator": "inline", "loss": loss or {"kind": "square"},
            "atoms": [{"features": f, "label": 0.0, "weight": 0.5} for f in atoms]}


SOLVE = {"command": "solve", "population": SINGULAR_POPULATION, "solve": {"lambda": 0.1}}

# every label is 0, so theta* = 0 and B1 over the ball is 0: the corollary's lambda is 0
DEGENERATE_RATES = {
    "command": "rates",
    "population": {"generator": "inline", "loss": {"kind": "square"},
                   "atoms": [{"features": [1.0], "label": 0.0, "weight": 0.5},
                             {"features": [2.0], "label": 0.0, "weight": 0.5}]},
    "rates": {"regime": "none", "n_grid": [16, 32, 64], "replicates": 2, "delta": 0.1},
}


CONCENTRATION = {
    "command": "concentration",
    "population": {"generator": "source", "d": 4, "r": 0.5, "alpha": 2.0},
    "concentration": {"kind": "hessian", "lambda": 0.1, "replicates": 2, "delta": 0.1},
}


# an inline solve config whose one atom has the given YAML features
INLINE_SOLVE_YAML = ("command: solve\nsolve: {{lambda: 0.1}}\npopulation: {{generator: inline, "
                     "loss: {{kind: square}}, atoms: [{{features: {features}, label: 1.0, "
                     "weight: 1.0}}]}}\n")


def at(path):
    """The error-list line of a config violation at a dotted path."""
    return f"  {path}: "


@pytest.mark.parametrize("doc, argv, expect", [
    pytest.param(dict(SOLVE, solve={"lambda": math.inf}), [], at("solve.lambda"),
                 id="inf-lambda"),
    pytest.param(dict(SOLVE, solve={"lambda": 10**400}), [], at("solve.lambda"),
                 id="lambda-too-large-for-a-float"),
    pytest.param(dict(MINIMAL_DIAGNOSE, diagnose={"lambda_grid": [math.nan, 0.1]}), [],
                 at("diagnose.lambda_grid"), id="nan-in-lambda-grid"),
    pytest.param(dict(SOLVE, population=_inline([[[1.0, 2.0], [1.0]], [[1.0]]])), [],
                 at("population.atoms[0]"), id="ragged-features"),
    pytest.param(dict(SOLVE, population=_inline([[1.0], ["x"]])), [],
                 at("population.atoms[1]"), id="string-in-features"),
    pytest.param(dict(SOLVE, population=_inline([[1.0, 0.0], [1.0]])), [],
                 at("population.atoms"), id="atoms-disagree-on-dimension"),
    pytest.param(dict(SOLVE, population=_inline(
        [[[1.0, 0.0], [0.0, 1.0]]], {"kind": "softmax_glm", "base_measure": [1, "x"]})), [],
                 at("population.loss.base_measure"), id="string-in-base-measure"),
    pytest.param(dict(MINIMAL_DIAGNOSE, population=dict(MINIMAL_DIAGNOSE["population"], seed=-1)),
                 [], at("population.seed"), id="negative-population-seed"),
    pytest.param(dict(MINIMAL_DIAGNOSE, seed=-3), [], at("seed"), id="negative-seed"),
    pytest.param(MINIMAL_DIAGNOSE, ["--seed", "-1"], None, id="negative-seed-flag"),
    pytest.param(MINIMAL_DIAGNOSE, {"SCERM_JOBS": "abc"}, None, id="non-integer-jobs-env"),
    pytest.param(MINIMAL_DIAGNOSE, ["--jobs", "0"],
                 "error: --jobs must be a positive integer, got 0\n", id="zero-jobs"),
    pytest.param(MINIMAL_DIAGNOSE, {"SCERM_JOBS": "-4"},
                 "error: $SCERM_JOBS must be a positive integer, got -4\n",
                 id="negative-jobs-env"),
    pytest.param("command: [solve\n", [], None, id="yaml-syntax-error"),
    pytest.param(None, [], None, id="config-is-a-directory"),
    pytest.param(DEGENERATE_RATES, [],
                 "error: the corollary's lambda is 0.0 because B1 over the ball is 0; "
                 "set rates.lambda.mode: anchored|explicit\n", id="zero-corollary-lambda"),
    pytest.param(dict(DEGENERATE_RATES, rates={
        **DEGENERATE_RATES["rates"], "lambda": {"mode": "explicit", "values": [0.1, 0.05]}}),
                 [], at("rates.lambda.values") + "must have one value per n_grid entry",
                 id="one-lambda-short"),
    pytest.param(dict(MINIMAL_DIAGNOSE, diagnose={"log2_min": 5, "log2_max": 4}), [],
                 at("diagnose.log2_max") + "must be >= log2_min", id="log2-max-below-min"),
    # B2* = 4e-6 lies below 2^-16, so the default grid is empty
    pytest.param({"command": "diagnose", "population": {
        "generator": "inline", "loss": {"kind": "square"},
        "atoms": [{"features": [0.001], "label": 1.0, "weight": 0.5},
                  {"features": [0.002], "label": 0.0, "weight": 0.5}]}}, [],
                 at("diagnose.log2_max") + "no lambda = 2^-k with k in [0, 16] is at most "
                 "B2* = 4e-06", id="empty-default-lambda-grid"),
    pytest.param("", [], at("document") + "expected a mapping, got an empty document",
                 id="empty-document"),
    pytest.param("just a string", [], at("document") + "expected a mapping, got str",
                 id="string-document"),
    pytest.param("[1, 2]", [], at("document") + "expected a mapping, got list",
                 id="list-document"),
    pytest.param(dict(SOLVE, solve=[0.1]), [], at("solve") + "expected a mapping, got list",
                 id="section-not-a-mapping"),
    pytest.param(dict(DEGENERATE_RATES, rates={
        key: val for key, val in DEGENERATE_RATES["rates"].items() if key != "delta"}), [],
                 at("rates.delta") + "missing required key", id="missing-delta"),
    pytest.param(dict(MINIMAL_DIAGNOSE, population={"generator": "bogus"}), [],
                 at("population.generator") + "must be one of ['inline', 'logistic', 'source']",
                 id="unknown-generator"),
    pytest.param(dict(MINIMAL_DIAGNOSE, population={"generator": 3}), [],
                 at("population.generator") + "expected a string, got int",
                 id="generator-not-a-string"),
    pytest.param(dict(MINIMAL_DIAGNOSE, population=dict(MINIMAL_DIAGNOSE["population"],
                                                        d="eight")), [],
                 at("population.d") + "expected a number, got str", id="string-dimension"),
    pytest.param(dict(MINIMAL_DIAGNOSE, population=dict(MINIMAL_DIAGNOSE["population"], d=8.5)),
                 [], at("population.d") + "expected an integer", id="fractional-dimension"),
    pytest.param(dict(DEGENERATE_RATES, rates=dict(DEGENERATE_RATES["rates"], n_grid=[])), [],
                 at("rates.n_grid") + "must be strictly increasing positive integers, "
                 "each <= 9223372036854775807",
                 id="empty-n-grid"),
    pytest.param(dict(SOLVE, population=_inline([])), [],
                 at("population.atoms") + "inline population needs a nonempty atoms list",
                 id="empty-atoms"),
    pytest.param(dict(DEGENERATE_RATES, rates=dict(DEGENERATE_RATES["rates"],
                                                   **{"lambda": {"mode": "magic"}})), [],
                 at("rates.lambda.mode") + "must be one of ['anchored', 'corollary', 'explicit']",
                 id="unknown-lambda-mode"),
    pytest.param(dict(SOLVE, population=dict(_inline([[1.0]]), atoms=[[1.0, 0.0, 0.5]])), [],
                 at("population.atoms[0]") + "expected a mapping, got list",
                 id="atom-not-a-mapping"),
    pytest.param(dict(DEGENERATE_RATES, rates=dict(DEGENERATE_RATES["rates"], burn_in=1)), [],
                 at("rates.burn_in") + "unknown key", id="removed-burn-in"),
    pytest.param(b"command: verify\n# \xff\n", [], "error: config file is not UTF-8 text: ",
                 id="config-not-utf-8"),
    pytest.param("command: solve\nsolve: {lambda: 0.1}\npopulation: {generator: inline, "
                 "loss: {kind: square}, atoms: [{features: &f [1.0, *f], label: 1.0, "
                 "weight: 1.0}]}\n", [],
                 at("population.atoms[0].features[1]") + "a YAML alias makes this value "
                 "contain itself", id="yaml-alias-cycle"),
    pytest.param(dict(MINIMAL_DIAGNOSE, population={"generator": "logistic", "d": 2,
                                                    "alpha": -0.5}), [],
                 at("population.alpha") + "alpha must be nonnegative",
                 id="negative-logistic-alpha"),
    pytest.param(dict(DEGENERATE_RATES, population={"generator": "logistic", "d": 2},
                      rates=dict(DEGENERATE_RATES["rates"], regime="source")), [],
                 at("rates.regime") + "the corollary's lambda needs the population's r, which "
                 "it does not define; set rates.lambda.mode: anchored|explicit",
                 id="corollary-lambda-without-r"),
    pytest.param(dict(DEGENERATE_RATES, rates=dict(DEGENERATE_RATES["rates"],
                                                   regime="source_capacity")), [],
                 at("rates.regime") + "the corollary's lambda needs the population's r and "
                 "alpha, which it does not define", id="corollary-lambda-without-r-and-alpha"),
    pytest.param(dict(DEGENERATE_RATES, population={"generator": "logistic", "d": 4},
                      rates=dict(DEGENERATE_RATES["rates"], regime="source", tolerance=1e-4,
                                 **{"lambda": {"mode": "anchored", "anchor": 0.1,
                                               "n_anchor": 16}})), [],
                 at("rates.tolerance") + "the source exponent needs the population's r, which "
                 "it does not define, so no tolerance can be checked; drop rates.tolerance",
                 id="tolerance-without-theoretical-exponent"),
    pytest.param(dict(MINIMAL_DIAGNOSE, command="verify", verify={"slack": 1e-9}), [],
                 at("verify.slack") + "unknown key", id="removed-verify-slack"),
    pytest.param(dict(DEGENERATE_RATES, rates=dict(DEGENERATE_RATES["rates"], **{"lambda": {
        "mode": "anchored", "anchor": 0.1, "n_anchor": 16, "exponent": 0.5}})), [],
                 at("rates.lambda.exponent") + "unknown key", id="removed-lambda-exponent"),
    pytest.param(INLINE_SOLVE_YAML.format(features="[2020-01-01]"), [],
                 at("population.atoms[0].features[0]") + "expected a mapping, list, string, "
                 "number, boolean or null, got date", id="yaml-date-value"),
    pytest.param(INLINE_SOLVE_YAML.format(features="!!binary aGVsbG8="), [],
                 at("population.atoms[0].features") + "expected a mapping, list, string, "
                 "number, boolean or null, got bytes", id="yaml-binary-value"),
    pytest.param(INLINE_SOLVE_YAML.format(features="!!set {1.0, 2.0}"), [],
                 at("population.atoms[0].features") + "expected a mapping, list, string, "
                 "number, boolean or null, got set", id="yaml-set-value"),
    pytest.param(INLINE_SOLVE_YAML.format(features="{1: 2.0, a: 3.0}"), [],
                 at("population.atoms[0].features.1") + "expected a string key, got int",
                 id="yaml-integer-key"),
    pytest.param(INLINE_SOLVE_YAML.format(features="[" * 600 + "1.0" + "]" * 600), [],
                 at("document") + "nested too deeply to load", id="deeply-nested-features"),
    # numpy's multinomial takes the sample size as a C long
    pytest.param({"command": "rates", "population": CONCENTRATION["population"], "rates": {
        "regime": "none", "n_grid": [128, 10**19], "replicates": 1, "delta": 0.1,
        "lambda": {"mode": "explicit", "values": [0.1, 0.05]}}}, [],
                 at("rates.n_grid") + "must be strictly increasing positive integers, "
                 "each <= 9223372036854775807",
                 id="n-grid-above-c-long"),
    pytest.param(dict(CONCENTRATION, concentration=dict(CONCENTRATION["concentration"],
                                                        n=10**19)), [],
                 at("concentration.n") + "value 10000000000000000000 out of range",
                 id="concentration-n-above-c-long"),
    *[pytest.param(dict(CONCENTRATION, concentration=dict(
        CONCENTRATION["concentration"], kind=kind, **{"lambda": 1.0e-18})), [],
                   "error: the premise needs n >= ", id=f"{kind}-premise-above-c-long")
      for kind in ("hessian", "gradient")],
])
def test_malformed_input_exits_2_with_error_line(tmp_path, capsys, monkeypatch, doc, argv,
                                                 expect):
    if isinstance(argv, dict):  # environment variables instead of flags
        for name, value in argv.items():
            monkeypatch.setenv(name, value)
        argv = []
    if doc is None:
        cfg_path = str(tmp_path)
    elif isinstance(doc, str):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(doc)
    elif isinstance(doc, bytes):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_bytes(doc)
    else:
        cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "--quiet", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not [line for line in err.splitlines() if line.startswith("  :")]
    if expect is not None:
        assert expect in err
    assert not out.exists()


def test_degenerate_rates_run_writes_both_files_without_constants(tmp_path):
    # with explicit lambdas the run completes; the sample threshold stays undefined
    doc = dict(DEGENERATE_RATES, rates={
        **DEGENERATE_RATES["rates"],
        "lambda": {"mode": "explicit", "values": [0.1, 0.05, 0.025]}})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "scerm.cli", "--config", write_cfg(tmp_path, doc),
         "--out", str(out), "--quiet"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (out / "rates.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "n_threshold" not in summary


@pytest.mark.parametrize("blocked", ["summary.json", "solve.csv"])
def test_failed_write_leaves_no_output(tmp_path, capsys, blocked):
    # a directory under one output name makes its rename fail after both
    # files were written to temp files
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["--config", write_cfg(tmp_path, TWO_ATOM_SOLVE), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: I/O failure") and captured.out == ""
    assert [p.name for p in out.iterdir()] == [blocked]
    assert not list((out / blocked).iterdir())


def test_output_files_follow_the_umask(tmp_path):
    out = tmp_path / "out"
    umask = os.umask(0o022)
    try:
        assert main(["--config", write_cfg(tmp_path, TWO_ATOM_SOLVE), "--out", str(out),
                     "--quiet"]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == {"solve.csv": 0o644, "summary.json": 0o644}


def test_rates_with_a_failed_cell_exits_1(tmp_path, capsys, fail_first_draws):
    fail_first_draws(1)
    doc = {
        "command": "rates",
        "seed": 4,
        "population": {"generator": "source", "d": 6, "r": 0.5, "alpha": 2.0, "seed": 1},
        "rates": {"regime": "source_capacity", "n_grid": [32, 64], "replicates": 2,
                  "delta": 0.25, "lambda": {"mode": "explicit", "values": [0.2, 0.1]}},
    }
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "--jobs", "1"]) == 1
    assert "-> FAIL" in capsys.readouterr().out
    assert json.loads((out / "summary.json").read_text())["solver_failures"] == 1


def test_rates_with_every_cell_of_one_n_failed(tmp_path, capsys, fail_first_draws):
    # both replicates of n = 32 fail inside their row's batch
    fail_first_draws(2)
    doc = {
        "command": "rates",
        "seed": 4,
        "population": {"generator": "source", "d": 6, "r": 0.5, "alpha": 2.0, "seed": 1},
        "rates": {"regime": "source_capacity", "n_grid": [32, 64, 128], "replicates": 2,
                  "delta": 0.25, "lambda": {"mode": "explicit", "values": [0.2, 0.1, 0.05]}},
    }
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, doc), "--out", str(out), "--jobs", "1"]) == 1
    assert "-> FAIL" in capsys.readouterr().out

    def reject(name):
        raise ValueError(f"summary.json holds the non-JSON constant {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["solver_failures"] == 2
    assert summary["mean_excess"][0] == "nan" and summary["violation_freq"][0] == "nan"
    assert summary["guard_met"][0] is False
    assert all(isinstance(v, float) for v in summary["mean_excess"][1:])
    rows = (out / "rates.csv").read_text().strip().splitlines()[4:]
    assert [row.split(",")[:2] for row in rows] == [
        [n, r] for n in ("32", "64", "128") for r in ("0", "1")]
    assert all(row.split(",")[3] == "nan" for row in rows[:2])
