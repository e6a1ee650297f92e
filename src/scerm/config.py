"""Configuration documents for the command-line runner.

Configs are YAML mappings, validated strictly before any computation runs:
unknown keys are rejected and every violation is reported with its dotted
path. ``parse_config`` returns a fully typed ``RunConfig`` or raises
``ConfigError`` carrying the complete error list.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
from .losses import LOSS_KINDS, Sample, SoftmaxGLMLoss
from .population import FinitePopulation, make_logistic_population, make_source_population

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config_file",
    "build_population",
    "population_to_config",
    "config_digest",
]

COMMANDS = ("solve", "diagnose", "verify", "rates", "concentration")


class _Errors:
    def __init__(self):
        self.items = []

    def add(self, path, msg):
        self.items.append((path, msg))

    def raise_if_any(self):
        if self.items:
            raise ConfigError(self.items)


def _expect_mapping(node, path, errs):
    if not isinstance(node, dict):
        errs.add(path, f"expected a mapping, got {type(node).__name__}")
        return None
    return node


def _reject_unknown(node, path, allowed, errs):
    for key in node:
        if key not in allowed:
            errs.add(f"{path}.{key}" if path else key, "unknown key")


def _get_number(node, path, key, errs, required=False, default=None,
                lo=None, hi=None, lo_open=False, hi_open=False, integer=False,
                message=None):
    if key not in node:
        if required:
            errs.add(f"{path}.{key}", "missing required key")
        return default
    val = node[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errs.add(f"{path}.{key}", f"expected a number, got {type(val).__name__}")
        return default
    if integer and int(val) != val:
        errs.add(f"{path}.{key}", "expected an integer")
        return default
    ok = True
    if lo is not None:
        ok = ok and (val > lo if lo_open else val >= lo)
    if hi is not None:
        ok = ok and (val < hi if hi_open else val <= hi)
    if not ok:
        errs.add(f"{path}.{key}", message or f"value {val} out of range")
        return default
    return int(val) if integer else float(val)


def _get_str(node, path, key, errs, required=False, default=None, choices=None):
    if key not in node:
        if required:
            errs.add(f"{path}.{key}", "missing required key")
        return default
    val = node[key]
    if not isinstance(val, str):
        errs.add(f"{path}.{key}", f"expected a string, got {type(val).__name__}")
        return default
    if choices and val not in choices:
        errs.add(f"{path}.{key}", f"must be one of {sorted(choices)}")
        return default
    return val


@dataclass(frozen=True)
class PopulationSpec:
    generator: str  # "source" | "logistic" | "inline"
    d: int | None = None
    r: float | None = None
    alpha: float | None = None
    seed: int = 0
    loss_kind: str | None = None
    base_measure: tuple | None = None
    atoms: tuple | None = None  # inline: ((features, label, weight), ...)


@dataclass(frozen=True)
class LambdaSpec:
    mode: str  # "corollary" | "anchored" | "explicit"
    anchor: float | None = None
    n_anchor: int | None = None
    exponent: float | None = None
    values: tuple | None = None


@dataclass(frozen=True)
class RatesSpec:
    regime: str
    n_grid: tuple
    replicates: int
    delta: float
    lambdas: LambdaSpec
    burn_in: int = 1
    tolerance: float | None = None


@dataclass(frozen=True)
class DiagnoseSpec:
    lambda_grid: tuple | None = None
    log2_min: int = 0
    log2_max: int = 16


@dataclass(frozen=True)
class VerifySpec:
    trials_per_case: int = 650
    slack: float = 1e-9
    localization_trials: int = 50


@dataclass(frozen=True)
class ConcentrationSpec:
    kind: str  # "hessian" | "gradient"
    lam: float
    replicates: int
    delta: float
    n: int | None = None  # None -> premise-conforming n
    k: float = 4.0


@dataclass(frozen=True)
class SolveSpec:
    lam: float
    tol: float = 1e-10
    max_iter: int = 200


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    population: PopulationSpec
    solve: SolveSpec | None = None
    diagnose: DiagnoseSpec | None = None
    verify: VerifySpec = field(default_factory=VerifySpec)
    rates: RatesSpec | None = None
    concentration: ConcentrationSpec | None = None


def _parse_population(node, errs) -> PopulationSpec | None:
    node = _expect_mapping(node, "population", errs)
    if node is None:
        return None
    gen = _get_str(node, "population", "generator", errs, required=True,
                   choices=("source", "logistic", "inline"))
    if gen is None:
        return None
    if gen in ("source", "logistic"):
        _reject_unknown(node, "population", {"generator", "d", "r", "alpha", "seed"}, errs)
        d = _get_number(node, "population", "d", errs, required=True, lo=2, integer=True)
        alpha = _get_number(node, "population", "alpha", errs, required=(gen == "source"),
                            default=1.0, lo=1.0,
                            message="alpha must be >= 1 (capacity condition range)")
        seed = _get_number(node, "population", "seed", errs, default=0, integer=True)
        r = None
        if gen == "source":
            r = _get_number(node, "population", "r", errs, required=True, lo=0.0, hi=0.5,
                            message="r must lie in [0, 0.5] (source condition range)")
        elif "r" in node:
            errs.add("population.r", "unknown key for logistic generator")
        return PopulationSpec(generator=gen, d=d, r=r, alpha=alpha, seed=seed or 0)

    _reject_unknown(node, "population", {"generator", "loss", "atoms"}, errs)
    loss_node = _expect_mapping(node.get("loss"), "population.loss", errs)
    loss_kind = None
    base_measure = None
    if loss_node is not None:
        _reject_unknown(loss_node, "population.loss", {"kind", "base_measure"}, errs)
        loss_kind = _get_str(loss_node, "population.loss", "kind", errs, required=True,
                             choices=set(LOSS_KINDS))
        if loss_kind == "softmax_glm":
            bm = loss_node.get("base_measure")
            if not isinstance(bm, list) or len(bm) < 2:
                errs.add("population.loss.base_measure",
                         "softmax_glm needs a base_measure list of >= 2 positive weights")
            else:
                base_measure = tuple(float(x) for x in bm)
        elif "base_measure" in loss_node:
            errs.add("population.loss.base_measure", "only valid for softmax_glm")
    elif "loss" not in node:
        errs.add("population.loss", "missing required key")

    atoms_node = node.get("atoms")
    atoms = None
    if not isinstance(atoms_node, list) or not atoms_node:
        errs.add("population.atoms", "inline population needs a nonempty atoms list")
    else:
        parsed = []
        for i, a in enumerate(atoms_node):
            apath = f"population.atoms[{i}]"
            a = _expect_mapping(a, apath, errs)
            if a is None:
                continue
            _reject_unknown(a, apath, {"features", "label", "weight"}, errs)
            feats = a.get("features")
            if not isinstance(feats, list) or not feats:
                errs.add(f"{apath}.features", "expected a nonempty list")
                continue
            label = a.get("label")
            if isinstance(label, bool) or not isinstance(label, (int, float)):
                errs.add(f"{apath}.label", "expected a number")
                continue
            weight = a.get("weight")
            if isinstance(weight, bool) or not isinstance(weight, (int, float)) or weight <= 0:
                errs.add(f"{apath}.weight", "expected a positive number")
                continue
            parsed.append((feats, float(label), float(weight)))
        atoms = tuple(parsed) if parsed else None
        if atoms is None:
            errs.add("population.atoms", "no valid atoms")
    return PopulationSpec(generator="inline", loss_kind=loss_kind,
                          base_measure=base_measure, atoms=atoms)


def _parse_lambda_spec(node, path, errs) -> LambdaSpec | None:
    node = _expect_mapping(node, path, errs)
    if node is None:
        return None
    mode = _get_str(node, path, "mode", errs, required=True,
                    choices=("corollary", "anchored", "explicit"))
    if mode == "anchored":
        _reject_unknown(node, path, {"mode", "anchor", "n_anchor", "exponent"}, errs)
        anchor = _get_number(node, path, "anchor", errs, required=True, lo=0.0, lo_open=True)
        n_anchor = _get_number(node, path, "n_anchor", errs, required=True, lo=1, integer=True)
        exponent = _get_number(node, path, "exponent", errs, lo=0.0)
        return LambdaSpec(mode="anchored", anchor=anchor, n_anchor=n_anchor, exponent=exponent)
    if mode == "explicit":
        _reject_unknown(node, path, {"mode", "values"}, errs)
        vals = node.get("values")
        if not isinstance(vals, list) or not vals or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0 for v in vals
        ):
            errs.add(f"{path}.values", "expected a nonempty list of positive numbers")
            return None
        return LambdaSpec(mode="explicit", values=tuple(float(v) for v in vals))
    if mode == "corollary":
        _reject_unknown(node, path, {"mode"}, errs)
        return LambdaSpec(mode="corollary")
    return None


def _parse_rates(node, errs) -> RatesSpec | None:
    node = _expect_mapping(node, "rates", errs)
    if node is None:
        return None
    _reject_unknown(node, "rates",
                    {"regime", "n_grid", "replicates", "delta", "lambda", "burn_in", "tolerance"},
                    errs)
    regime = _get_str(node, "rates", "regime", errs, required=True,
                      choices=("none", "source", "source_capacity"))
    grid_node = node.get("n_grid")
    n_grid = None
    if not isinstance(grid_node, list) or len(grid_node) < 1:
        errs.add("rates.n_grid", "expected a nonempty list of sample sizes")
    else:
        ok = all(not isinstance(v, bool) and isinstance(v, int) and v >= 1 for v in grid_node)
        if not ok or any(b <= a for a, b in zip(grid_node, grid_node[1:])):
            errs.add("rates.n_grid", "must be strictly increasing positive integers")
        else:
            n_grid = tuple(grid_node)
    replicates = _get_number(node, "rates", "replicates", errs, required=True, lo=1, integer=True)
    delta = _get_number(node, "rates", "delta", errs, required=True, lo=0.0, hi=0.5,
                        lo_open=True, message="delta must lie in (0, 0.5]")
    lam_spec = _parse_lambda_spec(node.get("lambda"), "rates.lambda", errs) \
        if "lambda" in node else LambdaSpec(mode="corollary")
    burn_in = _get_number(node, "rates", "burn_in", errs, default=1, lo=0, integer=True)
    tolerance = _get_number(node, "rates", "tolerance", errs, lo=0.0, lo_open=True)
    if lam_spec is not None and lam_spec.mode == "explicit" and n_grid is not None \
            and lam_spec.values is not None and len(lam_spec.values) != len(n_grid):
        errs.add("rates.lambda.values", "must have one value per n_grid entry")
    if None in (regime, n_grid, replicates, delta) or lam_spec is None:
        return None
    return RatesSpec(regime=regime, n_grid=n_grid, replicates=replicates, delta=delta,
                     lambdas=lam_spec, burn_in=burn_in if burn_in is not None else 1,
                     tolerance=tolerance)


def _parse_diagnose(node, errs) -> DiagnoseSpec | None:
    node = _expect_mapping(node, "diagnose", errs)
    if node is None:
        return None
    _reject_unknown(node, "diagnose", {"lambda_grid", "log2_min", "log2_max"}, errs)
    grid = None
    if "lambda_grid" in node:
        vals = node["lambda_grid"]
        if not isinstance(vals, list) or len(vals) < 1 or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0 for v in vals
        ):
            errs.add("diagnose.lambda_grid", "expected a nonempty list of positive numbers")
        else:
            grid = tuple(float(v) for v in vals)
    lo = _get_number(node, "diagnose", "log2_min", errs, default=0, integer=True)
    hi = _get_number(node, "diagnose", "log2_max", errs, default=16, integer=True)
    if lo is not None and hi is not None and hi < lo:
        errs.add("diagnose.log2_max", "must be >= log2_min")
    return DiagnoseSpec(lambda_grid=grid, log2_min=lo or 0, log2_max=hi or 16)


def _parse_verify(node, errs) -> VerifySpec | None:
    node = _expect_mapping(node, "verify", errs)
    if node is None:
        return None
    _reject_unknown(node, "verify", {"trials_per_case", "slack", "localization_trials"}, errs)
    trials = _get_number(node, "verify", "trials_per_case", errs, default=650, lo=1, integer=True)
    slack = _get_number(node, "verify", "slack", errs, default=1e-9, lo=0.0, lo_open=True)
    loc = _get_number(node, "verify", "localization_trials", errs, default=50, lo=1, integer=True)
    return VerifySpec(trials_per_case=trials or 650, slack=slack or 1e-9,
                      localization_trials=loc or 50)


def _parse_concentration(node, errs) -> ConcentrationSpec | None:
    node = _expect_mapping(node, "concentration", errs)
    if node is None:
        return None
    _reject_unknown(node, "concentration", {"kind", "lambda", "n", "replicates", "delta", "k"}, errs)
    kind = _get_str(node, "concentration", "kind", errs, required=True,
                    choices=("hessian", "gradient"))
    lam = _get_number(node, "concentration", "lambda", errs, required=True, lo=0.0, lo_open=True)
    replicates = _get_number(node, "concentration", "replicates", errs, required=True,
                             lo=1, integer=True)
    delta = _get_number(node, "concentration", "delta", errs, required=True, lo=0.0, hi=0.5,
                        lo_open=True, message="delta must lie in (0, 0.5]")
    n = _get_number(node, "concentration", "n", errs, lo=1, integer=True)
    k = _get_number(node, "concentration", "k", errs, default=4.0, lo=4.0,
                    message="the gradient bound requires k >= 4")
    if None in (kind, lam, replicates, delta):
        return None
    return ConcentrationSpec(kind=kind, lam=lam, replicates=replicates, delta=delta, n=n, k=k or 4.0)


def parse_config(document) -> RunConfig:
    """Validate a config mapping (or YAML string) into a RunConfig.

    Raises ConfigError listing every violation with its dotted path.
    """
    if isinstance(document, str):
        document = yaml.safe_load(document)
    errs = _Errors()
    doc = _expect_mapping(document, "", errs)
    errs.raise_if_any()

    allowed = {"command", "seed", "population", "solve", "diagnose", "verify", "rates",
               "concentration"}
    _reject_unknown(doc, "", allowed, errs)
    command = _get_str(doc, "", "command", errs, required=True, choices=COMMANDS)
    seed = _get_number(doc, "", "seed", errs, default=0, integer=True)

    population = None
    if "population" in doc:
        population = _parse_population(doc["population"], errs)
    elif command in ("solve", "diagnose", "rates", "concentration"):
        errs.add("population", "missing required key for this command")

    solve = None
    if "solve" in doc:
        node = _expect_mapping(doc["solve"], "solve", errs)
        if node is not None:
            _reject_unknown(node, "solve", {"lambda", "tol", "max_iter"}, errs)
            lam = _get_number(node, "solve", "lambda", errs, required=True, lo=0.0, lo_open=True)
            tol = _get_number(node, "solve", "tol", errs, default=1e-10, lo=0.0, lo_open=True)
            max_iter = _get_number(node, "solve", "max_iter", errs, default=200, lo=1, integer=True)
            if lam is not None:
                solve = SolveSpec(lam=lam, tol=tol or 1e-10, max_iter=max_iter or 200)
    elif command == "solve":
        errs.add("solve", "missing required key for this command")

    diagnose = _parse_diagnose(doc["diagnose"], errs) if "diagnose" in doc else (
        DiagnoseSpec() if command == "diagnose" else None)
    verify = _parse_verify(doc["verify"], errs) if "verify" in doc else VerifySpec()
    rates = None
    if "rates" in doc:
        rates = _parse_rates(doc["rates"], errs)
    elif command == "rates":
        errs.add("rates", "missing required key for this command")
    concentration = None
    if "concentration" in doc:
        concentration = _parse_concentration(doc["concentration"], errs)
    elif command == "concentration":
        errs.add("concentration", "missing required key for this command")

    errs.raise_if_any()
    return RunConfig(
        command=command,
        seed=seed or 0,
        population=population,
        solve=solve,
        diagnose=diagnose,
        verify=verify if verify is not None else VerifySpec(),
        rates=rates,
        concentration=concentration,
    )


def load_config_file(path) -> tuple[RunConfig, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return parse_config(raw), raw


def build_population(spec: PopulationSpec) -> FinitePopulation:
    if spec.generator == "source":
        return make_source_population(spec.d, spec.r, spec.alpha, spec.seed)
    if spec.generator == "logistic":
        return make_logistic_population(spec.d, spec.alpha, spec.seed)
    loss_cls = LOSS_KINDS[spec.loss_kind]
    loss = SoftmaxGLMLoss(spec.base_measure) if spec.loss_kind == "softmax_glm" else loss_cls()
    atoms = []
    weights = []
    for feats, label, weight in spec.atoms:
        atoms.append(Sample(features=np.asarray(feats, dtype=float), label=label))
        weights.append(weight)
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        weights = weights / weights.sum()
    return FinitePopulation(atoms=tuple(atoms), weights=weights, loss=loss)


def population_to_config(pop: FinitePopulation) -> dict:
    """Serialize a population to the inline config format (round-trippable).

    Floats are emitted at full precision so a rebuilt population reproduces
    the original exactly.
    """
    loss_node = {"kind": pop.loss.kind}
    if isinstance(pop.loss, SoftmaxGLMLoss):
        loss_node["base_measure"] = [float(x) for x in pop.loss.base_measure]
    atoms = []
    for z, w in zip(pop.atoms, pop.weights):
        atoms.append({
            "features": np.asarray(z.features).tolist(),
            "label": int(z.label) if pop.loss.is_glm else float(z.label),
            "weight": float(w),
        })
    return {"generator": "inline", "loss": loss_node, "atoms": atoms}


def config_digest(raw_document) -> str:
    """sha256 over the canonical JSON form of the raw config document."""
    canon = json.dumps(raw_document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
