"""Configuration documents for the command-line runner.

Configs are YAML mappings, validated strictly before any computation runs:
unknown keys are rejected and every violation is reported with its dotted
path. Each section is checked against one table that declares every key
once, with its rule and its default, and a key that is left out takes that
default. ``parse_config`` returns the checked document as plain dicts keyed
by the YAML keys, or raises ``ConfigError`` carrying the complete error
list. Inline atoms are checked by the library itself when
``build_population`` constructs them.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys

import numpy as np
import yaml

from .errors import ConfigError, ContractViolation
from .losses import LOSS_KINDS, Sample, SoftmaxGLMLoss
from .population import (
    FinitePopulation,
    make_logistic_population,
    make_source_population,
    stack_samples,
)
from .rates import MAX_SAMPLE_SIZE, REGIMES
from .solver import SolverConfig

__all__ = [
    "parse_config",
    "load_config_file",
    "build_population",
    "config_digest",
]

COMMANDS = ("solve", "diagnose", "verify", "rates", "concentration")


# -- field rules ----------------------------------------------------------------------
# A rule checks one value and returns it converted, or raises _Invalid with the
# message that the error list shows under the value's dotted path.


class _Invalid(Exception):
    pass


def _number(lo=None, hi=None, lo_open=False, integer=False, message=None):
    """A finite number (an integer if asked) in [lo, hi], or in (lo, hi] when lo_open."""
    def check(val):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise _Invalid(f"expected a number, got {type(val).__name__}")
        if not abs(val) <= sys.float_info.max:  # inf, nan, or an int no float can hold
            raise _Invalid("expected a finite number")
        if integer and int(val) != val:
            raise _Invalid("expected an integer")
        if (lo is not None and (val <= lo if lo_open else val < lo)
                or hi is not None and val > hi):
            raise _Invalid(message or f"value {val} out of range")
        return int(val) if integer else float(val)
    return check


def _choice(*options):
    def check(val):
        if not isinstance(val, str):
            raise _Invalid(f"expected a string, got {type(val).__name__}")
        if val not in options:
            raise _Invalid(f"must be one of {sorted(options)}")
        return val
    return check


def _numbers(item, message, increasing=False):
    """A nonempty list whose entries all pass ``item``, strictly increasing if asked."""
    def check(val):
        if not isinstance(val, list) or not val:
            raise _Invalid(message)
        try:
            vals = tuple(item(v) for v in val)
        except _Invalid:
            raise _Invalid(message) from None
        if increasing and any(b <= a for a, b in zip(vals, vals[1:])):
            raise _Invalid(message)
        return vals
    return check


def _any(val):
    """No rule here: a nested section, or a value the library checks."""
    return val


_POSITIVE = _number(lo=0.0, lo_open=True)
_COUNT = _number(lo=1, integer=True)
# numpy draws a sample of size n only for n that fits a C long
_SAMPLE_SIZE = _number(lo=1, hi=MAX_SAMPLE_SIZE, integer=True)
_SEED = _number(lo=0, integer=True, message="seeds must be nonnegative integers")
_DELTA = _number(lo=0.0, hi=0.5, lo_open=True, message="delta must lie in (0, 0.5]")
_POSITIVES = _numbers(_POSITIVE, "expected a nonempty list of positive numbers")

# A table maps each key to (rule, default); a key whose default is _REQUIRED
# must be given.
_REQUIRED = object()
_SECTIONS = {
    "solve": {"lambda": (_POSITIVE, _REQUIRED), "tol": (_POSITIVE, SolverConfig.tol),
              "max_iter": (_COUNT, SolverConfig.max_iter)},
    "diagnose": {"lambda_grid": (_POSITIVES, None), "log2_min": (_number(integer=True), 0),
                 "log2_max": (_number(integer=True), 16)},
    "verify": {"trials_per_case": (_COUNT, 650), "localization_trials": (_COUNT, 50)},
    "rates": {
        "regime": (_choice(*REGIMES), _REQUIRED),
        "n_grid": (_numbers(_SAMPLE_SIZE, "must be strictly increasing positive integers, "
                            f"each <= {MAX_SAMPLE_SIZE}", increasing=True), _REQUIRED),
        "replicates": (_COUNT, _REQUIRED), "delta": (_DELTA, _REQUIRED),
        "lambda": (_any, {"mode": "corollary"}), "tolerance": (_POSITIVE, None),
    },
    "concentration": {
        "kind": (_choice("hessian", "gradient"), _REQUIRED), "lambda": (_POSITIVE, _REQUIRED),
        "replicates": (_COUNT, _REQUIRED), "delta": (_DELTA, _REQUIRED),
        "n": (_SAMPLE_SIZE, None),  # None: the experiment's premise-conforming n
        "k": (_number(lo=4.0, message="the gradient bound requires k >= 4"), 4.0),
    },
}
_TOP = {"command": (_choice(*COMMANDS), _REQUIRED), "seed": (_SEED, 0),
        **dict.fromkeys(("population", *_SECTIONS), (_any, None))}
# sections a command cannot run without
_NEEDS = {"solve": ("population", "solve"), "diagnose": ("population",), "verify": (),
          "rates": ("population", "rates"), "concentration": ("population", "concentration")}

# Tagged sections: the tag's value picks the table, and the tag itself is required.
# A generator's table holds the keyword parameters of its library constructor
# and accepts their domain.
_GENERATORS = {"source": make_source_population, "logistic": make_logistic_population}
_POPULATIONS = {
    "source": {
        "d": (_number(lo=2, integer=True), _REQUIRED), "seed": (_SEED, 0),
        "r": (_number(0.0, 0.5, message="r must lie in [0, 0.5] (source condition range)"),
              _REQUIRED),
        "alpha": (_number(lo=1.0, message="alpha must be >= 1 (capacity condition range)"),
                  _REQUIRED),
    },
    "logistic": {
        "d": (_number(lo=1, hi=17, integer=True,
                      message="d must lie in [1, 17] (the margin equation needs d <= 17)"),
              _REQUIRED),
        "seed": (_SEED, 0),
        "alpha": (_number(lo=0.0, message="alpha must be nonnegative"), 1.0),
    },
    "inline": {"loss": (_any, _REQUIRED), "atoms": (_any, _REQUIRED)},
}
# the loss constructor checks base_measure
_LOSSES = {kind: {} for kind in LOSS_KINDS}
_LOSSES["softmax_glm"] = {"base_measure": (_any, _REQUIRED)}
_LAMBDAS = {
    "corollary": {},
    "anchored": {"anchor": (_POSITIVE, _REQUIRED), "n_anchor": (_COUNT, _REQUIRED)},
    "explicit": {"values": (_POSITIVES, _REQUIRED)},
}
# build_population checks the features
_ATOM = {
    "features": (_any, _REQUIRED), "label": (_number(), _REQUIRED),
    "weight": (_number(lo=0.0, lo_open=True, message="expected a positive number"), _REQUIRED),
}


def _fields(node, path, table, errs) -> dict | None:
    """Check a mapping against a table of field rules.

    Reports unknown keys, missing required keys and every value that breaks
    its rule. Returns the checked values, with the default of every optional
    key that is left out or broken, or None when ``node`` is not a mapping.
    """
    if not isinstance(node, dict):
        errs.append((path, f"expected a mapping, got {type(node).__name__}"))
        return None
    prefix = f"{path}." if path else ""
    for key in node:
        if key not in table:
            errs.append((f"{prefix}{key}", "unknown key"))
    for key, (_, default) in table.items():
        if default is _REQUIRED and key not in node:
            errs.append((f"{prefix}{key}", "missing required key"))
    out = {key: default for key, (_, default) in table.items() if default is not _REQUIRED}
    for key, (rule, _) in table.items():
        if key in node:
            try:
                out[key] = rule(node[key])
            except _Invalid as exc:
                errs.append((f"{prefix}{key}", str(exc)))
    return out


def _tagged(node, path, tag, tables, errs) -> dict | None:
    """``_fields`` for a mapping whose ``tag`` value picks one of ``tables``."""
    choice = node.get(tag) if isinstance(node, dict) else None
    if isinstance(choice, str) and choice in tables:
        return _fields(node, path, {tag: (_any, _REQUIRED), **tables[choice]}, errs)
    # without a valid tag no other key can be judged
    if isinstance(node, dict):
        node = {key: val for key, val in node.items() if key == tag}
    _fields(node, path, {tag: (_choice(*tables), _REQUIRED)}, errs)
    return None


def _population(node, errs) -> dict | None:
    pop = _tagged(node, "population", "generator", _POPULATIONS, errs)
    if pop is None or pop["generator"] != "inline":
        return pop
    if "loss" in pop:
        pop["loss"] = _tagged(pop["loss"], "population.loss", "kind", _LOSSES, errs)
    if "atoms" in pop:
        atoms = pop["atoms"]
        if not isinstance(atoms, list) or not atoms:
            errs.append(("population.atoms", "inline population needs a nonempty atoms list"))
        else:
            pop["atoms"] = [_fields(atom, f"population.atoms[{i}]", _ATOM, errs)
                            for i, atom in enumerate(atoms)]
    return pop


class _Loader(yaml.SafeLoader):
    """The safe loader, reading also the YAML 1.2 floats 1e-3 and 2.5E4 (strings in YAML 1.1)."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+0123456789."))


# the scalar types of a JSON document: config_digest hashes the config's JSON form
_JSON_SCALARS = (str, int, float, bool, type(None))


def _json_fault(node, path, open_ids, done_ids) -> tuple[str, str] | None:
    """The dotted path and message of the first place where the document is
    not JSON, or None: a value of another type (a YAML date, ``!!binary``
    bytes, a ``!!set``), a mapping key that is not a string, or a value that
    a YAML alias makes contain itself. Each shared value is walked once."""
    if isinstance(node, _JSON_SCALARS) or id(node) in done_ids:
        return None
    if not isinstance(node, (dict, list)):
        return path, ("expected a mapping, list, string, number, boolean or null, "
                      f"got {type(node).__name__}")
    if id(node) in open_ids:
        return path, "a YAML alias makes this value contain itself"
    open_ids.add(id(node))
    if isinstance(node, dict):
        for key in node:
            if not isinstance(key, str):
                return f"{path}.{key}" if path else str(key), \
                    f"expected a string key, got {type(key).__name__}"
        items = ((f"{path}.{key}" if path else key, val) for key, val in node.items())
    else:
        items = ((f"{path}[{i}]", val) for i, val in enumerate(node))
    for sub, val in items:
        found = _json_fault(val, sub, open_ids, done_ids)
        if found is not None:
            return found
    open_ids.discard(id(node))
    done_ids.add(id(node))
    return None


def _load_yaml(stream):
    try:
        return yaml.load(stream, Loader=_Loader)
    except RecursionError:
        raise ConfigError([("document", "nested too deeply to load")]) from None


def parse_config(document) -> dict:
    """Validate a config mapping (or YAML string) into plain dicts keyed as in YAML.

    Every top-level key is present; a section the document leaves out is
    None, except the command's own optional section (diagnose, verify), which
    takes its table's defaults. Raises ConfigError listing every violation
    with its dotted path.
    """
    if isinstance(document, str):
        document = _load_yaml(document)
    if not isinstance(document, dict):
        got = "an empty document" if document is None else type(document).__name__
        raise ConfigError([("document", f"expected a mapping, got {got}")])
    fault = _json_fault(document, "", set(), set())
    if fault is not None:
        raise ConfigError([fault])
    errs = []
    cfg = _fields(document, "", _TOP, errs)
    command = cfg.get("command")
    for key in _NEEDS.get(command, ()):
        if key not in document:
            errs.append((key, "missing required key for this command"))
    if "population" in document:
        cfg["population"] = _population(document["population"], errs)
    for key, table in _SECTIONS.items():
        if key in document or key == command and key not in _NEEDS[command]:
            cfg[key] = _fields(document.get(key, {}), key, table, errs)
    rates = cfg["rates"]
    if rates is not None:
        lam = rates["lambda"] = _tagged(rates["lambda"], "rates.lambda", "mode", _LAMBDAS, errs)
        if lam is not None and "values" in lam and "n_grid" in rates \
                and len(lam["values"]) != len(rates["n_grid"]):
            errs.append(("rates.lambda.values", "must have one value per n_grid entry"))
    diagnose = cfg["diagnose"]
    if diagnose is not None and diagnose["log2_max"] < diagnose["log2_min"]:
        errs.append(("diagnose.log2_max", "must be >= log2_min"))
    if errs:
        raise ConfigError(errs)
    return cfg


def load_config_file(path) -> tuple[dict, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = _load_yaml(fh)
    return parse_config(raw), raw


def build_population(spec: dict) -> FinitePopulation:
    """The population of a checked ``population`` mapping.

    Inline losses and atoms are checked here by the library's own
    constructors; each failure becomes a ConfigError entry at its dotted path.
    """
    generator = spec["generator"]
    if generator in _GENERATORS:
        return _GENERATORS[generator](**{k: v for k, v in spec.items() if k != "generator"})
    loss = spec["loss"]
    try:
        loss = (SoftmaxGLMLoss(loss["base_measure"]) if loss["kind"] == "softmax_glm"
                else LOSS_KINDS[loss["kind"]]())
    except (TypeError, ValueError) as exc:
        raise ConfigError([("population.loss.base_measure", str(exc))]) from exc
    atoms, errs = [], []
    for i, atom in enumerate(spec["atoms"]):
        try:
            z = Sample(features=np.asarray(atom["features"], dtype=float), label=atom["label"])
            loss.validate_sample(z)
            atoms.append(z)
        except (TypeError, ValueError) as exc:
            errs.append((f"population.atoms[{i}]", str(exc)))
    if errs:
        raise ConfigError(errs)
    weights = np.asarray([atom["weight"] for atom in spec["atoms"]], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        weights = weights / weights.sum()
    try:
        return FinitePopulation(stack_samples(loss, atoms), weights)
    except ContractViolation as exc:
        raise ConfigError([("population.atoms", str(exc))]) from exc


def config_digest(raw_document) -> str:
    """sha256 over the canonical JSON form of the raw config document."""
    canon = json.dumps(raw_document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
