"""Outside-in span tracer for the scerm layers.

The tracer replaces the public functions of each layer module with timing
wrappers. Modules import names directly (``from .solver import
newton_minimize``), so a function is rebound in every ``scerm`` module that
holds it, not only where it is defined: ``scerm.rates.newton_minimize`` and
``scerm.population.newton_minimize`` both record a ``solver.newton_minimize``
span. The public methods of ``losses.SampleSet`` are wrapped on the class.
No file of the program is edited.

Spans nest. A span's self time is its duration minus the durations of its
direct child spans, and a layer's self time is the sum over its spans, so
the self times of all layers add up to the duration of the outermost span.
Spans stay in memory until ``layer_metrics`` turns them into metrics.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types

LAYERS = ("config", "losses", "linalg", "solver", "population", "rates", "verify", "cli")

# population functions that make up the per-lambda context of rates and diagnose
LAMBDA_CONTEXT = ("population.bias_lambda", "population.df_lambda", "population.dikin_radius",
                  "population.t_lambda", "population.constants_at")
CHECKS = ("verify.check_hess_control", "verify.check_grad_lower",
          "verify.check_grad_upper", "verify.check_value_bound")

# span record fields
NAME, LAYER, START, END, PARENT, INFO = range(6)


class Tracer:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str, layer: str, annotate=None):
        """Return ``fn`` wrapped in a span; ``annotate(args, kwargs, result, exc)``
        may attach one value to the span after the call."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                if annotate is not None:
                    span[INFO] = annotate(args, kwargs, None, exc)
                raise
            span[END] = clock()
            stack.pop()
            if annotate is not None:
                span[INFO] = annotate(args, kwargs, result, None)
            return result

        return traced


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _annotators(scerm_solver):
    def solve(args, kwargs, result, exc):
        if exc is not None:
            return {"failed": True}
        config = _arg(args, kwargs, 3, "config") or scerm_solver.SolverConfig()
        return {"failed": False, "trace": result.decrement_trace,
                "iterations": result.iterations, "pure_newton_below": config.pure_newton_below}

    def hess_flop(args, kwargs, result, exc):
        sset = args[0]
        return 2 * len(sset) * sset.dim * sset.dim

    def cells(args, kwargs, result, exc):
        return 0 if result is None else len(result.cells)

    def trials(args, kwargs, result, exc):
        return 0 if result is None else sum(r.trials for r in result.values())

    def lam(args, kwargs, result, exc):
        return float(_arg(args, kwargs, 2, "lam"))

    notes = {
        "solver.newton_minimize": solve,
        "losses.SampleSet.weighted_hess": hess_flop,
        "rates.run_rate_experiment": cells,
        "verify.run_check_suite": trials,
    }
    notes.update({name: lam for name in LAMBDA_CONTEXT})
    return notes


def instrument(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules wherever a ``scerm``
    module binds it, and the public methods of ``SampleSet``. The package must
    be imported already."""
    mods = {layer: sys.modules[f"scerm.{layer}"] for layer in LAYERS}
    notes = _annotators(mods["solver"])
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(obj, name, layer, notes.get(name)))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "scerm" or mod_name.startswith("scerm.")):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    cls = mods["losses"].SampleSet
    for attr, obj in list(vars(cls).items()):
        if isinstance(obj, types.FunctionType) and (attr == "__init__" or not attr.startswith("_")):
            name = f"losses.SampleSet.{attr}"
            setattr(cls, attr, tracer.wrap(obj, name, "losses", notes.get(name)))


def _nearest_ancestor(spans, index, names) -> int:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return parent
        parent = spans[parent][PARENT]
    return -1


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(spans) -> dict:
    """Per-layer counts and times (seconds unless named otherwise)."""
    own = self_times(spans)
    calls, total = {}, {}
    for s in spans:
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        total[s[NAME]] = total.get(s[NAME], 0.0) + (s[END] - s[START])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer_self[s[LAYER]] += t

    def outermost_total(names):
        names = set(names)
        return sum(s[END] - s[START] for i, s in enumerate(spans)
                   if s[NAME] in names and _nearest_ancestor(spans, i, names) < 0)

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["trace.self_sum_s"] = sum(own)

    m["config.load_s"] = total.get("config.load_config_file", 0.0)
    m["config.build_population_s"] = total.get("config.build_population", 0.0)

    m["losses.sampleset_builds"] = calls.get("losses.SampleSet.__init__", 0)
    m["losses.sampleset_build_s"] = total.get("losses.SampleSet.__init__", 0.0)
    for op in ("weighted_hess", "weighted_grad", "weighted_value"):
        m[f"losses.{op}_calls"] = calls.get(f"losses.SampleSet.{op}", 0)
        m[f"losses.{op}_s"] = total.get(f"losses.SampleSet.{op}", 0.0)
    # computed from array shapes (2 m d^2 per call), not counted by hardware
    m["losses.weighted_hess_gflop"] = sum(
        s[INFO] for s in spans if s[NAME] == "losses.SampleSet.weighted_hess") / 1e9

    m["linalg.chol_factor_calls"] = calls.get("linalg.chol_factor", 0)
    m["linalg.chol_factor_s"] = total.get("linalg.chol_factor", 0.0)
    m["linalg.chol_solve_s"] = total.get("linalg.chol_solve", 0.0)
    m["linalg.inv_quad_rows_s"] = total.get("linalg.inv_quad_rows", 0.0)
    m["linalg.gen_eigmax_calls"] = calls.get("linalg.gen_eigmax", 0)
    m["linalg.gen_eigmax_s"] = total.get("linalg.gen_eigmax", 0.0)

    solve_name = "solver.newton_minimize"
    solves = [i for i, s in enumerate(spans) if s[NAME] == solve_name]
    values_in_solve = dict.fromkeys(solves, 0)
    for i, s in enumerate(spans):
        if s[NAME] == "losses.SampleSet.weighted_value":
            owner = _nearest_ancestor(spans, i, {solve_name})
            if owner >= 0:
                values_in_solve[owner] += 1
    done = [i for i in solves if not spans[i][INFO]["failed"]]
    iterations = sum(spans[i][INFO]["iterations"] for i in done)
    halvings = 0
    for i in done:
        info = spans[i][INFO]
        # each backtracking search evaluates the objective at the start point
        # and at every trial step; all but the accepted trial are halvings
        searches = sum(1 for dec in info["trace"][:-1] if dec >= info["pure_newton_below"])
        halvings += values_in_solve[i] - 2 * searches
    durations = sorted(spans[i][END] - spans[i][START] for i in solves)
    m["solver.solves"] = len(solves)
    m["solver.iters_per_solve"] = iterations / len(done) if done else 0.0
    m["solver.halvings_per_solve"] = halvings / len(done) if done else 0.0
    m["solver.failed_frac"] = (len(solves) - len(done)) / len(solves) if solves else 0.0
    m["solver.solve_ms_p50"] = 1e3 * _quantile(durations, 0.50)
    m["solver.solve_ms_p99"] = 1e3 * _quantile(durations, 0.99)

    m["population.solve_population_s"] = total.get("population.solve_population", 0.0)
    m["population.lambda_context_s"] = outermost_total(LAMBDA_CONTEXT)
    context = set(LAMBDA_CONTEXT)
    lambdas = {s[INFO] for s in spans if s[NAME] in context}
    factorizations = sum(1 for i, s in enumerate(spans) if s[NAME] == "linalg.chol_factor"
                         and _nearest_ancestor(spans, i, context) >= 0)
    m["population.factorizations_per_lambda"] = factorizations / len(lambdas) if lambdas else 0.0
    m["population.exact_risk_s"] = total.get("population.exact_risk", 0.0)

    m["rates.cells"] = sum(s[INFO] for s in spans if s[NAME] == "rates.run_rate_experiment")

    m["verify.trials"] = (sum(s[INFO] for s in spans if s[NAME] == "verify.run_check_suite")
                          + calls.get("verify.check_localization", 0))
    m["verify.random_population_s"] = total.get("verify.random_population", 0.0)
    m["verify.check_s"] = outermost_total(CHECKS)
    m["verify.localization_s"] = total.get("verify.check_localization", 0.0)
    return m
