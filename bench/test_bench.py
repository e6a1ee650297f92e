"""Tests of the benchmark's own bookkeeping.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_times_of_nested_toy_calls():
    # outer [0, 10] calls a [1, 4], which calls c [2, 3], then b [5, 9]
    tracer = spans.Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    c = tracer.wrap(lambda: "c", "toy.c", "inner")
    a = tracer.wrap(lambda: c(), "toy.a", "inner")
    b = tracer.wrap(lambda: None, "toy.b", "inner")
    outer = tracer.wrap(lambda: (a(), b()), "toy.outer", "outer")

    assert outer() == ("c", None)
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["toy.outer", "toy.a", "toy.c", "toy.b"]
    own = dict(zip(names, spans.self_times(tracer.spans)))
    assert own == {"toy.outer": 3.0, "toy.a": 2.0, "toy.c": 1.0, "toy.b": 4.0}
    assert sum(own.values()) == 10.0


def test_exception_closes_its_span():
    tracer = spans.Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 5.0]))

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap(fail, "toy.inner", "inner",
                        annotate=lambda args, kwargs, result, exc: type(exc).__name__)

    def guarded():
        try:
            inner()
        except ValueError:
            return "caught"

    outer = tracer.wrap(guarded, "toy.outer", "outer")
    assert outer() == "caught"
    assert spans.self_times(tracer.spans) == [4.0, 1.0]
    assert tracer.spans[1][spans.INFO] == "ValueError"


def _traced_counts(tmp_path, name, seed, shrink):
    config = workloads.make_config(name, seed)
    config[workloads.command(name)].update(shrink)
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    root = os.path.dirname(HERE)
    counts = []
    for attempt in range(2):
        out = tmp_path / f"{name}-out{attempt}"
        args = ["--config", str(config_path), "--out", str(out), *workloads.cli_flags(name)]
        _, report, log = run.run_child(root, str(tmp_path), f"{name}{attempt}", "trace", args,
                                       time.monotonic() + 120)
        assert report is not None, open(log).read()
        assert report["rc"] == 0
        layers = report["layers"]
        assert abs(layers["trace.self_sum_s"] - layers["trace.wall_s"]) < 1e-9
        counts.append({k: v for k, v in layers.items() if k in run.REPEATED_EXACTLY})
    return counts


def test_two_traced_runs_at_one_seed_give_identical_counts(tmp_path):
    first, second = _traced_counts(tmp_path, "rates_logistic", 5,
                                   {"replicates": 3, "tolerance": 1.0})
    assert first == second
    assert first["rates.cells"] == 21 and first["solver.solves"] > 21

    first, second = _traced_counts(tmp_path, "verify_suite", 5,
                                   {"trials_per_case": 2, "localization_trials": 3})
    assert first == second
    assert first["verify.trials"] == 43 and first["linalg.gen_eigmax_calls"] > 0
