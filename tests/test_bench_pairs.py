"""Summary arithmetic and shortstat parsing of tools/bench_pairs.py on fixed
numbers and strings; no process is started."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.2, 0.9, 1.1, 1.0, 1.3, 1.0, 0.95, 1.05, 1.1]
CHANGE = [0.7, 0.8, 0.95, 0.7, 0.75, 0.8, 0.7, 0.65, 0.72, 0.78]


def test_quartiles_follow_statistics_quantiles():
    # quantiles(n=4), exclusive method: positions (n + 1) q of the sorted values
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_summary_of_a_gain():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower", bound=0.24)
    assert s["parent"]["median"] == pytest.approx(1.025)
    assert s["change"]["median"] == pytest.approx(0.735)
    # sorted parent 0.9 0.95 1.0 1.0 1.0 1.05 1.1 1.1 1.2 1.3: q1 at 2.75, q3 at 8.25
    assert s["parent"]["q1"] == pytest.approx(0.9875)
    assert s["parent"]["q3"] == pytest.approx(1.125)
    assert s["parent"]["iqr"] == pytest.approx(0.1375)
    assert s["ratios"][0] == pytest.approx(0.7) and s["ratios"][2] == pytest.approx(0.95 / 0.9)
    assert s["ratio_of_medians"] == pytest.approx(0.735 / 1.025)
    # the third pair is the parent's
    assert (s["change_wins"], s["parent_wins"]) == (9, 1)
    assert s["gain"] and s["within_bound"] and not s["parent_spread_exceeds_bound"]


def test_summary_direction_ties_and_bound():
    # higher is better: the same numbers are now a loss beyond the bound
    s = bench_pairs.summarize(PARENT, CHANGE, "higher", bound=0.24)
    assert (s["change_wins"], s["parent_wins"]) == (1, 9)
    assert not s["gain"] and not s["within_bound"]
    # ties win for neither side, and 8 wins of 10 are too few for a gain
    s = bench_pairs.summarize(PARENT, PARENT[:2] + CHANGE[2:], "lower")
    assert (s["change_wins"], s["parent_wins"]) == (7, 1)
    assert not s["gain"] and "within_bound" not in s
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "faster")


def test_summary_of_runs():
    def run(value, correct=True):
        return {"correct": correct, "attempted": 4, "failed": 0, "end_to_end": {"run_s": value},
                "environment": {"nproc": 2, "numpy": 1, "scipy": 1}}

    runs = [{"first": "parent", "parent": run(1.0), "change": run(0.5)},
            {"first": "change", "parent": run(2.0), "change": run(1.0)},
            {"first": "parent", "parent": run(3.0), "change": run(9.0, correct=False)}]
    s = bench_pairs.summarize_runs(runs, [{"name": "run_s", "better": "lower", "bound": 0.2}])
    assert s["first_in_pair"] == ["parent", "change", "parent"]
    assert not s["correct"]
    assert s["attempted_operations"] == {"parent": 12, "change": 12}
    assert s["nproc_and_blas_threads_seen"] == [{"nproc": 2, "numpy": 1, "scipy": 1}]
    # only pairs whose two runs are correct are compared
    assert s["metrics"]["run_s"]["parent"]["values"] == [1.0, 2.0]
    assert s["metrics"]["run_s"]["ratios"] == [0.5, 0.5]


def test_shortstat_is_parsed_from_gits_line():
    parse = bench_pairs.parse_shortstat
    assert parse(" 3 files changed, 40 insertions(+), 55 deletions(-)\n") == {
        "files": 3, "insertions": 40, "deletions": 55, "net": -15}
    # git leaves out a count that is 0, and prints nothing for an empty diff
    assert parse(" 1 file changed, 1 insertion(+)\n") == {
        "files": 1, "insertions": 1, "deletions": 0, "net": 1}
    assert parse(" 2 files changed, 7 deletions(-)\n") == {
        "files": 2, "insertions": 0, "deletions": 7, "net": -7}
    assert parse("") == {"files": 0, "insertions": 0, "deletions": 0, "net": 0}
