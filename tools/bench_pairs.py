"""Alternating parent/change pairs of the scerm benchmark.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json \\
        [--workload W]... [--seed S]... [--pairs 10] [--seconds S] [--workdir DIR]

Run from the repository root. The parent side is ``git archive REV``
extracted into the work directory; the change side is a copy of the working
tree (tracked files and untracked files git does not ignore). For each
workload and seed, each pair runs ``python3 bench/run.py --workload W --seed
S`` once in each tree, one after the other; the parent runs first in
even-numbered pairs and the change first in odd-numbered ones. Every run's
end-to-end medians are read from its result file in
``.bench_work/results/``.

The output file holds, per workload and seed and per end-to-end metric of
``BENCHMARK.json``: each side's values, median and quartiles, the per-pair
change/parent ratios, the pairs the change wins (ties count for neither
side), whether a gain can be claimed (wins in at least nine tenths of the
pairs and medians further apart than the parent's interquartile range), and
whether the change's median stays within the metric's regression bound. It
also records the nproc and OpenBLAS thread counts every run saw, and, as
``src_shortstat``, the files, insertions, deletions and net lines of ``git
diff --shortstat REV -- src`` (the parent against the working tree's tracked
files). The file is rewritten after every pair, so an interrupted session
keeps what it measured.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from statistics import median, quantiles

DEFAULT_PAIRS = 10


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of the values, by
    ``statistics.quantiles(n=4)``, the rule bench/README.md uses for spread."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def side_summary(values) -> dict:
    q1, med, q3 = quartiles(values)
    return {"values": list(values), "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(parent, change, better: str, bound: float | None = None) -> dict:
    """Compare one metric's per-pair values; ``better`` is "lower" or "higher".

    A pair is won by the side with the better value; equal values win for
    neither. ``gain`` holds when the change wins at least nine tenths of the
    pairs and its median is better than the parent's by more than the
    parent's interquartile range. ``within_bound`` holds when the change's
    median is no worse than the parent's by more than the relative ``bound``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same nonzero number of values")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ps, cs = side_summary(parent), side_summary(change)
    ratios = [c / p for p, c in zip(parent, change)]
    out = {
        "better": better,
        "pairs": len(parent),
        "parent": ps,
        "change": cs,
        "ratios": ratios,
        "ratio_of_medians": cs["median"] / ps["median"],
        "change_wins": wins,
        "parent_wins": losses,
        "gain": wins >= 0.9 * len(parent) and sign * (ps["median"] - cs["median"]) > ps["iqr"],
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = sign * (cs["median"] - ps["median"]) <= bound * ps["median"]
        # a parent spread wider than the bound leaves the comparison unresolved
        out["parent_spread_exceeds_bound"] = ps["iqr"] > bound * ps["median"]
    return out


def summarize_runs(runs, metrics) -> dict:
    """Summary of one workload and seed: ``runs`` is a list of
    {"parent": run, "change": run, "first": side} pairs, each run as
    ``run_side`` returns it, and ``metrics`` the end-to-end entries of
    BENCHMARK.json."""
    sides = ("parent", "change")
    seen = {json.dumps(pair[s]["environment"], sort_keys=True) for pair in runs for s in sides}
    out = {
        "pairs": len(runs),
        "first_in_pair": [pair["first"] for pair in runs],
        "correct": all(pair[s]["correct"] for pair in runs for s in sides),
        "failed_operations": {s: sum(pair[s]["failed"] for pair in runs) for s in sides},
        "attempted_operations": {s: sum(pair[s]["attempted"] for pair in runs) for s in sides},
        "nproc_and_blas_threads_seen": [json.loads(e) for e in sorted(seen)],
        "metrics": {},
    }
    timed = [pair for pair in runs if all(pair[s]["correct"] for s in sides)]
    if timed:
        for m in metrics:
            out["metrics"][m["name"]] = summarize(
                [pair["parent"]["end_to_end"][m["name"]] for pair in timed],
                [pair["change"]["end_to_end"][m["name"]] for pair in timed],
                m["better"], m.get("bound"))
    return out


_SHORTSTAT_KEYS = {"file": "files", "insertion": "insertions", "deletion": "deletions"}


def parse_shortstat(text: str) -> dict:
    """files, insertions, deletions and net lines (insertions - deletions) of
    a ``git diff --shortstat`` line; git leaves out a count that is 0, and
    prints nothing for an empty diff."""
    counts = dict.fromkeys(_SHORTSTAT_KEYS.values(), 0)
    for number, word in re.findall(r"(\d+) (file|insertion|deletion)", text):
        counts[_SHORTSTAT_KEYS[word]] = int(number)
    counts["net"] = counts["insertions"] - counts["deletions"]
    return counts


def src_shortstat(rev: str) -> dict:
    text = subprocess.run(["git", "diff", "--shortstat", rev, "--", "src"], check=True,
                          capture_output=True, text=True).stdout
    return parse_shortstat(text)


def export_parent(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: str) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            check=True, capture_output=True).stdout
    for name in listed.decode().split("\0"):
        if not name or not os.path.isfile(name):  # a deleted tracked file
            continue
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(name, target)


def run_side(tree: str, workload: str, seed: int, seconds: float | None) -> dict:
    """One ``bench/run.py`` run in ``tree``: its correctness, operation counts,
    end-to-end medians and environment."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    path = os.path.join(tree, ".bench_work", "results", f"{workload}-seed{seed}-trace0.json")
    try:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(path)
    except FileNotFoundError:  # the benchmark itself failed before writing its result
        result = {"correct": False, "attempted": 0, "failed": 0}
    env = result.get("environment") or {}
    blas = env.get("openblas", {})
    return {
        "correct": proc.returncode == 0 and result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": result.get("end_to_end", {}),
        "environment": {"nproc": env.get("nproc"),
                        "numpy": blas.get("numpy", {}).get("threads"),
                        "scipy": blas.get("scipy", {}).get("threads")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", action="append", type=int, help="repeatable; default: 0")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    parser.add_argument("--seconds", type=float, help="default: bench/run.py's own")
    parser.add_argument("--workdir", help="where the two trees go; default: a temporary "
                        "directory, removed at the end")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [0]
    out_path = os.path.abspath(args.out)

    with tempfile.TemporaryDirectory() as tmp:
        root = args.workdir or tmp
        trees = {"parent": os.path.join(root, "parent"), "change": os.path.join(root, "change")}
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
            os.makedirs(tree)
        export_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        record = {"parent": args.parent, "seconds": args.seconds,
                  "src_shortstat": src_shortstat(args.parent), "workloads": {}}
        for name in names:
            for seed in seeds:
                runs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_side(trees[side], name, seed, args.seconds)
                    runs.append(pair)
                    record["workloads"][f"{name}@seed{seed}"] = summarize_runs(
                        runs, spec["end_to_end"])
                    with open(out_path, "w", encoding="utf-8") as fh:
                        json.dump(record, fh, indent=1)
                        fh.write("\n")
                    print(f"{name} seed {seed} pair {i + 1}/{args.pairs} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
