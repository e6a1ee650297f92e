"""tools/time_rates.py on a tiny plan: one replicate per n, two repeats."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_time_rates_reports_median_and_quartiles():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "time_rates.py"),
                           "--workload", "rates_logistic", "--replicates", "1",
                           "--repeats", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert first.startswith("rates_logistic seed 0: median ")
    assert result["replicates"] == 1 and result["cells"] == 7
    assert len(result["times_s"]) == 3
    assert 0 < result["q1_s"] <= result["median_s"] <= result["q3_s"]
    assert result["src"] == str(ROOT / "src")


def test_time_rates_refuses_a_workload_without_rates():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "time_rates.py"),
                           "--workload", "verify_wide", "--repeats", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "not a rates workload" in proc.stderr
