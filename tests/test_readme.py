"""The README's library quick start runs as written."""

import pathlib
import re

from scerm import SolverConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["res"].decrement_trace[-1] <= SolverConfig.tol
    assert abs(namespace["report"].fitted_r.value - 0.5) < 0.1
    assert abs(namespace["report"].fitted_alpha.value - 2.0) < 0.2
