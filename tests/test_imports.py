import ast
import pathlib

import scerm

SRC = pathlib.Path(scerm.__file__).parent


def test_no_imports_inside_functions():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


# modules that stack caller-supplied Sample lists at the public boundary; all
# other code sums over an existing SampleSet with weights
SAMPLESET_BUILDERS = {"losses.py", "population.py", "solver.py", "verify.py"}


def test_sampleset_built_only_at_public_boundary():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in SAMPLESET_BUILDERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "SampleSet":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
