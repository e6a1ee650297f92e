import ast
import json
import pathlib
import subprocess
import sys
import textwrap

import yaml

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


def calls():
    """(file name, called name, node) of every call in the package's modules."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                yield path.name, name, node


# numpy functions whose Python-level dispatch costs more than the work at the
# sizes the hot checks see; the array methods (.all(), .any()) and a strided
# .flat diagonal do the same work without it
SLOW_NUMPY_CALLS = {"all", "any", "diag_indices_from"}


def test_no_slow_numpy_dispatch():
    offenders = [f"{file}:{node.lineno} np.{name}" for file, name, node in calls()
                 if name in SLOW_NUMPY_CALLS and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    assert offenders == []


# modules that build a population's SampleSet: the axis construction behind
# both generators and the Sample stacking helper (population.py), and the
# random populations of the check suite (verify.py); all other code sums over
# an existing SampleSet with weights
SAMPLESET_BUILDERS = {"population.py", "verify.py"}


def test_sampleset_built_only_at_public_boundary():
    offenders = [f"{file}:{node.lineno}" for file, name, node in calls()
                 if name == "SampleSet" and file not in SAMPLESET_BUILDERS]
    assert offenders == []


# per-lambda population functions; a run trace reads their lambda from the
# third positional argument or the ``lam`` keyword
LAMBDA_CONTEXT = {"bias_lambda", "df_lambda", "t_lambda", "dikin_radius", "constants_at"}


def test_lambda_context_calls_name_lam():
    found = [(file, node) for file, name, node in calls() if name in LAMBDA_CONTEXT]
    offenders = [f"{file}:{node.lineno}" for file, node in found
                 if len(node.args) < 3 and not any(kw.arg == "lam" for kw in node.keywords)]
    assert len(found) >= len(LAMBDA_CONTEXT)
    assert offenders == []


def test_population_hessians_come_from_the_population():
    """A ``weighted_hess`` over a population's own ``.weights`` outside
    population.py would bypass the cached quadratic Hessian; such code calls
    ``exact_hessian`` or reads ``hessian_at_star`` instead."""
    found = [(file, node) for file, name, node in calls()
             if name == "weighted_hess" and node.args
             and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "weights"]
    offenders = [f"{file}:{node.lineno}" for file, node in found if file != "population.py"]
    assert found
    assert offenders == []


def sc_coef_reads(tree):
    """Line numbers of every ``.sc_coef`` read under an AST node."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "sc_coef"]


def test_certificate_constants_read_only_by_the_stack():
    """Outside the per-sample oracle in losses.py, a loss's certificate
    constant is read only where ``SampleSet`` stacks the certificate set, so
    every stacked sup goes through ``certificate_rows``."""
    outside = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
               if path.name != "losses.py"
               for line in sc_coef_reads(ast.parse(path.read_text(encoding="utf-8")))]
    tree = ast.parse((SRC / "losses.py").read_text(encoding="utf-8"))
    sample_set = next(cls for cls in tree.body if getattr(cls, "name", None) == "SampleSet")
    readers = {fn.name for fn in sample_set.body
               if isinstance(fn, ast.FunctionDef) and sc_coef_reads(fn)}
    assert outside == []
    assert readers == {"quadratic", "certificate_rows"}


def test_rate_lambdas_picked_only_by_cmd_rates():
    """``cli._cmd_rates`` picks every rate experiment's lambdas, and
    ``run_rate_experiment`` runs on the ones its plan holds."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    cmd = next(fn for fn in tree.body if getattr(fn, "name", None) == "_cmd_rates")
    found = [(file, node.lineno) for file, name, node in calls()
             if name in {"lambda_schedule", "anchored_lambdas"}]
    inside = [(file, line) for file, line in found
              if file == "cli.py" and cmd.lineno <= line <= cmd.end_lineno]
    assert len(inside) == 2
    assert found == inside


def test_cli_files_written_only_by_run():
    """Each command returns its report, and ``cli.run`` alone writes the run's
    files and sanitizes the summary, so no command can leave partial output."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    callers = {"_atomic_write": set(), "_san": set()}
    for fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                callers[node.func.id].add(fn.name)
    assert callers == {"_atomic_write": {"run"}, "_san": {"run", "_san"}}
    commands = [fn for fn in functions if fn.name.startswith("_cmd_")]
    assert len(commands) == 5
    assert all([arg.arg for arg in fn.args.args] == ["cfg", "pop", "jobs"] for fn in commands)


# Modules that no CLI run may load. scipy.linalg's numpy compatibility layer
# touches numpy's lazy submodules (numpy.f2py pulls in charset_normalizer),
# np.unique imports numpy.ma, and only a pool of workers needs
# concurrent.futures.process and multiprocessing.
HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.ma", "numpy.testing", "charset_normalizer",
         "concurrent.futures.process", "multiprocessing")

# a tiny run of every command; the inline population has two equal feature
# rows, which the stack merges
TINY_RUNS = [
    {"command": "solve", "population": {"generator": "logistic", "d": 3, "seed": 1},
     "solve": {"lambda": 0.1}},
    {"command": "diagnose", "population": {"generator": "source", "d": 8, "r": 0.5, "alpha": 2.0},
     "diagnose": {"log2_min": 1, "log2_max": 8}},
    {"command": "verify", "verify": {"trials_per_case": 2, "localization_trials": 2}},
    {"command": "rates", "population": {"generator": "source", "d": 8, "r": 0.5, "alpha": 2.0},
     "rates": {"regime": "source", "n_grid": [32, 64, 128], "replicates": 2, "delta": 0.1}},
    {"command": "concentration", "population": {
        "generator": "inline", "loss": {"kind": "square"},
        "atoms": [{"features": [1.0], "label": 0.0, "weight": 0.5},
                  {"features": [1.0], "label": 2.0, "weight": 0.5}]},
     "concentration": {"kind": "gradient", "lambda": 0.5, "replicates": 20, "delta": 0.1}},
]

RUN_AND_LIST_LOADED = textwrap.dedent("""
    import json, sys
    from scerm.cli import main
    out, heavy, configs = sys.argv[1], sys.argv[2].split(","), sys.argv[3:]
    codes = [main(["--config", cfg, "--out", out, "--quiet"]) for cfg in configs]
    print(json.dumps([codes, [name for name in heavy if name in sys.modules]]))
""")


def test_cli_runs_leave_the_heavy_modules_unloaded(tmp_path):
    configs = []
    for doc in TINY_RUNS:
        configs.append(str(tmp_path / f"{doc['command']}.yaml"))
        pathlib.Path(configs[-1]).write_text(yaml.safe_dump(doc))
    proc = subprocess.run([sys.executable, "-c", RUN_AND_LIST_LOADED, str(tmp_path / "out"),
                           ",".join(HEAVY), *configs], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == 5 and set(codes) <= {0, 1}
    assert loaded == []
