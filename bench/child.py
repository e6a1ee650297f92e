"""One scerm CLI run in a fresh process, timed from outside the program.

    python3 bench/child.py SRC REPORT {plain|trace} [CLI ARGS...]

Imports ``scerm`` from SRC, calls ``scerm.cli.main`` with the CLI arguments
and writes REPORT, a JSON file of monotonic timestamps, the process's peak
resident memory, the BLAS thread counts and library versions, and, in
``trace`` mode, the per-layer metrics of ``spans.layer_metrics``. The
program's own files are not edited: set-up ends when ``build_population``, as bound in
``scerm.cli``, returns.
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time

# (key, file-name marker of the loaded library, thread-count symbol, config symbol)
OPENBLAS = (
    ("numpy", "libscipy_openblas64_", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_get_config64_"),
    ("scipy", "libscipy_openblas-", "scipy_openblas_get_num_threads",
     "scipy_openblas_get_config"),
)


def blas_record() -> dict:
    """Effective thread count and build string of both loaded OpenBLAS copies."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        loaded = {line.split()[-1] for line in fh if ".so" in line}
    record = {}
    for key, marker, threads_sym, config_sym in OPENBLAS:
        paths = sorted(p for p in loaded if marker in os.path.basename(p))
        if not paths:
            record[key] = {"threads": None, "config": None}
            continue
        lib = ctypes.CDLL(paths[0])
        get_threads = getattr(lib, threads_sym)
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config = getattr(lib, config_sym)
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        record[key] = {"threads": get_threads(), "config": get_config().decode()}
    return record


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv) -> int:
    src, report_path, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    import scerm
    import scerm.cli as cli

    package_dir = os.path.dirname(os.path.abspath(scerm.__file__))
    if package_dir != os.path.join(os.path.abspath(src), "scerm"):
        print(f"scerm imported from {scerm.__file__}, not from {src}", file=sys.stderr)
        return 3
    report = {}
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)

    build = cli.build_population

    def build_population(spec):
        try:
            return build(spec)
        finally:
            report["t_setup_end"] = time.monotonic()

    cli.build_population = build_population
    report["t_main"] = time.monotonic()
    report["rc"] = cli.main(cli_args)
    report["t_end"] = time.monotonic()
    report["peak_rss_mb"] = peak_rss_mb()
    import numpy
    import scipy

    report["environment"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas": blas_record(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer.spans)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
