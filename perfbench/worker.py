"""One benchmark process: set a workload up in a fresh interpreter and run it.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (set up only), ``measure`` (set up, then alternate the
host-speed probe of ``probe.py`` with runs of the workload while the next
run still fits in SECONDS; at least one run) or
``trace`` (set up and run once with every layer wrapped by the tracer).
Prints one JSON object.  ``run.py`` starts it with the BLAS threads pinned;
set-up time counts from the first line of this file, before afem2d, NumPy
and SciPy are imported.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_library():
    if not (SRC / "afem2d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no afem2d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import afem2d

    if Path(afem2d.__file__).resolve().parent != (SRC / "afem2d").resolve():
        sys.exit(f"perfbench: imported afem2d from {afem2d.__file__}, not {SRC}")


_import_library()

import probe  # noqa: E402
import workloads  # noqa: E402


def _openblas_threads():
    """Thread count reported by every OpenBLAS loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(workload):
    """Library versions, BLAS build and threads, and the workload's budget."""
    import dataclasses

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas.get('version', '')}".strip(),
        "blas_threads_runtime": _openblas_threads(),
        "budget": dataclasses.asdict(workload),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_run(workload, problem, reference, span=None):
    """One adaptive run: wall seconds, trace rows, CSV and gate verdict."""
    start = time.perf_counter()
    try:
        with span or contextlib.nullcontext():
            trace = workloads.run(workload, problem, reference)
    except Exception as exc:  # a failing run is counted, not fatal
        return {"wall_s": time.perf_counter() - start, "rows": [], "csv": "",
                "reasons": [f"{type(exc).__name__}: {exc}"]}
    wall = time.perf_counter() - start
    rows = workloads.trace_rows(trace)
    return {
        "wall_s": wall,
        "rows": rows,
        "csv": trace.to_csv(),
        "reasons": workloads.gate(rows, workload),
    }


def measure(workload, seed, seconds):
    problem, reference = workloads.setup(workload, seed)
    setup_s = time.perf_counter() - START
    probe.seconds()  # the first call pays for page faults and lazy imports
    begin = time.perf_counter()
    probes = [probe.seconds()]
    runs = [_timed_run(workload, problem, reference)]
    # Peak memory of set-up plus one run: later runs reuse the freed heap,
    # and how many of them fit in SECONDS depends on the machine's speed.
    peak_rss_mb = _peak_rss_mb()
    probes.append(probe.seconds())
    step = time.perf_counter() - begin
    while time.perf_counter() - begin + step <= seconds:
        start = time.perf_counter()
        runs.append(_timed_run(workload, problem, reference))
        probes.append(probe.seconds())
        step = max(step, time.perf_counter() - start)
    for run, before, after in zip(runs, probes, probes[1:]):
        run["probe_s"] = (before + after) / 2
        run["ref_wall_s"] = run["wall_s"] * probe.REFERENCE_S / run["probe_s"]
    return {"setup_s": setup_s, "runs": runs, "peak_rss_mb": peak_rss_mb,
            "environment": environment(workload)}


def trace(workload, seed):
    import tracer as tr

    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        tracer.run = "setup"
        start = time.perf_counter()
        with tracer.span("setup"):
            problem, reference = workloads.setup(workload, seed, wrap=tracer.data)
        setup_wall_s = time.perf_counter() - start
        tracer.run = "loop"
        result = _timed_run(workload, problem, reference, tracer.span("adapt.loop"))
    finally:
        uninstall()
    return {
        "run": result,
        "setup_wall_s": setup_wall_s,
        "spans": tracer.spans,
        "all": tr.breakdown(tracer),
        "loop": tr.breakdown(tracer, "loop"),
        "setup": tr.breakdown(tracer, "setup"),
        "counts": tr.counts(tracer),
        "loop_counts": tr.counts(tracer, "loop"),
    }


def main(argv):
    mode, name, seed, seconds = argv
    workload = workloads.WORKLOADS[name]
    seed, seconds = int(seed), float(seconds)
    if mode == "setup":
        workloads.setup(workload, seed)
        out = {"setup_s": time.perf_counter() - START}
    elif mode == "measure":
        out = measure(workload, seed, seconds)
    elif mode == "trace":
        out = trace(workload, seed)
    else:
        sys.exit(f"perfbench: unknown worker mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
