"""afem2d benchmark: adaptive runs timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.py``, or ``all`` to run each in turn.  ``--trace 0`` times
untraced runs and reports the end-to-end metrics; ``--trace 1`` runs once
untraced and once with every layer wrapped, and reports the per-layer
metrics.  Every run is checked by the correctness gate.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record with the spans
goes to ``.perfbench/`` under the checkout.

Each run happens in a fresh worker process (``worker.py``) with the BLAS
threads pinned, so set-up includes importing the library.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("lshaped-bw21", "goal-bw42", "bsing-res", "mixed-zz")

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_SAMPLES = 3
# Time allowed per worker process for its set-up and one run, on top of
# the measured seconds.
WORKER_MARGIN_S = 50.0
# Self times may exceed or miss the wall time measured outside the root
# span by the cost of entering and leaving that span, and no more.
TILE_ABS_S = 1e-3
TILE_REL = 1e-4

LAYERS = (
    "adapt.evaluate_goal", "adapt.reference_goal_value",
    "bank_weiser.estimate", "bank_weiser.local_system", "bank_weiser.nullspace",
    "element.tabulate",
    "estimators.residual_estimate", "estimators.zz_estimate",
    "fem.FunctionSpace", "fem.apply_dirichlet", "fem.assemble_load",
    "fem.assemble_poisson", "fem.assemble_stiffness", "fem.h1_seminorm_error",
    "fem.solve",
    "mesh.build_connectivity", "mesh.mark_dorfler", "mesh.refine",
    "problems.audit", "problems.data_eval",
)
ROOT_SPANS = ("adapt.loop", "setup")


def per_layer_units():
    """Name -> unit of every metric a ``--trace 1`` run reports."""
    units = {}
    for name in ROOT_SPANS + LAYERS:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.maxrss_growth_mb"] = "MB"
    units.update({
        "adapt.iterations": "count",
        "mesh.refine.calls": "count",
        "mesh.closure_ratio": "cells/marked",
        "fem.solve.calls": "count",
        "fem.solve.cg_iters": "count",
        "fem.matrix_nnz": "count",
        "element.tabulate.points": "count",
        "problems.data_eval.points": "count",
        "bank_weiser.cells_per_s": "cells/s",
        "trace.overhead_s": "s",
    })
    return units


END_TO_END_UNITS = {"ref_wall_s": "s", "ref_dofs_per_s": "dof/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A worker process failed before it could report."""


def _worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _worker(mode, workload, seed, seconds, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


def _source_hash():
    digest = hashlib.sha256()
    for path in sorted((SRC / "afem2d").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(workload, seed, seconds, trace, environment):
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_hash(),
        "python": platform.python_version(),
        **environment,
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _failed(runs):
    return sum(1 for r in runs if r["reasons"])


def _tiles(self_sum_s, wall_s):
    return abs(self_sum_s - wall_s) <= TILE_ABS_S + TILE_REL * wall_s


def end_to_end(workload, seed, seconds, deadline):
    setups = [_worker("setup", workload, seed, 0, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    measured = _worker("measure", workload, seed, seconds, deadline)
    setups.append(measured["setup_s"])
    runs = measured["runs"]
    passed = [r for r in runs if not r["reasons"]] or runs

    def per_run(key):
        return {
            key: statistics.median(r[key] for r in passed),
            key.replace("wall_s", "dofs_per_s"): statistics.median(
                sum(row[0] for row in r["rows"]) / r[key] for r in passed
            ),
        }

    metrics = {
        **per_run("ref_wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    record = {"setup_samples_s": setups, "runs": runs, "raw_metrics": per_run("wall_s"),
              "environment": measured["environment"]}
    return metrics, len(runs), _failed(runs), True, record


def layers(workload, seed, deadline):
    measured = _worker("measure", workload, seed, 0, deadline)
    untraced = measured["runs"][0]
    traced = _worker("trace", workload, seed, 0, deadline)
    run = traced["run"]
    table, counts, loop = traced["all"], traced["counts"], traced["loop_counts"]
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0, "maxrss_growth_mb": 0.0}
    metrics = {}
    for name in ROOT_SPANS + LAYERS:
        row = table.get(name, zero)
        for key in ("s", "self_s", "maxrss_growth_mb"):
            metrics[f"{name}.{key}"] = row[key]
    estimate_s = traced["loop"].get("bank_weiser.estimate", zero)["s"]
    marked = loop.get("mesh.refine.marked", 0)
    metrics.update({
        "adapt.iterations": len(run["rows"]),
        "mesh.refine.calls": table.get("mesh.refine", zero)["calls"],
        "mesh.closure_ratio": loop.get("mesh.refine.added", 0) / marked if marked else 0.0,
        "fem.solve.calls": table.get("fem.solve", zero)["calls"],
        "fem.solve.cg_iters": counts.get("fem.solve.cg_iters", 0),
        "fem.matrix_nnz": counts.get("fem.matrix_nnz", 0),
        "element.tabulate.points": counts.get("element.tabulate.points", 0),
        "problems.data_eval.points": counts.get("problems.data_eval.points", 0),
        "bank_weiser.cells_per_s": (
            loop.get("bank_weiser.cells", 0) / estimate_s if estimate_s else 0.0
        ),
        "trace.overhead_s": table["adapt.loop"]["s"] - untraced["wall_s"],
    })
    # The self times of each run's spans must add up to its wall time,
    # measured outside the root span: a span left open, or one recorded
    # outside the root, breaks the sum.
    checks = {
        "csv_identical": run["csv"] == untraced["csv"] and bool(run["csv"]),
        "loop_wall_s": run["wall_s"],
        "loop_self_sum_s": sum(row["self_s"] for row in traced["loop"].values()),
        "setup_wall_s": traced["setup_wall_s"],
        "setup_self_sum_s": sum(row["self_s"] for row in traced["setup"].values()),
    }
    checks["self_times_tile"] = (
        _tiles(checks["loop_self_sum_s"], checks["loop_wall_s"])
        and _tiles(checks["setup_self_sum_s"], checks["setup_wall_s"])
    )
    record = {"checks": checks, "untraced_run": untraced, "traced_run": run,
              "breakdown": {"all": table, "setup": traced["setup"], "loop": traced["loop"]},
              "counts": {"all": counts, "loop": loop}, "spans": traced["spans"],
              "environment": measured["environment"]}
    ok = checks["csv_identical"] and checks["self_times_tile"]
    return metrics, 2, _failed([untraced, run]), ok, record


def bench(workload, seed, seconds, trace):
    """Run one workload; returns (result line dict, full record)."""
    if trace:
        deadline = time.monotonic() + 2 * WORKER_MARGIN_S
        metrics, attempted, failed, ok, record = layers(workload, seed, deadline)
        units = per_layer_units()
    else:
        deadline = time.monotonic() + seconds + SETUP_SAMPLES * WORKER_MARGIN_S
        metrics, attempted, failed, ok, record = end_to_end(workload, seed, seconds, deadline)
        units = END_TO_END_UNITS
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"stamp": stamp(workload, seed, seconds, trace, record.pop("environment")),
              "result": result, **record}
    return result, record


def _summary(workload, result, record):
    m = result["metrics"]
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in m.items()
             if k in END_TO_END_UNITS or k in ("adapt.loop.s", "trace.overhead_s")]
    raw = record.get("raw_metrics", {})
    parts += [f"{k}={v:.6g} {END_TO_END_UNITS['ref_' + k]}" for k, v in raw.items()]
    frac = result["failed"] / result["attempted"]
    parts.append(f"failed_frac={frac:g} ({result['failed']}/{result['attempted']})")
    return f"{workload}: " + "  ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "afem2d" / "__init__.py").is_file():
        print(f"perfbench: no afem2d sources under {SRC}", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, record = bench(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        print(json.dumps({"stamp": record["stamp"]}))
        print(_summary(name, result, record))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
