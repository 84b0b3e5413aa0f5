"""Tests of the benchmark harness: seeded inputs, tracer, gate and smoke runs.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import contextlib
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import afem2d
from afem2d import bank_weiser, estimators, problems
from afem2d.mesh import IndicatorField

import run as bench
import tracer as tr
import workloads as W

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# Budgets small enough for a test, large enough for several refinements.
SMOKE_DOFS = {"lshaped-bw21": 1500, "goal-bw42": 600, "bsing-res": 1500, "mixed-zz": 1500}
SEED = 3


def smoke(name, band=(0.0, math.inf)):
    """The workload at its smoke budget.  Its efficiency band belongs to the
    full budget, so a tiny run gets ``band`` instead."""
    return dataclasses.replace(
        W.WORKLOADS[name], max_dofs=SMOKE_DOFS[name], max_iterations=None, band=band
    )


@pytest.fixture(scope="module")
def prepared():
    """Set-up (problem and goal reference) of every workload, once."""
    return {name: W.setup(w, SEED) for name, w in W.WORKLOADS.items()}


@contextlib.contextmanager
def scaled_indicators(factor):
    """Every estimator the workloads use, with its indicators times factor."""
    bw, res, zz = bank_weiser.estimate, estimators.residual_estimate, estimators.zz_estimate

    def bw_scaled(*args, **kwargs):
        field, lift = bw(*args, **kwargs)
        return IndicatorField(field.values * factor), lift

    bank_weiser.estimate = bw_scaled
    estimators.residual_estimate = lambda *a, **k: IndicatorField(res(*a, **k).values * factor)
    estimators.zz_estimate = lambda *a, **k: IndicatorField(zz(*a, **k).values * factor)
    try:
        yield
    finally:
        bank_weiser.estimate, estimators.residual_estimate, estimators.zz_estimate = bw, res, zz


def traced_run(name, prepared):
    """(trace, tracer, wall seconds measured outside the root span)."""
    problem, reference = prepared[name]
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        tracer.run = "loop"
        start = time.perf_counter()
        with tracer.span("adapt.loop"):
            trace = W.run(smoke(name), problem, reference)
        wall_s = time.perf_counter() - start
    finally:
        uninstall()
    return trace, tracer, wall_s


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 7, 2**40 + 5])
def test_jitter_is_deterministic_and_valid(name, seed):
    workload = W.WORKLOADS[name]
    base = problems.make_problem(workload.problem).mesh
    first, second = W.jitter_mesh(base, seed), W.jitter_mesh(base, seed)
    np.testing.assert_array_equal(first.vertices, second.vertices)
    assert np.all(first.areas > 0)
    assert not np.array_equal(first.vertices, base.vertices)
    assert not np.array_equal(first.vertices, W.jitter_mesh(base, seed + 1).vertices)
    np.testing.assert_array_equal(first.cells, base.cells)
    np.testing.assert_array_equal(first.facets, base.facets)
    np.testing.assert_array_equal(first.facet_tags, base.facet_tags)
    on_boundary = np.unique(base.facets[base.boundary_facets()])
    np.testing.assert_array_equal(first.vertices[on_boundary], base.vertices[on_boundary])
    assert W.jitter_mesh(base, 0) is base


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_smoke_run_passes_gate(name, prepared):
    problem, reference = prepared[name]
    rows = W.trace_rows(W.run(smoke(name), problem, reference))
    assert len(rows) >= 3
    assert W.gate(rows, smoke(name)) == []


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_counts_repeat_and_numerics_unchanged(name, prepared):
    workload = W.WORKLOADS[name]
    problem, reference = prepared[name]
    untraced = W.run(smoke(name), problem, reference).to_csv()
    (trace_a, tracer_a, wall_s), (trace_b, tracer_b, _) = (
        traced_run(name, prepared) for _ in range(2)
    )
    assert trace_a.to_csv() == trace_b.to_csv() == untraced
    counts_a, counts_b = tr.counts(tracer_a), tr.counts(tracer_b)
    assert counts_a == counts_b
    for key in ("element.tabulate.points", "mesh.refine.added", "mesh.refine.marked"):
        assert counts_a[key] > 0
    assert ("fem.solve.cg_iters" in counts_a) == (workload.solver == "cg")
    table = tr.breakdown(tracer_a)
    assert {k: v["calls"] for k, v in table.items()} == {
        k: v["calls"] for k, v in tr.breakdown(tracer_b).items()
    }
    assert set(table) <= set(bench.ROOT_SPANS + bench.LAYERS)
    assert table["mesh.refine"]["calls"] == len(trace_a.rows) - 1
    assert bench._tiles(sum(row["self_s"] for row in table.values()), wall_s)
    # A span recorded outside the root breaks the sum.
    tracer_a.spans.append({"name": "fem.solve", "start": 0.0, "end": 0.1, "parent": None,
                           "run": "loop", "maxrss_growth_mb": 0.0})
    table = tr.breakdown(tracer_a)
    assert not bench._tiles(sum(row["self_s"] for row in table.values()), wall_s)


def test_uninstall_restores_every_function(prepared):
    before = {id(m): dict(vars(m)) for m in tr.MODULES}
    traced_run("bsing-res", prepared)
    for module in tr.MODULES:
        assert dict(vars(module)) == before[id(module)], module.__name__
    assert afem2d.adapt.refine is afem2d.mesh.refine
    assert not hasattr(afem2d.element.ReferenceElement.tabulate, "__wrapped__")


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_negative_control_fails_the_gate(name, prepared):
    problem, reference = prepared[name]
    rows = W.trace_rows(W.run(smoke(name), problem, reference))
    with scaled_indicators(10.0):
        scaled = W.trace_rows(W.run(smoke(name), problem, reference))
    # Dörfler marking is scale invariant: same meshes, a larger estimate.
    # The goal estimate eta_u * eta_z scales with the square of the factor.
    growth = 100.0 if problem.goal is not None else 10.0
    assert [r[0] for r in scaled] == [r[0] for r in rows]
    expected = [(n, eta * growth, err, eff * growth) for n, eta, err, eff in rows]
    np.testing.assert_allclose(scaled, expected, rtol=1e-12)
    efficiency = rows[-1][3]
    workload = smoke(name, band=(efficiency / 1.5, efficiency * 1.5))
    assert W.gate(rows, workload) == []
    assert any("efficiency" in reason for reason in W.gate(scaled, workload))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_band_rejects_scaled_estimate(name):
    low, high = W.WORKLOADS[name].band
    assert 10.0 * low > high


def test_gate_reasons():
    dofs = W.Workload("w", "lshaped", "zz", "cg", (0.9, 1.1), max_dofs=20)
    iterations = dataclasses.replace(dofs, max_dofs=None, max_iterations=1)
    good = [(10, 1.0, 1.0, 1.0), (20, 0.5, 0.5, 1.0)]
    assert W.gate(good, dofs) == W.gate(good, iterations) == []
    assert W.gate([], dofs) == ["empty trace"]
    assert "increase" in W.gate([good[1], good[1]], dofs)[0]
    assert "budget" in W.gate(good[:1], dofs)[0]
    assert "budget" in W.gate(good[:1], iterations)[0]
    assert "finite" in W.gate([(10, math.nan, 1.0, 1.0), good[1]], dofs)[0]
    assert "finite" in W.gate([(10, 1.0, 0.0, 1.0), good[1]], dofs)[0]
    assert "efficiency" in W.gate(good, dataclasses.replace(dofs, band=(1.5, 2.0)))[0]


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.WORKLOADS) == set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bsing-res", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
