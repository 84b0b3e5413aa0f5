"""Spans and counts around the library's layer functions, from outside it.

``install`` replaces the public functions of each afem2d module (and the
tabulation methods of the reference element) by timing wrappers, in every
module namespace that refers to them, and returns a function that puts the
originals back.  Each call records a span: name, start, end, parent span,
run id, and the growth of the process's peak resident memory during it.
The wrappers return exactly what the wrapped functions return, so a traced
run computes the same numbers as an untraced one.
"""

import contextlib
import functools
import resource
import time
from collections import defaultdict

import numpy as np

import afem2d
from afem2d import adapt, bank_weiser, element, estimators, fem, mesh, problems

MODULES = (afem2d, adapt, bank_weiser, element, estimators, fem, mesh, problems)

DATA_EVAL = "problems.data_eval"


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span and count store; ``run`` labels what is recorded."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rss = _maxrss_mb()
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["maxrss_growth_mb"] = _maxrss_mb() - rss
            self._stack.pop()

    def count(self, key, value=1):
        self.counts[(self.run, key)] += value

    def timed(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def data(self, fn):
        """Wrap one of a problem's data callables ``fn(x, y, ...)``."""
        return self.timed(DATA_EVAL, fn, self._count_points)

    def _count_points(self, args, result):
        self.count(DATA_EVAL + ".points", np.size(args[0]))


class _CountingLinalg:
    """``scipy.sparse.linalg`` with a CG that counts its iterations."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._module, name)

    def cg(self, *args, **kwargs):
        def callback(xk):
            self._tracer.count("fem.solve.cg_iters")

        return self._module.cg(*args, callback=callback, **kwargs)


def install(tracer):
    """Wrap every layer function; returns a function that unwraps them."""
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(module, attr, name, after=None):
        original = getattr(module, attr)
        wrapper = tracer.timed(name, original, after)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, key, wrapper)

    def wrap_method(cls, attr, name, after=None):
        replace(cls, attr, tracer.timed(name, getattr(cls, attr), after))

    def refined(args, result):
        old, marked = args[0], args[1]
        tracer.count("mesh.refine.marked", np.unique(np.asarray(marked)).size)
        tracer.count("mesh.refine.added", result.num_cells - old.num_cells)

    def solved(args, result):
        tracer.count("fem.matrix_nnz", args[0].matrix.nnz)

    def estimated(args, result):
        tracer.count("bank_weiser.cells", args[0].space.mesh.num_cells)

    def tabulated(args, result):
        tracer.count("element.tabulate.points", len(args[1]))

    def goal_data(args, result):
        tracer.count(DATA_EVAL + ".points", np.size(args[1]))

    wrap_function(adapt, "evaluate_goal", "adapt.evaluate_goal")
    wrap_function(adapt, "reference_goal_value", "adapt.reference_goal_value")
    wrap_function(bank_weiser, "estimate", "bank_weiser.estimate", estimated)
    wrap_function(bank_weiser, "local_system", "bank_weiser.local_system")
    wrap_function(bank_weiser, "nullspace", "bank_weiser.nullspace")
    wrap_function(estimators, "residual_estimate", "estimators.residual_estimate")
    wrap_function(estimators, "zz_estimate", "estimators.zz_estimate")
    wrap_function(fem, "apply_dirichlet", "fem.apply_dirichlet")
    wrap_function(fem, "assemble_load", "fem.assemble_load")
    wrap_function(fem, "assemble_poisson", "fem.assemble_poisson")
    wrap_function(fem, "assemble_stiffness", "fem.assemble_stiffness")
    wrap_function(fem, "h1_seminorm_error", "fem.h1_seminorm_error")
    wrap_function(fem, "solve", "fem.solve", solved)
    wrap_function(mesh, "build_connectivity", "mesh.build_connectivity")
    wrap_function(mesh, "mark_dorfler", "mesh.mark_dorfler")
    wrap_function(mesh, "refine", "mesh.refine", refined)
    wrap_function(problems, "audit", "problems.audit")
    wrap_method(fem.FunctionSpace, "__init__", "fem.FunctionSpace")
    for method in ("tabulate", "tabulate_grad", "tabulate_hess"):
        wrap_method(element.ReferenceElement, method, "element.tabulate", tabulated)
    wrap_method(problems.GoalSpec, "c", DATA_EVAL, goal_data)
    replace(fem, "spla", _CountingLinalg(fem.spla, tracer))

    def uninstall():
        while undo:
            owner, attr, value = undo.pop()
            setattr(owner, attr, value)

    return uninstall


def _outermost(spans, index, name):
    """False when an enclosing span has the same name (no double count)."""
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return False
        parent = spans[parent]["parent"]
    return True


def breakdown(tracer, run=None):
    """Per span name: inclusive seconds, self seconds, calls, memory growth.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of every span under a root add up to the
    root's duration.  ``run`` restricts the table to one run id.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    table = {}
    for i, s in enumerate(spans):
        if run is not None and s["run"] != run:
            continue
        row = table.setdefault(
            s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "maxrss_growth_mb": 0.0}
        )
        duration = s["end"] - s["start"]
        if _outermost(spans, i, s["name"]):
            row["s"] += duration
        row["self_s"] += duration - child_time[i]
        row["calls"] += 1
        row["maxrss_growth_mb"] += s["maxrss_growth_mb"]
    return table


def counts(tracer, run=None):
    out = defaultdict(float)
    for (r, key), value in tracer.counts.items():
        if run is None or r == run:
            out[key] += value
    return dict(out)
