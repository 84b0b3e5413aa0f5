"""Workload definitions, seeded inputs and the correctness gate.

Every workload is a P1 Dörfler (theta = 0.5) adaptive run of one of the
library's benchmark problems.  The seed jitters the interior vertices of
the problem's initial mesh; boundary vertices, cells and boundary tags are
kept, so the re-entrant corner and the tagged edges do not move.  Seed 0
is the unperturbed mesh of the paper.
"""

import dataclasses
import math

import numpy as np

from afem2d import adapt, fem, problems
from afem2d.mesh import Mesh

# Largest interior-vertex shift, as a fraction of the shortest initial edge.
# Small enough that no cell comes close to inverting (the initial meshes
# are made of right isosceles triangles), large enough to break the
# mirror symmetry of the L-shape.
JITTER = 0.02


@dataclasses.dataclass(frozen=True)
class Workload:
    """One adaptive run configuration plus its correctness band.

    The budget is ``max_dofs`` or ``max_iterations``.  ``band`` bounds the
    final efficiency (eta / err) of a correct run.  It was fixed from the
    seeds run while the benchmark was built, with room for the spread the
    seed itself causes and for roundoff-level changes of the Dörfler cut;
    a wrong estimator scale or a wrong solution lands far outside.
    """

    name: str
    problem: str
    estimator: str
    solver: str
    band: tuple
    max_dofs: int | None = None
    max_iterations: int | None = None

    def config(self):
        return adapt.AdaptConfig(
            estimator=self.estimator,
            degree=1,
            marking="dorfler",
            theta=0.5,
            max_dofs=self.max_dofs,
            max_iterations=self.max_iterations,
            solver=self.solver,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lshaped-bw21", "lshaped", "bw:2,1", "cg", (1.22, 1.34), max_dofs=30000),
        Workload("goal-bw42", "lshaped-goal", "bw:4,2", "lu", (2.5, 24.0), max_dofs=5000),
        # Under the seed jitter the dof count of this problem's iterates
        # shifts by up to one refinement step, so a dof budget would stop
        # some seeds a whole (1.4x larger) mesh later than others.  Twenty
        # refinements keep a run short enough that several fit in one
        # measurement.
        Workload("bsing-res", "boundary-sing", "res", "cg", (15.0, 19.0), max_iterations=20),
        Workload("mixed-zz", "lshaped-mixed", "zz", "cg", (0.89, 0.98), max_dofs=20000),
    )
}


def jitter_mesh(mesh, seed):
    """Copy of ``mesh`` with its interior vertices moved by a seeded shift."""
    if seed == 0:
        return mesh
    rng = np.random.default_rng(seed)
    boundary = mesh.boundary_facets()
    fixed = np.zeros(mesh.num_vertices, dtype=bool)
    fixed[mesh.facets[boundary].ravel()] = True
    interior = np.flatnonzero(~fixed)
    vertices = np.array(mesh.vertices)
    step = JITTER * mesh.facet_lengths().min()
    vertices[interior] += rng.uniform(-step, step, size=(interior.size, 2))
    tags = {
        (int(a), int(b)): int(t)
        for (a, b), t in zip(mesh.facets[boundary], mesh.facet_tags[boundary])
    }
    return Mesh(vertices, mesh.cells, boundary=tags)


def make_problem(workload, seed, wrap=None):
    """The workload's problem on the seed's mesh, audited.

    ``wrap`` maps each data callable of the problem to a replacement; the
    tracer uses it to time the problem's data evaluation.
    """
    base = problems.make_problem(workload.problem)
    fields = {"mesh": jitter_mesh(base.mesh, seed)}
    if wrap is not None:
        for name in ("f", "g", "u_dirichlet", "u_exact", "grad_exact"):
            fn = getattr(base, name)
            if fn is not None:
                fields[name] = wrap(fn)
    return problems.audit(dataclasses.replace(base, **fields))


def prepare_operators(workload, mesh):
    """Build the operators the library caches on first use.

    The P1 space on ``mesh`` builds the P1 reference element.  A hierarchical
    estimator caches its reference elements and kernel basis on its first
    call, so one estimate of a zero function moves that work into set-up.
    """
    space = fem.FunctionSpace(mesh, 1)
    if workload.estimator.startswith("bw:"):
        zero = fem.FEFunction(space, np.zeros(space.num_dofs))
        adapt.resolve_estimator(workload.estimator)(zero, lambda x, y: 0.0 * x, None)


def setup(workload, seed, wrap=None):
    """Everything a run needs before its first solve: (problem, reference)."""
    problem = make_problem(workload, seed, wrap)
    prepare_operators(workload, problem.mesh)
    reference = None
    if problem.goal is not None:
        reference = adapt.reference_goal_value(problem, 1)
    return problem, reference


def run(workload, problem, reference):
    """One adaptive run; returns the library's trace."""
    config = workload.config()
    if problem.goal is not None:
        return adapt.goal_adapt_loop(problem, config, reference=reference).trace
    return adapt.adapt_loop(problem, config).trace


def gate(rows, workload):
    """Reasons a finished run of ``workload`` is wrong; empty when it passes.

    ``rows`` holds (ndof, eta, err, efficiency) per iteration.
    """
    reasons = []
    if not rows:
        return ["empty trace"]
    ndof = [r[0] for r in rows]
    if any(b <= a for a, b in zip(ndof, ndof[1:])):
        reasons.append("ndof does not increase strictly")
    if workload.max_dofs is not None and ndof[-1] < workload.max_dofs:
        reasons.append(f"stopped at {ndof[-1]} dofs, below the budget {workload.max_dofs}")
    if workload.max_iterations is not None and len(rows) != workload.max_iterations + 1:
        reasons.append(f"stopped at iteration {len(rows) - 1}, budget {workload.max_iterations}")
    for i, (_, eta, err, _) in enumerate(rows):
        if not (math.isfinite(eta) and eta > 0 and math.isfinite(err) and err > 0):
            reasons.append(f"iteration {i}: eta={eta!r} err={err!r} not finite and positive")
            break
    efficiency = rows[-1][3]
    low, high = workload.band
    if not low <= efficiency <= high:
        reasons.append(f"final efficiency {efficiency!r} outside {workload.band}")
    return reasons


def trace_rows(trace):
    return [(r.num_dofs, r.eta, r.err, r.efficiency) for r in trace.rows]
