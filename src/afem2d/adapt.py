"""The solve-estimate-mark-refine loop and goal-oriented weighting."""

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import bank_weiser as bw
from . import estimators
from . import quadrature as quad
from .element import MAX_DEGREE, _is_integer, _is_real
from .fem import (
    COARSE_DOFS,
    LOOP_RTOL,
    FEFunction,
    FunctionSpace,
    MeshHierarchy,
    assemble_load,
    assemble_poisson,
    cell_blocks,
    dirichlet_rhs,
    h1_seminorm_error,
    solve,
)
from .mesh import (
    IndicatorField, _indicator_values, mark_dorfler, mark_maximum, refine, uniform_refine,
)

_BW_SELECTOR = re.compile(r"bw:(\d+),(\d+)")


def resolve_estimator(selector):
    """Map a selector string to a callable (u, f, g, factors=None) ->
    IndicatorField.

    Grammar: ``bw:K+,K-`` | ``bw:bubble`` | ``res`` | ``zz``.  ``factors``
    is forwarded to the hierarchical estimators (see
    :func:`~afem2d.bank_weiser.estimate`); ``res`` and ``zz`` ignore it.
    """
    s = selector.strip()
    if s == "res":
        return lambda u, f, g, factors=None: estimators.residual_estimate(u, f, g)
    if s == "zz":
        return lambda u, f, g, factors=None: estimators.zz_estimate(u)
    if s == "bw:bubble":
        return lambda u, f, g, factors=None: bw.estimate_bubble(u, f, g, factors=factors)[0]
    match = _BW_SELECTOR.fullmatch(s)
    if match:
        pair = bw.validate_pair((int(match.group(1)), int(match.group(2))))
        return lambda u, f, g, factors=None: bw.estimate(
            u, f, g, pair=pair, factors=factors)[0]
    raise ValueError(f"unknown estimator selector: {selector!r}")


@dataclass
class AdaptConfig:
    """Settings for one adaptive run.

    At least one stopping rule (max_dofs, tol, max_iterations) must be
    set; they are checked in that order after each solve.  ``degree`` is
    an integer from 1 to ``MAX_DEGREE``, ``max_dofs`` an integer >= 1 and
    ``max_iterations`` an integer >= 0, ``theta`` a real in (0, 1] and
    ``tol`` a finite real > 0 (a bool is none of them).  Settings that no
    run could complete with are rejected here, before any assembly.
    """

    estimator: str = "bw:2,1"
    degree: int = 1
    marking: str = "dorfler"
    theta: float = 0.5
    max_dofs: int | None = None
    tol: float | None = None
    max_iterations: int | None = None
    solver: str = "cg"

    def __post_init__(self):
        if self.marking not in ("dorfler", "maximum"):
            raise ValueError(f"unknown marking strategy: {self.marking!r}")
        if not (_is_real(self.theta) and 0.0 < self.theta <= 1.0):
            raise ValueError(f"marking fraction must be in (0, 1], got {self.theta!r}")
        if self.max_dofs is None and self.tol is None and self.max_iterations is None:
            raise ValueError("need at least one stopping rule")
        for name, low in (("max_iterations", 0), ("max_dofs", 1)):
            value = getattr(self, name)
            if value is not None and not (_is_integer(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.tol is not None and not (_is_real(self.tol) and math.isfinite(self.tol)
                                         and self.tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol!r}")
        if self.solver not in ("cg", "lu"):
            raise ValueError(f"unknown solver method: {self.solver!r}")
        if not (_is_integer(self.degree) and 1 <= self.degree <= MAX_DEGREE):
            raise ValueError(f"unsupported space degree: {self.degree!r}")
        if not isinstance(self.estimator, str):
            raise ValueError(f"estimator selector must be a string, got {self.estimator!r}")
        self.estimator = self.estimator.strip()
        resolve_estimator(self.estimator)
        if self.estimator == "zz" and self.degree != 1:
            raise ValueError("gradient recovery (zz) requires degree 1")


@dataclass
class TraceRow:
    iteration: int
    num_dofs: int
    eta: float
    err: float
    efficiency: float
    num_marked: int


@dataclass
class AdaptTrace:
    """Per-iteration record of an adaptive run; serializes to CSV."""

    rows: list = field(default_factory=list)

    HEADER = "iter,ndof,eta,err,efficiency,nmarked"

    def append(self, row):
        if self.rows and row.num_dofs <= self.rows[-1].num_dofs:
            raise ValueError("DOF counts must increase strictly across iterations")
        self.rows.append(row)

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])

    def to_csv(self):
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(
                f"{r.iteration},{r.num_dofs},{r.eta:.12e},{r.err:.12e},"
                f"{r.efficiency:.12e},{r.num_marked}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_csv())


def loglog_slope(x, y, points=4):
    """Least-squares slope of log y against log x over the trailing points."""
    x = np.asarray(x, dtype=float)[-points:]
    y = np.asarray(y, dtype=float)[-points:]
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@dataclass
class AdaptResult:
    """Final state of an adaptive run; goal runs also carry the dual
    solution and the reference goal value their errors are measured from."""

    trace: AdaptTrace
    mesh: object
    solution: FEFunction
    indicator: IndicatorField
    dual: FEFunction | None = None
    reference: float | None = None


def _stop(config, num_dofs, eta, iteration):
    if config.max_dofs is not None and num_dofs >= config.max_dofs:
        return True
    if config.tol is not None and eta <= config.tol:
        return True
    if config.max_iterations is not None and iteration >= config.max_iterations:
        return True
    return False


def adapt_loop(problem, config, reference=None):
    """Drive solve/estimate/mark/refine on a benchmark problem.

    The trace's err is :func:`h1_seminorm_error`: by Green's identity on
    the boundary when the problem has no source (``f`` None, so
    ``u_exact`` is harmonic), else by the volume rule.  Nothing the loop
    decides reads err.

    A problem with a goal functional adds a dual solve on every mesh and
    marks by the WGO weighting of the primal and dual indicators; the
    trace's eta/err columns then carry the weighted estimator and the
    goal error |reference - J(u_h)|.  The dual shares the primal's matrix
    and Dirichlet DOFs, so it is a second right-hand-side column, and its
    estimate shares the primal's factors of the local systems.  J(u_h) is
    the raw dual load (the goal density c by ``assemble_load``'s rule of
    order 2k + 1) applied to u_h's coefficients; :func:`evaluate_goal`
    (order 2k + 3) serves the ``fe`` reference.  c is evaluated only on
    the cells its support can reach
    (:meth:`~afem2d.problems.GoalSpec.support_cells`).  ``reference``
    defaults to :func:`reference_goal_value` and is used only with a goal.

    Under ``cg`` each mesh's space and system join one
    :class:`~afem2d.fem.MeshHierarchy`, whose V-cycle preconditions the
    solve.  At degree 1 each solve on a mesh above ``COARSE_DOFS`` starts
    from the previous mesh's solution, each column from its own: old
    vertices keep their values, each new vertex takes the mean of its
    ``Mesh.parents`` pair, and the Dirichlet DOFs take the new system's
    values (:func:`~afem2d.fem.prolongation` would zero them).  Below
    ``COARSE_DOFS`` the V-cycle is the exact solve and CG starts from
    zero, which keeps the bits that decide the L-shape's mirror-symmetric
    Dörfler ties.  CG stops at :data:`~afem2d.fem.LOOP_RTOL` (3e-11), a
    third of ``solve``'s unchanged 1e-10 residual check: the digits it
    leaves unresolved lie below what the estimator and the error can see.
    ``lu`` takes no tolerance, and the reference keeps ``solve``'s 1e-12.
    """
    goal = problem.goal
    if goal is not None and reference is None:
        reference = reference_goal_value(problem, config.degree)
    estimator = resolve_estimator(config.estimator)
    mark = mark_dorfler if config.marking == "dorfler" else mark_maximum
    mesh = problem.mesh
    hierarchy = MeshHierarchy() if config.solver == "cg" else None
    nested = hierarchy is not None and config.degree == 1
    trace = AdaptTrace()
    iteration, previous = 0, None
    while True:
        space = FunctionSpace(mesh, config.degree)
        system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
        precond = None if hierarchy is None else hierarchy.add(space, system)
        if goal is not None:
            load = assemble_load(space, goal)
            dual = dirichlet_rhs(load, system.dirichlet_dofs, 0.0)
            system.rhs = np.column_stack([system.rhs, dual])
        start = None
        if nested and previous is not None and mesh.num_vertices > COARSE_DOFS:
            # Old vertices keep their values, new ones take their parents' mean.
            start = np.concatenate([previous, previous[mesh.parents].mean(axis=1)])
            start[system.dirichlet_dofs] = system.rhs[system.dirichlet_dofs]
        x = solve(system, method=config.solver, rtol=LOOP_RTOL, M=precond, x0=start)
        previous, z = x, None
        if goal is not None:
            u, z = (FEFunction(space, column) for column in x.T)
            factors = {}
            indicator, eta = wgo_indicators(
                estimator(u, problem.f, problem.g, factors), estimator(z, goal, None, factors)
            )
            err = abs(reference - float(load @ u.coeffs))
        else:
            u = FEFunction(space, x)
            indicator = estimator(u, problem.f, problem.g)
            eta = indicator.global_value
            if problem.grad_exact is not None:
                harmonic = problem.u_exact if problem.f is None else None
                err = h1_seminorm_error(u, problem.grad_exact, u_exact=harmonic)
            else:
                err = float("nan")
        marked = mark(indicator, config.theta)
        efficiency = eta / err if err > 0 else float("nan")
        trace.append(
            TraceRow(iteration, space.num_dofs, eta, err, efficiency, len(marked))
        )
        if _stop(config, space.num_dofs, eta, iteration) or marked.size == 0:
            return AdaptResult(trace, mesh, u, indicator, z, reference)
        mesh = refine(mesh, marked)
        iteration += 1


def evaluate_goal(u, c):
    """Goal functional <c, u_h> by quadrature; c is evaluated by
    :func:`~afem2d.fem.cell_blocks` (a GoalSpec on its support only)."""
    space = u.space
    pts, wts = quad.triangle_rule(2 * space.degree + 3)
    cv = np.empty((space.mesh.num_cells, len(pts)))
    for cells, values in cell_blocks(space.mesh, c, pts):
        cv[cells] = 0.0 if values is None else values
    uv = np.einsum("ci,qi->cq", u.cell_coeffs(), space.element.tabulate(pts))
    return float(np.einsum("cq,cq,q,c->", cv, uv, wts, space.mesh.det))


def assemble_dual(space, c):
    """Dual Poisson system: load ``c``, homogeneous Dirichlet data."""
    return assemble_poisson(space, c, g=None, u_dirichlet=None)


def wgo_indicators(primal, dual):
    """Weighted goal indicators from primal and dual indicator fields.

    Returns (IndicatorField, eta_w) with

        eta_w,T^2 = (eta_z^2 eta_u,T^2 + eta_u^2 eta_z,T^2)
                    / (eta_u^2 + eta_z^2)
        eta_w     = eta_u * eta_z
    """
    pu, pz = _indicator_values(primal), _indicator_values(dual)
    su = float(np.sum(pu**2))
    sz = float(np.sum(pz**2))
    if su + sz == 0.0:
        return IndicatorField(np.zeros_like(pu)), 0.0
    w2 = (sz * pu**2 + su * pz**2) / (su + sz)
    return IndicatorField(np.sqrt(w2)), float(np.sqrt(su * sz))


def goal_adapt_loop(problem, config, reference=None):
    """:func:`adapt_loop` on a problem that must have a goal functional."""
    if problem.goal is None:
        raise ValueError(f"problem {problem.name!r} has no goal functional")
    return adapt_loop(problem, config, reference)


def reference_goal_value(
    problem, degree=1, method="fe", refinements=4, cache_path=None
):
    """High-accuracy J(u) for goal-error reporting, cached as a text file.

    ``fe`` solves once on the ``refinements``-times uniformly refined
    initial mesh with degree + 2 elements (at most 4), by conjugate
    gradients preconditioned by a one-mesh
    :class:`~afem2d.fem.MeshHierarchy` (the p-level over an exact P1
    solve): the only matrix factored is the P1 stiffness on that mesh, and
    the solve meets ``solve``'s 1e-10 residual check; on ``lshaped-goal``
    it sits about 2e-5 below the exact J, the discretization error of the
    corner singularity.  ``quadrature`` integrates c * u_exact by
    :func:`~afem2d.problems.goal_reference_quadrature`'s polar Gauss rule
    to about 1e-14, and needs the exact solution.  ``fe`` stays the
    default because perfbench's goal-bw42 band was fitted to efficiencies
    measured against it.  The cache file
    holds a key line (problem, method, degree, refinements and the goal
    density's parameters) and the value; a file with another key, or one
    that is truncated or unreadable, is recomputed and rewritten.
    """
    if problem.goal is None:
        raise ValueError(f"problem {problem.name!r} has no goal functional")
    spec = problem.goal
    key = (
        f"{problem.name} {method} degree={degree} refinements={refinements} "
        f"eps={spec.eps!r} xbar={spec.xbar!r} ybar={spec.ybar!r}"
    )
    if cache_path is not None:
        try:
            with open(cache_path) as handle:
                stored_key, text = handle.read().splitlines()[:2]
            if stored_key == key and math.isfinite(float(text)):
                return float(text)
        except (OSError, ValueError):
            pass  # missing, truncated or unreadable: recompute below
    if method == "fe":
        mesh = uniform_refine(problem.mesh, refinements)
        space = FunctionSpace(mesh, min(degree + 2, 4))
        system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
        u = FEFunction(space, solve(system, "cg", M=MeshHierarchy().add(space, system)))
        value = evaluate_goal(u, problem.goal)
    elif method == "quadrature":
        from .problems import goal_reference_quadrature

        value = goal_reference_quadrature(problem)
    else:
        raise ValueError(f"unknown goal reference method: {method!r}")
    if cache_path is not None:
        with open(cache_path, "w") as handle:
            handle.write(f"{key}\n{value:.17g}\n")
    return value
