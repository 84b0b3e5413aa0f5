"""Tests for the adaptive loops, traces, and goal-oriented weighting."""

import dataclasses

import numpy as np
import pytest

from afem2d.adapt import (
    AdaptConfig,
    AdaptResult,
    AdaptTrace,
    TraceRow,
    adapt_loop,
    assemble_dual,
    evaluate_goal,
    goal_adapt_loop,
    loglog_slope,
    reference_goal_value,
    resolve_estimator,
    wgo_indicators,
)
from afem2d.fem import (
    FEFunction,
    FunctionSpace,
    MeshHierarchy,
    assemble_load,
    assemble_poisson,
    assemble_stiffness,
    interpolate,
    solve,
)
from afem2d.mesh import IndicatorField, uniform_refine
from afem2d.problems import (
    GoalSpec, boundary_singularity, lshaped, lshaped_goal, lshaped_mixed, unit_square_mesh,
)

from helpers import nested_start, two_solve_goal_trace

RNG = np.random.default_rng(20240820)

FROZEN_GOAL_REFERENCE = 2.01022918211522e-01


# ---------------------------------------------------------------------------
# estimator selectors and configuration
# ---------------------------------------------------------------------------


def test_resolve_estimator_accepts_grammar():
    for selector in ("res", "zz", "bw:bubble", "bw:2,1", "bw:4,3", " bw:3,0 "):
        assert callable(resolve_estimator(selector))


@pytest.mark.parametrize(
    "selector", ["bw:", "bw:5,1", "bw:2,2", "bw:0,0", "foo", "BW:2,1", "bw:2.1"]
)
def test_resolve_estimator_rejects_garbage(selector):
    with pytest.raises(ValueError):
        resolve_estimator(selector)


def test_resolve_estimator_callables_work():
    mesh = unit_square_mesh(2)
    u = interpolate(lambda x, y: x * x, FunctionSpace(mesh, 1))
    f = lambda x, y: np.ones_like(x)
    for selector in ("res", "zz", "bw:2,1", "bw:bubble"):
        field = resolve_estimator(selector)(u, f, None)
        assert isinstance(field, IndicatorField)
        assert len(field) == mesh.num_cells


def test_adapt_config_validation():
    AdaptConfig(max_iterations=3)  # baseline is fine
    AdaptConfig(theta=1.0, tol=1e-3)
    with pytest.raises(ValueError, match="marking"):
        AdaptConfig(marking="random", max_iterations=1)
    with pytest.raises(ValueError, match="fraction"):
        AdaptConfig(theta=0.0, max_iterations=1)
    with pytest.raises(ValueError, match="fraction"):
        AdaptConfig(theta=1.5, max_iterations=1)
    with pytest.raises(ValueError, match="stopping rule"):
        AdaptConfig()
    with pytest.raises(ValueError, match="selector"):
        AdaptConfig(estimator="nope", max_iterations=1)


@pytest.mark.parametrize(
    "settings",
    [
        {"estimator": "zz", "degree": 2},
        {"estimator": "zz", "degree": 4},
        {"degree": 0},
        {"degree": 5},
        {"estimator": "res", "degree": 1.5},
        {"degree": 2.0},
        {"degree": True},
    ],
)
def test_adapt_config_rejects_unrunnable_settings_before_assembly(monkeypatch, settings):
    import afem2d.adapt as adapt_module

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran before the configuration was checked")

    monkeypatch.setattr(adapt_module, "assemble_poisson", no_assembly)
    with pytest.raises(ValueError, match="degree"):
        adapt_loop(lshaped(), AdaptConfig(max_iterations=1, **settings))


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"solver": "qr", "max_iterations": 1}, "solver"),
        ({"tol": float("nan")}, "tolerance"),
        ({"tol": float("inf")}, "tolerance"),
        ({"tol": 0.0}, "tolerance"),
        ({"tol": -1e-3, "max_iterations": 1}, "tolerance"),
        ({"tol": True}, "tolerance"),
        ({"tol": "1e-3"}, "tolerance"),
        ({"theta": True, "max_iterations": 1}, "marking fraction"),
        ({"theta": "0.5", "max_iterations": 1}, "marking fraction"),
        ({"theta": 0.5j, "max_iterations": 1}, "marking fraction"),
        ({"estimator": 5, "max_iterations": 1}, "selector must be a string"),
        ({"estimator": None, "max_iterations": 1}, "selector must be a string"),
    ],
    ids=["solver-qr", "tol-nan", "tol-inf", "tol-zero", "tol-negative", "tol-bool", "tol-str",
         "theta-bool", "theta-str", "theta-complex", "estimator-int", "estimator-none"],
)
def test_adapt_config_rejects_unknown_solver_and_bad_tolerance(settings, message):
    """A bool is no real number here: theta=True used to run as theta = 1
    and tol=True as 1.0, and estimator=5 raised AttributeError."""
    with pytest.raises(ValueError, match=message):
        AdaptConfig(**settings)


@pytest.mark.parametrize(
    "name, value",
    [
        ("max_dofs", float("nan")),
        ("max_dofs", 0),
        ("max_dofs", -100),
        ("max_dofs", 2000.0),
        ("max_dofs", True),
        ("max_iterations", -3),
        ("max_iterations", 1.5),
        ("max_iterations", float("inf")),
    ],
)
def test_adapt_config_rejects_bad_stopping_rules(name, value):
    """A NaN dof budget would never stop the loop, and a negative or
    fractional count means nothing; both fail when the config is made."""
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        AdaptConfig(**{name: value})


def test_adapt_config_keeps_the_smallest_stopping_rules():
    assert AdaptConfig(max_iterations=0).max_iterations == 0
    assert AdaptConfig(max_dofs=1).max_dofs == 1
    assert AdaptConfig(max_dofs=np.int64(30000)).max_dofs == 30000
    assert AdaptConfig(degree=np.int64(2), max_dofs=200).degree == 2


def on_lshape_boundary(x, y, tol=1e-12):
    """Whether the points lie on the boundary of (-1, 1)^2 minus the third quadrant."""
    outer = (np.abs(np.abs(x) - 1.0) <= tol) | (np.abs(np.abs(y) - 1.0) <= tol)
    inner = ((np.abs(x) <= tol) & (y <= tol)) | ((np.abs(y) <= tol) & (x <= tol))
    return outer | inner


@pytest.mark.parametrize("make", [lshaped, lshaped_mixed])
def test_source_free_loop_evaluates_the_exact_gradient_on_the_boundary_only(make):
    """Without a source the loop's H1 error is Green's boundary identity:
    grad_exact is called at boundary points only, and the trace is that
    of the unspied problem."""
    problem, points = make(), []

    def spy(x, y):
        points.append((np.ravel(x), np.ravel(y)))
        return problem.grad_exact(x, y)

    config = AdaptConfig(estimator="zz", max_dofs=2000)
    trace = adapt_loop(dataclasses.replace(problem, grad_exact=spy), config).trace
    assert len(points) == len(trace.rows)
    x, y = (np.concatenate(axis) for axis in zip(*points))
    assert x.size and on_lshape_boundary(x, y).all()
    assert trace.to_csv() == adapt_loop(problem, config).trace.to_csv()


def test_problems_with_a_source_keep_the_volume_rule(monkeypatch):
    """boundary-sing (f ~ x^-1.3) passes no u_exact, so its trace is the
    volume rule's bit for bit; the goal loop never evaluates the H1 error."""
    import afem2d.adapt as adapt_module
    from afem2d import fem

    problem = boundary_singularity()
    config = AdaptConfig(estimator="res", max_dofs=3000)
    calls = []

    def rule_only(u, grad_exact, u_exact=None):
        calls.append(u_exact)
        return fem.h1_seminorm_error(u, grad_exact)

    monkeypatch.setattr(adapt_module, "h1_seminorm_error", rule_only)
    want = adapt_loop(problem, config).trace.to_csv()
    assert calls and all(u_exact is None for u_exact in calls)
    monkeypatch.undo()
    assert adapt_loop(problem, config).trace.to_csv() == want

    def no_error(*args, **kwargs):
        raise AssertionError("the goal loop evaluated the H1 error")

    monkeypatch.setattr(adapt_module, "h1_seminorm_error", no_error)
    goal = AdaptConfig(estimator="bw:2,1", solver="lu", max_iterations=2)
    assert len(adapt_loop(lshaped_goal(), goal, FROZEN_GOAL_REFERENCE).trace.rows) == 3


# ---------------------------------------------------------------------------
# traces and slopes
# ---------------------------------------------------------------------------


def _row(i, ndof, eta=1.0):
    return TraceRow(i, ndof, eta, 2.0 * eta, 0.5, 7)


def test_trace_requires_increasing_dofs():
    trace = AdaptTrace()
    trace.append(_row(0, 100))
    trace.append(_row(1, 150))
    with pytest.raises(ValueError, match="increase"):
        trace.append(_row(2, 150))


def test_trace_columns_and_csv(tmp_path):
    trace = AdaptTrace()
    trace.append(TraceRow(0, 10, 1.5, 3.0, 0.5, 4))
    trace.append(TraceRow(1, 20, 0.75, 1.5, 0.5, 2))
    assert np.allclose(trace.column("eta"), [1.5, 0.75])
    assert np.array_equal(trace.column("num_dofs"), [10, 20])

    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,ndof,eta,err,efficiency,nmarked"
    assert lines[1] == "0,10,1.500000000000e+00,3.000000000000e+00,5.000000000000e-01,4"
    assert len(lines) == 3

    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert path.read_text() == text


def test_loglog_slope_recovers_power_law():
    x = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    y = 3.0 * x**-0.5
    assert abs(loglog_slope(x, y) + 0.5) < 1e-12
    assert abs(loglog_slope(x, y, points=3) + 0.5) < 1e-12
    # only the trailing window matters
    y2 = y.copy()
    y2[0] = 99.0
    assert abs(loglog_slope(x, y2, points=4) + 0.5) < 1e-12


# ---------------------------------------------------------------------------
# the adaptive loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iterations": 0},
        {"tol": 1e9},
        {"max_dofs": 1},
    ],
    ids=["iterations", "tol", "dofs"],
)
def test_each_stop_rule_halts_immediately(kwargs):
    result = adapt_loop(lshaped(), AdaptConfig(solver="lu", **kwargs))
    assert isinstance(result, AdaptResult)
    assert len(result.trace.rows) == 1


def test_adapt_loop_reduces_error():
    problem = lshaped()
    config = AdaptConfig(estimator="bw:2,1", solver="lu", max_iterations=3)
    result = adapt_loop(problem, config)
    rows = result.trace.rows
    assert len(rows) == 4
    ndofs = result.trace.column("num_dofs")
    assert (np.diff(ndofs) > 0).all()
    etas = result.trace.column("eta")
    errs = result.trace.column("err")
    assert etas[-1] < etas[0]
    assert errs[-1] < errs[0]
    assert np.isfinite(result.trace.column("efficiency")).all()
    # the result carries matching mesh/solution/indicator views
    assert result.mesh.num_cells > problem.mesh.num_cells
    assert result.solution.space.mesh is result.mesh
    assert len(result.indicator) == result.mesh.num_cells
    # every stored efficiency is eta / err
    assert np.allclose(result.trace.column("efficiency"), etas / errs)


def test_adapt_loop_maximum_marking():
    config = AdaptConfig(
        estimator="res", marking="maximum", theta=0.3, solver="lu", max_iterations=2
    )
    result = adapt_loop(lshaped(), config)
    assert len(result.trace.rows) == 3
    assert (result.trace.column("num_marked") >= 1).all()


# ---------------------------------------------------------------------------
# goal functional machinery
# ---------------------------------------------------------------------------


def test_evaluate_goal_exact_for_polynomials():
    mesh = unit_square_mesh(3)
    space = FunctionSpace(mesh, 1)
    one = interpolate(lambda x, y: np.ones_like(x), space)
    assert abs(evaluate_goal(one, lambda x, y: np.ones_like(x)) - 1.0) < 1e-12
    ux = interpolate(lambda x, y: x, space)
    assert abs(evaluate_goal(ux, lambda x, y: np.ones_like(x)) - 0.5) < 1e-12
    # <c, u> with c = y against u = x: integral of x y over the square
    assert abs(evaluate_goal(ux, lambda x, y: y) - 0.25) < 1e-12


def test_dual_solve_reciprocity():
    """With one symmetric stiffness matrix and homogeneous Dirichlet data,
    the discrete duality identity <c, u_h> = <f, z_h> holds exactly."""
    mesh = unit_square_mesh(4)
    space = FunctionSpace(mesh, 2)
    f = lambda x, y: x + y
    c = lambda x, y: 1.0 - x

    u = FEFunction(space, solve(
        assemble_dual(space, f), method="lu"))  # primal: load f, zero trace
    z = FEFunction(space, solve(assemble_dual(space, c), method="lu"))
    ju = evaluate_goal(u, c)
    jz = evaluate_goal(z, f)
    assert abs(ju - jz) < 1e-12 * max(1.0, abs(ju))


def test_dual_zero_load():
    mesh = unit_square_mesh(2)
    space = FunctionSpace(mesh, 1)
    z = solve(assemble_dual(space, lambda x, y: np.zeros_like(x)), method="lu")
    assert np.abs(z).max() < 1e-14


# ---------------------------------------------------------------------------
# weighted goal indicators
# ---------------------------------------------------------------------------


def test_wgo_equal_fields():
    values = np.array([3.0, 4.0, 0.0, 1.0])
    field, eta_w = wgo_indicators(IndicatorField(values), IndicatorField(values))
    su = float(np.sum(values**2))
    assert abs(eta_w - su) < 1e-14  # sqrt(su * su)
    assert np.allclose(field.values, values, atol=1e-14)


def test_wgo_zero_fields():
    zeros = np.zeros(5)
    field, eta_w = wgo_indicators(zeros, zeros)
    assert eta_w == 0.0
    assert np.array_equal(field.values, zeros)


def test_wgo_identity_and_formula():
    """sum of squared weighted indicators == 2 su sz / (su + sz), and each
    cell matches the closed-form combination."""
    for _ in range(10):
        pu = RNG.uniform(0.0, 2.0, size=40)
        pz = RNG.uniform(0.0, 3.0, size=40)
        field, eta_w = wgo_indicators(IndicatorField(pu), IndicatorField(pz))
        su, sz = float(np.sum(pu**2)), float(np.sum(pz**2))
        total = float(np.sum(field.values**2))
        expected = 2.0 * su * sz / (su + sz)
        assert abs(total - expected) <= 1e-12 * max(1.0, expected)
        assert abs(eta_w - np.sqrt(su * sz)) <= 1e-12 * max(1.0, eta_w)
        w2 = (sz * pu**2 + su * pz**2) / (su + sz)
        assert np.allclose(field.values, np.sqrt(w2), rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# goal-driven loop and references
# ---------------------------------------------------------------------------


def test_goal_loop_requires_goal():
    with pytest.raises(ValueError, match="goal"):
        goal_adapt_loop(lshaped(), AdaptConfig(max_iterations=1))


def test_goal_loop_short_run():
    problem = lshaped_goal()
    config = AdaptConfig(estimator="bw:2,1", solver="lu", max_iterations=2)
    result = goal_adapt_loop(problem, config, reference=FROZEN_GOAL_REFERENCE)
    assert isinstance(result, AdaptResult)
    assert result.reference == FROZEN_GOAL_REFERENCE
    assert len(result.trace.rows) == 3
    assert (np.diff(result.trace.column("num_dofs")) > 0).all()
    # final recorded error is |reference - J(u_k)| for the stored primal,
    # J(u_k) being the raw dual load applied to u_k
    jk = assemble_load(result.solution.space, problem.goal.c) @ result.solution.coeffs
    assert abs(result.trace.rows[-1].err - abs(FROZEN_GOAL_REFERENCE - jk)) < 1e-14
    assert len(result.indicator) == result.mesh.num_cells
    assert result.dual.space is result.solution.space


class QuadraticGoal:
    """A goal density of degree 2, nonzero on the whole L-shape, with no
    ``support_cells``: the loop then evaluates it on every cell."""

    def c(self, x, y):
        return 1.0 + x - 0.5 * x * y + y * y

    __call__ = c


def test_goal_loop_reports_the_goal_functional():
    """With c of degree 2 at P1, c u_h has degree 3: the load's order-3
    rule and evaluate_goal's order-5 rule are both exact, so the loop's
    J(u_h) (the dual load applied to u_h) is the functional <c, u_h>."""
    goal = QuadraticGoal()
    problem = dataclasses.replace(lshaped_goal(), goal=goal)
    config = AdaptConfig(estimator="bw:2,1", solver="lu", max_iterations=2)
    result = adapt_loop(problem, config, reference=0.0)  # err is then |J(u_h)|
    want = evaluate_goal(result.solution, goal.c)
    assert want > 0.1
    assert abs(result.trace.rows[-1].err - want) < 1e-14


def test_adapt_loop_follows_the_goal():
    """adapt_loop on a goal problem is the goal loop: same trace bytes."""
    problem = lshaped_goal()
    config = AdaptConfig(estimator="bw:2,1", solver="lu", max_iterations=2)
    merged = adapt_loop(problem, config, FROZEN_GOAL_REFERENCE)
    checked = goal_adapt_loop(problem, config, reference=FROZEN_GOAL_REFERENCE)
    assert merged.trace.to_csv() == checked.trace.to_csv()
    assert merged.reference == FROZEN_GOAL_REFERENCE
    # first row by hand: primal and dual solves, WGO-weighted estimate
    space = FunctionSpace(problem.mesh, 1)
    c = problem.goal.c
    u = FEFunction(space, solve(assemble_poisson(
        space, problem.f, problem.g, problem.u_dirichlet), method="lu"))
    z = FEFunction(space, solve(assemble_dual(space, c), method="lu"))
    estimator = resolve_estimator("bw:2,1")
    _, eta_w = wgo_indicators(estimator(u, problem.f, problem.g), estimator(z, c, None))
    row = merged.trace.rows[0]
    assert row.eta == eta_w
    assert row.err == abs(FROZEN_GOAL_REFERENCE - assemble_load(space, c) @ u.coeffs)
    # the standard loop carries no dual and no reference
    plain = adapt_loop(lshaped(), config)
    assert plain.dual is None and plain.reference is None


@pytest.mark.parametrize("solver", ["lu", "cg"])
def test_goal_iteration_assembles_and_factors_once(monkeypatch, solver):
    """One P1 system built per mesh (by the facet-graph builder, the only
    P1 assembly); ``lu`` factors each mesh's matrix once, and ``cg``
    factors only its coarsest level, of at most ``COARSE_DOFS`` rows.
    Every factorization runs SuperLU in symmetric mode, with the
    minimum-degree ordering of A + A^T and no pivoting."""
    import afem2d.fem as fem

    calls = {"assemble_p1_system": [], "assemble_stiffness": [], "splu": []}

    def spy(owner, name):
        original = getattr(owner, name)

        def recording(*args, **kwargs):
            calls[name].append((args[0], kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)

    spy(fem, "assemble_p1_system")
    spy(fem, "assemble_stiffness")
    spy(fem.spla, "splu")
    config = AdaptConfig(estimator="bw:2,1", solver=solver, max_iterations=2)
    result = adapt_loop(lshaped_goal(), config, FROZEN_GOAL_REFERENCE)
    meshes = len(result.trace.rows)
    assert meshes == 3
    assert len(calls["assemble_p1_system"]) == meshes
    assert calls["assemble_stiffness"] == []
    factored = [matrix.shape[0] for matrix, _ in calls["splu"]]
    if solver == "lu":
        assert factored == result.trace.column("num_dofs").tolist()
    else:
        assert factored and max(factored) <= fem.COARSE_DOFS
    symmetric = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}
    assert all(kwargs == symmetric for _, kwargs in calls["splu"])


@pytest.mark.parametrize("estimator,degree", [("bw:2,1", 1), ("bw:4,2", 2)])
def test_goal_iteration_factors_each_block_once(monkeypatch, estimator, degree):
    """The primal and dual estimates of a goal iteration share one
    factorization of the local systems: the primal estimate factors every
    block of its mesh once, and the dual one only substitutes."""
    import afem2d.bank_weiser as bw
    import afem2d.fem as fem

    monkeypatch.setattr(fem, "ERROR_BLOCK", 40)
    log = []

    def spy(name, record):
        original = getattr(bw, name)

        def recording(*args, **kwargs):
            log.append(record(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(bw, name, recording)

    spy("local_system", lambda u, *rest: ("estimate", u.space.mesh.num_cells))
    spy("_factor", lambda a_bw, first=0: ("factor", first))
    spy("_substitute", lambda factor, b_bw: ("substitute",))
    problem = dataclasses.replace(lshaped_mixed(), goal=GoalSpec())
    config = AdaptConfig(estimator=estimator, degree=degree, solver="lu", max_iterations=2)
    result = adapt_loop(problem, config, 0.0)
    starts = [i for i, entry in enumerate(log) if entry[0] == "estimate"]
    calls = [log[i:j] for i, j in zip(starts, starts[1:] + [len(log)])]
    assert len(calls) == 2 * len(result.trace.rows) == 6
    for primal, dual in zip(calls[::2], calls[1::2]):
        assert primal[0] == dual[0]
        blocks = range(0, primal[0][1], 40)
        assert len(blocks) > 1
        assert primal[1:] == [entry for first in blocks
                              for entry in (("factor", first), ("substitute",))]
        assert dual[1:] == [("substitute",)] * len(blocks)


@pytest.mark.parametrize("estimator", ["bw:2,1", "res"])
def test_goal_iteration_finds_the_support_once_per_mesh(monkeypatch, estimator):
    """The dual load and the dual estimate of a goal iteration share one
    search for the goal's support cells per mesh, which they get
    read-only; the trace is bitwise that of a search on every call."""
    spec = GoalSpec()
    problem = dataclasses.replace(lshaped_mixed(), goal=spec)
    config = AdaptConfig(estimator=estimator, solver="lu", max_iterations=2)
    find = GoalSpec._find_support
    monkeypatch.setattr(GoalSpec, "support_cells", lambda self, mesh: find(self, mesh))
    want = adapt_loop(problem, config, FROZEN_GOAL_REFERENCE).trace.to_csv()
    monkeypatch.undo()
    searched, handed = [], []

    def counting(self, mesh):
        searched.append(mesh)
        return find(self, mesh)

    def recording(self, mesh):
        handed.append(support(self, mesh))
        return handed[-1]

    support = GoalSpec.support_cells
    monkeypatch.setattr(GoalSpec, "_find_support", counting)
    monkeypatch.setattr(GoalSpec, "support_cells", recording)
    result = adapt_loop(problem, config, FROZEN_GOAL_REFERENCE)
    assert len(searched) == len({id(mesh) for mesh in searched}) == len(result.trace.rows) == 3
    assert len(handed) == 2 * len(searched)
    assert not any(cells.flags.writeable for cells in handed)
    assert result.trace.to_csv() == want
    # a second spec with the same parameters shares the first one's search
    assert GoalSpec().support_cells(searched[-1]) is handed[-1]
    assert len(searched) == 3


def test_goal_dual_column_is_the_dual_system_load(monkeypatch):
    """On a mesh with Dirichlet and Neumann facets the loop solves one
    system whose columns are the primal load and assemble_dual's load."""
    import afem2d.adapt as adapt_module

    problem = dataclasses.replace(lshaped_mixed(), goal=GoalSpec())
    seen = []

    def recording(system, method, M=None, x0=None):
        assert x0 is None  # lu takes no start
        seen.append(system)
        return solve(system, method, M=M, x0=x0)

    monkeypatch.setattr(adapt_module, "solve", recording)
    result = adapt_loop(problem, AdaptConfig(degree=2, solver="lu", max_iterations=0), 0.0)
    space = result.solution.space
    assert len(seen) == 1 and seen[0].rhs.shape == (space.num_dofs, 2)
    primal = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
    dual = assemble_dual(space, problem.goal.c)
    assert np.array_equal(seen[0].rhs[:, 0], primal.rhs)
    assert np.array_equal(seen[0].rhs[:, 1], dual.rhs)
    assert (seen[0].matrix != dual.matrix).nnz == 0
    assert np.array_equal(result.solution.coeffs, solve(primal, "lu"))
    assert np.array_equal(result.dual.coeffs, solve(dual, "lu"))


@pytest.mark.parametrize("solver", ["lu", "cg"])
def test_goal_trace_matches_separate_solves(solver):
    """The two-column solve leaves the goal trace byte-identical to the
    loop that assembles and solves primal and dual apart."""
    problem = lshaped_goal()
    config = AdaptConfig(estimator="bw:2,1", solver=solver, max_dofs=3000)
    got = adapt_loop(problem, config, FROZEN_GOAL_REFERENCE).trace.to_csv()
    assert got == two_solve_goal_trace(problem, config, FROZEN_GOAL_REFERENCE).to_csv()


def test_reference_goal_value_cache(tmp_path):
    problem = lshaped_goal()
    path = tmp_path / "ref.jref"

    value = reference_goal_value(
        problem, degree=1, method="fe", refinements=1, cache_path=str(path)
    )
    assert path.exists()
    key_line, value_line = path.read_text().splitlines()[:2]
    assert key_line == "lshaped-goal fe degree=1 refinements=1 eps=0.35 xbar=0.2 ybar=0.2"
    assert float(value_line) == pytest.approx(value, abs=1e-15)

    # a matching key short-circuits the solve: plant a sentinel value
    path.write_text(f"{key_line}\n0.125\n")
    assert reference_goal_value(
        problem, degree=1, method="fe", refinements=1, cache_path=str(path)
    ) == 0.125

    # a stale key forces recomputation and rewrites the file
    path.write_text("something else\n0.125\n")
    recomputed = reference_goal_value(
        problem, degree=1, method="fe", refinements=1, cache_path=str(path)
    )
    assert recomputed == pytest.approx(value, rel=1e-14)
    assert path.read_text().splitlines()[0] == key_line


@pytest.mark.parametrize("content", ["", "lshaped-goal fe degree=1 refinements=1\n",
                                     "{key}\n", "{key}\nnot-a-number\n", "{key}\nnan\n"])
def test_reference_goal_value_recomputes_broken_cache(tmp_path, content):
    problem = lshaped_goal()
    path = tmp_path / "ref.jref"
    value = reference_goal_value(problem, degree=1, refinements=1, cache_path=str(path))
    key_line = path.read_text().splitlines()[0]
    path.write_text(content.format(key=key_line))
    again = reference_goal_value(problem, degree=1, refinements=1, cache_path=str(path))
    assert again == pytest.approx(value, rel=1e-14)
    assert path.read_text().splitlines() == [key_line, f"{value:.17g}"]


def test_reference_goal_value_cache_keys_on_goal_spec(tmp_path):
    from dataclasses import replace

    from afem2d.problems import GoalSpec

    problem = lshaped_goal()
    path = tmp_path / "ref.jref"
    value = reference_goal_value(problem, degree=1, refinements=1, cache_path=str(path))
    moved = replace(problem, goal=GoalSpec(eps=problem.goal.eps, xbar=0.3, ybar=0.25))
    other = reference_goal_value(moved, degree=1, refinements=1, cache_path=str(path))
    assert abs(other - value) > 1e-6
    assert "xbar=0.3 ybar=0.25" in path.read_text().splitlines()[0]


def test_reference_goal_value_unknown_method():
    with pytest.raises(ValueError, match="method"):
        reference_goal_value(lshaped_goal(), method="psychic")


def test_reference_routes_agree():
    """The direct-quadrature reference and a finite element reference on a
    modestly refined mesh agree to the accuracy of the latter."""
    problem = lshaped_goal()
    fe = reference_goal_value(problem, degree=1, method="fe", refinements=2)
    assert abs(fe - FROZEN_GOAL_REFERENCE) < 5e-4


# The default reference (degree 1: P3 on the seed mesh refined 4 times) by a
# sparse LU solve of its system.
LU_GOAL_REFERENCE = 0.2010026112634223


def test_reference_goal_value_keeps_the_lu_value():
    assert abs(reference_goal_value(lshaped_goal(), 1) - LU_GOAL_REFERENCE) <= 1e-12


@pytest.mark.parametrize("degree", [1, 2])
def test_reference_cg_matches_lu(degree):
    """The preconditioned CG solution of the reference system matches a
    sparse LU solve of the same system, and so does the goal value."""
    problem = lshaped_goal()
    space = FunctionSpace(uniform_refine(problem.mesh, 2), degree + 2)
    system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
    direct = solve(system, "lu")
    iterated = solve(system, "cg", M=MeshHierarchy().add(space, system))
    assert np.linalg.norm(iterated - direct) <= 1e-10 * np.linalg.norm(direct)
    value = reference_goal_value(problem, degree, refinements=2)
    assert abs(value - evaluate_goal(FEFunction(space, direct), problem.goal.c)) <= 1e-12


def test_reference_cg_iterations_stay_flat(monkeypatch):
    """The two-level preconditioner keeps the CG iteration count of the
    reference solve within 20% as the mesh is refined."""
    import afem2d.fem as fem

    counts = []
    original = fem.spla.cg

    def counting(*args, **kwargs):
        counts.append(0)

        def step(xk):
            counts[-1] += 1

        return original(*args, callback=step, **kwargs)

    monkeypatch.setattr(fem.spla, "cg", counting)
    for refinements in (1, 2, 3):
        reference_goal_value(lshaped_goal(), 1, refinements=refinements)
    assert len(counts) == 3
    assert all(abs(n - counts[0]) <= 0.2 * counts[0] for n in counts), counts


def test_reference_factors_only_the_p1_matrix(monkeypatch):
    import afem2d.fem as fem

    shapes = []
    original = fem.spla.splu

    def spy(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", spy)
    problem = lshaped_goal()
    reference_goal_value(problem, 1, refinements=2)
    vertices = uniform_refine(problem.mesh, 2).num_vertices
    assert shapes == [(vertices, vertices)]


def test_loop_cg_iterations_stay_flat_over_the_hierarchy(monkeypatch):
    """Under the V-cycle, a solve up to COARSE_DOFS is the exact coarse
    solve (one iteration), and every larger one takes at most 25."""
    import afem2d.fem as fem

    runs = []
    original = fem.spla.cg

    def counting(matrix, *args, **kwargs):
        runs.append([matrix.shape[0], 0])

        def step(xk):
            runs[-1][1] += 1

        return original(matrix, *args, callback=step, **kwargs)

    monkeypatch.setattr(fem.spla, "cg", counting)
    adapt_loop(lshaped(), AdaptConfig(estimator="bw:2,1", solver="cg", max_dofs=20000))
    assert runs[-1][0] >= 20000
    assert all(n == 1 for size, n in runs if size <= fem.COARSE_DOFS), runs
    assert all(n <= 25 for size, n in runs if size > fem.COARSE_DOFS), runs


def recorded_cg_loop(monkeypatch, problem, config, reference=None, drop_start=False):
    """``adapt_loop`` with every ``fem.spla.cg`` call recorded as a dict of
    its load, start (``x0``), solution and iteration count, and the mesh of
    every assembly; ``drop_start`` runs each solve from zero instead.
    Returns (result, calls, meshes)."""
    import afem2d.adapt as adapt
    import afem2d.fem as fem

    calls, meshes = [], []
    original_cg, original_assemble = fem.spla.cg, adapt.assemble_poisson

    def recording(matrix, load, *args, **kwargs):
        start = kwargs.get("x0")
        if drop_start:
            kwargs["x0"] = None
        call = {"load": load.copy(), "x0": None if start is None else start.copy(), "iters": 0}

        def step(xk):
            call["iters"] += 1

        x, info = original_cg(matrix, load, *args, callback=step, **kwargs)
        calls.append(dict(call, x=x.copy()))
        return x, info

    def assembling(space, *args):
        meshes.append(space.mesh)
        return original_assemble(space, *args)

    monkeypatch.setattr(fem.spla, "cg", recording)
    monkeypatch.setattr(adapt, "assemble_poisson", assembling)
    return adapt_loop(problem, config, reference), calls, meshes


def test_nested_iteration_starts_cg_from_the_previous_solution(monkeypatch):
    """At degree 1 under ``cg`` each mesh above ``COARSE_DOFS`` starts from
    the previous mesh's solution interpolated onto it, with the new
    Dirichlet values; the meshes at or below it, whose V-cycle is the exact
    solve, start from zero.  The meshes and markings are those of the runs
    from zero, in fewer iterations."""
    import afem2d.fem as fem

    problem = lshaped()
    config = AdaptConfig(estimator="bw:2,1", solver="cg", max_dofs=5000)
    result, calls, meshes = recorded_cg_loop(monkeypatch, problem, config)
    assert len(calls) == len(meshes) == len(result.trace.rows)
    sizes = [mesh.num_vertices for mesh in meshes]
    assert sizes[-1] >= 5000 and 1 < sum(n <= fem.COARSE_DOFS for n in sizes) < len(sizes)
    for k, (mesh, call) in enumerate(zip(meshes, calls)):
        if k == 0 or mesh.num_vertices <= fem.COARSE_DOFS:
            assert call["x0"] is None
            continue
        want = nested_start(calls[k - 1]["x"], mesh, call["load"])
        assert np.array_equal(call["x0"], want)
        dofs = FunctionSpace(mesh, 1).dirichlet_dofs()
        assert np.array_equal(want[dofs], problem.u_dirichlet(*mesh.vertices[dofs].T))

    monkeypatch.undo()
    from_zero, zero_calls, _ = recorded_cg_loop(monkeypatch, problem, config, drop_start=True)
    for name in ("num_dofs", "num_marked"):
        assert np.array_equal(result.trace.column(name), from_zero.trace.column(name))
    nested = sum(call["iters"] for call in calls)
    assert nested < sum(call["iters"] for call in zero_calls)


def test_nested_iteration_starts_both_goal_columns(monkeypatch):
    """The goal loop under ``cg`` starts the primal and the dual solve each
    from its own previous solution, with its own Dirichlet values."""
    import afem2d.fem as fem

    config = AdaptConfig(estimator="bw:2,1", solver="cg", max_dofs=3000)
    result, calls, meshes = recorded_cg_loop(monkeypatch, lshaped_goal(), config,
                                             FROZEN_GOAL_REFERENCE)
    assert len(calls) == 2 * len(meshes)
    assert meshes[-1].num_vertices > fem.COARSE_DOFS
    for k, mesh in enumerate(meshes):
        for column in range(2):
            call = calls[2 * k + column]
            if k == 0 or mesh.num_vertices <= fem.COARSE_DOFS:
                assert call["x0"] is None
            else:
                previous = calls[2 * (k - 1) + column]["x"]
                assert np.array_equal(call["x0"], nested_start(previous, mesh, call["load"]))
    assert np.array_equal(calls[-1]["x"], result.dual.coeffs)


def test_nested_iteration_is_degree_one_only(monkeypatch):
    """Above P1 the previous solution is no start: every solve of a
    degree-2 run begins at zero, also on meshes above ``COARSE_DOFS``."""
    import afem2d.fem as fem

    config = AdaptConfig(estimator="bw:3,1", degree=2, solver="cg", max_dofs=5000)
    _, calls, meshes = recorded_cg_loop(monkeypatch, lshaped(), config)
    assert meshes[-1].num_vertices > fem.COARSE_DOFS
    assert len(calls) == len(meshes) and all(call["x0"] is None for call in calls)


def test_loop_cg_trace_matches_the_jacobi_path(monkeypatch):
    """On the mixed-boundary L-shape with the ZZ estimator (no symmetric
    Dörfler ties) the V-cycle changes the solutions only at roundoff: every
    mesh and marking equals that of Jacobi-preconditioned CG."""
    config = AdaptConfig(estimator="zz", solver="cg", max_dofs=20000)
    multigrid = adapt_loop(lshaped_mixed(), config).trace
    monkeypatch.setattr(MeshHierarchy, "add", lambda *args: None)
    jacobi = adapt_loop(lshaped_mixed(), config).trace
    for name in ("num_dofs", "num_marked"):
        assert np.array_equal(multigrid.column(name), jacobi.column(name))
    assert multigrid.rows[-1].num_dofs >= 20000
    eta_mg, eta_jacobi = multigrid.column("eta"), jacobi.column("eta")
    assert np.abs(eta_mg - eta_jacobi).max() <= 1e-9 * eta_jacobi.min()


def test_goal_error_bounded_by_error_product():
    """|J(u) - J(u_k)| = |a(u - u_k, z - z_k)| <= |u - u_k|_1 |z - z_k|_1.
    The primal error is computable exactly; the dual error is estimated
    hierarchically (nested meshes make the energy difference exact for
    the fine dual), so a factor 1.5 covers the remaining slack."""
    from afem2d.fem import assemble_poisson, h1_seminorm_error
    from afem2d.mesh import mark_dorfler, refine

    problem = lshaped_goal()
    c = problem.goal.c
    mesh = problem.mesh
    for _ in range(3):
        space = FunctionSpace(mesh, 1)
        u = FEFunction(space, solve(
            assemble_poisson(space, problem.f, None, problem.u_dirichlet),
            method="lu"))
        z = FEFunction(space, solve(assemble_dual(space, c), method="lu"))

        err_u = h1_seminorm_error(u, problem.grad_exact)
        # hierarchical dual error: refined mesh, higher degree, nested
        fine_space = FunctionSpace(uniform_refine(mesh, 2), 2)
        zf = solve(assemble_dual(fine_space, c), method="lu")
        energy_f = zf @ (assemble_stiffness(fine_space) @ zf)
        energy_k = z.coeffs @ (assemble_stiffness(space) @ z.coeffs)
        err_z = np.sqrt(max(energy_f - energy_k, 0.0))
        assert err_z > 0.0

        gap = abs(FROZEN_GOAL_REFERENCE - evaluate_goal(u, c))
        assert gap <= 1.5 * err_u * err_z

        from afem2d.bank_weiser import estimate

        eta_u, _ = estimate(u, problem.f)
        eta_z, _ = estimate(z, c)
        weighted, _ = wgo_indicators(eta_u, eta_z)
        mesh = refine(mesh, mark_dorfler(weighted, 0.5))


def test_peak_memory_per_cell_is_bounded():
    """The traced allocation peak of an L-shape run to 20,000 DOFs
    (``bw:2,1``, ``cg``), per cell of the final mesh, stays under 1,200 B.
    It reads about 915 B (36.3 MB at 39,679 cells with NumPy 2.4 and SciPy
    1.17), so the bound leaves about 30% headroom.  A short run first
    fills the element, quadrature and estimator caches, which do not grow
    with the mesh."""
    import tracemalloc

    problem = lshaped()
    adapt_loop(problem, AdaptConfig(estimator="bw:2,1", solver="cg", max_dofs=2000))
    tracemalloc.start()
    try:
        result = adapt_loop(problem, AdaptConfig(estimator="bw:2,1", solver="cg",
                                                 max_dofs=20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.trace.rows[-1].num_dofs >= 20000
    assert peak <= 1200 * result.mesh.num_cells
