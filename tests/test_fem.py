"""Tests for function spaces, assembly, boundary conditions, and solvers."""

import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from afem2d import element as el
from afem2d import quadrature as quad
from afem2d import fem
from afem2d.fem import (
    FEFunction,
    FunctionSpace,
    MeshHierarchy,
    SolverError,
    apply_dirichlet,
    assemble_load,
    assemble_poisson,
    assemble_stiffness,
    cell_gradients,
    cell_laplacians,
    cell_loads,
    dirichlet_rhs,
    eval_data,
    facet_traces,
    h1_seminorm_error,
    interpolate,
    neumann_values,
    physical_points,
    prolongation,
    reference_stiffness,
    solve,
)
from afem2d.mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh, refine, uniform_refine
from afem2d.problems import lshaped, lshaped_mixed, unit_square_mesh

from helpers import (
    jittered_square,
    mapped_point_traces,
    quadrature_gradients,
    quadrature_stiffness,
    randomly_tagged_mesh,
    solve_poisson,
    tagged_unit_square,
    two_cell_square,
    unit_triangle_mesh,
)

RNG = np.random.default_rng(20240818)


# ---------------------------------------------------------------------------
# function spaces and DOF maps
# ---------------------------------------------------------------------------


def test_space_dof_counts_unit_square():
    mesh = unit_square_mesh(2)
    # 9 vertices, 16 interior+boundary facets, 8 cells.
    nv, nf, nc = mesh.num_vertices, len(mesh.facets), mesh.num_cells
    assert (nv, nf, nc) == (9, 16, 8)
    expected = {
        1: nv,
        2: nv + nf,
        3: nv + 2 * nf + nc,
        4: nv + 3 * nf + 3 * nc,
    }
    for degree, ndofs in expected.items():
        assert FunctionSpace(mesh, degree).num_dofs == ndofs


@pytest.mark.parametrize("degree", [0, 5, -1])
def test_space_rejects_bad_degree(degree):
    with pytest.raises(ValueError):
        FunctionSpace(unit_triangle_mesh(), degree)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_shared_edge_dofs_agree(degree):
    """The two cells bordering a facet must reference the same global DOFs,
    and those DOFs must sit at the same physical coordinates."""
    mesh = two_cell_square()
    space = FunctionSpace(mesh, degree)
    coords = space.dof_coordinates()
    # The shared diagonal runs from vertex 0 to vertex 2, along y = x.
    # Collect the global DOFs whose coordinates lie on that line; both
    # cells must own the identical set (vertices + degree-1 edge DOFs).
    on_diag = [
        sorted(
            dof
            for dof in space.dofmap[cell]
            if abs(coords[dof, 0] - coords[dof, 1]) < 1e-12
        )
        for cell in range(2)
    ]
    assert on_diag[0] == on_diag[1]
    assert len(on_diag[0]) == degree + 1


def test_dof_coordinates_interpolate_linear():
    """interpolate() evaluated through dof_coordinates reproduces the input."""
    mesh = unit_square_mesh(3)
    for degree in (1, 2, 3, 4):
        space = FunctionSpace(mesh, degree)
        f = lambda x, y: 2.0 * x - 0.75 * y + 0.25
        u = interpolate(f, space)
        coords = space.dof_coordinates()
        assert np.allclose(u.coeffs, f(coords[:, 0], coords[:, 1]), atol=1e-12)


def test_interpolate_constant_callable():
    """A callable returning a scalar is broadcast over every dof."""
    space = FunctionSpace(unit_square_mesh(2), 2)
    u = interpolate(lambda x, y: 1.0, space)
    assert np.array_equal(u.coeffs, np.ones(space.num_dofs))
    u.coeffs[0] = 2.0  # a writable vector of its own


def test_dirichlet_dof_count_p2_square():
    mesh = unit_square_mesh(2)
    space = FunctionSpace(mesh, 2)
    dofs = space.dirichlet_dofs()
    # 8 boundary vertices + 8 boundary edge midpoints.
    assert len(dofs) == 16
    coords = space.dof_coordinates()[dofs]
    on_boundary = (
        np.isclose(coords[:, 0], 0.0)
        | np.isclose(coords[:, 0], 1.0)
        | np.isclose(coords[:, 1], 0.0)
        | np.isclose(coords[:, 1], 1.0)
    )
    assert on_boundary.all()


def test_neumann_facet_lanes():
    """The Neumann data shared by the load and the facet traces lands on
    exactly the local edge, of exactly the cell, that lies on the N facet."""
    tags = {(0, 1): NEUMANN, (1, 2): DIRICHLET,
            (2, 3): DIRICHLET, (3, 0): DIRICHLET}
    mesh = two_cell_square(boundary=tags)
    g = lambda x, y: 1.0 + x + 0.0 * y
    order = 3
    t, _ = quad.edge_rule(order)
    gv = neumann_values(mesh, g, order)
    assert gv.shape == (3, mesh.num_cells, len(t))
    hits = np.argwhere(np.abs(gv).sum(axis=2) > 0)
    assert len(hits) == 1
    lane, cell = hits[0]
    verts = mesh.cells[cell]
    pair = {verts[[(1, 2), (2, 0), (0, 1)][lane][0]],
            verts[[(1, 2), (2, 0), (0, 1)][lane][1]]}
    assert pair == {0, 1}
    # the facet is y = 0; g = 1 + x along the cell's own traversal of it
    start, end = mesh.vertices[verts[list(el.EDGE_VERTICES[lane])]]
    x = start[0] + t * (end[0] - start[0])
    assert np.abs(gv[lane, cell] - (1.0 + x)).max() < 1e-15
    u = FEFunction(FunctionSpace(mesh, 1), np.zeros(mesh.num_vertices))
    assert np.array_equal(facet_traces(u, g, order)[4], gv)


def test_facet_lanes_invert_cell_facets():
    mesh = jittered_square(5, seed=3)
    lanes = mesh.facet_lanes
    facets = np.arange(len(mesh.facets))
    owner, neighbour = mesh.facet_cells[:, 0], mesh.facet_cells[:, 1]
    assert (mesh.cell_facets[owner, lanes[:, 0]] == facets).all()
    inner = neighbour >= 0
    assert (mesh.cell_facets[neighbour[inner], lanes[inner, 1]] == facets[inner]).all()
    assert (lanes[~inner, 1] == -1).all()


# ---------------------------------------------------------------------------
# reference-tensor kernels against their quadrature forms
# ---------------------------------------------------------------------------

KERNEL_ELEMENTS = [el.lagrange(k) for k in range(1, el.MAX_DEGREE + 1)] + [el.p2_bubble()]


@pytest.mark.parametrize("element", KERNEL_ELEMENTS, ids=lambda e: e.name)
def test_reference_tensor_stiffness_matches_quadrature(element):
    mesh = jittered_square(4, seed=11)
    exact = mesh.metric @ reference_stiffness(element)
    exact = exact.reshape(-1, element.dim, element.dim)
    for order in (2 * element.degree, 2 * element.degree + 1):
        oracle = quadrature_stiffness(element, order, mesh)
        assert np.abs(exact - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("degree", [1, 3])
def test_cell_derivatives_match_einsum(degree):
    """Contracting coefficients before the push-forward changes nothing."""
    mesh = jittered_square(3, seed=6)
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y), space)
    inv = mesh.inv
    pts, _ = quad.triangle_rule(6)
    coeffs = u.cell_coeffs()
    grads = quadrature_gradients(space.element.tabulate_grad(pts), inv)
    oracle = np.einsum("ci,cqit->cqt", coeffs, grads)
    got = cell_gradients(coeffs, space.element.tabulate_grad(pts), inv)
    assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()
    hess = space.element.tabulate_hess(pts)
    lap = np.einsum("csa,qist,cta->cqi", inv, hess, inv)
    oracle = np.einsum("ci,cqi->cq", coeffs, lap)
    got = cell_laplacians(coeffs, hess, inv)
    assert np.abs(got - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1.0)


@pytest.mark.parametrize("random_tags,degree", [
    pytest.param(False, 1, id="1"),
    pytest.param(False, 3, id="3"),
    *(pytest.param(True, k, id=f"random-tags-{k}") for k in (1, 2, 3, 4)),
])
def test_facet_traces_match_mapped_points(random_tags, degree):
    """Reading the neighbour's own lane backwards gives the traces that
    mapping the edge points into the neighbour gives, on the mixed
    L-shape and on a jittered mesh whose cells start at random vertices
    and whose boundary is tagged Dirichlet or Neumann at random."""
    mesh = randomly_tagged_mesh(3, seed=0) if random_tags else lshaped_mixed().mesh
    tags = set(mesh.facet_tags.tolist())
    assert tags == {INTERIOR, DIRICHLET, NEUMANN}
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    g = lambda x, y: 1.0 + x - 2.0 * y
    order = 2 * degree + 4
    tags, *traces = facet_traces(u, g, order)
    length, dn, jump, gv = mapped_point_traces(u, g, order)
    assert (tags == mesh.facet_tags[mesh.cell_facets].T).all()
    assert np.abs(traces[0] - length).max() <= 1e-15
    scale = np.abs(dn).max()
    assert np.abs(traces[1] - dn).max() <= 1e-13 * scale
    assert np.abs(jump).max() > 1e-3 * scale  # the jumps are not trivially zero
    assert np.abs(traces[2] - jump).max() <= 1e-12 * scale
    assert np.abs(traces[3] - gv).max() <= 1e-14
    assert np.count_nonzero(gv) > 0


# ---------------------------------------------------------------------------
# assembly oracles
# ---------------------------------------------------------------------------


def test_p1_stiffness_unit_right_triangle():
    """Hand-computed element matrix for the reference right triangle."""
    mesh = unit_triangle_mesh()
    space = FunctionSpace(mesh, 1)
    a = assemble_stiffness(space).toarray()
    oracle = np.array([
        [1.0, -0.5, -0.5],
        [-0.5, 0.5, 0.0],
        [-0.5, 0.0, 0.5],
    ])
    assert np.allclose(a, oracle, atol=1e-14)


def test_stiffness_row_sums_vanish():
    """Constants lie in the kernel of the raw stiffness matrix."""
    mesh = unit_square_mesh(3)
    for degree in (1, 2, 3):
        space = FunctionSpace(mesh, degree)
        a = assemble_stiffness(space)
        ones = np.ones(space.num_dofs)
        assert np.abs(a @ ones).max() < 1e-12


@pytest.mark.parametrize("degree", [1, 3])
def test_stiffness_index_width_leaves_matrix_unchanged(degree):
    """int32 COO indices give bitwise the CSR matrix of int64 ones."""
    from scipy import sparse

    space = FunctionSpace(lshaped_mixed().mesh, degree)
    mesh, dim = space.mesh, space.element.dim
    local = mesh.metric @ reference_stiffness(space.element)
    rows = np.repeat(space.dofmap, dim, axis=1).ravel()
    cols = np.tile(space.dofmap, dim).ravel()
    assert rows.dtype == np.int64
    want = sparse.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(space.num_dofs,) * 2
    ).tocsr()
    got = assemble_stiffness(space)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert getattr(got, attr).dtype == getattr(want, attr).dtype


def test_load_vector_constant_forcing():
    """For f = 1 the load vector sums to the domain area, any degree."""
    mesh = unit_square_mesh(2)
    for degree in (1, 2, 3, 4):
        space = FunctionSpace(mesh, degree)
        b = assemble_load(space, lambda x, y: np.ones_like(x))
        assert abs(b.sum() - 1.0) < 1e-12


def test_load_vector_neumann_contribution():
    """A pure-Neumann edge term integrates g against the traces: the sum of
    the boundary contribution equals the integral of g over the edge."""
    tags = {(0, 1): DIRICHLET, (1, 2): NEUMANN,
            (2, 3): DIRICHLET, (3, 0): DIRICHLET}
    mesh = two_cell_square(boundary=tags)
    space = FunctionSpace(mesh, 2)
    zero = lambda x, y: np.zeros_like(x)
    g = lambda x, y: 2.0 + y
    b = assemble_load(space, zero, g=g)
    # integral of (2 + y) over the segment x = 1, y in [0, 1] is 2.5
    assert abs(b.sum() - 2.5) < 1e-12


def test_load_blocks_match_one_block(monkeypatch):
    """Blocking the load over cells changes no bit: the one-pass formula
    is the oracle, with a block size that does not divide the cell count
    and Neumann data on the mixed boundary."""
    import afem2d.fem as fem

    problem = lshaped_mixed()
    space = FunctionSpace(uniform_refine(problem.mesh, 1), 3)
    order = 2 * space.degree + 1
    pts, _ = quad.triangle_rule(order)
    edge = neumann_values(space.mesh, problem.g, order) * space.mesh.lane_lengths[..., None]
    fvals = eval_data(problem.f, physical_points(space.mesh, pts))
    local = cell_loads(space.element, order, space.mesh.det, fvals, edge)
    want = np.bincount(space.dofmap.ravel(), local.ravel(), minlength=space.num_dofs)
    monkeypatch.setattr(fem, "ERROR_BLOCK", 100)
    assert space.mesh.num_cells % fem.ERROR_BLOCK != 0
    cells_per_call = []

    def f(x, y):
        cells_per_call.append(len(x))
        return problem.f(x, y)

    assert np.array_equal(assemble_load(space, f, problem.g), want)
    assert cells_per_call == [100, 100, 100, space.mesh.num_cells - 300]


# ---------------------------------------------------------------------------
# Dirichlet elimination
# ---------------------------------------------------------------------------


def test_apply_dirichlet_structure():
    mesh = unit_square_mesh(2)
    space = FunctionSpace(mesh, 1)
    a = assemble_stiffness(space)
    b = assemble_load(space, lambda x, y: np.ones_like(x))
    dofs = space.dirichlet_dofs()
    values = np.linspace(0.0, 1.0, len(dofs))
    a_bc, b_bc = apply_dirichlet(a, b, dofs, values)
    dense = a_bc.toarray()
    # Unit diagonal and cleared rows/columns on constrained DOFs.
    for i, dof in enumerate(dofs):
        row = dense[dof].copy()
        col = dense[:, dof].copy()
        row[dof] -= 1.0
        col[dof] -= 1.0
        assert np.abs(row).max() < 1e-14
        assert np.abs(col).max() < 1e-14
        assert abs(b_bc[dof] - values[i]) < 1e-14
    # Symmetry is preserved by the lift-based elimination.
    assert np.abs(dense - dense.T).max() < 1e-14


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def test_solve_small_system_both_methods():
    from scipy.sparse import csr_matrix

    from afem2d.fem import SparseSystem

    a = csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = np.array([3.0, 3.0])
    system = SparseSystem(a, b, np.array([], dtype=int))
    for method in ("cg", "lu"):
        x = solve(system, method=method)
        assert np.allclose(x, [1.0, 1.0], atol=1e-10)


def two_load_system():
    """Mixed-boundary P2 system with a second, Dirichlet-eliminated load."""
    problem = lshaped_mixed()
    space = FunctionSpace(problem.mesh, 2)
    system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
    second = dirichlet_rhs(
        assemble_load(space, lambda x, y: np.cos(x) + y), system.dirichlet_dofs, 0.0
    )
    return system, second


@pytest.mark.parametrize("method", ["cg", "lu"])
def test_solve_two_columns_match_one_column_solves(method):
    system, second = two_load_system()
    first = solve(system, method=method)
    alone = solve(dataclasses.replace(system, rhs=second), method=method)
    both = solve(dataclasses.replace(system, rhs=np.column_stack([system.rhs, second])),
                 method=method)
    assert first.shape == (len(second),) and both.shape == (len(second), 2)
    assert np.array_equal(both[:, 0], first)
    assert np.array_equal(both[:, 1], alone)


@pytest.mark.parametrize("method, bad", [("cg", "slow"), ("lu", "nan")])
def test_solve_checks_every_column(method, bad):
    """A failing second column raises even though the first one converges."""
    system, second = two_load_system()
    if bad == "nan":
        second[len(second) // 2] = np.nan
        maxiter = 200000
    else:
        system.rhs = np.zeros_like(system.rhs)  # converges at once
        maxiter = 1
    system.rhs = np.column_stack([system.rhs, second])
    with pytest.raises(SolverError):
        solve(system, method=method, maxiter=maxiter)


def test_dirichlet_rhs_matches_full_lift():
    """The eliminated load is bitwise the full lift-and-mask formula, also
    for zero data, which skip the lift and need no matrix; the raw load is
    left as it was."""
    space = FunctionSpace(lshaped_mixed().mesh, 2)
    a = assemble_stiffness(space)
    b = assemble_load(space, lambda x, y: np.sin(3.0 * x) - y)
    raw = b.copy()
    dofs = space.dirichlet_dofs()
    keep = np.ones(space.num_dofs)
    keep[dofs] = 0.0
    for values in (np.linspace(-1.0, 2.0, len(dofs)), np.zeros(len(dofs))):
        lift = np.zeros(space.num_dofs)
        lift[dofs] = values
        want = (b - a @ lift) * keep
        want[dofs] = values
        assert np.array_equal(dirichlet_rhs(b, dofs, values, a), want)
        assert np.array_equal(apply_dirichlet(a, b, dofs, values)[1], want)
    assert np.array_equal(dirichlet_rhs(b, dofs, 0.0), want)
    assert np.array_equal(b, raw)


def test_solve_unknown_method():
    from scipy.sparse import csr_matrix

    from afem2d.fem import SparseSystem

    a = csr_matrix(np.eye(2))
    system = SparseSystem(a, np.ones(2), np.array([], dtype=int))
    with pytest.raises(ValueError):
        solve(system, method="qr")


def test_solve_cg_reports_nonconvergence():
    mesh = unit_square_mesh(4)
    space = FunctionSpace(mesh, 2)
    system = assemble_poisson(space, lambda x, y: np.ones_like(x),
                              u_dirichlet=lambda x, y: np.zeros_like(x))
    with pytest.raises(SolverError):
        solve(system, method="cg", maxiter=1)


@pytest.mark.parametrize("method", ["cg", "lu"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_non_finite_load_before_solving(monkeypatch, method, bad):
    """A NaN or infinite load entry fails before CG iterates (it would run
    to maxiter on a NaN) or the LU factorization starts."""
    import afem2d.fem as fem

    def never(*args, **kwargs):
        raise AssertionError("the solver ran on a non-finite load")

    monkeypatch.setattr(fem.spla, "cg", never)
    monkeypatch.setattr(fem.spla, "splu", never)
    problem = lshaped()
    space = FunctionSpace(problem.mesh, 1)
    system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
    system.rhs[space.num_dofs // 2] = bad
    with pytest.raises(SolverError, match="NaN or infinite"):
        solve(system, method=method)


def test_solve_passes_the_given_preconditioner_to_cg_only(monkeypatch):
    import afem2d.fem as fem

    system, _ = two_load_system()
    identity = LinearOperator(system.matrix.shape, matvec=lambda r: r, dtype=float)
    seen = []
    original = fem.spla.cg

    def recording(*args, **kwargs):
        seen.append(kwargs["M"])
        return original(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "cg", recording)
    solve(system, method="cg", M=identity)
    assert seen == [identity]
    with pytest.raises(ValueError, match="cg only"):
        solve(system, method="lu", M=identity)


def p1_embedding(space):
    """Dense P1 -> Pk embedding from the barycentric coordinates of each
    DOF node in a cell that holds it, with the rows of Dirichlet DOFs and
    the columns of Dirichlet vertices zeroed."""
    mesh = space.mesh
    nodes = space.dof_coordinates()[space.dofmap]
    ref = np.einsum("cij,ckj->cki", mesh.inv, nodes - mesh.vertices[mesh.cells[:, :1]])
    bary = np.concatenate([1.0 - ref.sum(axis=-1, keepdims=True), ref], axis=-1)
    dense = np.zeros((space.num_dofs, mesh.num_vertices))
    dense[space.dofmap[..., None], mesh.cells[:, None, :]] = bary
    dense[space.dirichlet_dofs()] = 0.0
    dense[:, FunctionSpace(mesh, 1).dirichlet_dofs()] = 0.0
    return dense


def galerkin_p1_matrix(space, matrix):
    """P^T A P of an eliminated Pk matrix, with the elimination's unit
    diagonal on the Dirichlet vertices."""
    p = p1_embedding(space)
    coarse = p.T @ (matrix @ p)
    fixed = FunctionSpace(space.mesh, 1).dirichlet_dofs()
    coarse[fixed, fixed] = 1.0
    return p, coarse


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_p1_matrix_is_the_galerkin_product(degree):
    """On a mesh with Dirichlet and Neumann facets the eliminated P1
    stiffness equals P^T A P, so the coarse level can be assembled."""
    problem = lshaped_mixed()
    space = FunctionSpace(problem.mesh, degree)
    system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
    coarse = FunctionSpace(problem.mesh, 1)
    fixed = coarse.dirichlet_dofs()
    assembled, _ = apply_dirichlet(assemble_stiffness(coarse), np.zeros(coarse.num_dofs),
                                   fixed, np.zeros(len(fixed)))
    _, galerkin = galerkin_p1_matrix(space, system.matrix)
    assembled = assembled.toarray()
    assert np.abs(galerkin - assembled).max() <= 1e-13 * np.abs(assembled).max()


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_hierarchy_p_level_is_the_two_level_cycle(degree):
    """On a one-mesh hierarchy the operator is, with dense matrices, two
    Jacobi sweeps of weight 1/2, the exact Galerkin coarse correction and
    two more sweeps; it is symmetric positive definite and leaves the
    Dirichlet DOFs uncoupled.  The cells' local vertices are rotated so
    that boundary edges become local edge 0, whose P3 node carries a
    -5.55e-17 P1 weight on the opposite vertex."""
    problem = lshaped_mixed()
    mesh = problem.mesh
    boundary = mesh.boundary_facets()
    tags = {(int(a), int(b)): int(t)
            for (a, b), t in zip(mesh.facets[boundary], mesh.facet_tags[boundary])}
    mesh = Mesh(mesh.vertices, np.roll(mesh.cells, 1, axis=1), boundary=tags)
    space = FunctionSpace(mesh, degree)
    system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
    a = system.matrix.toarray()
    p, coarse = galerkin_p1_matrix(space, a)
    step = 0.5 / np.diag(a)[:, None]
    r = np.eye(space.num_dofs)
    want = np.zeros_like(r)
    for _ in range(2):
        want += step * (r - a @ want)
    want += p @ np.linalg.solve(coarse, p.T @ (r - a @ want))
    for _ in range(2):
        want += step * (r - a @ want)
    got = MeshHierarchy().add(space, system) @ r
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    # Dirichlet DOFs see only the four sweeps, which keep 1 - 2^-4 of r.
    fixed = system.dirichlet_dofs
    assert np.array_equal(got[fixed], r[fixed] * (15 / 16))
    assert np.abs(got - got.T).max() <= 1e-12 * np.abs(got).max()
    assert np.linalg.eigvalsh(0.5 * (got + got.T)).min() > 0.0


def randomly_refined(mesh, rounds, seed):
    """``mesh`` followed by ``rounds`` bisections of a random twentieth of
    the cells, so that each mesh grows by less than half."""
    rng = np.random.default_rng(seed)
    meshes = [mesh]
    for _ in range(rounds):
        n = meshes[-1].num_cells
        meshes.append(refine(meshes[-1], rng.choice(n, size=max(1, n // 20), replace=False)))
    return meshes


def poisson_system(mesh, degree=1):
    """The space of ``degree`` on ``mesh`` and its eliminated Poisson system."""
    space = FunctionSpace(mesh, degree)
    return space, assemble_poisson(space, lambda x, y: 0.0 * x)


def eliminated_p1_matrix(mesh):
    return poisson_system(mesh)[1].matrix


def assert_galerkin(prolong, coarse, fine):
    """P^T A_fine P is the assembled eliminated P1 matrix of the coarse mesh
    on its free vertices and zero on the rows and columns of the others."""
    free = fem.free_vertices(coarse)
    assert free.any() and not free.all()
    assert not prolong[~fem.free_vertices(fine)].toarray().any()
    want = eliminated_p1_matrix(coarse).toarray() * np.outer(free, free)
    got = (prolong.T @ eliminated_p1_matrix(fine) @ prolong).toarray()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prolongation_is_galerkin_over_one_and_two_refinements(seed):
    """On a mesh with Dirichlet and Neumann facets, for one refinement and
    for the product of two (a skipped level)."""
    m0, m1, m2 = randomly_refined(lshaped_mixed().mesh, 2, seed)
    p10, p21 = prolongation(m0, m1), prolongation(m1, m2)
    assert p10.shape == (m1.num_vertices, m0.num_vertices)
    assert_galerkin(p10, m0, m1)
    assert_galerkin(p21 @ p10, m0, m2)


def test_hierarchy_skips_a_level_that_grows_less_than_twofold(monkeypatch):
    """A mesh with under LEVEL_GROWTH times the DOFs of the level below is
    dropped when the next mesh comes, and its prolongation is multiplied
    into the next level's."""
    monkeypatch.setattr(fem, "COARSE_DOFS", 0)
    meshes = randomly_refined(lshaped_mixed().mesh, 2, seed=3)
    hierarchy = MeshHierarchy()
    for mesh in meshes:
        hierarchy.add(*poisson_system(mesh))
    assert meshes[1].num_vertices < fem.LEVEL_GROWTH * meshes[0].num_vertices
    (matrix, prolong, restrict, step, sweeps), = hierarchy.levels
    assert matrix.shape[0] == meshes[2].num_vertices and sweeps == fem.MG_SWEEPS
    product = prolongation(meshes[1], meshes[2]) @ prolongation(meshes[0], meshes[1])
    assert (prolong != product).nnz == 0
    assert (restrict != prolong.T).nnz == 0
    assert np.array_equal(step, fem.MG_WEIGHT / matrix.diagonal())
    assert_galerkin(prolong, meshes[0], meshes[2])


@pytest.mark.parametrize("degree", [1, 2])
def test_v_cycle_is_symmetric_positive_definite(monkeypatch, degree):
    """Dense check of the preconditioner over a small hierarchy with a
    coarse level, kept levels and skipped ones."""
    monkeypatch.setattr(fem, "COARSE_DOFS", 70)
    problem = lshaped_mixed()
    hierarchy = MeshHierarchy()
    for mesh in randomly_refined(problem.mesh, 4, seed=4):
        space = FunctionSpace(mesh, degree)
        system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
        op = hierarchy.add(space, system)
    assert len(hierarchy.levels) >= 2
    dense = op @ np.eye(space.num_dofs)
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0
    x = solve(system, "cg", M=op)
    assert np.linalg.norm(x - solve(system, "lu")) <= 1e-10 * np.linalg.norm(x)


def test_hierarchy_coarse_level_alone_is_the_exact_solve():
    problem = lshaped_mixed()
    hierarchy = MeshHierarchy()
    for mesh in randomly_refined(problem.mesh, 2, seed=5):
        space = FunctionSpace(mesh, 1)
        system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
        op = hierarchy.add(space, system)
    assert space.num_dofs <= fem.COARSE_DOFS and hierarchy.levels == []
    assert np.abs(op @ system.rhs - solve(system, "lu")).max() <= 1e-12


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_p1_levels_do_not_depend_on_degree(monkeypatch):
    """The same refinement sequence at degree 1 and 2 gives bitwise the
    same P1 levels and coarse factorization size; degree 2 adds the
    p-level on top."""
    monkeypatch.setattr(fem, "COARSE_DOFS", 70)
    meshes = randomly_refined(lshaped_mixed().mesh, 4, seed=7)
    hierarchies = {1: MeshHierarchy(), 2: MeshHierarchy()}
    for mesh in meshes:
        for degree, hierarchy in hierarchies.items():
            hierarchy.add(*poisson_system(mesh, degree))
    p1, p2 = hierarchies[1], hierarchies[2]
    assert len(p1.levels) >= 2 and len(p2.levels) == len(p1.levels)
    for (a1, pr1, _, s1, w1), (a2, pr2, _, s2, w2) in zip(p1.levels, p2.levels):
        assert_same_csr(a1, a2)
        assert_same_csr(pr1, pr2)
        assert np.array_equal(s1, s2) and w1 == w2
    assert p1._coarse_lu.shape == p2._coarse_lu.shape
    assert p1.p_level == [] and len(p2.p_level) == 1
    assert p2.p_level[0][0].shape[0] == FunctionSpace(meshes[-1], 2).num_dofs


def test_hierarchy_rejects_a_mesh_that_is_not_the_next_refinement():
    m0, m1, m2 = randomly_refined(lshaped_mixed().mesh, 2, seed=6)
    hierarchy = MeshHierarchy()
    hierarchy.add(*poisson_system(m0))
    for mesh in (m0, m2, lshaped().mesh):  # no parents, two steps, unrelated
        with pytest.raises(ValueError, match="not a refinement"):
            hierarchy.add(*poisson_system(mesh))
    hierarchy.add(*poisson_system(m1))
    with pytest.raises(ValueError, match="not a refinement"):
        prolongation(m0, m2)


# ---------------------------------------------------------------------------
# patch tests: exact reproduction of polynomial solutions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["cg", "lu"])
def test_patch_linear_p1(method):
    mesh = unit_square_mesh(2)
    u = solve_poisson(
        mesh, 1,
        f=lambda x, y: np.zeros_like(x),
        u_dirichlet=lambda x, y: x,
        method=method,
    )
    exact = interpolate(lambda x, y: x, u.space)
    assert np.abs(u.coeffs - exact.coeffs).max() < 1e-10


@pytest.mark.parametrize("method", ["cg", "lu"])
def test_patch_quadratic_p2(method):
    """u = x(1 - x) + y has -laplace(u) = 2 and lies in the P2 space."""
    mesh = unit_square_mesh(2)
    u = solve_poisson(
        mesh, 2,
        f=lambda x, y: 2.0 * np.ones_like(x),
        u_dirichlet=lambda x, y: x * (1.0 - x) + y,
        method=method,
    )
    exact = interpolate(lambda x, y: x * (1.0 - x) + y, u.space)
    assert np.abs(u.coeffs - exact.coeffs).max() < 1e-10


def test_patch_neumann_flux_sign():
    """u = x solves laplace(u) = 0 with du/dn = 1 on the outflow edge x = 1;
    getting the Neumann sign wrong breaks exactness immediately."""

    def tagger(x, y):
        return np.where(np.isclose(x, 1.0), NEUMANN, DIRICHLET)

    mesh = tagged_unit_square(2, tagger)
    u = solve_poisson(
        mesh, 1,
        f=lambda x, y: np.zeros_like(x),
        u_dirichlet=lambda x, y: x,
        g=lambda x, y: np.ones_like(x),
    )
    exact = interpolate(lambda x, y: x, u.space)
    assert np.abs(u.coeffs - exact.coeffs).max() < 1e-10


def test_energy_identity():
    """With homogeneous Dirichlet data, |grad u_h|^2 = F(u_h) at the discrete
    level (test the solution against the raw load vector)."""
    mesh = unit_square_mesh(4)
    space = FunctionSpace(mesh, 2)
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    system = assemble_poisson(space, f,
                              u_dirichlet=lambda x, y: np.zeros_like(x))
    coeffs = solve(system, method="lu")
    a_raw = assemble_stiffness(space)
    b_raw = assemble_load(space, f)
    energy = coeffs @ (a_raw @ coeffs)
    work = b_raw @ coeffs
    assert abs(energy - work) < 1e-12 * max(1.0, abs(energy))


# ---------------------------------------------------------------------------
# norms and convergence
# ---------------------------------------------------------------------------


def test_h1_seminorm_of_quadratic():
    """|x^2|_{H1} on the unit square is sqrt(int 4x^2) = 2/sqrt(3)."""
    mesh = unit_square_mesh(2)
    space = FunctionSpace(mesh, 2)
    u = interpolate(lambda x, y: x * x, space)
    zero_grad = lambda x, y: np.zeros((2,) + np.shape(x))
    value = h1_seminorm_error(u, zero_grad)
    assert abs(value - 2.0 / np.sqrt(3.0)) < 1e-12


@pytest.mark.parametrize("degree,min_rate", [(1, 0.9), (2, 1.85)])
def test_h1_convergence_rate(degree, min_rate):
    """Energy error drops at O(h^k) for a smooth manufactured solution."""
    u_exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2.0 * np.pi**2 * u_exact(x, y)

    def grad_exact(x, y):
        gx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        gy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        return np.stack([gx, gy])

    errors = []
    for divisions in (8, 16):
        mesh = unit_square_mesh(divisions)
        u = solve_poisson(mesh, degree, f=f,
                          u_dirichlet=lambda x, y: np.zeros_like(x))
        errors.append(h1_seminorm_error(u, grad_exact))
    rate = np.log2(errors[0] / errors[1])
    assert rate > min_rate


# ---------------------------------------------------------------------------
# FEFunction plumbing
# ---------------------------------------------------------------------------


def test_fefunction_rejects_wrong_length():
    space = FunctionSpace(unit_triangle_mesh(), 1)
    with pytest.raises(ValueError):
        FEFunction(space, np.zeros(7))


def test_fefunction_cell_coeffs_and_vertex_values():
    mesh = two_cell_square()
    space = FunctionSpace(mesh, 1)
    u = interpolate(lambda x, y: x + 10.0 * y, space)
    local = u.cell_coeffs()
    assert local.shape == (2, 3)
    for cell in range(2):
        verts = mesh.vertices[mesh.cells[cell]]
        assert np.allclose(local[cell], verts[:, 0] + 10.0 * verts[:, 1])
    vv = u.vertex_values()
    assert np.allclose(vv, mesh.vertices[:, 0] + 10.0 * mesh.vertices[:, 1])
