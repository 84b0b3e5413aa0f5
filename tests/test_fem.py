"""Tests for function spaces, assembly, boundary conditions, and solvers."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from afem2d.bank_weiser import local_system
from afem2d.estimators import residual_estimate
from afem2d.mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh, refine, uniform_refine
from afem2d.problems import lshaped, lshaped_mesh, lshaped_mixed, unit_square_mesh

from helpers import (
    assert_bitwise,
    eliminate_by_diagonal_products,
    facet_traces_at_all_points,
    h1_error_at_all_points,
    jittered_square,
    mapped_point_traces,
    mapped_points,
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


@pytest.mark.parametrize("degree", [0, 5, -1, True, False, 2.0, 1.5, "2", None])
def test_space_rejects_bad_degree(degree):
    """Only an integer from 1 to MAX_DEGREE is a degree: a bool is not
    taken for 0 or 1 and a float is not truncated."""
    with pytest.raises(ValueError):
        FunctionSpace(unit_triangle_mesh(), degree)


def test_space_takes_numpy_integer_degrees():
    space = FunctionSpace(unit_triangle_mesh(), np.int64(2))
    assert space.element is el.lagrange(2) and space.num_dofs == 6


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


def test_p1_dofmap_is_the_cell_array():
    """At degree 1 the dofmap is ``mesh.cells`` itself (int64, read-only),
    not a copy; higher degrees start with the same vertex columns."""
    mesh = unit_square_mesh(3)
    space = FunctionSpace(mesh, 1)
    assert space.dofmap is mesh.cells
    assert space.dofmap.dtype == np.int64 and not space.dofmap.flags.writeable
    for degree in (2, 3, 4):
        dofmap = FunctionSpace(mesh, degree).dofmap
        assert dofmap.dtype == np.int64 and np.array_equal(dofmap[:, :3], mesh.cells)


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
    """The Neumann data of the load and the estimators lands on exactly
    the local edge, of exactly the cell, that lies on the N facet."""
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
    assert np.array_equal(np.argwhere(mesh.lane_tags == NEUMANN), hits)


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


@pytest.mark.parametrize("degree", [1, 3])
def test_cell_derivatives_are_the_elementwise_push_forward(degree):
    """With J^-1 = [[a, b], [c, d]] and the reference derivatives r and h
    of the block product, cell_gradients is (r0 a + r1 c, r0 b + r1 d) and
    cell_laplacians h00 G00 + h01 G01 + h10 G01 + h11 G11 (G = J^-1 J^-T,
    one off-diagonal), bitwise on a jittered mesh.  On a uniformly refined
    L-shape every product is exact, and both equal the stacked matmuls
    they replace up to the sign of zero (adding 0.0 maps -0 to +0)."""
    pts, _ = quad.triangle_rule(6)
    for mesh, exact in ((jittered_square(6, seed=2), False),
                        (uniform_refine(lshaped_mesh(), 2), True)):
        space, inv = FunctionSpace(mesh, degree), mesh.inv
        coeffs = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y), space).cell_coeffs()
        grads, hess = space.element.tabulate_grad(pts), space.element.tabulate_hess(pts)
        nq, dim = hess.shape[:2]
        r = (coeffs @ grads.transpose(1, 0, 2).reshape(dim, 2 * nq)).reshape(-1, nq, 2)
        h = (coeffs @ hess.transpose(1, 0, 2, 3).reshape(dim, 4 * nq)).reshape(-1, nq, 4)
        a, b, c, d = (inv.reshape(-1, 4)[:, k, None] for k in range(4))
        want = np.stack([r[..., 0] * a + r[..., 1] * c, r[..., 0] * b + r[..., 1] * d], axis=-1)
        assert_bitwise(cell_gradients(coeffs, grads, inv), want)
        g01 = a * c + b * d
        want = (h[..., 0] * (a * a + b * b) + h[..., 1] * g01 + h[..., 2] * g01
                + h[..., 3] * (c * c + d * d))
        assert_bitwise(cell_laplacians(coeffs, hess, inv), want)
        if exact:
            metric = np.matmul(inv, inv.transpose(0, 2, 1)).reshape(-1, 4, 1)
            assert_bitwise(cell_gradients(coeffs, grads, inv) + 0.0, np.matmul(r, inv) + 0.0)
            assert_bitwise(cell_laplacians(coeffs, hess, inv) + 0.0,
                           np.matmul(h, metric)[..., 0] + 0.0)


@pytest.mark.parametrize("order", [3, 5, 8, 11])
@pytest.mark.parametrize("random_tags", [False, True], ids=["jittered", "random-tags"])
def test_physical_points_match_vertex_plus_mapped(order, random_tags):
    """Mapping by one affine product per coordinate gives v0 + J x bit for
    bit, for all cells, for slices of two rows or more and of one row, and
    for sorted support rows, with the x and the y plane each C-contiguous."""
    mesh = randomly_tagged_mesh(5, seed=2) if random_tags else jittered_square(6, seed=9)
    pts, _ = quad.triangle_rule(order)
    rows = np.sort(np.random.default_rng(order).choice(mesh.num_cells, 9, replace=False))
    for cells in (slice(None), slice(7, 40), slice(7, 9), slice(7, 8), slice(-1, None),
                  rows, rows[:2], rows[3:4]):
        got, want = physical_points(mesh, pts, cells), mapped_points(mesh, pts, cells)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got[..., 0].flags.c_contiguous and got[..., 1].flags.c_contiguous


@pytest.mark.parametrize("degree", [3, 4])
def test_interior_dof_coordinates_match_vertex_plus_mapped(degree):
    mesh = randomly_tagged_mesh(4, seed=3)
    space = FunctionSpace(mesh, degree)
    interior = el.lagrange_nodes(degree)[3 + 3 * (degree - 1):]
    first = mesh.num_vertices + len(mesh.facets) * (degree - 1)
    assert np.array_equal(space.dof_coordinates()[first:],
                          mapped_points(mesh, interior).reshape(-1, 2))


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
    traces = facet_traces(u, order)
    length, dn, jump, gv = mapped_point_traces(u, g, order)
    assert np.abs(mesh.lane_lengths - length).max() <= 1e-15
    scale = np.abs(dn).max()
    assert np.abs(traces[0] - dn).max() <= 1e-13 * scale
    assert np.abs(jump).max() > 1e-3 * scale  # the jumps are not trivially zero
    assert np.abs(traces[1] - jump).max() <= 1e-12 * scale
    assert np.abs(neumann_values(mesh, g, order) - gv).max() <= 1e-14
    assert np.count_nonzero(gv) > 0


def spy_on_tabulate_grad(monkeypatch):
    """Record the number of points of every ``tabulate_grad`` call."""
    sizes, original = [], el.ReferenceElement.tabulate_grad

    def recording(self, pts):
        sizes.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(el.ReferenceElement, "tabulate_grad", recording)
    return sizes


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_facet_traces_match_all_points_bitwise(monkeypatch, degree):
    """On a randomly refined mixed L-shape (Dirichlet, Neumann and interior
    lanes) the traces are bitwise those formed at every edge-rule point,
    at every order.  At degree 1 the gradient is tabulated at one point
    per lane and both traces are read-only (3, nc, nt) views; at higher
    degrees at every point of the rule."""
    mesh = randomly_refined(lshaped_mixed().mesh, 3, seed=12)[-1]
    assert set(mesh.lane_tags.ravel().tolist()) == {INTERIOR, DIRICHLET, NEUMANN}
    space = FunctionSpace(mesh, degree)
    u = FEFunction(space, RNG.standard_normal(space.num_dofs))
    sizes = spy_on_tabulate_grad(monkeypatch)
    for order in range(quad.MAX_ORDER + 1) if degree == 1 else (2 * degree, 2 * degree + 6):
        nt = len(quad.edge_rule(order)[0])
        sizes.clear()
        traces = facet_traces(u, order)
        assert sizes == [1 if degree == 1 else nt] * 3
        for got, want in zip(traces, facet_traces_at_all_points(u, order)):
            assert got.shape == (3, mesh.num_cells, nt)
            assert got.flags.writeable == (degree > 1)
            assert_bitwise(got, want)


def per_call_jump(mesh, dn):
    """The jump with its neighbour index built from the connectivity on
    every call: the oracle for the index the mesh caches."""
    nc, nt = dn.shape[1:]
    cells, lanes = mesh.facet_cells.T, mesh.facet_lanes.T
    rows = lanes * nc + cells
    inner = cells[1] >= 0
    other = np.arange(3 * nc)
    other[rows[0, inner]] = rows[1, inner]
    other[rows[1, inner]] = rows[0, inner]
    flat = dn.reshape(-1, nt)
    jump = -(flat[other, ::-1] + flat)
    jump[rows[0, ~inner]] = 0.0
    return jump.reshape(dn.shape)


def test_facet_traces_build_the_neighbour_index_once_per_mesh():
    """Two spaces on one mesh share its lane pairing: the first call builds
    it, the second reuses it, and both jumps are bitwise those of an index
    built per call and match the traces mapped into the neighbours."""
    mesh = randomly_tagged_mesh(4, seed=5)
    assert "facing_rows" not in vars(mesh)
    indices = []
    for degree in (1, 2):
        u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y,
                        FunctionSpace(mesh, degree))
        dn, jump = facet_traces(u, 2 * degree + 4)
        indices.append(vars(mesh)["facing_rows"])
        assert np.array_equal(jump, per_call_jump(mesh, dn))
        reference = mapped_point_traces(u, None, 2 * degree + 4)[2]
        assert np.abs(jump - reference).max() <= 1e-12 * np.abs(dn).max()
    assert indices[0] is indices[1]
    other, boundary = indices[0]
    assert not other.flags.writeable and not boundary.flags.writeable
    assert np.array_equal(other[other], np.arange(3 * mesh.num_cells))


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


def test_cell_blocks_partition_the_mesh_and_keep_every_bit(monkeypatch):
    """The blocks run over every cell once, in order; a last block of one
    cell is joined to the one before, so the mapped data of every block
    are bitwise those of one block over all cells.  Without data each
    block's values are None, and a support that misses a block gives None
    for it without evaluating anything there."""
    mesh = randomly_tagged_mesh(5, seed=1)
    pts, _ = quad.triangle_rule(5)
    f = lambda x, y: np.exp(x) - y * y
    want = eval_data(f, physical_points(mesh, pts))
    monkeypatch.setattr(fem, "ERROR_BLOCK", 8)
    assert mesh.num_cells % fem.ERROR_BLOCK == 1
    blocks = list(fem.cell_blocks(mesh, f, pts))
    bounds = [(cells.start, cells.stop) for cells, _ in blocks]
    assert bounds == [(s, s + 8) for s in range(0, 48, 8)] + [(48, mesh.num_cells)]
    assert_bitwise(np.vstack([values for _, values in blocks]), want)
    assert all(values is None for _, values in fem.cell_blocks(mesh))

    evaluated = []

    class Supported:
        def __call__(self, x, y):
            evaluated.append(len(x))
            return f(x, y)

        def support_cells(self, mesh):
            return np.array([3, 9, 10])

    got = [values for _, values in fem.cell_blocks(mesh, Supported(), pts)]
    # a block's one support cell is evaluated alone; physical_points maps
    # it as two rows, so that it goes by a matrix product too
    assert evaluated == [1, 2]
    assert all(values is None for values in got[2:])
    for block, rows in ((0, [3]), (1, [1, 2])):
        assert_bitwise(got[block][rows], want[8 * block:][rows])
        others = np.setdiff1d(np.arange(8), rows)
        assert (got[block][others] == 0.0).all()


def test_load_blocks_match_one_block(monkeypatch):
    """Blocking the load over cells changes no bit: the one-pass formula
    is the oracle, with a block size that does not divide the cell count,
    a nonzero source and Neumann data on the mixed boundary."""
    import afem2d.fem as fem

    space = FunctionSpace(uniform_refine(lshaped_mixed().mesh, 1), 3)
    source = lambda x, y: np.exp(x) - y * y
    g = lambda x, y: 1.0 + x - 2.0 * y
    order = 2 * space.degree + 1
    pts, wts = quad.triangle_rule(order)
    t, wt = quad.edge_rule(order)
    edge = neumann_values(space.mesh, g, order) * space.mesh.lane_lengths[..., None]
    fvals = eval_data(source, physical_points(space.mesh, pts))
    local = (fvals * space.mesh.det[:, None]) @ (wts[:, None] * space.element.tabulate(pts))
    for lane in range(3):
        local += edge[lane] @ (wt[:, None] * space.element.tabulate(fem.lane_points(lane, t)))
    want = np.bincount(space.dofmap.ravel(), local.ravel(), minlength=space.num_dofs)
    monkeypatch.setattr(fem, "ERROR_BLOCK", 100)
    assert space.mesh.num_cells % fem.ERROR_BLOCK != 0
    cells_per_call = []

    def f(x, y):
        cells_per_call.append(len(x))
        return source(x, y)

    assert np.array_equal(assemble_load(space, f, g), want)
    assert cells_per_call == [100, 100, 100, space.mesh.num_cells - 300]


@pytest.mark.parametrize("degree", [1, 2])
def test_no_source_matches_zero_source(monkeypatch, degree):
    """A source f = None, or Neumann data g = None, gives bitwise the load,
    the hierarchical cell loads and the residual indicators of a zero
    callable.  Without f no point is mapped and only g is evaluated;
    without g no Neumann values are formed, only f is evaluated and the
    load tabulates no lane of the element."""
    mesh = randomly_tagged_mesh(3, seed=4)
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    source = lambda x, y: np.exp(x) - y * y
    g = lambda x, y: np.cos(x + 2 * y)
    zero = lambda x, y: 0.0 * x
    kind = (degree + 1, degree)

    def estimates(f, g):
        return local_system(u, f, g, kind), residual_estimate(u, f, g).values

    def assert_bitwise(got, want):
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    want_no_f = (assemble_load(space, zero, g), *estimates(zero, g))
    want_no_g = (assemble_load(space, source, zero), *estimates(source, zero))
    evaluated, mapped, neumann, tabulated = [], [], [], []
    monkeypatch.setattr(fem, "eval_data", lambda fn, x: evaluated.append(fn) or eval_data(fn, x))
    monkeypatch.setattr(fem, "physical_points",
                        lambda *args: mapped.append(args) or physical_points(*args))
    monkeypatch.setattr(fem, "neumann_values",
                        lambda *args: neumann.append(args) or neumann_values(*args))
    tabulate = el.ReferenceElement.tabulate
    monkeypatch.setattr(el.ReferenceElement, "tabulate",
                        lambda self, pts: tabulated.append(pts) or tabulate(self, pts))

    assert_bitwise((assemble_load(space, None, g), *estimates(None, g)), want_no_f)
    assert mapped == [] and evaluated and all(fn is g for fn in evaluated)
    assert len(neumann) == 3

    evaluated.clear(), neumann.clear(), tabulated.clear()
    load = assemble_load(space, source, None)
    # only the strictly interior points of a triangle rule
    assert tabulated and all((pts > 0.0).all() and (pts.sum(axis=1) < 1.0).all()
                             for pts in tabulated)
    assert_bitwise((load, *estimates(source, None)), want_no_g)
    assert neumann == [] and evaluated and all(fn is source for fn in evaluated)


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


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_apply_dirichlet_matches_diagonal_products(degree):
    """Zeroing the constrained rows and columns in the CSR data, a unit
    diagonal and dropping zeros give D_free A D_free + D_fixed exactly, in
    indptr, indices and data: for the scalar zero data MeshHierarchy.add
    passes, for nonzero data, and for a raw matrix that stores exact zeros
    (some on constrained diagonals).  The input matrix is left unchanged."""
    space = FunctionSpace(randomly_tagged_mesh(3, seed=degree), degree)
    dofs = space.dirichlet_dofs()
    stiffness = assemble_stiffness(space)
    stored_zeros = stiffness.copy()
    stored_zeros.data[::5] = 0.0
    rows = np.repeat(np.arange(space.num_dofs), np.diff(stored_zeros.indptr))
    stored_zeros.data[(rows == stored_zeros.indices) & np.isin(rows, dofs[::2])] = 0.0
    rhs = RNG.standard_normal(space.num_dofs)
    for matrix, values in ((stiffness, 0.0), (stiffness, RNG.standard_normal(len(dofs))),
                           (stored_zeros, 0.0)):
        before = [a.copy() for a in (matrix.indptr, matrix.indices, matrix.data)]
        got, _ = apply_dirichlet(matrix, rhs, dofs, values)
        want = eliminate_by_diagonal_products(matrix, dofs)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert got.indices.dtype == want.indices.dtype
        for have, was in zip((matrix.indptr, matrix.indices, matrix.data), before):
            assert np.array_equal(have, was)


def coo_p1_system(mesh, load, dofs, values):
    """The eliminated P1 system by the COO route: the raw stiffness of
    ``assemble_stiffness``, eliminated by ``apply_dirichlet``."""
    return apply_dirichlet(assemble_stiffness(FunctionSpace(mesh, 1)), load, dofs, values)


def assert_same_p1_matrix(got, want, mesh, bitwise=False):
    """One pattern and index width, and no stored zero.  Each off-diagonal
    entry sums one or two cell terms, which commute, so it keeps its bits.
    A diagonal entry sums the k positive terms of the cells at its vertex;
    each summation order is within (k - 1) u |sum| of the exact sum (u =
    eps / 2, at most one ulp of |sum|), so two orders differ by at most
    2 (k - 1) ulp; with ``bitwise``, by none."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.indices.dtype == got.indptr.dtype == want.indices.dtype == np.int32
    assert np.all(got.data != 0.0)
    rows = np.repeat(np.arange(want.shape[0]), np.diff(want.indptr))
    diagonal = rows == want.indices
    assert np.array_equal(got.data[~diagonal], want.data[~diagonal])
    cells_at = np.bincount(mesh.cells.ravel(), minlength=mesh.num_vertices)[rows[diagonal]]
    ulps = 0 if bitwise else 2 * np.maximum(cells_at - 1, 0)
    gap = np.abs(got.data[diagonal] - want.data[diagonal])
    assert np.all(gap <= ulps * np.spacing(want.data[diagonal]))


@settings(max_examples=40, deadline=None)
@given(divisions=st.integers(1, 9), seed=st.integers(0, 2**16), tagged=st.booleans(),
       lifted=st.booleans())
def test_p1_system_matches_the_coo_route(divisions, seed, tagged, lifted):
    """The facet-graph builder gives the COO route's system: its pattern,
    its off-diagonal entries and its lifted load bitwise, and its diagonal
    to within the reordering bound (at most 3 ulp over 2,400 such meshes),
    on jittered meshes and on meshes with random Dirichlet and Neumann
    edges, for zero and nonzero Dirichlet values."""
    mesh = randomly_tagged_mesh(divisions, seed) if tagged else jittered_square(divisions, seed)
    dofs = FunctionSpace(mesh, 1).dirichlet_dofs()
    rng = np.random.default_rng(seed)
    load = rng.standard_normal(mesh.num_vertices)
    values = rng.standard_normal(len(dofs)) if lifted else np.zeros(len(dofs))
    got, got_rhs = fem.assemble_p1_system(mesh, load, dofs, values)
    want, want_rhs = coo_p1_system(mesh, load, dofs, values)
    assert_same_p1_matrix(got, want, mesh)
    assert_bitwise(got_rhs, want_rhs)


@pytest.mark.parametrize("refinements", [0, 1, 2, 3])
def test_p1_system_is_the_coo_route_bitwise_on_the_lshape(refinements):
    """On the L-shape's right triangles the builder keeps every bit of the
    COO route, and like ``eliminate_zeros`` it stores none of the exactly
    zero couplings (cot 90 deg) that the raw stiffness holds."""
    problem = lshaped()
    mesh = uniform_refine(lshaped_mesh(2), refinements)
    space = FunctionSpace(mesh, 1)
    dofs = space.dirichlet_dofs()
    values = eval_data(problem.u_dirichlet, mesh.vertices[dofs]).copy()
    load = assemble_load(space, lambda x, y: np.cos(x) + y)
    got, got_rhs = fem.assemble_p1_system(mesh, load, dofs, values)
    want, want_rhs = coo_p1_system(mesh, load, dofs, values)
    assert_same_p1_matrix(got, want, mesh, bitwise=True)
    assert_bitwise(got_rhs, want_rhs)
    assert np.any(assemble_stiffness(space).data == 0.0)
    system = assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
    assert_same_p1_matrix(system.matrix, want, mesh, bitwise=True)


def three_term_p1_matrix(mesh, dofs):
    """The eliminated P1 matrix as ``upper + upper.T + diags(diagonal)``,
    from the facet couplings and vertex diagonals that
    ``assemble_p1_system`` sums."""
    nv, (lo, hi) = mesh.num_vertices, mesh.facets.T
    local = mesh.metric @ reference_stiffness(el.lagrange(1))
    a, b = np.asarray(el.EDGE_VERTICES).T
    coupling = np.bincount(mesh.cell_facets.ravel(), local[:, 3 * a + b].ravel(),
                           minlength=len(lo))
    diagonal = np.bincount(mesh.cells.ravel(), local[:, ::4].ravel(), minlength=nv)
    free = np.ones(nv, dtype=bool)
    free[dofs] = False
    diagonal[~free] = 1.0
    keep = np.flatnonzero(free[lo] & free[hi] & (coupling != 0.0))
    index = np.int32 if nv + 2 * len(lo) < 2**31 else np.int64
    indptr = np.zeros(nv + 1, dtype=index)
    np.cumsum(np.bincount(lo[keep], minlength=nv), out=indptr[1:])
    upper = sparse.csr_matrix((coupling[keep], hi[keep].astype(index), indptr), shape=(nv, nv))
    return upper + upper.T + sparse.diags(diagonal, format="csr")


@settings(max_examples=40, deadline=None)
@given(divisions=st.integers(1, 9), seed=st.integers(0, 2**16), tagged=st.booleans())
@example(divisions=4, seed=1, tagged=True)
def test_p1_matrix_is_the_three_term_sum_bitwise(divisions, seed, tagged):
    """Each row laid out as its diagonal then its upper couplings, plus the
    transpose of the upper triangle in one sparse sum, gives the matrix of
    ``upper + upper.T + diags(diagonal)`` in ``indptr``, ``indices`` (dtype
    included) and ``data``, on jittered meshes, on meshes with random D/N
    edges and on the L-shape, whose right angles give zero couplings; a
    vertex in no cell has a zero diagonal, which neither stores."""
    mesh = randomly_tagged_mesh(divisions, seed) if tagged else jittered_square(divisions, seed)
    meshes = [mesh, Mesh(np.vstack([mesh.vertices, [[5.0, 5.0]]]), mesh.cells),
              uniform_refine(lshaped_mesh(2), divisions % 3)]
    for mesh in meshes:
        dofs = FunctionSpace(mesh, 1).dirichlet_dofs()
        got, _ = fem.assemble_p1_system(mesh, np.zeros(mesh.num_vertices), dofs, 0.0)
        want = three_term_p1_matrix(mesh, dofs)
        for field in ("indptr", "indices", "data"):
            assert_bitwise(getattr(got, field), getattr(want, field))
        assert got.indices.dtype == want.indices.dtype == np.int32


@pytest.mark.parametrize("degree", [2, 3])
def test_hierarchy_p1_operator_comes_from_the_p1_builder(monkeypatch, degree):
    """At degree > 1, ``MeshHierarchy.add`` builds its P1 operator with the
    facet-graph builder, with zero Dirichlet values, and assembles no raw
    stiffness; the operator is the COO route's on a mesh with Dirichlet and
    Neumann edges and rotated cells."""
    mesh = refine(randomly_tagged_mesh(4, seed=degree), [0, 3, 7, 11])
    space = FunctionSpace(mesh, degree)
    system = assemble_poisson(space, lambda x, y: np.sin(x) * y)
    calls = {"assemble_p1_system": [], "assemble_stiffness": []}
    for name in calls:
        original = getattr(fem, name)

        def recording(*args, original=original, name=name):
            result = original(*args)
            calls[name].append((args, result))
            return result

        monkeypatch.setattr(fem, name, recording)
    MeshHierarchy().add(space, system)
    assert calls["assemble_stiffness"] == []
    [((built_mesh, load, dofs, values), (matrix, _))] = calls["assemble_p1_system"]
    assert built_mesh is mesh and not np.any(load) and not np.any(values)
    fixed = FunctionSpace(mesh, 1).dirichlet_dofs()
    assert np.array_equal(dofs, fixed)
    want, _ = coo_p1_system(mesh, np.zeros(mesh.num_vertices), fixed, 0.0)
    assert_same_p1_matrix(matrix, want, mesh)


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


def two_load_system(degree=2):
    """Mixed-boundary system with a second, Dirichlet-eliminated load."""
    problem = lshaped_mixed()
    space = FunctionSpace(problem.mesh, degree)
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


def diagonal_system(diagonal):
    """An eliminated-looking system whose matrix is ``diag(diagonal)``,
    every entry stored."""
    from scipy.sparse import csr_matrix

    from afem2d.fem import SparseSystem

    n = len(diagonal)
    matrix = csr_matrix((np.asarray(diagonal, dtype=float), np.arange(n), np.arange(n + 1)))
    return SparseSystem(matrix, np.ones(n), np.array([], dtype=int))


def test_lu_on_a_singular_matrix_raises_solver_error():
    with pytest.raises(SolverError, match="singular"):
        solve(diagonal_system([1.0, 0.0, 2.0]), method="lu")


def test_hierarchy_coarse_level_on_a_singular_matrix_raises_solver_error():
    space = FunctionSpace(lshaped_mixed().mesh, 1)
    system = diagonal_system(np.arange(space.num_dofs) != 5)
    with pytest.raises(SolverError, match="singular"):
        MeshHierarchy().add(space, system)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_jacobi_cg_rejects_a_bad_diagonal_before_iterating(monkeypatch, bad):
    """A zero, negative or non-finite diagonal entry would make the Jacobi
    preconditioner divide by zero or lose definiteness, and CG would then
    run to maxiter on NaNs."""
    def never(*args, **kwargs):
        raise AssertionError("CG ran with a bad Jacobi diagonal")

    monkeypatch.setattr(fem.spla, "cg", never)
    with pytest.raises(SolverError, match="diagonal"):
        solve(diagonal_system([1.0, bad, 2.0]), method="cg")


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_lu_matches_the_dense_solve_with_two_loads(degree):
    """The unpivoted symmetric-mode factors solve a mixed Dirichlet and
    Neumann system as accurately as a dense pivoted LU."""
    system, second = two_load_system(degree)
    loads = np.column_stack([system.rhs, second])
    want = np.linalg.solve(system.matrix.toarray(), loads)
    got = solve(dataclasses.replace(system, rhs=loads), method="lu")
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_symmetric_mode_fills_less_than_the_default_splu():
    matrix = eliminated_p1_matrix(uniform_refine(lshaped_mesh(), 3))
    symmetric = fem._factor_spd(matrix)
    default = fem.spla.splu(matrix.tocsc())
    assert symmetric.L.nnz + symmetric.U.nnz < default.L.nnz + default.U.nnz


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_unrelaxed_factors_match_superlu_default_panels(degree):
    """Without relaxed supernodes and with one-column panels the factors
    hold what SuperLU's default relax and panel_size give under the same
    ordering and mode, and solve a jittered mixed D/N system as well."""
    mesh = randomly_tagged_mesh(6, seed=4)
    space = FunctionSpace(mesh, degree)
    system = assemble_poisson(space, lambda x, y: np.cos(3 * x) + y, lambda x, y: x - y,
                              lambda x, y: np.sin(x + 2 * y))
    matrix, rhs = system.matrix.tocsc(), system.rhs
    ours = fem._factor_spd(system.matrix)
    default = fem.spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
    assert ours.L.nnz + ours.U.nnz == default.L.nnz + default.U.nnz
    got, want = ours.solve(rhs), default.solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(rhs - matrix @ got) <= 1e-10 * np.linalg.norm(rhs)


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


def test_solve_passes_one_start_per_column_to_cg_only(monkeypatch):
    """``x0`` reaches CG column by column; from the solution itself CG
    stops at once with that solution.  ``lu`` rejects a start."""
    import afem2d.fem as fem

    system, second = two_load_system()
    system.rhs = np.column_stack([system.rhs, second])
    solution = solve(system, method="cg")
    seen = []
    original = fem.spla.cg

    def recording(*args, **kwargs):
        seen.append(kwargs["x0"])
        return original(*args, **kwargs)

    monkeypatch.setattr(fem.spla, "cg", recording)
    assert np.array_equal(solve(system, method="cg", x0=solution), solution)
    assert len(seen) == 2 and all(np.array_equal(s, c) for s, c in zip(seen, solution.T))
    seen.clear()
    solve(system, method="cg")
    assert seen == [None, None]
    with pytest.raises(ValueError, match="cg only"):
        solve(system, method="lu", x0=solution)


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
    assert restrict.format == "csr" and (restrict != product.T).nnz == 0
    # The stored CSR restriction has the bits of the transposed view's product.
    r = np.random.default_rng(3).standard_normal(matrix.shape[0])
    assert (restrict @ r).tobytes() == (prolong.T @ r).tobytes()
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


def v_cycle_with_temporaries(levels, coarse_solve, r):
    """``fem.v_cycle`` as ``x += step * (r - matrix @ x)`` in whole-array
    expressions."""
    if not levels:
        return coarse_solve(r)
    matrix, prolong, restrict, step, sweeps = levels[0]
    x = step * r
    for _ in range(sweeps - 1):
        x += step * (r - matrix @ x)
    x += prolong @ v_cycle_with_temporaries(levels[1:], coarse_solve, restrict @ (r - matrix @ x))
    for _ in range(sweeps):
        x += step * (r - matrix @ x)
    return x


@pytest.mark.parametrize("sweeps", [1, 2])
@pytest.mark.parametrize("degree", [1, 2])
def test_v_cycle_smooths_in_place_bitwise(monkeypatch, degree, sweeps):
    """The V-cycle's sweeps, which write the residual into the product's
    array and scale it there, keep the bits of the whole-array formula."""
    monkeypatch.setattr(fem, "COARSE_DOFS", 70)
    monkeypatch.setattr(fem, "MG_SWEEPS", sweeps)
    problem = lshaped_mixed()
    hierarchy = MeshHierarchy()
    for mesh in randomly_refined(problem.mesh, 4, seed=4):
        space = FunctionSpace(mesh, degree)
        hierarchy.add(space, assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet))
    levels = hierarchy.p_level + hierarchy.levels
    r = RNG.standard_normal(space.num_dofs)
    assert len(hierarchy.levels) >= 2
    assert_bitwise(hierarchy.cycle(r),
                   v_cycle_with_temporaries(levels, hierarchy._coarse_lu.solve, r))


def test_hierarchy_builds_a_prolongation_only_above_the_coarse_level(monkeypatch):
    """Every added mesh is checked against the last one, but only a mesh
    above COARSE_DOFS, which keeps it as a level, gets a prolongation."""
    calls = []

    def counted(coarse, fine):
        calls.append(fine.num_vertices)
        return prolongation(coarse, fine)

    monkeypatch.setattr(fem, "prolongation", counted)
    monkeypatch.setattr(fem, "COARSE_DOFS", 120)  # the meshes have 65 to 251 vertices
    meshes = randomly_refined(lshaped_mixed().mesh, 4, seed=4)
    hierarchy = MeshHierarchy()
    for mesh in meshes:
        hierarchy.add(*poisson_system(mesh))
    above = [mesh.num_vertices for mesh in meshes[1:] if mesh.num_vertices > fem.COARSE_DOFS]
    assert calls == above and 0 < len(above) < len(meshes) - 1
    with pytest.raises(ValueError, match="not a refinement"):
        hierarchy.add(*poisson_system(meshes[0]))
    assert len(calls) == len(above)


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
    for (a1, pr1, r1, s1, w1), (a2, pr2, r2, s2, w2) in zip(p1.levels, p2.levels):
        assert_same_csr(a1, a2)
        assert_same_csr(pr1, pr2)
        assert_same_csr(r1, r2)
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


@pytest.mark.parametrize("name", ["jittered", "random-tags", "lshaped-mixed"])
def test_h1_seminorm_degree_one_matches_all_points(monkeypatch, name):
    """At degree 1 the gradient formed at one point and broadcast gives the
    error of the gradient formed at every point, bit for bit, also over
    several blocks."""
    mesh = {"jittered": lambda: jittered_square(12, seed=5),
            "random-tags": lambda: randomly_tagged_mesh(6, seed=4),
            "lshaped-mixed": lambda: lshaped_mixed().mesh}[name]()
    monkeypatch.setattr(fem, "ERROR_BLOCK", 50)
    space = FunctionSpace(mesh, 1)
    u = FEFunction(space, RNG.standard_normal(space.num_dofs))
    for grad_exact in (lshaped().grad_exact,
                       lambda x, y: (np.cos(3 * x) * y, np.sin(3 * x) / 3 + 0 * y)):
        assert h1_seminorm_error(u, grad_exact) == h1_error_at_all_points(u, grad_exact)


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


HARMONIC_SOLUTIONS = {
    "exp-sin": (lambda x, y: np.exp(x) * np.sin(y),
                lambda x, y: (np.exp(x) * np.sin(y), np.exp(x) * np.cos(y))),
    "cubic": (lambda x, y: x**3 - 3.0 * x * y**2,
              lambda x, y: (3.0 * x**2 - 3.0 * y**2, -6.0 * x * y)),
}


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(HARMONIC_SOLUTIONS))
def test_green_identity_matches_a_high_order_rule(monkeypatch, name, degree):
    """For a harmonic u the boundary identity gives the H1 error of any u_h
    (here a perturbed interpolant) that the order-20 volume rule gives, on
    a jittered unit square with random D/N tags, over several blocks.

    The edge rule of order 2k + 3 is exact on the cubic; on exp-sin its
    error falls like h^(2k + 4) and is largest at P1: with a perturbation
    of 0.01 it reads 1.6e-8 relative on 6 divisions and 1.4e-10 on 12.
    """
    u_exact, grad_exact = HARMONIC_SOLUTIONS[name]
    monkeypatch.setattr(fem, "ERROR_BLOCK", 50)
    base = jittered_square(12, seed=degree)
    pairs = base.facets[base.boundary_facets()]
    tags = np.random.default_rng(degree).choice([DIRICHLET, NEUMANN], size=len(pairs))
    space = FunctionSpace(Mesh(base.vertices, base.cells, boundary=(pairs, tags)), degree)
    u = interpolate(u_exact, space)
    u.coeffs += 0.1 * RNG.standard_normal(space.num_dofs)
    want = h1_error_at_all_points(u, grad_exact, order=20)
    got = h1_seminorm_error(u, grad_exact, u_exact=u_exact)
    assert abs(got - want) <= 1e-10 * want


@pytest.fixture(scope="module")
def final_solutions():
    """The final P1 solutions of an lshaped and an lshaped-mixed loop."""
    from afem2d.adapt import AdaptConfig, adapt_loop

    runs = ((lshaped(), "bw:2,1", 30000), (lshaped_mixed(), "zz", 20000))
    return [(problem, adapt_loop(problem, AdaptConfig(estimator=estimator,
                                                      max_dofs=budget)).solution)
            for problem, estimator, budget in runs]


def test_volume_rules_rise_towards_the_green_identity(final_solutions):
    """On the corner singularities the volume rules of order 5, 9, 15 and
    20 under-read the error less and less, and all stay below the identity."""
    for problem, u in final_solutions:
        identity = h1_seminorm_error(u, problem.grad_exact, u_exact=problem.u_exact)
        rules = [h1_error_at_all_points(u, problem.grad_exact, order=order)
                 for order in (5, 9, 15, 20)]
        assert rules[0] == h1_seminorm_error(u, problem.grad_exact)
        assert np.all(np.diff(rules + [identity]) > 0), (problem.name, rules, identity)


def test_green_identity_is_resolved_by_the_edge_rule(monkeypatch, final_solutions):
    """At P1 the boundary integral by the order-5 edge rule agrees with the
    order-11 one: the integrand vanishes on the edges at the corner."""
    edge_rule = quad.edge_rule
    for problem, u in final_solutions:
        args = (u, problem.grad_exact)
        want = h1_seminorm_error(*args, u_exact=problem.u_exact)
        monkeypatch.setattr(quad, "edge_rule", lambda order: edge_rule(order + 6))
        got = h1_seminorm_error(*args, u_exact=problem.u_exact)
        monkeypatch.undo()
        assert abs(got - want) <= 1e-9 * want


def green_h1_error_from_mesh_arrays(u, grad_exact, u_exact):
    """The Green identity's H1 error with the boundary lanes' lengths and
    normals read from ``Mesh.lane_lengths`` and ``Mesh.lane_normals``."""
    space, mesh = u.space, u.space.mesh
    element, d = space.element, space.element.dim
    kref = reference_stiffness(element).reshape(4, d, d).transpose(1, 0, 2).reshape(d, 4 * d)
    energy = 0.0
    for cells, _ in fem.cell_blocks(mesh):
        coeffs = u.coeffs[space.dofmap[cells]]
        forms = np.einsum("csj,cj->cs", (coeffs @ kref).reshape(-1, 4, d), coeffs)
        energy += float(np.vdot(mesh.metric[cells], forms))
    facets = mesh.boundary_facets()
    cells, lanes = mesh.facet_cells[facets, 0], mesh.facet_lanes[facets, 0]
    t, wt = quad.edge_rule(2 * space.degree + 3)
    uh = np.empty((len(facets), len(t)))
    for lane in range(3):
        rows = lanes == lane
        table = element.tabulate(fem.lane_points(lane, t))
        uh[rows] = u.coeffs[space.dofmap[cells[rows]]] @ table.T
    x = fem.lane_physical_points(mesh, lanes, cells, t)
    gx, gy = grad_exact(x[..., 0], x[..., 1])
    normals = mesh.lane_normals[lanes, cells]
    flux = gx * normals[:, :1] + gy * normals[:, 1:]
    boundary = ((flux * (eval_data(u_exact, x) - 2.0 * uh)) @ wt) @ mesh.lane_lengths[lanes, cells]
    return float(np.sqrt(max(energy + boundary, 0.0)))


@pytest.mark.parametrize("degree", [1, 2])
def test_green_boundary_lanes_have_the_mesh_lane_geometry(monkeypatch, degree):
    """The Green identity forms the lengths and outward normals of the
    boundary lanes from those lanes' own ends, bitwise ``Mesh.lane_lengths``
    and ``Mesh.lane_normals`` there, on a jittered mesh with random D/N
    tags and rotated cells; so its error has the bits of the one read off
    the mesh's arrays, and the mesh never forms them for every lane."""
    u_exact, grad_exact = HARMONIC_SOLUTIONS["exp-sin"]
    monkeypatch.setattr(fem, "ERROR_BLOCK", 16)
    mesh = randomly_tagged_mesh(6, seed=degree)
    facets = mesh.boundary_facets()
    cells, lanes = mesh.facet_cells[facets, 0], mesh.facet_lanes[facets, 0]
    space = FunctionSpace(mesh, degree)
    u = interpolate(u_exact, space)
    u.coeffs += 0.1 * RNG.standard_normal(space.num_dofs)
    got = h1_seminorm_error(u, grad_exact, u_exact=u_exact)
    assert "lane_lengths" not in vars(mesh) and "lane_normals" not in vars(mesh)

    va, vb = fem.lane_ends(mesh, lanes, cells)
    lx, ly = (vb - va).T
    lengths = np.hypot(lx, ly)
    assert_bitwise(lengths, mesh.lane_lengths[lanes, cells])
    assert_bitwise(np.column_stack([ly / lengths, -lx / lengths]), mesh.lane_normals[lanes, cells])
    assert got == green_h1_error_from_mesh_arrays(u, grad_exact, u_exact)


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
