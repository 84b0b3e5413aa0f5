"""Shared fixtures-by-hand: tiny meshes and independent evaluation helpers."""

import numpy as np
import scipy.sparse as sparse

from afem2d import FEFunction, FunctionSpace, Mesh
from afem2d import element as el
from afem2d import fem
from afem2d import quadrature as quad
from afem2d.mesh import DIRICHLET, INTERIOR, NEUMANN
from afem2d.problems import unit_square_mesh


def tagged_unit_square(divisions, boundary):
    """Structured unit-square mesh with a custom boundary tagger."""
    base = unit_square_mesh(divisions)
    return Mesh(base.vertices, base.cells, boundary=boundary)


def unit_triangle_mesh(boundary=None):
    """The reference triangle as a one-cell mesh."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(vertices, np.array([[0, 1, 2]]), boundary=boundary)


def two_cell_square(boundary=None):
    """Unit square split along the (0,0)-(1,1) diagonal."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cells = np.array([[1, 2, 0], [3, 0, 2]])  # diagonal opposite slot 0
    return Mesh(vertices, cells, boundary=boundary)


def criss_cross_square(boundary=None):
    """Unit square cut into 4 triangles through the center vertex.

    Each cell leads with the center so its refinement edge is the outer
    (longest) side, keeping bisection self-similar."""
    vertices = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    cells = np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]])
    return Mesh(vertices, cells, boundary=boundary)


def jittered_square(divisions, seed):
    """Structured unit-square mesh with its interior vertices moved by up
    to 0.15 of the mesh width, so no two cells share a Jacobian."""
    base = unit_square_mesh(divisions)
    rng = np.random.default_rng(seed)
    fixed = np.zeros(base.num_vertices, dtype=bool)
    fixed[base.facets[base.boundary_facets()].ravel()] = True
    vertices = base.vertices.copy()
    shift = rng.uniform(-1.0, 1.0, size=vertices.shape) * 0.15 / divisions
    vertices[~fixed] += shift[~fixed]
    return Mesh(vertices, base.cells)


def randomly_tagged_mesh(divisions, seed):
    """A jittered unit square with every cell's vertices rotated at random
    and random D/N boundary tags, plus seven detached triangles, one per
    nonzero Dirichlet pattern (the last one all-Dirichlet), so that every
    pattern 0-7 occurs and Dirichlet edges sit on every lane."""
    base = jittered_square(divisions, seed)
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 3, size=base.num_cells)
    cells = [np.take_along_axis(base.cells, (np.arange(3) + shift[:, None]) % 3, axis=1)]
    vertices = [base.vertices]
    pairs = base.facets[base.boundary_facets()]
    tags = rng.choice([DIRICHLET, NEUMANN], size=len(pairs))
    boundary = {(int(a), int(b)): int(t) for (a, b), t in zip(pairs, tags)}
    for m in range(1, 8):
        v = base.num_vertices + 3 * (m - 1)
        vertices.append(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + [2.0 * m, 0.0])
        cells.append([[v, v + 1, v + 2]])
        for lane, (a, b) in enumerate(el.EDGE_VERTICES):
            boundary[(v + a, v + b)] = DIRICHLET if m >> lane & 1 else NEUMANN
    return Mesh(np.vstack(vertices), np.vstack(cells), boundary=boundary)


def quadrature_gradients(ref_grads, inv):
    """The einsum push-forward of reference gradients: (nc, nq, d, 2)."""
    return np.einsum("cst,qis->cqit", inv, ref_grads)


def mapped_points(mesh, ref_pts, cells=slice(None)):
    """Reference points mapped to the selected cells by v0 + J x, one cell's
    2 x 2 Jacobian at a time: the direct formula that ``fem.physical_points``
    reproduces in its coordinate-plane layout, (n, nq, 2) C-ordered."""
    jac = mesh.jac[cells]
    v0 = mesh.vertices[mesh.cells[cells, 0]]
    mapped = (jac.reshape(-1, 2) @ ref_pts.T).reshape(len(jac), 2, -1)
    return v0[:, None, :] + mapped.transpose(0, 2, 1)


def h1_error_at_all_points(u, grad_exact, order=None):
    """``fem.h1_seminorm_error``'s volume rule with u_h's gradient formed at
    every point of the rule, at any degree; ``order`` replaces the rule's
    order 2k + 3."""
    space, mesh = u.space, u.space.mesh
    pts, wts = quad.triangle_rule(2 * space.degree + 3 if order is None else order)
    ref_grads = space.element.tabulate_grad(pts)
    cell_sums = np.empty(mesh.num_cells)
    for cells, _ in fem.cell_blocks(mesh):
        gh = fem.cell_gradients(u.coeffs[space.dofmap[cells]], ref_grads, mesh.inv[cells])
        x = mapped_points(mesh, pts, cells)
        gx, gy = grad_exact(x[..., 0], x[..., 1])
        cell_sums[cells] = ((gh[..., 0] - gx) ** 2 + (gh[..., 1] - gy) ** 2) @ wts
    return float(np.sqrt(mesh.det @ cell_sums))


def zz_recovery(u, grads=None):
    """ZZ recovery of a P1 function by the direct formulas: cell gradients
    by a three-operand einsum (unless ``grads`` is given) and area-weighted
    vertex sums by ``np.add.at``.  Returns (grads, recovered)."""
    space, mesh = u.space, u.space.mesh
    if grads is None:
        ref_grad = space.element.tabulate_grad(np.array([[1.0 / 3.0, 1.0 / 3.0]]))[0]
        grads = np.einsum("ci,cst,is->ct", u.cell_coeffs(), mesh.inv, ref_grad)
    weighted = np.zeros((mesh.num_vertices, 2))
    measure = np.zeros(mesh.num_vertices)
    areas = 0.5 * mesh.det
    np.add.at(weighted, mesh.cells.ravel(), np.repeat(areas[:, None] * grads, 3, axis=0))
    np.add.at(measure, mesh.cells.ravel(), np.repeat(areas, 3))
    return grads, weighted / measure[:, None]


def zz_closed_form(u):
    """ZZ indicators from ``fem.cell_gradients`` (the estimator's own cell
    gradients), ``np.add.at`` vertex sums of ``np.repeat``-ed weighted
    gradients and the closed-form P1 mass by einsum over the (nc, 3, 2)
    gathered differences: the estimator's formula, which it must keep bit
    for bit."""
    space, mesh = u.space, u.space.mesh
    ref_grad = space.element.tabulate_grad(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    grads = fem.cell_gradients(u.cell_coeffs(), ref_grad, mesh.inv)[:, 0]
    grads, recovered = zz_recovery(u, grads)
    diff = recovered[mesh.cells] - grads[:, None, :]
    total = diff.sum(axis=1)
    eta2 = 0.5 * mesh.det * (np.einsum("ct,ct->c", total, total)
                             + np.einsum("cjt,cjt->c", diff, diff)) / 12.0
    return np.sqrt(eta2)


def jitter_interior(mesh, seed, scale=0.2):
    """Copy of ``mesh`` with its interior vertices moved by up to ``scale``
    times its shortest facet, boundary tags kept."""
    rng = np.random.default_rng(seed)
    boundary = mesh.boundary_facets()
    fixed = np.zeros(mesh.num_vertices, dtype=bool)
    fixed[mesh.facets[boundary].ravel()] = True
    vertices = mesh.vertices.copy()
    step = scale * mesh.facet_lengths().min()
    vertices[~fixed] += rng.uniform(-step, step, size=(int((~fixed).sum()), 2))
    tags = {(int(a), int(b)): int(t)
            for (a, b), t in zip(mesh.facets[boundary], mesh.facet_tags[boundary])}
    return Mesh(vertices, mesh.cells, boundary=tags)


def zz_mass_form(mesh, grads, recovered):
    """ZZ indicators with the P1 mass matrix (1 + delta_jk) / 12 applied
    as a 3x3 matrix."""
    mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    diff = recovered[mesh.cells] - grads[:, None, :]
    return np.sqrt(0.5 * mesh.det * np.einsum("cjt,jk,ckt->c", diff, mass, diff))


def eliminate_by_diagonal_products(matrix, dofs):
    """D_free A D_free + D_fixed, as CSR: the Dirichlet elimination of
    ``fem.apply_dirichlet`` by diagonal matrix products."""
    keep = np.ones(matrix.shape[0])
    keep[dofs] = 0.0
    d_free = sparse.diags(keep)
    return (d_free @ matrix @ d_free + sparse.diags(1.0 - keep)).tocsr()


def quadrature_stiffness(element, order, mesh):
    """Cell stiffness matrices by quadrature of pushed-forward gradients."""
    pts, wts = quad.triangle_rule(order)
    grads = quadrature_gradients(element.tabulate_grad(pts), mesh.inv)
    return np.einsum("cqit,cqjt,q,c->cij", grads, grads, wts, mesh.det)


def mask_and_project(u, f, g, fine, nullbasis):
    """Reference for the hierarchical estimator's projected systems.

    Builds every cell's fine-space stiffness by quadrature, zeroes the
    rows and columns of the fine DOFs on Dirichlet facets, puts ones on
    their diagonal and projects the result onto the kernel ``nullbasis``.
    Returns (a_bw, b_bw, lift, eta): projected systems and loads, lifted
    local solutions and cell indicators.  ``f`` or ``g`` None is zero.
    """
    space = u.space
    mesh = space.mesh
    det, inv = mesh.det, mesh.inv
    order = max(2 * fine.degree, space.degree + fine.degree + 2)
    pts, wts = quad.triangle_rule(order)
    a_raw = quadrature_stiffness(fine, order, mesh)

    r = np.zeros((mesh.num_cells, len(wts)))
    if f is not None:
        r = r + fem.eval_data(f, fem.physical_points(mesh, pts))
    if space.degree >= 2:
        r = r + fem.cell_laplacians(u.cell_coeffs(), space.element.tabulate_hess(pts), inv)
    b = (r * det[:, None]) @ (wts[:, None] * fine.tabulate(pts))

    t, wt = quad.edge_rule(order)
    tags, length = mesh.lane_tags, mesh.lane_lengths
    dn, jump = fem.facet_traces(u, order)
    gv = 0.0 if g is None else fem.neumann_values(mesh, g, order)
    data = np.where((tags == NEUMANN)[..., None], gv - dn, 0.5 * jump) * length[..., None]
    constrained = np.zeros((mesh.num_cells, fine.dim), dtype=bool)
    for lane in range(3):
        b += data[lane] @ (wt[:, None] * fine.tabulate(fem.lane_points(lane, t)))
        constrained[np.ix_(tags[lane] == DIRICHLET, fine.edge_dofs[lane])] = True

    free = ~constrained
    a_mod = a_raw * (free[:, :, None] & free[:, None, :])
    idx = np.arange(a_raw.shape[1])
    a_mod[:, idx, idx] = np.where(constrained, 1.0, a_mod[:, idx, idx])
    b_mod = np.where(free, b, 0.0)
    a_bw = np.matmul(nullbasis.T, a_mod) @ nullbasis
    b_bw = b_mod @ nullbasis
    x = np.linalg.solve(a_bw, b_bw[..., None])[..., 0]
    lift = x @ nullbasis.T
    eta2 = np.einsum("ci,cij,cj->c", lift, a_raw, lift, optimize=True)
    return a_bw, b_bw, lift, np.sqrt(np.maximum(eta2, 0.0))


def mapped_point_traces(u, g, order):
    """Reference for ``fem.facet_traces`` that needs no facet-lane map.

    For local edge ``lane`` of each cell the physical edge points are
    mapped back into the neighbouring cell and its basis is tabulated
    there.  Returns (length, dn, jump, gv) laid out like the lane lengths
    of the mesh, ``fem.facet_traces`` and ``fem.neumann_values``: jump is
    zero off interior facets and gv zero off Neumann facets (everywhere
    when ``g`` is None).
    """
    space = u.space
    mesh = space.mesh
    u_el = space.element
    inv = mesh.inv
    t, _ = quad.edge_rule(order)
    coeffs = u.cell_coeffs()
    v0 = mesh.vertices[mesh.cells[:, 0]]
    nc, nq = mesh.num_cells, len(t)
    length = np.zeros((3, nc))
    dn, jump, gv = (np.zeros((3, nc, nq)) for _ in range(3))
    for lane, (a, b) in enumerate(el.EDGE_VERTICES):
        fid = mesh.cell_facets[:, lane]
        tags = mesh.facet_tags[fid]
        ref = fem.lane_points(lane, t)
        x = fem.physical_points(mesh, ref)
        g_own = np.einsum(
            "ci,cqit->cqt", coeffs, quadrature_gradients(u_el.tabulate_grad(ref), inv)
        )
        evec = mesh.vertices[mesh.cells[:, b]] - mesh.vertices[mesh.cells[:, a]]
        length[lane] = np.hypot(evec[:, 0], evec[:, 1])
        normal = np.column_stack([evec[:, 1], -evec[:, 0]]) / length[lane][:, None]
        dn[lane] = np.einsum("cqt,ct->cq", g_own, normal)

        inner = np.flatnonzero(tags == INTERIOR)
        pair = mesh.facet_cells[fid[inner]]
        nb = np.where(pair[:, 0] == inner, pair[:, 1], pair[:, 0])
        local = np.einsum("cts,cqs->cqt", inv[nb], x[inner] - v0[nb][:, None, :])
        nb_grads = u_el.tabulate_grad(local.reshape(-1, 2)).reshape(
            inner.size, nq, u_el.dim, 2
        )
        g_nb = np.einsum("ci,cst,cqis->cqt", coeffs[nb], inv[nb], nb_grads)
        jump[lane, inner] = np.einsum("cqt,ct->cq", g_nb - g_own[inner], normal[inner])

        neum = np.flatnonzero(tags == NEUMANN)
        if g is not None and neum.size:
            xn = x[neum]
            gv[lane, neum] = np.broadcast_to(g(xn[..., 0], xn[..., 1]), xn.shape[:2])
    return length, dn, jump, gv


def facet_traces_at_all_points(u, order):
    """``fem.facet_traces`` with the normal derivatives formed at every
    point of the edge rule, at any degree: writable (3, nc, nt) arrays."""
    space, mesh = u.space, u.space.mesh
    t, _ = quad.edge_rule(order)
    nc, nt = mesh.num_cells, len(t)
    inv, (nx, ny) = mesh.inv, mesh.lane_normals.transpose(2, 0, 1)
    mapped_x = inv[:, 0, 0] * nx + inv[:, 0, 1] * ny
    mapped_y = inv[:, 1, 0] * nx + inv[:, 1, 1] * ny
    coeffs = u.cell_coeffs().T
    dn = np.empty((3, nc, nt))
    for lane in range(3):
        ref_grads = space.element.tabulate_grad(fem.lane_points(lane, t))
        ref = ref_grads.transpose(2, 0, 1).reshape(2 * nt, -1) @ coeffs
        ref[:nt] *= mapped_x[lane]
        ref[nt:] *= mapped_y[lane]
        ref[:nt] += ref[nt:]
        dn[lane] = ref[:nt].T
    other, boundary = mesh.facing_rows
    flat = dn.reshape(-1, nt)
    jump = np.take(flat[:, ::-1], other, axis=0)
    jump += flat
    np.negative(jump, out=jump)
    jump[boundary] = 0.0
    return dn, jump.reshape(dn.shape)


def assert_bitwise(got, want):
    """The two arrays have one shape and the same bits in every entry."""
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def unique_rows_connectivity(cells):
    """Reference for ``mesh.build_connectivity``: facets by
    ``np.unique(axis=0)`` on sorted vertex pairs, and each facet's lanes
    found by scattering every cell's local edges into owner/neighbour
    columns.  Returns (facets, facet_cells, cell_facets, facet_lanes)."""
    cells = np.asarray(cells, dtype=np.int64)
    key = np.sort(cells[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
    facets, inverse, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    incident = np.argsort(inverse, kind="stable") // 3
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    facet_cells = np.full((len(facets), 2), -1, dtype=np.int64)
    facet_cells[:, 0] = incident[starts]
    facet_cells[counts == 2, 1] = incident[starts[counts == 2] + 1]
    cell_facets = inverse.reshape(-1, 3)
    facet_lanes = np.full(facet_cells.shape, -1, dtype=np.int64)
    owners, lanes = np.indices(cell_facets.shape)
    side = (facet_cells[cell_facets, 0] != owners).astype(np.int64)
    facet_lanes[cell_facets, side] = lanes
    return facets, facet_cells, cell_facets, facet_lanes


def eval_function(u, ref_pts):
    """Evaluate an FEFunction at reference points of every cell: (nc, nq)."""
    tab = u.space.element.tabulate(ref_pts)
    return np.einsum("ci,qi->cq", u.cell_coeffs(), tab)


def assert_conforming(mesh):
    """No vertex of the mesh may sit at the midpoint of any facet."""
    mids = mesh.vertices[mesh.facets].mean(axis=1)
    d = np.abs(mids[:, None, :] - mesh.vertices[None, :, :]).max(axis=2)
    assert d.min() > 1e-12, "hanging vertex found on a facet midpoint"


def solve_poisson(mesh, degree, f, u_dirichlet=None, g=None, method="lu"):
    space = FunctionSpace(mesh, degree)
    system = fem.assemble_poisson(space, f, g=g, u_dirichlet=u_dirichlet)
    return FEFunction(space, fem.solve(system, method=method))


def row_reduction_kernel(g, tol=1e-9):
    """Independent kernel basis of a matrix via Gauss-Jordan elimination."""
    a = np.array(g, dtype=float)
    m, n = a.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        piv = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[piv, col]) < tol:
            continue
        a[[row, piv]] = a[[piv, row]]
        a[row] /= a[row, col]
        others = [r for r in range(m) if r != row]
        a[others] -= np.outer(a[others, col], a[row])
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)))
    for j, fc in enumerate(free):
        basis[fc, j] = 1.0
        for r, pc in enumerate(pivots):
            basis[pc, j] = -a[r, fc]
    return basis


def nested_start(previous, mesh, load):
    """A P1 start on ``mesh`` from the solution ``previous`` on the mesh it
    refines: ``previous`` at the old vertices, the mean of the two parents
    at each new one, and ``load``'s values (the eliminated system's
    Dirichlet values) at the Dirichlet DOFs."""
    parents = mesh.parents
    start = np.concatenate([previous, 0.5 * (previous[parents[:, 0]] + previous[parents[:, 1]])])
    dofs = FunctionSpace(mesh, 1).dirichlet_dofs()
    start[dofs] = load[dofs]
    return start


def argsort_dorfler(values, theta):
    """Dörfler marking with the squares ordered by ``np.argsort`` of their
    negatives: the form ``mark_dorfler`` had before it sorted the squares
    alone, kept as the oracle for its marked set."""
    squares = np.asarray(values, dtype=float) ** 2
    if squares.sum() <= 0.0:
        return np.empty(0, dtype=np.int64)
    if theta == 1.0:
        return np.flatnonzero(squares > 0.0).astype(np.int64)
    sorted_squares = squares[np.argsort(-squares)]
    cumsum = np.cumsum(sorted_squares)
    cut = int(np.searchsorted(cumsum, theta * cumsum[-1] * (1.0 - 1e-12)))
    return np.flatnonzero(squares >= sorted_squares[cut]).astype(np.int64)


def two_solve_goal_trace(problem, config, reference):
    """The goal loop with a separate primal and dual assembly and solve
    on every mesh (Dörfler marking, ``max_dofs`` stop): the oracle for
    ``adapt_loop``'s one two-column solve.  Under ``cg`` both solves take
    the V-cycle over the same mesh hierarchy, and at degree 1 each starts
    on a mesh above ``COARSE_DOFS`` from its own previous solution, the
    new vertices at their parents' mean and the Dirichlet DOFs at its
    system's values; CG stops at the loop's ``LOOP_RTOL``.  J(u_h) is the
    raw dual load applied to u_h, as in the loop, and every load and
    estimate takes the plain ``goal.c``, which has no ``support_cells``:
    the byte-identical trace then also shows that the loop's
    support-restricted dual load and dual estimate keep their bits."""
    from afem2d.adapt import (
        AdaptTrace, TraceRow, assemble_dual, resolve_estimator, wgo_indicators,
    )
    from afem2d.mesh import mark_dorfler, refine

    estimator, c = resolve_estimator(config.estimator), problem.goal.c
    mesh, trace, iteration = problem.mesh, AdaptTrace(), 0
    hierarchy = fem.MeshHierarchy()
    previous = None
    while True:
        space = FunctionSpace(mesh, config.degree)
        system = fem.assemble_poisson(space, problem.f, problem.g, problem.u_dirichlet)
        dual = assemble_dual(space, c)
        precond = hierarchy.add(space, system) if config.solver == "cg" else None
        starts = [None, None]
        if (config.solver == "cg" and config.degree == 1 and previous is not None
                and mesh.num_vertices > fem.COARSE_DOFS):
            starts = [nested_start(old, mesh, each.rhs)
                      for old, each in zip(previous, (system, dual))]
        u, z = (FEFunction(space, fem.solve(each, method=config.solver, rtol=fem.LOOP_RTOL,
                                            M=precond, x0=start))
                for each, start in zip((system, dual), starts))
        previous = (u.coeffs, z.coeffs)
        indicator, eta = wgo_indicators(estimator(u, problem.f, problem.g), estimator(z, c, None))
        err = abs(reference - fem.assemble_load(space, c) @ u.coeffs)
        marked = mark_dorfler(indicator, config.theta)
        trace.append(TraceRow(iteration, space.num_dofs, eta, err, eta / err, len(marked)))
        if space.num_dofs >= config.max_dofs:
            return trace
        mesh = refine(mesh, marked)
        iteration += 1
