"""Continuous Lagrange spaces and Poisson assembly on triangle meshes.

Global degrees of freedom are numbered vertices first, then facet blocks
of degree - 1 nodes each, then cell-interior blocks.  Facet blocks run
from the lower-indexed vertex towards the higher one; the cell-local
gather flips edge nodes where needed, so shared values match across
cells and the element tables can stay cell-independent.

Cell matrices use the tensor representation of Kirby & Logg (ACM TOMS
32(3), 2006): on an affine cell the stiffness is ``G_c @ K_ref``, with
``G_c = det J^-1 J^-T`` flattened to 4 entries and ``K_ref[(s, r), (i, j)]
= int d_s phi_i d_r phi_j`` tabulated once per element, on first use.
The affine data (``J``, ``det J``, ``J^-1`` and each lane's length and
outward unit normal) and each lane's tag are read from the ``Mesh``,
which computes them once.  Facet terms go by lanes (lane i of a cell is its local edge i); the
``Mesh.facet_lanes`` attribute, filled by the same sort that builds the
connectivity, gives each facet's lane in both incident cells (paired once
per mesh in ``Mesh.facing_rows``), and since those cells traverse the
facet in opposite directions the neighbour's trace is its own lane trace
read backwards.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import element as el
from . import quadrature as quad
from .mesh import DIRICHLET, NEUMANN

# Cells per block of every whole-mesh cell pass (see cell_blocks); bounds
# their memory, not their results.
ERROR_BLOCK = 8192

# Damped Jacobi smoothing of MeshHierarchy's p-level (degree > 1): weight,
# and sweeps before and after the P1 correction.
SMOOTHING_WEIGHT = 0.5
SMOOTHING_SWEEPS = 2

# MeshHierarchy's P1 levels: the largest mesh (in P1 DOFs) factored as the
# coarsest level, the growth in DOFs that keeps a mesh as a level, and the
# damped Jacobi smoothing of every h-level.
COARSE_DOFS = 1000
LEVEL_GROWTH = 2
MG_WEIGHT = 0.8
MG_SWEEPS = 1


class SolverError(RuntimeError):
    """The linear solver failed to reach its tolerance."""


def physical_points(mesh, ref_pts, cells=slice(None)):
    """Map reference points to the selected cells (default all): (n, nq, 2).

    Coordinate i of every point is one product ``affine[i] @ [x; y; 1]``
    of the cells' rows [J_i0, J_i1, v0_i] of ``Mesh.affine`` with the
    homogeneous reference points, written into plane i of a fresh
    (2, n, nq) array; the result is that array's transposed view, so the
    x plane ``[..., 0]`` and the y plane ``[..., 1]`` are each C-contiguous
    (n, nq) arrays, on which a data callable's ufuncs run in one loop.
    BLAS adds the third term v0 * 1 last, with one rounding, so the values
    are bitwise those of ``v0 + J x`` formed by a matrix product.  NumPy
    would map a single row by a matrix-vector product, whose bits differ,
    so a selection of one cell is mapped as two copies of its row.
    """
    affine = mesh.affine[:, cells]
    n = affine.shape[1]
    if n == 1:
        affine = np.repeat(affine, 2, axis=1)
    homogeneous = np.ones((3, len(ref_pts)))
    homogeneous[:2] = ref_pts.T
    planes = np.empty(affine.shape[:2] + (len(ref_pts),))
    for i in (0, 1):
        np.matmul(affine[i], homogeneous, out=planes[i])
    return planes[:, :n].transpose(1, 2, 0)


def cell_gradients(coeffs, ref_grads, inv):
    """Gradients of the cellwise expansions ``coeffs`` (nc, d) at the points
    where ``ref_grads`` (nq, d, 2) was tabulated, r J^-1 = (r0 a + r1 c, r0 b
    + r1 d) by planes of J^-1 = [[a, b], [c, d]]: (nc, nq, 2), the
    transposed view of C-contiguous (2, nc, nq) planes.  The reference
    derivatives r0 and r1 are one product each, with the (d, nq) table of
    their own derivative, so every step runs on (nc, nq) planes; up to the
    100 points of the order-18 rule these products have the bits of one
    (d, 2 nq) product under every OpenBLAS kernel tried."""
    r0, r1 = coeffs @ np.ascontiguousarray(ref_grads.transpose(2, 1, 0))
    a, b, c, d = inv.transpose(1, 2, 0).reshape(4, -1, 1)
    return np.stack((r0 * a + r1 * c, r0 * b + r1 * d)).transpose(1, 2, 0)


def cell_laplacians(coeffs, ref_hess, inv):
    """Laplacians of the cellwise expansions at the points where ``ref_hess``
    (nq, d, 2, 2) was tabulated, by J^-1 J^-T as in ``Mesh.metric``: (nc, nq).
    The second derivatives come from one (d, 4 nq) product: one product
    per derivative, or its columns in another order, changes the last bits
    from 49 points on under OpenBLAS's SkylakeX kernel."""
    nq, dim = ref_hess.shape[:2]
    h = (coeffs @ ref_hess.transpose(1, 0, 2, 3).reshape(dim, 4 * nq)).reshape(-1, nq, 4)
    (h0, h1, h2, h3), (a, b, c, d) = h.transpose(2, 0, 1), inv.transpose(1, 2, 0).reshape(4, -1, 1)
    g01 = a * c + b * d
    return h0 * (a * a + b * b) + h1 * g01 + h2 * g01 + h3 * (c * c + d * d)


@functools.lru_cache(maxsize=None)
def reference_stiffness(element):
    """K_ref[s, r, i, j] = int d_s phi_i d_r phi_j as (4, dim^2), by the
    global load's rule; any rule of order >= 2 (degree - 1) is exact."""
    pts, wts = quad.triangle_rule(2 * element.degree + 1)
    grads = element.tabulate_grad(pts)
    kref = np.einsum("q,qis,qjr->srij", wts, grads, grads).reshape(4, -1)
    kref.setflags(write=False)
    return kref


def lane_points(lane, n_or_pts):
    """Reference coordinates along local edge ``lane`` at parameters t."""
    t = np.asarray(n_or_pts, dtype=float)
    a, b = el.EDGE_VERTICES[lane]
    va, vb = el.VERTICES[a], el.VERTICES[b]
    return va[None, :] + t[:, None] * (vb - va)[None, :]


def eval_data(fn, x):
    """Vectorized data callable at points x (..., 2), broadcast to x's shape."""
    return np.broadcast_to(np.asarray(fn(x[..., 0], x[..., 1]), dtype=float), x.shape[:-1])


def cell_blocks(mesh, f=None, pts=None):
    """Consecutive slices of ``ERROR_BLOCK`` cells, the one partition of
    every whole-mesh cell pass, each yielded as ``(cells, values)``:
    ``values`` is ``f`` at the reference points ``pts`` of the block's
    cells (n, nq), or None when ``f`` is None.  An ``f`` with a
    ``support_cells(mesh)`` method (sorted indices of the cells where it
    can be nonzero) is evaluated only on those, the other rows are zero,
    and a block that meets none gives None.  NumPy forms the products of a
    single row by matrix-vector kernels, whose bits differ from those of a
    matrix product; so a last block of one cell joins the one before, and
    (with :func:`physical_points` mapping any one cell as two rows) the
    values are bitwise those of one block over all cells.
    """
    support = f.support_cells(mesh) if hasattr(f, "support_cells") else None
    starts = list(range(0, mesh.num_cells, ERROR_BLOCK))
    if len(starts) > 1 and starts[-1] == mesh.num_cells - 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [mesh.num_cells]):
        cells = slice(start, stop)
        if support is None:
            yield cells, None if f is None else eval_data(f, physical_points(mesh, pts, cells))
            continue
        rows = support[slice(*np.searchsorted(support, (start, stop)))] - start
        values = None
        if rows.size:
            values = np.zeros((stop - start, len(pts)))
            values[rows] = eval_data(f, physical_points(mesh, pts, rows + start))
        yield cells, values


def lane_ends(mesh, lanes, cells):
    """Start and end points (n, 2) of lane ``lanes[i]`` of cell ``cells[i]``,
    in the cell's own traversal of the edge."""
    ends = mesh.cells[cells[:, None], np.asarray(el.EDGE_VERTICES)[lanes]]
    return mesh.vertices[ends].transpose(1, 0, 2)


def lane_physical_points(mesh, lanes, cells, t):
    """Points at parameters t along lane ``lanes[i]`` of cell ``cells[i]``,
    in the cell's own traversal of the edge: (n, nt, 2)."""
    va, vb = lane_ends(mesh, lanes, cells)
    return va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]


def neumann_values(mesh, g, order):
    """Data ``g`` at the ``quad.edge_rule(order)`` points of every Neumann
    local edge, zero on other lanes: (3, nc, nt) by [lane, cell]."""
    t, _ = quad.edge_rule(order)
    gv = np.zeros((3, mesh.num_cells, len(t)))
    lanes, cells = np.nonzero(mesh.lane_tags == NEUMANN)
    gv[lanes, cells] = eval_data(g, lane_physical_points(mesh, lanes, cells, t))
    return gv


def facet_traces(u, order):
    """Normal derivatives of ``u`` from both sides of every local edge.

    Returns (dn, jump) indexed by [lane, cell] and by the points of
    ``quad.edge_rule(order)`` along the cell's own traversal of the edge:
    grad u_h . n (n the outward unit normal), and (grad u_h|neighbour -
    grad u_h) . n on interior facets, zero elsewhere.  Nothing is
    tabulated at points mapped across facets.  At degree 1 the gradient
    is constant on each cell, so both are formed at one point per lane
    and returned as read-only ``np.broadcast_to`` views of shape
    (3, nc, nt).
    """
    space, mesh = u.space, u.space.mesh
    t, _ = quad.edge_rule(order)
    nc, nt = mesh.num_cells, len(t)
    m = 1 if space.degree == 1 else nt
    # grad u_h . n = (J^-T grad_ref u_h) . n = grad_ref u_h . (J^-1 n); each
    # lane is formed with the cell index last.
    inv, (nx, ny) = mesh.inv, mesh.lane_normals.transpose(2, 0, 1)
    mapped_x = inv[:, 0, 0] * nx + inv[:, 0, 1] * ny
    mapped_y = inv[:, 1, 0] * nx + inv[:, 1, 1] * ny
    coeffs = u.cell_coeffs().T
    dn = np.empty((3, nc, m))
    for lane in range(3):
        ref_grads = space.element.tabulate_grad(lane_points(lane, t[:m]))
        ref = ref_grads.transpose(2, 0, 1).reshape(2 * m, -1) @ coeffs
        ref[:m] *= mapped_x[lane]
        ref[m:] *= mapped_y[lane]
        ref[:m] += ref[m:]
        dn[lane] = ref[:m].T

    # Row lane * nc + cell of the flattened traces faces row ``other`` of the
    # neighbour.  Outward normals of the two sides are exactly opposite, so
    # the jump seen from either side is minus the sum of both outward
    # fluxes, the neighbour's read backwards.
    other, boundary = mesh.facing_rows
    flat = dn.reshape(-1, m)
    jump = np.take(flat[:, ::-1], other, axis=0)
    jump += flat
    np.negative(jump, out=jump)
    jump[boundary] = 0.0
    jump = jump.reshape(dn.shape)
    if space.degree == 1:
        return np.broadcast_to(dn, (3, nc, nt)), np.broadcast_to(jump, (3, nc, nt))
    return dn, jump


class FunctionSpace:
    """Continuous Lagrange space of degree 1..4 on a mesh."""

    def __init__(self, mesh, degree):
        if not (el._is_integer(degree) and 1 <= degree <= el.MAX_DEGREE):
            raise ValueError(f"unsupported space degree: {degree!r}")
        self.mesh = mesh
        self.degree = degree
        self.element = el.lagrange(degree)
        nv, nf, nc = mesh.num_vertices, len(mesh.facets), mesh.num_cells
        epf = degree - 1
        ipc = (degree - 1) * (degree - 2) // 2
        self.num_dofs = nv + nf * epf + nc * ipc
        if degree == 1:
            self.dofmap = mesh.cells  # already int64 and read-only
            return
        dofmap = np.empty((nc, self.element.dim), dtype=np.int64)
        dofmap[:, :3] = mesh.cells
        for lane, (a, b) in enumerate(el.EDGE_VERTICES):
            facet = mesh.cell_facets[:, lane]
            base = nv + facet * epf
            forward = mesh.cells[:, a] < mesh.cells[:, b]
            for j in range(epf):
                dofmap[:, 3 + lane * epf + j] = base + np.where(forward, j, epf - 1 - j)
        for j in range(ipc):
            dofmap[:, 3 + 3 * epf + j] = nv + nf * epf + np.arange(nc) * ipc + j
        self.dofmap = dofmap

    def dof_coordinates(self):
        mesh, k = self.mesh, self.degree
        coords = [mesh.vertices]
        if k > 1:
            lo = mesh.vertices[mesh.facets[:, 0]]
            hi = mesh.vertices[mesh.facets[:, 1]]
            edge = np.stack([lo + (hi - lo) * (j / k) for j in range(1, k)], axis=1)
            coords.append(edge.reshape(-1, 2))
        if k > 2:
            interior = el.lagrange_nodes(k)[3 + 3 * (k - 1) :]
            coords.append(physical_points(mesh, interior).reshape(-1, 2))
        return np.vstack(coords)

    def dirichlet_dofs(self):
        """Sorted indices of all DOFs sitting on Dirichlet facets."""
        mesh, k = self.mesh, self.degree
        vertices = np.flatnonzero(~free_vertices(mesh))  # sorted and unique
        if k == 1 or not vertices.size:
            return vertices
        tagged = np.flatnonzero(mesh.facet_tags == DIRICHLET)
        base = mesh.num_vertices + tagged * (k - 1)
        return np.unique(np.concatenate([vertices, (base[:, None] + np.arange(k - 1)).ravel()]))


@dataclass
class FEFunction:
    """Coefficient vector over a function space."""

    space: FunctionSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.num_dofs,):
            raise ValueError("coefficient length does not match the space")

    def cell_coeffs(self):
        return self.coeffs[self.space.dofmap]

    def vertex_values(self):
        return self.coeffs[: self.space.mesh.num_vertices]


def interpolate(fn, space):
    """Nodal interpolant of a vectorized callable fn(x, y)."""
    return FEFunction(space, np.array(eval_data(fn, space.dof_coordinates())))


@dataclass
class SparseSystem:
    """Symmetric positive definite system after Dirichlet elimination.

    ``rhs`` is one load (n,) or k loads side by side (n, k), each already
    eliminated; :func:`solve` returns a solution of the same shape.
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    dirichlet_dofs: np.ndarray


def assemble_stiffness(space):
    """Raw Poisson stiffness matrix (no boundary conditions)."""
    local = space.mesh.metric @ reference_stiffness(space.element)
    # SciPy stores the indices as int32 whenever they fit; building them so
    # skips two int64 (nc, dim^2) temporaries and their downcast copies.
    dofmap = space.dofmap.astype(np.int32 if space.num_dofs < 2**31 else np.int64)
    rows = np.repeat(dofmap, space.element.dim, axis=1)
    cols = np.tile(dofmap, space.element.dim)
    mat = sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())),
        shape=(space.num_dofs, space.num_dofs),
    )
    return mat.tocsr()


def assemble_load(space, f, g=None):
    """Raw load vector: the volume term's cell loads over the blocks of
    :func:`cell_blocks`, plus the Neumann flux term's lane by lane, added
    by one ``bincount``.  ``f`` (or ``g``) None is a zero source: no points
    are mapped for it, it is never evaluated and its term is not formed."""
    mesh, element = space.mesh, space.element
    order = 2 * space.degree + 1
    pts, wts = quad.triangle_rule(order)
    weighted = wts[:, None] * element.tabulate(pts)
    local = np.zeros((mesh.num_cells, element.dim))
    for cells, fvals in cell_blocks(mesh, f, pts):
        if fvals is not None:
            local[cells] = (fvals * mesh.det[cells, None]) @ weighted
    if g is not None:
        edge = neumann_values(mesh, g, order) * mesh.lane_lengths[..., None]
        t, wt = quad.edge_rule(order)
        for lane in range(3):
            local += edge[lane] @ (wt[:, None] * element.tabulate(lane_points(lane, t)))
    return np.bincount(space.dofmap.ravel(), local.ravel(), minlength=space.num_dofs)


def dirichlet_rhs(rhs, dofs, values, matrix=None):
    """Load of the eliminated system: ``rhs`` minus the raw ``matrix`` times
    the lift of ``values``, then ``values`` on ``dofs``.  Zero ``values``
    lift nothing (x - 0.0 == x), so they need no ``matrix``."""
    rhs = np.array(rhs, dtype=float)
    if np.any(values):
        lift = np.zeros(len(rhs))
        lift[dofs] = values
        rhs -= matrix @ lift
    rhs[dofs] = values
    return rhs


def apply_dirichlet(matrix, rhs, dofs, values):
    """Symmetric elimination: zero rows/columns, unit diagonal, lifted rhs.

    The eliminated matrix is a CSR copy of ``matrix`` with the entries in
    the rows and columns of ``dofs`` set to zero, a unit diagonal on those
    rows, and every zero entry dropped (also zeros stored in ``matrix``).
    ``matrix`` itself is left unchanged.
    """
    eliminated = sparse.csr_matrix(matrix, copy=True)
    fixed = np.zeros(matrix.shape[0], dtype=bool)
    fixed[dofs] = True
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(eliminated.indptr))
    eliminated.data[fixed[rows] | fixed[eliminated.indices]] = 0.0
    eliminated[dofs, dofs] = 1.0
    eliminated.eliminate_zeros()
    return eliminated, dirichlet_rhs(rhs, dofs, values, matrix)


def assemble_p1_system(mesh, load, dofs, values):
    """The eliminated P1 system ``(matrix, rhs)`` of ``mesh``, as
    :func:`apply_dirichlet` returns it for the raw P1 stiffness, read off
    the facet graph instead of a COO matrix.

    A P1 cell matrix (``mesh.metric @ K_ref``) is symmetric to the bit, so
    a facet has one coupling, summed over its cells in cell order; the
    couplings between free vertices in ``mesh.facets`` order are the upper
    triangle in CSR order.  Each row is laid out as its diagonal followed by
    its upper couplings, already in column order, and one sparse sum with
    the transpose of the upper triangle completes the rows.  The rows and
    columns of ``dofs`` get a unit diagonal, a coupling of exactly 0.0 (cot
    90 deg on right angles) is not stored, and indices are int32 while they
    fit.  The pattern and the off-diagonal entries are
    those of the COO route and the diagonal agrees to a few ulp (its row
    sort may reorder a vertex's cell terms); the load is lifted with the
    bits of :func:`dirichlet_rhs`.
    """
    nv, (lo, hi) = mesh.num_vertices, mesh.facets.T
    local = mesh.metric @ reference_stiffness(el.lagrange(1))  # (nc, 9) by (i, j)
    a, b = np.asarray(el.EDGE_VERTICES).T
    coupling = np.bincount(mesh.cell_facets.ravel(), local[:, 3 * a + b].ravel(),
                           minlength=len(lo))
    diagonal = np.bincount(mesh.cells.ravel(), local[:, ::4].ravel(), minlength=nv)
    free = np.ones(nv, dtype=bool)
    free[dofs] = False
    diagonal[~free] = 1.0
    keep = np.flatnonzero(free[lo] & free[hi] & (coupling != 0.0))
    index = np.int32 if nv + 2 * len(lo) < 2**31 else np.int64
    counts, nonzero = np.bincount(lo[keep], minlength=nv), diagonal != 0.0
    upper_ptr, indptr = np.zeros((2, nv + 1), dtype=index)
    np.cumsum(counts, out=upper_ptr[1:])
    np.cumsum(counts + nonzero, out=indptr[1:])
    # Each row's diagonal (if nonzero) first, then its upper couplings.
    first, rest = indptr[:-1][nonzero], np.ones(indptr[-1], dtype=bool)
    rest[first] = False
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=index)
    data[first], indices[first] = diagonal[nonzero], np.flatnonzero(nonzero)
    data[rest], indices[rest] = coupling[keep], hi[keep]
    # The CSC reading of the upper triangle's arrays is its transpose; the
    # sparse sum merges sorted rows and stores no zero, as eliminate_zeros.
    lower = sparse.csc_matrix((coupling[keep], hi[keep].astype(index), upper_ptr), shape=(nv, nv))
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(nv, nv)) + lower

    rhs = np.array(load, dtype=float)
    if np.any(values):
        lift = np.zeros(nv)
        lift[dofs] = values
        # A free row's couplings to lower columns, then to higher ones, each
        # in facet order, is column order; bincount adds in that order.
        to_lo = np.flatnonzero(free[hi] & ~free[lo])
        to_hi = np.flatnonzero(free[lo] & ~free[hi])
        terms = np.concatenate([coupling[to_lo] * lift[lo[to_lo]],
                                coupling[to_hi] * lift[hi[to_hi]]])
        rhs -= np.bincount(np.concatenate([hi[to_lo], lo[to_hi]]), terms, minlength=nv)
    rhs[dofs] = values
    return matrix, rhs


def assemble_poisson(space, f, g=None, u_dirichlet=None):
    """Poisson system -div(grad u) = f with the mesh's boundary tags.

    ``f`` is a vectorized callable for the source, evaluated on C-contiguous
    (n, nq) coordinate planes (None means zero, and nothing is evaluated).
    ``u_dirichlet`` is a vectorized callable for the Dirichlet trace
    (None means homogeneous).  Neumann data ``g`` is applied on facets
    tagged N (None means zero).  At degree 1 the eliminated system is built
    from the facet graph by :func:`assemble_p1_system`; at degree > 1 the
    raw stiffness of :func:`assemble_stiffness` is eliminated by
    :func:`apply_dirichlet`.
    """
    rhs = assemble_load(space, f, g)
    dofs = space.dirichlet_dofs()
    if u_dirichlet is None:
        values = np.zeros(len(dofs))
    else:
        values = eval_data(u_dirichlet, space.dof_coordinates()[dofs]).copy()
    if space.degree == 1:
        matrix, rhs = assemble_p1_system(space.mesh, rhs, dofs, values)
    else:
        matrix, rhs = apply_dirichlet(assemble_stiffness(space), rhs, dofs, values)
    return SparseSystem(matrix, rhs, dofs)


def _factor_spd(matrix):
    """Sparse LU factors of an SPD matrix, such as an eliminated stiffness.

    SuperLU runs in symmetric mode: a minimum-degree ordering of A + A^T
    applied to rows and columns alike, and no pivoting (a zero threshold
    takes every nonzero diagonal entry as its pivot).  LU without pivoting is backward stable on
    SPD matrices, and the symmetric ordering fills far less than SuperLU's
    default COLAMD ordering of A^T A.  An exactly singular factor raises
    :class:`SolverError`.
    """
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as error:
        raise SolverError(f"sparse LU failed: {error}") from None


def solve(system, method="cg", rtol=1e-12, maxiter=200000, M=None, x0=None):
    """Solve an eliminated system for each column of ``system.rhs``.

    ``cg`` runs conjugate gradients column by column with the
    preconditioner ``M`` (an operator applying an approximate inverse, such
    as the one :meth:`MeshHierarchy.add` returns), or by default with a Jacobi
    preconditioner built once; ``lu`` factors the matrix once and solves
    all columns with the factors, and takes no ``M``.  ``x0``, of the shape
    of ``system.rhs``, is the start of ``cg`` (one column per load; None
    starts from zero); ``lu`` takes none.  The stopping rule is relative to
    the load, not to the start's residual, so a start changes how many
    iterations ``cg`` takes and not the accuracy it stops at.  The matrix
    must be SPD, as every eliminated stiffness is: ``lu`` factors it by
    :func:`_factor_spd` (a minimum-degree ordering of A + A^T and no
    pivoting, backward stable on SPD matrices).  :class:`SolverError` is
    raised before any factorization or iteration for a load with a NaN or
    infinite entry, before Jacobi CG iterates for a diagonal entry that is
    not finite and positive, and for an exactly singular ``lu`` factor.
    Every column must reach a relative residual of 1e-10 (a NaN residual
    fails), which also guards the unpivoted factors.  Both are
    deterministic for fixed inputs, and a column's solution does not depend
    on the others.
    """
    if method not in ("cg", "lu"):
        raise ValueError(f"unknown solver method: {method!r}")
    if method == "lu" and M is not None:
        raise ValueError("a preconditioner applies to cg only")
    if method == "lu" and x0 is not None:
        raise ValueError("a start vector applies to cg only")
    matrix, rhs = system.matrix, system.rhs
    if not np.isfinite(rhs).all():
        raise SolverError("the load has a NaN or infinite entry")
    loads = rhs.reshape(len(rhs), -1)
    if method == "lu":
        x = _factor_spd(matrix).solve(rhs).reshape(loads.shape)
    else:
        if M is None:
            diagonal = matrix.diagonal()
            if not (np.isfinite(diagonal) & (diagonal > 0)).all():
                raise SolverError("the Jacobi preconditioner needs a finite positive diagonal")
            M = sparse.diags(1.0 / diagonal)
        starts = [None] * loads.shape[1] if x0 is None else np.reshape(x0, loads.shape).T
        x = np.empty(loads.shape, order="F")
        for j, (load, start) in enumerate(zip(loads.T, starts)):
            x[:, j], info = spla.cg(matrix, np.ascontiguousarray(load), x0=start, rtol=rtol,
                                    atol=0.0, maxiter=maxiter, M=M)
            if info != 0:
                raise SolverError(f"conjugate gradients stopped with status {info}")
    for load, column in zip(loads.T, x.T):
        norm_rhs = np.linalg.norm(load)
        if norm_rhs != 0:
            residual = np.linalg.norm(load - matrix @ column) / norm_rhs
            if not residual <= 1e-10:
                raise SolverError(f"relative residual {residual:.3e} above 1e-10")
    return x.reshape(rhs.shape)


def v_cycle(levels, coarse_solve, r):
    """One V-cycle for ``r`` from a zero initial guess.

    ``levels`` run from the finest down, each ``(matrix, prolong, restrict,
    step, sweeps)``: ``sweeps`` damped Jacobi sweeps ``x += step * (r -
    matrix @ x)`` before and after the correction from the level below,
    reached through ``restrict`` (``prolong.T`` as CSR) and ``prolong``;
    ``coarse_solve`` applies below the last level.
    """
    if not levels:
        return coarse_solve(r)
    matrix, prolong, restrict, step, sweeps = levels[0]

    def residual(x):  # r - matrix @ x in the product's array
        t = matrix @ x
        return np.subtract(r, t, out=t)

    def sweep(x):
        t = residual(x)
        t *= step
        x += t

    x = step * r  # the first sweep from zero
    for _ in range(sweeps - 1):
        sweep(x)
    x += prolong @ v_cycle(levels[1:], coarse_solve, restrict @ residual(x))
    for _ in range(sweeps):
        sweep(x)
    return x


def free_vertices(mesh):
    """Mask of the vertices on no Dirichlet facet: (nv,) bool.  The others
    are the vertex DOFs of :meth:`FunctionSpace.dirichlet_dofs`."""
    free = np.ones(mesh.num_vertices, dtype=bool)
    free[np.compress(mesh.facet_tags == DIRICHLET, mesh.facets, axis=0)] = False
    return free


def _refinement_parents(coarse, fine):
    """``fine.parents``, or ValueError when ``fine`` does not refine ``coarse``."""
    if fine.parents is None or coarse.num_vertices + len(fine.parents) != fine.num_vertices:
        raise ValueError("the mesh is not a refinement of the previous one")
    return fine.parents


def prolongation(coarse, fine):
    """P1 prolongation (fine.num_vertices, coarse.num_vertices), CSR, from
    ``coarse`` to its refinement ``fine``: old vertices keep their value and
    each new vertex takes 1/2 from each of its ``fine.parents``.  Columns of
    coarse Dirichlet vertices are zero, and with them the rows of fine ones,
    each an old Dirichlet vertex or the midpoint of a split Dirichlet facet;
    so on free vertices P^T A_fine P is the eliminated P1 stiffness of
    ``coarse``.  Raises ValueError when ``fine`` is not a refinement of
    ``coarse``.
    """
    parents, nc = _refinement_parents(coarse, fine), coarse.num_vertices
    k = len(parents)
    indptr = np.concatenate([np.arange(nc), nc + 2 * np.arange(k + 1)])
    indices = np.concatenate([np.arange(nc), parents.ravel()])
    data = np.concatenate([np.ones(nc), np.full(2 * k, 0.5)]) * free_vertices(coarse)[indices]
    return sparse.csr_matrix((data, indices, indptr), shape=(fine.num_vertices, nc))


class MeshHierarchy:
    """Multigrid preconditioner for ``solve(system, "cg", M=...)`` over a
    sequence of nested meshes, for :func:`v_cycle`.

    :meth:`add` takes each new mesh's space and eliminated Poisson system.
    Its P1 levels: the coarsest is the last mesh with at most
    ``COARSE_DOFS`` P1 DOFs (or the first mesh), solved exactly by the
    factors of :func:`_factor_spd` (a singular one raises
    :class:`SolverError`).  Above it a mesh stays a level only if it has
    ``LEVEL_GROWTH`` times the DOFs of the level below; the prolongation of
    a skipped mesh is multiplied into the next level's.  The newest mesh is
    always the top P1 level, and every P1 level gets ``MG_SWEEPS`` damped
    Jacobi sweeps of weight ``MG_WEIGHT``.  Up to ``COARSE_DOFS`` the
    operator is the exact solve, so a start vector gains CG nothing there.

    Each level's P1 matrix is the eliminated P1 stiffness: at degree 1
    ``system.matrix`` itself, at degree k > 1 one built for the mesh by
    :func:`assemble_p1_system`.  At degree k > 1 the newest space's Pk
    matrix is one more level on top (the p-level), a two-level p-multigrid
    in the manner of Helenbrook, Mavriplis & Atkins (AIAA 2003-3989):
    ``SMOOTHING_SWEEPS`` damped Jacobi sweeps of weight
    ``SMOOTHING_WEIGHT`` around the P1 correction, reached through the
    P1 -> Pk embedding P, the element's interpolant of ``lagrange(1)`` with
    zero rows on Dirichlet DOFs and zero columns on Dirichlet vertices (so
    P^T A P is the eliminated P1 stiffness on the free vertices).  The Pk
    matrix is never factored.

    Every level keeps its restriction, the transpose of its prolongation
    (or embedding) as CSR, built once here rather than as a ``.T`` view on
    each cycle.  CSR sums each row in the column order in which the CSC
    product ``prolong.T @ r`` adds to it, so the cycle's bits are those of
    the view.

    :meth:`cycle` applies the levels as they stand, so an operator built on
    it serves the newest system only.
    """

    def __init__(self):
        self.levels = []  # P1 levels, finest first, as v_cycle takes them
        self.p_level = []  # the Pk level above them at degree > 1
        self._mesh = None
        self._coarse_lu = None

    def add(self, space, system):
        """Make ``space.mesh``, a refinement of the last mesh added, the top
        level, and return the preconditioner for ``system``, the eliminated
        Poisson system of ``space``."""
        mesh, matrix, coarse = space.mesh, system.matrix, self._mesh
        if coarse is not None:
            _refinement_parents(coarse, mesh)
        p1_matrix, p_level = matrix, []
        if space.degree > 1:
            free = free_vertices(mesh)
            p1_matrix, _ = assemble_p1_system(mesh, np.zeros(mesh.num_vertices),
                                              np.flatnonzero(~free), 0.0)
            # One cell and local slot per DOF: every cell sharing a DOF gives
            # it the same P1 weights, so any one of them does.
            dim = space.element.dim
            slot = np.empty(space.num_dofs, dtype=np.int64)
            slot[space.dofmap.ravel()] = np.arange(mesh.num_cells * dim)
            weights = space.element.interpolate(el.lagrange(1).tabulate)[slot % dim]
            vertices = mesh.cells[slot // dim]
            weights[system.dirichlet_dofs] = 0.0
            weights *= free[vertices]
            embed = sparse.csr_matrix(
                (weights.ravel(), (np.repeat(np.arange(space.num_dofs), 3), vertices.ravel())),
                shape=(space.num_dofs, mesh.num_vertices),
            )
            p_level = [(matrix, embed, embed.T.tocsr(), SMOOTHING_WEIGHT / matrix.diagonal(),
                        SMOOTHING_SWEEPS)]
        self._mesh, self.p_level = mesh, p_level
        if coarse is None or mesh.num_vertices <= COARSE_DOFS:
            self.levels = []
            self._coarse_lu = _factor_spd(p1_matrix)
        else:
            prolong = prolongation(coarse, mesh)
            sizes = [level[0].shape[0] for level in self.levels] + [self._coarse_lu.shape[0]]
            if len(sizes) > 1 and sizes[0] < LEVEL_GROWTH * sizes[1]:
                prolong = prolong @ self.levels.pop(0)[1]
            step = MG_WEIGHT / p1_matrix.diagonal()
            self.levels.insert(0, (p1_matrix, prolong, prolong.T.tocsr(), step, MG_SWEEPS))
        return spla.LinearOperator(matrix.shape, matvec=self.cycle, dtype=float)

    def cycle(self, r):
        """One V-cycle over every level for the newest system's residual r."""
        return v_cycle(self.p_level + self.levels, self._coarse_lu.solve, np.ravel(r))


def h1_seminorm_error(u, grad_exact, u_exact=None):
    """|u_exact - u_h|_H1 from the exact gradient.

    Without ``u_exact`` the error is integrated by the order-(2k + 3)
    volume rule over blocks of ``ERROR_BLOCK`` cells; the final sum runs
    over all cells.  At degree 1 each cell's gradient is constant, so it
    is formed at one point and broadcast over the rule.

    With ``u_exact``, which must then be harmonic (a problem with no
    source), Green's identity turns the error into

        |u - u_h|^2 = |u_h|^2 + int_dOmega (grad u . n) (u - 2 u_h) ds,

    where |u_h|^2 = sum_T u_T^T (G_T K_ref) u_T is exact at every degree
    (see :func:`reference_stiffness`) and the boundary integral runs over
    every boundary lane by ``quad.edge_rule(2k + 3)``, exact where the
    integrand is a polynomial of degree <= 2k + 3 along each lane.  Nothing
    is evaluated at volume points, and the volume rule's bias where the
    gradient is singular goes.  A problem with a source keeps the rule:
    its u is not harmonic.  The three terms are each about |u|^2 and
    cancel to err^2: at err^2 / |u|^2 of about 1.4e-5 (the L-shape at 35k
    DOFs) err keeps about 11 significant digits, an error below about
    1e-8 |u|_H1 is not resolved, and a negative err^2 from roundoff is
    clipped to 0.
    """
    if u_exact is not None:
        return _green_h1_error(u, grad_exact, u_exact)
    space, mesh = u.space, u.space.mesh
    pts, wts = quad.triangle_rule(2 * space.degree + 3)
    ref_grads = space.element.tabulate_grad(pts[:1] if space.degree == 1 else pts)
    cell_sums = np.empty(mesh.num_cells)
    for cells, _ in cell_blocks(mesh):
        gh = cell_gradients(u.coeffs[space.dofmap[cells]], ref_grads, mesh.inv[cells])
        x = physical_points(mesh, pts, cells)
        gx, gy = grad_exact(x[..., 0], x[..., 1])
        d, e = gh[..., 0] - gx, gh[..., 1] - gy
        d *= d
        e *= e
        d += e
        cell_sums[cells] = d @ wts
    return float(np.sqrt(mesh.det @ cell_sums))


def _green_h1_error(u, grad_exact, u_exact):
    """:func:`h1_seminorm_error` of a harmonic ``u_exact`` by Green's identity."""
    space, mesh = u.space, u.space.mesh
    element, d = space.element, space.element.dim
    # kref[i, (s, j)] = K_ref[s][i, j], so u_T @ kref then a dot with u_T
    # gives the four quadratic forms u_T^T K_ref[s] u_T of a cell.
    kref = reference_stiffness(element).reshape(4, d, d).transpose(1, 0, 2).reshape(d, 4 * d)
    energy = 0.0
    for cells, _ in cell_blocks(mesh):
        coeffs = u.coeffs[space.dofmap[cells]]
        forms = np.einsum("csj,cj->cs", (coeffs @ kref).reshape(-1, 4, d), coeffs)
        energy += float(np.vdot(mesh.metric[cells], forms))

    facets = mesh.boundary_facets()
    cells, lanes = mesh.facet_cells[facets, 0], mesh.facet_lanes[facets, 0]
    t, wt = quad.edge_rule(2 * space.degree + 3)
    uh = np.empty((len(facets), len(t)))
    for lane in range(3):
        rows = lanes == lane
        uh[rows] = u.coeffs[space.dofmap[cells[rows]]] @ element.tabulate(lane_points(lane, t)).T
    x = lane_physical_points(mesh, lanes, cells, t)
    gx, gy = grad_exact(x[..., 0], x[..., 1])
    # These lanes' lengths and outward normals by the formulas of Mesh's
    # lane_lengths and lane_normals, bitwise, not formed for every lane.
    va, vb = lane_ends(mesh, lanes, cells)
    lx, ly = (vb - va).T
    lengths = np.hypot(lx, ly)
    flux = gx * (ly / lengths)[:, None] + gy * (-lx / lengths)[:, None]
    boundary = ((flux * (eval_data(u_exact, x) - 2.0 * uh)) @ wt) @ lengths
    return float(np.sqrt(max(energy + boundary, 0.0)))
