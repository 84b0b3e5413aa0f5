"""Hierarchical error estimation from projected local Neumann problems.

For a space pair (k+, k-) the estimation space on each cell is the kernel
of the operator that interpolates the fine Lagrange space P_{k+} onto the
coarse one P_{k-} and injects the result back.  Both steps only involve
reference-element node evaluations, so the kernel basis N is computed
once per pair, on the reference cell, and shared by every cell.

Each cell then gets a small Neumann problem: the fine-space stiffness
A+ = G_c @ K_ref and a load b+ built from the interior residual
f + lap(u_h) and the facet data

    interior facet:  0.5 * (grad u_h|neighbor - grad u_h|owner) . n_owner
    Neumann facet:   g - dn(u_h)
    Dirichlet facet: 0  (fine DOFs on the facet are eliminated instead)

and N^T (P A+ P + I - P) N x = N^T P b+ is solved, P masking the fine
DOFs on Dirichlet facets.  Both sides come from tables per Dirichlet
pattern of the cell's edges: the matrix is G_c @ N^T P K_ref P N +
N^T (I - P) N, the load weighs the residuals by P N tabulated once per
pair and rule.  The projected systems are symmetric positive definite,
packed lower triangles factored by one Cholesky factorization across
cells (the cell index last), over blocks of ``fem.ERROR_BLOCK`` cells.
The indicator is the energy norm of the lift N x, whose square is
x . N^T b+ where the matrix is N^T A+ N (no Dirichlet edge).

The projected matrices depend only on the mesh and the pair, not on the
function estimated: estimates of several functions on one mesh (the
primal and dual of a goal-oriented run) can share the factors through
the ``factors`` dict of :func:`estimate`, and each later one then only
forms its load and substitutes, with the same bits as on its own.
"""

import functools

import numpy as np

from . import element as el
from . import fem
from . import quadrature as quad
from .mesh import DIRICHLET, NEUMANN, IndicatorField

NULLSPACE_RTOL = 1e-10

PAIRS = tuple(
    (kp, km) for kp in range(1, el.MAX_DEGREE + 1) for km in range(kp)
)


class NullspaceError(RuntimeError):
    """The SVD cutoff did not produce the expected kernel dimension."""


class LocalSolveError(RuntimeError):
    """A projected cell system could not be solved."""


def validate_pair(pair):
    """(k+, k-) as ints from two integers or two ASCII digit strings; a
    bool, a float or any other entry raises ValueError, not truncated."""
    try:
        # Any other entry is left out, so that the unpacking fails.
        kp, km = (int(v) for v in pair
                  if el._is_integer(v) or isinstance(v, str) and v.isascii() and v.isdigit())
    except (TypeError, ValueError):
        raise ValueError(f"invalid space pair: {pair!r}") from None
    if not (1 <= kp <= el.MAX_DEGREE and 0 <= km < kp):
        raise ValueError(
            f"invalid space pair {pair!r}: need 1 <= k+ <= {el.MAX_DEGREE} and k- < k+"
        )
    return kp, km


def interpolation_matrix(fine, coarse):
    """Interpolate onto the coarse element, inject back into the fine one.

    The result is an idempotent (dim+, dim+) matrix whose kernel is the
    estimation space.
    """
    onto_coarse = fine.tabulate(coarse.nodes)  # (dim-, dim+)
    into_fine = fine.interpolate(coarse.tabulate)  # (dim+, dim-)
    return into_fine @ onto_coarse


def nullspace(fine, coarse, rtol=NULLSPACE_RTOL):
    """Orthonormal kernel basis of the interpolation matrix, via SVD.

    Singular values at or below rtol times the largest one count as zero;
    anything but exactly dim+ - dim- of them is an error.
    """
    g = interpolation_matrix(fine, coarse)
    _, sigma, vt = np.linalg.svd(g)
    null = sigma <= rtol * sigma[0]
    expected = fine.dim - coarse.dim
    if int(null.sum()) != expected:
        raise NullspaceError(
            f"kernel of the {fine.name}->{coarse.name} interpolation came out "
            f"{int(null.sum())}-dimensional, expected {expected}"
        )
    return vt[null].T


@functools.lru_cache(maxsize=None)
def _operators(kind):
    """Fine element, kernel N (d, k), N^T K_ref N (4, k, k) and per
    Dirichlet pattern m: free[m] = P_m N and, lower triangles packed by
    columns, stiff[m] = N^T P_m K_ref P_m N and fixed[m] = N^T (I - P_m) N."""
    if kind == "bubble":
        fine, coarse = el.p2_bubble(), el.lagrange(1)
    else:
        kp, km = validate_pair(kind)
        fine, coarse = el.lagrange(kp), el.lagrange(km)
    null = nullspace(fine, coarse)
    on_edge = np.eye(fine.dim)[list(fine.edge_dofs)].sum(axis=1)  # (3, d)
    bits = np.arange(8)[:, None] >> np.arange(3) & 1
    mask = (bits @ on_edge == 0).astype(float)  # (8, d)
    free = mask[:, :, None] * null
    kref = fem.reference_stiffness(fine).reshape(4, fine.dim, fine.dim)
    stiff = np.einsum("mia,sij,mjb->msab", free, kref, free)
    fixed = np.einsum("ia,mi,ib->mab", null, 1.0 - mask, null)
    cols, rows = np.triu_indices(null.shape[1])
    return fine, null, stiff[0], free, stiff[..., rows, cols], fixed[:, rows, cols]


@functools.lru_cache(maxsize=None)
def _load_tables(kind, order):
    """Every pattern's P_m N weighted at ``triangle_rule(order)`` (8, nq, k)
    and at each lane's ``edge_rule(order)`` (8, 3 nt, k), and the latter
    summed over each lane's points (8, 3, k)."""
    fine, _, _, free, _, _ = _operators(kind)
    pts, wts = quad.triangle_rule(order)
    t, wt = quad.edge_rule(order)
    volume = (wts[:, None] * fine.tabulate(pts)) @ free
    lanes = [wt[:, None] * fine.tabulate(fem.lane_points(lane, t)) for lane in range(3)]
    edge = np.stack(lanes) @ free[:, None]  # (8, 3, nt, k)
    tables = volume, edge.reshape(8, -1, free.shape[2]), edge.sum(axis=2)
    for table in tables:
        table.setflags(write=False)
    return tables


def _by_pattern(values, tables, pattern):
    """Each cell's ``values`` (n, r) times its pattern's table (r, s) as
    (s, n), the cell index last: one product for all cells as if none had
    a Dirichlet edge, then the cells of each Dirichlet pattern overwritten."""
    out = tables[0].T @ values.T
    dirichlet = np.flatnonzero(pattern)
    for m in np.unique(pattern[dirichlet]):
        # einsum, not a product that BLAS treats differently for one cell,
        # so that no cell's bits depend on how many share its pattern
        cells = dirichlet[pattern[dirichlet] == m]
        out[:, cells] = np.einsum("rs,cr->sc", tables[m], values[cells])
    return out


def local_system(u, f, g, kind):
    """Every cell's projected load N^T P b+ (nc, k) for the pair (or
    "bubble") ``kind``, by the tables of :func:`_load_tables`.  ``f`` or
    ``g`` None is zero and never evaluated.  The facet traces are taken
    for all cells at once, since the jumps need the neighbours; the
    residual and the loads go by ``fem.cell_blocks``.
    """
    space = u.space
    mesh = space.mesh
    fine = _operators(kind)[0]
    order = max(2 * fine.degree, space.degree + fine.degree + 2)
    volume, edge, edge_sums = _load_tables(kind, order)
    pts, _ = quad.triangle_rule(order)
    hess = space.element.tabulate_hess(pts) if space.degree >= 2 else None
    dn, jump = fem.facet_traces(u, order)
    length = mesh.lane_lengths
    gv = None if g is None else fem.neumann_values(mesh, g, order) * length[..., None]
    terms = []  # (facet data (3, nc, m), its edge tables)
    if space.degree == 1:
        # traces constant along each edge: one value per lane against the
        # summed edge tables, and g a term of its own
        dn, jump = dn[..., :1], jump[..., :1]
        if gv is not None:
            terms.append((gv, edge))
        edge, gv = edge_sums, None
    data = jump * (0.5 * length)[..., None]
    neumann = np.nonzero(mesh.lane_tags == NEUMANN)
    data[neumann] = -dn[neumann] * length[neumann][:, None]
    if gv is not None:
        data[neumann] += gv[neumann]
    terms.append((data, edge))
    # bit i of a cell's Dirichlet pattern is set when its local edge i is Dirichlet
    pattern = (1 << np.arange(3)) @ (mesh.lane_tags == DIRICHLET)
    b = np.empty((mesh.num_cells, volume.shape[2]))
    for cells, r in fem.cell_blocks(mesh, f, pts):
        if hess is not None:
            lap = fem.cell_laplacians(u.coeffs[space.dofmap[cells]], hess, mesh.inv[cells])
            r = lap if r is None else r + lap
        n = cells.stop - cells.start  # the facet data of a block as rows (n, 3 m)
        b_bw = sum(_by_pattern(lanes[:, cells].transpose(1, 0, 2).reshape(n, -1), tables,
                               pattern[cells]) for lanes, tables in terms)
        if r is not None:
            b_bw += _by_pattern(r * mesh.det[cells, None], volume, pattern[cells])
        b[cells] = b_bw.T
    return b


def _project_matrix(metric, pattern, kind):
    """Every cell's N^T (P A P + I - P) N, its lower triangle packed by
    columns as (k(k+1)/2, nc), the cell index last."""
    stiff, fixed = _operators(kind)[4:]
    a_bw = _by_pattern(metric, stiff, pattern)
    dirichlet = np.flatnonzero(pattern)
    a_bw[:, dirichlet] += fixed[pattern[dirichlet]].T
    return a_bw


def _factor(a_bw, first=0):
    """Cholesky factors of the projected systems of all cells, lower
    triangles packed by columns in a_bw (k(k+1)/2, nc); returns (a_bw,
    pivots), the factor in a_bw (overwritten) and its (k, nc) diagonal.

    The systems are symmetric positive definite, so one factorization runs
    over all cells at once, a column at a time.  A cell with a
    non-positive or non-finite pivot raises LocalSolveError naming the
    first such cell, numbered from ``first``.
    """
    k = int(np.sqrt(2 * len(a_bw)))  # len(a_bw) = k (k + 1) / 2
    starts = np.cumsum(np.r_[0, k:0:-1])  # where each column's diagonal is
    with np.errstate(all="ignore"):
        for j in range(k):
            col = a_bw[starts[j] : starts[j + 1]]
            np.sqrt(col[0], out=col[0])
            col[1:] /= col[0]
            for i in range(j + 1, k):
                a_bw[starts[i] : starts[i + 1]] -= col[i - j] * col[i - j :]
        pivots = a_bw[starts[:-1]]
        bad = ~(np.isfinite(pivots) & (pivots > 0.0)).all(axis=0)
    if bad.any():
        raise LocalSolveError(
            f"projected system on cell {first + int(np.argmax(bad))} is not positive definite"
        )
    return a_bw, pivots


def _substitute(factor, b_bw):
    """Solve every cell's system from its :func:`_factor` factors by
    forward and back substitution; returns x (k, nc).  ``factor`` is only
    read, so one factorization serves any number of loads."""
    lower, pivots = factor
    x = np.array(b_bw, dtype=float, order="C")
    starts = np.cumsum(np.r_[0, len(x):0:-1])
    with np.errstate(all="ignore"):
        for j in range(len(x)):
            x[j] /= pivots[j]
            x[j + 1 :] -= lower[starts[j] + 1 : starts[j + 1]] * x[j]
        for j in reversed(range(len(x))):
            x[j] /= pivots[j]
            x[:j] -= lower[starts[:j] + j - np.arange(j)] * x[j]
    return x


def _block_factors(factors, mesh, kind):
    """The per-block store of a shared ``factors`` dict, after checking
    that the dict was started on this mesh object, pair and block size."""
    owner = (kind, fem.ERROR_BLOCK)
    stored_mesh, stored = factors.setdefault("owner", (mesh, owner))
    if stored_mesh is not mesh:
        raise ValueError("the factors were computed on another mesh")
    if stored != owner:
        raise ValueError(
            f"the factors were computed for pair {stored[0]!r} in blocks of {stored[1]} cells, "
            f"not for pair {kind!r} in blocks of {fem.ERROR_BLOCK}"
        )
    return factors.setdefault("blocks", {})


def _estimate(u, f, g, kind, factors):
    _, null, stiff, _, _, _ = _operators(kind)
    mesh = u.space.mesh
    blocks = {} if factors is None else _block_factors(factors, mesh, kind)
    b = local_system(u, f, g, kind)
    metric, pattern = mesh.metric, (1 << np.arange(3)) @ (mesh.lane_tags == DIRICHLET)
    eta2 = np.empty(len(b))
    lift = np.empty((len(b), len(null)))
    for cells, _ in fem.cell_blocks(mesh):
        factor = blocks.get(cells.start)
        if factor is None:
            factor = _factor(_project_matrix(metric[cells], pattern[cells], kind), cells.start)
            if factors is not None:
                for array in factor:
                    array.setflags(write=False)
                blocks[cells.start] = factor
        b_bw = b[cells].T
        x = _substitute(factor, b_bw)
        # eta^2 = (N x)^T A+ (N x) is x . b_bw where the matrix is N^T A+ N
        eta2[cells] = np.einsum("ac,ac->c", x, b_bw)
        dirichlet = np.flatnonzero(pattern[cells])
        xd, md = x[:, dirichlet], metric[cells][dirichlet]
        eta2[cells.start + dirichlet] = np.einsum("cs,sab,ac,bc->c", md, stiff, xd, xd)
        lift[cells] = x.T @ null.T
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0))), lift


def estimate(u, f, g=None, pair=(2, 1), factors=None):
    """Cell indicators for the solution ``u`` of a Poisson problem.

    Parameters
    ----------
    u : FEFunction
        Discrete solution; its mesh tags decide the facet data.
    f, g : vectorized callables or None
        Volume data and Neumann data of the solved problem; None is zero.
    pair : (k+, k-)
        Fine/coarse degrees of the estimation spaces.
    factors : dict or None
        Shared by the estimates of several functions on one mesh, with
        one pair.  The first call stores the Cholesky factors of every
        block's projected systems in it, and later calls substitute their
        own loads into them instead of projecting and factoring again;
        the results are bitwise those of calls without it.  A dict
        started on another mesh object, another pair or another
        ``fem.ERROR_BLOCK`` raises ``ValueError``.  None (the default)
        drops each block's factors once the block is solved.

    Returns
    -------
    (IndicatorField, ndarray)
        Indicators eta_T = |grad e_T|_T and the (nc, dim+) lifted local
        error coefficients for diagnostics.
    """
    return _estimate(u, f, g, validate_pair(pair), factors)


def estimate_bubble(u, f, g=None, factors=None):
    """Same as :func:`estimate` with the P2 + interior-bubble fine space
    over a P1 coarse space (kernel: interior bubble and edge bubbles),
    ``factors`` included."""
    return _estimate(u, f, g, "bubble", factors)
