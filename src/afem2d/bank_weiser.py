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
DOFs on Dirichlet facets.  Its matrix G_c @ N^T P K_ref P N + N^T (I - P) N
takes two reference tensors per Dirichlet pattern of the cell's edges,
projected once per pair.  The projected systems are symmetric positive
definite, and they are solved by one Cholesky factorization vectorized
across cells (the cell index last), over blocks of ``fem.ERROR_BLOCK``
cells.  The energy norm of the lift N x is the indicator.

The projected matrices depend only on the mesh and the pair, not on the
function estimated: estimates of several functions on one mesh (the
primal and dual of a goal-oriented run) can share the factors through
the ``factors`` dict of :func:`estimate`, and each later one then only
projects its load and substitutes, with the same bits as on its own.
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
    try:
        kp, km = (int(v) for v in pair)
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
    """Fine element, kernel N (d, k) and per Dirichlet pattern m: free[m]
    = P_m N, stiff[m] = N^T P_m K_ref P_m N (4, k, k), fixed[m] = N^T (I - P_m) N."""
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
    return fine, null, free, stiff, fixed


def local_system(u, f, g, fine):
    """The (nc, d) residual loads against the fine basis, before any
    elimination; the cell stiffness is ``mesh.metric @ K_ref``.  ``f`` or
    ``g`` None is zero and never evaluated.  The facet traces are taken
    once for all cells, since the jumps need the neighbours; the interior
    residual and the loads go by :func:`~afem2d.fem.cell_blocks`.
    """
    space = u.space
    mesh = space.mesh
    order = max(2 * fine.degree, space.degree + fine.degree + 2)
    pts, _ = quad.triangle_rule(order)
    hess = space.element.tabulate_hess(pts) if space.degree >= 2 else None
    dn, jump = fem.facet_traces(u, order)
    length = mesh.lane_lengths
    data = jump * (0.5 * length)[..., None]
    neumann = np.nonzero(mesh.lane_tags == NEUMANN)
    flux = -dn[neumann]
    if g is not None:
        flux += fem.neumann_values(mesh, g, order)[neumann]
    data[neumann] = flux * length[neumann][:, None]
    b = np.empty((mesh.num_cells, fine.dim))
    for cells, r in fem.cell_blocks(mesh, f, pts):
        if hess is not None:
            lap = fem.cell_laplacians(u.coeffs[space.dofmap[cells]], hess, mesh.inv[cells])
            r = lap if r is None else r + lap
        b[cells] = fem.cell_loads(fine, order, mesh.det[cells], r, data[:, cells])
    return b


def _project_matrix(metric, pattern, kind):
    """Every cell's N^T (P A P + I - P) N as (k, k, nc), cell index last:
    one product for all cells as if none had a Dirichlet edge, then the
    cells of each Dirichlet pattern overwritten."""
    _, _, _, stiff, fixed = _operators(kind)
    k = fixed.shape[1]
    a_bw = (stiff[0].reshape(4, -1).T @ metric.T).reshape(k, k, -1)
    dirichlet = np.flatnonzero(pattern)
    for m in np.unique(pattern[dirichlet]):
        # einsum, not a product that BLAS treats differently for one cell,
        # so that no cell's bits depend on how many share its pattern
        cells = dirichlet[pattern[dirichlet] == m]
        a_bw[:, :, cells] = np.einsum("sab,cs->abc", stiff[m], metric[cells]) + fixed[m][..., None]
    return a_bw


def _project_load(b, pattern, kind):
    """Every cell's N^T P b as (k, nc), by the same pattern split as
    :func:`_project_matrix`."""
    free = _operators(kind)[2]
    b_bw = free[0].T @ b.T
    dirichlet = np.flatnonzero(pattern)
    for m in np.unique(pattern[dirichlet]):
        cells = dirichlet[pattern[dirichlet] == m]
        b_bw[:, cells] = np.einsum("da,cd->ac", free[m], b[cells])
    return b_bw


def _factor(a_bw, first=0):
    """Cholesky factors of the projected systems a_bw (k, k, nc) of all
    cells; returns (a_bw, pivots), the factor in a_bw's lower triangle
    (overwritten) and its (k, nc) diagonal.

    The systems are symmetric positive definite, so one factorization runs
    over all cells at once, a column at a time.  A cell with a
    non-positive or non-finite pivot raises LocalSolveError naming the
    first such cell, numbered from ``first``.
    """
    k = len(a_bw)
    with np.errstate(all="ignore"):
        for j in range(k):
            np.sqrt(a_bw[j, j], out=a_bw[j, j])
            col = a_bw[j + 1 :, j]
            col /= a_bw[j, j]
            for i in range(j + 1, k):
                a_bw[i, j + 1 : i + 1] -= col[i - j - 1] * col[: i - j]
        pivots = a_bw[np.arange(k), np.arange(k)]
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
    x = np.array(b_bw, dtype=float)
    with np.errstate(all="ignore"):
        for j in range(len(x)):
            x[j] /= pivots[j]
            x[j + 1 :] -= lower[j + 1 :, j] * x[j]
        for j in reversed(range(len(x))):
            x[j] /= pivots[j]
            x[:j] -= lower[j, :j] * x[j]
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
    fine, null, _, stiff, _ = _operators(kind)
    mesh = u.space.mesh
    blocks = {} if factors is None else _block_factors(factors, mesh, kind)
    b = local_system(u, f, g, fine)
    # bit i of a cell's Dirichlet pattern is set when its local edge i is Dirichlet
    metric, pattern = mesh.metric, (1 << np.arange(3)) @ (mesh.lane_tags == DIRICHLET)
    k = null.shape[1]
    # eta^2 = (N x)^T A+ (N x) = sum_s G_c[s] x^T stiff[0][s] x
    forms = stiff[0].transpose(0, 2, 1).reshape(4 * k, k)
    eta2 = np.empty(len(b))
    lift = np.empty(b.shape)
    for cells, _ in fem.cell_blocks(mesh):
        factor = blocks.get(cells.start)
        if factor is None:
            factor = _factor(_project_matrix(metric[cells], pattern[cells], kind), cells.start)
            if factors is not None:
                for array in factor:
                    array.setflags(write=False)
                blocks[cells.start] = factor
        x = _substitute(factor, _project_load(b[cells], pattern[cells], kind))
        quad_forms = ((forms @ x).reshape(4, k, -1) * x).sum(axis=1)
        eta2[cells] = (quad_forms * metric[cells].T).sum(axis=0)
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
