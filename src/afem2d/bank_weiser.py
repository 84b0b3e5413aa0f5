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
    """Fine-space cell data, before any elimination.

    Returns (G, b, pattern): the (nc, 4) metrics whose cell stiffness is
    G @ K_ref, the (nc, d) residual loads against the fine basis, and the
    (nc,) Dirichlet patterns, bit i set when local edge i is Dirichlet.
    ``f`` None is a zero source, never evaluated.  The facet traces are
    taken once for all cells, since the jumps need the neighbours; the
    interior residual and the loads go by blocks of ``fem.ERROR_BLOCK``
    cells.
    """
    space = u.space
    mesh = space.mesh
    order = max(2 * fine.degree, space.degree + fine.degree + 2)
    pts, _ = quad.triangle_rule(order)
    hess = space.element.tabulate_hess(pts) if space.degree >= 2 else None
    tags, length, dn, jump, gv = fem.facet_traces(u, g, order)
    data = jump * (0.5 * length)[..., None]
    neumann = np.nonzero(tags == NEUMANN)
    data[neumann] = (gv[neumann] - dn[neumann]) * length[neumann][:, None]
    b = np.empty((mesh.num_cells, fine.dim))
    for start in range(0, mesh.num_cells, fem.ERROR_BLOCK):
        cells = slice(start, start + fem.ERROR_BLOCK)
        r = None if f is None else fem.eval_data(f, fem.physical_points(mesh, pts, cells))
        if hess is not None:
            lap = fem.cell_laplacians(u.coeffs[space.dofmap[cells]], hess, mesh.inv[cells])
            r = lap if r is None else r + lap
        b[cells] = fem.cell_loads(fine, order, mesh.det[cells], r, data[:, cells])
    pattern = (1 << np.arange(3)) @ (tags == DIRICHLET)
    return mesh.metric, b, pattern


def _project(metric, b, pattern, kind):
    """Every cell's N^T (P A P + I - P) N as (k, k, nc) and N^T P b as
    (k, nc), cell index last: one product for all cells as if none had a
    Dirichlet edge, then the cells of each Dirichlet pattern overwritten."""
    _, _, free, stiff, fixed = _operators(kind)
    k = fixed.shape[1]
    a_bw = (stiff[0].reshape(4, -1).T @ metric.T).reshape(k, k, -1)
    b_bw = free[0].T @ b.T
    dirichlet = np.flatnonzero(pattern)
    for m in np.unique(pattern[dirichlet]):
        # einsum, not a product that BLAS treats differently for one cell,
        # so that no cell's bits depend on how many share its pattern
        cells = dirichlet[pattern[dirichlet] == m]
        a_bw[:, :, cells] = np.einsum("sab,cs->abc", stiff[m], metric[cells]) + fixed[m][..., None]
        b_bw[:, cells] = np.einsum("da,cd->ac", free[m], b[cells])
    return a_bw, b_bw


def _solve_projected(a_bw, b_bw, first=0):
    """Solve the projected systems a_bw (k, k, nc) x = b_bw (k, nc) of all
    cells; returns x (k, nc).

    The systems are symmetric positive definite, so one Cholesky
    factorization runs over all cells at once, a column at a time, in the
    lower triangle of a_bw (overwritten), followed by forward and back
    substitution.  A cell with a non-positive or non-finite pivot raises
    LocalSolveError naming the first such cell, numbered from ``first``.
    """
    k = len(b_bw)
    x = np.array(b_bw, dtype=float)
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
        for j in range(k):
            x[j] /= pivots[j]
            x[j + 1 :] -= a_bw[j + 1 :, j] * x[j]
        for j in reversed(range(k)):
            x[j] /= pivots[j]
            x[:j] -= a_bw[j, :j] * x[j]
    return x


def _estimate(u, f, g, kind):
    fine, null, _, stiff, _ = _operators(kind)
    metric, b, pattern = local_system(u, f, g, fine)
    k = null.shape[1]
    # eta^2 = (N x)^T A+ (N x) = sum_s G_c[s] x^T stiff[0][s] x
    forms = stiff[0].transpose(0, 2, 1).reshape(4 * k, k)
    eta2 = np.empty(len(b))
    lift = np.empty(b.shape)
    for start in range(0, len(b), fem.ERROR_BLOCK):
        cells = slice(start, start + fem.ERROR_BLOCK)
        a_bw, b_bw = _project(metric[cells], b[cells], pattern[cells], kind)
        x = _solve_projected(a_bw, b_bw, first=start)
        quad_forms = ((forms @ x).reshape(4, k, -1) * x).sum(axis=1)
        eta2[cells] = (quad_forms * metric[cells].T).sum(axis=0)
        lift[cells] = x.T @ null.T
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0))), lift


def estimate(u, f, g=None, pair=(2, 1)):
    """Cell indicators for the solution ``u`` of a Poisson problem.

    Parameters
    ----------
    u : FEFunction
        Discrete solution; its mesh tags decide the facet data.
    f, g : vectorized callables or None
        Volume data and Neumann data of the solved problem; None is zero.
    pair : (k+, k-)
        Fine/coarse degrees of the estimation spaces.

    Returns
    -------
    (IndicatorField, ndarray)
        Indicators eta_T = |grad e_T|_T and the (nc, dim+) lifted local
        error coefficients for diagnostics.
    """
    return _estimate(u, f, g, validate_pair(pair))


def estimate_bubble(u, f, g=None):
    """Same as :func:`estimate` with the P2 + interior-bubble fine space
    over a P1 coarse space (kernel: interior bubble and edge bubbles)."""
    return _estimate(u, f, g, "bubble")
