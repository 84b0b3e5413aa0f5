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
projected once per pair.  The energy norm of the lift N x is the indicator.
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
    """
    space = u.space
    mesh = space.mesh
    det, inv = mesh.det, mesh.inv
    order = max(2 * fine.degree, space.degree + fine.degree + 2)
    pts, _ = quad.triangle_rule(order)
    r = fem.eval_data(f, fem.physical_points(mesh, pts))
    if space.degree >= 2:
        r = r + fem.cell_laplacians(u.cell_coeffs(), space.element.tabulate_hess(pts), inv)
    tags, length, dn, jump, gv = fem.facet_traces(u, g, order)
    data = np.where((tags == NEUMANN)[..., None], gv - dn, 0.5 * jump) * length[..., None]
    pattern = (1 << np.arange(3)) @ (tags == DIRICHLET)
    return mesh.metric, fem.cell_loads(fine, order, det, r, data), pattern


def _project(metric, b, pattern, kind):
    """Every cell's N^T (P A P + I - P) N and N^T P b, by pattern."""
    _, _, free, stiff, fixed = _operators(kind)
    a_bw = np.empty((len(b),) + fixed.shape[1:])
    b_bw = np.empty(a_bw.shape[:2])
    for m in np.unique(pattern):
        cells = np.flatnonzero(pattern == m)
        a_bw[cells] = np.tensordot(metric[cells], stiff[m], 1) + fixed[m]
        b_bw[cells] = b[cells] @ free[m]
    return a_bw, b_bw


def _solve_projected(a_bw, b_bw):
    try:
        return np.linalg.solve(a_bw, b_bw[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for c in range(len(a_bw)):
            try:
                np.linalg.solve(a_bw[c], b_bw[c])
            except np.linalg.LinAlgError:
                raise LocalSolveError(f"singular projected system on cell {c}") from None
        raise


def _estimate(u, f, g, kind):
    fine, null, _, stiff, _ = _operators(kind)
    metric, b, pattern = local_system(u, f, g, fine)
    x = _solve_projected(*_project(metric, b, pattern, kind))
    # eta^2 = (N x)^T A+ (N x) = x^T (G_c @ stiff[0]) x
    eta2 = np.einsum("ca,cab,cb->c", x, np.tensordot(metric, stiff[0], 1), x)
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0))), x @ null.T


def estimate(u, f, g=None, pair=(2, 1)):
    """Cell indicators for the solution ``u`` of a Poisson problem.

    Parameters
    ----------
    u : FEFunction
        Discrete solution; its mesh tags decide the facet data.
    f, g : vectorized callables
        Volume data and (optional) Neumann data of the solved problem.
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
