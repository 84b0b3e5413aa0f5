"""Hierarchical error estimation from projected local Neumann problems.

For a space pair (k+, k-) the estimation space on each cell is the kernel
of the operator that interpolates the fine Lagrange space P_{k+} onto the
coarse one P_{k-} and injects the result back.  Both steps only involve
reference-element node evaluations, so the kernel basis N is computed
once per pair, on the reference cell, and shared by every cell.

Each cell then gets a small Neumann problem: the fine-space stiffness
A+ and a load b+ built from the interior residual f + lap(u_h) and the
facet data

    interior facet:  0.5 * (grad u_h|neighbor - grad u_h|owner) . n_owner
    Neumann facet:   g - dn(u_h)
    Dirichlet facet: 0  (fine DOFs on the facet are eliminated instead)

after which the system is projected onto the kernel, solved, and the
energy norm of the lifted solution is the cell indicator.
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
    if kind == "bubble":
        fine, coarse = el.p2_bubble(), el.lagrange(1)
    else:
        kp, km = validate_pair(kind)
        fine, coarse = el.lagrange(kp), el.lagrange(km)
    return fine, coarse, nullspace(fine, coarse)


def local_system(u, f, g, fine):
    """Fine-space cell matrices and loads, before any elimination.

    Returns (a_raw, b, constrained) where a_raw is the (nc, d, d) batch
    of cell stiffness matrices, b the (nc, d) batch of residual loads,
    and constrained the boolean mask of fine DOFs on Dirichlet facets.
    """
    space = u.space
    mesh = space.mesh
    jac, det, inv = fem.cell_geometry(mesh)
    order = max(2 * fine.degree, space.degree + fine.degree + 2)
    pts, wts = quad.triangle_rule(order)
    a_raw = fem.cell_stiffness(fine, order, det, inv)

    r = fem.eval_data(f, fem.physical_points(mesh, pts, jac))
    if space.degree >= 2:
        r = r + fem.cell_laplacians(u.cell_coeffs(), space.element.tabulate_hess(pts), inv)
    b = (r * det[:, None]) @ (wts[:, None] * fine.tabulate(pts))

    t, wt = quad.edge_rule(order)
    tags, length, dn, jump, gv = fem.facet_traces(u, g, order)
    data = np.where((tags == NEUMANN)[..., None], gv - dn, 0.5 * jump) * length[..., None]
    constrained = np.zeros((mesh.num_cells, fine.dim), dtype=bool)
    for lane in range(3):
        b += data[lane] @ (wt[:, None] * fine.tabulate(fem.lane_points(lane, t)))
        constrained[np.ix_(tags[lane] == DIRICHLET, fine.edge_dofs[lane])] = True
    return a_raw, b, constrained


def _solve_projected(a_raw, b, constrained, nullbasis):
    free = ~constrained
    a_mod = a_raw * (free[:, :, None] & free[:, None, :])
    idx = np.arange(a_raw.shape[1])
    a_mod[:, idx, idx] = np.where(constrained, 1.0, a_mod[:, idx, idx])
    b_mod = np.where(free, b, 0.0)
    a_bw = np.matmul(nullbasis.T, a_mod) @ nullbasis
    b_bw = b_mod @ nullbasis
    try:
        x = np.linalg.solve(a_bw, b_bw[..., None])[..., 0]
    except np.linalg.LinAlgError:
        for c in range(len(a_bw)):
            try:
                np.linalg.solve(a_bw[c], b_bw[c])
            except np.linalg.LinAlgError:
                raise LocalSolveError(f"singular projected system on cell {c}") from None
        raise
    return x @ nullbasis.T


def _estimate(u, f, g, kind):
    fine, _, nullbasis = _operators(kind)
    a_raw, b, constrained = local_system(u, f, g, fine)
    lift = _solve_projected(a_raw, b, constrained, nullbasis)
    eta2 = np.einsum("ci,cij,cj->c", lift, a_raw, lift, optimize=True)
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0))), lift


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
