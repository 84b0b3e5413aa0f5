"""Explicit residual and gradient-recovery error estimators."""

import numpy as np

from . import fem
from . import quadrature as quad
from .mesh import NEUMANN, IndicatorField


def residual_estimate(u, f, g=None):
    """Explicit residual indicators

        eta_T^2 = h_T^2 |f_T + lap(u_h)|_T^2
                + sum over interior facets of T:  1/2 h_E |jump dn(u_h)|_E^2
                + sum over Neumann facets of T:   h_E |g_E - dn(u_h)|_E^2

    with f_T and g_E the cell and facet means of the data (None: zero,
    never evaluated).  The volume term goes by :func:`~afem2d.fem.cell_blocks`;
    its cell means (and at degree >= 2 its integrals) are matrix-vector
    products, which BLAS forms a few rows at a time (4 in OpenBLAS's
    dgemv), so blocks of a multiple of 8 cells, as ``fem.ERROR_BLOCK`` is,
    keep every bit.  At degree 1 the residual is constant on each cell and
    each lane, so each square is formed once and weighed by the sum of the
    rule's weights.
    """
    space = u.space
    mesh = space.mesh
    # Elevated data order: near-singular loads (e.g. x**(alpha-2) against a
    # boundary) are badly under-sampled by the minimal 2k rule, while smooth
    # data is integrated exactly either way.
    order = 2 * space.degree + 6
    pts, wts = quad.triangle_rule(order)
    hess = space.element.tabulate_hess(pts) if space.degree >= 2 else None

    eta2 = np.zeros(mesh.num_cells)
    for cells, fv in fem.cell_blocks(mesh, f, pts):
        # the cell mean of f: the weights sum to 1/2
        mean = None if fv is None else 2.0 * (fv @ wts)
        if hess is None:
            if mean is not None:  # a constant residual: its square by the weights' sum
                eta2[cells] = (mean * mean * wts.sum()) * mesh.det[cells]
            continue
        resid = fem.cell_laplacians(u.coeffs[space.dofmap[cells]], hess, mesh.inv[cells])
        if mean is not None:
            resid += mean[:, None]
        eta2[cells] = ((resid**2) @ wts) * mesh.det[cells]
    eta2 *= mesh.cell_diameters() ** 2

    _, wt = quad.edge_rule(order)
    dn, jump = fem.facet_traces(u, order)
    gmean = None if g is None else fem.neumann_values(mesh, g, order) @ wt  # weights sum to 1
    if space.degree == 1:
        # Constant traces: one value per lane, its square times the weights'
        # sum (a one-term dot product, which rounds once, as this product does).
        w = wt.sum()
        misfit = dn[..., 0] if g is None else gmean - dn[..., 0]  # g_E - dn(u_h) up to its sign
        neumann, interior = misfit**2 * w, jump[..., 0] ** 2 * w
    else:
        misfit = dn if g is None else gmean[..., None] - dn
        neumann, interior = (misfit**2) @ wt, jump**2 @ wt
    length = mesh.lane_lengths
    edge = length**2 * np.where(mesh.lane_tags == NEUMANN, neumann, 0.5 * interior)
    for lane in range(3):
        eta2 += edge[lane]
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0)))


def zz_estimate(u):
    """Gradient-recovery indicators for degree-1 solutions.

    The recovered flux is the P1 vector field whose vertex values are the
    area-weighted averages of the neighboring cell gradients; eta_T is the
    L2 distance between it and the raw cellwise gradient.  Each gradient
    component goes on its own: one ``bincount`` of its vertex sums, one
    ``np.take`` gather to C-contiguous (3, nc) planes of vertex differences
    (indexing by ``cells.T`` would keep its column order), and the P1 mass
    form in closed form over the planes.
    """
    space = u.space
    if space.degree != 1:
        raise ValueError("gradient recovery requires a degree-1 solution")
    mesh = space.mesh
    ref_grad = space.element.tabulate_grad(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    grads = fem.cell_gradients(u.cell_coeffs(), ref_grad, mesh.inv)[:, 0]
    areas = 0.5 * mesh.det

    vertices, nv = mesh.cells.ravel(), mesh.num_vertices
    measure = np.bincount(vertices, np.repeat(areas, 3), minlength=nv)
    # The difference d is linear per cell; the P1 mass matrix (1 + delta_jk)
    # / 12 integrates it exactly: int |d|^2 = area (|sum_j d_j|^2
    # + sum_j |d_j|^2) / 12.  The planes j = 0, 1, 2 are added in turn, and
    # then the x plane to the y plane: the order in which diff.sum(axis=1)
    # and einsum("cjt,cjt->c") over (nc, 3, 2) gathers pair the terms, so
    # the indicators keep that form's bits.
    sums, squares = [], []
    for g in grads.T:
        recovered = np.bincount(vertices, np.repeat(areas * g, 3), minlength=nv) / measure
        d = np.take(recovered, mesh.cells.T)
        d -= g
        sums.append((d[0] + d[1]) + d[2])
        d *= d
        squares.append((d[0] + d[1]) + d[2])
    (sx, sy), (qx, qy) = sums, squares
    eta2 = areas * ((sx * sx + sy * sy) + (qx + qy)) / 12.0
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0)))
