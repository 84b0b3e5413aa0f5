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
    its cell means and integrals are matrix-vector products, which BLAS
    forms a few rows at a time (4 in OpenBLAS's dgemv), so blocks of a
    multiple of 8 cells, as ``fem.ERROR_BLOCK`` is, keep every bit.
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
        resid = None if fv is None else np.broadcast_to((2.0 * (fv @ wts))[:, None], fv.shape)
        if hess is not None:
            lap = fem.cell_laplacians(u.coeffs[space.dofmap[cells]], hess, mesh.inv[cells])
            resid = lap if resid is None else resid + lap
        if resid is not None:
            eta2[cells] = ((resid**2) @ wts) * mesh.det[cells]
    eta2 *= mesh.cell_diameters() ** 2

    _, wt = quad.edge_rule(order)
    dn, jump = fem.facet_traces(u, order)
    misfit = dn  # g_E - dn(u_h) up to its sign, which the square drops
    if g is not None:
        misfit = (fem.neumann_values(mesh, g, order) @ wt)[..., None] - dn  # weights sum to 1
    length = mesh.lane_lengths
    edge = length**2 * np.where(mesh.lane_tags == NEUMANN, (misfit**2) @ wt, 0.5 * (jump**2 @ wt))
    for lane in range(3):
        eta2 += edge[lane]
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0)))


def zz_estimate(u):
    """Gradient-recovery indicators for degree-1 solutions.

    The recovered flux is the P1 vector field whose vertex values are the
    area-weighted averages of the neighboring cell gradients; eta_T is the
    L2 distance between it and the raw cellwise gradient.  The vertex sums
    are one ``bincount`` each, and the P1 mass form is taken in closed form.
    """
    space = u.space
    if space.degree != 1:
        raise ValueError("gradient recovery requires a degree-1 solution")
    mesh = space.mesh
    ref_grad = space.element.tabulate_grad(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    grads = fem.cell_gradients(u.cell_coeffs(), ref_grad, mesh.inv)[:, 0]
    areas = 0.5 * mesh.det

    vertices, nv = mesh.cells.ravel(), mesh.num_vertices
    weighted = np.repeat(areas[:, None] * grads, 3, axis=0)
    measure = np.bincount(vertices, np.repeat(areas, 3), minlength=nv)
    recovered = np.stack([np.bincount(vertices, weighted[:, t], minlength=nv)
                          for t in range(2)], axis=1) / measure[:, None]

    # The difference d is linear per cell; the P1 mass matrix (1 + delta_jk)
    # / 12 integrates it exactly: int |d|^2 = area (|sum_j d_j|^2
    # + sum_j |d_j|^2) / 12.
    diff = recovered[mesh.cells] - grads[:, None, :]
    total = diff.sum(axis=1)
    eta2 = areas * (np.einsum("ct,ct->c", total, total)
                    + np.einsum("cjt,cjt->c", diff, diff)) / 12.0
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0)))
