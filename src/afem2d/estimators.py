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

    with f_T and g_E the cell and facet means of the data.
    """
    space = u.space
    mesh = space.mesh
    # Elevated data order: near-singular loads (e.g. x**(alpha-2) against a
    # boundary) are badly under-sampled by the minimal 2k rule, while smooth
    # data is integrated exactly either way.
    order = 2 * space.degree + 6
    pts, wts = quad.triangle_rule(order)

    fv = fem.eval_data(f, fem.physical_points(mesh, pts))
    f_mean = 2.0 * (fv @ wts)  # cell weights sum to 1/2
    resid = np.broadcast_to(f_mean[:, None], fv.shape)
    if space.degree >= 2:
        hess = space.element.tabulate_hess(pts)
        resid = resid + fem.cell_laplacians(u.cell_coeffs(), hess, mesh.inv)
    eta2 = mesh.cell_diameters() ** 2 * (((resid**2) @ wts) * mesh.det)

    _, wt = quad.edge_rule(order)
    tags, length, dn, jump, gv = fem.facet_traces(u, g, order)
    g_mean = gv @ wt  # edge weights sum to 1
    neumann = ((g_mean[..., None] - dn) ** 2) @ wt
    edge = length**2 * np.where(tags == NEUMANN, neumann, 0.5 * (jump**2 @ wt))
    for lane in range(3):
        eta2 += edge[lane]
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0)))


def zz_estimate(u):
    """Gradient-recovery indicators for degree-1 solutions.

    The recovered flux is the P1 vector field whose vertex values are the
    area-weighted averages of the neighboring cell gradients; eta_T is the
    L2 distance between it and the raw cellwise gradient.
    """
    space = u.space
    if space.degree != 1:
        raise ValueError("gradient recovery requires a degree-1 solution")
    mesh = space.mesh
    ref_grad = space.element.tabulate_grad(np.array([[1.0 / 3.0, 1.0 / 3.0]]))[0]
    grads = np.einsum("ci,cst,is->ct", u.cell_coeffs(), mesh.inv, ref_grad)
    areas = mesh.areas

    weighted = np.zeros((mesh.num_vertices, 2))
    measure = np.zeros(mesh.num_vertices)
    np.add.at(weighted, mesh.cells.ravel(), np.repeat(areas[:, None] * grads, 3, axis=0))
    np.add.at(measure, mesh.cells.ravel(), np.repeat(areas, 3))
    recovered = weighted / measure[:, None]

    # The difference is linear per cell; the P1 mass matrix integrates it
    # exactly: int |v|^2 = area * sum_jk M_jk v_j . v_k.
    mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    diff = recovered[mesh.cells] - grads[:, None, :]
    eta2 = areas * np.einsum("cjt,jk,ckt->c", diff, mass, diff)
    return IndicatorField(np.sqrt(np.maximum(eta2, 0.0)))
