"""Tests for the explicit residual and gradient-recovery estimators."""

import numpy as np
import pytest

from afem2d import fem
from afem2d import quadrature as quad
from afem2d.estimators import residual_estimate, zz_estimate
from afem2d.fem import FEFunction, FunctionSpace, interpolate
from afem2d.mesh import DIRICHLET, NEUMANN, IndicatorField, Mesh, refine
from afem2d.problems import lshaped_mixed, unit_square_mesh

from helpers import (
    criss_cross_square,
    jittered_square,
    mapped_point_traces,
    randomly_tagged_mesh,
    solve_poisson,
    tagged_unit_square,
    two_cell_square,
    unit_triangle_mesh,
    zz_mass_form,
    zz_recovery,
)


# ---------------------------------------------------------------------------
# residual estimator oracles
# ---------------------------------------------------------------------------


def test_residual_single_cell_constant_forcing():
    """One all-Dirichlet cell, linear u, f = 3: the indicator collapses to
    h_T * |f_T| * sqrt(area) = sqrt(2) * 3 * sqrt(1/2) = 3."""
    mesh = unit_triangle_mesh()
    space = FunctionSpace(mesh, 1)
    u = interpolate(lambda x, y: x - 2.0 * y, space)
    eta = residual_estimate(u, lambda x, y: 3.0 * np.ones_like(x))
    assert isinstance(eta, IndicatorField)
    assert abs(eta.values[0] - 3.0) < 1e-12


def test_residual_jump_term_two_cells():
    """Vertex values [0, 1, 3, 1] make grad u jump by sqrt(2) across the
    diagonal; each cell picks up 1/2 * h_E * jump^2 * L = 2, plus the
    volume term h^2 f_T^2 area = 25 for f = 5."""
    mesh = two_cell_square()
    space = FunctionSpace(mesh, 1)
    u = FEFunction(space, np.array([0.0, 1.0, 3.0, 1.0]))

    eta = residual_estimate(u, lambda x, y: np.zeros_like(x))
    assert np.allclose(eta.values, [np.sqrt(2.0), np.sqrt(2.0)], atol=1e-12)

    eta = residual_estimate(u, lambda x, y: 5.0 * np.ones_like(x))
    assert np.allclose(eta.values, [np.sqrt(27.0), np.sqrt(27.0)], atol=1e-12)


def test_residual_neumann_term():
    """u = x with g = 3 on the edge x = 1 leaves facet data g_E - flux = 2,
    so the owning cell gets h_E * 2^2 = 4 and the other cell nothing."""

    def tagger(x, y):
        return np.where(np.isclose(x, 1.0), NEUMANN, DIRICHLET)

    mesh = two_cell_square(boundary=tagger)
    space = FunctionSpace(mesh, 1)
    u = interpolate(lambda x, y: x, space)
    eta = residual_estimate(u, lambda x, y: np.zeros_like(x),
                            g=lambda x, y: 3.0 * np.ones_like(x))
    assert abs(eta.values[0] - 2.0) < 1e-12
    assert abs(eta.values[1]) < 1e-12


def test_residual_exact_on_matching_neumann_data():
    """u = x solves the problem with g = 1 on x = 1 exactly: every term of
    the residual vanishes."""

    def tagger(x, y):
        return np.where(np.isclose(x, 1.0), NEUMANN, DIRICHLET)

    mesh = tagged_unit_square(3, tagger)
    u = solve_poisson(mesh, 1, f=lambda x, y: np.zeros_like(x),
                      u_dirichlet=lambda x, y: x,
                      g=lambda x, y: np.ones_like(x))
    eta = residual_estimate(u, lambda x, y: np.zeros_like(x),
                            g=lambda x, y: np.ones_like(x))
    assert eta.global_value < 1e-12


def test_residual_zero_for_linear_solution():
    mesh = two_cell_square()
    space = FunctionSpace(mesh, 1)
    u = interpolate(lambda x, y: 2.0 * x + y, space)
    eta = residual_estimate(u, lambda x, y: np.zeros_like(x))
    assert eta.global_value < 1e-12


def test_residual_laplacian_term_quadratic():
    """For degree 2 the interior residual is f_T + lap(u_h): with
    u = x^2 + y^2 (lap = 4) and f = -4 the volume term cancels exactly."""
    mesh = unit_triangle_mesh()
    space = FunctionSpace(mesh, 2)
    u = interpolate(lambda x, y: x * x + y * y, space)
    eta = residual_estimate(u, lambda x, y: -4.0 * np.ones_like(x))
    assert eta.values[0] < 1e-12
    # and with f = 0 it is h^2 * 16 * area = 16, i.e. eta = 4
    eta = residual_estimate(u, lambda x, y: np.zeros_like(x))
    assert abs(eta.values[0] - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# gradient-recovery estimator oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2])
def test_residual_matches_mapped_point_oracle(degree):
    """The lane-map facet kernel reproduces the residual indicators built
    from mapped-point traces, on interior, Dirichlet and Neumann facets,
    with a nonzero source and nonzero Neumann data."""
    mesh = lshaped_mixed().mesh
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    f = lambda x, y: np.exp(x) - y * y
    g = lambda x, y: 1.0 + x - 2.0 * y
    got = residual_estimate(u, f, g).values

    order = 2 * degree + 6
    pts, wts = quad.triangle_rule(order)
    det, inv = mesh.det, mesh.inv
    x = fem.physical_points(mesh, pts)
    fv = f(x[..., 0], x[..., 1])
    resid = 2.0 * np.einsum("cq,q->c", fv, wts)[:, None]
    if degree >= 2:
        lap = np.einsum("csa,qist,cta->cqi", inv, space.element.tabulate_hess(pts), inv)
        resid = resid + np.einsum("ci,cqi->cq", u.cell_coeffs(), lap)
    eta2 = mesh.cell_diameters() ** 2 * np.einsum(
        "cq,q,c->c", np.broadcast_to(resid, fv.shape) ** 2, wts, det
    )
    length, dn, jump, gv = mapped_point_traces(u, g, order)
    _, wt = quad.edge_rule(order)
    tags = mesh.lane_tags
    interior = 0.5 * length**2 * np.einsum("lcq,q->lc", jump**2, wt)
    g_mean = np.einsum("lcq,q->lc", gv, wt)
    neumann = length**2 * np.einsum("lcq,q->lc", (g_mean[..., None] - dn) ** 2, wt)
    eta2 += np.where(tags == NEUMANN, neumann, interior).sum(axis=0)
    oracle = np.sqrt(eta2)
    assert (tags == NEUMANN).any() and np.abs(jump).max() > 0.0 and np.abs(gv).max() > 0.0
    assert np.abs(got - oracle).max() <= 1e-12 * oracle.max()


@pytest.mark.parametrize("block, calls", [(16, [16, 16, 16, 9]), (8, [8] * 6 + [9])])
@pytest.mark.parametrize("degree", [1, 2])
def test_residual_blocks_match_one_block(monkeypatch, degree, block, calls):
    """Blocking the residual's volume term over cells changes no bit, with
    a block size that does not divide the cell count: the source is
    evaluated once per block, on that block's cells.  The cell means and
    the squared residual's integrals are matrix-vector products, and
    BLAS forms those a few rows at a time (OpenBLAS's dgemv kernels take
    4), with other last bits for the rows left over; so the blocks are a
    multiple of 8 cells, as ``ERROR_BLOCK`` = 8192 is.  With 8 the last
    block would hold one cell, and it is joined to the one before."""
    mesh = randomly_tagged_mesh(5, seed=1)
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    g = lambda x, y: np.cos(x + 2 * y)
    calls_seen = []

    def f(x, y):
        calls_seen.append(len(x))
        return np.exp(x) - y * y

    assert fem.ERROR_BLOCK >= mesh.num_cells
    want = residual_estimate(u, f, g)
    monkeypatch.setattr(fem, "ERROR_BLOCK", block)
    assert mesh.num_cells % block != 0
    calls_seen.clear()
    eta = residual_estimate(u, f, g)
    assert calls_seen == calls
    assert np.array_equal(eta.values, want.values)


def test_zz_requires_degree_one():
    mesh = unit_square_mesh(2)
    space = FunctionSpace(mesh, 2)
    u = interpolate(lambda x, y: x * y, space)
    with pytest.raises(ValueError, match="degree-1"):
        zz_estimate(u)


def test_zz_zero_for_linear_solution():
    mesh = criss_cross_square()
    space = FunctionSpace(mesh, 1)
    u = interpolate(lambda x, y: 3.0 * x - y + 0.5, space)
    eta = zz_estimate(u)
    assert eta.global_value < 1e-12


def test_zz_patch_average_oracle():
    """Recompute the recovery by hand: vertex values are area-weighted
    means of incident cell gradients, and the indicator is the exact L2
    distance between the recovered field and the raw gradient."""
    mesh = criss_cross_square()
    space = FunctionSpace(mesh, 1)
    u = FEFunction(space, np.array([0.0, 1.0, 0.5, -0.25, 0.3]))

    # per-cell constant gradients of the P1 field
    det, inv = mesh.det, mesh.inv
    ref_grad = space.element.tabulate_grad(np.array([[1 / 3, 1 / 3]]))[0]
    grads = np.einsum("ci,cst,is->ct", u.cell_coeffs(), inv, ref_grad)

    areas = 0.5 * mesh.det
    recovered = np.zeros((mesh.num_vertices, 2))
    for v in range(mesh.num_vertices):
        patch = [c for c in range(mesh.num_cells) if v in mesh.cells[c]]
        w = areas[patch]
        recovered[v] = (w[:, None] * grads[patch]).sum(axis=0) / w.sum()

    # exact integral of the squared linear difference field via quadrature
    pts, wts = quad.triangle_rule(4)
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts[:, 0], pts[:, 1]])
    oracle = np.zeros(mesh.num_cells)
    for c in range(mesh.num_cells):
        nodal = recovered[mesh.cells[c]] - grads[c]  # (3, 2)
        field = lam @ nodal  # (nq, 2)
        oracle[c] = np.sqrt(((field**2).sum(axis=1) * wts).sum() * det[c])

    eta = zz_estimate(u)
    assert np.abs(eta.values - oracle).max() < 1e-13
    assert eta.global_value > 0.0


def _zz_meshes():
    """Meshes whose cells all have different Jacobians (jittered, with
    random vertex rotations and detached cells), and a locally refined
    mixed L-shape."""
    mixed = lshaped_mixed().mesh
    mixed = refine(mixed, np.arange(0, mixed.num_cells, 3))
    return {"jittered": jittered_square(8, seed=4), "random-tags": randomly_tagged_mesh(4, seed=1),
            "lshaped-mixed": refine(mixed, np.arange(0, mixed.num_cells, 2))}


ZZ_MESHES = _zz_meshes()


@pytest.mark.parametrize("name", sorted(ZZ_MESHES))
def test_zz_matches_einsum_recovery(name):
    """``cell_gradients``, ``bincount`` and the closed-form mass give the
    indicators of the einsum gradients, ``np.add.at`` sums and the 3x3 P1
    mass matrix, up to rounding."""
    mesh = ZZ_MESHES[name]
    space = FunctionSpace(mesh, 1)
    u = FEFunction(space, np.random.default_rng(7).standard_normal(space.num_dofs))
    oracle = zz_mass_form(mesh, *zz_recovery(u))
    got = zz_estimate(u).values
    assert np.abs(got - oracle).max() <= 1e-14 * oracle.max()


@pytest.mark.parametrize("name", sorted(ZZ_MESHES))
def test_zz_bincount_recovery_matches_add_at(name):
    """The recovered field is bitwise the ``np.add.at`` one: with the same
    cell gradients, the ``np.add.at`` sums and the closed-form mass give
    the indicators bit for bit."""
    mesh = ZZ_MESHES[name]
    space = FunctionSpace(mesh, 1)
    u = FEFunction(space, np.random.default_rng(8).standard_normal(space.num_dofs))
    ref_grad = space.element.tabulate_grad(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    grads = fem.cell_gradients(u.cell_coeffs(), ref_grad, mesh.inv)[:, 0]
    grads, recovered = zz_recovery(u, grads)
    diff = recovered[mesh.cells] - grads[:, None, :]
    total = diff.sum(axis=1)
    eta2 = 0.5 * mesh.det * (np.einsum("ct,ct->c", total, total)
                         + np.einsum("cjt,cjt->c", diff, diff)) / 12.0
    assert np.array_equal(zz_estimate(u).values, np.sqrt(eta2))


# ---------------------------------------------------------------------------
# shared invariances
# ---------------------------------------------------------------------------


def _permuted(mesh, order):
    return Mesh(
        mesh.vertices.copy(),
        mesh.cells[order].copy(),
        boundary={tuple(mesh.facets[f]): DIRICHLET for f in mesh.boundary_facets()},
    )


def test_estimators_invariant_under_cell_permutation():
    """Renumbering cells permutes the indicators and nothing else; in
    particular the interior-facet owner convention must not leak into
    the values."""
    mesh = criss_cross_square()
    order = np.array([2, 0, 3, 1])
    permuted = _permuted(mesh, order)

    fn = lambda x, y: x * x + 0.5 * y
    f = lambda x, y: np.ones_like(x)
    u1 = interpolate(fn, FunctionSpace(mesh, 1))
    u2 = interpolate(fn, FunctionSpace(permuted, 1))

    res1 = residual_estimate(u1, f).values
    res2 = residual_estimate(u2, f).values
    assert np.abs(res2 - res1[order]).max() < 1e-12

    zz1 = zz_estimate(u1).values
    zz2 = zz_estimate(u2).values
    assert np.abs(zz2 - zz1[order]).max() < 1e-12


def test_estimators_scale_linearly_with_data():
    def tagger(x, y):
        return np.where(np.isclose(x, 1.0), NEUMANN, DIRICHLET)

    mesh = tagged_unit_square(3, tagger)
    f = lambda x, y: np.sin(2.0 * x) - y
    g = lambda x, y: 0.5 + y * y
    u_d = lambda x, y: x * (1.0 + y)

    scale = 4.0
    fs = lambda x, y: scale * f(x, y)
    gs = lambda x, y: scale * g(x, y)
    us = lambda x, y: scale * u_d(x, y)

    u1 = solve_poisson(mesh, 1, f=f, u_dirichlet=u_d, g=g)
    u2 = solve_poisson(mesh, 1, f=fs, u_dirichlet=us, g=gs)

    res1 = residual_estimate(u1, f, g=g).values
    res2 = residual_estimate(u2, fs, g=gs).values
    assert np.abs(res2 - scale * res1).max() < 1e-10

    zz1 = zz_estimate(u1).values
    zz2 = zz_estimate(u2).values
    assert np.abs(zz2 - scale * zz1).max() < 1e-10
