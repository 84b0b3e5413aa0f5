"""Property tests of ``GoalSpec.support_cells`` on jittered, adaptively
refined L-shape meshes: the goal density is exactly zero at every
quadrature point of every cell it leaves out, and the load, the
Bank-Weiser local loads, the residual indicators and the goal value
formed on the support only are bitwise those formed on every cell."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afem2d import bank_weiser as bw
from afem2d import fem
from afem2d import quadrature as quad
from afem2d.adapt import evaluate_goal
from afem2d.estimators import residual_estimate
from afem2d.mesh import Mesh, refine
from afem2d.problems import GoalSpec, lshaped_mesh
from helpers import assert_bitwise

BASE = lshaped_mesh(2)


def refined_lshape(seed, rounds):
    """The L-shape with its interior vertices jittered by up to a tenth of
    the mesh width, then ``rounds`` refinements of random quarters of the
    cells and of every cell whose centroid lies within 0.3 of (0.2, 0.2)."""
    rng = np.random.default_rng(seed)
    fixed = np.zeros(BASE.num_vertices, dtype=bool)
    fixed[BASE.facets[BASE.boundary_facets()].ravel()] = True
    vertices = BASE.vertices.copy()
    shift = rng.uniform(-0.05, 0.05, size=vertices.shape)
    vertices[~fixed] += shift[~fixed]
    mesh = Mesh(vertices, BASE.cells)
    for _ in range(rounds):
        centroids = mesh.vertices[mesh.cells].mean(axis=1)
        near = np.hypot(centroids[:, 0] - 0.2, centroids[:, 1] - 0.2) < 0.3
        some = rng.random(mesh.num_cells) < 0.25
        mesh = refine(mesh, np.flatnonzero(near | some))
    return mesh


@settings(max_examples=40, deadline=None)
@given(
    eps=st.floats(0.005, 1.5),
    xbar=st.floats(-1.5, 1.5),
    ybar=st.floats(-1.5, 1.5),
    seed=st.integers(0, 2**16),
    rounds=st.integers(0, 3),
    degree=st.sampled_from([1, 2]),
    block=st.sampled_from([1, 2, 3, 16, fem.ERROR_BLOCK]),
)
@example(eps=0.35, xbar=0.2, ybar=0.2, seed=0, rounds=2, degree=1, block=16)  # holds the corner
@example(eps=0.3, xbar=0.9, ybar=-0.4, seed=1, rounds=2, degree=2, block=3)  # crosses x = 1
@example(eps=0.3, xbar=-0.5, ybar=-0.5, seed=2, rounds=1, degree=1, block=2)  # in the notch
@example(eps=0.4, xbar=2.0, ybar=0.0, seed=3, rounds=1, degree=2, block=16)  # misses the domain
@example(eps=0.01, xbar=0.31, ybar=0.17, seed=4, rounds=3, degree=1, block=2)  # inside one cell
def test_support_cells_drop_only_zeros_and_keep_every_bit(
    eps, xbar, ybar, seed, rounds, degree, block
):
    spec = GoalSpec(eps=eps, xbar=xbar, ybar=ybar)
    mesh = refined_lshape(seed, rounds)
    support = spec.support_cells(mesh)
    assert np.array_equal(support, np.unique(support))
    left_out = np.setdiff1d(np.arange(mesh.num_cells), support)
    for order in (3, 5, 8):
        pts, _ = quad.triangle_rule(order)
        x = fem.physical_points(mesh, pts, left_out)
        assert (spec.c(x[..., 0], x[..., 1]) == 0.0).all()

    # The plain method has no support_cells, so it takes every cell.
    space = fem.FunctionSpace(mesh, degree)
    u = fem.FEFunction(space, np.random.default_rng(seed).standard_normal(space.num_dofs))
    kind = (degree + 2, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fem, "ERROR_BLOCK", block)
        assert_bitwise(fem.assemble_load(space, spec), fem.assemble_load(space, spec.c))
        assert_bitwise(bw.local_system(u, spec, None, kind), bw.local_system(u, spec.c, None, kind))
        assert_bitwise(residual_estimate(u, spec, None).values,
                       residual_estimate(u, spec.c, None).values)
        assert_bitwise(np.float64(evaluate_goal(u, spec)), np.float64(evaluate_goal(u, spec.c)))


def test_support_cells_of_the_default_goal_on_a_fine_mesh():
    """On the goal problem's uniformly refined mesh the support leaves out
    most cells, and the cells it keeps are those whose circumscribing disk
    about the centroid meets the support disk."""
    spec = GoalSpec()
    mesh = lshaped_mesh(5)
    support = spec.support_cells(mesh)
    assert 0 < len(support) < mesh.num_cells / 2
    corners = mesh.vertices[mesh.cells]
    centroid = corners.mean(axis=1)
    radius = np.linalg.norm(corners - centroid[:, None], axis=2).max(axis=1)
    dist = np.linalg.norm(centroid - [spec.xbar, spec.ybar], axis=1)
    clear = np.abs(dist - radius - spec.eps) > 1e-6
    kept = np.zeros(mesh.num_cells, dtype=bool)
    kept[support] = True
    assert np.array_equal(kept[clear], (dist - radius < spec.eps)[clear])
