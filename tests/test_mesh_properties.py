"""Property tests of bisection refinement on random markings of the seed
meshes: conservation, tag inheritance, connectivity against the
``np.unique(axis=0)`` reference and nestedness; of each mesh's geometry
record; and of Dörfler marking on random indicator fields."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afem2d.element import EDGE_VERTICES
from afem2d.mesh import (
    DIRICHLET, INTERIOR, NEUMANN, NonManifoldError, build_connectivity, mark_dorfler, refine,
    uniform_refine,
)
from afem2d.problems import make_problem
from helpers import (
    argsort_dorfler, assert_bitwise, jittered_square, randomly_tagged_mesh,
    unique_rows_connectivity,
)

SEED_MESHES = {
    name: make_problem(name).mesh for name in ("lshaped", "lshaped-mixed", "boundary-sing")
}


def boundary_length(mesh):
    return mesh.facet_lengths()[mesh.boundary_facets()].sum()


def assert_tags_inherited(parent, child):
    """Each child boundary facet lies on the parent boundary facet that
    contains its midpoint, and carries that facet's tag."""
    pb, cb = parent.boundary_facets(), child.boundary_facets()
    a, b = (parent.vertices[parent.facets[pb, i]] for i in (0, 1))
    mids = child.vertices[child.facets[cb]].mean(axis=1)
    e, r = b - a, mids[:, None, :] - a
    cross = e[:, 0] * r[..., 1] - e[:, 1] * r[..., 0]
    along = np.einsum("ft,cft->cf", e, r) / np.einsum("ft,ft->f", e, e)
    on = (np.abs(cross) <= 1e-12) & (along > 0.0) & (along < 1.0)
    assert (on.sum(axis=1) == 1).all()
    assert (child.facet_tags[cb] == parent.facet_tags[pb[on.argmax(axis=1)]]).all()


def assert_connectivity(mesh):
    got = (mesh.facets, mesh.facet_cells, mesh.cell_facets, mesh.facet_lanes)
    for have, want in zip(got, unique_rows_connectivity(mesh.cells)):
        assert have.dtype == want.dtype and np.array_equal(have, want)
    lanes, facets = mesh.facet_lanes, np.arange(len(mesh.facets))
    owner, neighbour = mesh.facet_cells.T
    assert (mesh.cell_facets[owner, lanes[:, 0]] == facets).all()
    inner = neighbour >= 0
    assert (mesh.cell_facets[neighbour[inner], lanes[inner, 1]] == facets[inner]).all()
    assert (lanes[~inner, 1] == -1).all()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SEED_MESHES)), rounds=st.integers(1, 3), data=st.data())
def test_random_refinement_invariants(name, rounds, data):
    mesh = SEED_MESHES[name]
    area, length = 0.5 * mesh.det.sum(), boundary_length(mesh)
    assert_connectivity(mesh)
    for _ in range(rounds):
        n = mesh.num_cells
        marked = data.draw(st.sets(st.integers(0, n - 1), min_size=n // 8, max_size=n // 3))
        fine = refine(mesh, sorted(marked))
        assert abs(0.5 * fine.det.sum() - area) <= 1e-12 * area
        # A hanging vertex would leave both halves and the unsplit edge on the boundary.
        assert abs(boundary_length(fine) - length) <= 1e-12 * length
        assert_tags_inherited(mesh, fine)
        assert_connectivity(fine)
        mesh = fine


def reversed_ties(a):
    """An unstable argsort's legal answer: sorted by value, equal values in
    reversed position order."""
    return np.lexsort((-np.arange(len(a)), a))


CONNECTIVITY_MESHES = [
    refine(SEED_MESHES["lshaped"], np.arange(0, 96, 3)),
    jittered_square(6, seed=3),
]
CONNECTIVITY_IDS = ["refined-lshaped", "jittered-square"]
# Vertex indices this large push lo * n + hi past what the packed sort
# can hold beside the entry bits, with no array of that many vertices.
FAR = 2**30


def argsort_calls(monkeypatch, sorter):
    """Route plain ``np.argsort(a)`` calls through ``sorter``; returns the
    list of their lengths, filled as calls come."""
    argsort, calls = np.argsort, []

    def patched(a, *args, **kwargs):
        if args or kwargs:
            return argsort(a, *args, **kwargs)
        calls.append(len(a))
        return sorter(a)

    monkeypatch.setattr(np, "argsort", patched)
    return calls


@pytest.mark.parametrize("mesh", CONNECTIVITY_MESHES, ids=CONNECTIVITY_IDS)
def test_packed_connectivity_makes_no_argsort(monkeypatch, mesh):
    """Mesh-sized indices take the packed sort, which has no ties to order."""
    calls = argsort_calls(monkeypatch, reversed_ties)
    got = build_connectivity(mesh.cells)
    monkeypatch.undo()
    assert calls == []
    for have, want in zip(got, unique_rows_connectivity(mesh.cells)):
        assert have.dtype == want.dtype and np.array_equal(have, want)


@pytest.mark.parametrize("sorter", [np.argsort, reversed_ties], ids=["argsort", "reversed-ties"])
@pytest.mark.parametrize("mesh", CONNECTIVITY_MESHES, ids=CONNECTIVITY_IDS)
def test_argsort_fallback_matches_the_packed_sort(monkeypatch, mesh, sorter):
    """Indices offset by 2**30 take the argsort fallback, which gives the
    packed sort's arrays (facets offset alike) in either tie order."""
    assert reversed_ties(np.array([1, 0, 1])).tolist() == [1, 2, 0]
    packed = build_connectivity(mesh.cells)
    far = mesh.cells + FAR
    calls = argsort_calls(monkeypatch, sorter)
    got = build_connectivity(far)
    monkeypatch.undo()
    assert calls == [3 * mesh.num_cells]
    facets, *rest = got
    assert np.array_equal(facets, packed[0] + FAR)
    for have, want in zip(rest, packed[1:]):
        assert have.dtype == want.dtype and np.array_equal(have, want)
    for have, want in zip(got, unique_rows_connectivity(far)):
        assert have.dtype == want.dtype and np.array_equal(have, want)


@pytest.mark.parametrize("cells, fault", [
    ([[0, 1, 2], [1, 0, 3], [0, 1, 4]], "is shared by more than two cells"),
    ([[0, 1, 2], [0, 1, 3]], "is traversed twice in one direction"),
], ids=["three-cells", "same-side"])
def test_argsort_fallback_refuses_non_manifold_facets(cells, fault):
    """The packed sort's refusals are tested through ``Mesh`` in test_mesh."""
    with pytest.raises(NonManifoldError, match=rf"facet \({FAR}, {FAR + 1}\) {fault}"):
        build_connectivity(np.array(cells) + FAR)


@st.composite
def meshes(draw):
    """A jittered square, or a seed mesh after random bisection rounds."""
    if draw(st.booleans()):
        return jittered_square(draw(st.integers(2, 8)), draw(st.integers(0, 2**16)))
    mesh = SEED_MESHES[draw(st.sampled_from(sorted(SEED_MESHES)))]
    for _ in range(draw(st.integers(1, 3))):
        n = mesh.num_cells
        mesh = refine(mesh, sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                                 max_size=n // 3))))
    return mesh


@settings(max_examples=30, deadline=None)
@given(mesh=meshes())
@example(mesh=jittered_square(64, 7))  # 8,192 cells, all with different Jacobians
def test_geometry_record(mesh):
    v = mesh.vertices[mesh.cells]
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    assert np.array_equal(mesh.jac, np.stack([d1, d2], axis=-1))
    assert np.array_equal(mesh.det, d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert "areas" not in vars(mesh)  # no stored (nc,) copy of det / 2
    assert np.abs(mesh.inv @ mesh.jac - np.eye(2)).max() <= 1e-12
    # G_c = det J^-1 J^-T entrywise from J^-1 = [[a, b], [c, d]], with one
    # off-diagonal, so the metric is symmetric to the bit.
    det, (a, b, c, d) = mesh.det, mesh.inv.reshape(-1, 4).T
    off = det * (a * c + b * d)
    assert_bitwise(mesh.metric, np.column_stack([det * (a * a + b * b), off, off,
                                                 det * (c * c + d * d)]))
    assert np.array_equal(mesh.metric[:, 1], mesh.metric[:, 2])
    # Within 4e-16 of det inv inv^T formed in extended precision, relative
    # to each cell's |G_c|_F (about 3 roundings of the formula).
    inv = mesh.inv.astype(np.longdouble)
    exact = (det.astype(np.longdouble)[:, None, None] * inv @ inv.transpose(0, 2, 1))
    exact = exact.reshape(-1, 4)
    scale = np.sqrt((exact**2).sum(axis=1))
    assert (np.abs(mesh.metric - exact).max(axis=1) <= 4e-16 * scale).all()
    assert np.array_equal(mesh.lane_lengths, mesh.facet_lengths()[mesh.cell_facets].T)

    normals = mesh.lane_normals
    lane = np.stack([v[:, b] - v[:, a] for a, b in EDGE_VERTICES])
    lengths = np.hypot(lane[..., 0], lane[..., 1])
    outward = np.stack([lane[..., 1], -lane[..., 0]], axis=-1)
    assert np.array_equal(normals, outward / lengths[..., None])
    assert np.abs(np.hypot(normals[..., 0], normals[..., 1]) - 1.0).max() <= 1e-15
    mids = np.stack([v[:, list(ends)].mean(axis=1) for ends in EDGE_VERTICES])
    inward = v.mean(axis=1) - mids
    assert (np.einsum("lcd,lcd->lc", normals, inward) < 0).all()
    # facet_traces' jump takes the two sides' outward normals as exact negatives.
    inner = mesh.facet_cells[:, 1] >= 0
    (c0, c1), (l0, l1) = mesh.facet_cells[inner].T, mesh.facet_lanes[inner].T
    assert np.array_equal(normals[l0, c0], -normals[l1, c1])


@pytest.mark.parametrize("name", ["lshaped", "boundary-sing"])
def test_metric_keeps_the_matmul_bits_on_dyadic_meshes(name):
    """On the uniformly refined seed meshes every entry of J^-1 is zero or
    a power of two, so every product of the metric formula is exact and it
    has the bits of the stacked matmul det * (inv @ inv^T), which the
    seed-0 traces were made with, but for the sign of a zero off-diagonal:
    the formula adds two -0 products to -0 where a sum started from +0, as
    the matmul's, gives +0.  Adding 0.0 maps -0 to +0 and keeps every other
    bit."""
    mesh = uniform_refine(SEED_MESHES[name], 3)
    inv = mesh.inv
    want = (mesh.det[:, None, None] * np.matmul(inv, inv.transpose(0, 2, 1))).reshape(-1, 4)
    assert_bitwise(mesh.metric + 0.0, want + 0.0)


def test_jacobians_are_formed_on_first_read():
    """``affine`` and ``jac`` are not stored by the constructor; the first
    read of either forms the rows [J_i0, J_i1, v0_i] of ``affine``, bitwise
    the columns v1 - v0 and v2 - v0 and the vertex v0, and keeps both, with
    ``jac`` a view of ``affine``."""
    for first in ("jac", "affine"):
        mesh = refine(jittered_square(6, seed=5), [0, 7, 30])
        assert "jac" not in vars(mesh) and "affine" not in vars(mesh)
        getattr(mesh, first)
        assert "affine" in vars(mesh)
        v = mesh.vertices[mesh.cells]
        want = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        assert_bitwise(mesh.jac, want)
        rows = np.concatenate([want, v[:, :1].transpose(0, 2, 1)], axis=-1)
        assert_bitwise(mesh.affine, rows.transpose(1, 0, 2))
        assert vars(mesh)["jac"] is mesh.jac and vars(mesh)["affine"] is mesh.affine
        assert np.shares_memory(mesh.jac, mesh.affine)


def test_per_cell_planes_are_c_contiguous():
    """Every per-cell plane that the adaptive loop reads is C-contiguous,
    on a jittered mesh with rotated cells and random tags and on its
    refinement, so a pass over one plane reads consecutive memory."""
    mesh = randomly_tagged_mesh(5, seed=3)
    for owner in (mesh, refine(mesh, [0, 4, 9, 20])):
        planes = [owner.det, owner.lane_lengths, owner.lane_tags, *owner.facing_rows]
        planes += [owner.lane_normals[..., i] for i in (0, 1)]
        planes += [owner.inv[:, i, j] for i in (0, 1) for j in (0, 1)]
        planes += [owner.affine[i] for i in (0, 1)]
        assert all(plane.flags.c_contiguous for plane in planes)
        assert owner.lane_normals.shape == (3, owner.num_cells, 2)
        assert owner.inv.shape == owner.jac.shape == (owner.num_cells, 2, 2)


@pytest.mark.parametrize("first", ["lane_lengths", "lane_normals"])
def test_lane_geometry_is_formed_on_first_read(first):
    """``lane_lengths`` and ``lane_normals`` are not stored by the
    constructor; the first read of either forms both, bitwise the lane
    formulas of ``test_geometry_record``, keeps them and drops the lane
    difference planes they were formed from."""
    mesh = refine(jittered_square(6, seed=5), [0, 7, 30])
    assert "lane_lengths" not in vars(mesh) and "lane_normals" not in vars(mesh)
    getattr(mesh, first)
    assert "lane_lengths" in vars(mesh) and "lane_normals" in vars(mesh)
    assert "_lanes" not in vars(mesh)
    v = mesh.vertices[mesh.cells]
    lane = np.stack([v[:, b] - v[:, a] for a, b in EDGE_VERTICES])
    lengths = np.hypot(lane[..., 0], lane[..., 1])
    outward = np.stack([lane[..., 1], -lane[..., 0]], axis=-1)
    assert_bitwise(mesh.lane_lengths, lengths)
    assert_bitwise(mesh.lane_normals, outward / lengths[..., None])
    assert vars(mesh)["lane_lengths"] is mesh.lane_lengths
    assert vars(mesh)["lane_normals"] is mesh.lane_normals


@settings(max_examples=30, deadline=None)
@given(mesh=meshes(), data=st.data())
def test_refinement_is_nested(mesh, data):
    """Old vertices keep their index and coordinates, and each new vertex
    is, bitwise, the midpoint of the coarse facet named by its parents."""
    n, nv = mesh.num_cells, mesh.num_vertices
    fine = refine(mesh, sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                                  max_size=max(1, n // 3)))))
    parents = fine.parents
    assert parents.shape == (fine.num_vertices - nv, 2) and len(parents) > 0
    assert np.array_equal(fine.vertices[:nv], mesh.vertices)
    keys = mesh.facets[:, 0] * nv + mesh.facets[:, 1]
    assert np.isin(parents[:, 0] * nv + parents[:, 1], keys).all()
    assert np.array_equal(fine.vertices[nv:], mesh.vertices[parents].mean(axis=1))
    with pytest.raises(ValueError, match="read-only"):
        parents[0, 0] = 0


@pytest.mark.parametrize(
    "name", ["jac", "affine", "det", "inv", "areas", "metric", "lane_lengths", "lane_normals",
             "facets", "facet_cells", "cell_facets", "facet_lanes", "facet_tags", "lane_tags"]
)
def test_geometry_record_is_read_only(name):
    """The geometry, the connectivity and the boundary tags are frozen, on
    a constructed mesh and on one made by refine.  The lane tags are built
    on first use and are each lane's facet tag, also on a refined mesh with
    rotated cells and random tags."""
    mesh = jittered_square(3, seed=1)
    tagged = refine(randomly_tagged_mesh(3, seed=2), [0, 4, 9, 20])
    for owner in (mesh, refine(mesh, [0, 5]), tagged):
        assert "lane_tags" not in vars(owner)
        array = getattr(owner, name)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
    assert set(np.unique(tagged.lane_tags)) == {INTERIOR, DIRICHLET, NEUMANN}
    assert np.array_equal(tagged.lane_tags, tagged.facet_tags[tagged.cell_facets].T)


# Few distinct values make ties and zeros common; free floats fill the rest.
INDICATORS = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 2.0])
    | st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(values=INDICATORS, theta=st.floats(min_value=1e-9, max_value=1.0))
@example(values=[3.768384568182199e-159], theta=1e-9)  # theta * total underflows
def test_dorfler_marking_properties(values, theta):
    squares = np.asarray(values) ** 2
    marked = mark_dorfler(np.asarray(values), theta)
    assert marked.dtype == np.int64
    assert (np.diff(marked) > 0).all()
    total = math.fsum(squares)
    if total == 0.0:
        assert marked.size == 0
        return
    last = squares[marked].min()
    # Upper set: every cell at or above the last kept value, so its whole tie block.
    assert np.array_equal(marked, np.flatnonzero(squares >= last))
    # Theta of the mass, up to the marker's 1e-12 relative slack and summation order.
    assert math.fsum(squares[marked]) >= theta * total * (1.0 - 1e-11)
    # Minimal apart from the tie block: the cells strictly above it fall short.
    # Compared in exact arithmetic, since theta * total underflows to zero
    # for subnormal squares.
    above = Fraction(math.fsum(squares[squares > last]))
    assert above < Fraction(theta) * Fraction(total) * (1 + Fraction(1e-11))


def stable_dorfler(values, theta):
    """Dörfler marking by a stable argsort and the sorted prefix through
    the tied block at the cut: the formula ``mark_dorfler`` replaced."""
    squares = np.asarray(values, dtype=float) ** 2
    if squares.sum() <= 0.0:
        return np.empty(0, dtype=np.int64)
    if theta == 1.0:
        return np.flatnonzero(squares > 0.0)
    order = np.argsort(-squares, kind="stable")
    sorted_squares = squares[order]
    cumsum = np.cumsum(sorted_squares)
    cut = int(np.searchsorted(cumsum, theta * cumsum[-1] * (1.0 - 1e-12)))
    end = int(np.searchsorted(-sorted_squares, -sorted_squares[cut], side="right"))
    return np.sort(order[:end])


@st.composite
def tied_fields(draw):
    """Fields drawn from a few distinct values, so most values are tied,
    with a free tail; long enough for NumPy's unstable argsort to reorder ties."""
    levels = draw(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                           min_size=1, max_size=4))
    n = draw(st.integers(1, 400))
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=n, max_size=n))
    tail = draw(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                         max_size=20))
    return np.array([levels[i] for i in picks] + tail)


@settings(max_examples=200, deadline=None)
@given(values=tied_fields(), theta=st.floats(min_value=1e-9, max_value=1.0))
@example(values=np.tile([2.0, 1.0, 0.0], 300), theta=0.3)
def test_dorfler_marking_matches_the_stable_sort_formula(values, theta):
    marked = mark_dorfler(values, theta)
    assert marked.dtype == np.int64
    assert np.array_equal(marked, stable_dorfler(values, theta))


# Plain thetas, thetas within 1e-9 of 1 and theta = 1 itself.
THETAS = (st.floats(min_value=1e-9, max_value=1.0)
          | st.floats(min_value=1 - 1e-9, max_value=1.0) | st.just(1.0))


@settings(max_examples=300, deadline=None)
@given(values=INDICATORS | tied_fields(), theta=THETAS)
@example(values=np.tile([2.0, 1.0, 0.0], 300), theta=0.3)  # the cut inside a tied block
@example(values=np.tile([2.0, 1.0, 0.5], 300), theta=1 - 1e-13)
@example(values=np.round(np.random.default_rng(0).random(70_000), 3), theta=0.5)
def test_dorfler_marking_matches_the_argsort_oracle(values, theta):
    """Sorting the squares alone marks the set that ordering them by an
    index argsort marked: the tie rule does not see how ties are sorted."""
    marked = mark_dorfler(np.asarray(values), theta)
    assert marked.dtype == np.int64
    assert np.array_equal(marked, argsort_dorfler(values, theta))


@pytest.mark.parametrize("n", [1, 7])
def test_dorfler_zero_field_marks_nothing(n):
    for theta in (1e-3, 0.5, 1.0):
        marked = mark_dorfler(np.zeros(n), theta)
        assert marked.dtype == np.int64 and marked.size == 0
