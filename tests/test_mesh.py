"""Mesh topology, marking strategies, bisection refinement, and ASCII I/O."""

import numpy as np
import pytest

from afem2d import mesh as m
from afem2d.problems import make_problem
from helpers import assert_conforming, criss_cross_square, two_cell_square, unit_triangle_mesh


# ---------------------------------------------------------------- topology


def test_criss_cross_counts_and_tags():
    mm = criss_cross_square()
    assert mm.num_vertices == 5 and mm.num_cells == 4
    assert len(mm.facets) == 8
    assert int(np.sum(mm.facet_tags == m.INTERIOR)) == 4
    assert int(np.sum(mm.facet_tags == m.DIRICHLET)) == 4
    assert np.allclose(0.5 * mm.det, 0.25)
    assert np.allclose(mm.min_angle(), np.pi / 4)


def test_owner_is_lower_cell_index():
    mm = criss_cross_square()
    inner = mm.facet_cells[mm.facet_cells[:, 1] >= 0]
    assert np.all(inner[:, 0] < inner[:, 1])


def test_clockwise_cell_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        m.Mesh(vertices, np.array([[0, 2, 1]]))


def test_non_manifold_edge_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [1.5, 0.5]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])  # (0,1) used three times
    with pytest.raises(m.NonManifoldError, match=r"facet \(0, 1\) is shared"):
        m.Mesh(vertices, cells)


@pytest.mark.parametrize(
    "cells",
    [[[0, 1, 2], [0, 1, 2]], [[0, 1, 2], [0, 1, 3]], [[2, 0, 1], [0, 1, 2]]],
    ids=["duplicated-cell", "same-side", "duplicated-rotated"],
)
def test_facet_traversed_twice_in_one_direction_rejected(cells):
    """Two counterclockwise cells on one side of a shared facet traverse
    it in the same direction; the facet traces would read the neighbour's
    lane backwards, so the mesh is refused."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(m.NonManifoldError, match="traversed twice in one direction"):
        m.Mesh(vertices, np.array(cells))


def test_vertex_index_out_of_range_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        m.Mesh(vertices, np.array([[0, 1, 3]]))


def test_negative_vertex_index_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="out of range"):
        m.Mesh(vertices, np.array([[0, 1, -1]]))


@pytest.mark.parametrize("corner", [[np.nan, 1.0], [0.0, np.inf], [-np.inf, 1.0]],
                         ids=["nan", "inf", "minus-inf"])
def test_non_finite_vertices_rejected(corner):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], corner])
    with pytest.raises(ValueError, match="finite"):
        m.Mesh(vertices, np.array([[0, 1, 2]]))


def test_boundary_dict_rejects_out_of_range_vertex():
    # 0 * 4 + 6 == 1 * 4 + 2 and -1 * 4 + 7 == 0 * 4 + 3: unchecked keys
    # would retag facets (1, 2) and (0, 3).
    tags = {(0, 1): m.DIRICHLET, (1, 2): m.DIRICHLET, (2, 3): m.DIRICHLET,
            (0, 3): m.DIRICHLET}
    with pytest.raises(ValueError, match=r"no facet with vertices \(0, 6\)"):
        two_cell_square(boundary={**tags, (0, 6): m.NEUMANN})
    with pytest.raises(ValueError, match=r"no facet with vertices \(-1, 7\)"):
        two_cell_square(boundary={**tags, (-1, 7): m.NEUMANN})


def test_facet_lookup_on_a_mesh_without_facets():
    with pytest.raises(ValueError, match=r"no facet with vertices \(0, 1\)"):
        m.Mesh(np.zeros((0, 2)), np.zeros((0, 3), int), boundary={(0, 1): m.DIRICHLET})
    empty = m.Mesh(np.zeros((0, 2)), np.zeros((0, 3), int))
    with pytest.raises(ValueError, match=r"no facet with vertices \(0, 1\)"):
        empty._facet_index(0, 1)


def test_boundary_callable_tagging():
    def sides(x, y):
        return np.where(y < 0.25, m.NEUMANN, m.DIRICHLET)

    mm = two_cell_square(boundary=sides)
    bottom = mm._facet_index(0, 1)
    assert mm.facet_tags[bottom] == m.NEUMANN
    others = [mm._facet_index(1, 2), mm._facet_index(2, 3), mm._facet_index(0, 3)]
    assert all(mm.facet_tags[f] == m.DIRICHLET for f in others)


def test_boundary_dict_tagging_and_errors():
    mm = two_cell_square(boundary={(0, 1): m.NEUMANN, (1, 2): m.DIRICHLET,
                                   (2, 3): m.DIRICHLET, (0, 3): m.DIRICHLET})
    assert mm.facet_tags[mm._facet_index(0, 1)] == m.NEUMANN
    with pytest.raises(ValueError):  # (0, 2) is the interior diagonal
        two_cell_square(boundary={(0, 2): m.DIRICHLET})
    with pytest.raises(ValueError):  # missing tags on the other facets
        two_cell_square(boundary={(0, 1): m.NEUMANN})
    with pytest.raises(ValueError, match=r"no facet with vertices \(1, 3\)"):
        two_cell_square(boundary={(0, 1): m.NEUMANN, (3, 1): m.DIRICHLET})


def test_boundary_pair_arrays_tag_like_the_dict():
    tags = {(0, 1): m.NEUMANN, (2, 1): m.DIRICHLET, (2, 3): m.NEUMANN, (0, 3): m.DIRICHLET}
    want = two_cell_square(boundary=tags).facet_tags
    pairs, values = np.array(list(tags)), np.array(list(tags.values()), dtype=np.int8)
    assert np.array_equal(two_cell_square(boundary=(pairs, values)).facet_tags, want)


def test_geometry_queries():
    mm = unit_triangle_mesh()
    assert np.allclose(mm.facet_lengths(), [1.0, 1.0, np.sqrt(2.0)])
    assert np.allclose(mm.cell_diameters(), [np.sqrt(2.0)])
    assert np.allclose(mm.boundary_facets(), [0, 1, 2])


def test_immutability():
    mm = criss_cross_square()
    with pytest.raises(ValueError):
        mm.vertices[0, 0] = 9.0
    with pytest.raises(ValueError):
        mm.cells[0, 0] = 3


# ------------------------------------------------------------- indicators


def test_indicator_field_validation():
    field = m.IndicatorField(np.array([3.0, 4.0]))
    assert abs(field.global_value - 5.0) < 1e-15
    assert len(field) == 2
    with pytest.raises(ValueError):
        m.IndicatorField(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        m.IndicatorField(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        m.IndicatorField(np.ones((2, 2)))


# ---------------------------------------------------------------- marking


def test_mark_maximum_examples():
    assert m.mark_maximum(np.array([4.0, 2.0, 1.0, 3.0]), 1.0).tolist() == [0]
    assert m.mark_maximum(np.array([4.0, 2.0, 1.0, 3.0]), 0.5).tolist() == [0, 1, 3]
    assert m.mark_maximum(np.array([5.0, 5.0]), 1.0).tolist() == [0, 1]
    assert m.mark_maximum(np.zeros(3), 0.5).size == 0


def test_mark_dorfler_examples():
    assert m.mark_dorfler(np.array([3.0, 1.0, 1.0, 1.0]), 0.5).tolist() == [0]
    assert m.mark_dorfler(np.array([2.0, 2.0, 1.0]), 0.6).tolist() == [0, 1]
    # theta = 1 keeps every nonzero cell and drops exact zeros
    assert m.mark_dorfler(np.array([1.0, 0.0, 2.0]), 1.0).tolist() == [0, 2]
    assert m.mark_dorfler(np.zeros(4), 0.9).size == 0


@pytest.mark.parametrize("values", [[np.nan, 1.0], [np.inf, 1.0], [-3.0, 1.0], [[1.0, 2.0]]],
                         ids=["nan", "inf", "negative", "2d"])
def test_marking_checks_raw_arrays(values):
    """A raw array gets the checks of IndicatorField before anything is marked."""
    with pytest.raises(ValueError, match="indicator"):
        m.mark_dorfler(np.array(values), 0.5)
    with pytest.raises(ValueError, match="indicator"):
        m.mark_maximum(np.array(values), 0.5)


def test_mark_dorfler_theta_one_stays_in_bounds():
    """theta = 1 keeps every nonzero cell, and theta just below 1 cuts
    inside the sorted indicators, even where the running sum of the squares
    ends below their pairwise sum."""
    tiny_tail = np.sqrt(np.r_[1.0, np.full(20_000, 1e-16)])
    near_equal = np.full(10**6, np.sqrt(0.3))
    for values in (tiny_tail, near_equal):
        squares = values**2
        assert np.cumsum(squares)[-1] < squares.sum() * (1.0 - 1e-12)
    # The tail adds nothing to the running sum, yet theta = 1 keeps it all.
    assert np.array_equal(m.mark_dorfler(tiny_tail, 1.0), np.arange(20_001))
    assert np.array_equal(m.mark_dorfler(near_equal, 1.0), np.arange(10**6))
    below_one = np.nextafter(1.0, 0.0)
    assert m.mark_dorfler(tiny_tail, below_one).tolist() == [0]
    assert np.array_equal(m.mark_dorfler(near_equal, below_one), np.arange(10**6))


def test_mark_dorfler_tie_block_kept():
    marked = m.mark_dorfler(np.array([2.0, 1.0, 2.0, 0.5]), 0.4)
    assert marked.tolist() == [0, 2]  # one value-2 cell suffices, tie kept


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.5])
def test_marking_theta_validation(theta):
    with pytest.raises(ValueError):
        m.mark_maximum(np.array([1.0]), theta)
    with pytest.raises(ValueError):
        m.mark_dorfler(np.array([1.0]), theta)


def test_marking_scale_invariance():
    rng = np.random.default_rng(7)
    values = rng.random(40)
    for theta in (0.2, 0.5, 0.9):
        a = m.mark_dorfler(values, theta)
        b = m.mark_dorfler(123.456 * values, theta)
        assert np.array_equal(a, b)
        c = m.mark_maximum(values, theta)
        d = m.mark_maximum(123.456 * values, theta)
        assert np.array_equal(c, d)


def test_mark_dorfler_minimality_small_fields():
    # exhaustive check over every subset, bitmask enumeration
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 13))
        values = rng.random(n)
        theta = float(rng.uniform(0.2, 0.95))
        squares = values**2
        total = squares.sum()
        masks = np.arange(1, 2**n)
        bits = (masks[:, None] >> np.arange(n)) & 1
        sums = bits @ squares
        feasible = sums >= theta * total
        min_card = bits[feasible].sum(axis=1).min()
        marked = m.mark_dorfler(values, theta)
        assert squares[marked].sum() >= theta * total * (1 - 1e-12)
        assert len(marked) == min_card


# ------------------------------------------------------------- refinement


def test_orient_longest_edge():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for cells in ([[0, 1, 2]], [[1, 2, 0]], [[2, 0, 1]]):
        out = m.orient_longest_edge(vertices, np.array(cells))
        assert out.tolist() == [[0, 1, 2]]  # hypotenuse opposite vertex 0


def test_refine_all_two_cell_square():
    mm = two_cell_square()
    fine = m.refine(mm, np.arange(2))
    assert fine.num_cells == 8
    assert abs(0.5 * fine.det.sum() - 1.0) < 1e-12
    assert_conforming(fine)
    assert np.all(fine.facet_tags[fine.boundary_facets()] == m.DIRICHLET)


def test_refine_single_cell_triggers_closure():
    mm = two_cell_square()
    fine = m.refine(mm, np.array([0]))
    # marked parent -> 4 children, neighbor splits its refinement edge -> 2
    assert fine.num_cells == 6
    assert abs(0.5 * fine.det.sum() - 1.0) < 1e-12
    assert_conforming(fine)


def test_refine_empty_returns_same_object():
    mm = two_cell_square()
    assert m.refine(mm, np.array([], dtype=int)) is mm
    assert m.refine(mm, []) is mm  # an empty list arrives as float64


@pytest.mark.parametrize("marked", [[True, False, True], [0.7, 2.2], np.array([0.0, 1.0])],
                         ids=["bool-mask", "float", "integral-float"])
def test_refine_rejects_non_integer_marks(marked):
    """A mask or float indices would be cast to other cells, so they raise."""
    mm = make_problem("lshaped").mesh
    with pytest.raises(TypeError, match="integer"):
        m.refine(mm, marked)


def test_refine_bad_index():
    mm = two_cell_square()
    with pytest.raises(IndexError):
        m.refine(mm, np.array([2]))
    with pytest.raises(IndexError):
        m.refine(mm, np.array([-1]))


def test_uniform_refine_fixed_factor_and_angles():
    mm = criss_cross_square()
    angle0 = mm.min_angle()
    for k in (1, 2, 3):
        fine = m.uniform_refine(mm, k)
        assert fine.num_cells == 4 * 4**k
        assert abs(0.5 * fine.det.sum() - 1.0) < 1e-12
        assert fine.min_angle() >= angle0 - 1e-12
        assert_conforming(fine)


def test_refined_cells_nest_inside_parents():
    mm = two_cell_square()
    fine = m.refine(mm, np.array([0, 1]))
    # children centroids stay inside the union, area halves are exact
    assert np.isclose(np.sort(fine.det)[0] * 4, 1.0)


def test_tag_inheritance_through_refinement():
    def sides(x, y):
        return np.where(y < 1e-12, m.NEUMANN, m.DIRICHLET)

    mm = two_cell_square(boundary=sides)
    fine = m.uniform_refine(mm, 2)
    for f in fine.boundary_facets():
        a, b = fine.facets[f]
        on_bottom = fine.vertices[[a, b], 1].max() < 1e-12
        want = m.NEUMANN if on_bottom else m.DIRICHLET
        assert fine.facet_tags[f] == want


def test_repeated_adaptive_refinement_stays_shape_regular():
    rng = np.random.default_rng(5)
    mm = criss_cross_square()
    for _ in range(6):
        marked = np.unique(rng.integers(0, mm.num_cells, size=max(1, mm.num_cells // 5)))
        mm = m.refine(mm, marked)
        assert_conforming(mm)
    assert abs(0.5 * mm.det.sum() - 1.0) < 1e-12
    assert mm.min_angle() > np.pi / 9  # bisection classes keep angles bounded


# --------------------------------------------------------------------- io


def test_mesh_roundtrip(tmp_path):
    def sides(x, y):
        return np.where(x > 1.0 - 1e-12, m.NEUMANN, m.DIRICHLET)

    mm = m.uniform_refine(two_cell_square(boundary=sides), 1)
    path = tmp_path / "mesh.txt"
    m.write_mesh(mm, path)
    back = m.read_mesh(path)
    assert np.allclose(back.vertices, mm.vertices)
    assert np.array_equal(back.cells, mm.cells)
    assert np.array_equal(back.facet_tags, mm.facet_tags)


def test_mesh_write_with_values(tmp_path):
    mm = two_cell_square()
    path = tmp_path / "mesh.txt"
    m.write_mesh(mm, path, vertex_values=np.arange(4.0))
    lines = path.read_text().strip().split("\n")
    nv, nc, nbf = (int(t) for t in lines[0].split())
    assert (nv, nc, nbf) == (4, 2, 4)
    assert len(lines) == 1 + nv + nc + nbf + nv
    with pytest.raises(ValueError):
        m.write_mesh(mm, path, vertex_values=np.arange(3.0))


def test_mesh_read_rejects_unknown_tag(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 D\n1 2 X\n0 2 D\n")
    with pytest.raises(ValueError):
        m.read_mesh(path)


def test_mesh_read_rejects_nan_coordinate(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("3 1 3\n0 0\n1 0\nnan 1\n0 1 2\n0 1 D\n1 2 D\n0 2 D\n")
    with pytest.raises(ValueError, match="finite"):
        m.read_mesh(path)


def test_mesh_read_rejects_out_of_range_facet_vertex(tmp_path):
    # Vertex nv + 2 = 5 keys like facet (1, 2), which would turn Neumann.
    path = tmp_path / "mesh.txt"
    path.write_text("3 1 4\n0 0\n1 0\n0 1\n0 1 2\n0 1 D\n1 2 D\n0 2 D\n0 5 N\n")
    with pytest.raises(ValueError, match=r"no facet with vertices \(0, 5\)"):
        m.read_mesh(path)


@pytest.mark.parametrize("text, message", [
    ("", "header"),
    ("3 1 3\n", "vertex section has 0 of 3 lines"),
    ("3 1 3\n0 0\n1 0\n", "vertex section has 2 of 3 lines"),
    ("3 1 3\n0 0\n1 0\n0 1\n", "cell section has 0 of 1 lines"),
    ("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 D\n1 2 D\n", "boundary facet section has 2 of 3 lines"),
    ("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 D\n1 2 D\n0", "every boundary facet line needs 3"),
    ("3 1 3\n0 0\n1 0\n0 1\n0 1\n0 1 D\n1 2 D\n0 2 D\n", "every cell line needs 3"),
], ids=["empty", "header-only", "cut-vertices", "no-cells", "cut-facets", "cut-line",
        "short-cell"])
def test_mesh_read_rejects_truncated_files(tmp_path, text, message):
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        m.read_mesh(path)
