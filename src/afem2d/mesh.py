"""Conforming triangle meshes: adjacency, marking, bisection refinement, I/O.

Cells are stored counterclockwise with the refinement edge opposite local
vertex 0, so newest-vertex bisection needs no separate per-cell state:
children are emitted with the new midpoint in slot 0, which is exactly the
newest-vertex rule.  Interior facets have a fixed owner (the incident cell
with the smaller index); all jump-orientation conventions derive from it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .element import EDGE_VERTICES, _is_real

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_TAG_FROM_CHAR = {"D": DIRICHLET, "N": NEUMANN}
_CHAR_FROM_TAG = {v: k for k, v in _TAG_FROM_CHAR.items()}
# Lane i (local edge i, opposite vertex i) runs from _LANE_ENDS[i, 0] to _LANE_ENDS[i, 1].
_LANE_ENDS = np.array(EDGE_VERTICES)
# Children of a cell by its split pattern (bit i set when lane i is split),
# in order: slot triples over (v0, v1, v2, m0, m1, m2), mi the midpoint of
# lane i.  The closure splits lane 0 whenever lane 1 or 2 is split, so no
# other pattern occurs.
_CHILDREN = {
    0: [(0, 1, 2)],
    1: [(3, 0, 1), (3, 2, 0)],
    3: [(3, 0, 1), (4, 3, 2), (4, 0, 3)],
    5: [(5, 3, 0), (5, 1, 3), (3, 2, 0)],
    7: [(5, 3, 0), (5, 1, 3), (4, 3, 2), (4, 0, 3)],
}


class NonManifoldError(ValueError):
    """Some facet is shared by more than two cells, or by two that traverse
    it in the same direction."""


def build_connectivity(cells):
    """Facet arrays for a (nc, 3) triangle array.

    A facet is identified by the 1-D key ``lo * n + hi`` of its sorted
    vertex pair, with ``n`` one more than the largest vertex index.  The
    lane entries ``3 * cell + lane`` are grouped by facet with one in-place
    ``np.sort`` of ``key << s | entry`` (``s`` the bit length of ``3 * nc``),
    which has no ties and puts a facet's entries in entry order.  Where
    ``n**2`` does not fit below ``2**(63 - s)`` (above about 10**6 vertices)
    an ``np.argsort`` of the keys groups them instead, in either tie order.

    Returns
    -------
    facets : ndarray (nf, 2)
        Sorted vertex pairs, lexicographically ordered.
    facet_cells : ndarray (nf, 2)
        Incident cells; owner first (smaller index), -1 for missing
        neighbor of boundary facets.
    cell_facets : ndarray (nc, 3)
        Facet index of local edge i (the edge opposite local vertex i).
    facet_lanes : ndarray (nf, 2)
        Local edge index of each facet in the cells of ``facet_cells``,
        -1 for a missing neighbor.
    """
    cells = np.asarray(cells, dtype=np.int64)
    n = int(cells.max(initial=0)) + 1
    # Entry 3 * cell + lane runs from a to b, lane i from vertex i + 1 to i + 2.
    a = np.concatenate((cells[:, 1:], cells[:, :1]), axis=1).reshape(-1)
    b = np.concatenate((cells[:, 2:], cells[:, :2]), axis=1).reshape(-1)
    key = np.minimum(a, b) * n
    key += np.maximum(a, b)
    shift = len(key).bit_length()
    if n * n < 1 << (63 - shift):
        key <<= shift
        key |= np.arange(len(key))
        key.sort()
        order = key & ((1 << shift) - 1)
        key >>= shift
    else:
        order = np.argsort(key)
        key = key[order]
        # Put each pair of tied entries in entry order, as the packed sort does.
        tie = np.flatnonzero(key[1:] == key[:-1])
        tie = tie[order[tie] > order[tie + 1]]
        order[tie], order[tie + 1] = order[tie + 1], order[tie]
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=len(key))
    facets = np.empty((len(first), 2), dtype=np.int64)
    np.divmod(key[first], n, out=(facets[:, 0], facets[:, 1]))
    if counts.size and counts.max() > 2:
        bad = facets[np.argmax(counts)]
        raise NonManifoldError(f"facet {tuple(bad.tolist())} is shared by more than two cells")
    # A facet's entries in entry order: the owner's (the smaller cell's) first.
    e0, e1 = order[first], order[first + counts - 1]
    # Cells of one orientation traverse a shared facet in opposite directions;
    # two entries of one facet run the same way exactly when they start alike.
    same = (a[e0] == a[e1]) & (counts == 2)
    if same.any():
        bad = facets[np.argmax(same)]
        raise NonManifoldError(f"facet {tuple(bad.tolist())} is traversed twice in one direction")
    del a, b, same  # not held through the peak below
    inverse = np.empty_like(order)
    inverse[e0] = inverse[e1] = np.arange(len(first))
    entries = np.column_stack([e0, e1])
    facet_cells = entries // 3
    facet_lanes = entries - 3 * facet_cells
    lone = np.flatnonzero(counts == 1)
    facet_cells[lone, 1] = facet_lanes[lone, 1] = -1
    return facets, facet_cells, inverse.reshape(-1, 3), facet_lanes


class Mesh:
    """Immutable triangle mesh with boundary tags on its facets.

    Parameters
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3) int array
        Counterclockwise triangles; slot 0 marks the refinement edge
        convention described in the module docstring.  Any other dtype
        (float, bool) raises ValueError rather than being truncated.
    boundary : callable or dict or tuple or None
        Either a vectorized ``tag(x, y) -> array of DIRICHLET/NEUMANN``
        evaluated at boundary facet midpoints, a dict mapping sorted
        vertex pairs to tags, the same as a tuple of arrays ((k, 2)
        pairs, (k,) tags), or None for all-Dirichlet.

    The connectivity of :func:`build_connectivity` and ``facet_tags`` are
    read-only arrays, so no facet's tag can change under data derived from
    it.  The affine geometry is computed once, as read-only arrays, from
    the three lane difference planes (3, nc), with the bits of the formulas
    in J (its columns v1 - v0 and v2 - v0 are lane 2 and minus lane 1):
    ``det``, ``inv`` = J^-1 = [[a, b], [c, d]], the stiffness ``metric``
    G_c = det J^-1 J^-T as the (nc, 4) det (aa + bb, ac + bd, ac + bd, cc +
    dd), one off-diagonal value.  Per lane (local edge i), ``lane_lengths``
    (3, nc) and outward unit ``lane_normals`` (3, nc, 2) are formed together
    from the kept planes on the first read of either, which then drops the
    planes; the affine maps ``affine`` (2, nc, 3), rows [J_i0, J_i1, v0_i],
    and their view ``jac`` (nc, 2, 2) are formed on first read too.  Cell
    areas are ``0.5 * det``.

    Every per-cell array is laid out so that the passes over it read
    C-contiguous planes with the cell index last: ``inv`` is a view of
    (2, 2, nc) planes, ``inv[:, i, j]`` one plane, and ``lane_normals`` a
    view of (2, 3, nc) planes, ``lane_normals[..., i]`` one plane.  Gathers
    through the transposed cell arrays (``cells.T``, ``cell_facets.T``) go
    by ``np.take``, which returns a C-ordered result; fancy indexing
    ``a[idx.T]`` keeps the index's memory order and would give column-major
    planes whose rows are strided.

    ``parents`` is None, except on a mesh made by :func:`refine`: there it
    is a read-only (k, 2) array, and vertex ``nv + i`` is the midpoint of
    the coarse vertex pair ``parents[i]`` (nv the coarse vertex count).
    ``lane_tags`` (3, nc) gives each lane's facet tag, and ``facing_rows``
    pairs the lanes across facets; both are read-only and built on first use.
    """

    def __init__(self, vertices, cells, boundary=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.asarray(cells)
        if not np.issubdtype(cells.dtype, np.integer):
            raise ValueError(f"cells must hold integer vertex indices, got dtype {cells.dtype}")
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (nc, 3) array")
        if self.cells.size and not 0 <= self.cells.min() <= self.cells.max() < len(self.vertices):
            raise ValueError("cell vertex index out of range")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertex coordinates must be finite")
        # np.take returns a C-ordered gather; indexing by the transposed
        # ``self.cells.T`` would keep that view's column order instead.
        x, y = (np.take(self.vertices[:, k], self.cells.T) for k in (0, 1))  # (3, nc)
        # Lane differences (3, nc): lane i runs from vertex i + 1 to vertex i + 2.
        lx, ly = np.empty_like(x), np.empty_like(y)
        for lane, (start, end) in enumerate(_LANE_ENDS):
            np.subtract(x[end], x[start], out=lx[lane])
            np.subtract(y[end], y[start], out=ly[lane])
        del x, y
        # J's columns are v1 - v0 = lane 2 and v2 - v0 = -lane 1; negation is
        # exact, so det and inv have the bits of their formulas in J.
        det = lx[1] * ly[2] - lx[2] * ly[1]
        if np.any(det <= 0):
            raise ValueError("cells must be counterclockwise with positive area")
        planes = np.empty((2, 2, len(det)))  # J^-1 = [[a, b], [c, d]] by entry
        (a, b), (c, d) = planes
        np.divide(-ly[1], det, out=a)
        np.divide(lx[1], det, out=b)
        np.divide(-ly[2], det, out=c)
        np.divide(lx[2], det, out=d)
        off = det * (a * c + b * d)
        metric = np.stack((det * (a * a + b * b), off, off, det * (c * c + d * d)), axis=1)
        del a, b, c, d, off
        inv = planes.transpose(2, 0, 1)
        self.det, self.inv, self.metric = det, inv, metric
        self._lanes = lx, ly  # until the lane geometry is formed
        (self.facets, self.facet_cells, self.cell_facets,
         self.facet_lanes) = build_connectivity(self.cells)
        self.facet_tags = self._assign_tags(boundary)
        self.parents = None
        for array in (self.vertices, self.cells, det, planes, inv, self.metric, self.facets,
                      self.facet_cells, self.cell_facets, self.facet_lanes, self.facet_tags):
            array.setflags(write=False)

    def _assign_tags(self, boundary):
        tags = np.zeros(len(self.facets), dtype=np.int8)
        on_boundary = self.facet_cells[:, 1] < 0
        if boundary is None:
            tags[on_boundary] = DIRICHLET
        elif callable(boundary):
            mids = self.vertices[self.facets[on_boundary]].mean(axis=1)
            values = np.asarray(boundary(mids[:, 0], mids[:, 1]))
            tags[on_boundary] = values
        else:
            pairs, values = ((list(boundary), list(boundary.values()))
                             if isinstance(boundary, dict) else boundary)
            pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
            idx = self._facet_index(lo, hi)
            interior = ~on_boundary[idx]
            if np.any(interior):
                k = np.argmax(interior)
                raise ValueError(f"facet {(int(lo[k]), int(hi[k]))} is interior, cannot tag it")
            tags[idx] = values
        given = tags[on_boundary]
        if not ((given == DIRICHLET) | (given == NEUMANN)).all():
            raise ValueError("every boundary facet needs a D or N tag")
        return tags

    def _facet_index(self, a, b):
        """Index of the facet with sorted vertices (a, b), elementwise when
        a and b are arrays."""
        a, b, nv = np.asarray(a), np.asarray(b), len(self.vertices)
        keys = self.facets[:, 0] * nv + self.facets[:, 1]
        want = a * nv + b
        idx = np.minimum(np.searchsorted(keys, want), max(len(keys) - 1, 0))
        # A vertex outside [0, nv) could alias another facet's key.
        inside = (np.minimum(a, b) >= 0) & (np.maximum(a, b) < nv)
        found = keys[idx] == want if len(keys) else False
        missing = np.flatnonzero(~(found & inside))
        if missing.size:
            k = missing[0]
            raise ValueError(f"no facet with vertices ({np.ravel(a)[k]}, {np.ravel(b)[k]})")
        return idx

    @functools.cached_property
    def affine(self):
        """The affine maps x -> J x + v0 of the cells as one read-only
        (2, nc, 3) array: row i of a cell is [J_i0, J_i1, v0_i], so each
        ``affine[i]`` is a C-contiguous (nc, 3) matrix that maps homogeneous
        reference points [x; y; 1] to coordinate i in one product.  Formed
        on first read and kept."""
        affine = np.empty((2, self.num_cells, 3))
        for i in (0, 1):
            x = np.take(self.vertices[:, i], self.cells.T)  # (3, nc)
            np.subtract(x[1], x[0], out=affine[i, :, 0])
            np.subtract(x[2], x[0], out=affine[i, :, 1])
            affine[i, :, 2] = x[0]
        affine.setflags(write=False)
        return affine

    @functools.cached_property
    def jac(self):
        """Cell Jacobians (nc, 2, 2) with columns v1 - v0 and v2 - v0: a
        read-only view of ``affine``, formed with it on first read."""
        return self.affine[..., :2].transpose(1, 0, 2)

    def _lane_geometry(self):
        """Form ``lane_lengths`` and ``lane_normals`` together from the lane
        planes, keep both read-only and drop the planes."""
        lx, ly = self.__dict__.pop("_lanes")
        lengths = np.hypot(lx, ly)
        planes = np.empty((2,) + lx.shape)  # (2, 3, nc) by [component, lane, cell]
        np.divide(ly, lengths, out=planes[0])
        np.divide(-lx, lengths, out=planes[1])
        normals = planes.transpose(1, 2, 0)
        for array in (lengths, planes, normals):
            array.setflags(write=False)
        self.__dict__.update(lane_lengths=lengths, lane_normals=normals)
        return lengths, normals

    @functools.cached_property
    def lane_lengths(self):
        """Length of local edge i of each cell: (3, nc) by [lane, cell],
        read-only; formed with ``lane_normals`` on the first read of either."""
        return self._lane_geometry()[0]

    @functools.cached_property
    def lane_normals(self):
        """Outward unit normal of local edge i of each cell: (3, nc, 2),
        read-only, a view of (2, 3, nc) planes, so that each component
        ``lane_normals[..., i]`` is a C-contiguous (3, nc) plane; formed
        with ``lane_lengths`` on the first read of either."""
        return self._lane_geometry()[1]

    @functools.cached_property
    def lane_tags(self):
        """Facet tag of local edge i of each cell: (3, nc) by [lane, cell]."""
        tags = np.take(self.facet_tags, self.cell_facets.T)
        tags.setflags(write=False)
        return tags

    @functools.cached_property
    def facing_rows(self):
        """(other, boundary) for per-lane arrays laid out (3, nc, ...) and
        flattened to rows ``lane * nc + cell``: ``other[row]`` is the row of
        the same facet in the neighbouring cell (the row itself on the
        boundary), and ``boundary`` lists the rows of boundary facets.
        Both are read-only and depend only on the connectivity."""
        nc = self.num_cells
        # Rows of each facet's two sides as C-ordered (2, nf) planes; the
        # arithmetic of the transposed (nf, 2) views would keep their order.
        rows = np.empty((2, len(self.facets)), dtype=np.int64)
        np.multiply(self.facet_lanes.T, nc, out=rows)
        rows += self.facet_cells.T
        inner = self.facet_cells[:, 1] >= 0
        mine, theirs = rows[0, inner], rows[1, inner]
        other = np.arange(3 * nc)
        other[mine] = theirs
        other[theirs] = mine
        boundary = rows[0, ~inner]
        other.setflags(write=False)
        boundary.setflags(write=False)
        return other, boundary

    @property
    def areas(self):
        """Cell areas, ``0.5 * det``, formed on each access and not stored;
        kept for the benchmark harness, which reads it.  The library uses
        ``det`` itself."""
        areas = 0.5 * self.det
        areas.setflags(write=False)
        return areas

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def boundary_facets(self):
        return np.flatnonzero(self.facet_cells[:, 1] < 0)

    def facet_lengths(self):
        e = self.vertices[self.facets[:, 1]] - self.vertices[self.facets[:, 0]]
        return np.hypot(e[:, 0], e[:, 1])

    def cell_diameters(self):
        """Longest edge of each cell."""
        return self.lane_lengths.max(axis=0)

    def min_angle(self):
        """Smallest interior angle over all cells, in radians.

        Quality monitor only; nothing in the refinement path enforces it.
        """
        # The edges leaving vertex i are lane i + 2 and minus lane i + 1;
        # turning both into their normals keeps the angle between them.
        n = self.lane_normals
        cosv = -np.einsum("lcd,lcd->lc", n[[2, 0, 1]], n[[1, 2, 0]])
        return float(np.arccos(np.clip(cosv, -1.0, 1.0)).min())


@dataclass(frozen=True)
class IndicatorField:
    """Nonnegative per-cell error indicators with an l2 global reduction."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("indicator field must be one-dimensional")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("indicators must be finite and nonnegative")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    @property
    def global_value(self):
        return float(np.sqrt(np.sum(self.values**2)))


def _indicator_values(field):
    return (field if isinstance(field, IndicatorField) else IndicatorField(field)).values


def _check_theta(theta):
    if not (_is_real(theta) and 0.0 < theta <= 1.0):
        raise ValueError(f"marking fraction must be in (0, 1], got {theta!r}")


def mark_maximum(field, theta):
    """Cells whose indicator reaches theta times the largest one."""
    _check_theta(theta)
    values = _indicator_values(field)
    top = values.max(initial=0.0)
    if top <= 0.0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(values >= theta * top).astype(np.int64)


def mark_dorfler(field, theta):
    """Smallest prefix of the sorted indicators holding theta of the mass.

    The returned set M satisfies sum_M eta^2 >= theta * sum eta^2 and is
    of minimal cardinality except that cells tied with the last kept
    value are all included, which keeps the result independent of sort
    stability.  theta = 1 keeps every cell with a nonzero square, also
    those too small to change a running sum.
    """
    _check_theta(theta)
    values = _indicator_values(field)
    squares = values**2
    total = squares.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    if theta == 1.0:
        return np.flatnonzero(squares > 0.0).astype(np.int64)
    # The sorted values, their running sum, the cut and the tie-closed set
    # below do not depend on how the sort orders ties, so it need not be stable.
    sorted_squares = squares[np.argsort(-squares)]
    cumsum = np.cumsum(sorted_squares)
    # The target is measured against the running sum itself, not the
    # differently rounded ``total``, so that theta near 1 cuts inside it.
    target = theta * cumsum[-1] * (1.0 - 1e-12)
    cut = int(np.searchsorted(cumsum, target))
    # Keep the whole tied block at the cutoff value.
    return np.flatnonzero(squares >= sorted_squares[cut]).astype(np.int64)


def orient_longest_edge(vertices, cells):
    """Rotate cells (preserving orientation) to put the longest edge
    opposite local vertex 0, fixing the initial refinement edges."""
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    out = cells.copy()
    v = vertices[cells]
    lengths = np.linalg.norm(v[:, _LANE_ENDS[:, 1]] - v[:, _LANE_ENDS[:, 0]], axis=-1)
    longest = np.argmax(lengths, axis=1)
    for shift in (1, 2):
        rows = longest == shift
        out[rows] = np.roll(cells[rows], -shift, axis=1)
    return out


def refine(mesh, marked):
    """Newest-vertex bisection of the marked cells with conformity closure.

    ``marked`` holds integer cell indices; a boolean mask or a float array
    raises ``TypeError``.  All three edges of a marked cell are bisected;
    the closure then adds refinement edges of any cell that would
    otherwise hang.  Returns a new mesh whose ``parents`` give each new
    vertex's split facet; old vertices keep their indices and boundary
    tags are inherited by split facets.
    """
    marked = np.asarray(marked)
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise TypeError(f"marked must hold integer cell indices, got dtype {marked.dtype}")
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.num_cells:
        raise IndexError("marked cell index out of range")

    split = np.zeros(len(mesh.facets), dtype=bool)
    split[mesh.cell_facets[marked].ravel()] = True
    while True:
        flags = split[mesh.cell_facets]  # per lane, final once no cell needs more
        need = (flags[:, 1] | flags[:, 2]) & ~flags[:, 0]
        if not need.any():
            break
        split[mesh.cell_facets[need, 0]] = True

    split_ids = np.flatnonzero(split)
    midpoint_of = np.full(len(mesh.facets), -1, dtype=np.int64)
    midpoint_of[split_ids] = mesh.num_vertices + np.arange(len(split_ids))
    parents = mesh.facets[split_ids]
    parents.setflags(write=False)
    # (a + b) / 2 has the bits of the mean of the pair.
    mids = (mesh.vertices[parents[:, 0]] + mesh.vertices[parents[:, 1]]) / 2
    new_vertices = np.vstack([mesh.vertices, mids])

    pattern = flags[:, 0] + 2 * flags[:, 1] + 4 * flags[:, 2]
    sizes = np.array([len(_CHILDREN.get(p, ())) for p in range(8)])[pattern]
    # Each cell's children take consecutive rows; an unsplit cell is its own child.
    new_cells = np.repeat(mesh.cells, sizes, axis=0)
    offsets = np.cumsum(sizes) - sizes
    for p, children in _CHILDREN.items():
        if p == 0:
            continue
        rows = np.flatnonzero(pattern == p)
        # The six slots (v0, v1, v2, m0, m1, m2) of these cells.
        block = np.concatenate([np.take(mesh.cells, rows, axis=0),
                                midpoint_of[np.take(mesh.cell_facets, rows, axis=0)]], axis=1)
        for j, child in enumerate(children):
            new_cells[offsets[rows] + j] = block[:, child]

    # Boundary tags: unsplit facets keep theirs, halves (a, mid) and
    # (b, mid) inherit the parent's; midpoints follow every old vertex, so
    # both halves are already sorted pairs.
    old = mesh.boundary_facets()
    whole, cut = old[~split[old]], old[split[old]]
    mid = midpoint_of[cut]
    pairs = np.vstack([
        mesh.facets[whole],
        np.column_stack([mesh.facets[cut, 0], mid]),
        np.column_stack([mesh.facets[cut, 1], mid]),
    ])
    tags = mesh.facet_tags[np.concatenate([whole, cut, cut])]
    fine = Mesh(new_vertices, new_cells, boundary=(pairs, tags))
    fine.parents = parents
    return fine


def uniform_refine(mesh, times=1):
    for _ in range(times):
        mesh = refine(mesh, np.arange(mesh.num_cells))
    return mesh


def write_mesh(mesh, path, vertex_values=None):
    """ASCII export; optionally append one value per vertex.

    Format: a header line ``nv nc nbf``, then nv lines ``x y``, nc lines
    ``v0 v1 v2``, nbf lines ``va vb tag`` with tag D or N, and, when
    given, nv lines of values.
    """
    boundary = mesh.boundary_facets()
    lines = [f"{mesh.num_vertices} {mesh.num_cells} {len(boundary)}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines += [f"{a} {b} {c}" for a, b, c in mesh.cells]
    lines += [
        f"{mesh.facets[f, 0]} {mesh.facets[f, 1]} {_CHAR_FROM_TAG[int(mesh.facet_tags[f])]}"
        for f in boundary
    ]
    if vertex_values is not None:
        values = np.asarray(vertex_values, dtype=float)
        if values.shape != (mesh.num_vertices,):
            raise ValueError("need exactly one value per vertex")
        lines += [f"{v:.17g}" for v in values]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Load a mesh written by :func:`write_mesh` (values are ignored)."""
    with open(path) as handle:
        tokens = handle.read().split("\n")
    rows = [line.split() for line in tokens if line.strip()]
    if not rows or len(rows[0]) != 3:
        raise ValueError(f"{path}: missing the 'nv nc nbf' header line")
    nv, nc, nbf = (int(t) for t in rows[0])
    end = 1
    for section, count, width in (("vertex", nv, 2), ("cell", nc, 3), ("boundary facet", nbf, 3)):
        end += count
        if len(rows) < end:
            raise ValueError(
                f"{path}: {section} section has {count - end + len(rows)} of {count} lines"
            )
        if any(len(r) != width for r in rows[end - count : end]):
            raise ValueError(f"{path}: every {section} line needs {width} fields")
    vertices = np.array([[float(x) for x in r] for r in rows[1 : 1 + nv]])
    cells = np.array([[int(x) for x in r] for r in rows[1 + nv : 1 + nv + nc]])
    tags = {}
    for r in rows[1 + nv + nc : 1 + nv + nc + nbf]:
        a, b, tag = int(r[0]), int(r[1]), r[2]
        if tag not in _TAG_FROM_CHAR:
            raise ValueError(f"unknown boundary tag {tag!r}")
        tags[(min(a, b), max(a, b))] = _TAG_FROM_CHAR[tag]
    return Mesh(vertices, cells, boundary=tags)
