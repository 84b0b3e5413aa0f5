"""Reference triangle elements: Lagrange P0..P4 and the bubble-enriched P2.

The reference triangle has vertices (0,0), (1,0), (0,1).  Local edge i is
the edge opposite vertex i, traversed counterclockwise:

    edge 0: v1 -> v2,   edge 1: v2 -> v0,   edge 2: v0 -> v1

Lagrange nodes are equispaced and ordered vertices first, then edge nodes
edge by edge (along the traversal direction), then interior nodes.  Basis
functions are stored as coefficient tables over the monomials x^a y^b so
values, gradients and Hessians all come from one evaluation path.
"""

import functools
import math
import numbers

import numpy as np

VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EDGE_VERTICES = ((1, 2), (2, 0), (0, 1))
MAX_DEGREE = 4

# The tabulate methods keep the TABLE_CACHE tables asked for last; a table
# at more than TABLE_POINTS points is built afresh and not kept, so the
# cache's memory has a fixed bound.
TABLE_CACHE = 128
TABLE_POINTS = 256


def _exponents(degree):
    return [(t - j, j) for t in range(degree + 1) for j in range(t + 1)]


def _mono_derivatives(exps, pts, dx, dy):
    """The derivative d^dx/dx^dx d^dy/dy^dy of each monomial x^a y^b at pts
    (n, 2): perm(a, dx) perm(b, dy) x^(a - dx) y^(b - dy), as (n, len(exps)).
    A monomial of lower degree than the derivative gives a zero column,
    and 0^0 = 1."""
    x, y = pts[:, 0], pts[:, 1]
    out = np.zeros((len(pts), len(exps)))
    for m, (a, b) in enumerate(exps):
        scale = math.perm(a, dx) * math.perm(b, dy)
        if scale:
            out[:, m] = scale * x ** (a - dx) * y ** (b - dy)
    return out


def _build_table(element, kind, pts):
    """The read-only table ``kind`` ("values", "grad" or "hess") of
    ``element``'s basis at pts (n, 2)."""
    exps, coeffs = element.exponents, element.coeffs
    if kind == "values":
        table = _mono_derivatives(exps, pts, 0, 0) @ coeffs
    elif kind == "grad":
        g = np.stack([_mono_derivatives(exps, pts, *d) for d in ((1, 0), (0, 1))], axis=-1)
        table = np.einsum("nmd,mi->nid", g, coeffs)
    else:
        h = np.stack([_mono_derivatives(exps, pts, *d)
                      for d in ((2, 0), (1, 1), (1, 1), (0, 2))], axis=-1)
        h = h.reshape(h.shape[:2] + (2, 2))
        table = np.einsum("nmde,mi->nide", h, coeffs)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=TABLE_CACHE)
def _cached_table(element, kind, shape, data):
    return _build_table(element, kind, np.frombuffer(data).reshape(shape))


def _table(element, kind, pts):
    """:func:`_build_table` at pts, from the cache when pts has at most
    ``TABLE_POINTS`` points; the key is pts's shape and bytes."""
    pts = np.ascontiguousarray(pts, dtype=float)
    if len(pts) > TABLE_POINTS:
        return _build_table(element, kind, pts)
    return _cached_table(element, kind, pts.shape, pts.tobytes())


def lagrange_nodes(degree):
    """Equispaced nodes in the fixed local ordering."""
    if degree == 0:
        return np.array([[1.0 / 3.0, 1.0 / 3.0]])
    nodes = [VERTICES[i] for i in range(3)]
    for a, b in EDGE_VERTICES:
        for j in range(1, degree):
            nodes.append(VERTICES[a] + (VERTICES[b] - VERTICES[a]) * (j / degree))
    for j in range(1, degree):
        for i in range(1, degree - j):
            nodes.append(np.array([i / degree, j / degree]))
    return np.array(nodes)


class ReferenceElement:
    """Polynomial triangle element defined by a monomial coefficient table.

    Attributes
    ----------
    degree : int
        Polynomial degree of the spanned space.
    dim : int
        Number of basis functions.
    nodes : ndarray (dim, 2)
        Defining points (for the enriched element the last one is the
        barycenter carrying the bubble coefficient).
    edge_dofs : tuple of 3 tuples
        Local indices of all basis functions associated with the closed
        local edge, endpoints included.

    ``tabulate``, ``tabulate_grad`` and ``tabulate_hess`` return read-only
    tables.  The last ``TABLE_CACHE`` tables asked for at up to
    ``TABLE_POINTS`` points are kept, keyed by the point array's shape and
    bytes, so a fixed quadrature rule is tabulated once however often it
    is asked for; the methods themselves run on every call.
    """

    def __init__(self, name, degree, nodes, exponents, coeffs, edge_dofs):
        self.name = name
        self.degree = degree
        self.nodes = nodes
        self.exponents = exponents
        self.coeffs = coeffs
        self.edge_dofs = edge_dofs
        self.dim = coeffs.shape[1]

    def __repr__(self):
        return f"ReferenceElement({self.name})"

    def tabulate(self, pts):
        """Basis values at pts (n, 2) as an (n, dim) array."""
        return _table(self, "values", pts)

    def tabulate_grad(self, pts):
        """Reference gradients at pts as an (n, dim, 2) array."""
        return _table(self, "grad", pts)

    def tabulate_hess(self, pts):
        """Reference Hessians at pts as an (n, dim, 2, 2) array."""
        return _table(self, "hess", pts)

    def interpolate(self, fn):
        """Coefficients of the element interpolant of ``fn``.

        ``fn`` maps an (n, 2) point array to values of shape (n,) or
        (n, m); functions already in the span are reproduced exactly.
        """
        vals = np.asarray(fn(self.nodes), dtype=float)
        if self.name != "p2+bubble":
            return vals
        # Nodal part from the P2 nodes; the bubble picks up whatever the
        # P2 interpolant misses at the barycenter.
        p2_at_bary = lagrange(2).tabulate(self.nodes[6:7])[0]
        bubble = vals[6] - p2_at_bary @ vals[:6]
        return np.concatenate([vals[:6], bubble[None]])


def _is_integer(value):
    """An integral number, a NumPy integer too, but not a bool: the one rule
    for degrees and counts, so that True is not taken for 1 nor 2.0 for 2."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def lagrange(degree):
    """Lagrange element of the given degree, an integer from 0 (the
    constant) to ``MAX_DEGREE``; a bool or a float raises ValueError."""
    if not (_is_integer(degree) and 0 <= degree <= MAX_DEGREE):
        raise ValueError(f"unsupported element degree: {degree!r}")
    return _lagrange(int(degree))


@functools.lru_cache(maxsize=None)
def _lagrange(degree):
    nodes = lagrange_nodes(degree)
    exps = _exponents(degree)
    vander = _mono_derivatives(exps, nodes, 0, 0)
    coeffs = np.linalg.inv(vander)
    edge_dofs = tuple(
        (a, b) + tuple(3 + i * (degree - 1) + j for j in range(degree - 1))
        for i, (a, b) in enumerate(EDGE_VERTICES)
    ) if degree >= 1 else ((), (), ())
    return ReferenceElement(f"P{degree}", degree, nodes, exps, coeffs, edge_dofs)


@functools.lru_cache(maxsize=None)
def p2_bubble():
    """P2 enriched with the cubic interior bubble 27 x y (1 - x - y).

    Dimension 7; the bubble vanishes on all three edges, so the edge
    degrees of freedom are exactly those of P2.
    """
    p2 = lagrange(2)
    exps = _exponents(3)
    coeffs = np.zeros((len(exps), 7))
    index = {e: m for m, e in enumerate(exps)}
    for m, e in enumerate(_exponents(2)):
        coeffs[index[e], :6] = p2.coeffs[m]
    coeffs[index[(1, 1)], 6] = 27.0
    coeffs[index[(2, 1)], 6] = -27.0
    coeffs[index[(1, 2)], 6] = -27.0
    nodes = np.vstack([p2.nodes, [[1.0 / 3.0, 1.0 / 3.0]]])
    edge_dofs = tuple((a, b, 3 + i) for i, (a, b) in enumerate(EDGE_VERTICES))
    return ReferenceElement("p2+bubble", 3, nodes, exps, coeffs, edge_dofs)
