"""Reference elements: nodal bases, derivatives, and the bubble enrichment."""

import numpy as np
import pytest

from afem2d import element as el

RNG = np.random.default_rng(20240817)


def interior_points(n):
    # strictly inside the reference triangle
    a = RNG.random((n, 2))
    flip = a.sum(axis=1) > 1.0
    a[flip] = 1.0 - a[flip]
    return 0.02 + 0.96 * a


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_lagrange_kronecker_property(degree):
    elem = el.lagrange(degree)
    assert np.abs(elem.tabulate(elem.nodes) - np.eye(elem.dim)).max() < 1e-12


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_lagrange_dimension(degree):
    assert el.lagrange(degree).dim == (degree + 1) * (degree + 2) // 2


def test_degree_zero_node_is_barycenter():
    p0 = el.lagrange(0)
    assert np.allclose(p0.nodes, [[1.0 / 3.0, 1.0 / 3.0]])
    assert np.allclose(p0.tabulate(interior_points(5)), 1.0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_partition_of_unity(degree):
    elem = el.lagrange(degree)
    pts = interior_points(7)
    assert np.abs(elem.tabulate(pts).sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(elem.tabulate_grad(pts).sum(axis=1)).max() < 1e-12


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_edge_node_layout(degree):
    nodes = el.lagrange_nodes(degree)
    assert len(nodes) == (degree + 1) * (degree + 2) // 2
    assert np.allclose(nodes[:3], el.VERTICES)
    for lane, (a, b) in enumerate(el.EDGE_VERTICES):
        va, vb = el.VERTICES[a], el.VERTICES[b]
        for j in range(degree - 1):
            want = va + (j + 1) / degree * (vb - va)
            got = nodes[3 + lane * (degree - 1) + j]
            assert np.allclose(got, want), (lane, j)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_off_edge_basis_vanishes_on_edge(degree):
    # Functions not in edge_dofs[lane] must vanish on that edge: this is
    # what lets the local Dirichlet masks work on fine-space DOFs.
    elem = el.lagrange(degree)
    t = np.linspace(0.0, 1.0, 9)
    for lane, (a, b) in enumerate(el.EDGE_VERTICES):
        va, vb = el.VERTICES[a], el.VERTICES[b]
        pts = va[None, :] + t[:, None] * (vb - va)[None, :]
        vals = elem.tabulate(pts)
        off = np.setdiff1d(np.arange(elem.dim), elem.edge_dofs[lane])
        assert np.abs(vals[:, off]).max() < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_gradients_match_finite_differences(degree):
    elem = el.lagrange(degree)
    pts = interior_points(5)
    h = 1e-6
    grads = elem.tabulate_grad(pts)
    for t in range(2):
        step = np.zeros(2)
        step[t] = h
        fd = (elem.tabulate(pts + step) - elem.tabulate(pts - step)) / (2 * h)
        assert np.abs(grads[..., t] - fd).max() < 5e-6


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_hessians_match_finite_differences(degree):
    elem = el.lagrange(degree)
    pts = interior_points(4)
    h = 1e-5
    hess = elem.tabulate_hess(pts)
    for s in range(2):
        step = np.zeros(2)
        step[s] = h
        fd = (elem.tabulate_grad(pts + step) - elem.tabulate_grad(pts - step)) / (2 * h)
        assert np.abs(hess[..., s, :] - fd).max() < 5e-5


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_interpolate_reproduces_polynomials(degree):
    elem = el.lagrange(degree)

    def poly(p):
        return (p[:, 0] + 0.5) ** degree + 2.0 * p[:, 1]

    coeffs = elem.interpolate(poly)
    pts = interior_points(6)
    assert np.abs(elem.tabulate(pts) @ coeffs - poly(pts)).max() < 1e-12


def test_unsupported_degree_raises():
    with pytest.raises(ValueError):
        el.lagrange(el.MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        el.lagrange(-1)


def test_bubble_dimension_and_edge_traces():
    bub = el.p2_bubble()
    assert bub.dim == 7
    t = np.linspace(0.0, 1.0, 11)
    for a, b in el.EDGE_VERTICES:
        va, vb = el.VERTICES[a], el.VERTICES[b]
        pts = va[None, :] + t[:, None] * (vb - va)[None, :]
        assert np.abs(bub.tabulate(pts)[:, 6]).max() < 1e-13


def test_bubble_peak_at_barycenter():
    bub = el.p2_bubble()
    bary = np.array([[1.0 / 3.0, 1.0 / 3.0]])
    # 27 x y (1 - x - y) at the barycenter
    assert abs(bub.tabulate(bary)[0, 6] - 1.0) < 1e-13


def test_bubble_interpolation_is_nodal_at_its_points():
    bub = el.p2_bubble()

    def bubble_fn(p):
        return 27.0 * p[:, 0] * p[:, 1] * (1.0 - p[:, 0] - p[:, 1])

    coeffs = bub.interpolate(bubble_fn)
    assert np.allclose(coeffs, np.eye(7)[6], atol=1e-13)
    ones = bub.interpolate(lambda p: np.ones(len(p)))
    assert np.allclose(ones[:6], 1.0, atol=1e-13) and abs(ones[6]) < 1e-13
    # interpolant matches the data at all 7 nodes even though the basis
    # is modal in its last member
    vals = bub.tabulate(bub.nodes) @ coeffs
    assert np.allclose(vals, bubble_fn(bub.nodes), atol=1e-13)


def test_bubble_reproduces_its_span():
    bub = el.p2_bubble()
    pts = interior_points(6)

    def f(p):
        return p[:, 0] ** 2 - p[:, 1] + 0.25 * 27.0 * p[:, 0] * p[:, 1] * (
            1.0 - p[:, 0] - p[:, 1]
        )

    coeffs = bub.interpolate(f)
    assert np.abs(bub.tabulate(pts) @ coeffs - f(pts)).max() < 1e-12


def fresh_tables(elem, pts):
    """Values, gradients and Hessians at pts by the monomial formulas,
    built anew on every call."""
    mono = [el._mono_derivatives(elem.exponents, pts, *d)
            for d in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
    grad = np.einsum("nmd,mi->nid", np.stack(mono[1:3], axis=-1), elem.coeffs)
    hess = np.stack([mono[3], mono[4], mono[4], mono[5]], axis=-1)
    hess = np.einsum("nmde,mi->nide", hess.reshape(hess.shape[:2] + (2, 2)), elem.coeffs)
    return mono[0] @ elem.coeffs, grad, hess


@pytest.mark.parametrize("elem", [el.lagrange(k) for k in range(5)] + [el.p2_bubble()],
                         ids=lambda e: e.name)
def test_cached_tables_are_bitwise_fresh_and_read_only(elem):
    """A table comes from the cache on a second call with equal points (a
    copy, or a list), is bitwise the table built anew, and cannot be
    written.  A point array above ``TABLE_POINTS`` gives the same table
    and is not kept."""
    pts = interior_points(9)
    methods = (elem.tabulate, elem.tabulate_grad, elem.tabulate_hess)
    for method, want in zip(methods, fresh_tables(elem, pts)):
        got = method(pts)
        assert method(pts.copy()) is got and method(pts.tolist()) is got
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        with pytest.raises(ValueError):
            got[0] = 1.0
    large = interior_points(el.TABLE_POINTS + 1)
    before = el._cached_table.cache_info().currsize
    for method, want in zip(methods, fresh_tables(elem, large)):
        got = method(large)
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
    assert el._cached_table.cache_info().currsize == before


def test_table_cache_stays_within_its_bound():
    """Ten thousand calls at random point arrays keep at most
    ``TABLE_CACHE`` tables."""
    elem = el.lagrange(2)
    assert el._cached_table.cache_info().maxsize == el.TABLE_CACHE
    for n in range(10_000):
        elem.tabulate_grad(interior_points(1 + n % 5))
    assert el._cached_table.cache_info().currsize <= el.TABLE_CACHE


@pytest.mark.parametrize("degree,pair", [(1, (4, 2)), (2, (3, 1))])
def test_second_estimate_builds_no_table(monkeypatch, degree, pair):
    """A second hierarchical estimate on one mesh gets every reference
    table from the cache: the monomials are never evaluated, while the
    tabulate methods it calls, which a tracer may wrap and count, still
    run (the fine basis itself is weighed once per pair and rule, so only
    the solution's derivatives are tabulated).  Its indicators are
    bitwise those of the first."""
    from afem2d.bank_weiser import estimate
    from afem2d.fem import FunctionSpace, interpolate
    from afem2d.problems import lshaped_mixed

    space = FunctionSpace(lshaped_mixed().mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    f, g = (lambda x, y: 1.0 + x * y), (lambda x, y: 0.5 - y)
    first = estimate(u, f, g, pair=pair)[0].values
    mono, calls = [], []
    original_mono = el._mono_derivatives
    monkeypatch.setattr(el, "_mono_derivatives", lambda *a: mono.append(a) or original_mono(*a))
    for method in ("tabulate", "tabulate_grad", "tabulate_hess"):
        original = getattr(el.ReferenceElement, method)
        monkeypatch.setattr(el.ReferenceElement, method,
                            lambda self, pts, original=original:
                            calls.append(len(pts)) or original(self, pts))
    second = estimate(u, f, g, pair=pair)[0].values
    assert mono == [] and calls
    assert second.tobytes() == first.tobytes()
