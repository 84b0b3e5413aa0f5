"""Tests for the hierarchical estimator built on projected local problems."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afem2d import element as el
from afem2d import fem
from afem2d import quadrature as quad
from afem2d.bank_weiser import (
    NULLSPACE_RTOL,
    PAIRS,
    LocalSolveError,
    NullspaceError,
    _factor,
    _load_tables,
    _operators,
    _project_matrix,
    _substitute,
    estimate,
    estimate_bubble,
    interpolation_matrix,
    local_system,
    nullspace,
    validate_pair,
)
from afem2d.fem import FEFunction, FunctionSpace, interpolate
from afem2d.mesh import DIRICHLET, NEUMANN, IndicatorField
from afem2d.problems import lshaped, lshaped_mixed, unit_square_mesh

from helpers import (
    assert_bitwise,
    mapped_point_traces,
    mask_and_project,
    quadrature_stiffness,
    randomly_tagged_mesh,
    row_reduction_kernel,
    solve_poisson,
    tagged_unit_square,
    two_cell_square,
    unit_triangle_mesh,
)

RNG = np.random.default_rng(20240819)


def _elements(kind):
    if kind == "bubble":
        return el.p2_bubble(), el.lagrange(1)
    return el.lagrange(kind[0]), el.lagrange(kind[1])


ALL_KINDS = list(PAIRS) + ["bubble"]


def _patterns(mesh):
    """Each cell's Dirichlet pattern: bit i set when local edge i is Dirichlet."""
    return (1 << np.arange(3)) @ (mesh.lane_tags == DIRICHLET)


def _pack(a):
    """Lower triangles of the symmetric (nc, k, k) matrices packed by
    columns, (k(k+1)/2, nc), as :func:`_factor` takes them."""
    cols, rows = np.triu_indices(a.shape[-1])
    return np.ascontiguousarray(a[:, rows, cols].T)


def _unpack(packed):
    """The symmetric (nc, k, k) matrices of packed lower triangles."""
    k = int(np.sqrt(2 * len(packed)))
    cols, rows = np.triu_indices(k)
    a = np.zeros((packed.shape[1], k, k))
    a[:, rows, cols] = a[:, cols, rows] = packed.T
    return a


def _projected_matrices(mesh, kind):
    return _unpack(_project_matrix(mesh.metric, _patterns(mesh), kind))


def _project_fine_load(mesh, b, kind):
    """The oracle's projection N^T P b of fine-basis loads b (nc, d)."""
    free = _operators(kind)[3]
    return np.einsum("cdk,cd->ck", free[_patterns(mesh)], b)


def _solve_projected(a, b_bw, first=0):
    """Solve the (nc, k, k) systems for the loads b_bw (k, nc) by the
    packed factorization and substitution."""
    return _substitute(_factor(_pack(a), first), b_bw)


# ---------------------------------------------------------------------------
# the interpolation operator and its kernel
# ---------------------------------------------------------------------------


def test_pairs_enumerates_every_admissible_combination():
    assert PAIRS == tuple(
        (kp, km) for kp in (1, 2, 3, 4) for km in range(kp)
    )


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_interpolation_matrix_is_idempotent(kind):
    fine, coarse = _elements(kind)
    g = interpolation_matrix(fine, coarse)
    assert g.shape == (fine.dim, fine.dim)
    assert np.abs(g @ g - g).max() < 1e-12
    # Constants survive the round trip: interpolating the constant-one
    # function down and back up must reproduce its fine coefficients.
    ones_coeffs = fine.interpolate(lambda pts: np.ones(len(pts)))
    assert np.abs(g @ ones_coeffs - ones_coeffs).max() < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_nullspace_dimension_and_orthogonality(kind):
    fine, coarse = _elements(kind)
    n = nullspace(fine, coarse)
    assert n.shape == (fine.dim, fine.dim - coarse.dim)
    assert np.abs(n.T @ n - np.eye(n.shape[1])).max() < 1e-12
    g = interpolation_matrix(fine, coarse)
    assert np.abs(g @ n).max() < 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_nullspace_matches_row_reduction_oracle(kind):
    """The SVD kernel spans the same subspace as a hand-rolled RREF kernel:
    compare the orthogonal projectors, which are basis-independent."""
    fine, coarse = _elements(kind)
    g = interpolation_matrix(fine, coarse)
    n = nullspace(fine, coarse)
    k_raw = row_reduction_kernel(g)
    assert k_raw.shape == n.shape
    assert np.abs(g @ k_raw).max() < 1e-9
    q, _ = np.linalg.qr(k_raw)
    assert np.abs(q @ q.T - n @ n.T).max() < 1e-9


@pytest.mark.parametrize(
    "kind,rtol",
    [((2, 1), 1.0),       # cutoff swallows every singular value
     ((4, 2), 1e-18)],    # cutoff below the numerical noise floor
    ids=["too-loose", "too-strict"],
)
def test_nullspace_bad_cutoff_raises(kind, rtol):
    fine, coarse = _elements(kind)
    with pytest.raises(NullspaceError):
        nullspace(fine, coarse, rtol=rtol)


def test_validate_pair():
    assert validate_pair((2, 1)) == (2, 1)
    assert validate_pair(["3", "0"]) == (3, 0)
    assert validate_pair((np.int64(4), np.int64(2))) == (4, 2)
    assert all(type(k) is int for k in validate_pair((np.int64(4), "2")))
    # Floats, bools and strings other than ASCII digits are refused, not truncated.
    for bad in [(0, 0), (5, 1), (2, 2), (2, 3), "junk", (2, -1), 7, (2.9, 1), (2, 1.5),
                (2.0, 1), (True, False), (2, True), (" 2", "1"), ("2.0", "1"), (2, 1, 0)]:
        with pytest.raises(ValueError):
            validate_pair(bad)


@pytest.mark.parametrize("kind", [(2, 1), (3, 2)], ids=str)
def test_kernel_is_cell_independent(kind):
    """Rebuilding the interpolation operator in physical coordinates on
    random triangles yields the same kernel projector as the reference
    construction, because Lagrange interpolation commutes with affine maps."""
    fine, coarse = _elements(kind)
    n_ref = nullspace(fine, coarse)
    proj_ref = n_ref @ n_ref.T

    def vandermonde(pts, exps):
        exps = np.asarray(exps)
        return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)

    checked = 0
    while checked < 5:
        verts = RNG.uniform(-2.0, 2.0, size=(3, 2))
        d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0.4:
            continue
        jac = np.column_stack([d1, d2])
        x_fine = verts[0] + fine.nodes @ jac.T
        x_coarse = verts[0] + coarse.nodes @ jac.T
        v_ff = vandermonde(x_fine, fine.exponents)
        v_cc = vandermonde(x_coarse, coarse.exponents)
        g_phys = (
            vandermonde(x_fine, coarse.exponents)
            @ np.linalg.solve(v_cc, vandermonde(x_coarse, fine.exponents))
            @ np.linalg.inv(v_ff)
        )
        _, sigma, vt = np.linalg.svd(g_phys)
        kernel = vt[sigma <= 1e-8 * sigma[0]].T
        assert kernel.shape == n_ref.shape
        assert np.abs(kernel @ kernel.T - proj_ref).max() < 1e-8
        checked += 1


# ---------------------------------------------------------------------------
# the local Neumann systems
# ---------------------------------------------------------------------------


def test_local_system_volume_term_single_cell():
    """On one cell with a zero solution and no Neumann data the load is
    the volume integral of f against the fine basis, projected onto P N;
    compare against direct quadrature.  With every edge Dirichlet every
    fine DOF of the P2 space is fixed, and the projected load is zero."""
    f = lambda x, y: x + 2.0 * y
    pts, wts = quad.triangle_rule(6)
    tab = el.lagrange(2).tabulate(pts)
    fx = f(pts[:, 0], pts[:, 1])  # unit triangle: physical == reference
    oracle = np.einsum("q,qi,q->i", fx, tab, wts)
    free = _operators((2, 1))[3]
    assert not free[7].any() and free[0].any()
    for tag, pattern in [(DIRICHLET, 7), (NEUMANN, 0)]:
        mesh = unit_triangle_mesh(boundary=lambda x, y: np.full(x.shape, tag))
        space = FunctionSpace(mesh, 1)
        b = local_system(FEFunction(space, np.zeros(space.num_dofs)), f, None, (2, 1))
        assert b.shape == (1, 3) and list(_patterns(mesh)) == [pattern]
        assert np.abs(b[0] - _project_fine_load(mesh, oracle[None], (2, 1))[0]).max() < 1e-14
        assert (b == 0.0).all() == (tag == DIRICHLET)
        # the reference cell's metric is the identity
        assert np.abs(mesh.metric[0] - [1.0, 0.0, 0.0, 1.0]).max() < 1e-15


def test_interior_jump_sign_and_sharing():
    """Both cells incident to a facet integrate the *same* averaged flux
    jump against their own traces.  For a piecewise linear u with gradients
    (1,2) and (2,1) across the diagonal of the unit square, that jump is
    J = -1/sqrt(2) relative to each cell's outward normal, and the edge
    load against P2 traces is J * L * (1/6, 1/6, 2/3)."""
    mesh = two_cell_square()
    space = FunctionSpace(mesh, 1)
    # vertex values [0, 1, 3, 1] give grad (1,2) on cell 0, (2,1) on cell 1
    u = FEFunction(space, np.array([0.0, 1.0, 3.0, 1.0]))
    zero = lambda x, y: np.zeros_like(x)
    b = local_system(u, zero, None, (2, 1))

    jump = -1.0 / np.sqrt(2.0)
    length = np.sqrt(2.0)
    expected_row = np.zeros(6)
    # the diagonal is lane 0 for both cells; its P2 edge DOFs are (1, 2, 3)
    expected_row[[1, 2, 3]] = jump * length * np.array([1 / 6, 1 / 6, 2 / 3])
    expected = _project_fine_load(mesh, np.array([expected_row] * 2), (2, 1))
    assert np.abs(b - expected).max() < 1e-12

    # Lanes 1 and 2 are Dirichlet on both cells, and Dirichlet elimination
    # masks every fine DOF except the midpoint of the interior diagonal
    # (local fine DOF 3), so each load is the midpoint's share of the jump.
    assert list(_patterns(mesh)) == [6, 6]
    free = _operators((2, 1))[3]
    assert list(np.flatnonzero(np.abs(free[6]).sum(axis=1))) == [3]
    nullbasis = _operators((2, 1))[1]
    assert np.abs(b - jump * length * 2 / 3 * nullbasis[3]).max() < 1e-12


def test_neumann_facet_data():
    """On a Neumann facet the edge data is g minus the discrete normal
    flux; with u = x and g = 3 on the edge x = 1 the data is constant 2."""

    def tagger(x, y):
        return np.where(np.isclose(x, 1.0), NEUMANN, DIRICHLET)

    mesh = two_cell_square(boundary=tagger)
    space = FunctionSpace(mesh, 1)
    u = interpolate(lambda x, y: x, space)
    zero = lambda x, y: np.zeros_like(x)
    g = lambda x, y: 3.0 * np.ones_like(x)
    b = local_system(u, zero, g, (2, 1))

    # cell 0 = [1, 2, 0] owns the Neumann edge (1, 2) as lane 2; u is
    # continuous so the interior diagonal contributes nothing.
    expected = np.zeros((2, 6))
    expected[0, list(el.lagrange(2).edge_dofs[2])] = 2.0 * np.array([1 / 6, 1 / 6, 2 / 3])
    assert np.abs(b - _project_fine_load(mesh, expected, (2, 1))).max() < 1e-12
    assert np.abs(b[0]).max() > 0.1


@pytest.mark.parametrize("degree,pair", [(1, (2, 1)), (2, (4, 2))])
def test_local_system_matches_quadrature_oracle(degree, pair):
    """Reference-tensor metrics and lane-map facet data reproduce the
    quadrature stiffness and the mapped-point load, projected onto each
    cell's P N, on a mesh with interior, Dirichlet and Neumann facets,
    with a nonzero source and nonzero Neumann data."""
    mesh = lshaped_mixed().mesh
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    f = lambda x, y: np.exp(x) - y * y
    g = lambda x, y: 1.0 + x - 2.0 * y
    fine = el.lagrange(pair[0])
    b = local_system(u, f, g, pair)

    order = max(2 * fine.degree, degree + fine.degree + 2)
    a_oracle = quadrature_stiffness(fine, order, mesh)
    a = (mesh.metric @ fem.reference_stiffness(fine)).reshape(a_oracle.shape)
    assert np.abs(a - a_oracle).max() <= 1e-13 * np.abs(a_oracle).max()

    pts, wts = quad.triangle_rule(order)
    det, inv = mesh.det, mesh.inv
    x = fem.physical_points(mesh, pts)
    r = f(x[..., 0], x[..., 1])
    if degree >= 2:
        lap = np.einsum("csa,qist,cta->cqi", inv, space.element.tabulate_hess(pts), inv)
        r = r + np.einsum("ci,cqi->cq", u.cell_coeffs(), lap)
    b_oracle = np.einsum("cq,qi,q,c->ci", r, fine.tabulate(pts), wts, det)
    length, dn, jump, gv = mapped_point_traces(u, g, order)
    assert np.count_nonzero(gv) > 0
    data = np.where((mesh.lane_tags == NEUMANN)[..., None], gv - dn, 0.5 * jump)
    t, wt = quad.edge_rule(order)
    for lane in range(3):
        tab = fine.tabulate(fem.lane_points(lane, t))
        b_oracle += np.einsum("cq,qi,q,c->ci", data[lane], tab, wt, length[lane])
    b_oracle = _project_fine_load(mesh, b_oracle, pair)
    assert np.abs(b - b_oracle).max() <= 1e-12 * np.abs(b_oracle).max()


def test_random_taggings_cover_every_pattern():
    mesh = randomly_tagged_mesh(3, seed=0)
    pattern = _patterns(mesh)
    assert set(pattern.tolist()) == set(range(8))
    assert list(pattern[-7:]) == list(range(1, 8))


def _relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _estimate_kind(kind, u, f, g, factors=None):
    if kind == "bubble":
        return estimate_bubble(u, f, g, factors=factors)
    return estimate(u, f, g, pair=kind, factors=factors)


SOURCE = lambda x, y: np.exp(x) - y * y
NEUMANN_DATA = lambda x, y: np.cos(x + 2 * y)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), divisions=st.integers(2, 3), degree=st.integers(1, 3),
       with_f=st.booleans(), with_g=st.booleans())
def test_projected_systems_match_mask_and_project(kind, seed, divisions, degree, with_f, with_g):
    """The per-pattern reference tensors and load tables give the same
    projected systems, loads, indicators and lifts as masking and
    projecting each cell's fine-space matrix and load, for random D/N
    taggings, every space pair, P1-P3 solutions and f and g given or None."""
    mesh = randomly_tagged_mesh(divisions, seed)
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    f = SOURCE if with_f else None
    g = NEUMANN_DATA if with_g else None
    fine, nullbasis = _operators(kind)[:2]
    a_bw, b_bw = _projected_matrices(mesh, kind), local_system(u, f, g, kind)
    a_oracle, b_oracle, lift_oracle, eta_oracle = mask_and_project(u, f, g, fine, nullbasis)
    indicator, lift = _estimate_kind(kind, u, f, g)
    assert _relative_error(a_bw, a_oracle) <= 1e-13
    if kind == (3, 2) and degree == 1 and f is None and g is None:
        # P1 facet data is constant along each edge, and the odd cubic edge
        # functions of (3, 2) integrate it to zero: the exact load is zero,
        # and both sides are roundoff of the unit-sized data
        for got, want in [(b_bw, b_oracle), (lift, lift_oracle), (indicator.values, eta_oracle)]:
            assert np.abs(got).max() < 1e-12 and np.abs(want).max() < 1e-12
        return
    assert _relative_error(b_bw, b_oracle) <= 1e-13
    assert _relative_error(lift, lift_oracle) <= 1e-13
    assert _relative_error(indicator.values, eta_oracle) <= 1e-13


def _pattern_zero_energy(kind, mesh, degree):
    """x . b_bw and (N x)^T A+ (N x), A+ by quadrature, on every cell from
    the estimator's own projected systems and loads, and the patterns."""
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    fine, nullbasis = _operators(kind)[:2]
    b_bw = local_system(u, SOURCE, NEUMANN_DATA, kind)
    pattern = _patterns(mesh)
    x = _substitute(_factor(_project_matrix(mesh.metric, pattern, kind)), b_bw.T).T
    a_fine = quadrature_stiffness(fine, 2 * fine.degree, mesh)
    lift = x @ nullbasis.T
    return np.einsum("ck,ck->c", x, b_bw), np.einsum("ci,cij,cj->c", lift, a_fine, lift), pattern


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
@pytest.mark.parametrize("degree", [1, 2])
def test_energy_is_the_load_on_cells_without_dirichlet_edges(kind, degree):
    """Where a cell has no Dirichlet edge its projected matrix is
    N^T A+ N, so x . b_bw is the energy (N x)^T A+ (N x) of the lift; the
    estimator's indicators are its square root there."""
    mesh = randomly_tagged_mesh(4, seed=2)
    by_load, energy, pattern = _pattern_zero_energy(kind, mesh, degree)
    free = pattern == 0
    assert free.sum() > 10 and (~free).sum() > 5
    assert _relative_error(by_load[free], energy[free]) <= 1e-13
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, FunctionSpace(mesh, degree))
    indicator, _ = _estimate_kind(kind, u, SOURCE, NEUMANN_DATA)
    assert _relative_error(indicator.values**2, energy) <= 1e-13


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_dirichlet_cells_keep_the_oracle_indicators(kind):
    """Cells with a Dirichlet edge take the energy of the lift from the
    quadratic form, and match the oracle's indicators there."""
    mesh = randomly_tagged_mesh(4, seed=5)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, FunctionSpace(mesh, 2))
    fine, nullbasis = _operators(kind)[:2]
    eta_oracle = mask_and_project(u, SOURCE, NEUMANN_DATA, fine, nullbasis)[3]
    indicator, _ = _estimate_kind(kind, u, SOURCE, NEUMANN_DATA)
    dirichlet = _patterns(mesh) > 0
    assert dirichlet.sum() > 5
    assert _relative_error(indicator.values[dirichlet], eta_oracle[dirichlet]) <= 1e-13


@pytest.mark.parametrize("kind", [(2, 1), (4, 2), "bubble"], ids=str)
def test_estimate_forms_no_fine_space_load(monkeypatch, kind):
    """The loads are formed in the estimation space: the estimate never
    calls ``fem.assemble_load``, and every array it tabulates against the
    basis has k = dim+ - dim- columns."""
    mesh = randomly_tagged_mesh(3, seed=4)
    u = interpolate(lambda x, y: x * y + np.cos(x), FunctionSpace(mesh, 2))
    monkeypatch.setattr(fem, "assemble_load", None)
    fine, nullbasis = _operators(kind)[:2]
    k = nullbasis.shape[1]
    assert local_system(u, SOURCE, NEUMANN_DATA, kind).shape == (mesh.num_cells, k)
    tables = _load_tables(kind, max(2 * fine.degree, 2 + fine.degree + 2))
    assert [t.shape[0::2] for t in tables] == [(8, k)] * 3
    assert not any(t.flags.writeable for t in tables)
    _estimate_kind(kind, u, SOURCE, NEUMANN_DATA)


def test_solve_projected_galerkin_residual():
    """The projected solve leaves a residual orthogonal to the kernel:
    N^T (A x - b) = 0 for every cell."""
    nullbasis = _operators((2, 1))[1]
    nc, dim = 17, 6
    m = RNG.normal(size=(nc, dim, dim))
    a = m @ m.transpose(0, 2, 1) + 3.0 * np.eye(dim)
    b = RNG.normal(size=(nc, dim))
    a_bw = np.matmul(nullbasis.T, a) @ nullbasis
    x = _solve_projected(a_bw, (b @ nullbasis).T).T
    lift = x @ nullbasis.T
    residual = np.einsum("cij,cj->ci", a, lift) - b
    assert np.abs(np.einsum("ij,ci->cj", nullbasis, residual)).max() < 1e-10
    # the lift lives in the span of the kernel basis
    recon = (lift @ nullbasis) @ nullbasis.T
    assert np.abs(recon - lift).max() < 1e-12


@pytest.mark.parametrize("k", range(1, 15))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), nc=st.integers(1, 40), log_cond=st.floats(0.0, 3.0))
def test_solve_projected_matches_linalg_solve(k, seed, nc, log_cond):
    """The Cholesky solve across cells agrees with LAPACK's on batches of
    random SPD systems of every size the shipped kinds produce and more."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(nc, k, k)))
    eigs = 10.0 ** rng.uniform(-log_cond, 0.0, size=(nc, 1, k))
    a = (q * eigs) @ q.transpose(0, 2, 1)
    b = rng.normal(size=(nc, k))
    want = np.linalg.solve(a, b[..., None])[..., 0]
    got = _solve_projected(a, b.T).T
    assert _relative_error(got, want) <= 1e-12
    # the packed factor is the lower Cholesky factor, its diagonal the pivots
    lower, pivots = _factor(_pack(a))
    assert _relative_error(np.tril(_unpack(lower)), np.linalg.cholesky(a)) <= 1e-12
    assert np.array_equal(pivots.T, _unpack(lower)[:, np.arange(k), np.arange(k)])


def factor_and_substitute_with_temporaries(a_bw, b_bw):
    """``_factor`` then ``_substitute`` with each rank-1 and axpy product
    formed as a new array."""
    k = len(b_bw)
    starts = np.cumsum(np.r_[0, k:0:-1])
    for j in range(k):
        col = a_bw[starts[j] : starts[j + 1]]
        np.sqrt(col[0], out=col[0])
        col[1:] /= col[0]
        for i in range(j + 1, k):
            a_bw[starts[i] : starts[i + 1]] -= col[i - j] * col[i - j :]
    x = np.array(b_bw, dtype=float, order="C")
    for j in range(k):
        x[j] /= a_bw[starts[j]]
        x[j + 1 :] -= a_bw[starts[j] + 1 : starts[j + 1]] * x[j]
    for j in reversed(range(k)):
        col = a_bw[starts[j] : starts[j + 1]]
        for i in reversed(range(j + 1, k)):
            x[j] -= col[i - j] * x[i]
        x[j] /= col[0]
    return a_bw, x


@pytest.mark.parametrize("k", [1, 3, 9])
def test_factor_and_substitute_keep_their_bits_in_scratch(k):
    """Writing each product into one preallocated scratch array keeps every
    bit of the factor, the pivots and the solution."""
    nc = 37
    m = RNG.normal(size=(nc, k, k))
    a = m @ m.transpose(0, 2, 1) + k * np.eye(k)
    b_bw = RNG.normal(size=(k, nc))
    lower, x_want = factor_and_substitute_with_temporaries(_pack(a), b_bw)
    factor = _factor(_pack(a))
    assert_bitwise(factor[0], lower)
    assert_bitwise(_substitute(factor, b_bw), x_want)


@pytest.mark.parametrize("defect", ["singular", "indefinite", "nan"])
def test_solve_projected_names_the_first_failing_cell(defect):
    """A singular, indefinite or non-finite cell in the middle of a batch
    is named, before any later one and without a RuntimeWarning; ``first``
    shifts the numbering."""
    nc, k = 9, 4
    m = RNG.normal(size=(nc, k, k))
    a = m @ m.transpose(0, 2, 1) + k * np.eye(k)
    for cell in (5, 7):
        if defect == "singular":
            a[cell, -1, :] = a[cell, :, -1] = 0.0
        elif defect == "indefinite":
            a[cell] = np.diag([1.0, -1.0, 1.0, 1.0])
        else:
            a[cell, 2, 1] = a[cell, 1, 2] = np.nan
    b = RNG.normal(size=(k, nc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LocalSolveError, match=r"cell 5\b"):
            _solve_projected(a, b)
        with pytest.raises(LocalSolveError, match=r"cell 105\b"):
            _solve_projected(a, b, first=100)


def test_solve_projected_singular_system():
    a_bw = np.zeros((1, 3, 3))
    b_bw = np.ones((1, 3))
    with pytest.raises(LocalSolveError, match="cell 0"):
        _solve_projected(a_bw, b_bw.T)


def test_projected_systems_positive_definite_on_real_mesh():
    """After Dirichlet elimination and kernel projection every cell system
    is symmetric positive definite, including cells with constrained DOFs."""
    problem = lshaped()
    mesh = problem.mesh
    u = solve_poisson(mesh, 1, f=problem.f, u_dirichlet=problem.u_dirichlet)
    assert (_patterns(mesh) > 0).any()
    a_bw = _projected_matrices(mesh, (2, 1))
    assert np.abs(a_bw - a_bw.transpose(0, 2, 1)).max() < 1e-13
    eigs = np.linalg.eigvalsh(a_bw)
    assert eigs.min() > 1e-12


# ---------------------------------------------------------------------------
# the assembled estimator
# ---------------------------------------------------------------------------


def test_estimate_returns_indicator_and_lift():
    problem = lshaped()
    u = solve_poisson(problem.mesh, 1, f=problem.f,
                      u_dirichlet=problem.u_dirichlet)
    indicator, lift = estimate(u, problem.f, pair=(2, 1))
    assert isinstance(indicator, IndicatorField)
    assert len(indicator) == problem.mesh.num_cells
    assert lift.shape == (problem.mesh.num_cells, 6)
    assert indicator.global_value > 0.0


def test_estimate_bubble_positive_on_singular_problem():
    problem = lshaped()
    u = solve_poisson(problem.mesh, 1, f=problem.f,
                      u_dirichlet=problem.u_dirichlet)
    indicator, lift = estimate_bubble(u, problem.f)
    assert lift.shape == (problem.mesh.num_cells, 7)
    assert (indicator.values >= 0.0).all()
    assert indicator.global_value > 0.0


@pytest.mark.parametrize("kind", [(2, 1), (4, 2), "bubble"], ids=str)
def test_estimate_blocks_match_one_block(monkeypatch, kind):
    """Blocking the loads, projections and solves over cells changes no
    bit, with a block size that does not divide the cell count and cells
    of every Dirichlet pattern: at degree 2, and at degree 1 (facet data
    constant along each edge) with and without Neumann data."""
    mesh = randomly_tagged_mesh(5, seed=1)
    calls = []

    def f(x, y):
        calls.append(len(x))
        return np.exp(x) - y * y

    for degree, g in [(2, NEUMANN_DATA), (1, NEUMANN_DATA), (1, None)]:
        u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y,
                        FunctionSpace(mesh, degree))
        assert fem.ERROR_BLOCK >= mesh.num_cells
        want_eta, want_lift = _estimate_kind(kind, u, f, g)
        monkeypatch.setattr(fem, "ERROR_BLOCK", 10)
        assert mesh.num_cells % fem.ERROR_BLOCK != 0
        calls.clear()
        eta, lift = _estimate_kind(kind, u, f, g)
        assert calls == [10] * (mesh.num_cells // 10) + [mesh.num_cells % 10]
        assert np.array_equal(eta.values, want_eta.values)
        assert np.array_equal(lift, want_lift)
        monkeypatch.undo()


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kind", [(2, 1), (4, 2), "bubble"], ids=str)
def test_shared_factors_change_no_bit(monkeypatch, kind, degree):
    """A primal and a dual estimate sharing one factors dict give bitwise
    the indicators and lifts of separate calls, on a mesh with Dirichlet
    and Neumann edges of every pattern and factors spread over blocks."""
    monkeypatch.setattr(fem, "ERROR_BLOCK", 10)
    mesh = randomly_tagged_mesh(5, seed=3)
    space = FunctionSpace(mesh, degree)
    u = interpolate(lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x * y, space)
    z = interpolate(lambda x, y: np.exp(-4.0 * ((x - 0.4) ** 2 + y * y)), space)
    f = lambda x, y: np.exp(x) - y * y
    g = lambda x, y: np.cos(x + 2 * y)
    c = lambda x, y: np.where(x < 0.5, 1.0 + y, 0.0)
    want = [_estimate_kind(kind, u, f, g), _estimate_kind(kind, z, c, None)]
    factors = {}
    got = [_estimate_kind(kind, u, f, g, factors), _estimate_kind(kind, z, c, None, factors)]
    assert len(factors["blocks"]) == -(-mesh.num_cells // 10) > 1
    for (eta, lift), (want_eta, want_lift) in zip(got, want):
        assert np.array_equal(eta.values, want_eta.values)
        assert np.array_equal(lift, want_lift)
    # the stored factors are frozen, and a third function reuses them too
    assert not any(array.flags.writeable for factor in factors["blocks"].values()
                   for array in factor)
    eta, lift = _estimate_kind(kind, u, f, g, factors)
    assert np.array_equal(eta.values, want[0][0].values) and np.array_equal(lift, want[0][1])


def test_shared_factors_are_read_only():
    """The packed factors and pivots stored in a shared ``factors`` dict
    refuse writes, so no later estimate can change what the next one
    substitutes into; substituting only reads them."""
    mesh = randomly_tagged_mesh(3, seed=6)
    u = interpolate(lambda x, y: np.sin(2 * x) + y, FunctionSpace(mesh, 1))
    factors = {}
    want = estimate(u, SOURCE, pair=(3, 1), factors=factors)[0].values
    (lower, pivots), = factors["blocks"].values()
    assert lower.shape == (7 * 8 // 2, mesh.num_cells) and pivots.shape == (7, mesh.num_cells)
    for array in (lower, pivots):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    x = _substitute((lower, pivots), np.ones((7, mesh.num_cells)))
    assert x.flags.writeable and np.isfinite(x).all()
    assert np.array_equal(estimate(u, SOURCE, pair=(3, 1), factors=factors)[0].values, want)


def test_shared_factors_reject_another_mesh_pair_or_block_size(monkeypatch):
    """A factors dict started on one mesh, pair and block size refuses any
    other, before any data is evaluated."""
    mesh = randomly_tagged_mesh(3, seed=0)
    twin = randomly_tagged_mesh(3, seed=0)
    shape = lambda x, y: x * x + np.sin(y)
    u = interpolate(shape, FunctionSpace(mesh, 1))
    calls = []

    def f(x, y):
        calls.append(len(x))
        return 1.0 + x

    factors = {}
    estimate(u, f, pair=(2, 1), factors=factors)
    calls.clear()
    with pytest.raises(ValueError, match="another mesh"):
        estimate(interpolate(shape, FunctionSpace(twin, 1)), f, pair=(2, 1), factors=factors)
    other_pair = rf"\(2, 1\) in blocks of {fem.ERROR_BLOCK} cells, not for pair \(3, 1\)"
    with pytest.raises(ValueError, match=other_pair):
        estimate(u, f, pair=(3, 1), factors=factors)
    with pytest.raises(ValueError, match="not for pair 'bubble'"):
        estimate_bubble(u, f, factors=factors)
    monkeypatch.setattr(fem, "ERROR_BLOCK", 10)
    with pytest.raises(ValueError, match=r"not for pair \(2, 1\) in blocks of 10\b"):
        estimate(u, f, pair=(2, 1), factors=factors)
    assert calls == []


@pytest.mark.parametrize("pair", [(2, 1), (3, 1)], ids=str)
def test_estimate_vanishes_on_resolved_solution(pair):
    """A harmonic quadratic lies in the P2 space, so the discrete solution
    is exact and every local problem has (numerically) zero data."""
    exact = lambda x, y: x * x - y * y
    mesh = unit_square_mesh(3)
    u = solve_poisson(mesh, 2, f=lambda x, y: np.zeros_like(x),
                      u_dirichlet=exact)
    indicator, _ = estimate(u, lambda x, y: np.zeros_like(x), pair=pair)
    assert indicator.global_value < 1e-9


def test_estimate_scales_linearly_with_data():
    """Scaling (f, g, u_D) by a constant scales every indicator by its
    absolute value, because the whole pipeline is linear in the data."""

    def tagger(x, y):
        return np.where(np.isclose(x, 1.0), NEUMANN, DIRICHLET)

    mesh = tagged_unit_square(3, tagger)
    f = lambda x, y: np.sin(3.0 * x) + y
    g = lambda x, y: 1.0 + 0.5 * y
    u_d = lambda x, y: x * y

    scale = -2.5
    fs = lambda x, y: scale * f(x, y)
    gs = lambda x, y: scale * g(x, y)
    us = lambda x, y: scale * u_d(x, y)

    u1 = solve_poisson(mesh, 2, f=f, u_dirichlet=u_d, g=g)
    u2 = solve_poisson(mesh, 2, f=fs, u_dirichlet=us, g=gs)
    eta1, _ = estimate(u1, f, g=g, pair=(2, 1))
    eta2, _ = estimate(u2, fs, g=gs, pair=(2, 1))
    assert np.abs(eta2.values - abs(scale) * eta1.values).max() < 1e-10


def test_estimate_validates_pair():
    mesh = unit_square_mesh(2)
    u = solve_poisson(mesh, 1, f=lambda x, y: np.ones_like(x),
                      u_dirichlet=lambda x, y: np.zeros_like(x))
    with pytest.raises(ValueError):
        estimate(u, lambda x, y: np.ones_like(x), pair=(9, 1))
