"""Tests for the benchmark problem definitions and their exact solutions."""

import dataclasses

import numpy as np
import pytest

from afem2d.fem import FunctionSpace, eval_data, interpolate
from afem2d.mesh import DIRICHLET, NEUMANN, Mesh
from afem2d.adapt import evaluate_goal
import afem2d.problems as problems
from afem2d.problems import (
    PROBLEMS,
    GoalSpec,
    Problem,
    audit,
    boundary_singularity,
    goal_reference_quadrature,
    lshaped,
    lshaped_goal,
    lshaped_mesh,
    lshaped_mixed,
    make_problem,
    unit_square_mesh,
)

RNG = np.random.default_rng(20240821)

FROZEN_GOAL_REFERENCE = 2.01022918211522e-01


# ---------------------------------------------------------------------------
# catalogue and wiring audit
# ---------------------------------------------------------------------------


def test_catalogue_names():
    assert sorted(PROBLEMS) == [
        "boundary-sing", "lshaped", "lshaped-goal", "lshaped-mixed",
    ]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_audit_passes_for_every_problem(name):
    problem = make_problem(name)
    assert audit(problem) is problem


def test_make_problem_unknown_name():
    with pytest.raises(ValueError, match="unknown problem"):
        make_problem("spherical-cow")


def test_make_problem_passes_alpha_to_boundary_singularity():
    problem = make_problem("boundary-sing", alpha=0.8)
    assert problem.params["alpha"] == 0.8
    # other problems ignore the knob
    assert make_problem("lshaped").params["alpha"] == pytest.approx(2.0 / 3.0)


def test_audit_catches_inconsistent_dirichlet_data():
    bad = dataclasses.replace(lshaped(), u_dirichlet=lambda x, y: x + y)
    with pytest.raises(ValueError, match="Dirichlet data"):
        audit(bad)


def test_audit_catches_inconsistent_neumann_data():
    bad = dataclasses.replace(lshaped_mixed(), g=lambda x, y: np.ones_like(x))
    with pytest.raises(ValueError, match="Neumann data"):
        audit(bad)


def test_audit_checks_the_flux_against_zero_without_neumann_data():
    """g None is zero data, so an exact flux that does not vanish on the
    Neumann leg fails the audit."""
    problem = dataclasses.replace(lshaped_mixed(), g=None)
    assert audit(problem) is problem
    bad = dataclasses.replace(problem, grad_exact=lambda x, y: (np.ones_like(x), np.ones_like(y)))
    with pytest.raises(ValueError, match="Neumann data"):
        audit(bad)


def linear_flux_problem(g):
    """u = x on the unit square with Neumann data ``g`` on x = 1, where
    the outward normal derivative of u is 1."""
    square = unit_square_mesh(2)
    mesh = Mesh(square.vertices, square.cells,
                boundary=lambda x, y: np.where(np.abs(x - 1.0) < 1e-12, NEUMANN, DIRICHLET))
    return Problem(
        name="unit-square-x",
        mesh=mesh,
        f=lambda x, y: np.zeros_like(x),
        u_dirichlet=lambda x, y: x,
        g=lambda x, y: np.full_like(x, g),
        u_exact=lambda x, y: x,
        grad_exact=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
    )


def test_audit_takes_the_outward_normal_on_neumann_facets():
    """dn(u) is nonzero here, so a normal pointing inwards would flip the
    sign of the flux that the data is checked against."""
    good = linear_flux_problem(1.0)
    assert np.any(good.mesh.facet_tags == NEUMANN)
    assert audit(good) is good
    with pytest.raises(ValueError, match="Neumann data"):
        audit(linear_flux_problem(-1.0))


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_boundary_singularity_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        make_problem("boundary-sing", alpha=alpha)


def test_audit_fails_on_nan_data():
    """NaN compares False with everything, so each check must fail on it."""
    nan = lambda x, y: np.full_like(np.asarray(x, dtype=float), np.nan)
    with pytest.raises(ValueError, match="Dirichlet data"):
        audit(dataclasses.replace(lshaped(), u_dirichlet=nan))
    with pytest.raises(ValueError, match="Neumann data"):
        audit(dataclasses.replace(lshaped_mixed(), g=nan))
    with pytest.raises(ValueError, match="does not match"):
        audit(dataclasses.replace(boundary_singularity(), f=nan))


def test_audit_catches_inconsistent_forcing():
    good = boundary_singularity()
    bad = dataclasses.replace(good, f=lambda x, y: np.ones_like(x))
    with pytest.raises(ValueError, match="does not match"):
        audit(bad)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def test_lshaped_mesh_counts_and_domain():
    mesh = lshaped_mesh(2)
    assert mesh.num_cells == 6 * 4 * 4
    assert abs(0.5 * mesh.det.sum() - 3.0) < 1e-12
    # no vertex inside the excluded third quadrant
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    assert not np.any((x < -1e-12) & (y < -1e-12))


def test_unit_square_mesh_counts():
    mesh = unit_square_mesh(4)
    assert mesh.num_vertices == 25
    assert mesh.num_cells == 32
    assert abs(0.5 * mesh.det.sum() - 1.0) < 1e-12
    assert np.all(mesh.facet_tags[mesh.boundary_facets()] == DIRICHLET)


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


def test_lshaped_solution_values():
    problem = lshaped()
    u = problem.u_exact
    assert u(1.0, 0.0) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-14)
    # the singular mode vanishes along both reentrant legs
    assert u(0.0, -1.0) == pytest.approx(0.0, abs=1e-14)
    assert u(-1.0, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_lshaped_solution_harmonic_away_from_corner():
    problem = lshaped()
    u = problem.u_exact
    h = 1e-4
    for x, y in [(0.5, 0.5), (-0.5, 0.5), (0.3, -0.6), (0.9, 0.1)]:
        lap = (
            u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4.0 * u(x, y)
        ) / h**2
        assert abs(lap) < 1e-5


@pytest.mark.parametrize("factory", [lshaped, lshaped_mixed])
def test_gradient_matches_finite_differences(factory):
    problem = factory()
    u, grad = problem.u_exact, problem.grad_exact
    h = 1e-6
    pts = RNG.uniform(0.2, 0.9, size=(8, 2))  # first quadrant, away from 0
    pts[::2, 1] *= -1.0  # some points below the x-axis (still in domain)
    for x, y in pts:
        gx, gy = grad(x, y)
        fx = (u(x + h, y) - u(x - h, y)) / (2.0 * h)
        fy = (u(x, y + h) - u(x, y - h)) / (2.0 * h)
        assert abs(gx - fx) < 1e-7
        assert abs(gy - fy) < 1e-7


def _polar_gradient(alpha, x, y):
    """alpha r^(alpha - 1) (sin, cos) of alpha (theta + pi/2) - theta, and
    alpha r^(alpha - 1) = |grad u|."""
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    arg = alpha * (theta + 0.5 * np.pi) - theta
    scale = alpha * r ** (alpha - 1.0)
    return scale * np.sin(arg), scale * np.cos(arg), scale


@pytest.mark.parametrize("factory", [lshaped, lshaped_mixed], ids=["alpha=2/3", "alpha=1/3"])
def test_gradient_matches_polar_formula(factory):
    """The half-angle gradient is alpha r^(alpha - 1) (sin, cos) to 4e-15
    |grad u| at random points of the sector, at points 1e-12 to 1e-6 from
    the corner, on the ray theta = pi (y = +0, x < 0) and on theta = -pi/2;
    Python floats and 0-d arrays give 0-d results."""
    problem = factory()
    rng = np.random.default_rng(15)
    theta = rng.uniform(-0.5 * np.pi, np.pi, 2000)
    r = np.concatenate([rng.uniform(0.0, np.sqrt(2.0), 1000), np.logspace(-12, -6, 1000)])
    ray = np.logspace(-12, 0, 25)
    x = np.concatenate([r * np.cos(theta), -ray, np.zeros(25)])
    y = np.concatenate([r * np.sin(theta), np.zeros(25), -ray])
    cases = [(x, y), (-0.5, 0.0), (0.3, -0.2), (np.array(0.0), np.array(-0.7))]
    for x, y in cases:
        gx, gy = problem.grad_exact(x, y)
        want_x, want_y, scale = _polar_gradient(problem.params["alpha"], x, y)
        assert np.shape(gx) == np.shape(gy) == np.shape(x)
        assert np.all(np.abs(gx - want_x) <= 4e-15 * scale)
        assert np.all(np.abs(gy - want_y) <= 4e-15 * scale)


def test_mixed_problem_neumann_side():
    problem = lshaped_mixed()
    assert problem.u_exact(1.0, 0.0) == pytest.approx(0.5, abs=1e-14)
    # homogeneous flux data on the Neumann leg
    assert problem.g is None
    gx, gy = problem.grad_exact(-0.5, 0.0)
    assert abs(gy) < 1e-14  # normal derivative vanishes on y = 0, x < 0
    # Neumann tags appear exactly on that leg
    mesh = problem.mesh
    neumann = np.flatnonzero(mesh.facet_tags == NEUMANN)
    assert neumann.size > 0
    mids = mesh.vertices[mesh.facets[neumann]].mean(axis=1)
    assert np.all(np.abs(mids[:, 1]) < 1e-12)
    assert np.all(mids[:, 0] < 0.0)


def test_boundary_singularity_data():
    problem = boundary_singularity(alpha=0.7)
    assert problem.f(1.0, 0.3) == pytest.approx(0.21, abs=1e-14)
    assert problem.u_exact(0.25, 0.9) == pytest.approx(0.25**0.7, abs=1e-14)
    gx, gy = problem.grad_exact(0.5, 0.5)
    assert gx == pytest.approx(0.7 * 0.5 ** (-0.3), abs=1e-12)
    assert gy == 0.0
    with pytest.raises(ValueError, match="alpha"):
        boundary_singularity(alpha=0.5)
    with pytest.raises(ValueError, match="alpha"):
        boundary_singularity(alpha=0.3)


def test_boundary_singularity_data_values_are_pinned():
    """u and f depend on x alone; eval_data broadcasts them, bit for bit the
    values of the formulas plus 0 * y, also where x = 0; scalar calls
    return floats."""
    alpha = 0.7
    problem = boundary_singularity(alpha=alpha)
    pts = np.random.default_rng(3).random((40, 6, 2))
    pts[0, :, 0] = 0.0
    x, y = pts[..., 0], pts[..., 1]
    with np.errstate(divide="ignore"):
        got = eval_data(problem.f, pts), eval_data(problem.u_exact, pts)
        want = alpha * (1.0 - alpha) * x ** (alpha - 2.0) + 0.0 * y, x**alpha + 0.0 * y
    for a, b in zip(got, want):
        assert a.shape == (40, 6) and a.tobytes() == b.tobytes()
    for fn in (problem.f, problem.u_exact, problem.u_dirichlet):
        assert isinstance(fn(0.5, 0.3), float)


# ---------------------------------------------------------------------------
# the goal density
# ---------------------------------------------------------------------------


def test_goal_density_peak_and_support():
    spec = GoalSpec()
    peak = np.exp(-1.0) / 0.35**2
    assert spec.c(0.2, 0.2) == pytest.approx(peak, rel=1e-14)
    # radially decreasing towards the support boundary
    radii = np.array([0.0, 0.1, 0.2, 0.3, 0.34])
    values = spec.c(0.2 + radii, 0.2)
    assert (np.diff(values) < 0.0).all()
    assert values[-1] > 0.0
    # identically zero outside (and on) the support circle
    assert spec.c(0.2 + 0.35, 0.2) == 0.0
    assert spec.c(0.2, 0.2 - 0.36) == 0.0
    assert spec.c(-1.0, -1.0) == 0.0
    # approaches zero continuously at the boundary: no jump
    assert spec.c(0.2 + 0.35 - 1e-8, 0.2) < 1e-12


def test_goal_density_vectorized_and_nonnegative():
    spec = GoalSpec()
    xs = RNG.uniform(-1.0, 1.0, size=200)
    ys = RNG.uniform(-1.0, 1.0, size=200)
    values = spec.c(xs, ys)
    assert values.shape == (200,)
    assert (values >= 0.0).all()
    inside = ((xs - 0.2) ** 2 + (ys - 0.2) ** 2) < 0.35**2
    assert ((values > 0.0) == inside).all()


@pytest.mark.parametrize(
    "params",
    [{"eps": -0.35}, {"eps": 0.0}, {"eps": float("nan")}, {"eps": float("inf")},
     {"xbar": float("nan")}, {"ybar": float("-inf")}],
    ids=["eps-negative", "eps-zero", "eps-nan", "eps-inf", "xbar-nan", "ybar-inf"],
)
def test_goal_spec_rejects_a_density_without_support(params):
    """eps enters c squared, so eps = -0.35 would define the density of
    0.35 while its support_cells came out empty and the dual load zero;
    eps = 0 or a non-finite centre defines no density at all."""
    with pytest.raises(ValueError, match="finite eps > 0"):
        GoalSpec(**params)


def _full_support_density(spec, x, y):
    """GoalSpec.c as first written: exp and both masks at every point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rbar2 = ((x - spec.xbar) / spec.eps) ** 2 + ((y - spec.ybar) / spec.eps) ** 2
    inside = rbar2 < 1.0
    bump = np.exp(-1.0 / np.where(inside, 1.0 - rbar2, 1.0))
    return np.where(inside, bump, 0.0) / spec.eps**2


@pytest.mark.parametrize("spec", [GoalSpec(), GoalSpec(eps=0.5, xbar=0.25, ybar=0.0)],
                         ids=["default", "exact-rim"])
def test_goal_density_bitwise_the_full_support_formula(spec):
    """Evaluating exp on the support only changes no bit and no type: at
    random points of several array lengths and shapes, on the support
    circle (where "exact-rim" has rbar^2 exactly 1), at the centre, far
    outside, and for Python floats and 0-d arrays."""
    rng = np.random.default_rng(7)
    rim = (spec.xbar + spec.eps, spec.ybar)
    cases = [(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)) for n in (1, 7, 8, 33, 1000)]
    cases += [(rng.uniform(-1.0, 1.0, (40, 6)), rng.uniform(-1.0, 1.0, (40, 6))),
              (rng.uniform(-1.0, 1.0, (5, 1)), rng.uniform(-1.0, 1.0, (1, 4))),
              (np.array([rim[0], spec.xbar, 50.0]), np.array([rim[1], spec.ybar, -50.0])),
              rim, (spec.xbar, spec.ybar), (-50.0, 50.0), (np.array(0.3), np.array(0.1)),
              (np.float64(0.3), 0.1), (np.empty(0), np.empty(0))]
    for x, y in cases:
        got, want = spec.c(x, y), _full_support_density(spec, x, y)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_gauss_legendre_matches_numpy():
    for n in (1, 2, 5, 200, 400):
        x, w = problems._gauss_legendre(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        assert np.abs(x - want_x).max() <= 1e-14
        assert np.abs(w - want_w).max() <= 1e-14


def test_goal_problem_carries_lshaped_data():
    problem = lshaped_goal()
    base = lshaped()
    assert problem.goal is not None
    assert problem.u_exact(0.5, 0.5) == base.u_exact(0.5, 0.5)
    assert problem.mesh.num_cells == base.mesh.num_cells


# ---------------------------------------------------------------------------
# the quadrature reference value
# ---------------------------------------------------------------------------


def test_goal_reference_requires_exact_solution():
    problem = dataclasses.replace(lshaped_goal(), u_exact=None)
    with pytest.raises(ValueError, match="exact solution"):
        goal_reference_quadrature(problem)
    with pytest.raises(ValueError, match="goal"):
        goal_reference_quadrature(lshaped())


def test_goal_reference_frozen_value():
    value = goal_reference_quadrature(lshaped_goal())
    assert value == pytest.approx(FROZEN_GOAL_REFERENCE, abs=1e-8)


def test_goal_reference_against_mesh_quadrature():
    """With u_exact replaced by 1 the reference reduces to the mass of c
    inside the domain, which mesh quadrature reproduces independently."""
    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    fake = dataclasses.replace(lshaped_goal(), u_exact=one)
    mass = goal_reference_quadrature(fake)
    assert 0.0 < mass
    # upper bound: full (unclipped) mollifier mass 2 pi eps^2 ... reduces to
    # a 1-D radial integral evaluated to high accuracy
    from scipy import integrate

    radial, _ = integrate.quad(
        lambda r: 2.0 * np.pi * r * np.exp(-1.0 / (1.0 - r**2)), 0.0, 1.0
    )
    assert mass < radial

    mesh = lshaped_mesh(5)
    u1 = interpolate(one, FunctionSpace(mesh, 1))
    approx = evaluate_goal(u1, lshaped_goal().goal.c)
    assert abs(mass - approx) < 1e-3


def dblquad_goal_reference(problem):
    """J(u) by SciPy's adaptive dblquad over the part of the support disk
    inside the L-shape; the disk must lie inside the square (-1, 1)^2."""
    from scipy import integrate

    spec, u = problem.goal, problem.u_exact
    assert max(abs(spec.xbar), abs(spec.ybar)) + spec.eps < 1.0
    half = lambda x: np.sqrt(max(spec.eps**2 - (x - spec.xbar) ** 2, 0.0))
    integrand = lambda y, x: float(spec.c(x, y) * u(x, y))
    x_min, x_max = spec.xbar - spec.eps, spec.xbar + spec.eps
    total = 0.0
    if x_min < 0.0:  # the third quadrant is not in the domain
        total += integrate.dblquad(
            integrand, x_min, 0.0, lambda x: max(spec.ybar - half(x), 0.0),
            lambda x: spec.ybar + half(x), epsabs=1e-13, epsrel=1e-13,
        )[0]
    total += integrate.dblquad(
        integrand, max(x_min, 0.0), x_max, lambda x: spec.ybar - half(x),
        lambda x: spec.ybar + half(x), epsabs=1e-13, epsrel=1e-13,
    )[0]
    return total


@pytest.mark.parametrize("spec", [
    pytest.param(GoalSpec(), id="disk-holds-corner"),
    pytest.param(GoalSpec(xbar=0.3, ybar=0.25), id="disk-misses-corner"),
])
def test_goal_reference_matches_dblquad(spec):
    """The polar rule against adaptive quadrature in Cartesian coordinates,
    with the singular u_exact, for a disk around the corner and one 0.04
    away from it."""
    problem = dataclasses.replace(lshaped_goal(), goal=spec)
    assert abs(goal_reference_quadrature(problem) - dblquad_goal_reference(problem)) <= 1e-12


@pytest.mark.parametrize("spec", [
    pytest.param(GoalSpec(xbar=0.8, ybar=0.3), id="crosses-x=1"),
    pytest.param(GoalSpec(xbar=0.85, ybar=0.85), id="holds-square-corner"),
    pytest.param(GoalSpec(eps=0.3, xbar=-0.5, ybar=0.1), id="crosses-reentrant-edge"),
    pytest.param(GoalSpec(eps=0.3, xbar=-0.2, ybar=-0.25), id="centre-in-missing-quadrant"),
])
def test_goal_reference_clips_the_disk_at_the_domain(spec):
    """With u = 1 the reference is the mass of c inside the L-shape: below
    the whole disk's mass when the disk leaves the domain, and reproduced
    by mesh quadrature, which knows nothing of the disk's geometry."""
    from scipy import integrate

    one = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    mass = goal_reference_quadrature(dataclasses.replace(lshaped_goal(), goal=spec, u_exact=one))
    whole, _ = integrate.quad(lambda r: 2.0 * np.pi * r * np.exp(-1.0 / (1.0 - r**2)), 0.0, 1.0)
    assert 0.0 < mass < whole - 0.02
    u1 = interpolate(one, FunctionSpace(lshaped_mesh(5), 1))
    assert abs(mass - evaluate_goal(u1, spec.c)) < 1e-7


def test_goal_reference_raises_when_unresolved(monkeypatch):
    monkeypatch.setattr(problems, "GOAL_RULE_POINTS", 8)
    with pytest.raises(ValueError, match=r"unresolved: \|J_n - J_2n\|"):
        goal_reference_quadrature(lshaped_goal())
