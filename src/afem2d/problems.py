"""Benchmark Poisson problems with known solution behavior.

All exact solutions here are of corner-singularity type r^a sin(a (theta
+ pi/2)) or the one-dimensional x^a, so convergence of uniform meshes is
limited and adaptivity pays off.
"""

import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import legder, legval
from scipy.linalg import eigvalsh_tridiagonal

from .fem import eval_data
from .mesh import DIRICHLET, NEUMANN, Mesh, orient_longest_edge, uniform_refine

# Gauss-Legendre points per direction and panel of goal_reference_quadrature's
# polar rule, and the bound on its error estimate |J_n - J_2n|.
GOAL_RULE_POINTS = 200
GOAL_RULE_TOL = 1e-12

# Slack of GoalSpec.support_cells, relative to the sizes of eps and of the
# coordinates: far above the rounding of mapped points and of rbar^2.
SUPPORT_MARGIN = 1e-9

# GoalSpec.support_cells by mesh object, then by spec: a mesh is immutable,
# so its supports are found once and dropped with it.
_SUPPORTS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class GoalSpec:
    """Compactly supported goal density c placed near the corner.

    c(x, y) = eps^-2 exp(-1 / (1 - rbar^2)) inside the unit rbar-disk and
    0 outside, with rbar^2 = ((x - xbar)/eps)^2 + ((y - ybar)/eps)^2: the
    standard mollifier, smooth everywhere including across rbar = 1, with
    peak eps^-2 e^-1 at the center.  ``c`` evaluates the exponential on the
    support only.

    The spec is itself the data callable ``c``, which the goal loop passes
    as the dual's data: ``spec(x, y)`` calls ``spec.c(x, y)``, and
    ``support_cells(mesh)`` tells the assembly and the estimators which
    cells the support can reach (see :meth:`support_cells`).  A centre or
    eps that is not finite, or eps <= 0 (whose support is empty), raises.
    """

    eps: float = 0.35
    xbar: float = 0.2
    ybar: float = 0.2

    def __post_init__(self):
        if not (np.isfinite([self.eps, self.xbar, self.ybar]).all() and self.eps > 0):
            raise ValueError(f"goal density needs a finite eps > 0 and a finite centre: {self!r}")

    def __call__(self, x, y):
        return self.c(x, y)

    def support_cells(self, mesh):
        """Sorted indices of the cells on which ``c`` can be nonzero, as a
        read-only array found once per mesh object (the assembly and the
        estimators of one mesh all ask for it).

        A cell lies in the disk about its centroid whose radius is the
        largest centroid-vertex distance, so it is dropped only when that
        disk misses the support disk by more than ``SUPPORT_MARGIN`` times
        (eps + the largest coordinate of the centroid and the center).
        The margin is far above the rounding of the mapped quadrature
        points and of rbar^2, so ``c`` is exactly 0.0 at every point of a
        dropped cell, such as the points of every ``triangle_rule``.
        """
        supports = _SUPPORTS.setdefault(mesh, {})
        if self not in supports:
            supports[self] = self._find_support(mesh)
            supports[self].setflags(write=False)
        return supports[self]

    def _find_support(self, mesh):
        # (3, nc) vertex coordinates, C-ordered so that each corner is a row
        x, y = (np.take(mesh.vertices[:, i], mesh.cells.T) for i in (0, 1))
        cx, cy = x.sum(axis=0) / 3.0, y.sum(axis=0) / 3.0
        radius = np.sqrt(((x - cx) ** 2 + (y - cy) ** 2).max(axis=0))
        dist = np.hypot(cx - self.xbar, cy - self.ybar)
        scale = self.eps + np.maximum(np.abs(cx), np.abs(cy)) + max(abs(self.xbar), abs(self.ybar))
        return np.flatnonzero(dist - radius < self.eps + SUPPORT_MARGIN * scale)

    def c(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rbar2 = ((x - self.xbar) / self.eps) ** 2 + ((y - self.ybar) / self.eps) ** 2
        inside = rbar2 < 1.0
        out = np.zeros_like(rbar2)
        out[inside] = np.exp(-1.0 / (1.0 - rbar2[inside])) / self.eps**2
        return out[()]  # a NumPy scalar for scalar input


@dataclass(frozen=True)
class Problem:
    """A Poisson problem -lap(u) = f with tagged boundary data.

    The data ``f``, ``g`` and ``u_dirichlet`` are vectorized callables of
    (x, y); None means zero, and the assembly and the estimators then
    evaluate nothing for it.  ``f=None`` thus says that ``u_exact`` is
    harmonic, and :func:`~afem2d.adapt.adapt_loop` then measures the H1
    error by Green's identity on the boundary (see
    :func:`~afem2d.fem.h1_seminorm_error`).
    """

    name: str
    mesh: Mesh
    f: Optional[Callable]
    u_dirichlet: Callable
    g: Optional[Callable] = None
    u_exact: Optional[Callable] = None
    grad_exact: Optional[Callable] = None
    goal: Optional[GoalSpec] = None
    params: dict = field(default_factory=dict)


def _polar_solution(alpha):
    """u = r^alpha sin(alpha (theta + pi/2)) and its gradient.

    Vanishes on theta = -pi/2; harmonic away from the origin.  The gradient
    alpha r^(alpha - 1) (sin 2p, cos 2p), p = ((alpha - 1) theta + alpha pi
    / 2) / 2, is formed from t = tan p by the half-angle identities sin 2p =
    2t / (1 + t^2) and cos 2p = (1 - t^2) / (1 + t^2), and r^(alpha - 1)
    from x^2 + y^2: arctan2, tan and one power, whose NumPy loops are
    vectorized, and no hypot, sin or cos.  For 0 < alpha < 4/3, |p| < pi/2
    on the whole plane, so t stays finite.
    """

    def u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        return r**alpha * np.sin(alpha * (theta + 0.5 * np.pi))

    def grad(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.tan(0.5 * (alpha - 1.0) * np.arctan2(y, x) + 0.25 * alpha * np.pi)
        t2 = t * t
        q = alpha * (x * x + y * y) ** (0.5 * (alpha - 1.0)) / (1.0 + t2)
        return 2.0 * q * t, q * (1.0 - t2)

    return u, grad


def lshaped_mesh(refinements=2, boundary=None):
    """Six right triangles covering (-1,1)^2 minus the third quadrant,
    diagonals through the reentrant corner, then uniform refinements."""
    vertices = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [-1.0, 1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
            [1.0, -1.0],
        ]
    )
    cells = np.array(
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 6, 7], [0, 7, 1]]
    )
    mesh = Mesh(vertices, orient_longest_edge(vertices, cells), boundary=boundary)
    return uniform_refine(mesh, refinements)


def lshaped(refinements=2):
    """L-shaped Dirichlet problem, u = r^(2/3) sin(2/3 (theta + pi/2))."""
    u, grad = _polar_solution(2.0 / 3.0)
    return Problem(
        name="lshaped",
        mesh=lshaped_mesh(refinements),
        f=None,
        u_dirichlet=u,
        u_exact=u,
        grad_exact=grad,
        params={"alpha": 2.0 / 3.0},
    )


def lshaped_mixed(refinements=2):
    """L-shape with a homogeneous Neumann edge on {x < 0, y = 0} (g None)
    and the weaker r^(1/3) singularity."""

    def boundary(x, y):
        return np.where((np.abs(y) < 1e-12) & (x < 0.0), NEUMANN, DIRICHLET)

    u, grad = _polar_solution(1.0 / 3.0)
    return Problem(
        name="lshaped-mixed",
        mesh=lshaped_mesh(refinements, boundary=boundary),
        f=None,
        u_dirichlet=u,
        u_exact=u,
        grad_exact=grad,
        params={"alpha": 1.0 / 3.0},
    )


def unit_square_mesh(divisions=4):
    n = divisions
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    cells = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b = a + n + 1
            cells.append([a, a + 1, b + 1])
            cells.append([a, b + 1, b])
    cells = orient_longest_edge(vertices, np.array(cells))
    return Mesh(vertices, cells)


def boundary_singularity(alpha=0.7, divisions=4):
    """u = x^alpha on the unit square; f blows up along the edge x = 0."""
    if not (np.isfinite(alpha) and alpha > 0.5):
        raise ValueError(f"alpha must be finite and exceed 1/2 for u in H^1, got {alpha!r}")

    def u(x, y):
        return np.asarray(x, dtype=float) ** alpha

    def f(x, y):
        x = np.asarray(x, dtype=float)
        return alpha * (1.0 - alpha) * x ** (alpha - 2.0)

    def grad(x, y):
        x = np.asarray(x, dtype=float)
        return alpha * x ** (alpha - 1.0), np.zeros_like(x)

    return Problem(
        name="boundary-sing",
        mesh=unit_square_mesh(divisions),
        f=f,
        u_dirichlet=u,
        u_exact=u,
        grad_exact=grad,
        params={"alpha": alpha},
    )


def lshaped_goal(refinements=2):
    """The L-shaped problem, observed through the bump goal functional."""
    return replace(lshaped(refinements), name="lshaped-goal", goal=GoalSpec())


PROBLEMS = {
    "lshaped": lshaped,
    "lshaped-mixed": lshaped_mixed,
    "boundary-sing": boundary_singularity,
    "lshaped-goal": lshaped_goal,
}


def make_problem(name, alpha=0.7):
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}")
    if name == "boundary-sing":
        return boundary_singularity(alpha=alpha)
    return PROBLEMS[name]()


def _goal_panels(spec):
    """Angular panels of the polar rule about the re-entrant corner, and
    whether the support disk holds the corner.

    The panels cover the part of the domain's sector (-pi/2, pi) that the
    disk covers: all of it when the disk holds the corner, else the window
    between the two tangent rays.  They break where the clipped radial range
    has a kink: at square corners inside the disk and where the circle
    crosses the lines x = +-1 and y = +-1.
    """
    cx, cy, eps = spec.xbar, spec.ybar, spec.eps
    dist = np.hypot(cx, cy)
    lo, hi = -0.5 * np.pi, np.pi
    holds_corner = bool(dist < eps)
    if holds_corner:
        windows = [(lo, hi)]
    else:
        mid, half = np.arctan2(cy, cx), np.arcsin(eps / dist)
        # arctan2 puts mid in (-pi, pi], so a window reaching below -pi
        # continues at the top of the sector.
        windows = [(max(lo, mid + s - half), min(hi, mid + s + half))
                   for s in (0.0, 2.0 * np.pi)]
    corners = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    inside = np.hypot(corners[:, 0] - cx, corners[:, 1] - cy) < eps
    breaks = list(np.arctan2(corners[inside, 1], corners[inside, 0]))
    for k in (-1.0, 1.0):
        h = eps**2 - (k - cx) ** 2  # the circle crosses the line x = k
        if h > 0.0:
            breaks += list(np.arctan2(cy + np.array([-1.0, 1.0]) * np.sqrt(h), k))
        h = eps**2 - (k - cy) ** 2  # and the line y = k
        if h > 0.0:
            breaks += list(np.arctan2(k, cx + np.array([-1.0, 1.0]) * np.sqrt(h)))
    panels = []
    for a, b in windows:
        if a < b:
            edges = [a, *sorted(t for t in breaks if a < t < b), b]
            panels += zip(edges[:-1], edges[1:])
    return panels, holds_corner


def _gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    NumPy's ``leggauss`` with the first node estimates from a tridiagonal
    eigensolve of the Legendre Jacobi matrix (Golub & Welsch, Math. Comp.
    23, 1969), which is leggauss's symmetric companion matrix, instead of
    a dense ``eigvalsh`` of it: at n = 400 that dense solve can take most
    of a second with two OpenBLAS threads.  leggauss's Newton step and
    weights follow unchanged.
    """
    k = np.arange(1.0, n)
    x = eigvalsh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    df = legval(x, legder(c))
    x -= legval(x, c) / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1.0 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _polar_goal_rule(spec, u, panels, holds_corner, n):
    """J = int c u over the panels by an n x n Gauss-Legendre rule in (theta, t)."""
    s, w = _gauss_legendre(n)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    total = 0.0
    for a, b in panels:
        theta = a + (b - a) * s
        cos, sin = np.cos(theta), np.sin(theta)
        # The ray meets the circle at r = p -+ root and leaves the square
        # |x|, |y| <= 1 at r = 1 / max(|cos|, |sin|).
        p = cos * spec.xbar + sin * spec.ybar
        root = np.sqrt(np.maximum(p**2 - spec.xbar**2 - spec.ybar**2 + spec.eps**2, 0.0))
        r_hi = np.minimum(p + root, 1.0 / np.maximum(np.abs(cos), np.abs(sin)))
        if holds_corner:
            # r = R t^3 makes the corner factor r^(alpha + 1) dr smooth in t.
            r = r_hi[:, None] * s**3
            dr = 3.0 * r_hi[:, None] * s**2
        else:
            r_lo = p - root
            length = np.maximum(r_hi - r_lo, 0.0)
            r = r_lo[:, None] + length[:, None] * s
            dr = length[:, None]
        x, y = r * cos[:, None], r * sin[:, None]
        integrand = spec.c(x, y) * u(x, y) * r * dr
        total += (b - a) * float(w @ integrand @ w)
    return total


def goal_reference_quadrature(problem):
    """J(u) = int c u_exact over the L-shape by a polar Gauss rule.

    The rule is a tensor Gauss-Legendre rule in polar coordinates (theta,
    r) about the re-entrant corner, with ``GOAL_RULE_POINTS`` points per
    direction on each angular panel (see ``_goal_panels``).  Along each
    ray r runs over the ray's chord of the support disk, from the corner
    when the disk holds it, clipped at the square |x|, |y| <= 1, so only
    the disk's part inside the domain counts.  When the disk holds the
    corner, r = R t^3 makes the singular factor r^(alpha + 1) dr smooth.
    The rule is run at n and 2n points; it returns J_2n and raises
    ``ValueError`` when |J_n - J_2n| exceeds ``GOAL_RULE_TOL``.  On the
    default ``GoalSpec`` (one panel) it takes about 50 ms and agrees with
    SciPy's adaptive ``dblquad`` (1.4-2 s) to about 1e-14.
    """
    if problem.goal is None or problem.u_exact is None:
        raise ValueError("need a goal spec and an exact solution")
    spec = problem.goal
    panels, holds_corner = _goal_panels(spec)
    coarse, fine = (_polar_goal_rule(spec, problem.u_exact, panels, holds_corner, n)
                    for n in (GOAL_RULE_POINTS, 2 * GOAL_RULE_POINTS))
    error = abs(coarse - fine)
    if not error <= GOAL_RULE_TOL:
        raise ValueError(
            f"goal reference quadrature unresolved: |J_n - J_2n| = {error:.3g} at "
            f"n = {GOAL_RULE_POINTS}, above {GOAL_RULE_TOL:g}"
        )
    return float(fine)


def audit(problem, tol=1e-8):
    """Wiring checks run before a benchmark: boundary data consistent
    with the exact solution (the exact flux on Neumann facets against
    ``g``, or against zero when ``g`` is None), and data formulas
    consistent with it.  A NaN anywhere in the compared values fails the
    check."""
    mesh = problem.mesh
    dirichlet = np.flatnonzero(mesh.facet_tags == DIRICHLET)
    if problem.u_exact is not None and dirichlet.size and problem.u_dirichlet is not None:
        ends = mesh.vertices[mesh.facets[dirichlet]]
        for frac in (0.0, 0.25, 0.5, 1.0):
            pts = ends[:, 0] + frac * (ends[:, 1] - ends[:, 0])
            got = eval_data(problem.u_dirichlet, pts)
            want = eval_data(problem.u_exact, pts)
            if not np.max(np.abs(got - want), initial=0.0) <= tol:
                raise ValueError(f"{problem.name}: Dirichlet data disagrees with u_exact")
    if problem.grad_exact is not None:
        lanes, cells = np.nonzero(mesh.lane_tags == NEUMANN)
        if lanes.size:
            mids = mesh.vertices[mesh.facets[mesh.cell_facets[cells, lanes]]].mean(axis=1)
            normal = mesh.lane_normals[lanes, cells]
            gx, gy = problem.grad_exact(mids[:, 0], mids[:, 1])
            flux = gx * normal[:, 0] + gy * normal[:, 1]
            want = 0.0 if problem.g is None else eval_data(problem.g, mids)
            if not np.max(np.abs(flux - want), initial=0.0) <= tol:
                raise ValueError(f"{problem.name}: Neumann data disagrees with dn(u_exact)")
    if problem.name == "boundary-sing":
        alpha = problem.params["alpha"]
        x = np.linspace(0.05, 0.95, 13)
        y = np.linspace(0.05, 0.95, 13)
        lap = alpha * (alpha - 1.0) * x ** (alpha - 2.0)
        got = eval_data(problem.f, np.column_stack([x, y]))
        if not np.max(np.abs(got + lap)) <= tol * np.max(np.abs(lap)):
            raise ValueError("boundary-sing: f does not match -lap(u_exact)")
    return problem
