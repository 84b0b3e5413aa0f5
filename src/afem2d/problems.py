"""Benchmark Poisson problems with known solution behavior.

All exact solutions here are of corner-singularity type r^a sin(a (theta
+ pi/2)) or the one-dimensional x^a, so convergence of uniform meshes is
limited and adaptivity pays off.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .fem import eval_data
from .mesh import DIRICHLET, NEUMANN, Mesh, orient_longest_edge, uniform_refine


@dataclass(frozen=True)
class GoalSpec:
    """Compactly supported goal density c placed near the corner.

    c(x, y) = eps^-2 exp(-1 / (1 - rbar^2)) inside the unit rbar-disk and
    0 outside, with rbar^2 = ((x - xbar)/eps)^2 + ((y - ybar)/eps)^2: the
    standard mollifier, smooth everywhere including across rbar = 1, with
    peak eps^-2 e^-1 at the center.
    """

    eps: float = 0.35
    xbar: float = 0.2
    ybar: float = 0.2

    def c(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        rbar2 = ((x - self.xbar) / self.eps) ** 2 + ((y - self.ybar) / self.eps) ** 2
        inside = rbar2 < 1.0
        bump = np.exp(-1.0 / np.where(inside, 1.0 - rbar2, 1.0))
        return np.where(inside, bump, 0.0) / self.eps**2


@dataclass(frozen=True)
class Problem:
    """A Poisson problem -lap(u) = f with tagged boundary data."""

    name: str
    mesh: Mesh
    f: Callable
    u_dirichlet: Callable
    g: Optional[Callable] = None
    u_exact: Optional[Callable] = None
    grad_exact: Optional[Callable] = None
    goal: Optional[GoalSpec] = None
    params: dict = field(default_factory=dict)


def _zeros(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def _polar_solution(alpha):
    """u = r^alpha sin(alpha (theta + pi/2)) and its gradient.

    Vanishes on theta = -pi/2; harmonic away from the origin.
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
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        arg = alpha * (theta + 0.5 * np.pi) - theta
        scale = alpha * r ** (alpha - 1.0)
        return scale * np.sin(arg), scale * np.cos(arg)

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
        f=_zeros,
        u_dirichlet=u,
        u_exact=u,
        grad_exact=grad,
        params={"alpha": 2.0 / 3.0},
    )


def lshaped_mixed(refinements=2):
    """L-shape with a homogeneous Neumann edge on {x < 0, y = 0} and the
    weaker r^(1/3) singularity."""

    def boundary(x, y):
        return np.where((np.abs(y) < 1e-12) & (x < 0.0), NEUMANN, DIRICHLET)

    u, grad = _polar_solution(1.0 / 3.0)
    return Problem(
        name="lshaped-mixed",
        mesh=lshaped_mesh(refinements, boundary=boundary),
        f=_zeros,
        u_dirichlet=u,
        g=_zeros,
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
        x = np.asarray(x, dtype=float)
        return x**alpha + 0.0 * np.asarray(y, dtype=float)

    def f(x, y):
        x = np.asarray(x, dtype=float)
        return alpha * (1.0 - alpha) * x ** (alpha - 2.0) + 0.0 * np.asarray(y)

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
    base = lshaped(refinements)
    return Problem(
        name="lshaped-goal",
        mesh=base.mesh,
        f=base.f,
        u_dirichlet=base.u_dirichlet,
        u_exact=base.u_exact,
        grad_exact=base.grad_exact,
        goal=GoalSpec(),
        params=base.params,
    )


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


def goal_reference_quadrature(problem):
    """J(u) by adaptive quadrature of c * u_exact over supp(c) in Omega.

    Only the part of the support disk inside the L-shape contributes; the
    missing third quadrant is excluded by clamping the y-range to 0 for
    x < 0.
    """
    if problem.goal is None or problem.u_exact is None:
        raise ValueError("need a goal spec and an exact solution")
    spec, u = problem.goal, problem.u_exact

    def integrand(y, x):
        return float(spec.c(x, y) * u(x, y))

    def y_lo(x):
        return spec.ybar - np.sqrt(max(spec.eps**2 - (x - spec.xbar) ** 2, 0.0))

    def y_hi(x):
        return spec.ybar + np.sqrt(max(spec.eps**2 - (x - spec.xbar) ** 2, 0.0))

    x_min, x_max = spec.xbar - spec.eps, spec.xbar + spec.eps
    total = 0.0
    if x_min < 0.0:
        part, _ = integrate.dblquad(
            integrand, x_min, 0.0, lambda x: max(y_lo(x), 0.0), y_hi,
            epsabs=1e-12, epsrel=1e-12,
        )
        total += part
    part, _ = integrate.dblquad(
        integrand, max(x_min, 0.0), x_max, y_lo, y_hi, epsabs=1e-12, epsrel=1e-12
    )
    return total + part


def audit(problem, tol=1e-8):
    """Wiring checks run before a benchmark: boundary data consistent
    with the exact solution, and data formulas consistent with it.  A
    NaN anywhere in the compared values fails the check."""
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
        neumann = np.flatnonzero(mesh.facet_tags == NEUMANN)
        if neumann.size and problem.g is not None:
            ends = mesh.vertices[mesh.facets[neumann]]
            mids = ends.mean(axis=1)
            owner = mesh.facet_cells[neumann, 0]
            # Outward normal: the owner's third vertex must be on the inside.
            evec = ends[:, 1] - ends[:, 0]
            normal = np.column_stack([evec[:, 1], -evec[:, 0]])
            normal /= np.linalg.norm(normal, axis=1)[:, None]
            centroid = mesh.vertices[mesh.cells[owner]].mean(axis=1)
            flip = np.einsum("ft,ft->f", centroid - mids, normal) > 0
            normal[flip] *= -1.0
            gx, gy = problem.grad_exact(mids[:, 0], mids[:, 1])
            flux = gx * normal[:, 0] + gy * normal[:, 1]
            want = eval_data(problem.g, mids)
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
