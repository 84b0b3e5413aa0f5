"""Adaptive 2D finite elements with local hierarchical error estimation."""

from . import bank_weiser, estimators
from .adapt import (
    AdaptConfig,
    AdaptTrace,
    adapt_loop,
    assemble_dual,
    evaluate_goal,
    goal_adapt_loop,
    loglog_slope,
    reference_goal_value,
    resolve_estimator,
    wgo_indicators,
)
from .fem import (
    FEFunction,
    FunctionSpace,
    assemble_poisson,
    h1_seminorm_error,
    interpolate,
    solve,
)
from .mesh import (
    DIRICHLET,
    NEUMANN,
    IndicatorField,
    Mesh,
    mark_dorfler,
    mark_maximum,
    read_mesh,
    refine,
    uniform_refine,
    write_mesh,
)
from .problems import GoalSpec, Problem, audit, make_problem

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
