"""Command line driver for the benchmark problems.

Two subcommands:

* ``run``: one adaptive run, writing the iteration trace as CSV.
* ``table``: efficiency (estimator / true error on the final mesh) for a
  list of estimator selectors, one adaptive run each.
"""

import argparse
import sys

from .adapt import (
    _BW_SELECTOR,
    AdaptConfig,
    adapt_loop,
    goal_adapt_loop,
    reference_goal_value,
)
from .bank_weiser import LocalSolveError, NullspaceError
from .fem import SolverError
from .mesh import write_mesh
from .problems import audit, make_problem

def _add_common(parser, table=False):
    parser.add_argument(
        "--problem",
        required=True,
        choices=("lshaped", "lshaped-mixed", "boundary-sing", "lshaped-goal"),
    )
    parser.add_argument("--alpha", type=float, default=0.7,
                        help="exponent of the boundary-sing solution")
    parser.add_argument("--degree", type=int, default=1)
    if table:
        parser.add_argument(
            "--estimator", action="append", required=True,
            help="selector (bw:K+,K- | bw:bubble | res | zz); repeatable",
        )
    else:
        parser.add_argument("--estimator", default="bw:2,1",
                            help="selector (bw:K+,K- | bw:bubble | res | zz)")
    parser.add_argument("--marking", choices=("dorfler", "maximum"), default="dorfler")
    parser.add_argument("--theta", type=float, default=0.5)
    parser.add_argument("--max-dof", type=int, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--solver", choices=("cg", "lu"), default="cg")
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="afem2d", description="Adaptive Poisson benchmarks on triangle meshes"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="one adaptive run, trace CSV out")
    _add_common(run)
    run.add_argument("--emit-mesh", default=None,
                     help="also write the final mesh (ASCII) with vertex values")
    table = commands.add_parser("table", help="efficiency table over estimators")
    _add_common(table, table=True)
    return parser


def _config(args, estimator):
    return AdaptConfig(
        estimator=estimator,
        degree=args.degree,
        marking=args.marking,
        theta=args.theta,
        max_dofs=args.max_dof,
        tol=args.tol,
        max_iterations=args.max_iter,
        solver=args.solver,
    )


def _run_one(problem, config, reference_cache=None):
    if problem.goal is not None:
        reference = reference_goal_value(
            problem, config.degree, cache_path=reference_cache
        )
        return goal_adapt_loop(problem, config, reference)
    return adapt_loop(problem, config)


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def efficiency_table(problem, selectors, degree=1, marking="dorfler", theta=0.5,
                     max_dofs=20000, solver="cg"):
    """Final-mesh efficiency for each selector, one adaptive run each."""
    configs = [
        AdaptConfig(
            estimator=selector, degree=degree, marking=marking, theta=theta,
            max_dofs=max_dofs, solver=solver,
        )
        for selector in selectors
    ]
    rows = []
    reference = None
    for config in configs:
        if problem.goal is not None:
            if reference is None:
                reference = reference_goal_value(problem, degree)
            result = goal_adapt_loop(problem, config, reference)
        else:
            result = adapt_loop(problem, config)
        rows.append((config.estimator, result.trace.rows[-1].efficiency))
    return rows


def format_table_csv(rows):
    lines = ["kplus,kminus,efficiency"]
    for selector, efficiency in rows:
        match = _BW_SELECTOR.fullmatch(selector)
        if match:
            label = f"{match.group(1)},{match.group(2)}"
        elif selector == "bw:bubble":
            label = "bubble,"
        else:
            label = f"{selector},"
        lines.append(f"{label},{efficiency:.12e}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    """Exit code 0 on success, 2 on usage errors, 1 on runtime failures."""
    args = build_parser().parse_args(argv)
    try:
        problem = audit(make_problem(args.problem, alpha=args.alpha))
        if args.command == "run":
            config = _config(args, args.estimator)
            cache = f"{args.out}.jref" if args.out else None
            result = _run_one(problem, config, reference_cache=cache)
            _emit(result.trace.to_csv(), args.out)
            if args.emit_mesh:
                solution = getattr(result, "solution", None) or result.primal
                write_mesh(result.mesh, args.emit_mesh, solution.vertex_values())
        else:
            rows = efficiency_table(
                problem, args.estimator, degree=args.degree, marking=args.marking,
                theta=args.theta, max_dofs=args.max_dof or 20000, solver=args.solver,
            )
            _emit(format_table_csv(rows), args.out)
    except ValueError as exc:
        print(f"afem2d: {exc}", file=sys.stderr)
        return 2
    except (SolverError, LocalSolveError, NullspaceError) as exc:
        print(f"afem2d: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
