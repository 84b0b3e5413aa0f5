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
    reference_goal_value,
)
from .bank_weiser import LocalSolveError, NullspaceError
from .fem import SolverError
from .mesh import write_mesh
from .problems import PROBLEMS, audit, make_problem

# Dof budget of a table run given no stopping flag.
TABLE_MAX_DOFS = 20000


def _add_common(parser, table=False):
    parser.add_argument(
        "--problem",
        required=True,
        choices=tuple(PROBLEMS),
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


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def efficiency_table(problem, selectors, degree=1, marking="dorfler", theta=0.5,
                     max_dofs=TABLE_MAX_DOFS, solver="cg"):
    """Final-mesh efficiency for each selector, one adaptive run each."""
    return _efficiencies(problem, [
        AdaptConfig(
            estimator=selector, degree=degree, marking=marking, theta=theta,
            max_dofs=max_dofs, solver=solver,
        )
        for selector in selectors
    ])


def _efficiencies(problem, configs):
    """(selector, final efficiency) per config; a goal problem's reference
    value is computed once for the whole table."""
    reference = None
    if problem.goal is not None and configs:
        reference = reference_goal_value(problem, configs[0].degree)
    return [
        (config.estimator, adapt_loop(problem, config, reference).trace.rows[-1].efficiency)
        for config in configs
    ]


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
            reference = None
            if problem.goal is not None:
                reference = reference_goal_value(problem, args.degree, cache_path=cache)
            result = adapt_loop(problem, config, reference)
            _emit(result.trace.to_csv(), args.out)
            if args.emit_mesh:
                write_mesh(result.mesh, args.emit_mesh, result.solution.vertex_values())
        else:
            if args.max_dof is None and args.tol is None and args.max_iter is None:
                args.max_dof = TABLE_MAX_DOFS
            configs = [_config(args, selector) for selector in args.estimator]
            _emit(format_table_csv(_efficiencies(problem, configs)), args.out)
    except ValueError as exc:
        print(f"afem2d: {exc}", file=sys.stderr)
        return 2
    except (SolverError, LocalSolveError, NullspaceError) as exc:
        print(f"afem2d: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
