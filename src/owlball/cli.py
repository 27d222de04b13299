"""Command line interface.

Two subcommands::

    owlball bench --n 10000,100000 --sigma 1e-3,1,1e3 --beta 0.1,0.5 \
        --reps 3 --seed 0 --solvers ssn,rootfind --eps 1e-12 \
        --format csv --out results.csv

    owlball project --input b.f64 --lambda lam.f64 --tau 2.5 --out x.f64

Vector files are ``.csv`` (one value per line) or ``.f64`` (raw
little-endian float64), chosen by extension.

Exit codes: 0 on success, 2 when a solver failed to converge (partial
results are still written), 1 on usage errors (bad flags, malformed
files, invalid weights).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import bench as bench_mod
from .core import Instance, Weights
from .io import read_vector, vector_format, write_vector
from .projector import project_ball
from .ssn import SsnParams

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; our contract reserves 2
    # for solver non-convergence, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _split(cast):
    """An argparse type: a comma-separated list, each part passed to ``cast``."""
    def split(text: str) -> tuple:
        return tuple(cast(part) for part in text.split(",") if part)
    split.__name__ = f"{cast.__name__} list"    # argparse names it in errors
    return split


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="owlball",
                     description="Projection onto ordered weighted L1 balls")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the solver comparison grid")
    b.add_argument("--n", type=_split(int),
                   default=bench_mod.DEFAULT_N_LIST, metavar="N1,N2,...",
                   help="dimensions (default: 10000,100000,1000000)")
    b.add_argument("--sigma", type=_split(float),
                   default=bench_mod.DEFAULT_SIGMA_LIST, metavar="S1,S2,...",
                   help="input scales (default: 1e-3,1,1e3)")
    b.add_argument("--beta", type=_split(float),
                   default=bench_mod.DEFAULT_BETA_LIST, metavar="B1,B2,...",
                   help="radius fractions in (0,1) "
                        "(default: 1e-3,1e-2,1e-1,0.5,0.8)")
    b.add_argument("--reps", type=int, default=3,
                   help="repetitions per cell (default: 3)")
    b.add_argument("--seed", type=int, default=0,
                   help="base seed of the counter-based streams (default: 0)")
    b.add_argument("--solvers", type=_split(str), default=bench_mod.SOLVERS,
                   metavar="NAME,...", help="subset of: ssn,rootfind")
    b.add_argument("--eps", type=float, default=1e-12,
                   help="shared target for both solvers on |owl_norm(x) - "
                        "tau| / tau (default: 1e-12)")
    b.add_argument("--format", choices=("csv", "md"), default="csv",
                   help="output format (default: csv)")
    b.add_argument("--out", default=None, metavar="PATH",
                   help="output file (default: stdout)")
    b.set_defaults(func=_cmd_bench)

    p = sub.add_parser("project", help="project one vector onto one ball")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="vector to project (.csv or .f64)")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PATH",
                   help="weight vector, nonincreasing nonnegative")
    p.add_argument("--tau", type=float, required=True, help="ball radius")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="where to write the projection")
    p.add_argument("--eps", type=float, default=1e-12,
                   help="solver target on |owl_norm(x) - tau| / tau "
                        "(default: 1e-12)")
    p.set_defaults(func=_cmd_project)
    return parser


def _cmd_bench(args) -> int:
    cfg = bench_mod.ExperimentConfig(
        n_list=args.n, sigma_list=args.sigma, beta_list=args.beta,
        reps=args.reps, seed=args.seed, solvers=args.solvers,
        eps=args.eps)
    render = bench_mod.render_csv if args.format == "csv" else bench_mod.render_markdown
    # Open the output before the grid runs, so a bad path fails at once.
    out = (contextlib.nullcontext(sys.stdout) if args.out is None
           else open(args.out, "w"))
    with out as fh:
        cells = bench_mod.run_experiment(cfg)
        fh.write(render(cells))
    if any(cell.any_nonconverged for cell in cells):
        print("warning: some solves did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_project(args) -> int:
    # Check the output's format and open it before the inputs are read
    # and solved, so a bad --out fails at once, as in _cmd_bench.  It is
    # opened to append, which truncates nothing until the result is in,
    # and a file that this command created is removed if it fails.
    vector_format(args.out)
    created = not os.path.exists(args.out)
    try:
        with open(args.out, "ab") as out:
            b = read_vector(args.input)
            lam = read_vector(args.lam)
            inst = Instance(b, Weights(lam), args.tau)
            result = project_ball(inst, SsnParams(eps=args.eps))
            out.truncate(0)
            write_vector(args.out, result.x, out)
    except BaseException:
        if created and os.path.isfile(args.out):
            os.remove(args.out)
        raise
    if result.report is not None and not result.report.converged:
        print(f"warning: solver stopped on {result.report.stop!r} at "
              f"residual {result.report.residual_eta:.3e} without converging",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"owlball: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
