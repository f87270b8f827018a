"""Command line interface.

Subcommands:

* ``femasm bench``    - time (kind, strategy) pairs over square meshes,
  write a CSV of medians and speedups.
* ``femasm assemble`` - assemble one matrix from a mesh file and export
  it in MatrixMarket coordinate format.
* ``femasm slopes``   - fit log-log complexity slopes from a bench CSV.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from .assembly import MatrixKind, Strategy, WeightField, assemble
from .bench import fit_loglog_slope, read_records_csv, run_bench
from .elements import ElasticParams
from .mesh import read_mesh
from .sparse import write_matrix_market


def _members(enum, what: str, many: bool = False):
    """argparse type: the member of ``enum`` whose value the text names or,
    with ``many``, the list of members a comma separated text names."""

    def member(name: str):
        try:
            return enum(name.strip().lower())
        except ValueError:
            choices = ", ".join(sorted(m.value for m in enum))
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; choose from {choices}"
            ) from None

    return (lambda text: [member(name) for name in text.split(",")]) if many else member


def _weight(name: str) -> WeightField:
    try:
        return WeightField.by_name(name.strip().lower())
    except ValueError as exc:  # by_name names the choices
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="femasm")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="time assembly strategies over square meshes")
    b.add_argument(
        "--kinds", type=_members(MatrixKind, "kind", many=True), default=list(MatrixKind)
    )
    b.add_argument(
        "--strategies", type=_members(Strategy, "strategy", many=True), default=list(Strategy)
    )
    b.add_argument(
        "--square-sizes",
        type=_parse_sizes,
        required=True,
        help="comma separated cells-per-side of the unit-square meshes, ascending",
    )
    b.add_argument("--reps", type=int, default=5)
    b.add_argument("--out", required=True)
    b.add_argument("--budget", type=float, default=60.0, help="seconds per cell")
    b.add_argument("--quiet", action="store_true")
    b.set_defaults(run=_cmd_bench)

    a = sub.add_parser("assemble", help="assemble one matrix and export it")
    a.add_argument("--mesh", required=True)
    a.add_argument("--kind", type=_members(MatrixKind, "kind"), required=True)
    a.add_argument("--strategy", type=_members(Strategy, "strategy"), default=Strategy.OPTV2)
    a.add_argument("--out", required=True)
    a.add_argument("--weight", type=_weight, default="quadratic")
    a.add_argument("--lam", type=float, default=1.0)
    a.add_argument("--mu", type=float, default=1.0)
    a.set_defaults(run=_cmd_assemble)

    s = sub.add_parser("slopes", help="fit log-log slopes from a bench CSV")
    s.add_argument("--in", dest="input", required=True)
    s.set_defaults(run=_cmd_slopes)
    return parser


def _cmd_bench(args) -> int:
    run_bench(
        args.kinds,
        args.strategies,
        args.square_sizes,
        args.reps,
        args.out,
        time_budget_s=args.budget,
        verbose=not args.quiet,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_assemble(args) -> int:
    params = ElasticParams(args.lam, args.mu)
    # no name holds the mesh, so it and its cached pattern are freed before the write
    matrix = assemble(
        read_mesh(args.mesh), args.kind, args.strategy, weight=args.weight, params=params
    )
    write_matrix_market(matrix, args.out)
    print(f"wrote {args.out}: {matrix.shape[0]}x{matrix.shape[1]}, nnz={matrix.nnz}")
    return 0


def _cmd_slopes(args) -> int:
    records = read_records_csv(args.input)
    groups = defaultdict(list)
    for r in records:
        groups[(r.kind, r.strategy)].append(r)
    for (kind, strategy), recs in sorted(groups.items()):
        try:
            slope = fit_loglog_slope(recs)
        except ValueError as exc:
            print(f"{kind:8s} {strategy:10s} slope: n/a ({exc})")
        else:
            print(f"{kind:8s} {strategy:10s} slope: {slope:.3f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # MeshFormatError is a ValueError
        # a fault in the input ends the run as argparse ends a bad option
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
