"""Command-line front end.

Subcommands:

    verify      run the verification suite and write a JSON report
    solve       complete an initial-value field file on one 4-cell
    decompose   decompose a flower chain file into 4D corners
    dilog-test  print the golden-ratio dilogarithm value table

Exit codes: 0 all checks passed, 1 check failure, 2 usage or configuration
error, 3 singular data, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import config
from .cells import LATTICES, CellKind, decompose_flower, format_cell, parse_chain
from .dkp import (
    Branch,
    read_field_file,
    solve_ambo_ivp,
    solve_cube_ivp,
    write_field_file,
    write_json,
)
from .errors import (
    ConfigError,
    FormatError,
    InitialDataError,
    PluriKPError,
    SingularFieldError,
)
from .lagrangian import exterior_derivative
from .verify import SuiteConfig, classify_branch, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_IO = 4

_REPORT_FORMAT = "plurikp-report/1"

_SOLVE_KINDS = {
    "ambo-black": CellKind.BLACK_AMBO4,
    "ambo-white": CellKind.WHITE_AMBO4,
    "cube4": CellKind.CUBE4,
}
_STANDARD_FLOWERS = {"qa3": "qan", "z3": "cubic"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plurikp",
        description="Variational verification of the dKP lattice equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--lattice", choices=("qan", "cubic"), default="qan")
    verify.add_argument("--dim", type=int, default=config.DEFAULT_DIM)
    verify.add_argument("--trials", type=int, default=config.DEFAULT_TRIALS)
    verify.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    verify.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="tolerance override; also spelled --tol.NAME=VALUE",
    )
    verify.add_argument("--out", default=None, help="report file path")

    solve = sub.add_parser("solve", help="complete an initial-value field")
    solve.add_argument("kind", choices=tuple(_SOLVE_KINDS))
    solve.add_argument("input", help="initial field file (JSON)")
    solve.add_argument("output", help="completed field file (JSON)")
    solve.add_argument(
        "--branch", choices=("dkp", "dkp-minus"), default="dkp",
        help="solution branch to complete toward",
    )

    decomp = sub.add_parser("decompose", help="decompose a flower into corners")
    decomp.add_argument("flower", nargs="?", help="chain file, one cell per line")
    decomp.add_argument(
        "--standard", choices=tuple(_STANDARD_FLOWERS), default=None,
        help="use a built-in full-star flower instead of a file",
    )
    decomp.add_argument("--dim", type=int, default=None)
    decomp.add_argument(
        "--vertex", default=None, help="flower center, e.g. '(0,0,0,0,0)'"
    )
    decomp.add_argument("--out", default=None, help="corner list file")

    sub.add_parser("dilog-test", help="print the dilogarithm special values")
    return parser


def _expand_tolerances(argv: Sequence[str]) -> list[str]:
    # Accept --tol.name=value as sugar for --tol name=value.
    expanded: list[str] = []
    for token in argv:
        if token.startswith("--tol.") and "=" in token:
            expanded += ["--tol", token[len("--tol."):]]
        else:
            expanded.append(token)
    return expanded


def _parse_vertex(text: str, expected: int) -> tuple[int, ...]:
    try:
        inner = text.strip().strip("()")
        vertex = tuple(int(t) for t in inner.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse vertex {text!r}") from exc
    if len(vertex) != expected:
        raise ConfigError(
            f"vertex {text!r} has {len(vertex)} coordinates, expected {expected}"
        )
    return vertex


def _cmd_verify(args: argparse.Namespace) -> int:
    overrides: dict[str, float] = {}
    for item in args.tol:
        name, _, raw = item.partition("=")
        try:
            overrides[name] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"tolerance override {item!r} is not NAME=VALUE") from exc
    cfg = SuiteConfig(
        lattice=args.lattice,
        dim=args.dim,
        trials=args.trials,
        seed=args.seed,
        tolerances=overrides,
    )
    result = run_suite(cfg)
    for record in result.records:
        status = "PASS" if record.passed else "FAIL"
        print(
            f"{status} {record.check_id}: observed={record.observed:.6e}"
            f" expected={record.expected:.6e} tol={record.tolerance:.1e}"
        )
    summary = result.summary()
    print(
        f"summary: {summary['passed']}/{summary['total']} passed,"
        f" max deviation {summary['max_deviation']:.3e}"
    )
    if args.out:
        payload = {
            "format": _REPORT_FORMAT,
            "config": {
                "lattice": cfg.lattice,
                "dim": cfg.dim,
                "trials": cfg.trials,
                "seed": cfg.seed,
                "tolerances": overrides,
            },
            "records": [r.as_dict() for r in result.records],
            "summary": summary,
        }
        write_json(args.out, payload)
    return EXIT_OK if result.all_passed else EXIT_CHECK_FAILED


def _cmd_solve(args: argparse.Namespace) -> int:
    data, lattice, dim = read_field_file(args.input)
    branch = Branch.DKP if args.branch == "dkp" else Branch.DKP_MINUS
    if dim < 4:
        raise ConfigError(f"completion needs a field file with dim >= 4, got {dim}")
    kind = _SOLVE_KINDS[args.kind]
    if lattice != kind.family:
        raise ConfigError(f"{args.kind} completion needs a {kind.family}-lattice field file")
    cell = LATTICES[lattice].cell(kind, dim)
    solve = solve_cube_ivp if kind is CellKind.CUBE4 else solve_ambo_ivp
    solution = solve(cell, data, branch)
    report = classify_branch(solution, cell)
    s_value = exterior_derivative(solution, cell)
    write_field_file(args.output, solution, lattice, dim)
    print(f"branch: {report.branch.value}")
    print(f"action on facets: {s_value!r}  (pi^2/4 = {math.pi ** 2 / 4!r})")
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    if (args.flower is None) == (args.standard is None):
        raise ConfigError("give either a flower chain file or --standard")
    if args.standard is not None:
        if args.vertex is not None:
            raise ConfigError("--vertex applies to a flower file, not to --standard")
        dim = config.DEFAULT_DIM if args.dim is None else args.dim
        if not 3 <= dim <= config.MAX_DIM:
            raise ConfigError(f"--dim must be in [3, {config.MAX_DIM}], got {dim}")
        chain, center = LATTICES[_STANDARD_FLOWERS[args.standard]].star(dim)
    else:
        if args.dim is not None:
            raise ConfigError("--dim applies to --standard, not to a flower file")
        with open(args.flower, "r", encoding="utf-8") as handle:
            chain = parse_chain(handle.read())
        if not chain:
            raise FormatError(f"{args.flower}: empty chain")
        ambient = len(chain.cells()[0].base)
        if args.vertex is None:
            raise ConfigError("--vertex is required with a flower file")
        center = _parse_vertex(args.vertex, ambient)
    pairs = decompose_flower(chain, center)
    lines = [f"{format_cell(cell4)} @corner {','.join(map(str, point))}"
             for cell4, point in pairs]
    for line in lines:
        print(line)
    print("residual chain: empty")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_dilog_test() -> int:
    from .dilog import special_value_table

    worst = 0.0
    for label, computed, exact in special_value_table():
        worst = max(worst, abs(computed - exact))
        print(f"{label:10s} computed={computed:+.15f} exact={exact:+.15f}")
    print(f"max deviation: {worst:.3e}")
    return EXIT_OK if worst <= config.TOLERANCES["special_values"] else EXIT_CHECK_FAILED


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(_expand_tolerances(argv))
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help.
            return EXIT_USAGE if exc.code else EXIT_OK
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        return _cmd_dilog_test()
    except (SingularFieldError, InitialDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PluriKPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
