"""Command line front end."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .converter import demyanov_convert
from .dynamics import (
    DEFAULT_CAP,
    CapExceededError,
    builtin_counterexample,
    iterate_until_cycle,
    search_cycles,
    verify_claim,
)
from .familyio import parse_family, serialize_family
from .render import render_svg

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # The usage of the parser that failed: a subcommand's own flags.
        self.exit(EX_USAGE, f"error: {message}\n{self.format_usage()}")


def _int_in_range(minimum: int, maximum: int | None = None):
    """argparse type for integers from minimum up to maximum, if given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


_positive_int = _int_in_range(1)
_non_negative_int = _int_in_range(0)

# A family draws up to MAX_VERTICES points in each of 64 * MAX_POLYTOPES tries.
MAX_INSTANCES = 1_000_000
MAX_POLYTOPES = 100
MAX_VERTICES = 100


def _up_to(maximum: int) -> dict:
    return {"type": _int_in_range(1, maximum), "help": f"1 to {maximum}"}


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="infile", metavar="FILE", help="family document to read")
    group.add_argument(
        "--builtin", action="store_true", help="use the bundled counterexample family"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="demyanov",
        description="Demyanov converter dynamics on families of planar polytopes",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("builtin", help="emit the bundled counterexample family")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_builtin)

    p = sub.add_parser("convert", help="apply the converter once")
    _add_input_flags(p)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("iterate", help="iterate until the first repeated collection")
    _add_input_flags(p)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--dump-dir", metavar="DIR", help="write every iterate as a document")
    p.set_defaults(handler=_cmd_iterate)

    p = sub.add_parser("verify-claim", help="check the bundled family's length-4 cycle facts")
    p.set_defaults(handler=_cmd_verify_claim)

    p = sub.add_parser("render", help="render a family as an SVG panel grid")
    _add_input_flags(p)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("search", help="survey cycle lengths over seeded random families")
    p.add_argument("--instances", default=100, **_up_to(MAX_INSTANCES))
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--num-polytopes", default=3, **_up_to(MAX_POLYTOPES))
    p.add_argument("--max-vertices", default=4, **_up_to(MAX_VERTICES))
    p.add_argument("--coord-bound", type=_non_negative_int, default=3)
    p.set_defaults(handler=_cmd_search)

    return parser


def _load_family(args):
    if args.builtin:
        return builtin_counterexample()
    try:
        text = Path(args.infile).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.infile}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return parse_family(text)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_builtin(args) -> int:
    _emit(serialize_family(builtin_counterexample()), args.out)
    return EX_OK


def _cmd_convert(args) -> int:
    _emit(serialize_family(demyanov_convert(_load_family(args))), args.out)
    return EX_OK


def _cmd_iterate(args) -> int:
    result = iterate_until_cycle(_load_family(args), args.cap)
    if args.dump_dir is not None:
        directory = Path(args.dump_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for k, omega in enumerate(result.trajectory):
            (directory / f"omega_{k}.json").write_text(
                serialize_family(omega), encoding="utf-8"
            )
    print(f"N={result.preperiod} L={result.cycle_length}")
    return EX_OK


def _cmd_verify_claim(args) -> int:
    verdict = verify_claim()
    for name, ok in verdict.assertions:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not verdict.passed:
        failed = ", ".join(name for name, ok in verdict.assertions if not ok)
        print(f"claim violated: {failed}", file=sys.stderr)
        return EX_SOFTWARE
    print(f"N={verdict.preperiod} L={verdict.cycle_length}")
    return EX_OK


def _cmd_render(args) -> int:
    _emit(render_svg(_load_family(args)), args.out)
    return EX_OK


def _cmd_search(args) -> int:
    params = (args.num_polytopes, args.max_vertices, args.coord_bound)
    report = search_cycles(params, args.instances, args.cap, args.seed)
    print(f"instances={report.instances_run}")
    print(f"cap_exceeded={report.cap_exceeded}")
    for length, count in report.histogram:
        print(f"L={length}: {count}")
    if report.max_l_witness is not None:
        print(f"max_L={report.histogram[-1][0]} seed={report.max_l_seed}")
        sys.stdout.write(serialize_family(report.max_l_witness))
    return EX_OK


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse argv, run the chosen subcommand, and map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help or a usage error has printed its text
        return exc.code
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_SOFTWARE


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
