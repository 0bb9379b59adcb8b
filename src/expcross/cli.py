"""Command-line front end.

Subcommands: eval (one W value), intersect (closed-form report), oracle
(brute-force cross-check), plot (figure data as CSV).  Exit codes are
stable: 0 success, 2 domain error, 3 eval_w's ConvergenceError, 64 usage.
Output is deterministic: no timestamps, `.` decimal point, floats as
shortest round-trip repr; of the JSON payloads only oracle's has a config.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Iterable, Iterator, Sequence

from . import __version__
from .compare import DEFAULT_ABS_TOL, DEFAULT_SCAN_N, compare_with_closed_form
from .errors import ConvergenceError, DomainError, StateError
from .figures import DEFAULT_SAMPLES, FIGURE_NAMES, custom_samples, figure_samples, write_csv
from .intersect import IntersectionPoint, diagonal_intersections
from .lambertw import BranchId, eval_w

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_USAGE = 64

FORMATS = ("json", "csv", "plain")


# Every negative literal float() accepts, so `--z -1e-10` reads as a value;
# argparse's own matcher knows only -1 and -.5 and takes the rest for options.
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[-+]?{_DIGITS})?"
    r"|inf(?:inity)?|nan)\s*\Z",
    re.IGNORECASE,
)


class UsageError(Exception):
    """Command line is structurally valid for argparse but still malformed."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits 2 on bad flags; the contract reserves 2 for domain
    # errors and uses 64 for usage.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # The invalid-choice text as Python 3.10-3.13.0 word it, so output does
    # not depend on the patch release: later ones print the value's str in
    # quotes ('2', not 2) and the choices unquoted (eval, not 'eval').
    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def _fmt(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _emit(
    fmt: str, payload: dict, header: Sequence[str], rows: Iterable[Iterable], lines: Iterable[str]
) -> None:
    """Print one command's result as JSON, CSV (header, then rows of values) or plain lines.

    Callers pass rows and lines as generators, so only the requested
    format is ever built.
    """
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(map(_fmt, row)))
    else:
        for line in lines:
            print(line)


def _run_eval(args: argparse.Namespace) -> None:
    result = eval_w(args.z, BranchId(args.branch))
    fields = {**result._asdict(), "branch": int(result.branch)}
    payload = {"command": "eval", **fields}
    plain = {**fields, "branch": result.branch.label}
    lines = (f"{name:<10} {_fmt(value)}" for name, value in plain.items())
    _emit(args.format, payload, tuple(fields), (fields.values(),), lines)


def _run_intersect(args: argparse.Namespace) -> None:
    report = diagonal_intersections(args.base)
    fields = {"b": report.b, "z": report.z, "class": report.classification.value}

    def lines() -> Iterator[str]:
        yield f"base   {_fmt(report.b)}"
        yield f"z      {_fmt(report.z)}"
        yield f"class  {report.classification.value}"
        yield "points:" if report.points else "points: none"
        for x, y, source, residual in report.points:
            yield f"  x={_fmt(x)} y={_fmt(y)} source={source} residual={_fmt(residual)}"

    payload = {"command": "intersect", **fields, "points": [p._asdict() for p in report.points]}
    header = (*fields, *IntersectionPoint._fields)
    rows = ((*fields.values(), *p) for p in report.points)
    _emit(args.format, payload, header, rows, lines())


def _run_oracle(args: argparse.Namespace) -> None:
    verdict = compare_with_closed_form(args.base, x_max=args.x_max, n=args.samples)
    pairs = verdict.matched_pairs

    # Matched pairs first, then the roots only one route found.
    def rows() -> Iterator[tuple]:
        yield from ((o, c, abs(o - c)) for o, c in pairs)
        matched_o = {o for o, _ in pairs}
        matched_c = {c for _, c in pairs}
        yield from ((o, "", "") for o in verdict.oracle_roots if o not in matched_o)
        yield from (("", c, "") for c in verdict.closed_form_roots if c not in matched_c)

    def lines() -> Iterator[str]:
        yield f"base              {_fmt(verdict.b)}"
        yield f"scan window       (0, {_fmt(verdict.x_max)}] with {verdict.n} panels"
        yield f"oracle roots      {[_fmt(r) for r in verdict.oracle_roots]}"
        yield f"closed-form roots {[_fmt(r) for r in verdict.closed_form_roots]}"
        for o, c in pairs:
            yield f"  pair oracle={_fmt(o)} closed={_fmt(c)} delta={_fmt(abs(o - c))}"
        yield f"max delta         {_fmt(verdict.max_delta)}"
        yield f"count mismatch    {verdict.count_mismatch}"

    # json writes the tuples as lists; the scan settings go under "config".
    fields = verdict._asdict()
    config = {"x_max": fields.pop("x_max"), "samples": fields.pop("n"), "abs_tol": DEFAULT_ABS_TOL}
    payload = {"command": "oracle", **fields, "config": config}
    header = ("oracle_root", "closed_form_root", "delta")
    _emit(args.format, payload, header, rows(), lines())


def _run_plot(args: argparse.Namespace) -> None:
    if args.figure == "custom":
        if args.base is None:
            raise UsageError("--figure custom requires --base")
        rows = custom_samples(args.base, args.x_min, args.x_max, args.samples)
    else:
        rows = figure_samples(args.figure, args.samples)
    try:
        with open(args.out, "w", newline="") as stream:
            write_csv(rows, stream)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out!r}: {exc}") from exc
    print(f"wrote {args.out} ({len(rows)} samples)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expcross",
        description=(
            "Evaluate the real Lambert W branches and solve, in closed form, "
            "where b**x meets log_b(x); cross-check against a brute-force oracle."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one real branch of W at z")
    p_eval.add_argument("--z", type=float, required=True, help="argument of W")
    p_eval.add_argument(
        "--branch",
        type=int,
        choices=(0, -1),
        required=True,
        help="0 for the principal branch W0, -1 for W-1",
    )
    p_eval.add_argument("--format", choices=FORMATS, default="plain")
    p_eval.set_defaults(run=_run_eval)

    p_int = sub.add_parser("intersect", help="classify b and solve b**x = log_b(x)")
    p_int.add_argument("--base", type=float, required=True, help="base b > 0, b != 1")
    p_int.add_argument("--format", choices=FORMATS, default="plain")
    p_int.set_defaults(run=_run_intersect)

    p_orc = sub.add_parser("oracle", help="brute-force roots vs the closed form")
    p_orc.add_argument("--base", type=float, required=True, help="base b > 0, b != 1")
    p_orc.add_argument(
        "--x-max",
        type=float,
        default=None,
        help="scan upper end (default: max(50, 4 * largest closed-form root))",
    )
    p_orc.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_SCAN_N,
        help=f"number of scan panels (default {DEFAULT_SCAN_N})",
    )
    p_orc.add_argument("--format", choices=FORMATS, default="plain")
    p_orc.set_defaults(run=_run_oracle)

    p_plot = sub.add_parser("plot", help="emit figure data as CSV (x,y,series_label)")
    p_plot.add_argument(
        "--figure",
        choices=FIGURE_NAMES + ("custom",),
        required=True,
        help="canned figure name, or custom with --base",
    )
    p_plot.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_SAMPLES,
        help=f"points per curve series (default {DEFAULT_SAMPLES})",
    )
    p_plot.add_argument("--out", required=True, help="output CSV path")
    p_plot.add_argument("--base", type=float, default=None, help="base for --figure custom")
    p_plot.add_argument("--x-min", type=float, default=None, help="window start (custom)")
    p_plot.add_argument("--x-max", type=float, default=None, help="window end (custom)")
    p_plot.set_defaults(run=_run_plot)

    return parser


# Built once per process: parse_args only reads the parser and returns a
# fresh Namespace, and no argument has a mutable default.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.run(args)
        return EXIT_OK
    except (DomainError, StateError) as exc:
        print(f"expcross {args.command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"expcross {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except UsageError as exc:
        print(f"expcross {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
