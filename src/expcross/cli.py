"""Command-line front end.

Subcommands: eval (one W value), intersect (closed-form report), oracle
(brute-force cross-check), plot (figure data as CSV).  Exit codes are
stable: 0 success, 2 domain error, 3 convergence failure, 64 usage.
Output is deterministic: no timestamps, `.` decimal point, floats as
shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from . import __version__
from .compare import DEFAULT_ABS_TOL, DEFAULT_SCAN_N, ComparisonVerdict, compare_with_closed_form
from .errors import ConvergenceError, DomainError, StateError
from .figures import DEFAULT_SAMPLES, FIGURE_NAMES, custom_samples, figure_samples, write_csv
from .intersect import IntersectionReport, diagonal_intersections
from .lambertw import BranchId, EvalConfig, EvalResult, eval_w

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


def _fmt(value: float) -> str:
    return repr(float(value))


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(row))


def _emit_eval(result: EvalResult, config: EvalConfig, fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {
                    "command": "eval",
                    "z": result.z,
                    "branch": int(result.branch),
                    "w": result.w,
                    "residual": result.residual,
                    "iterations": result.iterations,
                    "config": config._asdict(),
                }
            )
        )
    elif fmt == "csv":
        _print_csv(
            ["z", "branch", "w", "residual", "iterations"],
            [
                [
                    _fmt(result.z),
                    str(int(result.branch)),
                    _fmt(result.w),
                    _fmt(result.residual),
                    str(result.iterations),
                ]
            ],
        )
    else:
        print(f"z          {_fmt(result.z)}")
        print(f"branch     {result.branch.label}")
        print(f"w          {_fmt(result.w)}")
        print(f"residual   {_fmt(result.residual)}")
        print(f"iterations {result.iterations}")


def _emit_intersect(report: IntersectionReport, config: EvalConfig, fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {
                    "command": "intersect",
                    "b": report.b,
                    "z": report.z,
                    "class": report.classification.value,
                    "points": [p._asdict() for p in report.points],
                    "config": config._asdict(),
                }
            )
        )
    elif fmt == "csv":
        rows = [
            [
                _fmt(report.b),
                _fmt(report.z),
                report.classification.value,
                _fmt(p.x),
                _fmt(p.y),
                p.source_branch,
                _fmt(p.residual),
            ]
            for p in report.points
        ]
        _print_csv(["b", "z", "class", "x", "y", "source_branch", "residual"], rows)
    else:
        print(f"base   {_fmt(report.b)}")
        print(f"z      {_fmt(report.z)}")
        print(f"class  {report.classification.value}")
        if report.points:
            print("points:")
            for p in report.points:
                print(
                    f"  x={_fmt(p.x)} y={_fmt(p.y)} "
                    f"source={p.source_branch} residual={_fmt(p.residual)}"
                )
        else:
            print("points: none")


def _emit_oracle(verdict: ComparisonVerdict, fmt: str) -> None:
    if fmt == "json":
        print(
            json.dumps(
                {
                    "command": "oracle",
                    "b": verdict.b,
                    "oracle_roots": list(verdict.oracle_roots),
                    "closed_form_roots": list(verdict.closed_form_roots),
                    "matched_pairs": [list(p) for p in verdict.matched_pairs],
                    "deltas": list(verdict.deltas),
                    "max_delta": verdict.max_delta,
                    "count_mismatch": verdict.count_mismatch,
                    "config": {
                        "x_max": verdict.x_max,
                        "samples": verdict.n,
                        "abs_tol": DEFAULT_ABS_TOL,
                    },
                }
            )
        )
    elif fmt == "csv":
        matched_o = {o for o, _ in verdict.matched_pairs}
        matched_c = {c for _, c in verdict.matched_pairs}
        rows = [[_fmt(o), _fmt(c), _fmt(abs(o - c))] for o, c in verdict.matched_pairs]
        rows += [[_fmt(o), "", ""] for o in verdict.oracle_roots if o not in matched_o]
        rows += [["", _fmt(c), ""] for c in verdict.closed_form_roots if c not in matched_c]
        _print_csv(["oracle_root", "closed_form_root", "delta"], rows)
    else:
        print(f"base              {_fmt(verdict.b)}")
        print(f"scan window       (0, {_fmt(verdict.x_max)}] with {verdict.n} panels")
        print(f"oracle roots      {[_fmt(r) for r in verdict.oracle_roots]}")
        print(f"closed-form roots {[_fmt(r) for r in verdict.closed_form_roots]}")
        for o, c in verdict.matched_pairs:
            print(f"  pair oracle={_fmt(o)} closed={_fmt(c)} delta={_fmt(abs(o - c))}")
        print(f"max delta         {_fmt(verdict.max_delta)}")
        print(f"count mismatch    {verdict.count_mismatch}")


def _run_eval(args: argparse.Namespace) -> int:
    config = EvalConfig(rel_tol=args.tol, max_iter=args.max_iter)
    result = eval_w(args.z, BranchId(args.branch), config)
    _emit_eval(result, config, args.format)
    return EXIT_OK


def _run_intersect(args: argparse.Namespace) -> int:
    config = EvalConfig()
    report = diagonal_intersections(args.base, config)
    _emit_intersect(report, config, args.format)
    return EXIT_OK


def _run_oracle(args: argparse.Namespace) -> int:
    verdict = compare_with_closed_form(args.base, x_max=args.x_max, n=args.samples)
    _emit_oracle(verdict, args.format)
    return EXIT_OK


def _run_plot(args: argparse.Namespace) -> int:
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
    return EXIT_OK


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
    p_eval.add_argument(
        "--tol", type=float, default=1e-14, help="relative residual tolerance (default 1e-14)"
    )
    p_eval.add_argument(
        "--max-iter", type=int, default=50, help="Halley iteration budget (default 50)"
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
        return args.run(args)
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
