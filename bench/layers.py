"""Per-layer metrics from a traced run.

The layers are the package's modules: lambertw, intersect, oracle, compare,
figures and cli (errors does no work).  install() wraps their public
functions where callers look them up; layer_metrics() turns the recorded
spans into the per-layer numbers.  A metric whose calls a workload never
makes is None (unreached), and reads 0 in the result line.

Which end-to-end numbers each layer should move, and on which workload:
  lambertw.*   ops_per_s, op_us_p50 on w_sweep (nearly all of an op) and
               solve_sweep (about half); flat on oracle_sweep and cli_mix.
               Its error_frac and err_ulp move fail_frac, w_err_ulp_p99 and
               x_err_ulp_p99 on w_sweep and solve_sweep.
  intersect.*  ops_per_s on solve_sweep; flat on w_sweep.
  oracle.*     ops_per_s, op_us_p50, oracle_max_rel_delta on oracle_sweep and
               the oracle share of cli_mix; flat on w_sweep and solve_sweep.
  compare.*    op_us_p50 on oracle_sweep; flat elsewhere.
  cli.*, figures.*
               op_us_p50 on cli_mix; cli.import_us also setup_s everywhere.
"""

from __future__ import annotations

import logging
import math
import statistics
from collections import defaultdict

import expcross.cli
import expcross.compare
import expcross.figures
import expcross.intersect
import expcross.lambertw
import expcross.oracle
from gen import BASE_BANDS, W_REGIONS, base_band, w_region
from reference import ulp_err, w_ref
from spans import NonfiniteCounter, Span, Tracer, self_ns

OP = "op"
CLI_COMMANDS = ("eval", "intersect", "oracle", "plot")
# Per-layer metrics a workload's own check measures, not the spans.
CHECK_METRICS = {
    "compare.findings.small_base": "count",
    "compare.findings.tangent": "count",
    "cli.interp_us": "us",
    "cli.import_us": "us",
    **{f"cli.process_us.{cmd}": "us" for cmd in CLI_COMMANDS},
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _w_note(args, out):
    z, branch = args[0], int(args[1])
    if isinstance(out, Exception):
        return (z, branch, None, -1)
    return (z, branch, out.w, out.iterations)


def install(tracer: Tracer, caller) -> NonfiniteCounter:
    """Wrap every traced public function; caller is the benchmark module making the ops."""
    cli, cmp, fig = expcross.cli, expcross.compare, expcross.figures
    inter, orc = expcross.intersect, expcross.oracle
    tracer.patch(
        "lambertw.eval_w", expcross.lambertw.eval_w, _w_note,
        (inter, "eval_w"), (cli, "eval_w"), (caller, "eval_w"),
    )
    tracer.patch(
        "intersect.diagonal_intersections", inter.diagonal_intersections,
        lambda args, out: args[0],
        (cmp, "diagonal_intersections"), (fig, "diagonal_intersections"),
        (cli, "diagonal_intersections"), (caller, "diagonal_intersections"),
    )
    tracer.patch(
        "compare.compare_with_closed_form", cmp.compare_with_closed_form, None,
        (cli, "compare_with_closed_form"), (caller, "compare_with_closed_form"),
    )
    tracer.patch(
        "oracle.all_intersections_numeric", orc.all_intersections_numeric,
        lambda args, out: 0 if isinstance(out, Exception) else len(out),
        (cmp, "all_intersections_numeric"),
    )
    tracer.patch(
        "oracle.scan_sign_changes", orc.scan_sign_changes,
        lambda args, out: (args[3] + 1, 0 if isinstance(out, Exception) else len(out)),
        (orc, "scan_sign_changes"),
    )
    tracer.patch("oracle.bisect", orc.bisect, None, (orc, "bisect"))
    tracer.patch("figures.custom_samples", fig.custom_samples, None, (cli, "custom_samples"))
    tracer.patch(
        "figures.write_csv", fig.write_csv, lambda args, out: len(args[0]), (cli, "write_csv")
    )
    tracer.patch("cli.main", cli.main, lambda args, out: args[0][0], (caller, "cli_main"))
    counter = NonfiniteCounter()
    logging.getLogger("expcross.oracle").addHandler(counter)
    return counter


def uninstall(tracer: Tracer, counter: NonfiniteCounter) -> None:
    tracer.restore()
    logging.getLogger("expcross.oracle").removeHandler(counter)


def _mean(values, scale: float = 1.0) -> float | None:
    values = list(values)
    return statistics.fmean(values) * scale if values else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(
    spans: list[Span], w_refs: dict[tuple[float, int], float], nonfinite_nodes: int
) -> dict[str, tuple[float | None, str]]:
    """Every span-derived per-layer metric, as name -> (value, unit).

    w_refs caches W references by (z, branch); a successful call without one
    gets it computed here, after timing, so err_ulp covers every call."""
    selfs = self_ns(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def of(name: str) -> list[Span]:
        return [spans[i] for i in by_name[name]]

    m: dict[str, tuple[float | None, str]] = {}

    calls = of("lambertw.eval_w")
    by_region: dict[str, list[Span]] = defaultdict(list)
    for s in calls:
        by_region[w_region(s.note[0], s.note[1])].append(s)
    for r in W_REGIONS:
        rs = by_region[r]
        ok = [s for s in rs if s.note[2] is not None]
        # Error is a property of the input: count each distinct call once.
        errs = []
        for z, b, w, _ in {s.note for s in ok}:
            if (z, b) not in w_refs:
                w_refs[(z, b)] = w_ref(z, b)
            errs.append(ulp_err(w, w_refs[(z, b)]))
        m[f"lambertw.eval_w.us_per_call.{r}"] = (_mean((s.ns for s in rs), 1e-3), "us")
        m[f"lambertw.eval_w.iters_mean.{r}"] = (_mean(s.note[3] for s in ok), "iters")
        m[f"lambertw.eval_w.error_frac.{r}"] = (_ratio(len(rs) - len(ok), len(rs)), "frac")
        m[f"lambertw.eval_w.err_ulp_p99.{r}"] = (percentile(errs, 0.99) if errs else None, "ulp")
    ok = [s for s in calls if s.note[2] is not None]
    m["lambertw.eval_w.zero_iter_frac"] = (
        _ratio(sum(s.note[3] == 0 for s in ok), len(ok)), "frac"
    )

    solves = by_name["intersect.diagonal_intersections"]
    by_band: dict[str, list[Span]] = defaultdict(list)
    for i in solves:
        by_band[base_band(spans[i].note)].append(spans[i])
    for band in BASE_BANDS:
        m[f"intersect.diagonal_intersections.us_per_call.{band}"] = (
            _mean((s.ns for s in by_band[band]), 1e-3), "us"
        )
    m["intersect.diagonal_intersections.self_us_per_call"] = (
        _mean((selfs[i] for i in solves), 1e-3), "us"
    )
    solve_ids = set(solves)
    m["intersect.diagonal_intersections.eval_w_calls_per_solve"] = (
        _ratio(sum(s.parent in solve_ids for s in calls), len(solves)), "calls"
    )

    scans = of("oracle.scan_sign_changes")
    nodes = sum(s.note[0] for s in scans)
    brackets = sum(s.note[1] for s in scans)
    roots = sum(s.note for s in of("oracle.all_intersections_numeric"))
    scan_ns = sum(s.ns for s in scans)
    m["oracle.scan_sign_changes.ns_per_node"] = (_ratio(scan_ns, nodes), "ns")
    m["oracle.scan_sign_changes.share_of_op"] = (
        _ratio(scan_ns, sum(s.ns for s in of(OP))) if scans else None, "frac"
    )
    m["oracle.scan_sign_changes.brackets_per_scan"] = (_ratio(brackets, len(scans)), "count")
    m["oracle.nonfinite_nodes"] = (_ratio(nonfinite_nodes, len(scans)), "count/scan")
    m["oracle.bisect.us_per_call"] = (_mean((s.ns for s in of("oracle.bisect")), 1e-3), "us")
    m["oracle.roots_per_bracket"] = (_ratio(roots, brackets), "frac")
    m["oracle.nodes_per_root"] = (_ratio(nodes, roots), "count")

    m["compare.compare_with_closed_form.self_us_per_call"] = (
        _mean((selfs[i] for i in by_name["compare.compare_with_closed_form"]), 1e-3), "us"
    )

    mains = of("cli.main")
    for cmd in CLI_COMMANDS:
        m[f"cli.main_us.{cmd}"] = (_mean((s.ns for s in mains if s.note == cmd), 1e-3), "us")

    m["figures.custom_samples.us_per_call"] = (
        _mean((s.ns for s in of("figures.custom_samples")), 1e-3), "us"
    )
    writes = of("figures.write_csv")
    m["figures.write_csv.us_per_row"] = (
        _ratio(sum(s.ns for s in writes) * 1e-3, sum(s.note for s in writes)), "us"
    )
    return m
