"""The four workloads.

Each is a closed loop: one thread and one operation in flight.  A workload
draws seeded, tagged inputs from gen.py, computes its references before
timing starts, and checks every distinct result after timing ends.

Outcomes of an op:
  failed    - it raised (for the CLI: exited non-zero), its x is further
              than _X_REL_TOL from the reference (solver), or its verdict
              disagrees with the closed form (oracle).  Counted, reported
              per tag, and never hidden by the choice of inputs.
  incorrect - it returned, but the output breaks the program's documented
              contract or differs from an independent computation.  Any
              incorrect result makes the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter_ns

from expcross.cli import main as cli_main
from expcross.compare import compare_with_closed_form
from expcross.errors import ConvergenceError, DomainError, StateError
from expcross.figures import custom_samples, write_csv
from expcross.intersect import diagonal_intersections
from expcross.lambertw import BRANCH_POINT_Z, BranchId, eval_w
from gen import base_inputs, cli_commands, w_inputs
from layers import percentile
from reference import diagonal_ref, ulp_err, w_ref

# eval_w's documented accuracy: residual bound outside the branch-point
# window, absolute error in w inside it.
_REL_TOL = 1e-14
_BP_WINDOW = 1e-6
# Criterion 6's oracle tolerance, made relative: near-1 bases have W-1
# roots ~1e10.  A solved x must meet it too.
_X_REL_TOL = 1e-8
_CHILD_TIMEOUT_S = 60
_EXIT_USAGE = 64


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package is not installed, so
    every child finds it through PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": src}


@dataclass
class Checked:
    failed: list[bool]  # one flag per distinct input that ran
    wrong: list[str] = field(default_factory=list)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.w_refs: dict[tuple[float, int], float] = {}

    def prepare(self, items) -> None:
        """Reference computation: benchmark set-up, not part of setup_s."""

    def layer_extra(self) -> dict[str, tuple[float, str]]:
        return {}


class WSweep(Workload):
    # lambertw does almost all of the work: every seed region and the
    # bisection fallback run, so its accuracy and W0 failures stay visible.
    name = "w_sweep"

    def inputs(self, rng):
        return [(tag, (z, BranchId(br))) for tag, (z, br) in w_inputs(rng, 1000)]

    def prepare(self, items):
        self.w_refs = {(z, int(br)): w_ref(z, int(br)) for _, (z, br) in items}

    @staticmethod
    def op(p):
        return eval_w(p[0], p[1])

    def setup_code(self, items):
        z, br = items[0][1]
        return "import expcross", [f"expcross.eval_w({z!r}, expcross.BranchId({int(br)}))"]

    def check(self, items, results):
        out = Checked([isinstance(r, Exception) for r in results])
        errs = []
        for (tag, (z, br)), r in zip(items, results):
            if isinstance(r, Exception):
                continue
            ref = self.w_refs[(z, int(br))]
            errs.append(ulp_err(r.w, ref))
            problem = _w_contract(max(z, BRANCH_POINT_Z), br, r.w, ref)
            if problem:
                out.wrong.append(f"eval_w({z!r}, {br.label}) = {r.w!r}: {problem}")
        out.report["w_err_ulp_p99"] = (percentile(errs, 0.99) if errs else 0.0, "ulp")
        return out


def _w_contract(z: float, br: BranchId, w: float, ref: float) -> str:
    if not math.isfinite(w):
        return "not finite"
    if (w < -1.0) if br is BranchId.W0 else (w > -1.0):
        return "off the branch's half-line"
    if abs(z - BRANCH_POINT_Z) <= _BP_WINDOW:
        return "" if abs(w - ref) <= _BP_WINDOW else f"error {abs(w - ref):.3g} in the window"
    residual = abs(w * math.exp(w) - z)
    return "" if residual <= _REL_TOL * max(1.0, abs(z)) else f"residual {residual:.3g}"


_EXPECTED = {
    "small_base": ("unique_diagonal", 1),
    "sub_unit": ("unique_diagonal", 1),
    "near1_below": ("unique_diagonal", 1),
    "near1_above": ("two_points", 2),
    "two_point": ("two_points", 2),
    "tangent": ("tangent", 1),
    "above": ("no_intersection", 0),
}


class SolveSweep(Workload):
    # intersect's own work is about half of each solve, and lambertw sees
    # only z = -ln b, a different use than w_sweep.  The near-1 bands keep
    # the b = 1 + 1.5e-9 -> x = 1.0 defect visible.
    name = "solve_sweep"

    def inputs(self, rng):
        return base_inputs(rng, 300)

    def prepare(self, items):
        # The tangency band snaps to x = e by contract; it has no fixed-point reference.
        self.x_refs = {b: diagonal_ref(b) for tag, b in items if tag != "tangent"}

    @staticmethod
    def op(b):
        return diagonal_intersections(b)

    def setup_code(self, items):
        return "import expcross", [f"expcross.diagonal_intersections({items[0][1]!r})"]

    def check(self, items, results):
        out = Checked([isinstance(r, Exception) for r in results])
        errs = []
        for i, ((tag, b), r) in enumerate(zip(items, results)):
            if isinstance(r, Exception):
                continue
            cls, count = _EXPECTED[tag]
            xs = [p.x for p in r.points]
            if r.classification.value != cls or len(xs) != count:
                out.wrong.append(f"b={b!r}: {r.classification.value} with {len(xs)} points")
            elif xs != sorted(xs) or not all(math.isfinite(x) and p.y == x for x, p in zip(xs, r.points)):
                out.wrong.append(f"b={b!r}: malformed points {xs}")
            elif tag == "tangent":
                if xs != [math.e]:
                    out.wrong.append(f"b={b!r}: tangency at {xs}, not e")
            else:
                refs = self.x_refs[b]
                errs.extend(ulp_err(x, ref) for x, ref in zip(xs, refs))
                out.failed[i] = any(abs(x - ref) > _X_REL_TOL * abs(ref) for x, ref in zip(xs, refs))
        out.report["x_err_ulp_p99"] = (percentile(errs, 0.99) if errs else 0.0, "ulp")
        return out


class OracleSweep(Workload):
    # About 99 % of each op is oracle.scan_sign_changes: this is where an
    # oracle optimisation shows, and w_sweep is where it must not.
    name = "oracle_sweep"

    def inputs(self, rng):
        # Few enough distinct bases that each runs several times in a run.
        return base_inputs(rng, 20)

    @staticmethod
    def op(b):
        return compare_with_closed_form(b)

    def setup_code(self, items):
        return "import expcross", [f"expcross.compare_with_closed_form({items[0][1]!r})"]

    def check(self, items, results):
        out = Checked([])
        findings = Counter()
        max_rel = 0.0
        for (tag, b), v in zip(items, results):
            if isinstance(v, Exception):
                out.failed.append(True)
                continue
            closed = tuple(p.x for p in diagonal_intersections(b).points)
            deltas = tuple(abs(o - c) for o, c in v.matched_pairs)
            if (
                v.closed_form_roots != closed
                or v.count_mismatch != (len(v.oracle_roots) != len(closed))
                or v.deltas != deltas
                or v.max_delta != max(deltas, default=0.0)
            ):
                out.wrong.append(f"b={b!r}: inconsistent verdict {v}")
            rel = max((abs(o - c) / max(1.0, abs(c)) for o, c in v.matched_pairs), default=0.0)
            # The two documented findings: the off-diagonal 2-cycle below
            # e**-e, and the tangency touch a sign scan cannot see.
            if v.count_mismatch and tag == "tangent":
                findings[tag] += 1
                out.failed.append(False)
                continue
            if v.count_mismatch and tag == "small_base" and len(v.oracle_roots) > len(closed):
                findings[tag] += 1
            elif v.count_mismatch:
                out.failed.append(True)
                continue
            max_rel = max(max_rel, rel)
            out.failed.append(rel > _X_REL_TOL)
        out.report["oracle_max_rel_delta"] = (max_rel, "rel")
        for tag in ("small_base", "tangent"):
            out.layer[f"compare.findings.{tag}"] = (findings[tag], "count")
        return out


class CliMix(Workload):
    # The only workload where argparse, the emitters and figures count.  One
    # op is one `expcross` command run through cli.main in this process:
    # a child process per op costs ~90 ms, mostly interpreter start, and
    # varied by up to 25 % between runs.  Import and the first command of
    # each kind in a fresh interpreter are setup_s; every command also runs
    # once as a `python -m expcross` child when the outputs are checked.
    name = "cli_mix"

    def __init__(self, tmp):
        super().__init__(tmp)
        self.env = child_env()

    def inputs(self, rng):
        return cli_commands(rng, 17, self.tmp)

    @staticmethod
    def op(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli_main(argv)
            except SystemExit as exc:  # argparse exits on a refused command line
                return exc.code

    def setup_code(self, items):
        # The first command of each kind: one command alone would make
        # setup_s swing 1-12 ms with the seed.
        first = {}
        for cmd, argv in items:
            first.setdefault(cmd, argv)
        return "import expcross.cli", [f"expcross.cli.main({argv!r})" for argv in first.values()]

    def check(self, items, results):
        out = Checked([])
        codes = Counter()
        process_us = defaultdict(list)
        for (cmd, argv), code in zip(items, results):
            if isinstance(code, Exception):
                code = 1  # uncaught: the interpreter exits 1
            t0 = perf_counter_ns()
            proc = subprocess.run(
                [sys.executable, "-m", "expcross", *argv],
                capture_output=True, text=True, env=self.env, timeout=_CHILD_TIMEOUT_S,
            )
            process_us[cmd].append((perf_counter_ns() - t0) / 1e3)
            out.failed.append(code != 0)
            if code:
                codes[(cmd, code)] += 1
            if proc.returncode != code:
                out.wrong.append(f"{argv}: child exit {proc.returncode}, in-process {code}")
            elif code != _EXIT_USAGE:
                # A refused command line (e.g. argparse reading `--z -1e-10`
                # as an option) is a reported failure, not a wrong answer.
                problem = _library_disagrees(cmd, argv, proc)
                if problem:
                    out.wrong.append(f"{argv}: {problem}")
        for (cmd, code), n in sorted(codes.items()):
            out.report[f"failed.{cmd}.exit_{code}"] = (n, "count")
        for cmd, ts in process_us.items():
            out.layer[f"cli.process_us.{cmd}"] = (statistics.median(ts), "us")
        return out

    def layer_extra(self):
        interp = [_wall_us([sys.executable, "-c", "pass"], self.env) for _ in range(5)]
        imports = [_import_us(self.env) for _ in range(5)]
        return {
            "cli.interp_us": (sorted(interp)[2], "us"),
            "cli.import_us": (sorted(imports)[2], "us"),
        }


def _exit_code(exc: Exception) -> int:
    """The CLI's documented exit code for a library exception (1: uncaught)."""
    if isinstance(exc, (DomainError, StateError)):
        return 2
    return 3 if isinstance(exc, ConvergenceError) else 1


def _library_disagrees(cmd: str, argv: list[str], proc) -> str:
    """How the child's exit code or output differs from the in-process library result."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        if cmd == "eval":
            r = eval_w(float(opts["--z"]), BranchId(int(opts["--branch"])))
        elif cmd == "plot":
            rows = custom_samples(float(opts["--base"]))
        elif cmd == "intersect":
            r = diagonal_intersections(float(opts["--base"]))
        else:
            r = compare_with_closed_form(float(opts["--base"]))
    except Exception as exc:  # the CLI must map it to its exit code
        code = _exit_code(exc)
        return "" if proc.returncode == code else f"exit {proc.returncode}, library implies {code}"
    if proc.returncode:
        return f"exit {proc.returncode}, library succeeded"
    if cmd == "plot":
        buf = io.StringIO()
        write_csv(rows, buf)
        with open(opts["--out"], newline="") as f:
            same = f.read() == buf.getvalue()
        return "" if same and proc.stdout == f"wrote {opts['--out']} ({len(rows)} samples)\n" else "plot data differs"
    try:
        d = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if cmd == "eval":
        got, want = (d["z"], d["w"], d["residual"], d["iterations"]), (r.z, r.w, r.residual, r.iterations)
    elif cmd == "intersect":
        got = (d["class"], [(p["x"], p["source_branch"], p["residual"]) for p in d["points"]])
        want = (r.classification.value, [(p.x, p.source_branch, p.residual) for p in r.points])
    else:
        got = (d["oracle_roots"], d["closed_form_roots"], d["max_delta"], d["count_mismatch"])
        want = (list(r.oracle_roots), list(r.closed_form_roots), r.max_delta, r.count_mismatch)
    return "" if got == want else f"payload {got} differs from library {want}"


def _wall_us(cmd: list[str], env: dict[str, str]) -> float:
    t0 = perf_counter_ns()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=_CHILD_TIMEOUT_S)
    return (perf_counter_ns() - t0) / 1e3


def _import_us(env: dict[str, str]) -> float:
    """Cumulative -X importtime of `import expcross.cli`; the package itself
    is imported inside it."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import expcross.cli"],
        env=env, check=True, capture_output=True, text=True, timeout=_CHILD_TIMEOUT_S,
    )
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "expcross.cli":
            return float(parts[1])
    raise RuntimeError("-X importtime reported no expcross.cli line")


WORKLOADS = {w.name: w for w in (WSweep, SolveSweep, OracleSweep, CliMix)}
