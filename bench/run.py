#!/usr/bin/env python3
"""expcross benchmark: seeded closed-loop workloads over every layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of w_sweep, solve_sweep,
oracle_sweep, cli_mix, or `all` to run the four in one process.  The same
seed gives the same inputs.  mpmath (benchmark only) supplies the
references; the package under test is imported from src/.

--trace 0 times the ops untraced and prints every end-to-end metric.
--trace 1 runs the workload untraced and then traced (the timed budget is
split between the two) and prints every per-layer metric, with
trace.overhead_frac = 1 - traced/untraced ops/s.  Spans are written to
.bench_run/trace-NAME.csv.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}, holding the
metrics BENCHMARK.json declares for the mode.  `attempted` is the number of
distinct seeded inputs, each run at least once and checked once; `failed`
counts those whose op raised, was refused or missed the tolerance
(workloads.py says which, and the tag line shows where).  Outcomes are
deterministic per input, so both depend on the seed only, not on how many
times the timed loop got round the pool.  `correct` is false if any op
returned a wrong answer.  A per-layer metric the workload does not reach
prints as `-` and reads 0 in the JSON.

Timing.  Each workload cycles a fixed pool of seeded inputs, so every input
runs many times.  An input's cost is its best of its repeats, and ops_per_s
(1e6 / mean best cost) and the op_us percentiles are taken over those
per-input costs: they leave out slow stretches of the host, and with them
any recurring cost that misses some repeats of an input (a GC pass, say).
raw.ops_per_s is the plain closed-loop rate, with all of that in it.
setup_s is the time a fresh interpreter takes to import the package and run
the workload's first op (cli_mix: the first command of each kind),
interpreter start excluded; the fastest of SETUP_REPEATS set-ups spread over
the run, for the same reason.

Host note: measured on a shared 2-cpu host with Python 3.11.7, no pinning
and no change to cgroups or caches; the load is this one process and the
child interpreters it waits for.  The host's speed for interpreted code
drifts by about +-10 % over minutes and drops 1.5-1.7x for stretches of
~30 s to several minutes (thread CPU time tracks wall time there, so it is
contention, not preemption).  Best-of-repeats timings remove the short
stretches; one longer than a run shows as run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("w_sweep", "solve_sweep", "oracle_sweep", "cli_mix")
SETUP_REPEATS = 25
# Bounds the memory a traced run keeps (~100 bytes a span).
SPAN_CAP = 100_000

# A set-up child: import, then the first op(s), each failure tolerated.
_SETUP_HEAD = "import contextlib, io, sys, time\nt0 = time.perf_counter()\n{}\n"
_SETUP_OP = """try:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        {}
except (Exception, SystemExit):
    pass
"""
_SETUP_TAIL = "sys.stdout.write(repr(time.perf_counter() - t0))\n"


@dataclass
class Loop:
    ops: int
    elapsed_ns: int
    lat_ns: array
    results: list  # result (or exception) of each distinct input, in order

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.elapsed_ns / 1e9)


def timed_loop(op, payloads: list, seconds: float, tracer=None, between=None, pauses=0) -> Loop:
    """Closed loop over payloads, cycling, for `seconds` of loop time (or until
    the span cap), and at least once over every payload.  `between` runs
    `pauses` times, evenly spread, untimed."""
    n = len(payloads)
    lat = array("q")
    results = []
    clock = perf_counter_ns
    budget = int(seconds * 1e9)
    left = pauses if between else 0
    start = t1 = next_pause = clock()
    paused = 0
    i = 0
    while True:
        if left and t1 >= next_pause:
            between()
            now = clock()
            paused += now - t1
            left -= 1
            next_pause = now + budget // pauses
        p = payloads[i % n]
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            r = op(p)
        except Exception as exc:  # a failing op is an outcome to count
            r = exc
        t1 = clock()
        lat.append(t1 - t0)
        if i < n:
            results.append(r)
        i += 1
        spent = t1 - start - paused >= budget or (tracer is not None and len(tracer.spans) >= SPAN_CAP)
        if spent and i >= n:
            return Loop(i, t1 - start - paused, lat, results)


def setup_once(code: str, env: dict[str, str]) -> float:
    """Seconds to import the package and run the first op in a fresh
    interpreter, interpreter start excluded."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def _best_us(loop: Loop, n: int) -> list[float]:
    """Fastest time (us) of each distinct input over its repeats in the loop.

    Other tenants of the machine slow whole stretches of a run by up to ~1.7x;
    an input's best time is its cost without that interference."""
    best = list(loop.lat_ns[:n])
    for k in range(n, loop.ops, n):
        best = [min(a, b) for a, b in zip(best, loop.lat_ns[k : k + n])] + best[loop.ops - k :]
    return [t / 1e3 for t in best]


def run_workload(wl, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Returns (summary, every metric as name -> (value, unit))."""
    import layers
    import workloads
    from spans import Tracer

    items = wl.inputs(random.Random(f"{wl.name}/{seed}"))
    payloads = [p for _, p in items]
    wl.prepare(items)
    m: dict[str, tuple[float | None, str]] = {}

    if not traced:
        imports, ops = wl.setup_code(items)
        code = _SETUP_HEAD.format(imports) + "".join(map(_SETUP_OP.format, ops)) + _SETUP_TAIL
        env = workloads.child_env()
        setup_once(code, env)  # warms the bytecode caches
        # Set-ups are spread over the run so that they sample the same
        # machine conditions as the ops.
        setups: list[float] = []
        loop = timed_loop(
            wl.op, payloads, seconds,
            between=lambda: setups.append(setup_once(code, env)), pauses=SETUP_REPEATS,
        )
        m["setup_s"] = (min(setups), "s")
    else:
        loop = timed_loop(wl.op, payloads, seconds / 2)
        tracer = Tracer()
        counter = layers.install(tracer, workloads)
        try:
            traced_loop = timed_loop(tracer.wrap(layers.OP, wl.op), payloads, seconds / 2, tracer)
        finally:
            layers.uninstall(tracer, counter)
        m.update(layers.layer_metrics(tracer.spans, wl.w_refs, counter.nodes))
        m["trace.overhead_frac"] = (1.0 - traced_loop.ops_per_s / loop.ops_per_s, "frac")
        _write_spans(tracer.spans, wl.name)

    checked = wl.check(items, loop.results)
    attempted, failed = len(items), sum(checked.failed)
    counts = Counter(tag for tag, _ in items)
    fails = Counter(tag for (tag, _), f in zip(items, checked.failed) if f)
    print(
        f"# {wl.name} seed={seed} inputs by tag (failed): "
        + " ".join(f"{t}={c}({fails[t]})" for t, c in counts.items())
    )
    best_us = _best_us(loop, len(items))
    m["ops_per_s"] = (1e6 / statistics.fmean(best_us), "ops/s")
    m["op_us_p50"] = (statistics.median(best_us), "us")
    # Report a percentile only when at least 10 inputs lie beyond it.
    for q, name in ((0.9, "op_us_p90"), (0.99, "op_us_p99")):
        if len(best_us) * (1.0 - q) >= 10 - 1e-9:
            m[name] = (layers.percentile(best_us, q), "us")
    m["raw.ops_per_s"] = (loop.ops_per_s, "ops/s")
    m["fail_frac"] = (failed / attempted, "frac")
    m.update(checked.report)
    if traced:
        # Layer metrics a workload's check measures; unreached unless it does.
        m.update({name: (None, unit) for name, unit in layers.CHECK_METRICS.items()})
    m.update(checked.layer)
    if traced:
        m.update(wl.layer_extra())

    for line in checked.wrong[:5]:
        print(f"bench: incorrect: {line}", file=sys.stderr)
    summary = {"correct": not checked.wrong, "attempted": attempted, "failed": failed}
    return summary, m


def _write_spans(spans, name: str) -> None:
    out = ROOT / ".bench_run" / f"trace-{name}.csv"
    with open(out, "w") as f:
        f.write("name,start_ns,end_ns,parent,op\n")
        for s in spans:
            f.write(f"{s.name},{s.start},{s.end},{s.parent},{s.op}\n")


def _declared(spec: dict, traced: bool, m: dict) -> dict:
    """The metrics BENCHMARK.json declares for this mode.  Every one must have
    been produced; one the workload does not reach (value None) reads 0."""
    out = {}
    for d in spec["per_layer" if traced else "end_to_end"]:
        if d["name"] not in m:
            raise ValueError(f"declared metric {d['name']} was not produced")
        value, unit = m[d["name"]]
        if unit != d["unit"]:
            raise ValueError(f"{d['name']}: unit {unit!r}, declared {d['unit']!r}")
        out[d["name"]] = {"value": 0.0 if value is None else float(value), "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "expcross" / "__init__.py").is_file():
        print(f"bench: no package sources at {ROOT / 'src' / 'expcross'}", file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401  (references only)
    except ImportError:
        print("bench: mpmath is required for the references", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = NAMES if args.workload == "all" else (args.workload,)
    print(f"# host: {os.cpu_count()} cpus, Python {platform.python_version()}, one op in flight")
    tmp = ROOT / ".bench_run" / f"tmp-{args.workload}-{args.seed}"
    tmp.mkdir(parents=True, exist_ok=True)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            summary, m = run_workload(WORKLOADS[name](str(tmp)), args.seed, seconds, bool(args.trace))
            for key, (value, unit) in m.items():
                shown = "-" if value is None else f"{value:.6g}"
                print(f"{name:<13} {key:<58} {shown:>14} {unit}")
            declared = _declared(spec, bool(args.trace), m)
            prefix = "" if len(names) == 1 else f"{name}."
            final["correct"] = final["correct"] and summary["correct"]
            final["attempted"] += summary["attempted"]
            final["failed"] += summary["failed"]
            final["metrics"].update({prefix + k: v for k, v in declared.items()})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not all(math.isfinite(v["value"]) for v in final["metrics"].values()):
        print("bench: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
