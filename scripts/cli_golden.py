#!/usr/bin/env python3
"""Freeze the exact bytes of a fixed set of expcross commands.

Each case runs through expcross.cli.main in this process, with COLUMNS=80
and inside an empty temporary directory, so help text wraps the same way
and `plot --out` paths are the same on every run.  The script records the
argv, the exit code, stdout, stderr and, for `plot`, the bytes of the file
written, in tests/data/cli_golden.json.  tests/test_cli_golden.py holds
the CLI to that file: a change that alters any output byte or exit code
shows up as a failure there, and regenerating the file is a deliberate act.

Usage: python scripts/cli_golden.py [--out tests/data/cli_golden.json]
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from expcross.cli import FORMATS
from expcross.cli import main as cli_main

TANGENT_BASE = repr(math.exp(1.0 / math.e))


def cases() -> list[list[str]]:
    argvs = [
        ["eval", "--z", "-0.25", "--branch", branch, "--format", fmt]
        for branch in ("0", "-1")
        for fmt in FORMATS
    ]
    argvs.append(["eval", "--z", "-1e-10", "--branch", "-1", "--format", "json"])
    argvs += [
        ["intersect", "--base", base, "--format", fmt]
        for base in ("0.8", "1.3", TANGENT_BASE, "2.0")
        for fmt in FORMATS
    ]
    argvs += [
        ["oracle", "--base", base, "--format", fmt]
        for base in ("0.05", "1.3", "2.0", "1e10")
        for fmt in FORMATS
    ]
    argvs.append(["oracle", "--base", "1.3", "--samples", "500", "--x-max", "10", "--format", "json"])
    # The window ends below the closed-form root 7.857, so the oracle misses
    # it: a count mismatch next to a matched pair, and a CSV row `,c,`.
    argvs += [["oracle", "--base", "1.3", "--x-max", "5", "--format", fmt] for fmt in FORMATS]
    argvs += [["plot", "--figure", f"fig{i}", "--out", f"fig{i}.csv"] for i in range(1, 6)]
    argvs.append(
        ["plot", "--figure", "custom", "--base", "1.2", "--x-min", "-1e-3", "--out", "custom.csv"]
    )
    argvs += [
        ["intersect", "--base", "1.0"],  # exit 2: b = 1 has no logarithm base
        ["eval", "--z", "1e200", "--branch", "0"],  # exit 3: known W0 ConvergenceError
        ["eval", "--branch", "0"],  # exit 64: missing --z
        ["eval", "--z", "1", "--branch", "2"],
        ["frobnicate"],
        ["plot", "--figure", "custom", "--out", "custom.csv"],
        ["--help"],
        ["eval", "--help"],
        ["--version"],
    ]
    return argvs


def out_file(argv: list[str]) -> str | None:
    """The file a `plot` case writes, relative to the working directory."""
    return argv[argv.index("--out") + 1] if argv[0] == "plot" else None


def run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    record = {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    name = out_file(argv)
    if name is not None and code == 0:
        record["file"] = Path(name).read_bytes().decode("ascii")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "tests" / "data" / "cli_golden.json",
    )
    args = parser.parse_args()
    out = args.out.resolve()

    os.environ["COLUMNS"] = "80"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            records = [run(argv) for argv in cases()]
        finally:
            os.chdir(cwd)

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=1) + "\n")
    codes = Counter(record["exit"] for record in records)
    print(f"{len(records)} cases, exit codes {dict(sorted(codes.items()))}")
    print(f"frozen to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
