"""The CLI reproduces the bytes frozen by scripts/cli_golden.py.

Every case runs in this one process through main(): first in the frozen
order, then in reverse, so no command's output can depend on what an
earlier command left behind.
"""

import json
import logging
from pathlib import Path

import pytest

from expcross.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.fixture
def shell_like(monkeypatch, tmp_path):
    # As in a shell run: help wraps at 80 columns, plot paths are relative
    # to an empty directory, and the oracle's warning reaches stderr through
    # logging's last-resort handler, not the one pytest puts on the root logger.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(logging.getLogger("expcross"), "propagate", False)
    return tmp_path


def _run(capsys, workdir, argv):
    out_file = workdir / argv[argv.index("--out") + 1] if argv[0] == "plot" else None
    if out_file is not None:
        out_file.unlink(missing_ok=True)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    record = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
    if out_file is not None and code == 0:
        record["file"] = out_file.read_bytes().decode("ascii")
    return record


def test_golden_covers_every_exit_code():
    assert {case["exit"] for case in GOLDEN} == {0, 2, 3, 64}
    assert {case["argv"][0] for case in GOLDEN} >= {"eval", "intersect", "oracle", "plot"}


def test_golden_bytes_forward_then_reverse(capsys, shell_like):
    for cases in (GOLDEN, GOLDEN[::-1]):
        for case in cases:
            assert _run(capsys, shell_like, case["argv"]) == case, case["argv"]
