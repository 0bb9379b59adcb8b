"""Result records are immutable named tuples, and importing the package is cheap.

The records' contract: field names, order, defaults and repr text as
before; every attribute read-only; RootBracket validates on every
construction path, _make and _replace included.  Importing the
package (or its CLI) loads neither dataclasses, inspect nor logging; the
oracle imports logging only when a scan has a warning to log.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import expcross
from expcross import (
    BranchId,
    ComparisonVerdict,
    DiagonalGap,
    EvalResult,
    FullGap,
    IntersectionClass,
    IntersectionPoint,
    IntersectionReport,
    RootBracket,
    WResidual,
)
from expcross.cli import main
from expcross.errors import DomainError
from expcross.figures import CurveSample

SKIP_MSG = "scan_sign_changes: skipped %d node(s) with non-finite values"

POINT = IntersectionPoint(x=1.5, y=1.5, source_branch="W0", residual=0.0)
RECORDS = [
    EvalResult(z=1.0, branch=BranchId.W0, w=0.5671432904097838, residual=0.0, iterations=3),
    WResidual(1.0),
    DiagonalGap(0.5),
    FullGap(1.3),
    RootBracket(lo=1.0, hi=2.0, f_lo=-1.0, f_hi=0.5),
    POINT,
    IntersectionReport(
        b=0.8, z=0.2231435513142097, classification=IntersectionClass.UNIQUE_DIAGONAL,
        points=(POINT,),
    ),
    ComparisonVerdict(
        b=0.8, x_max=50.0, n=4, oracle_roots=(1.5,), closed_form_roots=(1.5,),
        matched_pairs=((1.5, 1.5),), deltas=(0.0,), max_delta=0.0, count_mismatch=False,
    ),
    CurveSample(x=0.0, y=1.0, series_label="exp"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_every_attribute_is_read_only(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)
    with pytest.raises(AttributeError):
        record.note = "extra"


def test_repr_reads_as_before():
    assert repr(EvalResult(z=1.0, branch=BranchId.W0, w=0.5, residual=0.0, iterations=3)) == (
        "EvalResult(z=1.0, branch=<BranchId.W0: 0>, w=0.5, residual=0.0, iterations=3)"
    )
    assert repr(RootBracket(lo=1.0, hi=2.0, f_lo=-1.0, f_hi=0.5)) == (
        "RootBracket(lo=1.0, hi=2.0, f_lo=-1.0, f_hi=0.5)"
    )


def test_asdict_order_is_the_json_order(capsys):
    assert main(["intersect", "--base", "1.3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["command", "b", "z", "class", "points"]
    for point in payload["points"]:
        assert list(point) == list(POINT._asdict()) == ["x", "y", "source_branch", "residual"]


class TestValidationOnEveryPath:
    def test_root_bracket(self):
        with pytest.raises(DomainError, match="lo < hi"):
            RootBracket._make((2.0, 1.0, -1.0, 1.0))
        with pytest.raises(DomainError, match="no sign change"):
            RootBracket(1.0, 2.0, -1.0, 0.5)._replace(f_hi=-0.5)
        made = RootBracket._make((1.0, 2.0, -1.0, 0.5))
        assert type(made) is RootBracket and made.hi == 2.0


def test_records_are_tuples():
    # The deliberate contract: iterable, indexable, equal to plain tuples.
    result = EvalResult(z=1.0, branch=BranchId.W0, w=0.5, residual=0.0, iterations=3)
    assert tuple(result) == (1.0, BranchId.W0, 0.5, 0.0, 3)
    assert result == (1.0, 0, 0.5, 0.0, 3)
    assert POINT[0] == POINT.x == 1.5
    assert FullGap(2.0) == DiagonalGap(2.0)


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter without site, finding only this package."""
    src = str(pathlib.Path(expcross.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-S", *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )


class TestFreshInterpreter:
    def test_import_loads_no_dataclasses_inspect_or_logging(self):
        heavy = "[m for m in ('dataclasses', 'inspect', 'logging') if m in sys.modules]"
        code = f"import sys\nimport expcross\nprint({heavy})\nimport expcross.cli\nprint({heavy})\n"
        assert _fresh("-c", code).stdout == "[]\n[]\n"

    def test_handler_attached_before_the_first_scan_gets_the_skip_record(self):
        code = (
            "import logging\n"
            "import expcross\n"
            "records = []\n"
            "class Keep(logging.Handler):\n"
            "    def emit(self, record):\n"
            "        records.append((record.msg, record.args))\n"
            "logging.getLogger('expcross.oracle').addHandler(Keep())\n"
            "assert expcross.scan_sign_changes(expcross.FullGap(1e10), 1e-9, 50, 20000) == []\n"
            "print(repr(records))\n"
        )
        assert _fresh("-c", code).stdout == repr([(SKIP_MSG, (7670,))]) + "\n"

    def test_shell_run_prints_the_skip_warning(self):
        proc = _fresh("-m", "expcross", "oracle", "--base", "1e10", "--format", "csv")
        assert proc.stderr == SKIP_MSG % 7670 + "\n"
