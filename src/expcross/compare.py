"""Cross-validation of the closed-form solver against the oracle.

Lives apart from oracle.py on purpose: the oracle's root finding must not
import the W evaluator, while this harness necessarily touches both
routes.  A count mismatch here is a finding to report, never an
exception; for very small bases the oracle can legitimately see
off-diagonal intersections the bisectrix argument does not produce.
"""

from typing import NamedTuple

from .intersect import diagonal_intersections
from .oracle import all_intersections_numeric

__all__ = ["ComparisonVerdict", "default_x_max", "compare_with_closed_form"]

DEFAULT_SCAN_N = 20000
DEFAULT_ABS_TOL = 1e-12


class ComparisonVerdict(NamedTuple):
    b: float
    x_max: float
    n: int
    oracle_roots: tuple[float, ...]
    closed_form_roots: tuple[float, ...]
    matched_pairs: tuple[tuple[float, float], ...]
    deltas: tuple[float, ...]
    max_delta: float
    count_mismatch: bool


def default_x_max(closed_form_roots: tuple[float, ...]) -> float:
    """Scan window heuristic: the largest closed-form root sits well inside."""
    if closed_form_roots:
        return max(50.0, 4.0 * max(closed_form_roots))
    return 50.0


def _greedy_match(
    oracle_roots: tuple[float, ...], closed: tuple[float, ...]
) -> list[tuple[float, float]]:
    candidates = sorted(
        (abs(o - c), i, j) for i, o in enumerate(oracle_roots) for j, c in enumerate(closed)
    )
    used_o: set[int] = set()
    used_c: set[int] = set()
    pairs = []
    for _, i, j in candidates:
        if i in used_o or j in used_c:
            continue
        used_o.add(i)
        used_c.add(j)
        pairs.append((oracle_roots[i], closed[j]))
    return sorted(pairs)


def compare_with_closed_form(
    b: float, x_max: float | None = None, n: int = DEFAULT_SCAN_N
) -> ComparisonVerdict:
    """Run both routes for base b and report matched pairs and mismatches."""
    report = diagonal_intersections(b)
    closed = tuple(p.x for p in report.points)
    if x_max is None:
        x_max = default_x_max(closed)
    oracle_roots = tuple(all_intersections_numeric(b, x_max, n, DEFAULT_ABS_TOL))
    pairs = tuple(_greedy_match(oracle_roots, closed))
    deltas = tuple(abs(o - c) for o, c in pairs)
    return ComparisonVerdict(
        b=b,
        x_max=x_max,
        n=n,
        oracle_roots=oracle_roots,
        closed_form_roots=closed,
        matched_pairs=pairs,
        deltas=deltas,
        max_delta=max(deltas, default=0.0),
        count_mismatch=len(oracle_roots) != len(closed),
    )
