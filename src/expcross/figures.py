"""Plot-data generation: sampled curves plus marked intersection points.

Output is data-only (CSV rows of x, y, series_label); rendering is left
to whatever the data lands in.  The named figures fix the base and the
sampling windows; "custom" derives a window from the solved points.
"""

import csv
import math
from typing import Iterable, NamedTuple, TextIO

from .errors import DomainError
from .intersect import TANGENT_BASE, IntersectionPoint, diagonal_intersections

__all__ = ["CurveSample", "FIGURE_NAMES", "figure_samples", "custom_samples", "write_csv"]

FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")

DEFAULT_SAMPLES = 400


class CurveSample(NamedTuple):
    x: float
    y: float
    series_label: str


def _grid(lo: float, hi: float, samples: int) -> list[float]:
    if samples < 2:
        raise DomainError(f"need at least 2 samples per series, got {samples}")
    if not lo < hi:  # custom's exp window, clamped away entirely
        return []
    step = (hi - lo) / (samples - 1)
    return [lo + i * step for i in range(samples - 1)] + [hi]


def _series(label: str, f, lo: float, hi: float, samples: int) -> list[CurveSample]:
    out = []
    for x in _grid(lo, hi, samples):
        try:
            y = f(x)
        except OverflowError:  # b**x past the float range: as unplottable as inf
            continue
        if math.isfinite(y):
            out.append(CurveSample(x=x, y=y, series_label=label))
    return out


def _base_figure(
    b: float,
    points: tuple[IntersectionPoint, ...],
    exp_range: tuple[float, float],
    log_range: tuple[float, float],
    bis_range: tuple[float, float],
    samples: int,
) -> list[CurveSample]:
    ln_b = math.log(b)
    rows = _series("exp", lambda x: b**x, *exp_range, samples)
    rows += _series("log", lambda x: math.log(x) / ln_b, *log_range, samples)
    rows += _series("bisectrix", lambda x: x, *bis_range, samples)
    rows += [CurveSample(x=p.x, y=p.y, series_label="point") for p in points]
    return rows


# name -> (base, exp window, log window, bisectrix window)
_BASE_FIGURES = {
    "fig1": (math.e, (-6.0, 1.5), (0.05, 8.0), (-3.0, 4.0)),
    "fig3": (0.8, (-2.0, 6.2), (0.2, 7.0), (-2.0, 4.0)),
    "fig4": (1.3, (-3.0, 14.0), (0.6, 11.0), (-2.0, 12.0)),
    "fig5": (TANGENT_BASE, (-6.0, 6.0), (0.5, 5.0), (-2.0, 5.0)),
}


def figure_samples(name: str, samples: int = DEFAULT_SAMPLES) -> list[CurveSample]:
    """Samples for one of the five canned figures.

    fig1: b = e (no intersection); fig2: the map z = w*e**w on [-6, 1.5]
    with its minimum marked at (-1, -1/e); fig3: b = 0.8; fig4: b = 1.3;
    fig5: the tangent base e**(1/e).
    """
    if name == "fig2":
        rows = _series("curve", lambda w: w * math.exp(w), -6.0, 1.5, samples)
        rows.append(CurveSample(x=-1.0, y=-math.exp(-1.0), series_label="point"))
        return rows
    if name in _BASE_FIGURES:
        b, *windows = _BASE_FIGURES[name]
        return _base_figure(b, diagonal_intersections(b).points, *windows, samples)
    raise DomainError(f"unknown figure {name!r}; expected one of {FIGURE_NAMES} or custom")


def custom_samples(
    b: float,
    x_min: float | None = None,
    x_max: float | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> list[CurveSample]:
    """Same generator for an arbitrary base, window derived from the points."""
    points = diagonal_intersections(b).points
    if x_max is None:
        x_max = max(5.0, *(1.3 * p.x for p in points)) if points else 5.0
    if x_min is None:
        x_min = -2.0
    # A finite width also rules out infinite bounds.
    if not (x_min < x_max and math.isfinite(x_max - x_min)):
        raise DomainError(f"need finite x_min < x_max, got [{x_min!r}, {x_max!r}]")
    # Keep the exponential series plottable: b**x <= 1e6 from x = ln(1e6)/ln(b)
    # down for b > 1, and up for b < 1.
    exp_lo, exp_hi = x_min, x_max
    if b > 1.0:
        exp_hi = min(exp_hi, math.log(1e6) / math.log(b))
    else:
        exp_lo = max(exp_lo, math.log(1e6) / math.log(b))
    log_lo = max(x_min, 1e-3)
    return _base_figure(b, points, (exp_lo, exp_hi), (log_lo, x_max), (x_min, x_max), samples)


def write_csv(rows: Iterable[CurveSample], stream: TextIO) -> None:
    """Emit `x,y,series_label` rows; floats as shortest round-trip repr."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CurveSample._fields)
    writer.writerows((repr(x), repr(y), label) for x, y, label in rows)
