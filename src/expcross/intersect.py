"""Closed-form intersections of y = b**x with its inverse y = log_b(x).

Both graphs are mirror images across the bisectrix y = x, so diagonal
intersections satisfy b**x = x.  Substituting w = -x*ln(b) turns that
fixed-point equation into w*e**w = -ln(b), which the real W branches
solve directly.  The base regimes:

    0 < b < 1        one diagonal point,  x = W0(-ln b)/(-ln b)
    1 < b < e**(1/e) two points,          x = -W0(z)/ln b and -Wm1(z)/ln b
    b = e**(1/e)     tangency at x = e
    b > e**(1/e)     no intersection

Only diagonal solutions are produced here; off-diagonal detection (which
can occur for very small b, where b**x is decreasing) is the oracle
module's job, so the closed form and independent numerics can be compared
rather than conflated.
"""

import enum
import math
from typing import NamedTuple

from .errors import DomainError, StateError
from .lambertw import BranchId, eval_w

__all__ = [
    "TANGENT_BASE",
    "IntersectionClass",
    "IntersectionPoint",
    "IntersectionReport",
    "base_to_z",
    "classify_base",
    "diagonal_intersections",
    "bisectrix_slope",
    "tangency_certificate",
]

#: The tangency base e**(1/e); above it the graphs never meet.
TANGENT_BASE = math.exp(1.0 / math.e)

# Relative half-width of the snap bands around b = 1 (excluded) and
# b = e**(1/e) (classified Tangent).  Exact equality with the irrational
# tangency base is unattainable in binary64.
_CLASS_TOL = 1e-9


class IntersectionClass(enum.Enum):
    UNIQUE_DIAGONAL = "unique_diagonal"
    TWO_POINTS = "two_points"
    TANGENT = "tangent"
    NO_INTERSECTION = "no_intersection"


class IntersectionPoint(NamedTuple):
    """One intersection abscissa with its provenance.

    All points lie on the bisectrix, so y == x.  source_branch is "W0",
    "Wm1", or "tangency"; residual is the fixed-point defect |b**x - x|.
    """

    x: float
    y: float
    source_branch: str
    residual: float


class IntersectionReport(NamedTuple):
    b: float
    z: float
    classification: IntersectionClass
    points: tuple[IntersectionPoint, ...]


def base_to_z(b: float) -> float:
    """Map a base to the W argument z = -ln(b): positive for b < 1."""
    if not math.isfinite(b) or b <= 0.0 or b == 1.0:
        raise DomainError(f"base must be positive and != 1, got {b!r}")
    return -math.log(b)


def classify_base(b: float) -> IntersectionClass:
    """Assign b to its intersection regime.

    Bases within _CLASS_TOL = 1e-9 (relative) of the tangency base snap
    to Tangent; bases within _CLASS_TOL of 1 are rejected as DomainError.
    """
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"base must be positive, got {b!r}")
    if abs(b - 1.0) <= _CLASS_TOL:
        raise DomainError(f"base {b!r} is within {_CLASS_TOL} of 1; no inverse exists")
    if abs(b - TANGENT_BASE) <= _CLASS_TOL * TANGENT_BASE:
        return IntersectionClass.TANGENT
    if b < 1.0:
        return IntersectionClass.UNIQUE_DIAGONAL
    if b < TANGENT_BASE:
        return IntersectionClass.TWO_POINTS
    return IntersectionClass.NO_INTERSECTION


def _point(b: float, x: float, source: str) -> IntersectionPoint:
    return IntersectionPoint(x=x, y=x, source_branch=source, residual=abs(b**x - x))


def diagonal_intersections(b: float) -> IntersectionReport:
    """Solve b**x = log_b(x) on the bisectrix, in closed form.

    Points are ordered by ascending x, so in the two-point regime the
    W0-sourced point (|W0| < |Wm1|, divided by ln b > 0) comes first.
    """
    classification = classify_base(b)
    z = base_to_z(b)

    if classification is IntersectionClass.UNIQUE_DIAGONAL:
        x = eval_w(z, BranchId.W0).w / z
        points = (_point(b, x, "W0"),)
    elif classification is IntersectionClass.TWO_POINTS:
        ln_b = math.log(b)
        x0 = -eval_w(z, BranchId.W0).w / ln_b
        x1 = -eval_w(z, BranchId.WM1).w / ln_b
        points = (_point(b, x0, "W0"), _point(b, x1, "Wm1"))
    elif classification is IntersectionClass.TANGENT:
        points = (_point(b, math.e, "tangency"),)
    else:
        points = ()

    return IntersectionReport(b=b, z=z, classification=classification, points=points)


def bisectrix_slope(b: float) -> float:
    """Slope ln(b) * b**e of y = b**x at x = e, where tangency would sit."""
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"base must be positive, got {b!r}")
    return math.log(b) * b**math.e


def tangency_certificate(b: float) -> float:
    """Slope of b**x at x = e for a base in the Tangent regime.

    Tangency to the bisectrix means this slope equals 1.  Raises
    StateError when b is not classified Tangent.
    """
    if classify_base(b) is not IntersectionClass.TANGENT:
        raise StateError(f"base {b!r} is not in the tangency regime")
    return bisectrix_slope(b)
