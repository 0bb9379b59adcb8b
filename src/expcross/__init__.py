"""Real-branch Lambert W evaluation and exponential/logarithm intersections.

The library solves b**x = log_b(x) in closed form through the two real
branches of W (w*e**w = z) and ships an independent bracket-and-bisect
oracle to validate every closed-form result.
"""

from .compare import ComparisonVerdict, compare_with_closed_form
from .errors import ConvergenceError, DomainError, StateError
from .intersect import (
    TANGENT_BASE,
    IntersectionClass,
    IntersectionPoint,
    IntersectionReport,
    base_to_z,
    bisectrix_slope,
    classify_base,
    diagonal_intersections,
    tangency_certificate,
)
from .lambertw import (
    BRANCH_POINT_Z,
    BranchId,
    EvalResult,
    branch_point_series,
    eval_w,
    wexp,
)
from .oracle import (
    DiagonalGap,
    FullGap,
    RootBracket,
    WResidual,
    all_intersections_numeric,
    bisect,
    scan_sign_changes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BRANCH_POINT_Z",
    "TANGENT_BASE",
    "BranchId",
    "EvalResult",
    "wexp",
    "branch_point_series",
    "eval_w",
    "IntersectionClass",
    "IntersectionPoint",
    "IntersectionReport",
    "base_to_z",
    "classify_base",
    "diagonal_intersections",
    "bisectrix_slope",
    "tangency_certificate",
    "WResidual",
    "DiagonalGap",
    "FullGap",
    "RootBracket",
    "scan_sign_changes",
    "bisect",
    "all_intersections_numeric",
    "ComparisonVerdict",
    "compare_with_closed_form",
    "DomainError",
    "ConvergenceError",
    "StateError",
]
