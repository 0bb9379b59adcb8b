"""Evaluation of the two real branches of the Lambert W function.

W(z) is defined implicitly by w * e**w = z.  Over the reals there are
exactly two branches: the principal branch W0 (w >= -1, defined for
z >= -1/e) and W-1 (w <= -1, defined for -1/e <= z < 0).  They meet at
the branch point z = -1/e, where w = -1 is a double root.

Evaluation refines a region-dependent seed with Halley's iteration
(Corless et al. 1996) until the residual |w*e**w - z| meets a fixed
relative bound, and raises ConvergenceError if the iteration stops short
of it.
"""

import enum
import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

__all__ = [
    "BRANCH_POINT_Z",
    "BranchId",
    "EvalResult",
    "wexp",
    "branch_point_series",
    "eval_w",
]

#: z-coordinate of the branch point, -1/e, where W0 and W-1 merge.
BRANCH_POINT_Z = -math.exp(-1.0)

# Seed regions.  The branch-point series is used when e*z + 1 < _SERIES_CUT;
# the log asymptotics kick in for z > _W0_ASYMP_CUT on W0 and for
# z > _WM1_ASYMP_CUT on W-1.
_SERIES_CUT = 0.02
_W0_ASYMP_CUT = 3.0
_WM1_ASYMP_CUT = -0.02

# Inside |z - (-1/e)| <= this, conditioning is square-root singular
# (f'(w) -> 0 at the double root) and the series value is returned as-is.
_BP_SERIES_WINDOW = 1e-6

# Absolute slack below -1/e accepted, and clamped, as rounding from callers
# that compute z = -ln(b) in floating point.
_BRANCH_POINT_SLACK = 1e-10

# Halley stops with success once |w*e**w - z| <= _REL_TOL * max(1, |z|),
# and gives up after _MAX_STEPS steps (no successful z needs more than 4).
_REL_TOL = 1e-14
_MAX_STEPS = 50


class BranchId(enum.IntEnum):
    """Selector for the two real branches, indexed as in the literature."""

    W0 = 0
    WM1 = -1

    @property
    def label(self) -> str:
        return "W0" if self is BranchId.W0 else "Wm1"


class EvalResult(NamedTuple):
    """Evaluated W value with its defining-equation residual |w*e**w - z|."""

    z: float
    branch: BranchId
    w: float
    residual: float
    iterations: int


def wexp(w: float) -> float:
    """Forward map w * e**w.

    Raises OverflowError when e**w overflows binary64 (w > ~709.78);
    underflow for very negative w is harmless and returns a signed zero.
    """
    if not math.isfinite(w):
        raise DomainError(f"wexp requires finite w, got {w}")
    return w * math.exp(w)


def _wexp_clipped(w: float) -> float:
    # Overflow-tolerant forward map for iteration internals: wayward
    # iterates must produce a usable sign, not an exception.
    try:
        return w * math.exp(w)
    except OverflowError:
        return math.inf if w > 0 else -math.inf


def branch_point_series(z: float, branch: BranchId) -> float:
    """4-term expansion of W about the double root at z = -1/e.

    In p = +/- sqrt(2*(e*z + 1)) (plus for W0, minus for W-1):
    w = -1 + p - p**2/3 + 11*p**3/72.  Negative e*z + 1 from rounding is
    treated as exactly the branch point.
    """
    t = math.e * z + 1.0
    if t < 0.0:
        t = 0.0
    p = math.sqrt(2.0 * t)
    if branch is BranchId.WM1:
        p = -p
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))


def _check_domain(z: float, branch: BranchId) -> float:
    """Validate z against the branch domain; clamp rounding below -1/e."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z < BRANCH_POINT_Z - _BRANCH_POINT_SLACK:
        raise DomainError(
            f"z={z!r} is below the branch point -1/e ~ {BRANCH_POINT_Z!r}; "
            f"no real {branch.label} value exists"
        )
    if branch is BranchId.WM1 and z >= 0.0:
        raise DomainError(f"Wm1 is real only for -1/e <= z < 0, got z={z!r}")
    return max(z, BRANCH_POINT_Z)


def _initial_guess(z: float, branch: BranchId) -> float:
    """Region-dependent starting value for the Halley refinement of a z in the domain.

    Near the branch point both branches use branch_point_series.  W0 uses
    ln(z) - ln(ln(z)) for large z and z itself for small |z|; W-1 uses
    ln(-z) - ln(-ln(-z)) as z -> 0- and the series elsewhere (the series
    stays on the w <= -1 half-line and lands in the Halley basin across
    the whole mid-range).
    """
    if math.e * z + 1.0 < _SERIES_CUT:
        return branch_point_series(z, branch)
    if branch is BranchId.W0:
        if z > _W0_ASYMP_CUT:
            lz = math.log(z)
            return lz - math.log(lz)
        return z
    if z > _WM1_ASYMP_CUT:
        lmz = math.log(-z)
        return lmz - math.log(-lmz)
    return branch_point_series(z, branch)


def _in_range(w: float, branch: BranchId) -> bool:
    if not math.isfinite(w):
        return False
    return w >= -1.0 if branch is BranchId.W0 else w <= -1.0


def eval_w(z: float, branch: BranchId) -> EvalResult:
    """Evaluate the requested real branch of W at z.

    Halley's iteration on f(w) = w*e**w - z refines a region-dependent
    seed until the residual |f| is at most 1e-14 * max(1, |z|), except
    within |z + 1/e| <= 1e-6 where the double root makes the residual
    test vacuous and the returned value is the branch-point series
    (accurate to well below 1e-6 in w there).

    Raises DomainError for z outside the branch domain and
    ConvergenceError when the iteration stops short of that bound: |f|
    failed to shrink twice, a step left the branch's half-line or had no
    finite nonzero denominator, or _MAX_STEPS steps were taken.
    """
    z = _check_domain(z, branch)

    if abs(z - BRANCH_POINT_Z) <= _BP_SERIES_WINDOW:
        w = branch_point_series(z, branch)
        return EvalResult(z=z, branch=branch, w=w, residual=abs(_wexp_clipped(w) - z), iterations=0)

    tol = _REL_TOL * max(1.0, abs(z))
    w = _initial_guess(z, branch)
    steps = 0
    prev_abs_f = math.inf
    stalls = 0
    for _ in range(_MAX_STEPS):
        f = _wexp_clipped(w) - z
        if abs(f) <= tol:
            return EvalResult(z=z, branch=branch, w=w, residual=abs(f), iterations=steps)
        if abs(f) >= prev_abs_f:
            stalls += 1
            if stalls == 2:
                break
        prev_abs_f = abs(f)
        # f and the denominator both carry a factor 2**-10: exact, since
        # |f| > tol, and it keeps (w + 2) * f finite for z near DBL_MAX.
        fs = f / 1024.0
        w1 = w + 1.0
        denom = math.exp(w) * (w1 / 1024.0) - (w + 2.0) * fs / (2.0 * w1) if w1 else 0.0
        if denom == 0.0 or not math.isfinite(denom):
            break
        steps += 1
        w = w - fs / denom
        if not _in_range(w, branch):
            break
    raise ConvergenceError(
        f"eval_w({z!r}, {branch.label}) residual {abs(f):.3e} exceeds "
        f"{tol:.3e} after {steps} Halley steps"
    )
