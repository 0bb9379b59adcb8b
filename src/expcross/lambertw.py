"""Evaluation of the two real branches of the Lambert W function.

W(z) is defined implicitly by w * e**w = z.  Over the reals there are
exactly two branches: the principal branch W0 (w >= -1, defined for
z >= -1/e) and W-1 (w <= -1, defined for -1/e <= z < 0).  They meet at
the branch point z = -1/e, where w = -1 is a double root.

Evaluation refines a region-dependent seed with Halley's iteration and
falls back to bisection on a certified bracket whenever the iteration
leaves the branch's half-line or stops contracting, so it always
terminates.
"""

import enum
import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError

__all__ = [
    "BRANCH_POINT_Z",
    "BranchId",
    "EvalConfig",
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


class BranchId(enum.IntEnum):
    """Selector for the two real branches, indexed as in the literature."""

    W0 = 0
    WM1 = -1

    @property
    def label(self) -> str:
        return "W0" if self is BranchId.W0 else "Wm1"


class _EvalConfigFields(NamedTuple):
    rel_tol: float = 1e-14
    max_iter: int = 50
    branch_point_window: float = 1e-10


class EvalConfig(_EvalConfigFields):
    """Accuracy knobs for eval_w.

    rel_tol (finite, > 0) is applied as residual <= rel_tol * max(1, |z|);
    values below ~1e-15 sit under the floating-point noise floor of w*e**w
    and will trigger ConvergenceError.  max_iter (an int >= 1) is the
    Halley step budget before the bisection fallback.  branch_point_window
    (finite, >= 0) is the absolute slack below -1/e tolerated (and clamped)
    as rounding from callers that compute z = -ln(b) in floating point.
    Any other value raises DomainError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise DomainError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        if not 0.0 <= self.branch_point_window < math.inf:
            raise DomainError(
                f"branch_point_window must be finite and >= 0, got {self.branch_point_window}"
            )
        return self

    # The inherited _make, and so _replace, would build the tuple without __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class EvalResult(NamedTuple):
    """Evaluated W value with its defining-equation residual |w*e**w - z|."""

    z: float
    branch: BranchId
    w: float
    residual: float
    iterations: int


DEFAULT_CONFIG = EvalConfig()


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


def _check_domain(z: float, branch: BranchId, window: float) -> float:
    """Validate z against the branch domain; clamp rounding below -1/e."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z < BRANCH_POINT_Z - window:
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


def _certified_bracket(z: float, branch: BranchId) -> tuple[float, float]:
    """Sign-change interval for f(w) = w*e**w - z within the branch range.

    f(-1) = -1/e - z <= 0 on both branches.  For W0, f -> +inf as w grows;
    for W-1, f -> -z > 0 as w -> -inf.  Expand geometrically until the
    positive endpoint is certified.
    """
    if branch is BranchId.W0:
        lo = -1.0
        hi = 1.0
        while _wexp_clipped(hi) - z <= 0.0:
            hi *= 2.0
        return lo, hi
    hi = -1.0
    lo = -2.0
    while _wexp_clipped(lo) - z <= 0.0:
        lo *= 2.0
    return lo, hi


def _bisect_refine(z: float, branch: BranchId) -> tuple[float, int]:
    """Unconditionally convergent fallback: halve a certified bracket."""
    lo, hi = _certified_bracket(z, branch)
    f_lo = _wexp_clipped(lo) - z
    steps = 0
    # Halving saturates once the midpoint equals an endpoint (~60 steps).
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid, steps
        steps += 1
        f_mid = _wexp_clipped(mid) - z
        if f_mid == 0.0:
            return mid, steps
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def _in_range(w: float, branch: BranchId) -> bool:
    if not math.isfinite(w):
        return False
    return w >= -1.0 if branch is BranchId.W0 else w <= -1.0


def _halley(
    z: float, branch: BranchId, w: float, tol: float, budget: int, stall_limit: float
) -> tuple[float, int, float | None]:
    """Up to budget Halley steps on f(w) = w*e**w - z; returns (w, steps, residual).

    residual is |f(w)| once it meets tol, else None: a step left the half-line
    or had no usable denominator, |f| stalled stall_limit times, or the budget
    ran out (the last w is then untested).
    """
    steps = 0
    prev_abs_f = math.inf
    stalls = 0
    for _ in range(budget):
        f = _wexp_clipped(w) - z
        if abs(f) <= tol:
            return w, steps, abs(f)
        if abs(f) >= prev_abs_f:
            stalls += 1
            if stalls >= stall_limit:
                break
        prev_abs_f = abs(f)
        ew = math.exp(w)
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)) if w != -1.0 else 0.0
        if denom == 0.0 or not math.isfinite(denom):
            break
        steps += 1
        w_next = w - f / denom
        if not _in_range(w_next, branch):
            break
        w = w_next
    return w, steps, None


def eval_w(z: float, branch: BranchId, config: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """Evaluate the requested real branch of W at z.

    The residual |w*e**w - z| of the returned value is bounded by
    config.rel_tol * max(1, |z|), except within |z + 1/e| <= 1e-6 where
    the double root makes the residual test vacuous and the returned value
    is the branch-point series (accurate to well below 1e-6 in w there).

    Raises DomainError for z outside the branch domain and
    ConvergenceError if the accuracy target cannot be met.
    """
    z = _check_domain(z, branch, config.branch_point_window)

    if abs(z - BRANCH_POINT_Z) <= _BP_SERIES_WINDOW:
        w = branch_point_series(z, branch)
        return EvalResult(z=z, branch=branch, w=w, residual=abs(_wexp_clipped(w) - z), iterations=0)

    tol = config.rel_tol * max(1.0, abs(z))
    w, iterations, residual = _halley(z, branch, _initial_guess(z, branch), tol, config.max_iter, 2)
    if residual is None:
        # Halley left the half-line, stalled, or ran out of budget: bisection
        # still terminates, then up to 3 Halley steps polish to full precision.
        w, steps = _bisect_refine(z, branch)
        w, polish, residual = _halley(z, branch, w, tol, 3, math.inf)
        iterations += steps + polish
        if residual is None:
            residual = abs(_wexp_clipped(w) - z)
            if not residual <= tol:
                raise ConvergenceError(
                    f"eval_w({z!r}, {branch.label}) residual {residual:.3e} exceeds "
                    f"{tol:.3e} after {iterations} refinement steps"
                )
    return EvalResult(z=z, branch=branch, w=w, residual=residual, iterations=iterations)
