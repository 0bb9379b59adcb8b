"""Brute-force root finding used to validate the closed-form path.

Everything here is built from exponentials, logarithms, and interval
halving only.  This module must stay independent of the W evaluator
(no import of lambertw or intersect) so the two routes share no failure
modes; tests enforce that structurally.
"""

import math
from typing import Callable, NamedTuple

from .errors import DomainError

__all__ = [
    "WResidual",
    "DiagonalGap",
    "FullGap",
    "RootBracket",
    "scan_sign_changes",
    "bisect",
    "all_intersections_numeric",
]

# Relative bound past which rounding cannot flip the sign of a FullGap value.
_SLACK = 2.0**-44


class WResidual(NamedTuple):
    """f(w) = w*e**w - z, the defining-equation defect."""

    z: float

    def __call__(self, w: float) -> float:
        try:
            return w * math.exp(w) - self.z
        except OverflowError:
            return math.inf


class DiagonalGap(NamedTuple):
    """g(x) = b**x - x, zero at fixed points of the exponential."""

    b: float

    def __call__(self, x: float) -> float:
        try:
            return self.b**x - x
        except OverflowError:
            return math.inf


class FullGap(NamedTuple):
    """h(x) = b**x - log_b(x) on x > 0, zero at every intersection."""

    b: float

    def __call__(self, x: float) -> float:
        try:
            return self.b**x - math.log(x) / math.log(self.b)
        except OverflowError:
            return math.inf


class _RootBracketFields(NamedTuple):
    lo: float
    hi: float
    f_lo: float
    f_hi: float


class RootBracket(_RootBracketFields):
    """A certified sign-change interval; degenerate (lo == hi) at an exact zero."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lo, hi, f_lo, f_hi = self
        if lo == hi and f_lo == 0.0:
            return self
        if not lo < hi:
            raise DomainError(f"bracket needs lo < hi, got [{lo!r}, {hi!r}]")
        if not (f_lo * f_hi < 0.0 or f_lo == 0.0 or f_hi == 0.0):
            raise DomainError(
                f"bracket [{lo!r}, {hi!r}] has no sign change: f_lo={f_lo!r}, f_hi={f_hi!r}"
            )
        return self

    # The inherited _make, and so _replace, would build the tuple without __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def scan_sign_changes(
    spec: Callable[[float], float], lo: float, hi: float, n: int
) -> list[RootBracket]:
    """Bracket every sign change of spec over the n+1 nodes lo + i*(hi-lo)/n.

    The last node is hi itself.  Exact zeros at nodes yield degenerate
    [x, x] brackets and suppress the adjacent panels (their products are
    zero, not sign changes).  Panels touching a non-finite value are
    skipped; the skip count is logged.  f_lo * f_hi < 0.0 is the final
    test, so a sign change whose product underflows to zero brackets
    nothing.

    Any spec is evaluated at every node.  FullGap(b), computed as
    b**x - log(x)/ln(b) with ln(b) taken once (inf where b**x overflows),
    is evaluated at O(log n) nodes and gives the same brackets: h is
    monotone on at most three runs of nodes, their ends found by the sign
    of h' (and, for b < 1, of h'').  A run's anchor is its first node
    where h has the far sign, or its stop if none has; its end nodes
    settle that when they can, binary search otherwise.  The rule above
    runs only in one window per run, round its anchor (a bracket where two
    runs meet is next to one run's anchor), widened while its end node has
    |f| <= 2**-44 * (b**x + |log_b x|): beyond that, rounding cannot flip
    the sign of f, so no node left out can start or end a bracket.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"scan interval needs lo < hi, got [{lo!r}, {hi!r}]")
    if n < 2:
        raise DomainError(f"scan needs n >= 2 panels, got {n}")
    step = (hi - lo) / n

    def x_at(i: int) -> float:
        return lo + i * step if i < n else hi

    if isinstance(spec, FullGap):
        if lo <= 0.0:
            raise DomainError(f"FullGap is defined on x > 0, got lo={lo!r}")
        f_at, windows, skipped = _full_gap_windows(spec.b, x_at, n)
    else:
        fs = [spec(x_at(i)) for i in range(n + 1)]
        f_at, windows = fs.__getitem__, [(0, n)]
        skipped = len(fs) - sum(map(math.isfinite, fs))

    brackets: list[RootBracket] = []
    for start, stop in windows:
        for i in range(start, stop + 1):
            f_i = f_at(i)
            if f_i == 0.0:
                brackets.append(RootBracket(x_at(i), x_at(i), 0.0, 0.0))
            elif i < stop and math.isfinite(f_i):
                f_j = f_at(i + 1)
                if math.isfinite(f_j) and f_i * f_j < 0.0:
                    brackets.append(RootBracket(x_at(i), x_at(i + 1), f_i, f_j))
    if skipped:  # logging takes milliseconds to import; only this rare path needs it
        import logging

        logging.getLogger(__name__).warning(
            "scan_sign_changes: skipped %d node(s) with non-finite values", skipped
        )
    return brackets


def _first(holds: Callable[[int], bool], i: int, j: int) -> int:
    """The first index in [i, j) where holds is true, or j; holds must be monotone."""
    while i < j:
        mid = (i + j) // 2
        if holds(mid):
            j = mid
        else:
            i = mid + 1
    return i


def _full_gap_windows(
    b: float, x_at: Callable[[int], float], n: int
) -> tuple[Callable[[int], float], list[tuple[int, int]], int]:
    """FullGap(b) at node i, the merged windows to scan, and the overflow count."""
    if not math.isfinite(b) or b <= 0.0 or b == 1.0:
        raise DomainError(f"base must be positive and != 1, got {b!r}")
    ln_b = math.log(b)
    hs: dict[int, float] = {}

    def f_at(i: int) -> float:
        """h at node i; inf where b**x overflows."""
        h = hs.get(i)
        if h is None:
            x = x_at(i)
            try:
                h = math.pow(b, x) - math.log(x) / ln_b
            except OverflowError:
                h = math.inf
            hs[i] = h
        return h

    def rising(i: int) -> bool:
        x = x_at(i)
        try:
            return ln_b * math.pow(b, x) - 1.0 / x / ln_b > 0.0
        except OverflowError:
            return True

    def near(i: int) -> bool:
        x = x_at(i)
        try:
            return abs(f_at(i)) <= _SLACK * (math.pow(b, x) + abs(math.log(x) / ln_b))
        except OverflowError:
            return False

    # b**x overflows only for b > 1, on a suffix of the ascending nodes.
    m = n + 1 if f_at(n) < math.inf else _first(lambda i: f_at(i) == math.inf, 0, n)
    if b > 1.0:  # h'' > 0: h falls, then rises from the first node where h' > 0
        j = _first(rising, 0, n + 1)
        runs = [(0, j, False), (j, n + 1, True)]
    else:
        # With L = -ln b, h'' has the sign of 2 ln x - L x + 3 ln L, which
        # peaks at x = 2/L.  If the peak is <= 0, then h' > 0: one rising run.
        # Otherwise h' changes sign at most once below the first node k at or
        # past 2/L or where that expression is >= 0, and at most once from k on.
        ell = -ln_b
        if math.log(ell) + 2.0 * math.log(2.0) - 2.0 <= 0.0:
            runs = [(0, n + 1, True)]
        else:
            ln_l3 = 3.0 * math.log(ell)

            def from_k(i: int) -> bool:
                x = x_at(i)
                return x >= 2.0 / ell or 2.0 * math.log(x) - ell * x + ln_l3 >= 0.0

            k = _first(from_k, 0, n + 1)
            j1 = _first(lambda i: not rising(i), 0, k)
            j2 = _first(rising, k, n + 1)
            runs = [(0, j1, True), (j1, j2, False), (j2, n + 1, True)]

    # Each run's anchor is its first node with h of the far sign, or its stop.
    # Anchors ascend, and so do both ends of their widened windows.
    windows: list[tuple[int, int]] = []
    for start, stop, up in runs:
        if start < stop:
            far = (lambda i: f_at(i) >= 0.0) if up else (lambda i: f_at(i) <= 0.0)
            if far(start):
                a = start
            elif not far(stop - 1):
                a = stop
            else:
                a = _first(far, start + 1, stop - 1)
            start, stop = max(a - 2, 0), min(a + 1, n)
            while start > 0 and near(start):
                start -= 1
            while stop < n and near(stop):
                stop += 1
            if windows and start <= windows[-1][1] + 1:
                start = windows.pop()[0]
            windows.append((start, stop))
    return f_at, windows, n + 1 - m


def bisect(spec: Callable[[float], float], bracket: RootBracket, abs_tol: float) -> float:
    """Pure interval halving down to width abs_tol; returns the midpoint.

    Deterministic and derivative-free by design: the oracle must not share
    machinery with any Newton-family refinement it is checking.  FullGap is
    evaluated inline, b**x - log(x)/ln(b) with ln(b) taken once: the same
    floats as calling it, without a call per halving.
    """
    if not abs_tol > 0.0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if lo == hi or f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # b <= 0 takes the call, whose log(b) raises at the first evaluation
    gap = isinstance(spec, FullGap) and spec.b > 0.0
    if gap:
        b, ln_b = spec.b, math.log(spec.b)
    while hi - lo >= abs_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if not gap:
            f_mid = spec(mid)
        else:
            try:
                f_mid = b**mid - math.log(mid) / ln_b
            except OverflowError:
                f_mid = math.inf
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def all_intersections_numeric(
    b: float, x_max: float, n: int, abs_tol: float
) -> list[float]:
    """Every root of b**x = log_b(x) on (0, x_max], at scan resolution.

    Scans FullGap(b) from 1e-9 upward, refines each bracket by bisection,
    and merges refined roots closer than 10*abs_tol, as only rounding noise
    in the sign of h near a multiple root brackets one root more than once.
    """
    if not math.isfinite(b) or b <= 0.0 or b == 1.0:
        raise DomainError(f"base must be positive and != 1, got {b!r}")
    if not x_max > 0.0:
        raise DomainError(f"x_max must be positive, got {x_max!r}")
    if not abs_tol > 0.0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")

    x_min = 1e-9
    if x_max <= x_min:
        raise DomainError(f"x_max={x_max!r} does not exceed the scan floor {x_min}")
    spec = FullGap(b)
    roots: list[float] = []
    for bracket in scan_sign_changes(spec, x_min, x_max, n):
        root = bisect(spec, bracket, abs_tol)
        if roots and root - roots[-1] < 10.0 * abs_tol:
            continue
        roots.append(root)
    return roots
