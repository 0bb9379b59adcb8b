"""Brute-force root finding used to validate the closed-form path.

Everything here is built from exponentials, logarithms, and interval
halving only.  This module must stay independent of the W evaluator
(no import of lambertw or intersect) so the two routes share no failure
modes; tests enforce that structurally.
"""

import math
import sys
from functools import lru_cache
from itertools import repeat
from operator import sub, truediv
from typing import Callable, Iterator, NamedTuple

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

# Offset of each double's sign-and-exponent byte, and that byte -> its sign bit.
_HIGH = 7 if sys.byteorder == "little" else 0
_SIGN_BIT = bytes(128) + b"\x01" * 128


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
    """Evaluate spec at n+1 uniform nodes and bracket every sign change.

    Exact zeros at nodes yield degenerate [x, x] brackets and suppress the
    adjacent panels (their products are zero, not sign changes).  Panels
    touching a non-finite value are skipped; the skip count is logged.

    The nodes are evaluated and searched in whole-list passes.  FullGap is
    computed as b**x - log(x)/ln(b) with ln(b) taken once; where b**x
    overflows, the value is inf, as in spec(x).  The nodes and their logs do
    not depend on b: those of the last FullGap window (lo, hi, n) are kept,
    two tuples of n+1 floats (~1.3 MB at n = 20000), for the next base on it.
    The values are then packed once (struct, imported on the first scan) and
    each double's high byte gives its sign bit.  Only the panels whose ends
    differ in sign bit, and the nodes whose high byte is that of a zero
    (0x00, 0x80) or of a non-finite value (0x7F, 0xFF), are visited one by
    one, under the rules above.  The sign bit differs from f < 0 only on
    -0.0 and on a NaN with the sign set; both only add panels the rules
    reject.  f_lo * f_hi < 0.0 stays the final test, so a sign change whose
    product underflows to zero brackets nothing.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"scan interval needs lo < hi, got [{lo!r}, {hi!r}]")
    if n < 2:
        raise DomainError(f"scan needs n >= 2 panels, got {n}")
    if isinstance(spec, FullGap) and lo <= 0.0:
        raise DomainError(f"FullGap is defined on x > 0, got lo={lo!r}")

    if isinstance(spec, FullGap):
        xs, logs = _log_grid(lo, hi, n)
        fs = _full_gap_values(spec.b, xs, logs)
    else:
        xs = _nodes(lo, hi, n)
        fs = list(map(spec, xs))

    import struct  # ~1 ms to import; bare `import expcross` does not need it

    high = struct.pack(f"{len(fs)}d", *fs)[_HIGH::8]
    neg = high.translate(_SIGN_BIT)
    candidates = [*_find_all(neg, b"\x00\x01"), *_find_all(neg, b"\x01\x00")]
    if b"\x00" in high or b"\x80" in high:  # +-0.0, or a value below 2**-1007
        candidates += [i for i, f in enumerate(fs) if f == 0.0]

    brackets: list[RootBracket] = []
    for i in sorted(set(candidates)):
        f_i = fs[i]
        if f_i == 0.0:
            brackets.append(RootBracket(lo=xs[i], hi=xs[i], f_lo=0.0, f_hi=0.0))
            continue
        f_j = fs[i + 1]
        if math.isfinite(f_i) and math.isfinite(f_j) and f_j != 0.0 and f_i * f_j < 0.0:
            brackets.append(RootBracket(lo=xs[i], hi=xs[i + 1], f_lo=f_i, f_hi=f_j))
    skipped = 0
    if b"\x7f" in high or b"\xff" in high:  # +-inf, nan, or a value from 2**1009 up
        skipped = len(fs) - sum(map(math.isfinite, fs))
    if skipped:  # logging takes milliseconds to import; only this rare path needs it
        import logging

        logging.getLogger(__name__).warning(
            "scan_sign_changes: skipped %d node(s) with non-finite values", skipped
        )
    return brackets


def _nodes(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / n
    return [lo + i * step for i in range(n)] + [hi]


# typed: xs[-1] is hi, so hi=50 and hi=50.0 must not share an entry.
@lru_cache(maxsize=1, typed=True)
def _log_grid(lo: float, hi: float, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """FullGap's nodes and their logs, which do not depend on b: kept for the last window."""
    xs = tuple(_nodes(lo, hi, n))
    return xs, tuple(map(math.log, xs))


def _full_gap_values(b: float, xs: tuple[float, ...], logs: tuple[float, ...]) -> list[float]:
    """FullGap(b) at every node in one pass, bit-identical to FullGap(b)(x)."""
    ln_b = math.log(b)
    # b**x can overflow only for b > 1, so only on a suffix of the
    # ascending grid; FullGap(b)(x) is inf there.
    powers: list[float] = []
    try:
        powers.extend(map(math.pow, repeat(b), xs))
    except OverflowError:
        pass
    # Divide as spec(x) does: a product with 1/ln_b rounds differently.
    fs = list(map(sub, powers, map(truediv, logs, repeat(ln_b))))
    fs.extend(repeat(math.inf, len(xs) - len(fs)))
    return fs


def _find_all(data: bytes, pattern: bytes) -> Iterator[int]:
    """Start of every occurrence of two distinct bytes (they cannot overlap)."""
    i = data.find(pattern)
    while i >= 0:
        yield i
        i = data.find(pattern, i + 1)


def bisect(spec: Callable[[float], float], bracket: RootBracket, abs_tol: float) -> float:
    """Pure interval halving down to width abs_tol; returns the midpoint.

    Deterministic and derivative-free by design: the oracle must not share
    machinery with any Newton-family refinement it is checking.
    """
    if not abs_tol > 0.0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if lo == hi or f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    while hi - lo >= abs_tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = spec(mid)
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
    and merges refined roots closer than 10*abs_tol (adjacent panels can
    both bracket one root when a node lands near it).
    """
    if not math.isfinite(b) or b <= 0.0 or b == 1.0:
        raise DomainError(f"base must be positive and != 1, got {b!r}")
    if not x_max > 0.0:
        raise DomainError(f"x_max must be positive, got {x_max!r}")

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
