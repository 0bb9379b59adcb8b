"""High-precision references for W and for the diagonal intersections.

mpmath is used here only, never by the package under test.  Each value is
computed for the exact binary64 input the program received.
"""

from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 40

_MINUS_INV_E = -mpmath.exp(-1)


def w_ref(z: float, branch: int) -> float:
    """W_branch(z) for the binary64 z; arguments a rounding below -1/e map to -1."""
    zm = mpmath.mpf(z)
    if zm <= _MINUS_INV_E:
        return -1.0
    return float(mpmath.re(mpmath.lambertw(zm, branch)))


def diagonal_ref(b: float) -> tuple[float, ...]:
    """Ascending fixed points of x -> b**x for the binary64 b, outside the tangency band."""
    ln_b = mpmath.log(mpmath.mpf(b))
    z = -ln_b
    if b < 1.0:
        return (float(mpmath.lambertw(z, 0) / z),)
    if z <= _MINUS_INV_E:
        return ()
    return (
        float(-mpmath.re(mpmath.lambertw(z, 0)) / ln_b),
        float(-mpmath.re(mpmath.lambertw(z, -1)) / ln_b),
    )


def ulp_err(value: float, ref: float) -> float:
    """|value - ref| in units of the last place of ref."""
    return abs(value - ref) / math.ulp(ref)
