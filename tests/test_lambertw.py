import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expcross.errors import ConvergenceError, DomainError
from expcross import lambertw
from expcross.lambertw import (
    BRANCH_POINT_Z,
    BranchId,
    branch_point_series,
    eval_w,
    wexp,
)
from expcross.oracle import RootBracket, WResidual, bisect

# Independent bisection values, frozen once from the oracle module
# (WResidual halved to 1e-13 on the stated start brackets).
WM1_AT_MINUS_QUARTER = -2.153292364110353  # bracket [-10, -1]
W0_AT_MINUS_QUARTER = -0.35740295618140294  # bracket [-1, 0]


def bisection_root(z: float, lo: float, hi: float, abs_tol: float = 1e-12) -> float:
    """Reference root of w*e**w = z via the oracle's derivative-free bisect."""
    spec = WResidual(z)
    bracket = RootBracket(lo=lo, hi=hi, f_lo=spec(lo), f_hi=spec(hi))
    return bisect(spec, bracket, abs_tol)


def reference_root(z: float, branch: BranchId) -> float:
    """Bracket the requested branch from scratch and bisect."""
    spec = WResidual(z)
    if branch is BranchId.W0:
        hi = 1.0
        while spec(hi) <= 0.0:
            hi *= 2.0
        return bisection_root(z, -1.0, hi)
    lo = -2.0
    while spec(lo) <= 0.0:
        lo *= 2.0
    return bisection_root(z, lo, -1.0)


class TestWexp:
    def test_zero(self):
        assert wexp(0.0) == 0.0

    def test_minimum_point(self):
        # the map's global minimum value, -1/e ~ -0.367879
        assert wexp(-1.0) == BRANCH_POINT_Z
        assert wexp(-1.0) == pytest.approx(-0.367879, abs=5e-7)

    def test_unit(self):
        assert wexp(1.0) == math.e

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            wexp(1000.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            wexp(math.inf)
        with pytest.raises(DomainError):
            wexp(math.nan)

    def test_global_minimum_on_grid(self):
        # hundredths grid so w = -1.0 is hit exactly
        for i in range(-800, 301):
            w = i / 100.0
            value = wexp(w)
            assert value >= BRANCH_POINT_Z
            if w != -1.0:
                assert value > BRANCH_POINT_Z


class TestInitialGuess:
    # The seed helper takes a z that eval_w has already validated and clamped;
    # TestEvalW.test_domain_errors covers out-of-domain z.
    def test_w0_at_zero(self):
        assert lambertw._initial_guess(0.0, BranchId.W0) == 0.0

    def test_w0_at_branch_point(self):
        assert lambertw._initial_guess(BRANCH_POINT_Z, BranchId.W0) == -1.0

    def test_wm1_mid_range_lands_near_root(self):
        guess = lambertw._initial_guess(-0.25, BranchId.WM1)
        assert abs(guess - WM1_AT_MINUS_QUARTER) < 0.2

    def test_guesses_respect_half_lines(self):
        for k in range(1, 60):
            z = BRANCH_POINT_Z + 0.006 * k
            assert lambertw._initial_guess(z, BranchId.W0) >= -1.0
            if z < 0.0:
                assert lambertw._initial_guess(z, BranchId.WM1) <= -1.0


class TestEvalW:
    def test_zero(self):
        result = eval_w(0.0, BranchId.W0)
        assert result.w == 0.0
        assert result.residual == 0.0

    def test_at_e(self):
        assert eval_w(math.e, BranchId.W0).w == pytest.approx(1.0, abs=1e-14)

    def test_branches_merge_at_branch_point(self):
        assert eval_w(-1 / math.e, BranchId.W0).w == pytest.approx(-1.0, abs=1e-6)
        assert eval_w(-1 / math.e, BranchId.WM1).w == pytest.approx(-1.0, abs=1e-6)

    def test_quoted_two_point_values(self):
        z = -math.log(1.3)
        assert 0.3855 <= abs(eval_w(z, BranchId.W0).w) <= 0.3865
        assert 2.0605 <= abs(eval_w(z, BranchId.WM1).w) <= 2.0615

    def test_against_frozen_bisection(self):
        assert eval_w(-0.25, BranchId.W0).w == pytest.approx(W0_AT_MINUS_QUARTER, abs=1e-10)
        assert eval_w(-0.25, BranchId.WM1).w == pytest.approx(WM1_AT_MINUS_QUARTER, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_w(-0.5, BranchId.W0)
        with pytest.raises(DomainError):
            eval_w(-0.5, BranchId.WM1)
        with pytest.raises(DomainError):
            eval_w(0.0, BranchId.WM1)
        with pytest.raises(DomainError):
            eval_w(1.0, BranchId.WM1)

    def test_window_clamps_rounding_below_branch_point(self):
        result = eval_w(BRANCH_POINT_Z - 1e-11, BranchId.W0)
        assert result.w == -1.0
        with pytest.raises(DomainError):
            eval_w(BRANCH_POINT_Z - 1e-9, BranchId.W0)

    def test_extreme_arguments(self):
        big = eval_w(1e308, BranchId.W0)
        assert big.residual <= 1e-14 * 1e308
        tiny = eval_w(-1e-300, BranchId.WM1)
        assert tiny.w < -690.0

    def test_residual_bound_metadata(self):
        result = eval_w(12.34, BranchId.W0)
        assert result.z == 12.34
        assert result.branch is BranchId.W0
        assert result.iterations >= 1
        assert result.residual <= 1e-14 * 12.34


class TestNearFloatMax:
    """Halley's denominator holds (w + 2) * f, which overflows for z near
    DBL_MAX unless f is scaled down first."""

    @pytest.mark.parametrize("z", [1e308, 1.6228673251068735e308])
    def test_converges_in_few_steps(self, z):
        result = eval_w(z, BranchId.W0)
        assert result.iterations <= 4
        assert abs(wexp(result.w) - z) <= 1e-14 * z

    def test_top_of_range_answers_or_raises_convergence_error(self):
        rng = random.Random(307)
        zs = [rng.uniform(3e307, sys.float_info.max) for _ in range(400)]
        z = sys.float_info.max
        for _ in range(50):
            zs.append(z)
            z = math.nextafter(z, 0.0)
        answered = 0
        for z in zs:
            try:
                result = eval_w(z, BranchId.W0)
            except ConvergenceError:
                continue
            answered += 1
            assert result.w >= -1.0 and result.iterations <= 4
            assert abs(wexp(result.w) - z) <= 1e-14 * z
        # Most of this range is a known ConvergenceError (the residual bound
        # asks for more than rounding allows), but not all of it.
        assert answered > 0


def assert_within_ulps(z: float, branch: BranchId, ref: float, ulps: int = 4) -> None:
    w = eval_w(z, branch).w
    assert abs(w - ref) <= ulps * math.ulp(ref), (z, branch, w, ref)


def open_defect(reason, raises=AssertionError):
    """Marks a known eval_w defect; passing code fails the test until the marker goes."""
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


class TestOpenDefects:
    """Regression tests for the W defects still open.

    References are mpmath 1.3.0 lambertw at 50 digits, rounded to double and
    frozen here, so the suite needs no mpmath.  Fixing a defect turns its
    test into an XPASS, which strict mode reports as a failure: remove the
    marker in the same change.
    """

    @open_defect("W0 at 1e200 hits the refinement budget", raises=ConvergenceError)
    def test_w0_large_argument_converges(self):
        assert_within_ulps(1e200, BranchId.W0, 454.398045033714)

    @open_defect("W0 accepts the seed w = z after 0 steps under an absolute tolerance")
    def test_w0_small_positive_argument(self):
        assert_within_ulps(1e-8, BranchId.W0, 9.999999900000002e-09)

    @open_defect("W0 accepts the seed w = z after 0 steps under an absolute tolerance")
    def test_w0_small_negative_argument(self):
        assert_within_ulps(-1e-10, BranchId.W0, -1.0000000001000001e-10)

    @open_defect("Wm1 accepts the log-asymptotic seed near 0- without refining")
    def test_wm1_near_zero(self):
        assert_within_ulps(-1e-14, BranchId.WM1, -35.81454540915232)

    @open_defect("Wm1 accepts the log-asymptotic seed near 0- without refining")
    def test_wm1_tiny_argument(self):
        assert_within_ulps(-1e-300, BranchId.WM1, -697.3227762954601)


w0_args = st.floats(min_value=BRANCH_POINT_Z, max_value=1e6, allow_nan=False)
wm1_args = st.floats(min_value=BRANCH_POINT_Z, max_value=-1e-9, allow_nan=False)


@given(z=w0_args)
def test_roundtrip_w0(z):
    result = eval_w(z, BranchId.W0)
    if abs(z - BRANCH_POINT_Z) <= 1e-6:
        assert abs(result.w - branch_point_series(z, BranchId.W0)) <= 1e-6
    else:
        assert abs(wexp(result.w) - z) <= 1e-14 * max(1.0, abs(z))


@given(z=wm1_args)
def test_roundtrip_wm1(z):
    result = eval_w(z, BranchId.WM1)
    if abs(z - BRANCH_POINT_Z) <= 1e-6:
        assert abs(result.w - branch_point_series(z, BranchId.WM1)) <= 1e-6
    else:
        assert abs(wexp(result.w) - z) <= 1e-14 * max(1.0, abs(z))


def assert_contract(z: float, branch: BranchId) -> None:
    """eval_w returns an on-branch w within its accuracy bound, or raises ConvergenceError."""
    try:
        w = eval_w(z, branch).w
    except ConvergenceError:
        return
    assert w >= -1.0 if branch is BranchId.W0 else w <= -1.0
    if abs(z - BRANCH_POINT_Z) <= 1e-6:
        assert abs(w - branch_point_series(z, branch)) <= 1e-6
    else:
        assert abs(wexp(w) - z) <= 1e-14 * max(1.0, abs(z))


@given(z=st.floats(min_value=BRANCH_POINT_Z, max_value=sys.float_info.max))
def test_contract_whole_domain_w0(z):
    assert_contract(z, BranchId.W0)


@given(z=st.floats(min_value=BRANCH_POINT_Z, max_value=-5e-324))
def test_contract_whole_domain_wm1(z):
    assert_contract(z, BranchId.WM1)


@given(z=w0_args)
def test_range_discipline_w0(z):
    assert eval_w(z, BranchId.W0).w >= -1.0


@given(z=wm1_args)
def test_range_discipline_wm1(z):
    assert eval_w(z, BranchId.WM1).w <= -1.0


@given(z1=w0_args, z2=w0_args)
def test_w0_nondecreasing(z1, z2):
    # separate the arguments enough that the accuracy bound cannot flip order
    z1, z2 = min(z1, z2), max(z1, z2)
    assume(z2 - z1 > 1e-12 * max(1.0, abs(z1)))
    assert eval_w(z1, BranchId.W0).w <= eval_w(z2, BranchId.W0).w


@given(z1=wm1_args, z2=wm1_args)
def test_wm1_nonincreasing(z1, z2):
    z1, z2 = min(z1, z2), max(z1, z2)
    assume(z2 - z1 > 1e-12)
    assert eval_w(z1, BranchId.WM1).w >= eval_w(z2, BranchId.WM1).w


@settings(max_examples=25)
@given(data=st.data())
def test_halley_path_matches_bisection(data):
    branch = data.draw(st.sampled_from([BranchId.W0, BranchId.WM1]))
    if branch is BranchId.W0:
        z = data.draw(st.floats(min_value=BRANCH_POINT_Z + 1e-5, max_value=1e6))
    else:
        z = data.draw(st.floats(min_value=BRANCH_POINT_Z + 1e-5, max_value=-1e-8))
    assert eval_w(z, branch).w == pytest.approx(reference_root(z, branch), abs=1e-10)


def test_oracle_equivalence_100_per_branch():
    import random

    rng = random.Random(20260811)
    for _ in range(50):
        z = rng.uniform(BRANCH_POINT_Z + 1e-5, 3.0)
        assert eval_w(z, BranchId.W0).w == pytest.approx(reference_root(z, BranchId.W0), abs=1e-10)
    for _ in range(50):
        z = 10.0 ** rng.uniform(0.5, 6.0)
        assert eval_w(z, BranchId.W0).w == pytest.approx(reference_root(z, BranchId.W0), abs=1e-10)
    for _ in range(50):
        z = rng.uniform(BRANCH_POINT_Z + 1e-5, -0.02)
        assert eval_w(z, BranchId.WM1).w == pytest.approx(
            reference_root(z, BranchId.WM1), abs=1e-10
        )
    for _ in range(50):
        z = -(10.0 ** rng.uniform(-8.0, -1.5))
        assert eval_w(z, BranchId.WM1).w == pytest.approx(
            reference_root(z, BranchId.WM1), abs=1e-10
        )
