import ast
import logging
import math
import pathlib
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

import expcross.oracle
from expcross.compare import default_x_max
from expcross.errors import DomainError
from expcross.intersect import TANGENT_BASE, diagonal_intersections
from expcross.oracle import (
    DiagonalGap,
    FullGap,
    RootBracket,
    WResidual,
    all_intersections_numeric,
    bisect,
    scan_sign_changes,
)

# Regression value: this very routine at abs_tol 1e-12, frozen.
NEAR_BRANCH_POINT_ROOT = -0.9976701662722007

# bench/spans.py counts skipped nodes by parsing this record.
SKIP_MSG = "scan_sign_changes: skipped %d node(s) with non-finite values"


def test_module_is_structurally_independent():
    # the brute-force route must not touch the W evaluator or the
    # closed-form solver, so the two paths share no failure modes
    source = pathlib.Path(expcross.oracle.__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert "lambertw" not in name and "intersect" not in name and "compare" not in name


class TestSpecs:
    def test_w_residual(self):
        assert WResidual(0.0)(0.0) == 0.0
        assert WResidual(-0.25)(-1.0) == pytest.approx(-1 / math.e + 0.25)
        assert WResidual(5.0)(800.0) == math.inf

    def test_diagonal_gap(self):
        assert DiagonalGap(2.0)(1.0) == 1.0
        assert DiagonalGap(2.0)(4.0) == 12.0
        assert DiagonalGap(2.0)(1e6) == math.inf

    def test_full_gap(self):
        b = 1.3
        x = 2.0
        assert FullGap(b)(x) == pytest.approx(b**x - math.log(x) / math.log(b))


class TestRootBracket:
    def test_valid(self):
        RootBracket(lo=0.0, hi=1.0, f_lo=-1.0, f_hi=2.0)
        RootBracket(lo=0.0, hi=1.0, f_lo=0.0, f_hi=2.0)
        RootBracket(lo=0.5, hi=0.5, f_lo=0.0, f_hi=0.0)

    def test_invalid(self):
        with pytest.raises(DomainError):
            RootBracket(lo=1.0, hi=0.0, f_lo=-1.0, f_hi=1.0)
        with pytest.raises(DomainError):
            RootBracket(lo=0.0, hi=1.0, f_lo=1.0, f_hi=2.0)


class TestScan:
    def test_two_crossings_below_zero(self):
        brackets = scan_sign_changes(WResidual(-0.25), -10.0, 2.0, 10000)
        assert len(brackets) == 2

    def test_one_crossing_above_zero(self):
        brackets = scan_sign_changes(WResidual(2.5), -10.0, 2.0, 10000)
        assert len(brackets) == 1

    def test_no_crossing_for_separated_curves(self):
        assert scan_sign_changes(DiagonalGap(3.0), 0.001, 50.0, 10000) == []

    def test_exact_node_zero_degenerates(self):
        brackets = scan_sign_changes(WResidual(0.0), -1.0, 1.0, 2)
        assert len(brackets) == 1
        assert brackets[0].lo == brackets[0].hi == 0.0

    def test_brackets_ascend(self):
        brackets = scan_sign_changes(WResidual(-0.25), -10.0, 2.0, 10000)
        assert brackets[0].hi <= brackets[1].lo

    def test_non_finite_nodes_skipped(self, caplog):
        with caplog.at_level(logging.WARNING):
            brackets = scan_sign_changes(WResidual(5.0), 700.0, 720.0, 10)
        assert brackets == []
        assert any("non-finite" in rec.message for rec in caplog.records)

    def test_malformed_interval(self):
        with pytest.raises(DomainError):
            scan_sign_changes(WResidual(1.0), 2.0, -2.0, 100)
        with pytest.raises(DomainError):
            scan_sign_changes(WResidual(1.0), -2.0, 2.0, 1)
        with pytest.raises(DomainError):
            scan_sign_changes(FullGap(1.3), 0.0, 2.0, 100)
        for b in (1.0, 0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="base must be positive and != 1"):
                scan_sign_changes(FullGap(b), 1e-9, 50.0, 100)


class TestBisect:
    def test_near_branch_point_regression(self):
        z = -1 / math.e + 1e-6
        spec = WResidual(z)
        bracket = RootBracket(lo=-1.0, hi=0.0, f_lo=spec(-1.0), f_hi=spec(0.0))
        assert bisect(spec, bracket, 1e-12) == pytest.approx(NEAR_BRANCH_POINT_ROOT, abs=1e-11)

    def test_quoted_crossings(self):
        spec = DiagonalGap(1.3)
        lower = RootBracket(lo=1.0, hi=2.0, f_lo=spec(1.0), f_hi=spec(2.0))
        upper = RootBracket(lo=7.0, hi=8.0, f_lo=spec(7.0), f_hi=spec(8.0))
        assert bisect(spec, lower, 1e-12) == pytest.approx(1.47, abs=0.005)
        assert bisect(spec, upper, 1e-12) == pytest.approx(7.86, abs=0.005)

    def test_degenerate_bracket_returns_node(self):
        bracket = RootBracket(lo=0.5, hi=0.5, f_lo=0.0, f_hi=0.0)
        assert bisect(WResidual(0.0), bracket, 1e-12) == 0.5

    def test_zero_endpoint_short_circuits(self):
        spec = WResidual(0.0)
        bracket = RootBracket(lo=0.0, hi=1.0, f_lo=0.0, f_hi=spec(1.0))
        assert bisect(spec, bracket, 1e-12) == 0.0

    def test_rejects_bad_tolerance(self):
        bracket = RootBracket(lo=0.0, hi=1.0, f_lo=-1.0, f_hi=1.0)
        with pytest.raises(DomainError):
            bisect(WResidual(0.5), bracket, 0.0)

    def test_bracket_soundness(self):
        for z in (-0.25, -0.1, 0.5, 2.5):
            spec = WResidual(z)
            for bracket in scan_sign_changes(spec, -10.0, 2.0, 5000):
                root = bisect(spec, bracket, 1e-12)
                assert bracket.lo <= root <= bracket.hi
                assert abs(spec(root)) <= abs(bracket.f_lo)
                assert abs(spec(root)) <= abs(bracket.f_hi)

    # Bases from each band the benchmark draws from: small_base, sub_unit,
    # near1_below, near1_above, two_point, tangent, above.
    BAND_BASES = (
        1e-300, 1e-5, 0.05, 0.1, 0.5, 0.9, 1.0 - 1e-7, 1.0 - 2e-9, 1.0 + 2e-9, 1.0 + 1e-7,
        1.05, 1.3, 1.44, TANGENT_BASE * (1.0 - 5e-10), TANGENT_BASE * (1.0 + 5e-10), 1.5, 10.0,
    )

    @pytest.mark.parametrize("abs_tol", [1e-12, 1e-10])
    def test_full_gap_inline_matches_the_call(self, abs_tol):
        # bisect evaluates FullGap inline; every midpoint and root must be
        # the one FullGap.__call__ gives
        brackets = 0
        for b in self.BAND_BASES:
            spec = FullGap(b)
            x_max = default_x_max(tuple(p.x for p in diagonal_intersections(b).points))
            for r in scan_sign_changes(spec, 1e-9, x_max, 20000):
                assert repr(bisect(spec, r, abs_tol)) == repr(bisect(lambda x: spec(x), r, abs_tol)), (b, r)
                brackets += 1
        assert brackets > len(self.BAND_BASES)
        # midpoints where b**x overflows take the inf arm
        for spec, r in [
            (FullGap(1e300), RootBracket(1.0, 1000.0, -1.0, math.inf)),
            (FullGap(3.0), RootBracket(0.5, 0.5, 0.0, 0.0)),
            (FullGap(-2.0), RootBracket(1.0, 1.0 + abs_tol / 2.0, -1.0, 1.0)),  # never evaluated
        ]:
            assert repr(bisect(spec, r, abs_tol)) == repr(bisect(lambda x: spec(x), r, abs_tol))


class TestAllIntersections:
    def test_two_point_base(self):
        roots = all_intersections_numeric(1.3, 20.0, 20000, 1e-10)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(1.47, abs=0.005)
        assert roots[1] == pytest.approx(7.86, abs=0.005)

    def test_decreasing_base(self):
        roots = all_intersections_numeric(0.8, 5.0, 20000, 1e-10)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.83, abs=0.005)

    def test_small_base_sees_off_diagonal_pair(self):
        # below exp(-e) ~ 0.0659 the exponential crosses its inverse off
        # the bisectrix as well; the scan is the authority here
        roots = all_intersections_numeric(0.05, 5.0, 200000, 1e-12)
        assert len(roots) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            all_intersections_numeric(1.0, 10.0, 100, 1e-10)
        with pytest.raises(DomainError):
            all_intersections_numeric(1.3, -5.0, 100, 1e-10)
        # 2.0 has no root to bisect: the tolerance is checked up front
        for abs_tol in (-1.0, math.nan):
            with pytest.raises(DomainError, match="abs_tol must be positive"):
                all_intersections_numeric(2.0, 50.0, 100, abs_tol)

    def test_resolution_monotonicity(self):
        for b in (0.8, 1.3, TANGENT_BASE - 0.01, TANGENT_BASE + 0.01):
            x_max = 50.0
            counts = [
                len(all_intersections_numeric(b, x_max, n, 1e-10)) for n in (10000, 20000, 40000)
            ]
            assert counts[0] <= counts[1] <= counts[2], b


def test_tangency_touch_is_invisible_to_sign_scan():
    spec = FullGap(TANGENT_BASE)
    assert scan_sign_changes(spec, 2.0, 4.0, 2000) == []
    # the gap still pinches to ~0 near x = e
    nodes = [2.0 + i * (4.0 - 2.0) / 2000 for i in range(2001)]
    assert min(abs(spec(x)) for x in nodes) <= 1e-6


def _per_node_scan(spec, lo, hi, n):
    """The scan as one Python loop over the nodes: (brackets, skipped)."""
    step = (hi - lo) / n
    xs = [lo + i * step for i in range(n)] + [hi]
    fs = [spec(x) for x in xs]
    brackets = []
    skipped = 0
    for i in range(n + 1):
        if not math.isfinite(fs[i]):
            skipped += 1
            continue
        if fs[i] == 0.0:
            brackets.append((xs[i], xs[i], 0.0, 0.0))
            continue
        if i == n:
            continue
        if not math.isfinite(fs[i + 1]) or fs[i + 1] == 0.0:
            continue
        if fs[i] * fs[i + 1] < 0.0:
            brackets.append((xs[i], xs[i + 1], fs[i], fs[i + 1]))
    return brackets, skipped


def _assert_scan_matches_per_node(caplog, spec, lo, hi, n):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="expcross.oracle"):
        got = scan_sign_changes(spec, lo, hi, n)
    want, skipped = _per_node_scan(spec, lo, hi, n)
    case = (spec, lo, hi, n)
    # repr tells -0.0 from 0.0 and compares every bit of the floats
    assert repr([(r.lo, r.hi, r.f_lo, r.f_hi) for r in got]) == repr(want), case
    records = [(rec.msg, rec.args) for rec in caplog.records]
    assert records == ([(SKIP_MSG, (skipped,))] if skipped else []), case
    return len(want), skipped


class TestScanBitIdentity:
    def test_full_gap_bases_and_windows(self, caplog):
        rng = random.Random(1703)
        bases = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(24)]
        bases += [1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -6.0) for _ in range(8)]
        bases += [rng.uniform(0.01, 3.0) for _ in range(8)]
        bases += [0.05, 0.8, 1.3, TANGENT_BASE, 2.0, 1e10, 1e-300, 1.0 + 1e-7, 1.0 - 1e-7]
        windows = [(1e-9, 50.0, 4000), (1e-9, 4e10, 4000), (2.0, 4.0, 2000), (0.25, 1e3, 3000)]
        brackets = skipped = 0
        for b in bases:
            for window in windows:
                found, lost = _assert_scan_matches_per_node(caplog, FullGap(b), *window)
                brackets += found
                skipped += lost
        # the spread reaches roots and overflowing nodes (b = 1e10)
        assert brackets > 0 and skipped > 0
        for b in (1e10, 1e-300, 1.0 + 1e-7, 1.0 - 1e-7, 0.05, TANGENT_BASE):
            _assert_scan_matches_per_node(caplog, FullGap(b), 1e-9, 50.0, 20000)

    def test_w_residual_non_finite_nodes(self, caplog):
        assert _assert_scan_matches_per_node(caplog, WResidual(5.0), 700.0, 720.0, 10) == (0, 9)
        _assert_scan_matches_per_node(caplog, WResidual(5.0), 600.0, 720.0, 40)
        _assert_scan_matches_per_node(caplog, WResidual(-0.25), -800.0, 800.0, 1600)

    def test_w_residual_exact_zero_nodes(self, caplog):
        # e is 1*e**1 exactly: a zero at the last node, then mid-grid
        assert _assert_scan_matches_per_node(caplog, WResidual(math.e), -3.0, 1.0, 4) == (1, 0)
        assert _assert_scan_matches_per_node(caplog, WResidual(math.e), 0.0, 2.0, 4) == (1, 0)
        assert _assert_scan_matches_per_node(caplog, WResidual(0.0), -1.0, 1.0, 2) == (1, 0)
        # a sign change whose product underflows to -0.0 brackets nothing
        assert _assert_scan_matches_per_node(caplog, WResidual(0.0), -1e-170, 1e-170, 3) == (0, 0)

    def test_diagonal_gap(self, caplog):
        for b in (0.05, 0.5, 1.3, TANGENT_BASE, 2.0, 1e10):
            _assert_scan_matches_per_node(caplog, DiagonalGap(b), -5.0, 5.0, 1000)
            _assert_scan_matches_per_node(caplog, DiagonalGap(b), -2000.0, 2000.0, 4000)

    # (values at nodes 0, 1, ...; (brackets, skipped)): the sign bit and f < 0
    # differ on -0.0 and -nan; 0x00/0x80 and 0x7F/0xFF high bytes also belong
    # to subnormals and to huge finite values.
    SIGN_BIT_CASES = [
        ([-0.0, 1.0, -0.0, -1.0, 0.0, -1.0, 1.0, -0.0], (5, 0)),
        ([0.0, 1.0, 0.0, 1.0, 0.0], (3, 0)),
        ([-0.0, -1.0, -0.0, -2.0, -0.0], (3, 0)),
        ([-1.0, -0.0, 1.0, 0.0, -1.0], (2, 0)),
        ([math.nan, 1.0, -1.0, -math.nan, 1.0, math.inf, -1.0, -math.inf, -math.nan], (1, 5)),
        ([-1.0, -math.inf, -2.0, -math.nan, -1.0], (0, 2)),
        ([1.0, math.nan, 1.0, math.inf], (0, 2)),
        ([1e308, -1e308, 1e308, 1.0, -1e308], (3, 0)),
        ([5e-324, -5e-324, 5e-324, 2.0, -5e-324, 2.0, 5e-324], (2, 0)),
    ]

    @pytest.mark.parametrize("values, counts", SIGN_BIT_CASES)
    def test_sign_bit_edge_values(self, caplog, values, counts):
        def spec(x):
            return values[int(x)]

        n = len(values) - 1
        assert _assert_scan_matches_per_node(caplog, spec, 0.0, float(n), n) == counts

    def test_overflowing_base_is_not_evaluated_per_node(self, caplog, monkeypatch):
        calls = []
        call = FullGap.__call__
        monkeypatch.setattr(FullGap, "__call__", lambda self, x: calls.append(x) or call(self, x))
        with caplog.at_level(logging.WARNING, logger="expcross.oracle"):
            assert scan_sign_changes(FullGap(1e10), 1e-9, 50.0, 20000) == []
        assert [(rec.msg, rec.args) for rec in caplog.records] == [(SKIP_MSG, (7670,))]
        assert calls == []


# The places where h's runs of monotone nodes meet: the tangent base, e**-e
# (where h'' and h' vanish together) and e**(-e**2/4) (where h'' first has zeros).
RUN_EDGES = (math.exp(1.0 / math.e), math.exp(-math.e), math.exp(-math.e**2 / 4.0))


class TestScanRuns:
    """The FullGap scan on each branch of h's run structure, against the per-node rule."""

    @pytest.mark.parametrize("edge", RUN_EDGES)
    def test_bases_round_each_edge(self, caplog, edge):
        for k in range(3, 17):
            for sign in (-1.0, 1.0):
                b = edge * (1.0 + sign * 10.0**-k)
                for window in ((1e-9, 50.0, 20000), (0.2, 4.0, 3001), (1e-9, 5.0, 17)):
                    _assert_scan_matches_per_node(caplog, FullGap(b), *window)

    def test_inflections_but_no_turn(self, caplog):
        # e**-e < b < e**(-e**2/4): h'' changes sign twice, h' stays positive
        for b in (0.07, 0.1, 0.13, 0.157):
            for window in ((1e-9, 50.0, 20000), (0.05, 2.0, 999)):
                _assert_scan_matches_per_node(caplog, FullGap(b), *window)

    def test_window_starts_past_an_inflection(self, caplog):
        # b = 0.05: h'' vanishes at x ~ 0.304 and peaks in sign at 2/L ~ 0.668
        for window in ((0.31, 5.0, 4000), (0.7, 5.0, 4000), (1e-9, 0.3, 4000), (0.31, 0.6, 50)):
            _assert_scan_matches_per_node(caplog, FullGap(0.05), *window)

    def test_rounding_noise_round_a_multiple_root(self, caplog):
        # So close to the triple root at 1/e, or the double root at e, the
        # computed sign of h flips from node to node: the windows must widen
        # to take in every such node.
        for b in (RUN_EDGES[1], RUN_EDGES[1] * (1.0 - 1e-12), RUN_EDGES[1] * (1.0 + 1e-9)):
            for w in (1e-9, 1e-7):
                assert _assert_scan_matches_per_node(
                    caplog, FullGap(b), 1.0 / math.e - w, 1.0 / math.e + w, 997
                )[0] > 100
        for w in (1e-7, 1e-6):
            _assert_scan_matches_per_node(caplog, FullGap(TANGENT_BASE), math.e - w, math.e + w, 1001)

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_few_panels(self, caplog, n):
        bases = (1e-300, 0.05, 0.5, 1.0 - 1e-7, 1.0 + 1e-7, 1.3, TANGENT_BASE, 2.0, 1e10, 1e300)
        for b in bases + RUN_EDGES:
            for window in ((1e-9, 50.0), (1e-9, 50), (0.25, 1e3), (5e-324, 1e-300), (2.0, 4.0)):
                _assert_scan_matches_per_node(caplog, FullGap(b), *window, n)

    @seed(2101)
    @settings(
        max_examples=60,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        b=st.one_of(
            st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
            st.tuples(
                st.sampled_from(RUN_EDGES + (1.0,)),
                st.floats(-15.0, -2.0),
                st.sampled_from((-1.0, 1.0)),
            ).map(lambda t: t[0] * (1.0 + t[2] * 10.0 ** t[1])),
        ),
        lo=st.floats(-12.0, 1.0).map(lambda e: 10.0**e),
        width=st.floats(-4.0, 3.0).map(lambda e: 10.0**e),
        n=st.integers(2, 5000),
    )
    def test_random_scans(self, caplog, b, lo, width, n):
        assume(b != 1.0)
        _assert_scan_matches_per_node(caplog, FullGap(b), lo, lo + width, n)

    @pytest.mark.parametrize("b", [0.05, 1.3, TANGENT_BASE, 2.0, 1e10, 1.0 + 1e-7, 1.0 - 1e-7])
    def test_large_scan_takes_few_evaluations(self, monkeypatch, b):
        calls = []
        pow_ = math.pow
        monkeypatch.setattr(math, "pow", lambda x, y: calls.append(y) or pow_(x, y))
        brackets = scan_sign_changes(FullGap(b), 1e-9, 50.0, 400000)
        assert 0 < len(calls) <= 200
        if b in (TANGENT_BASE, 2.0):
            # no sign change: the end nodes of both runs settle their anchors
            assert brackets == [] and len(calls) <= 40
        if b == 0.05:
            # three runs, three roots: one window round each run's anchor
            assert len(brackets) == 3 and len(calls) <= 90

    # (b, lo, hi, n) reaching each outcome of a run's anchor: the far sign
    # holds at its first node, is never reached, or is found by search.
    RUN_ANCHOR_CASES = [
        # b > 1, falling then rising
        (1.3, 2.0, 50.0, 4000),  # falling: first node; rising: search
        (2.0, 1e-9, 50.0, 20000),  # falling: never; rising: first node
        (TANGENT_BASE * (1.0 + 1e-9), 1e-9, 50.0, 20000),  # as for 2.0, with h near 0 at e
        (1.3, 1e-9, 50.0, 20000),  # search in both
        (1.3, 3.0, 7.0, 500),  # falling: first node; rising: never
        # e**(-e**2/4) < b < 1, one rising run
        (0.5, 1e-9, 50.0, 20000),  # search
        (0.5, 1.0, 5.0, 1000),  # first node
        (0.5, 1e-9, 0.5, 1000),  # never
        # b < e**-e, rising, falling, rising
        (0.05, 1e-9, 0.6, 400),  # search, search, never
        (0.05, 0.2, 0.6, 400),  # first node, search, never
        (0.05, 0.2, 0.3, 400),  # first node, never
        (0.05, 1e-9, 0.1, 4000),  # never
        (0.05, 0.5, 5.0, 400),  # falling: first node; rising: search
        (0.05, 0.25, 0.5, 400),  # falling alone: search
        (0.05, 0.7, 5.0, 400),  # last rising run alone: first node
        (0.05, 1e-9, 50.0, 20000),  # search in all three
        # a bracket on the panel (s - 1, s) where two runs meet lies next to an anchor
        (1.444, 1e-9, 50.0, 255),  # s = j: the falling run never has h <= 0, anchored at s
        (1.444, 1e-9, 10.0, 37),  # s = j: the rising run has h >= 0 at s, anchored there
        # s = j1, then s = j2, j1 < k < j2: the first run anchored at its stop, the last
        # at its first node
        (0.0649, 1e-9, 1.0, 20),
        (0.0659, 0.2, 0.6, 20),  # s = j1, then s = k = j2: the first two runs at their stops
        (0.0639, 1e-9, 2.0, 20),  # s = j1 = k, then s = j2: the last two at their first nodes
        (0.06958, 1e-9, 5.0, 41),  # e**-e < b, s = j1 = k = j2: the first run at its stop
        # b < e**-e, s = j1 = k = j2: h turns twice between nodes s - 1 and s, and the
        # first run is anchored at s - 1
        (0.0658, 0.1, 1.0, 22),
    ]

    @pytest.mark.parametrize("b, lo, hi, n", RUN_ANCHOR_CASES)
    def test_run_anchor_outcomes(self, caplog, b, lo, hi, n):
        _assert_scan_matches_per_node(caplog, FullGap(b), lo, hi, n)


class TestLogGridCache:
    """Scans that once shared a cached window of nodes: int and float hi,
    interleaved windows and bases, and threads all get the per-node result."""

    def test_int_and_float_endpoint_are_distinct_windows(self, caplog):
        # b = 45**(1/45) puts the upper root in the last panel, so hi is
        # printed in a bracket: a cached int 50 must never stand in for 50.0
        b = 45.0 ** (1.0 / 45.0)
        for hi in (50, 50.0, 50, 50.0):
            assert _assert_scan_matches_per_node(caplog, FullGap(b), 1e-9, hi, 4) == (2, 0)
            assert repr(scan_sign_changes(FullGap(b), 1e-9, hi, 4)[-1].hi) == repr(hi)
        for hi in (50.0, 50, 50.0, 50):
            _assert_scan_matches_per_node(caplog, FullGap(1.3), 1e-9, hi, 20000)

    def test_interleaved_windows_and_bases(self, caplog):
        windows = [(1e-9, 50.0, 20000), (0.25, 1e3, 3000)]
        for _ in range(2):
            for b in (0.05, 1.3, 1e10, TANGENT_BASE, 0.8):
                for window in windows:
                    _assert_scan_matches_per_node(caplog, FullGap(b), *window)

    def test_threads_get_the_serial_result(self):
        cases = [
            (b, window)
            for b in (0.05, 1.3, 2.0)
            for window in ((1e-9, 50.0, 2000), (1e-9, 20.0, 1500))
        ]
        expected = [repr(scan_sign_changes(FullGap(b), *window)) for b, window in cases]
        mismatches = []

        def work(offset):
            for i in range(60):
                k = (offset + i) % len(cases)
                b, window = cases[k]
                if repr(scan_sign_changes(FullGap(b), *window)) != expected[k]:
                    mismatches.append(cases[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
