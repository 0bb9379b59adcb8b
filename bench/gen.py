"""Seeded, tagged input generators.

Every input carries the tag of the region (for W arguments) or band (for
bases) it was drawn from.  The same tag functions classify arguments the
program produces itself, such as z = -ln(b) inside the solver, so the
traced run buckets every eval_w call the same way.

Inputs are emitted round-robin over the tags (shuffled within each round),
so any prefix of the stream has the same mix as the whole.
"""

from __future__ import annotations

import math
import random

BRANCH_POINT_Z = -math.exp(-1.0)
TANGENT_BASE = math.exp(1.0 / math.e)
SMALL_BASE = math.exp(-math.e)

W_REGIONS = ("bp_window", "series", "w0_small", "w0_mid", "w0_large", "wm1_mid", "wm1_tail")
BASE_BANDS = (
    "small_base", "sub_unit", "near1_below", "near1_above", "two_point", "tangent", "above",
)

# Region edges, matching the evaluator's seed regions.
_BP_WINDOW = 1e-6
_SERIES_CUT = 0.02
# Bases within 1e-9 of 1 are rejected by the solver; stay strictly outside.
_NEAR1_LO, _NEAR1_HI = 1.001e-9, 1e-6
_SNAP = 1e-9


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def w_region(z: float, branch: int) -> str:
    """Region of a W argument; branch is 0 (W0) or -1 (W-1)."""
    if abs(z - BRANCH_POINT_Z) <= _BP_WINDOW:
        return "bp_window"
    if math.e * z + 1.0 < _SERIES_CUT:
        return "series"
    if branch == 0:
        if abs(z) <= 1.0:
            return "w0_small"
        return "w0_mid" if z <= 3.0 else "w0_large"
    return "wm1_mid" if z <= -_SERIES_CUT else "wm1_tail"


def base_band(b: float) -> str:
    if abs(b - TANGENT_BASE) <= _SNAP * TANGENT_BASE:
        return "tangent"
    if b < SMALL_BASE:
        return "small_base"
    if abs(b - 1.0) <= _NEAR1_HI:
        return "near1_below" if b < 1.0 else "near1_above"
    if b < 1.0:
        return "sub_unit"
    return "two_point" if b < TANGENT_BASE else "above"


def _draw_w(rng: random.Random, region: str) -> tuple[float, int]:
    series_z = (_SERIES_CUT - 1.0) / math.e  # e*z + 1 == 0.02
    if region == "bp_window":
        return BRANCH_POINT_Z + rng.uniform(0.0, _BP_WINDOW), rng.choice((0, -1))
    if region == "series":
        t = rng.uniform(math.e * _BP_WINDOW * 1.001, _SERIES_CUT)
        return (t - 1.0) / math.e, rng.choice((0, -1))
    if region == "w0_small":
        if rng.random() < 0.5:
            return _log_uniform(rng, 1e-300, 1.0), 0
        return -_log_uniform(rng, 1e-300, -series_z), 0
    if region == "w0_mid":
        return rng.uniform(1.0, 3.0), 0
    if region == "w0_large":
        return _log_uniform(rng, 3.0, 1e300), 0
    if region == "wm1_mid":
        return rng.uniform(series_z, -_SERIES_CUT), -1
    return -_log_uniform(rng, 1e-300, _SERIES_CUT), -1


def _draw_base(rng: random.Random, band: str) -> float:
    if band == "small_base":
        return _log_uniform(rng, 1e-300, SMALL_BASE)
    if band == "sub_unit":
        return rng.uniform(SMALL_BASE, 1.0 - _NEAR1_HI)
    if band == "near1_below":
        return 1.0 - _log_uniform(rng, _NEAR1_LO, _NEAR1_HI)
    if band == "near1_above":
        return 1.0 + _log_uniform(rng, _NEAR1_LO, _NEAR1_HI)
    if band == "two_point":
        return rng.uniform(1.0 + _NEAR1_HI, TANGENT_BASE * (1.0 - 2.0 * _SNAP))
    if band == "tangent":
        return TANGENT_BASE * (1.0 + rng.uniform(-0.999 * _SNAP, 0.999 * _SNAP))
    return rng.uniform(TANGENT_BASE * (1.0 + 2.0 * _SNAP), 10.0)


def _round_robin(rng: random.Random, tags: tuple[str, ...], rounds: int, draw) -> list:
    out = []
    for _ in range(rounds):
        order = list(tags)
        rng.shuffle(order)
        out.extend((tag, draw(rng, tag)) for tag in order)
    return out


def w_inputs(rng: random.Random, per_region: int) -> list[tuple[str, tuple[float, int]]]:
    """(region, (z, branch)) pairs, equal counts per region."""
    return _round_robin(rng, W_REGIONS, per_region, _draw_w)


def base_inputs(rng: random.Random, per_band: int) -> list[tuple[str, float]]:
    """(band, b) pairs, equal counts per band."""
    return _round_robin(rng, BASE_BANDS, per_band, _draw_base)


# Each round has two eval and two intersect commands (~1 ms each) to one
# oracle (~12 ms) and one plot (~5 ms): the median op then falls inside the
# cheap group, not in the gap between the groups where it would jump.
CLI_ROUND = ("eval", "eval", "intersect", "intersect", "oracle", "plot")


def cli_commands(rng: random.Random, rounds: int, out_dir: str) -> list[tuple[str, list[str]]]:
    """(command, argv) pairs for `expcross`, drawn in rounds of CLI_ROUND."""

    def draw(rng: random.Random, cmd: str) -> list[str]:
        if cmd == "eval":
            z, branch = _draw_w(rng, rng.choice(W_REGIONS))
            return ["eval", "--z", repr(z), "--branch", str(branch), "--format", "json"]
        b = _draw_base(rng, rng.choice(BASE_BANDS))
        if cmd == "plot":
            out = f"{out_dir}/plot-{rng.getrandbits(64):016x}.csv"
            return ["plot", "--figure", "custom", "--base", repr(b), "--out", out]
        return [cmd, "--base", repr(b), "--format", "json"]

    return _round_robin(rng, CLI_ROUND, rounds, draw)
