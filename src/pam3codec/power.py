"""Termination and switching power of PAM-3 lines, in one fixed model.

Termination power is static and per driven level: -1 costs 1/100, 0 costs
1/200, +1 costs nothing, in units of vdd^2. termination is the one weighted
sum of level counts, which the scalar, bulk and flag-wire totals all call.
Switching energy is dynamic: each level step on a physical line costs the
squared level delta. Absolute numbers are normalized; only ratios are
meaningful.
"""

from __future__ import annotations

from itertools import pairwise
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import Pam3Frame, count_symbols
from .errors import EmptyStream, ZeroBaseline

TERM_WEIGHT_NEG = 1 / 100
TERM_WEIGHT_ZERO = 1 / 200


def termination(counts) -> float:
    """Termination power of level counts (neg, zero, pos)."""
    neg, zero, _ = counts
    return float(neg * TERM_WEIGHT_NEG + zero * TERM_WEIGHT_ZERO)


# Not used here; perfbench/checks.py reads these three weights by this name.
DEFAULT_MODEL = SimpleNamespace(
    term_weight_neg=TERM_WEIGHT_NEG, term_weight_zero=TERM_WEIGHT_ZERO, switch_unit_energy=1.0
)


class PowerReport(NamedTuple):
    """One encoding's row of a report: its power totals and their percent
    ratios to the NONE row's, the baseline.

    switch_ratio_percent is None when the baseline never switches
    (constant trace), where the ratio is undefined.
    """

    term_power_encoded: float
    term_ratio_percent: float
    switch_power_encoded: float
    switch_ratio_percent: Optional[float]


def termination_power(frame: Pam3Frame) -> float:
    """Static termination power of one frame, from its level counts."""
    return termination(count_symbols(frame).as_tuple())


def termination_ratio(encoded_total: float, baseline_total: float) -> float:
    """Percent ratio of encoded to baseline power totals.

    Also used for the switching ratio, which follows the same definition.
    Raises ZeroBaseline when the baseline is zero; the ratio is undefined
    there, not 0 or 100.
    """
    if baseline_total == 0:
        raise ZeroBaseline("baseline power is zero; ratio undefined")
    return encoded_total / baseline_total * 100.0


def line_switching_steps(levels: Sequence[int]) -> int:
    """Sum of squared level deltas along one line's symbol sequence."""
    return sum((b - a) ** 2 for a, b in pairwise(levels))


def switching_power(stream: Iterable[Pam3Frame]) -> float:
    """Switching energy of a frame sequence.

    Symbols are concatenated per physical line across consecutive frames;
    every consecutive pair contributes (delta level)^2 units. The first
    symbol of the stream has no predecessor and contributes nothing.
    """
    frames = list(stream)
    if not frames:
        raise EmptyStream("switching power needs at least one frame")
    line_a = [level for frame in frames for level in frame.line_a]
    line_b = [level for frame in frames for level in frame.line_b]
    return float(line_switching_steps(line_a) + line_switching_steps(line_b))

