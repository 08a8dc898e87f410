"""Termination and switching power models for PAM-3 lines.

Termination power is static and per driven level: -1 costs vdd_squared/100,
0 costs vdd_squared/200, +1 costs nothing. Switching energy is dynamic:
each level step on a physical line costs switch_unit_energy times the
squared level delta. Absolute numbers are normalized (vdd_squared = 1.0 by
default); only ratios are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Optional, Sequence

from .core import Pam3Frame, count_symbols
from .errors import EmptyStream, ZeroBaseline


@dataclass(frozen=True)
class PowerModel:
    vdd_squared: float = 1.0
    switch_unit_energy: float = 1.0

    def __post_init__(self):
        if self.vdd_squared <= 0:
            raise ValueError("vdd_squared must be positive")
        if self.switch_unit_energy < 0:
            raise ValueError("switch_unit_energy must be non-negative")

    @property
    def term_weight_neg(self) -> float:
        return self.vdd_squared / 100

    @property
    def term_weight_zero(self) -> float:
        return self.vdd_squared / 200

    @property
    def term_weight_pos(self) -> float:
        return 0.0


DEFAULT_MODEL = PowerModel()


@dataclass(frozen=True)
class PowerReport:
    """Encoded-vs-baseline power totals and percent ratios for one encoding.

    switch_ratio_percent is None when the baseline stream never switches
    (constant trace), where the ratio is undefined.
    """

    term_power_baseline: float
    term_power_encoded: float
    term_ratio_percent: float
    switch_power_baseline: float
    switch_power_encoded: float
    switch_ratio_percent: Optional[float]


def termination_power(frame: Pam3Frame, model: PowerModel = DEFAULT_MODEL) -> float:
    """Static termination power of one frame, from its level counts."""
    c = count_symbols(frame)
    return (
        c.neg * model.term_weight_neg
        + c.zero * model.term_weight_zero
        + c.pos * model.term_weight_pos
    )


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


def switching_power(
    stream: Iterable[Pam3Frame], model: PowerModel = DEFAULT_MODEL
) -> float:
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
    return model.switch_unit_energy * (line_switching_steps(line_a) + line_switching_steps(line_b))


def compare_powers(
    term_baseline: float,
    term_encoded: float,
    switch_baseline: float,
    switch_encoded: float,
) -> PowerReport:
    """Build a PowerReport, propagating ZeroBaseline for termination only."""
    term_ratio = termination_ratio(term_encoded, term_baseline)
    if switch_baseline == 0:
        switch_ratio = None
    else:
        switch_ratio = termination_ratio(switch_encoded, switch_baseline)
    return PowerReport(
        term_power_baseline=term_baseline,
        term_power_encoded=term_encoded,
        term_ratio_percent=term_ratio,
        switch_power_baseline=switch_baseline,
        switch_power_encoded=switch_encoded,
        switch_ratio_percent=switch_ratio,
    )
