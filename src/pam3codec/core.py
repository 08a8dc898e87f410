"""PAM-3 symbols, frames, and the 24-bit word group modulation.

A bus word group is three 8-bit words (X, Y, Z). Bit column i of the three
words forms a 3-bit symbol that maps to one pair of PAM-3 levels, one level
per physical line, giving two lines of 8 symbols per word group.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InvalidPair

# 3-bit column symbol (X bit is the MSB) -> (line A level, line B level).
# Pairs are enumerated lexicographically with (0, 0) left out, so the
# single unused ninth pair never appears in modulated data.
PAIR_OF_SYMBOL = (
    (-1, -1),  # 000
    (-1, 0),   # 001
    (-1, 1),   # 010
    (0, -1),   # 011
    (0, 1),    # 100
    (1, -1),   # 101
    (1, 0),    # 110
    (1, 1),    # 111
)

SYMBOL_OF_PAIR = {pair: sym for sym, pair in enumerate(PAIR_OF_SYMBOL)}


@dataclass(frozen=True)
class Word24:
    """One word group: three 8-bit words driven onto the bus together."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        for name, value in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not 0 <= operator.index(value) <= 0xFF:
                raise ValueError(f"{name} must be an 8-bit value, got {value!r}")


@dataclass(frozen=True)
class Pam3Frame:
    """Two PAM-3 lines of 8 levels each, the unit built from one Word24.

    Frames straight out of :func:`modulate` never contain the (0, 0) pair;
    encoder output may, and that is fine because decoders restore the
    original levels before demodulation.
    """

    line_a: tuple[int, ...]
    line_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "line_a", tuple(self.line_a))
        object.__setattr__(self, "line_b", tuple(self.line_b))
        for name, line in (("line_a", self.line_a), ("line_b", self.line_b)):
            if len(line) != 8:
                raise ValueError(f"{name} must hold 8 symbols, got {len(line)}")
            for level in line:
                if level not in (-1, 0, 1):
                    raise ValueError(f"{name} holds non PAM-3 level {level!r}")

    def pairs(self):
        return zip(self.line_a, self.line_b)


@dataclass(frozen=True)
class SymbolCounts:
    """Occurrence counts of -1, 0, +1 over both lines of a frame."""

    neg: int
    zero: int
    pos: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.neg, self.zero, self.pos)


def modulate(word: Word24) -> Pam3Frame:
    """Map a 24-bit word group onto two PAM-3 lines.

    Column 0 is the most significant bit position of each word and lands
    on position 0 of each line.
    """
    line_a = []
    line_b = []
    for i in range(8):
        shift = 7 - i
        sym = (
            (((word.x >> shift) & 1) << 2)
            | (((word.y >> shift) & 1) << 1)
            | ((word.z >> shift) & 1)
        )
        a, b = PAIR_OF_SYMBOL[sym]
        line_a.append(a)
        line_b.append(b)
    return Pam3Frame(tuple(line_a), tuple(line_b))


def demodulate(frame: Pam3Frame) -> Word24:
    """Invert :func:`modulate`.

    Raises InvalidPair if any column holds the unused (0, 0) pair, which
    means the caller passed a still-encoded or corrupted frame.
    """
    x = y = z = 0
    for i, pair in enumerate(frame.pairs()):
        if pair == (0, 0):
            raise InvalidPair(f"column {i} holds the unused (0, 0) pair")
        sym = SYMBOL_OF_PAIR[pair]
        shift = 7 - i
        x |= ((sym >> 2) & 1) << shift
        y |= ((sym >> 1) & 1) << shift
        z |= (sym & 1) << shift
    return Word24(x, y, z)


def count_symbols(frame: Pam3Frame) -> SymbolCounts:
    """Count each PAM-3 level across both lines (16 symbols total)."""
    neg = zero = pos = 0
    for line in (frame.line_a, frame.line_b):
        for level in line:
            if level < 0:
                neg += 1
            elif level > 0:
                pos += 1
            else:
                zero += 1
    return SymbolCounts(neg, zero, pos)
