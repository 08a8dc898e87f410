"""Array-shaped variants of the frame operations.

Trace analysis touches millions of frames, so the hot paths work on numpy
arrays of shape (n, 2, 8) holding int8 levels in {-1, 0, +1}. Every
function here mirrors a scalar operation from core/encoders/power and the
test suite pins the two paths to each other; the scalar forms stay the
readable reference.
"""

from __future__ import annotations

import numpy as np

from . import core, encoders
from .errors import EmptyStream, InvalidFlag, InvalidPair
from .power import DEFAULT_MODEL, PowerModel

_PAIR_TABLE = np.array(core.PAIR_OF_SYMBOL, dtype=np.int8)  # (8, 2)

# (level_a + 1, level_b + 1) -> 3-bit symbol, -1 marks the unused pair
_SYMBOL_TABLE = np.full((3, 3), -1, dtype=np.int8)
for _sym, (_a, _b) in enumerate(core.PAIR_OF_SYMBOL):
    _SYMBOL_TABLE[_a + 1, _b + 1] = _sym

_BIT_SHIFTS = np.arange(7, -1, -1, dtype=np.uint8)  # column 0 = MSB

# Image tables in level-index form (0, 1, 2 for -1, 0, +1).
_PERM_IDX = np.array(encoders.PERMUTATION_IMAGES, dtype=np.int8) + 1
_PERM_INV_IDX = np.array(
    [np.argsort(row) for row in _PERM_IDX], dtype=np.int8
)
_MF_IDX = np.array(encoders._MF_IMAGES, dtype=np.int8) + 1

_POPCOUNT3 = np.array([bin(v).count("1") for v in range(8)], dtype=np.int64)


def modulate_block(words: np.ndarray) -> np.ndarray:
    """Modulate (n, 3) uint8 word groups into (n, 2, 8) int8 level frames."""
    words = np.asarray(words, dtype=np.uint8)
    bits = (words[:, :, None] >> _BIT_SHIFTS) & 1  # (n, 3, 8)
    sym = (bits[:, 0] << 2) | (bits[:, 1] << 1) | bits[:, 2]  # (n, 8)
    return _PAIR_TABLE[sym].transpose(0, 2, 1)  # (n, 2, 8)


def demodulate_block(levels: np.ndarray) -> np.ndarray:
    """Invert modulate_block back to (n, 3) uint8 word groups."""
    levels = np.asarray(levels, dtype=np.int8)
    sym = _SYMBOL_TABLE[levels[:, 0] + 1, levels[:, 1] + 1]  # (n, 8)
    if (sym < 0).any():
        frame_idx, col = np.argwhere(sym < 0)[0]
        raise InvalidPair(
            f"frame {frame_idx}, column {col} holds the unused (0, 0) pair", int(frame_idx)
        )
    weights = (np.int32(1) << _BIT_SHIFTS).astype(np.int32)
    words = np.empty((len(sym), 3), dtype=np.uint8)
    for w, shift in enumerate((2, 1, 0)):
        words[:, w] = (((sym >> shift) & 1) * weights).sum(axis=1).astype(np.uint8)
    return words


def count_block(levels: np.ndarray) -> np.ndarray:
    """Per-frame counts of (-1, 0, +1) as an (n, 3) int64 array."""
    flat = np.asarray(levels).reshape(len(levels), -1)
    return np.stack([(flat == lv).sum(axis=1) for lv in (-1, 0, 1)], axis=1)


def _apply_images(levels: np.ndarray, images_idx: np.ndarray) -> np.ndarray:
    """Remap levels per frame; images_idx is (n, 3) in level-index form."""
    rows = np.arange(len(levels))[:, None, None]
    return (images_idx[rows, levels + 1] - 1).astype(np.int8)


def dbi_encode_block(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cnt = count_block(levels)
    invert = cnt[:, 0] > cnt[:, 2]
    out = np.where(invert[:, None, None], -levels, levels).astype(np.int8)
    return out, invert.astype(np.uint8)


def dbi_decode_block(levels: np.ndarray, flags: np.ndarray) -> np.ndarray:
    if (flags > 1).any():
        raise InvalidFlag("DBI flag must be 0 or 1")
    invert = flags.astype(bool)
    return np.where(invert[:, None, None], -levels, levels).astype(np.int8)


def mf_encode_block(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cnt = count_block(levels)
    # argmax over the reversed counts finds the first maximum from the +1
    # side, matching the tie-break "+1, then 0, then -1"
    mf_index = 2 - cnt[:, ::-1].argmax(axis=1)
    return _apply_images(levels, _MF_IDX[mf_index]), mf_index.astype(np.uint8)


def mf_decode_block(levels: np.ndarray, flags: np.ndarray) -> np.ndarray:
    if (flags > 2).any():
        raise InvalidFlag("MF flag must be 0..2")
    return _apply_images(levels, _MF_IDX[flags])


def sort_encode_block(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cnt = count_block(levels)
    order = np.argsort(cnt, axis=1, kind="stable")  # least to most frequent
    images_idx = np.empty_like(order)
    rows = np.arange(len(order))[:, None]
    images_idx[rows, order] = np.arange(3)[None, :]
    # lexicographic index of the image triple
    flags = 2 * images_idx[:, 0] + (images_idx[:, 1] > images_idx[:, 2])
    return _apply_images(levels, images_idx), flags.astype(np.uint8)


def sort_decode_block(levels: np.ndarray, flags: np.ndarray) -> np.ndarray:
    if (flags > 5).any():
        raise InvalidFlag("SORT flag must be 0..5")
    return _apply_images(levels, _PERM_INV_IDX[flags])


def encode_block(
    levels: np.ndarray, algorithm: encoders.Algorithm
) -> tuple[np.ndarray, np.ndarray]:
    """Encode every frame independently; returns (levels, flags)."""
    if algorithm is encoders.Algorithm.NONE:
        return levels, np.zeros(len(levels), dtype=np.uint8)
    if algorithm is encoders.Algorithm.DBI:
        return dbi_encode_block(levels)
    if algorithm is encoders.Algorithm.MF:
        return mf_encode_block(levels)
    if algorithm is encoders.Algorithm.SORT:
        return sort_encode_block(levels)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def decode_block(
    levels: np.ndarray, flags: np.ndarray, algorithm: encoders.Algorithm
) -> np.ndarray:
    if algorithm is encoders.Algorithm.NONE:
        return levels
    if algorithm is encoders.Algorithm.DBI:
        return dbi_decode_block(levels, flags)
    if algorithm is encoders.Algorithm.MF:
        return mf_decode_block(levels, flags)
    if algorithm is encoders.Algorithm.SORT:
        return sort_decode_block(levels, flags)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def termination_block(
    levels: np.ndarray, model: PowerModel = DEFAULT_MODEL
) -> np.ndarray:
    """Per-frame termination power, (n,) float64."""
    cnt = count_block(levels)
    return (
        cnt[:, 0] * model.term_weight_neg
        + cnt[:, 1] * model.term_weight_zero
        + cnt[:, 2] * model.term_weight_pos
    )


def termination_total(
    levels: np.ndarray, model: PowerModel = DEFAULT_MODEL
) -> float:
    """Trace-total termination power from exact summed counts.

    Summing integer counts first keeps the total independent of frame
    order and of float accumulation order.
    """
    cnt = count_block(levels).sum(axis=0)
    return float(
        cnt[0] * model.term_weight_neg
        + cnt[1] * model.term_weight_zero
        + cnt[2] * model.term_weight_pos
    )


def switching_total(levels: np.ndarray, model: PowerModel = DEFAULT_MODEL) -> float:
    """Switching energy over the whole stream, both lines, as one float."""
    if len(levels) == 0:
        raise EmptyStream("switching power needs at least one frame")
    steps = 0
    for line in (0, 1):
        seq = levels[:, line, :].reshape(-1).astype(np.int64)
        d = np.diff(seq)
        steps += int((d * d).sum())
    return model.switch_unit_energy * steps


def flag_termination_total(
    flags: np.ndarray, algorithm: encoders.Algorithm, model: PowerModel = DEFAULT_MODEL
) -> float:
    """Termination power of the flag wires, driven as binary lines.

    A 0 bit is driven at level -1 and a 1 bit at level +1, so only the
    zero bits cost power under the default weights.
    """
    width = encoders.FLAG_WIDTH[algorithm]
    if width == 0 or len(flags) == 0:
        return 0.0
    ones = _POPCOUNT3[flags].sum()
    total_bits = width * len(flags)
    zeros = total_bits - ones
    return float(
        zeros * model.term_weight_neg + ones * model.term_weight_pos
    )
