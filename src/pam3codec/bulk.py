"""Array-shaped variants of the frame operations.

Trace analysis touches millions of frames, so the hot paths work on line
masks: a (2, n) uint16 array with contiguous rows, row 0 marking the -1 and
row 1 the +1 positions. Each uint16 is line A's byte then line B's byte in
memory, position 0 in the most significant bit. Every function here
mirrors a scalar operation from core/encoders/power and the test suite
pins the two paths to each other. StreamStats folds a stream chunk by
chunk into the sums that every analysis total comes from. The oracles
count_block, termination_total and switching_total take (n, 2, 8) int8
levels, which masks_of_levels and levels_of_masks convert. Every encoding
is one rule from a frame's level counts to a flag, encoders.flag_of_counts,
and one table from flag to level bijection, encoders.FLAG_IMAGES; the
count-key and flag tables here are derived from the two at import. Every
termination total, flag wires included, is power.termination of summed
counts. check_masks and check_flags are the one check of masks and of
flags, for the encoder, decoder and demodulator here and for traceio's
FrameStream and writer.
"""

from __future__ import annotations

import numpy as np

from . import encoders
from .encoders import PERMUTATION_IMAGES, Algorithm, inverse_images
from .errors import EmptyStream, InvalidFlag, InvalidPair
from .power import termination

_NOT_LSB = np.uint16(0xFEFE)  # clears what a left shift carries between the two bytes

_IMAGES = np.array(PERMUTATION_IMAGES, dtype=np.int8)  # (6, 3)
# A change a -> b != a on a line is one edge of a and one of b (_level_edges),
# and (a - b)**2 = (3a**2 - 1) + (3b**2 - 1): an edge of a level costs
# 3v**2 - 1 steps, v its image under the bijection, _EDGE_COST[perm, level + 1].
_EDGE_COST = 3 * _IMAGES.astype(np.int64) ** 2 - 1
# Bit perm of _SELECT[d, level + 1] is set when perm maps level to -1 (d = 0)
# or to +1 (d = 1), so output masks are ORs of the input masks it selects.
_SELECT = (
    (_IMAGES.T == np.array([-1, 1])[:, None, None]) << np.arange(6)
).sum(axis=2).astype(np.uint16)

# The permutation index each flag value stands for, and that of its
# inverse, indexed by flag.
_PERM_OF_FLAG = {alg: np.array([PERMUTATION_IMAGES.index(i) for i in images], np.uint8)
                 for alg, images in encoders.FLAG_IMAGES.items()}
_INVERSE_OF_FLAG = {
    alg: np.array([PERMUTATION_IMAGES.index(inverse_images(i)) for i in images], np.uint8)
    for alg, images in encoders.FLAG_IMAGES.items()
}

# A frame's counts (cnt-1, cnt0, cnt+1) sum to 16, so cnt-1 * 17 + cnt0 is
# a key that fixes every flag rule. 153 of the 289 keys are reachable; the
# others would need a negative cnt+1 and get zero counts and flags here.
_KEYS = 17 * 17
_cnt_neg, _cnt_zero = np.divmod(np.arange(_KEYS), 17)
_KEY_COUNTS = np.stack([_cnt_neg, _cnt_zero, 16 - _cnt_neg - _cnt_zero], axis=1)
_REACHABLE = _KEY_COUNTS[:, 2] >= 0
_KEY_COUNTS[~_REACHABLE] = 0


def _flag_of_key(algorithm: Algorithm) -> np.ndarray:
    flags = np.zeros(_KEYS, dtype=np.uint8)
    counts = _KEY_COUNTS[_REACHABLE].tolist()
    flags[_REACHABLE] = [encoders.flag_of_counts(c, algorithm) for c in counts]
    return flags


_FLAG_OF_KEY = {alg: _flag_of_key(alg) for alg in _PERM_OF_FLAG}
_PERM_OF_KEY = {alg: _PERM_OF_FLAG[alg][flags] for alg, flags in _FLAG_OF_KEY.items()}

# The keys fall into 7 classes, each mapped to one permutation by every
# algorithm. A frame's first or last level on a line and its key's class
# make a boundary state 3 * class + level + 1, which fixes that level after
# every encoding: _BOUNDARY_LEVELS[alg][state].
_CLASS_PERMS, _CLASS_OF_KEY = np.unique(
    np.stack(list(_PERM_OF_KEY.values()), axis=1), axis=0, return_inverse=True
)
_STATES = 3 * len(_CLASS_PERMS)
# By key, the state of level 0 in both bytes of a uint16, one byte per line.
_STATE_BASE = ((3 * _CLASS_OF_KEY.reshape(-1) + 1) * 0x0101).astype(np.uint16)
_LOW_BITS = np.uint16(0x0101)  # bit 0 of both bytes
_BOUNDARY_LEVELS = {
    alg: _IMAGES[perms].reshape(-1).astype(np.int64)
    for alg, perms in zip(_PERM_OF_KEY, _CLASS_PERMS.T)
}

# Frames that StreamStats.update folds at once. _fold makes intp temporaries
# of ~8 bytes per frame, so a fixed block keeps them small and in cache
# whatever the size of the chunk.
_FOLD_FRAMES = 16384


def masks_of_levels(levels: np.ndarray) -> np.ndarray:
    """(2, n) uint16 line masks of (n, 2, 8) levels in {-1, 0, +1}."""
    levels = np.asarray(levels)
    if levels.ndim != 3 or levels.shape[1:] != (2, 8):
        raise ValueError(f"levels must have shape (n, 2, 8), got {levels.shape}")
    if levels.size and (levels.min() < -1 or levels.max() > 1):
        raise ValueError("levels must be -1, 0, or +1")
    return np.packbits(levels.reshape(1, -1) == [[-1], [1]], axis=1).view(np.uint16)


def levels_of_masks(masks: np.ndarray) -> np.ndarray:
    """(n, 2, 8) int8 levels of (2, n) line masks."""
    neg, pos = np.unpackbits(masks.view(np.uint8), axis=1).view(np.int8)
    return np.subtract(pos, neg).reshape(-1, 2, 8)


def _line_bytes(masks: np.ndarray) -> np.ndarray:
    """(sign, line, n) uint8 view of masks; sign 0 is -1, line 0 is line A."""
    return masks.view(np.uint8).reshape(2, -1, 2).transpose(0, 2, 1)


def check_masks(masks) -> None:
    """ValueError unless masks is a (2, n) uint16 array of contiguous, disjoint rows."""
    if not (
        isinstance(masks, np.ndarray) and masks.dtype == np.uint16
        and masks.ndim == 2 and len(masks) == 2 and masks[0].flags.c_contiguous
    ):
        raise ValueError("masks must be a (2, n) uint16 array with contiguous rows")
    if (masks[0] & masks[1]).any():
        raise ValueError("a position cannot be both -1 and +1")


def check_flags(flags, frames: int, algorithm: Algorithm) -> np.ndarray:
    """flags as a (frames,) uint8 array, checked before the cast: ValueError
    unless they are 1-D integers, one per frame (an empty list for no
    frames); InvalidFlag unless each is one the algorithm emits."""
    algorithm = Algorithm(algorithm)
    flags = np.asarray(flags)
    if flags.shape != (frames,) or (flags.size and not np.issubdtype(flags.dtype, np.integer)):
        raise ValueError("flags must be 1-D integers with one entry per frame")
    limit = encoders.MAX_FLAG[algorithm]
    if flags.size and (flags.min() < 0 or flags.max() > limit):
        raise InvalidFlag(f"{algorithm.value} flag must be 0..{limit}")
    return flags.astype(np.uint8, copy=False)


def _count_keys(masks: np.ndarray) -> np.ndarray:
    """(n,) uint16 count key cnt-1 * 17 + cnt0 of every frame."""
    cnt_neg = np.bitwise_count(masks[0]).astype(np.uint16)  # * 17 overflows uint8
    return cnt_neg * 17 + (16 - cnt_neg - np.bitwise_count(masks[1]))


def _level_edges(masks: np.ndarray) -> np.ndarray:
    """(3, n) edges of levels -1, 0, +1 per frame: the adjacent positions of
    a line where exactly one holds the level, summed over both lines. The
    edges of 0 are those of neg | pos, so no zero mask is built."""
    neg, pos = masks
    return np.bitwise_count(np.stack([(m << 1) ^ m for m in (neg, neg | pos, pos)]) & _NOT_LSB)


def _permute(masks: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Masks of every frame's levels mapped through its permutation index."""
    neg, pos = masks
    zero = ~(neg | pos)
    out = np.zeros_like(masks)
    for row, perm_bits in zip(out, _SELECT):
        for mask, bits in zip((neg, zero, pos), perm_bits):
            row |= mask & -(bits >> perm & 1)  # all ones where perm selects the mask
    return out


def modulate_block(words: np.ndarray) -> np.ndarray:
    """Modulate (n, 3) uint8 word groups into (2, n) line masks.

    Bit column i of X, Y, Z is the symbol xyz of position i on both lines
    (core.PAIR_OF_SYMBOL): line A is -1 for 000, 001, 010 and +1 for 101,
    110, 111; line B is 0 for 001 and 110, else +1 for odd parity and -1
    for even parity.
    """
    x, y, z = np.asarray(words, dtype=np.uint8).T
    masks = np.empty((2, len(x)), dtype=np.uint16)
    (neg_a, neg_b), (pos_a, pos_b) = _line_bytes(masks)
    b_zero = (~x & ~y & z) | (x & y & ~z)
    odd = x ^ y ^ z
    neg_a[:] = ~(x | (y & z))
    pos_a[:] = x & (y | z)
    neg_b[:] = ~(odd | b_zero)
    pos_b[:] = odd & ~b_zero
    return masks


def demodulate_block(masks: np.ndarray, first_frame: int = 0) -> np.ndarray:
    """Invert modulate_block back to (n, 3) uint8 word groups.

    Mask bits are in word bit order, so each word byte is a bit expression
    of the line masks: X is 1 for A = +1 or (A, B) = (0, +1), Y for the
    pairs (-1, +1), (0, -1), (+1, 0), (+1, +1), and Z for (-1, 0), (0, -1),
    (+1, -1), (+1, +1). An InvalidPair numbers the frames from first_frame,
    the position of the block's first frame in its stream.
    """
    check_masks(masks)
    (neg_a, neg_b), (pos_a, pos_b) = _line_bytes(masks)
    zero_a, zero_b = ~(neg_a | pos_a), ~(neg_b | pos_b)
    unused = zero_a & zero_b
    if unused.any():
        at = int(np.flatnonzero(unused)[0])
        col = int(np.unpackbits(unused[at:at + 1]).argmax())
        frame_idx = first_frame + at
        raise InvalidPair(
            f"frame {frame_idx}, column {col} holds the unused (0, 0) pair", frame_idx
        )
    words = np.empty((len(neg_a), 3), dtype=np.uint8)
    words[:, 0] = pos_a | (zero_a & pos_b)
    words[:, 1] = (neg_a & pos_b) | (zero_a & neg_b) | (pos_a & ~neg_b)
    words[:, 2] = (neg_a & zero_b) | (zero_a & neg_b) | (pos_a & ~zero_b)
    return words


def count_block(levels: np.ndarray) -> np.ndarray:
    """Per-frame counts of (-1, 0, +1) as an (n, 3) int64 array."""
    flat = np.asarray(levels).reshape(len(levels), -1)
    return np.stack([(flat == lv).sum(axis=1) for lv in (-1, 0, 1)], axis=1)


def encode_block(
    masks: np.ndarray, algorithm: Algorithm
) -> tuple[np.ndarray, np.ndarray]:
    """Encode every frame independently; returns (masks, flags)."""
    algorithm = Algorithm(algorithm)
    check_masks(masks)
    flags = _FLAG_OF_KEY[algorithm][_count_keys(masks)]
    return _permute(masks, _PERM_OF_FLAG[algorithm][flags]), flags


def decode_block(
    masks: np.ndarray, flags: np.ndarray, algorithm: Algorithm
) -> np.ndarray:
    """Undo encode_block; masks are checked by check_masks, flags by check_flags."""
    algorithm = Algorithm(algorithm)
    check_masks(masks)
    flags = check_flags(flags, masks.shape[1], algorithm)
    return _permute(masks, _INVERSE_OF_FLAG[algorithm][flags])


class StreamStats:
    """Sums over a frame stream folded chunk by chunk: the level counts,
    termination and switching totals of every encoding, without building
    an encoded copy.

    An encoding maps all 16 levels of a frame through one bijection picked
    by the frame's count key, so the encoded level counts follow from the
    number of frames per key, and the switching within frames from the
    level-edge counts per key: an edge of a level is two adjacent positions
    on a line of which exactly one holds that level. The switching across
    frame boundaries follows from a 21 x 21 histogram of (last state of
    frame i, first state of frame i + 1) over both lines, in the boundary
    states of _STATE_BASE. Between folded blocks, and so between chunks,
    only the last frame's two end states carry over. Every total is an
    exact integer until it is weighted or made a float, with the same
    float expressions as termination_total and switching_total, and is the
    same however the stream was split into chunks.
    """

    def __init__(self):
        self.frames_per_key = np.zeros(_KEYS, dtype=np.int64)
        self.edges_per_key = np.zeros((3, _KEYS), dtype=np.int64)  # levels -1, 0, +1
        self.boundaries = np.zeros((_STATES, _STATES), dtype=np.int64)
        self._last = None  # the end states of the last frame folded, by line

    @property
    def frame_count(self) -> int:
        """The frames folded so far, each counted once under its key."""
        return int(self.frames_per_key.sum())

    def update(self, masks: np.ndarray) -> None:
        """Fold the (2, n) line masks of the frames after those folded so far,
        _FOLD_FRAMES at a time."""
        for start in range(0, masks.shape[1], _FOLD_FRAMES):
            block = masks[:, start:start + _FOLD_FRAMES]
            self._fold(block, _count_keys(block))

    def _fold(self, masks: np.ndarray, key: np.ndarray) -> None:
        self.frames_per_key += np.bincount(key, minlength=_KEYS)
        for edges, per_frame in zip(self.edges_per_key, _level_edges(masks)):
            # the float64 sums are exact: a block's _FOLD_FRAMES frames hold
            # at most 14 edges of a level each, far below 2**53
            edges += np.bincount(key, weights=per_frame, minlength=_KEYS).astype(np.int64)
        neg, pos = masks
        # (n, 2) uint8 boundary states of positions 0 (bit 7) and 7 (bit 0),
        # line A then B; no byte borrows, as a position is not both -1 and +1
        base = _STATE_BASE[key]
        first, last = (
            (base + (pos >> s & _LOW_BITS) - (neg >> s & _LOW_BITS)).view(np.uint8).reshape(-1, 2)
            for s in (7, 0)
        )
        if self._last is not None:
            np.add.at(self.boundaries, (self._last, first[0]), 1)
        steps = last[:-1] * np.uint16(_STATES) + first[1:]
        self.boundaries += np.bincount(steps.reshape(-1), minlength=_STATES**2).reshape(
            _STATES, _STATES
        )
        self._last = last[-1].copy()

    def counts(self, algorithm: Algorithm = Algorithm.NONE) -> np.ndarray:
        """Totals of (-1, 0, +1) over the stream after encoding, (3,) int64."""
        encoded = np.zeros_like(_KEY_COUNTS)
        rows = np.arange(_KEYS)[:, None]
        encoded[rows, _IMAGES[_PERM_OF_KEY[algorithm]] + 1] = _KEY_COUNTS
        return self.frames_per_key @ encoded

    def termination_total(self, algorithm: Algorithm) -> float:
        return termination(self.counts(algorithm))

    def flag_termination_total(self, algorithm: Algorithm) -> float:
        """Termination power of the flag wires, driven as binary lines: a 0
        bit at level -1 and a 1 bit at level +1."""
        ones = self.frames_per_key @ np.bitwise_count(_FLAG_OF_KEY[algorithm])
        zeros = encoders.FLAG_WIDTH[algorithm] * self.frame_count - ones
        return termination((zeros, 0, ones))

    def switching_total(self, algorithm: Algorithm) -> float:
        steps = int((self.edges_per_key * _EDGE_COST[_PERM_OF_KEY[algorithm]].T).sum())
        levels = _BOUNDARY_LEVELS[algorithm]
        steps += int(np.vdot(self.boundaries, (levels[:, None] - levels) ** 2))
        return float(steps)


def termination_total(levels: np.ndarray) -> float:
    """Trace-total termination power from exact summed counts.

    Summing integer counts first keeps the total independent of frame
    order and of float accumulation order.
    """
    return termination(count_block(levels).sum(axis=0))


def switching_total(levels: np.ndarray) -> float:
    """Switching energy over the whole stream, both lines, as one float."""
    if len(levels) == 0:
        raise EmptyStream("switching power needs at least one frame")
    steps = 0
    for line in (0, 1):
        seq = levels[:, line, :].reshape(-1).astype(np.int64)
        d = np.diff(seq)
        steps += int((d * d).sum())
    return float(steps)
