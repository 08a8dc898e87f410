"""Array-shaped variants of the frame operations.

Trace analysis touches millions of frames, so the hot paths work on line
masks: a C-contiguous (2, n) uint16 array, row 0 marking the -1 and row 1
the +1 positions. Each uint16 is line A's byte then line B's byte in
memory, position 0 in the most significant bit. Every function here
mirrors a scalar operation from core/encoders/power and the test suite
pins the two paths to each other. The oracles count_block,
termination_total and switching_total take (n, 2, 8) int8 levels, which
masks_of_levels and levels_of_masks convert. Every encoding is one rule
from a frame's level counts to a flag, and one table from flag to one of
the six level bijections of encoders.PERMUTATION_IMAGES.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import encoders
from .encoders import Algorithm
from .errors import EmptyStream, InvalidFlag, InvalidPair
from .power import DEFAULT_MODEL, PowerModel

# Set bits of every byte, and of every uint16 as the sum over its bytes.
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint16)
_POP16 = (_POP8[:, None] + _POP8[None, :]).reshape(-1)
_NOT_LSB = np.uint16(0xFEFE)  # clears what a left shift carries between the two bytes

_IMAGES = np.array(encoders.PERMUTATION_IMAGES, dtype=np.int8)  # (6, 3)
_IMAGE_OF_INDEX = _IMAGES.reshape(-1)  # [perm * 3 + level + 1]
_INVERSE = np.array(
    [encoders.PermutationCode(i).inverse().index for i in range(6)], dtype=np.uint8
)
# _SELECT[d, level + 1, perm] is all ones when perm maps level to -1 (d = 0)
# or to +1 (d = 1), so output masks are ORs of selected input masks.
_SELECT = np.where(_IMAGES.T == np.array([-1, 1])[:, None, None], 0xFFFF, 0).astype(np.uint16)

# The permutation index each flag value stands for; the flag is the index
# into the tuple. DBI's flag 1 inverts, MF's flag names the level it swaps
# with +1 and a SORT flag is the permutation index itself.
_PERM_OF_FLAG = {
    Algorithm.NONE: np.array([0], dtype=np.uint8),
    Algorithm.DBI: np.array([0, 5], dtype=np.uint8),
    Algorithm.MF: np.array([5, 1, 0], dtype=np.uint8),
    Algorithm.SORT: np.arange(6, dtype=np.uint8),
}


def _dbi_flags(cnt: np.ndarray) -> np.ndarray:
    return cnt[:, 0] > cnt[:, 2]


def _mf_flags(cnt: np.ndarray) -> np.ndarray:
    # argmax over the reversed counts finds the first maximum from the +1
    # side, matching the tie-break "+1, then 0, then -1"
    return 2 - cnt[:, ::-1].argmax(axis=1)


def _sort_flags(cnt: np.ndarray) -> np.ndarray:
    order = np.argsort(cnt, axis=1, kind="stable")  # least to most frequent
    ranks = np.empty_like(order)
    ranks[np.arange(len(order))[:, None], order] = np.arange(3)
    # lexicographic index of the image triple
    return 2 * ranks[:, 0] + (ranks[:, 1] > ranks[:, 2])


# A frame's counts (cnt-1, cnt0, cnt+1) sum to 16, so cnt-1 * 17 + cnt0 is
# a key that fixes every flag rule. 153 of the 289 keys are reachable; the
# others would need a negative cnt+1 and get zero counts here.
_KEYS = 17 * 17
_cnt_neg, _cnt_zero = np.divmod(np.arange(_KEYS), 17)
_KEY_COUNTS = np.stack([_cnt_neg, _cnt_zero, 16 - _cnt_neg - _cnt_zero], axis=1)
_REACHABLE = _KEY_COUNTS[:, 2] >= 0
_KEY_COUNTS[~_REACHABLE] = 0


def _flag_of_key(rule) -> np.ndarray:
    flags = np.zeros(_KEYS, dtype=np.uint8)
    flags[_REACHABLE] = rule(_KEY_COUNTS[_REACHABLE])
    return flags


_FLAG_OF_KEY = {
    Algorithm.NONE: np.zeros(_KEYS, dtype=np.uint8),
    Algorithm.DBI: _flag_of_key(_dbi_flags),
    Algorithm.MF: _flag_of_key(_mf_flags),
    Algorithm.SORT: _flag_of_key(_sort_flags),
}
_PERM_OF_KEY = {alg: _PERM_OF_FLAG[alg][flags] for alg, flags in _FLAG_OF_KEY.items()}

# The adjacent-pair types a bijection can make cost differently, as level
# indices: {-1, 0}, {0, +1} and {-1, +1}.
_PAIR_FROM = np.array([0, 1, 0])
_PAIR_TO = np.array([1, 2, 2])


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


def _check_flags(flags: np.ndarray, algorithm: Algorithm) -> None:
    limit = encoders.MAX_FLAG[algorithm]
    if flags.size and (flags.min() < 0 or flags.max() > limit):
        raise InvalidFlag(f"{algorithm.value} flag must be 0..{limit}")


def _count_keys(masks: np.ndarray) -> np.ndarray:
    """(n,) uint16 count key cnt-1 * 17 + cnt0 of every frame."""
    cnt_neg = np.take(_POP16, masks[0])
    return cnt_neg * 17 + (16 - cnt_neg - np.take(_POP16, masks[1]))


def _adjacent(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per frame, the adjacent positions of a line holding p and q in
    either order, summed over both lines."""
    return np.take(_POP16, (p << 1) & _NOT_LSB & q) + np.take(_POP16, (q << 1) & _NOT_LSB & p)


def _permute(masks: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Masks of every frame's levels mapped through its permutation index."""
    neg, pos = masks
    zero = ~(neg | pos)
    out = np.empty_like(masks)
    for d, (sel_neg, sel_zero, sel_pos) in enumerate(_SELECT):  # (6,) tables by perm
        out[d] = (neg & np.take(sel_neg, perm)) | (zero & np.take(sel_zero, perm))
        out[d] |= pos & np.take(sel_pos, perm)
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


def demodulate_block(masks: np.ndarray) -> np.ndarray:
    """Invert modulate_block back to (n, 3) uint8 word groups.

    Mask bits are in word bit order, so each word byte is a bit expression
    of the line masks: X is 1 for A = +1 or (A, B) = (0, +1), Y for the
    pairs (-1, +1), (0, -1), (+1, 0), (+1, +1), and Z for (-1, 0), (0, -1),
    (+1, -1), (+1, +1).
    """
    (neg_a, neg_b), (pos_a, pos_b) = _line_bytes(masks)
    zero_a, zero_b = ~(neg_a | pos_a), ~(neg_b | pos_b)
    unused = zero_a & zero_b
    if unused.any():
        frame_idx = int(np.flatnonzero(unused)[0])
        col = int(np.unpackbits(unused[frame_idx:frame_idx + 1]).argmax())
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
    flags = _FLAG_OF_KEY[algorithm][_count_keys(masks)]
    return _permute(masks, _PERM_OF_FLAG[algorithm][flags]), flags


def decode_block(
    masks: np.ndarray, flags: np.ndarray, algorithm: Algorithm
) -> np.ndarray:
    """Undo encode_block; raises InvalidFlag for a flag the algorithm never emits."""
    flags = np.asarray(flags)
    if flags.shape != masks.shape[1:]:
        raise ValueError("flags must be 1-D with one entry per frame")
    _check_flags(flags, algorithm)
    return _permute(masks, _INVERSE[_PERM_OF_FLAG[algorithm][flags]])


class StreamStats:
    """Per-frame sufficient statistics of a frame stream's line masks, for
    the power totals of every encoding without building an encoded copy.

    An encoding maps all 16 levels of a frame through one bijection picked
    by the frame's count key, so the encoded termination counts follow
    from the number of frames per key, the switching within frames from
    the adjacent-pair counts per key, and the switching across frame
    boundaries from each line's first and last level. Every total is an
    exact integer before the model weights apply, with the same float
    expressions as termination_total, switching_total and
    flag_termination_total. Only switching_total needs the pair counts and
    the first and last levels, so they are built on first use. The masks
    must not change while the statistics are in use.
    """

    def __init__(self, masks: np.ndarray):
        self._masks = masks
        self.key = _count_keys(masks)
        self.frames_per_key = np.bincount(self.key, minlength=_KEYS)

    @cached_property
    def pairs_per_key(self) -> np.ndarray:
        """(3, _KEYS) int64 adjacent-pair counts of the _PAIR_FROM/_PAIR_TO types."""
        neg, pos = self._masks
        zero = ~(neg | pos)
        # the float64 sums bincount makes of the weights are exact
        return np.stack([
            np.bincount(self.key, _adjacent(p, q), _KEYS)
            for p, q in ((neg, zero), (zero, pos), (neg, pos))
        ]).astype(np.int64)

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, last): C-contiguous (2, n) level + 1 at positions 0 and 7 of each line."""
        neg, pos = _line_bytes(self._masks)
        return tuple(np.ascontiguousarray(1 + (pos >> s & 1) - (neg >> s & 1)) for s in (7, 0))

    def counts(self, algorithm: Algorithm = Algorithm.NONE) -> np.ndarray:
        """Totals of (-1, 0, +1) over the stream after encoding, (3,) int64."""
        encoded = np.zeros_like(_KEY_COUNTS)
        rows = np.arange(_KEYS)[:, None]
        encoded[rows, _IMAGES[_PERM_OF_KEY[algorithm]] + 1] = _KEY_COUNTS
        return self.frames_per_key @ encoded

    def termination_total(self, algorithm: Algorithm, model: PowerModel = DEFAULT_MODEL) -> float:
        return float(_termination_power(self.counts(algorithm), model))

    def switching_total(self, algorithm: Algorithm, model: PowerModel = DEFAULT_MODEL) -> float:
        perm = _PERM_OF_KEY[algorithm]
        images = _IMAGES[perm].astype(np.int64)
        cost = (images[:, _PAIR_FROM] - images[:, _PAIR_TO]) ** 2  # (_KEYS, 3)
        steps = int((self.pairs_per_key * cost.T).sum())
        # across frame boundaries: last level of frame i to first of i + 1
        base = np.take(perm * 3, self.key)
        first, last = (np.take(_IMAGE_OF_INDEX, base + index) for index in self.ends)
        d = first[:, 1:] - last[:, :-1]
        steps += int((d * d).sum(dtype=np.int64))
        return model.switch_unit_energy * steps

    def flag_termination_total(
        self, algorithm: Algorithm, model: PowerModel = DEFAULT_MODEL
    ) -> float:
        ones = self.frames_per_key @ _POP8[_FLAG_OF_KEY[algorithm]]
        return _flag_power(ones, encoders.FLAG_WIDTH[algorithm] * len(self.key), model)


def _termination_power(cnt, model: PowerModel):
    """Termination power of (..., 3) counts of (-1, 0, +1)."""
    return (
        cnt[..., 0] * model.term_weight_neg
        + cnt[..., 1] * model.term_weight_zero
        + cnt[..., 2] * model.term_weight_pos
    )


def _flag_power(ones, total_bits: int, model: PowerModel) -> float:
    zeros = total_bits - ones
    return float(zeros * model.term_weight_neg + ones * model.term_weight_pos)


def termination_total(
    levels: np.ndarray, model: PowerModel = DEFAULT_MODEL
) -> float:
    """Trace-total termination power from exact summed counts.

    Summing integer counts first keeps the total independent of frame
    order and of float accumulation order.
    """
    return float(_termination_power(count_block(levels).sum(axis=0), model))


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
    flags: np.ndarray, algorithm: Algorithm, model: PowerModel = DEFAULT_MODEL
) -> float:
    """Termination power of the flag wires, driven as binary lines.

    A 0 bit is driven at level -1 and a 1 bit at level +1, so only the
    zero bits cost power under the default weights. Raises InvalidFlag for
    a flag the algorithm never emits.
    """
    flags = np.asarray(flags)
    _check_flags(flags, algorithm)
    width = encoders.FLAG_WIDTH[algorithm]
    if width == 0 or len(flags) == 0:
        return 0.0
    return _flag_power(_POP8[flags].sum(dtype=np.int64), width * len(flags), model)
