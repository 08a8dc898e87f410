"""Pins the vectorized array pipeline to the scalar reference operations."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from pam3codec import bulk
from pam3codec.core import PAIR_OF_SYMBOL, Pam3Frame, Word24, count_symbols, modulate
from pam3codec.encoders import (
    FLAG_IMAGES,
    FLAG_WIDTH,
    PERMUTATION_IMAGES,
    Algorithm,
    brute_force_best_permutation,
    decode,
    encode,
    inverse_images,
)
from pam3codec.errors import EmptyStream, InvalidFlag, InvalidPair
from pam3codec.power import TERM_WEIGHT_NEG, switching_power, termination_power
from pam3codec.traceio import format_encoded_rows

rng = np.random.default_rng(0xBEEF)
WORDS = rng.integers(0, 256, (4000, 3), dtype=np.uint8)
LEVELS = rng.integers(-1, 2, (4000, 2, 8)).astype(np.int8)
MASKS = bulk.masks_of_levels(LEVELS)

level_blocks = arrays(
    np.int8,
    st.tuples(st.integers(1, 40), st.just(2), st.just(8)),
    elements=st.sampled_from((-1, 0, 1)),
)


def _frame(row) -> Pam3Frame:
    return Pam3Frame(tuple(int(v) for v in row[0]), tuple(int(v) for v in row[1]))


def _folded(masks, cls=bulk.StreamStats):
    """A cls() with masks folded in by its update."""
    stats = cls()
    stats.update(masks)
    return stats


def flag_termination_total(flags, algorithm) -> float:
    """Termination power of per-frame flags on the flag wires, driven as
    binary lines: a 0 bit at level -1, a 1 bit at level +1, so only the
    zero bits cost power. Raises InvalidFlag for a flag the algorithm never
    emits."""
    flags = np.asarray(flags)
    bulk.check_flags(flags, len(flags), algorithm)
    width = FLAG_WIDTH[algorithm]
    if width == 0 or len(flags) == 0:
        return 0.0
    ones = np.bitwise_count(flags).sum(dtype=np.int64)
    return float((width * len(flags) - ones) * TERM_WEIGHT_NEG)


def test_modulate_block_matches_scalar():
    lv = bulk.levels_of_masks(bulk.modulate_block(WORDS))
    for i in range(0, len(WORDS), 97):
        assert _frame(lv[i]) == modulate(Word24(*map(int, WORDS[i])))


def test_modulate_block_every_symbol_at_every_position():
    # word groups whose 8 bit columns all hold one symbol, one group per symbol
    words = [[0xFF * (sym >> 2 & 1), 0xFF * (sym >> 1 & 1), 0xFF * (sym & 1)] for sym in range(8)]
    lv = bulk.levels_of_masks(bulk.modulate_block(np.array(words, dtype=np.uint8)))
    for sym, row in enumerate(lv):
        a, b = PAIR_OF_SYMBOL[sym]
        assert _frame(row) == Pam3Frame((a,) * 8, (b,) * 8)


def test_demodulate_block_inverts():
    masks = bulk.modulate_block(WORDS)
    assert (bulk.demodulate_block(masks) == WORDS).all()


def test_demodulate_block_rejects_unused_pair():
    lv = bulk.levels_of_masks(bulk.modulate_block(WORDS[:4]))
    lv[2, :, 3] = 0
    lv[2, :, 6] = 0
    lv[3, :, 0] = 0
    with pytest.raises(InvalidPair, match="frame 2, column 3 ") as err:
        bulk.demodulate_block(bulk.masks_of_levels(lv))
    assert err.value.frame_index == 2


def test_count_block_matches_scalar():
    cnt = bulk.count_block(LEVELS)
    for i in range(0, len(LEVELS), 131):
        assert tuple(cnt[i]) == count_symbols(_frame(LEVELS[i])).as_tuple()


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_encode_decode_block_matches_scalar(algorithm):
    enc_masks, flags = bulk.encode_block(MASKS, algorithm)
    assert (bulk.decode_block(enc_masks, flags, algorithm) == MASKS).all()
    enc_levels = bulk.levels_of_masks(enc_masks)
    assert int(flags.max(initial=0)) < (1 << FLAG_WIDTH[algorithm])
    for i in range(0, len(LEVELS), 113):
        scalar = encode(_frame(LEVELS[i]), algorithm)
        assert scalar.flag == int(flags[i])
        assert scalar.frame == _frame(enc_levels[i])
        assert decode(scalar) == _frame(LEVELS[i])


BOTH_SIGNS = np.array([[0xFFFF], [0xFFFF]], np.uint16)  # every position at -1 and at +1
TRANSPOSED = np.zeros((3, 2), np.uint16).T  # (2, 3), but its rows are not contiguous
ROWS = "^masks must be a \\(2, n\\) uint16 array with contiguous rows$"


@pytest.mark.parametrize("call,match", [
    (lambda: bulk.demodulate_block(BOTH_SIGNS), "both -1 and \\+1"),
    (lambda: bulk.encode_block(BOTH_SIGNS, Algorithm.SORT), "both -1 and \\+1"),
    (lambda: bulk.decode_block(np.zeros((2, 1), np.int64), [0], "SORT"), "uint16 array"),
    (lambda: bulk.demodulate_block(TRANSPOSED), ROWS),
    (lambda: format_encoded_rows(Algorithm.NONE, TRANSPOSED, [0, 0, 0]), ROWS),
    (lambda: bulk.encode_block(TRANSPOSED, Algorithm.SORT), ROWS),
], ids=["demodulate overlap", "encode overlap", "decode int64", "demodulate transposed",
        "format transposed", "encode transposed"])
def test_block_functions_check_masks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# numpy indexing would wrap a flag of -1 to the last table entry
BAD_FLAGS = [
    (Algorithm.DBI, 2), (Algorithm.MF, 3), (Algorithm.SORT, 6),
    (Algorithm.NONE, -1), (Algorithm.DBI, -1), (Algorithm.SORT, -1),
]


def _bad_flags(bad_flag):
    return np.array([0, bad_flag], dtype=np.uint8 if bad_flag >= 0 else np.int64)


@pytest.mark.parametrize("algorithm,bad_flag", BAD_FLAGS)
def test_decode_block_rejects_bad_flags(algorithm, bad_flag):
    with pytest.raises(InvalidFlag):
        bulk.decode_block(MASKS[:, :2].copy(), _bad_flags(bad_flag), algorithm)


@pytest.mark.parametrize("flags", [np.zeros(1, np.uint8), np.zeros((1, 4), np.uint8),
                                   np.uint8(0)])
def test_decode_block_rejects_flags_not_per_frame(flags):
    enc_masks = bulk.encode_block(MASKS[:, :4].copy(), Algorithm.SORT)[0]
    with pytest.raises(ValueError, match="one entry per frame"):
        bulk.decode_block(enc_masks, flags, Algorithm.SORT)


@pytest.mark.parametrize("algorithm,bad_flag", BAD_FLAGS)
def test_flag_termination_total_rejects_bad_flags(algorithm, bad_flag):
    with pytest.raises(InvalidFlag):
        flag_termination_total(_bad_flags(bad_flag), algorithm)


@given(level_blocks)
@example(np.zeros((0, 2, 8), dtype=np.int8))
def test_levels_masks_roundtrip(levels):
    masks = bulk.masks_of_levels(levels)
    assert masks.shape == (2, len(levels)) and masks.dtype == np.uint16
    assert masks.flags.c_contiguous and not (masks[0] & masks[1]).any()
    assert np.array_equal(bulk.levels_of_masks(masks), levels)


@given(level_blocks, st.data())
def test_masks_of_levels_rejects_out_of_range_level(levels, data):
    levels = levels.copy()
    position = data.draw(st.integers(0, levels.size - 1))
    levels.reshape(-1)[position] = data.draw(st.sampled_from((-128, -2, 2, 3, 127)))
    with pytest.raises(ValueError, match="-1, 0, or"):
        bulk.masks_of_levels(levels)


def test_masks_of_levels_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        bulk.masks_of_levels(np.zeros((2, 2, 7), dtype=np.int8))


def test_termination_total_is_exact_sum_of_counts():
    total = bulk.termination_total(LEVELS)
    cnt = bulk.count_block(LEVELS).sum(axis=0)
    assert total == cnt[0] * 0.01 + cnt[1] * 0.005


def test_switching_total_matches_scalar():
    subset = LEVELS[:300]
    frames = [_frame(row) for row in subset]
    assert bulk.switching_total(subset) == switching_power(frames)


def test_switching_total_empty():
    with pytest.raises(EmptyStream):
        bulk.switching_total(LEVELS[:0])


def test_flag_termination_total():
    # SORT flag 4 is binary 100: one 1 bit at +1 (free), two 0 bits at -1
    flags = np.array([4, 0], dtype=np.uint8)
    total = flag_termination_total(flags, Algorithm.SORT)
    expected = (2 + 3) * TERM_WEIGHT_NEG
    assert total == pytest.approx(expected)
    assert flag_termination_total(flags[:0], Algorithm.SORT) == 0.0
    none_flags = np.zeros(5, dtype=np.uint8)
    assert flag_termination_total(none_flags, Algorithm.NONE) == 0.0


# ------------------------------------------- per-frame sufficient statistics

def _frame_of_counts(neg: int, zero: int) -> Pam3Frame:
    levels = [-1] * neg + [0] * zero + [1] * (16 - neg - zero)
    return Pam3Frame(levels[:8], levels[8:])


# every reachable (neg, zero) count of a 16-symbol frame; pos is the rest
COUNT_PAIRS = [(neg, zero) for neg in range(17) for zero in range(17 - neg)]


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_flag_tables_match_scalar_on_every_count_triple(algorithm):
    assert len(COUNT_PAIRS) == 153
    for neg, zero in COUNT_PAIRS:
        scalar = encode(_frame_of_counts(neg, zero), algorithm)
        assert bulk._FLAG_OF_KEY[algorithm][neg * 17 + zero] == scalar.flag, (neg, zero)


def test_sort_is_optimal_on_every_count_triple():
    """Termination power depends only on a frame's counts, so these 153
    frames prove both paper invariants on every frame: SORT is optimal over
    the six bijections, and so no worse than MF or DBI."""
    for neg, zero in COUNT_PAIRS:
        frame = _frame_of_counts(neg, zero)
        power = {alg: termination_power(encode(frame, alg).frame)
                 for alg in (Algorithm.SORT, Algorithm.MF, Algorithm.DBI)}
        assert power[Algorithm.SORT] == brute_force_best_permutation(frame)[1], (neg, zero)
        assert power[Algorithm.SORT] <= min(power[Algorithm.MF], power[Algorithm.DBI]), (neg, zero)


def test_perm_of_flag_table():
    """The flag -> bijection and flag -> inverse bijection tables, derived
    from encoders.FLAG_IMAGES: each entry indexes the scalar image triple."""
    expected = {Algorithm.NONE: [0], Algorithm.DBI: [0, 5], Algorithm.MF: [5, 1, 0],
                Algorithm.SORT: [0, 1, 2, 3, 4, 5]}
    assert {alg: perms.tolist() for alg, perms in bulk._PERM_OF_FLAG.items()} == expected
    for table in (bulk._PERM_OF_FLAG, bulk._INVERSE_OF_FLAG):
        assert all(perms.dtype == np.uint8 for perms in table.values())
    for alg, flag_images in FLAG_IMAGES.items():
        assert [PERMUTATION_IMAGES[i] for i in bulk._PERM_OF_FLAG[alg]] == list(flag_images)
        assert ([PERMUTATION_IMAGES[i] for i in bulk._INVERSE_OF_FLAG[alg]]
                == [inverse_images(images) for images in flag_images])


@given(level_blocks, st.sampled_from(list(Algorithm)))
@example(np.zeros((1, 2, 8), dtype=np.int8), Algorithm.MF)  # (0, 0) pairs only
@example(np.array([[[1] * 8, [-1] * 8], [[-1] * 8, [1] * 8]], dtype=np.int8), Algorithm.SORT)
def test_stream_stats_match_encoded_copy(levels, algorithm):
    stats = _folded(bulk.masks_of_levels(levels))
    enc_masks, flags = bulk.encode_block(bulk.masks_of_levels(levels), algorithm)
    enc_levels = bulk.levels_of_masks(enc_masks)
    assert (stats.counts(algorithm) == bulk.count_block(enc_levels).sum(axis=0)).all()
    assert stats.termination_total(algorithm) == bulk.termination_total(enc_levels)
    assert stats.switching_total(algorithm) == bulk.switching_total(enc_levels)
    assert stats.flag_termination_total(algorithm) == flag_termination_total(flags, algorithm)
    # the scalar encoders and power functions, frame by frame
    encoded = [encode(_frame(row), algorithm) for row in levels]
    assert stats.termination_total(algorithm) == pytest.approx(
        sum(termination_power(e.frame) for e in encoded), rel=1e-12
    )
    assert stats.switching_total(algorithm) == switching_power([e.frame for e in encoded])
    assert [e.flag for e in encoded] == flags.tolist()


def test_level_edges_price_every_line_under_every_bijection():
    """On all 3**8 contents of one line, the other line at 0: each level's
    edge count, and each bijection's switching steps priced per edge end,
    (a - b)**2 = (3a**2 - 1) + (3b**2 - 1) for any a != b."""
    lines = np.array(list(itertools.product((-1, 0, 1), repeat=8)), dtype=np.int8)
    masks = np.zeros((2, len(lines)), dtype=np.uint16)
    a_bytes = masks.view(np.uint8)[:, 0::2]  # line A's byte of every frame
    a_bytes[0], a_bytes[1] = (np.packbits(lines == lv, axis=1)[:, 0] for lv in (-1, 1))
    levels = bulk.levels_of_masks(masks)
    assert np.array_equal(levels[:, 0], lines) and not levels[:, 1].any()
    edges = bulk._level_edges(masks).astype(np.int64)
    for count, lv in zip(edges, (-1, 0, 1)):
        held = lines == lv
        assert np.array_equal(count, (held[:, 1:] != held[:, :-1]).sum(axis=1)), lv
    for perm, images in enumerate(PERMUTATION_IMAGES):
        mapped = np.array(images, dtype=np.int64)[lines + 1]
        steps = (np.diff(mapped, axis=1) ** 2).sum(axis=1)
        assert np.array_equal(bulk._EDGE_COST[perm] @ edges, steps), images


def _check_fold_any_split(levels, cuts, whole):
    """Folding levels in the chunks that cuts make, or as one chunk, gives
    the stats of whole."""
    masks = bulk.masks_of_levels(levels)
    one_chunk, split = _folded(masks), bulk.StreamStats()
    bounds = [0, *sorted(min(cut, len(levels)) for cut in cuts), len(levels)]
    for start, stop in zip(bounds, bounds[1:]):
        split.update(np.ascontiguousarray(masks[:, start:stop]))
    for stats in (one_chunk, split):
        assert stats.frame_count == whole.frame_count == len(levels)
        assert np.array_equal(stats.frames_per_key, whole.frames_per_key)
        assert np.array_equal(stats.edges_per_key, whole.edges_per_key)
        assert np.array_equal(stats.boundaries, whole.boundaries)
    assert whole.boundaries.sum() == 2 * (len(levels) - 1)
    for algorithm in Algorithm:
        assert split.switching_total(algorithm) == whole.switching_total(algorithm)
        assert split.flag_termination_total(algorithm) == whole.flag_termination_total(algorithm)


@given(level_blocks, st.lists(st.integers(0, 40), max_size=6))
@example(np.ones((3, 2, 8), dtype=np.int8), [0, 1, 1, 3])  # empty chunks at both ends
def test_stream_stats_fold_any_split(levels, cuts):
    _check_fold_any_split(levels, cuts, _folded(bulk.masks_of_levels(levels)))


class _RecordedFolds(bulk.StreamStats):
    """StreamStats that records the frames of each fold."""

    def __init__(self):
        self.folds = []
        super().__init__()

    def _fold(self, masks, key):
        self.folds.append(len(key))
        super()._fold(masks, key)


@pytest.mark.parametrize("block", [1, 2, 5])
@given(level_blocks, st.lists(st.integers(0, 40), max_size=6))
@example(levels=LEVELS[:20], cuts=[10])  # a chunk seam on a block seam of every size
def test_stream_stats_fold_any_split_in_blocks(block, levels, cuts):
    """update folds a chunk _FOLD_FRAMES frames at a time; with blocks of
    a few frames, every split still gives the stats of one fold."""
    masks = bulk.masks_of_levels(levels)
    assert len(levels) <= bulk._FOLD_FRAMES
    whole = _folded(masks)  # one fold
    with mock.patch.object(bulk, "_FOLD_FRAMES", block):
        assert _folded(masks, _RecordedFolds).folds == [
            min(block, len(levels) - start) for start in range(0, len(levels), block)
        ]
        _check_fold_any_split(levels, cuts, whole)
