import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from pam3codec.core import Pam3Frame, count_symbols
from pam3codec.encoders import (
    FLAG_WIDTH,
    MAX_FLAG,
    Algorithm,
    EncodedFrame,
    PermutationCode,
    brute_force_best_permutation,
    decode,
    decode_dbi,
    decode_mf,
    decode_sort,
    encode,
    encode_dbi,
    encode_mf,
    encode_sort,
)
from pam3codec.errors import InvalidFlag, WrongAlgorithm
from pam3codec.power import DEFAULT_MODEL, termination_power

levels = st.sampled_from((-1, 0, 1))
lines = st.tuples(*([levels] * 8))
frames = st.builds(Pam3Frame, lines, lines)

ALL_NEG = Pam3Frame((-1,) * 8, (-1,) * 8)
ALL_POS = Pam3Frame((1,) * 8, (1,) * 8)
# hand-counted frame with counts (6, 5, 5)
FRAME_655 = Pam3Frame((-1, 0, 1, -1, -1, 0, 1, 1), (0, 0, -1, 1, -1, -1, 1, 0))


def _counts(frame):
    return count_symbols(frame).as_tuple()


# ---------------------------------------------------------------- DBI

def test_dbi_inverts_all_neg():
    enc = encode_dbi(ALL_NEG)
    assert enc.frame == ALL_POS
    assert enc.flag == 1


def test_dbi_keeps_all_pos():
    enc = encode_dbi(ALL_POS)
    assert enc.frame == ALL_POS
    assert enc.flag == 0


def test_dbi_inverts_655():
    enc = encode_dbi(FRAME_655)
    assert enc.flag == 1
    assert _counts(enc.frame) == (5, 5, 6)


def test_dbi_decode_examples():
    assert decode_dbi(EncodedFrame(ALL_POS, Algorithm.DBI, 1)) == ALL_NEG
    assert decode_dbi(EncodedFrame(ALL_POS, Algorithm.DBI, 0)) == ALL_POS


def test_dbi_decode_wrong_algorithm():
    with pytest.raises(WrongAlgorithm):
        decode_dbi(EncodedFrame(ALL_POS, Algorithm.MF, 0))


@given(frames)
def test_dbi_roundtrip(frame):
    assert decode_dbi(encode_dbi(frame)) == frame


@given(frames)
def test_dbi_postcondition(frame):
    c = count_symbols(encode_dbi(frame).frame)
    assert c.neg <= c.pos


# ---------------------------------------------------------------- MF

def test_mf_swaps_most_frequent():
    frame = Pam3Frame((-1,) * 8, (-1, -1, 0, 0, 0, 0, 1, 1))
    assert _counts(frame) == (10, 4, 2)
    enc = encode_mf(frame)
    assert _counts(enc.frame) == (2, 4, 10)
    assert enc.flag == 0


def test_mf_identity_when_pos_most_frequent():
    enc = encode_mf(ALL_POS)
    assert enc.frame == ALL_POS
    assert enc.flag == 2


def test_mf_on_655():
    enc = encode_mf(FRAME_655)
    assert _counts(enc.frame) == (5, 5, 6)
    assert enc.flag == 0


def test_mf_tie_prefers_pos():
    frame = Pam3Frame((-1,) * 6 + (0,) * 2, (0,) * 2 + (1,) * 6)
    assert _counts(frame) == (6, 4, 6)
    enc = encode_mf(frame)
    assert enc.flag == 2
    assert enc.frame == frame


def test_mf_tie_prefers_zero_over_neg():
    frame = Pam3Frame((-1,) * 7 + (0,), (0,) * 6 + (1, 1))
    assert _counts(frame) == (7, 7, 2)
    enc = encode_mf(frame)
    assert enc.flag == 1
    assert _counts(enc.frame) == (7, 2, 7)


def test_mf_decode_examples():
    frame = Pam3Frame((-1,) * 8, (-1, -1, 0, 0, 0, 0, 1, 1))
    enc = encode_mf(frame)
    assert decode_mf(enc) == frame
    # mf = +1 flag is the identity
    assert decode_mf(EncodedFrame(FRAME_655, Algorithm.MF, 2)) == FRAME_655


def test_mf_decode_invalid_flag():
    with pytest.raises(InvalidFlag, match=r"^MF flag must be 0\.\.2, got 3$"):
        decode_mf(EncodedFrame(ALL_POS, Algorithm.MF, 3))


def test_mf_decode_wrong_algorithm():
    with pytest.raises(WrongAlgorithm):
        decode_mf(EncodedFrame(ALL_POS, Algorithm.DBI, 0))


@given(frames)
def test_mf_roundtrip(frame):
    assert decode_mf(encode_mf(frame)) == frame


@given(frames)
def test_mf_postcondition(frame):
    before = max(_counts(frame))
    after = count_symbols(encode_mf(frame).frame)
    assert after.pos == before


# ---------------------------------------------------------------- SORT

def test_sort_maps_by_frequency_rank():
    # -1 least frequent, +1 middle, 0 most frequent
    frame = Pam3Frame((-1, -1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 1))
    assert _counts(frame) == (2, 9, 5)
    enc = encode_sort(frame)
    # mapping -1 -> -1, +1 -> 0, 0 -> +1
    assert enc.frame == Pam3Frame((-1, -1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0, 0, 0))
    assert _counts(enc.frame) == (2, 5, 9)
    assert enc.flag == PermutationCode.from_images((-1, 1, 0)).index == 1


def test_sort_identity_on_all_pos():
    enc = encode_sort(ALL_POS)
    assert enc.frame == ALL_POS
    assert enc.flag == 0


def test_sort_on_655():
    enc = encode_sort(FRAME_655)
    assert enc.flag == 4  # images (+1, -1, 0)
    assert _counts(enc.frame) == (5, 5, 6)
    assert enc.frame == Pam3Frame((1, -1, 0, 1, 1, -1, 0, 0), (-1, -1, 1, 0, 1, 1, 0, -1))


def test_sort_decode_examples():
    frame = Pam3Frame((-1, -1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 1))
    assert decode_sort(encode_sort(frame)) == frame
    assert decode_sort(EncodedFrame(FRAME_655, Algorithm.SORT, 0)) == FRAME_655


@pytest.mark.parametrize("flag", [6, 7])
def test_sort_decode_invalid_flag(flag):
    with pytest.raises(InvalidFlag, match=rf"^SORT flag must be 0\.\.5, got {flag}$"):
        decode_sort(EncodedFrame(ALL_POS, Algorithm.SORT, flag))


def test_sort_decode_wrong_algorithm():
    with pytest.raises(WrongAlgorithm):
        decode_sort(EncodedFrame(ALL_POS, Algorithm.NONE, 0))


@given(frames)
def test_sort_roundtrip(frame):
    assert decode_sort(encode_sort(frame)) == frame


@given(frames)
def test_sort_postcondition(frame):
    c = count_symbols(encode_sort(frame).frame)
    assert c.pos >= c.zero >= c.neg


# ------------------------------------------------------- permutations

def test_permutation_canonical_table():
    expected = [
        (-1, 0, 1),
        (-1, 1, 0),
        (0, -1, 1),
        (0, 1, -1),
        (1, -1, 0),
        (1, 0, -1),
    ]
    for index, images in enumerate(expected):
        code = PermutationCode(index)
        assert code.images == images
        assert PermutationCode.from_images(images).index == index
        assert sorted(code.mapping.values()) == [-1, 0, 1]


@pytest.mark.parametrize("index", range(6))
def test_permutation_inverse(index):
    code = PermutationCode(index)
    inv = code.inverse()
    for level in (-1, 0, 1):
        assert inv.apply(code.apply(level)) == level


def test_permutation_validation():
    with pytest.raises(ValueError):
        PermutationCode(6)
    with pytest.raises(ValueError):
        PermutationCode.from_images((1, 1, 0))


# -------------------------------------------------------- brute force

def test_brute_force_all_neg():
    code, best = brute_force_best_permutation(ALL_NEG)
    assert best == 0.0
    assert code.mapping[-1] == 1


def test_brute_force_655():
    # independent oracle: assign the count triple to the weight triple in
    # every possible way and take the cheapest
    counts = (6, 5, 5)
    weights = (
        DEFAULT_MODEL.term_weight_neg,
        DEFAULT_MODEL.term_weight_zero,
        DEFAULT_MODEL.term_weight_pos,
    )
    oracle = min(
        sum(c * w for c, w in zip(assignment, weights))
        for assignment in itertools.permutations(counts)
    )
    assert oracle == pytest.approx(0.075)
    code, best = brute_force_best_permutation(FRAME_655)
    assert best == oracle
    assert code.index == 4  # lowest index among the tied optima


@given(frames)
def test_brute_force_never_worse_than_identity(frame):
    _, best = brute_force_best_permutation(frame)
    assert best <= termination_power(frame)


@given(frames)
def test_sort_matches_brute_force_exactly(frame):
    _, best = brute_force_best_permutation(frame)
    assert termination_power(encode_sort(frame).frame) == best


@given(frames)
def test_dominance_and_non_regression(frame):
    baseline = termination_power(frame)
    p_dbi = termination_power(encode_dbi(frame).frame)
    p_mf = termination_power(encode_mf(frame).frame)
    p_sort = termination_power(encode_sort(frame).frame)
    assert p_sort <= p_dbi <= baseline
    assert p_sort <= p_mf <= baseline


# ---------------------------------------------------------- dispatch

@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_encode_decode_dispatch(algorithm):
    enc = encode(FRAME_655, algorithm)
    assert enc.algorithm is algorithm
    assert decode(enc) == FRAME_655


def test_none_encoding_is_identity():
    enc = encode(FRAME_655, Algorithm.NONE)
    assert enc.frame == FRAME_655
    assert enc.flag == 0


@pytest.mark.parametrize(
    "algorithm,flag",
    [(Algorithm.NONE, 1), (Algorithm.DBI, 2), (Algorithm.MF, 4), (Algorithm.SORT, 8)],
)
def test_encoded_frame_flag_width(algorithm, flag):
    with pytest.raises(InvalidFlag):
        EncodedFrame(ALL_POS, algorithm, flag)


@pytest.mark.parametrize("algorithm", ["SORT", "sort", None])
def test_encode_rejects_unknown_algorithm(algorithm):
    with pytest.raises(ValueError, match="unknown algorithm"):
        encode(FRAME_655, algorithm)


def test_flag_limits_are_the_papers():
    """MAX_FLAG and FLAG_WIDTH derive from FLAG_IMAGES; pin them to the
    paper's 1-, 2- and 3-bit flags."""
    assert MAX_FLAG == {Algorithm.NONE: 0, Algorithm.DBI: 1, Algorithm.MF: 2, Algorithm.SORT: 5}
    assert FLAG_WIDTH == {Algorithm.NONE: 0, Algorithm.DBI: 1, Algorithm.MF: 2, Algorithm.SORT: 3}
