import io
import itertools

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from pam3codec import bulk, traceio
from pam3codec.analysis import analyze_trace
from pam3codec.core import Pam3Frame, count_symbols
from pam3codec.encoders import (
    FLAG_WIDTH,
    MAX_FLAG,
    Algorithm,
    EncodedFrame,
    PermutationCode,
    brute_force_best_permutation,
    decode,
    encode,
    flag_of_counts,
)
from pam3codec.errors import InvalidFlag
from pam3codec.power import TERM_WEIGHT_NEG, TERM_WEIGHT_ZERO, termination_power

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
    enc = encode(ALL_NEG, Algorithm.DBI)
    assert enc.frame == ALL_POS
    assert enc.flag == 1


def test_dbi_keeps_all_pos():
    enc = encode(ALL_POS, Algorithm.DBI)
    assert enc.frame == ALL_POS
    assert enc.flag == 0


def test_dbi_inverts_655():
    enc = encode(FRAME_655, Algorithm.DBI)
    assert enc.flag == 1
    assert _counts(enc.frame) == (5, 5, 6)


def test_dbi_decode_examples():
    assert decode(EncodedFrame(ALL_POS, Algorithm.DBI, 1)) == ALL_NEG
    assert decode(EncodedFrame(ALL_POS, Algorithm.DBI, 0)) == ALL_POS


@given(frames)
def test_dbi_roundtrip(frame):
    assert decode(encode(frame, Algorithm.DBI)) == frame


@given(frames)
def test_dbi_postcondition(frame):
    c = count_symbols(encode(frame, Algorithm.DBI).frame)
    assert c.neg <= c.pos


# ---------------------------------------------------------------- MF

def test_mf_swaps_most_frequent():
    frame = Pam3Frame((-1,) * 8, (-1, -1, 0, 0, 0, 0, 1, 1))
    assert _counts(frame) == (10, 4, 2)
    enc = encode(frame, Algorithm.MF)
    assert _counts(enc.frame) == (2, 4, 10)
    assert enc.flag == 0


def test_mf_identity_when_pos_most_frequent():
    enc = encode(ALL_POS, Algorithm.MF)
    assert enc.frame == ALL_POS
    assert enc.flag == 2


def test_mf_on_655():
    enc = encode(FRAME_655, Algorithm.MF)
    assert _counts(enc.frame) == (5, 5, 6)
    assert enc.flag == 0


def test_mf_tie_prefers_pos():
    frame = Pam3Frame((-1,) * 6 + (0,) * 2, (0,) * 2 + (1,) * 6)
    assert _counts(frame) == (6, 4, 6)
    enc = encode(frame, Algorithm.MF)
    assert enc.flag == 2
    assert enc.frame == frame


def test_mf_tie_prefers_zero_over_neg():
    frame = Pam3Frame((-1,) * 7 + (0,), (0,) * 6 + (1, 1))
    assert _counts(frame) == (7, 7, 2)
    enc = encode(frame, Algorithm.MF)
    assert enc.flag == 1
    assert _counts(enc.frame) == (7, 2, 7)


def test_mf_decode_examples():
    frame = Pam3Frame((-1,) * 8, (-1, -1, 0, 0, 0, 0, 1, 1))
    enc = encode(frame, Algorithm.MF)
    assert decode(enc) == frame
    # mf = +1 flag is the identity
    assert decode(EncodedFrame(FRAME_655, Algorithm.MF, 2)) == FRAME_655


def test_mf_decode_invalid_flag():
    with pytest.raises(InvalidFlag, match=r"^MF flag must be 0\.\.2, got 3$"):
        decode(EncodedFrame(ALL_POS, Algorithm.MF, 3))


@given(frames)
def test_mf_roundtrip(frame):
    assert decode(encode(frame, Algorithm.MF)) == frame


@given(frames)
def test_mf_postcondition(frame):
    before = max(_counts(frame))
    after = count_symbols(encode(frame, Algorithm.MF).frame)
    assert after.pos == before


# ---------------------------------------------------------------- SORT

def test_sort_maps_by_frequency_rank():
    # -1 least frequent, +1 middle, 0 most frequent
    frame = Pam3Frame((-1, -1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 1))
    assert _counts(frame) == (2, 9, 5)
    enc = encode(frame, Algorithm.SORT)
    # mapping -1 -> -1, +1 -> 0, 0 -> +1
    assert enc.frame == Pam3Frame((-1, -1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0, 0, 0))
    assert _counts(enc.frame) == (2, 5, 9)
    assert enc.flag == PermutationCode.from_images((-1, 1, 0)).index == 1


def test_sort_identity_on_all_pos():
    enc = encode(ALL_POS, Algorithm.SORT)
    assert enc.frame == ALL_POS
    assert enc.flag == 0


def test_sort_on_655():
    enc = encode(FRAME_655, Algorithm.SORT)
    assert enc.flag == 4  # images (+1, -1, 0)
    assert _counts(enc.frame) == (5, 5, 6)
    assert enc.frame == Pam3Frame((1, -1, 0, 1, 1, -1, 0, 0), (-1, -1, 1, 0, 1, 1, 0, -1))


def test_sort_decode_examples():
    frame = Pam3Frame((-1, -1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 1))
    assert decode(encode(frame, Algorithm.SORT)) == frame
    assert decode(EncodedFrame(FRAME_655, Algorithm.SORT, 0)) == FRAME_655


@pytest.mark.parametrize("flag", [6, 7])
def test_sort_decode_invalid_flag(flag):
    with pytest.raises(InvalidFlag, match=rf"^SORT flag must be 0\.\.5, got {flag}$"):
        decode(EncodedFrame(ALL_POS, Algorithm.SORT, flag))


@given(frames)
def test_sort_roundtrip(frame):
    assert decode(encode(frame, Algorithm.SORT)) == frame


@given(frames)
def test_sort_postcondition(frame):
    c = count_symbols(encode(frame, Algorithm.SORT).frame)
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
        assert sorted(code.images) == [-1, 0, 1]


@pytest.mark.parametrize("index", range(6))
def test_permutation_inverse(index):
    code = PermutationCode(index)
    inv = code.inverse()
    for level in (-1, 0, 1):
        assert inv.images[code.images[level + 1] + 1] == level


def test_permutation_validation():
    with pytest.raises(ValueError):
        PermutationCode(6)
    with pytest.raises(TypeError):
        PermutationCode(1.0)
    with pytest.raises(ValueError):
        PermutationCode.from_images((1, 1, 0))


# -------------------------------------------------------- brute force

def test_brute_force_all_neg():
    code, best = brute_force_best_permutation(ALL_NEG)
    assert best == 0.0
    assert code.images[0] == 1  # -1 goes to +1


def test_brute_force_655():
    # independent oracle: assign the count triple to the weight triple in
    # every possible way and take the cheapest
    counts = (6, 5, 5)
    weights = (TERM_WEIGHT_NEG, TERM_WEIGHT_ZERO, 0.0)  # +1 costs nothing
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
    assert termination_power(encode(frame, Algorithm.SORT).frame) == best


@given(frames)
def test_dominance_and_non_regression(frame):
    baseline = termination_power(frame)
    p_dbi = termination_power(encode(frame, Algorithm.DBI).frame)
    p_mf = termination_power(encode(frame, Algorithm.MF).frame)
    p_sort = termination_power(encode(frame, Algorithm.SORT).frame)
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
    """flag is the first value past the algorithm's flag width. Below it,
    EncodedFrame accepts a flag exactly when bulk.check_flags does: MF 3
    and SORT 6 and 7 fit the width but no encoder emits them."""
    with pytest.raises(InvalidFlag):
        EncodedFrame(ALL_POS, algorithm, flag)
    for value in range(1 << FLAG_WIDTH[algorithm]):
        try:
            bulk.check_flags(np.array([value]), 1, algorithm)
        except InvalidFlag:
            with pytest.raises(InvalidFlag):
                EncodedFrame(ALL_POS, algorithm, value)
        else:
            assert EncodedFrame(ALL_POS, algorithm, value).flag == value
    with pytest.raises(TypeError):
        EncodedFrame(ALL_POS, algorithm, 1.0)


@pytest.mark.parametrize("algorithm", ["sort", None])
def test_encode_rejects_unknown_algorithm(algorithm):
    with pytest.raises(ValueError, match="unknown algorithm"):
        encode(FRAME_655, algorithm)


MASKS = bulk.modulate_block(np.arange(30, dtype=np.uint8).reshape(10, 3))
SORT_FLAGS = bulk.encode_block(MASKS, Algorithm.SORT)[1]


def _written(alg) -> bytes:
    out = io.BytesIO()
    traceio.write_encoded(out, alg, [traceio.FrameStream(MASKS.copy(), 0)])
    return out.getvalue()


# Every function that takes an algorithm from its caller, as a call whose
# results compare equal
TAKES_ALGORITHM = {
    "encode": lambda alg: encode(FRAME_655, alg),
    "EncodedFrame": lambda alg: EncodedFrame(FRAME_655, alg, 5),
    "flag_of_counts": lambda alg: flag_of_counts((6, 5, 5), alg),
    "encode_block": lambda alg: [a.tolist() for a in bulk.encode_block(MASKS, alg)],
    "decode_block": lambda alg: bulk.decode_block(MASKS, SORT_FLAGS, alg).tolist(),
    "check_flags": lambda alg: bulk.check_flags(SORT_FLAGS, len(SORT_FLAGS), alg).tolist(),
    "format_encoded_header": lambda alg: traceio.format_encoded_header(alg, 1),
    "format_encoded_rows": lambda alg: traceio.format_encoded_rows(alg, MASKS, SORT_FLAGS),
    "write_encoded": _written,
    "analyze_trace": lambda alg: analyze_trace(traceio.FrameStream(MASKS.copy(), 0), [alg]),
}


@pytest.mark.parametrize("alg", [Algorithm.SORT, "SORT", "sort", "XF", 3, None],
                         ids=["member", "SORT", "sort", "XF", "3", "None"])
@pytest.mark.parametrize("function", TAKES_ALGORITHM)
def test_algorithm_argument_is_a_member_or_its_name(function, alg):
    call = TAKES_ALGORITHM[function]
    if alg in (Algorithm.SORT, "SORT"):
        assert call(alg) == call(Algorithm.SORT)
        return
    with pytest.raises(ValueError) as error:
        call(alg)
    assert str(error.value) == f"unknown algorithm {alg!r}; expected one of NONE, DBI, MF, SORT"


def test_flag_limits_are_the_papers():
    """MAX_FLAG and FLAG_WIDTH derive from FLAG_IMAGES; pin them to the
    paper's 1-, 2- and 3-bit flags."""
    assert MAX_FLAG == {Algorithm.NONE: 0, Algorithm.DBI: 1, Algorithm.MF: 2, Algorithm.SORT: 5}
    assert FLAG_WIDTH == {Algorithm.NONE: 0, Algorithm.DBI: 1, Algorithm.MF: 2, Algorithm.SORT: 3}
