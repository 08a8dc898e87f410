import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from pam3codec import bulk
from pam3codec.core import (
    Pam3Frame,
    SymbolCounts,
    Word24,
    count_symbols,
    demodulate,
    modulate,
)
from pam3codec.errors import InvalidPair

words = st.builds(
    Word24,
    st.integers(0, 255),
    st.integers(0, 255),
    st.integers(0, 255),
)

levels = st.sampled_from((-1, 0, 1))
lines = st.tuples(*([levels] * 8))
frames = st.builds(Pam3Frame, lines, lines)

# the full column-symbol mapping, frozen independently of the code's table
EXPECTED_PAIRS = {
    0b000: (-1, -1),
    0b001: (-1, 0),
    0b010: (-1, 1),
    0b011: (0, -1),
    0b100: (0, 1),
    0b101: (1, -1),
    0b110: (1, 0),
    0b111: (1, 1),
}


def test_modulate_all_zero_word():
    frame = modulate(Word24(0x00, 0x00, 0x00))
    assert frame.line_a == (-1,) * 8
    assert frame.line_b == (-1,) * 8


def test_modulate_all_ones_word():
    frame = modulate(Word24(0xFF, 0xFF, 0xFF))
    assert frame.line_a == (1,) * 8
    assert frame.line_b == (1,) * 8


def test_modulate_column_001():
    frame = modulate(Word24(0x00, 0x00, 0xFF))
    assert frame.line_a == (-1,) * 8
    assert frame.line_b == (0,) * 8


@pytest.mark.parametrize("sym,pair", sorted(EXPECTED_PAIRS.items()))
def test_modulate_full_table(sym, pair):
    # a word whose every column is the same 3-bit symbol
    word = Word24(
        0xFF * ((sym >> 2) & 1),
        0xFF * ((sym >> 1) & 1),
        0xFF * (sym & 1),
    )
    frame = modulate(word)
    assert all(p == pair for p in frame.pairs())


def test_modulate_bit_order_msb_first():
    # only the MSB of X is set, so only column 0 sees symbol 100
    frame = modulate(Word24(0x80, 0x00, 0x00))
    assert (frame.line_a[0], frame.line_b[0]) == (0, 1)
    assert frame.line_a[1:] == (-1,) * 7
    assert frame.line_b[1:] == (-1,) * 7


def test_demodulate_uniform_frames():
    assert demodulate(Pam3Frame((-1,) * 8, (-1,) * 8)) == Word24(0, 0, 0)
    assert demodulate(Pam3Frame((1,) * 8, (1,) * 8)) == Word24(0xFF, 0xFF, 0xFF)


def test_demodulate_rejects_unused_pair():
    frame = Pam3Frame((-1, 0, -1, -1, -1, -1, -1, -1), (-1, 0, -1, -1, -1, -1, -1, -1))
    with pytest.raises(InvalidPair):
        demodulate(frame)


@given(words)
def test_modulate_roundtrip(word):
    assert demodulate(modulate(word)) == word


@given(st.lists(words, min_size=2, max_size=20, unique=True))
def test_modulate_injective(ws):
    assert len({modulate(w) for w in ws}) == len(ws)


def test_count_symbols_uniform():
    assert count_symbols(Pam3Frame((-1,) * 8, (-1,) * 8)) == SymbolCounts(16, 0, 0)


def test_count_symbols_hand_counted():
    frame = Pam3Frame((-1, 0, 1, -1, -1, 0, 1, 1), (0, 0, -1, 1, -1, -1, 1, 0))
    assert count_symbols(frame) == SymbolCounts(6, 5, 5)


def test_count_symbols_modulated():
    assert count_symbols(modulate(Word24(0x00, 0x00, 0xFF))) == SymbolCounts(8, 8, 0)


@given(frames)
def test_count_symbols_totals_sixteen(frame):
    c = count_symbols(frame)
    assert c.neg + c.zero + c.pos == 16
    assert c.neg >= 0 and c.zero >= 0 and c.pos >= 0


def test_random_word_symbol_fractions():
    # uniform random words hit each table pair equally, giving 6:4:6
    rng = np.random.default_rng(20240601)
    masks = bulk.modulate_block(rng.integers(0, 256, (50_000, 3), dtype=np.uint8))
    lv = bulk.levels_of_masks(masks)
    counts = bulk.count_block(lv).sum(axis=0)
    fractions = 100.0 * counts / counts.sum()
    assert abs(fractions[0] - 37.5) < 1.0
    assert abs(fractions[1] - 25.0) < 1.0
    assert abs(fractions[2] - 37.5) < 1.0


def test_word24_validation():
    with pytest.raises(ValueError):
        Word24(256, 0, 0)
    with pytest.raises(ValueError):
        Word24(0, -1, 0)
    with pytest.raises(TypeError):
        Word24(1.0, 0, 0)


def test_frame_validation():
    with pytest.raises(ValueError):
        Pam3Frame((-1,) * 7, (-1,) * 8)
    with pytest.raises(ValueError):
        Pam3Frame((-1,) * 8, (-1,) * 7 + (2,))


def test_frame_accepts_lists():
    frame = Pam3Frame([0] * 8, [1] * 8)
    assert frame.line_a == (0,) * 8
    assert isinstance(frame.line_a, tuple)
