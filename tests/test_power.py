import pytest
from hypothesis import given
import hypothesis.strategies as st

from pam3codec.core import Pam3Frame
from pam3codec.errors import EmptyStream, ZeroBaseline
from pam3codec.power import (
    TERM_WEIGHT_ZERO,
    line_switching_steps,
    switching_power,
    termination,
    termination_power,
    termination_ratio,
)

levels = st.sampled_from((-1, 0, 1))
lines = st.tuples(*([levels] * 8))
frames = st.builds(Pam3Frame, lines, lines)

ALL_NEG = Pam3Frame((-1,) * 8, (-1,) * 8)
ALL_POS = Pam3Frame((1,) * 8, (1,) * 8)
FRAME_655 = Pam3Frame((-1, 0, 1, -1, -1, 0, 1, 1), (0, 0, -1, 1, -1, -1, 1, 0))


def test_model_weights():
    assert termination((1, 0, 0)) == 0.01
    assert termination((0, 1, 0)) == 0.005
    assert termination((0, 0, 1)) == 0.0
    assert termination((1, 0, 0)) == 2 * termination((0, 1, 0))


def test_termination_power_examples():
    assert termination_power(ALL_NEG) == pytest.approx(0.16)
    assert termination_power(ALL_POS) == 0.0
    assert termination_power(FRAME_655) == pytest.approx(0.085)


@given(frames)
def test_termination_power_non_negative(frame):
    p = termination_power(frame)
    assert p >= 0.0
    zero_cost = all(s == 1 for s in frame.line_a + frame.line_b)
    assert (p == 0.0) == zero_cost


def test_termination_power_depends_only_on_counts():
    # same multiset of symbols arranged differently
    a = Pam3Frame((-1, -1, 0, 0, 1, 1, 1, 1), (0, 0, 0, 1, 1, 1, -1, -1))
    b = Pam3Frame((1, 1, 1, 1, 0, 0, -1, -1), (-1, -1, 1, 1, 1, 0, 0, 0))
    assert termination_power(a) == termination_power(b)


def test_termination_power_monotone_steps():
    # swapping one -1 for 0, or one 0 for +1, saves exactly vdd^2/200
    f_neg = Pam3Frame((-1,) + (1,) * 7, (1,) * 8)
    f_zero = Pam3Frame((0,) + (1,) * 7, (1,) * 8)
    f_pos = ALL_POS
    step = TERM_WEIGHT_ZERO
    assert termination_power(f_neg) - termination_power(f_zero) == pytest.approx(step)
    assert termination_power(f_zero) - termination_power(f_pos) == pytest.approx(step)


def test_termination_ratio_examples():
    assert termination_ratio(0.075, 0.085) == pytest.approx(100 * 0.075 / 0.085)
    assert termination_ratio(0.42, 0.42) == 100.0
    assert termination_ratio(0.0, 0.16) == 0.0


def test_termination_ratio_zero_baseline():
    with pytest.raises(ZeroBaseline):
        termination_ratio(0.0, 0.0)


def test_line_switching_steps_examples():
    assert line_switching_steps([-1, 1]) == 4
    assert line_switching_steps([-1, 0, 1]) == 2
    assert line_switching_steps([1] * 10) == 0
    assert line_switching_steps([]) == 0


def test_switching_power_constant_stream():
    assert switching_power([ALL_POS] * 5) == 0.0


def test_switching_power_two_frames():
    # line A flips -1 to +1 once at the frame boundary, line B is constant
    first = Pam3Frame((-1,) * 8, (1,) * 8)
    second = Pam3Frame((1,) * 8, (1,) * 8)
    assert switching_power([first, second]) == 4.0


def test_switching_power_within_frame():
    frame = Pam3Frame((-1, 0, 1, 1, 1, 1, 1, 1), (1,) * 8)
    assert switching_power([frame]) == 2.0


def test_switching_power_empty_stream():
    with pytest.raises(EmptyStream):
        switching_power([])


@given(st.lists(frames, min_size=1, max_size=6))
def test_switching_power_time_reversal(stream):
    reversed_stream = [
        Pam3Frame(f.line_a[::-1], f.line_b[::-1]) for f in reversed(stream)
    ]
    assert switching_power(stream) == switching_power(reversed_stream)

