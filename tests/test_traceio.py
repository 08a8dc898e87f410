import io
import math
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from pam3codec import bulk, traceio
from pam3codec.core import Pam3Frame, Word24, modulate
from pam3codec.encoders import MAX_FLAG, Algorithm
from pam3codec.errors import EmptyInput, InvalidFlag, ParseError
from pam3codec.traceio import (
    OP_FILTERS,
    FrameStream,
    TraceRecord,
    format_encoded_header,
    format_encoded_rows,
    format_text_trace,
    frame_records,
    generate_random_trace,
    parse_raw_trace,
    parse_text_columns,
    parse_text_trace,
)

records_strategy = st.builds(
    TraceRecord,
    st.sampled_from(("R", "W")),
    st.integers(0, (1 << 64) - 1),
    st.binary(min_size=1, max_size=64),
)


# ------------------------------------------------------------ parsing

def test_parse_text_trace_write():
    (rec,) = parse_text_trace("W 0x1f00 00ff00\n")
    assert rec == TraceRecord("W", 0x1F00, bytes([0x00, 0xFF, 0x00]))


def test_parse_text_trace_read():
    (rec,) = parse_text_trace("R 0x0 aabbccdd\n")
    assert rec.op == "R"
    assert rec.address == 0
    assert len(rec.payload) == 4


def test_parse_text_trace_skips_comments_and_blanks():
    text = "# header\n\nW 0x10 beef\n   \n# tail\nR 0x20 AA\n"
    recs = parse_text_trace(text)
    assert [r.op for r in recs] == ["W", "R"]
    assert recs[1].payload == b"\xaa"


def test_parse_text_trace_odd_payload():
    with pytest.raises(ParseError) as err:
        parse_text_trace("W 0x10 abc\n")
    assert err.value.line_number == 1


def test_parse_text_trace_error_line_numbers():
    text = "W 0x10 beef\nX 0x10 beef\n"
    with pytest.raises(ParseError) as err:
        parse_text_trace(text)
    assert err.value.line_number == 2


@pytest.mark.parametrize(
    "line",
    [
        "W 0x10",                    # missing payload
        "W 0x10 beef extra",         # too many fields
        "w 0x10 beef",               # lowercase op
        "W 0xZZ beef",               # non-hex address
        "W -0x10 beef",              # negative address
        "W 0x10 beeg",               # non-hex payload
        "W 0x10000000000000000 be",  # address over 64 bits
    ],
)
def test_parse_text_trace_rejects(line):
    with pytest.raises(ParseError):
        parse_text_trace(line + "\n")


def test_parse_text_trace_accepts_file_object():
    recs = parse_text_trace(io.StringIO("W 0x1 00\n"))
    assert len(recs) == 1


def test_parse_text_trace_bytes():
    recs = parse_text_trace(b"W 0x1 00\r\nR 0x2 ff\rW 0x3 aa\n")
    assert [(r.op, r.address, r.payload) for r in recs] == [
        ("W", 1, b"\x00"), ("R", 2, b"\xff"), ("W", 3, b"\xaa")
    ]
    with pytest.raises(ParseError) as err:
        parse_text_trace(b"# caf\xc3\xa9\nW 0x0 00\n")
    assert err.value.line_number == 1
    with pytest.raises(ParseError, match="line 3: non-ASCII byte"):
        parse_text_trace(b"W 0x0 00\r\nW 0x1 00\rW 0x2 00\xff\n")


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_parse_text_trace_str_splits_lines_as_bytes(line_end):
    text = line_end.join(["# comment", "W 0x1 00", "", "R 0x2 ff", "W 0x3 aabb"]) + line_end
    assert parse_text_trace(text) == parse_text_trace(text.encode("ascii"))
    assert len(parse_text_trace(text)) == 3
    bad = text + "W 0x4 0" + line_end
    line_numbers = []
    for source in (bad, bad.encode("ascii")):
        with pytest.raises(ParseError) as err:
            parse_text_trace(source)
        line_numbers.append(err.value.line_number)
    assert line_numbers == [6, 6]


@given(st.lists(records_strategy, min_size=0, max_size=12))
def test_text_trace_roundtrip(records):
    assert parse_text_trace(format_text_trace(records)) == records


@st.composite
def text_traces(draw):
    """Canonical trace text, then up to two edits of its lines."""
    records = draw(st.lists(records_strategy, min_size=0, max_size=6))
    lines = format_text_trace(records).encode("ascii").split(b"\n")[:-1]
    edits = draw(st.integers(0, 2))
    for _ in range(edits):
        kind = draw(st.sampled_from(
            ("flip", "op", "address", "payload", "space", "insert", "crlf", "cr")))
        if kind == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from((
                b"", b"   ", b"# comment", b"#R 0x1 00", b"\t", b"R 0x1 00"))))
            continue
        row = draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split(b" ")
        if kind == "flip" and lines[row]:
            col = draw(st.integers(0, len(lines[row]) - 1))
            byte = draw(st.sampled_from((b"", b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x00",
                                         b"R", b"W", b"x", b"X", b"0", b"A", b"f", b"g", b"#",
                                         b"\x80")))
            lines[row] = lines[row][:col] + byte + lines[row][col + 1:]
        elif kind == "op" and len(fields) == 3:
            fields[0] = draw(st.sampled_from((b"X", b"r", b"w", b"RW", b"x", b"0", b"")))
            lines[row] = b" ".join(fields)
        elif kind == "address" and len(fields) == 3:
            digits = fields[1][2:]
            fields[1] = draw(st.sampled_from((
                b"0X" + digits, digits, b"0x", b"x" + digits, b"00x" + digits,
                b"0x" + b"0" * 16 + digits, b"0x1" + b"0" * 16, b"0x" + b"f" * 16)))
            lines[row] = b" ".join(fields)
        elif kind == "payload" and len(fields) == 3:
            fields[2] = draw(st.sampled_from((
                fields[2][:-1], fields[2] + b"R", b"W" + fields[2][1:], b"0x" + fields[2],
                fields[2][:1] + b"x" + fields[2][2:], b"")))
            lines[row] = b" ".join(fields)
        elif kind == "space":
            gap = draw(st.sampled_from((b"  ", b"\t", b" \x0b", b"\x0c", b"\x1c")))
            at = draw(st.sampled_from(("start", "end", "sep")))
            if at == "start":
                lines[row] = gap + lines[row]
            elif at == "end":
                lines[row] += gap
            else:
                lines[row] = lines[row].replace(b" ", gap, 1)
        elif kind == "crlf":
            lines[row] += b"\r"
        elif kind == "cr" and row + 1 < len(lines):
            lines[row:row + 2] = [lines[row] + b"\r" + lines[row + 1]]
    newline = b"" if draw(st.integers(0, 3)) == 0 else b"\n"
    canonical = edits == 0 and newline == b"\n" and bool(records)
    return b"\n".join(lines) + newline, canonical


def _kept(records, op_filter):
    return [r for r in records if op_filter == "all" or (r.op == "R") == (op_filter == "read")]


@given(text_traces())
# each example is one the bulk reader must leave to the line parser; a
# reader that skips the check named in the comment accepts it
@example((b"R 0x1\n00 W 0x2 11\n", False))  # separator order
@example((b"R0 0x1 00\n", False))  # op length
@example((b"x 0x1 00\n", False))  # op byte
@example((b"R 1x1 00\n", False))  # address 0
@example((b"W 00x1 00\n", False))  # address x
@example((b"R 0x 00\n", False))  # address digits
@example((b"R 0x10000000000000000 00\n", False))  # address over 16 digits
@example((b"R 0x1 \n", False))  # empty payload
@example((b"R 0x1 abc\nW 0x2 abc\n", False))  # odd payload
@example((b"R 0x1g 00\n", False))  # charset
@example((b"R 0x1 00\n00", False))  # final newline
@example((b"R 0x1 00\r\nW 0x2 11\n", False))
@example((b"R 0x00000000000000001 00\n", False))
@example((b"W 0xABCDEF 00Ff\nR 0x0 aa\n", True))
def test_text_columns_match_line_parser(case):
    data, canonical = case
    reference = _read(parse_text_trace, data)
    for op_filter in OP_FILTERS:
        fast = parse_text_columns(data, op_filter)
        if canonical:
            assert fast is not None
        if fast is not None:
            payload, lines = fast
            assert isinstance(reference, list) and lines == len(reference)
            assert payload.dtype == np.uint8
            assert payload.tobytes() == b"".join(r.payload for r in _kept(reference, op_filter))


def test_read_trace_rejects_unknown_format_and_filter():
    trace = io.BytesIO(b"W 0x0 00\n")
    with pytest.raises(ValueError, match="fmt"):
        traceio.read_trace(trace, "csv", "all", 16)
    with pytest.raises(ValueError, match="op_filter"):
        traceio.read_trace(trace, "text", "reads", 16)
    assert trace.tell() == 0


def test_parse_text_columns_rejects_unknown_filter():
    for data in (b"R 0x1 00\n", b"# not canonical\n"):
        with pytest.raises(ValueError, match="op_filter"):
            parse_text_columns(data, "reads")


def test_parse_raw_trace():
    (rec,) = parse_raw_trace(b"\x01\x02\x03\x04\x05\x06")
    assert rec.op == "W"
    assert rec.address == 0
    assert rec.payload == b"\x01\x02\x03\x04\x05\x06"


def test_parse_raw_trace_file_object():
    (rec,) = parse_raw_trace(io.BytesIO(b"\xab" * 5000))
    assert rec.payload == b"\xab" * 5000


def test_parse_raw_trace_file_object_held_once():
    size = 8 << 20
    source = io.BytesIO(bytes(range(256)) * (size // 256))
    tracemalloc.start()
    try:
        (rec,) = parse_raw_trace(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rec.payload) == size
    assert peak < 1.2 * size


def test_parse_raw_trace_empty():
    with pytest.raises(EmptyInput):
        parse_raw_trace(b"")


def test_trace_record_validation():
    with pytest.raises(ValueError):
        TraceRecord("X", 0, b"\x00")
    with pytest.raises(ValueError):
        TraceRecord("W", -1, b"\x00")
    with pytest.raises(ValueError):
        TraceRecord("W", 1 << 64, b"\x00")
    with pytest.raises(TypeError):
        TraceRecord("W", 1.0, b"x")
    with pytest.raises(ValueError):
        TraceRecord("W", 0, b"")
    with pytest.raises(TypeError):
        TraceRecord("W", 0, "ab")  # text, not bytes
    expected = _frames(frame_records([TraceRecord("W", 0, b"ab")]))
    for payload in (bytearray(b"ab"), memoryview(b"ab")):
        assert _frames(frame_records([TraceRecord("W", 0, payload)])) == expected


# ------------------------------------------------------------ framing

def _frames(stream: FrameStream) -> list[Pam3Frame]:
    return [Pam3Frame(*row.tolist()) for row in bulk.levels_of_masks(stream.masks)]


def _payload(stream: FrameStream) -> bytes:
    """The payload a stream was framed from, its padding stripped."""
    words = bulk.demodulate_block(stream.masks).reshape(-1)
    return words[: len(words) - stream.pad_bytes].tobytes()


def test_frame_records_single_zero_group():
    stream = frame_records([TraceRecord("W", 0, b"\x00\x00\x00")])
    assert len(stream) == 1
    assert stream.pad_bytes == 0
    assert all(pair == (-1, -1) for pair in _frames(stream)[0].pairs())


def test_frame_records_pads_partial_group():
    stream = frame_records([TraceRecord("W", 0, b"\x01\x02\x03\x04")])
    assert len(stream) == 2
    assert stream.pad_bytes == 2


def test_frame_records_column_001():
    stream = frame_records([TraceRecord("W", 0, b"\x00\x00\xff")])
    (frame,) = _frames(stream)
    assert frame.line_a == (-1,) * 8
    assert frame.line_b == (0,) * 8


def test_frame_records_empty():
    stream = frame_records([])
    assert len(stream) == 0
    assert stream.pad_bytes == 0
    assert _payload(stream) == b""


def test_frame_records_concatenates_in_order():
    recs = [TraceRecord("W", 0, b"\x11\x22"), TraceRecord("R", 4, b"\x33\x44")]
    stream = frame_records(recs)
    assert _frames(stream)[0] == modulate(Word24(0x11, 0x22, 0x33))
    assert stream.pad_bytes == 2


@given(st.binary(min_size=1, max_size=400))
def test_frame_records_payload_roundtrip(payload):
    stream = frame_records([TraceRecord("W", 0, payload)])
    assert _payload(stream) == payload
    assert len(stream) == math.ceil(len(payload) / 3)
    assert stream.masks.shape == (2, len(stream)) and stream.masks.dtype == np.uint16
    assert not stream.masks.flags.writeable
    padded = payload + bytes(stream.pad_bytes)
    assert _frames(stream) == [modulate(Word24(*padded[i:i + 3]))
                               for i in range(0, len(padded), 3)]


def test_frame_stream_validation():
    masks = np.zeros((2, 3), dtype=np.uint16)
    for bad in (
        np.zeros((2, 2, 8), dtype=np.int8),  # levels, not masks
        masks.astype(np.uint8),
        masks.astype(np.int32),
        np.zeros((3, 3), dtype=np.uint16),
        np.zeros((2, 3, 1), dtype=np.uint16),
        np.zeros((3, 2), dtype=np.uint16).T,  # not C-contiguous
        masks.tolist(),
    ):
        with pytest.raises(ValueError, match="C-contiguous"):
            FrameStream(bad, 0)
    both = masks.copy()
    both[:, 1] = 1  # one position of frame 1 in both masks
    with pytest.raises(ValueError, match="both"):
        FrameStream(both, 0)
    with pytest.raises(ValueError):
        FrameStream(masks, 3)
    with pytest.raises(TypeError):
        FrameStream(masks, 1.0)
    pad_bytes = FrameStream(masks, np.int64(1)).pad_bytes
    assert type(pad_bytes) is int and pad_bytes == 1


def test_frame_stream_keeps_caller_masks():
    masks = bulk.masks_of_levels(np.zeros((2, 2, 8), dtype=np.int8))
    stream = FrameStream(masks, 0)
    assert stream.masks is masks and not masks.flags.writeable
    with pytest.raises(ValueError):
        masks[1, 1] = 1


def test_text_readers_keep_the_filtered_records():
    records = [TraceRecord("W", 0, b"\x11\x22"), TraceRecord("R", 4, b"\x33\x44")]
    text = format_text_trace(records).encode("ascii")
    for op_filter in OP_FILTERS:
        expected = frame_records(_kept(records, op_filter))
        for data in (text, b"#\n" + text):  # the bulk reader, then the line reader
            streams = list(traceio.read_trace(io.BytesIO(data), "text", op_filter, 1 << 10))
            assert np.array_equal(np.concatenate([s.masks for s in streams], axis=1),
                                  expected.masks)
            assert streams[-1].pad_bytes == expected.pad_bytes


# ------------------------------------------------------ encoded text

GOLDEN = Path(__file__).resolve().parent / "golden"
# golden/<alg>.enc is `pam3codec encode --format raw` of this payload as
# written by the line-by-line writer that format_encoded_rows replaced
GOLDEN_PAYLOAD = generate_random_trace(240, seed=2024)[0].payload + bytes(61)


def encoded_text(alg: Algorithm, stream: FrameStream) -> bytes:
    """The encoded frame text write_encoded writes of one stream."""
    out = io.BytesIO()
    traceio.write_encoded(out, alg, [stream])
    return out.getvalue()


def decoded(data: bytes) -> bytes:
    """The payload read_encoded reads of encoded frame text in one chunk."""
    return b"".join(traceio.read_encoded(io.BytesIO(data), len(data) + 1))


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_format_encoded_golden(algorithm):
    stream = frame_records([TraceRecord("W", 0, GOLDEN_PAYLOAD)])
    golden = (GOLDEN / f"{algorithm.value.lower()}.enc").read_bytes()
    assert encoded_text(algorithm, stream) == golden
    assert decoded(golden) == GOLDEN_PAYLOAD


def test_format_encoded_rejects_flags_not_per_frame():
    one_frame = bulk.modulate_block(np.zeros((1, 3), np.uint8))
    two_frames = bulk.modulate_block(np.zeros((2, 3), np.uint8))
    for masks, flags in ((one_frame, [0, 1, 2]), (two_frames, [0]), (two_frames, [[0, 1]]),
                         (two_frames, 0)):
        with pytest.raises(ValueError, match="one entry per frame"):
            format_encoded_rows(Algorithm.SORT, masks, flags)


def test_format_encoded_rejects_out_of_range_flag():
    with pytest.raises(ValueError):
        format_encoded_rows(Algorithm.MF, bulk.masks_of_levels(np.ones((1, 2, 8), np.int8)),
                            np.array([3]))


# The encoded-text writer and the decoder take flags through one check:
# SORT flags of one frame, each with the error both raise.
FLAG_CHECKERS = {
    "format_encoded_rows": lambda masks, flags: format_encoded_rows(Algorithm.SORT, masks, flags),
    "decode_block": lambda masks, flags: bulk.decode_block(masks, flags, Algorithm.SORT),
}


@pytest.mark.parametrize("checker", FLAG_CHECKERS)
@pytest.mark.parametrize("flags, error", [
    (np.array([261]), InvalidFlag),  # a uint8 cast would make it 5
    (np.array([-251]), InvalidFlag),  # so would this
    (np.array([2.9]), ValueError),  # and this 2
    (np.array([True]), ValueError),
    ([300], InvalidFlag),  # no uint8 holds it
    ([-1], InvalidFlag),
    ([6], InvalidFlag),
], ids=["261", "-251", "2.9", "True", "list-300", "list-minus-1", "list-6"])
def test_writer_and_decoder_reject_the_same_flags(checker, flags, error):
    one_frame = bulk.modulate_block(np.zeros((1, 3), np.uint8))
    with pytest.raises(error) as exc:
        FLAG_CHECKERS[checker](one_frame, flags)
    assert isinstance(exc.value, ValueError)


def test_flag_check_passes_largest_flag_and_no_frames():
    one_frame, no_frames = (bulk.modulate_block(np.zeros((n, 3), np.uint8)) for n in (1, 0))
    assert format_encoded_rows(Algorithm.SORT, one_frame, [5]).endswith(b" F:5\n")
    assert format_encoded_rows(Algorithm.SORT, no_frames, []) == b""
    assert bulk.decode_block(no_frames, [], Algorithm.SORT).shape == (2, 0)


@st.composite
def encoded_texts(draw):
    """Canonical encoded text, then up to three edits of its lines."""
    alg = draw(st.sampled_from(list(Algorithm)))
    n = draw(st.integers(0, 5))
    levels = np.array(draw(st.lists(st.integers(-1, 1), min_size=16 * n, max_size=16 * n)),
                      dtype=np.int8).reshape(n, 2, 8)
    flags = np.array(draw(st.lists(st.integers(0, MAX_FLAG[alg]), min_size=n, max_size=n)),
                     dtype=np.uint8)
    pad = draw(st.integers(0, 2 if n else 0))
    rows = format_encoded_rows(alg, bulk.masks_of_levels(levels), flags)
    lines = (format_encoded_header(alg, pad) + rows).split(b"\n")[:-1]
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        kind = draw(st.sampled_from(("flip", "insert", "crlf", "flag")))
        row = draw(st.integers(0, len(lines) - (kind != "insert")))
        if kind == "insert":
            lines.insert(row, draw(st.sampled_from((
                b"", b"   ", b"# comment", b"# alg NONE", b"# pad 1", b"# alg SORT x",
                b"A:++++++++ B:++++++++ F:0"))))
        elif kind == "crlf":
            lines[row] += b"\r"
        elif kind == "flag" and b"F:" in lines[row]:
            flag = draw(st.sampled_from((b"05", b"256", b"6", b"7", b"00001", b"")))
            lines[row] = lines[row][: lines[row].index(b"F:") + 2] + flag
        elif kind == "flip" and lines[row]:
            col = draw(st.integers(0, len(lines[row]) - 1))
            byte = draw(st.sampled_from((b"", b" ", b"#", b"A", b":", b"+", b"-", b"0",
                                         b"2", b"\x80", b"\t")))
            lines[row] = lines[row][:col] + byte + lines[row][col + 1:]
    newline = draw(st.sampled_from((b"\n", b"")))
    return b"\n".join(lines) + newline, edits == 0 and newline == b"\n"


def _read(reader, data):
    try:
        return reader(data)
    except ParseError as exc:
        return exc.line_number


# The # lines that open a chunk, which _read_text gives the line reader.
_OPENING_HASH_LINES = re.compile(rb"(?:#[^\n]*\n)*(?:#[^\n]*\Z)?")


def _one_chunk(read):
    """(alg, pad, masks, flags, frame_lines, lines) of one way of
    _EncodedReader to read a chunk, on data as one chunk, or None if it
    does not read it. rows reads the LF form of data after lines has read
    the # lines that open it, as _read_text gives them."""
    def reader(data):
        traceio._check_ascii(data)
        encoded = traceio._EncodedReader()
        head = b""
        if read is traceio._EncodedReader.rows:
            data = traceio._lf(data)
            head = data[: _OPENING_HASH_LINES.match(data).end()]
            encoded.lines(head, 0)
        result = read(encoded, data[len(head):], head.count(b"\n"))
        if result is None:
            return None
        frames, lines = result
        return (*encoded.end(), *frames, head.count(b"\n") + lines)
    return reader


def _dispatched(data):
    """_one_chunk's tuple of data read whole through _read_text, which
    picks rows or lines for each piece of a chunk, as read_encoded reads it."""
    encoded = traceio._EncodedReader()
    chunks = traceio._read_text(io.BytesIO(data), len(data) + 1, encoded.rows, encoded.lines)
    masks, flags, frame_lines = zip(*chunks)  # two chunks if data ends with a CR
    return (*encoded.end(), np.concatenate(masks, axis=1), np.concatenate(flags),
            [line for lines in frame_lines for line in lines])


def _same(a, b):
    if isinstance(a, int) or isinstance(b, int):
        return a == b
    alg, pad, masks, flags = a[:4]
    return (alg, pad) == b[:2] and masks.dtype == b[2].dtype and flags.dtype == b[3].dtype \
        and np.array_equal(masks, b[2]) and np.array_equal(flags, b[3])


@given(encoded_texts())
@example((b"# alg NONE\n# pad 0\nA:++x+++++ B:++++++++ F:0\n", False))
@example((b"# alg NONE\n# pad 0\nA:++++++++_B:++++++++ F:0\n", False))  # a fixed column
@example((b"# alg SORT\n# pad 0\nA:++++++++ B:-+++++++ F:0\n", True))
@example((b"# alg MF\n# pad 0\nA:++++++++ B:++++++++ F:3\n", False))
@example((b"# alg DBI\n# pad 1\n", False))
def test_parse_encoded_matches_line_parser(case):
    data, canonical = case
    reference = _read(_one_chunk(traceio._EncodedReader.lines), data)
    fast = _read(_one_chunk(traceio._EncodedReader.rows), data)
    if canonical:
        assert isinstance(fast, tuple)
    if fast is not None:
        lf_reference = _read(_one_chunk(traceio._EncodedReader.lines), traceio._lf(data))
        assert _same(fast, lf_reference)
        if isinstance(fast, tuple):
            assert list(fast[4]) == lf_reference[4]  # the input line of every frame
            assert fast[5] == lf_reference[5]  # the lines of the chunk
    dispatched = _read(_dispatched, data)
    assert _same(dispatched, reference)
    if isinstance(reference, tuple):
        assert dispatched[4] == reference[4]


def _header_lines_only(monkeypatch):
    """Make _EncodedReader.lines fail on a chunk with a line not starting
    with #, so that every frame line must be read in bulk, and once."""
    read = traceio._EncodedReader.lines

    def lines(self, chunk, lines_before):
        if not all(line.startswith(b"#") for line in chunk.splitlines()):
            pytest.fail(f"a frame line re-read: {chunk!r}")
        return read(self, chunk, lines_before)
    monkeypatch.setattr(traceio._EncodedReader, "lines", lines)


@pytest.mark.parametrize("bad_frame, line_end", [
    pytest.param(bad_frame, line_end, id=f"{bad_frame}{name}")
    for name, line_end in (("", b"\n"), ("-CRLF", b"\r\n"), ("-CR", b"\r"))
    for bad_frame in (0, 3, 6)
])
def test_decode_names_line_of_unused_pair_from_one_read(monkeypatch, bad_frame, line_end):
    masks = bulk.modulate_block(np.arange(21, dtype=np.uint8).reshape(7, 3))
    rows = format_encoded_rows(Algorithm.NONE, masks, np.zeros(7, np.uint8))
    data = bytearray(format_encoded_header(Algorithm.NONE, 0) + rows)
    row = len(b"# alg NONE\n# pad 0\n") + 26 * bad_frame
    data[row + 2] = data[row + 13] = ord("0")  # column 0 of lines A and B
    _header_lines_only(monkeypatch)
    with pytest.raises(ParseError, match=rf"^line {bad_frame + 3}: frame {bad_frame}, column 0 "):
        decoded(bytes(data).replace(b"\n", line_end))


def seven_frames(alg: Algorithm, pad: int = 0) -> bytes:
    """The encoded frame text write_encoded writes of 7 frames."""
    masks = bulk.modulate_block(np.arange(21, dtype=np.uint8).reshape(7, 3))
    return encoded_text(alg, FrameStream(masks, pad))


@pytest.mark.parametrize("alg, flag", [(Algorithm.MF, b"3"), (Algorithm.SORT, b"6")])
@pytest.mark.parametrize("bad_frame", [1, 5], ids=["header-chunk", "later-chunk"])
@pytest.mark.parametrize("unused_pair", [False, True], ids=["flag-only", "after-unused-pair"])
def test_decode_names_line_of_out_of_range_flag_from_one_read(
        monkeypatch, alg, flag, bad_frame, unused_pair):
    data = bytearray(seven_frames(alg))
    header = len(format_encoded_header(alg, 0))
    data[header + 26 * bad_frame + 24] = flag[0]
    if unused_pair:  # frame 0 decodes to the unused pair, but the flag error ranks first
        data[header + 2] = data[header + 13] = data[header + 24] = ord("0")
    _header_lines_only(monkeypatch)
    message = rf"^line {bad_frame + 3}: {alg.value} flag must be 0\.\.{MAX_FLAG[alg]}$"
    with pytest.raises(ParseError, match=message):
        # the header chunk holds frames 0 and 1, each later chunk two more
        b"".join(traceio.read_encoded(io.BytesIO(bytes(data)), header + 2 * 26))


@pytest.mark.parametrize("alg", list(Algorithm))
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_rows_reads_every_header_the_writer_writes(monkeypatch, alg, pad):
    """The frame rows after each of the 12 headers the writer writes are
    read in bulk: the line reader takes the headers and nothing else."""
    data = seven_frames(alg, pad)
    fast = _one_chunk(traceio._EncodedReader.rows)(data)
    assert isinstance(fast, tuple) and fast[:2] == (alg, pad)
    assert _same(fast, _one_chunk(traceio._EncodedReader.lines)(data))
    _header_lines_only(monkeypatch)
    assert _same(_dispatched(data), fast)


@pytest.mark.parametrize("header", [
    b"# alg sort\n# pad 0\n",
    b"# alg SORT \n# pad 0\n",
    b"# alg SORT\n# pad 3\n",
    b"# pad 0\n# alg SORT\n",
    b"# alg SORT\r\n# pad 0\r\n",
], ids=["lower-case", "trailing-space", "pad-3", "swapped", "crlf"])
def test_near_miss_headers_go_to_the_line_reader(header):
    data = header + seven_frames(Algorithm.SORT)[len(format_encoded_header(Algorithm.SORT, 0)):]
    assert traceio._EncodedReader().rows(data, 0) is None
    reference = _read(_one_chunk(traceio._EncodedReader.lines), data)
    assert _same(_read(_dispatched, data), reference)


@pytest.mark.parametrize("size", [19, 1 << 20], ids=["small-reads", "one-chunk"])
@pytest.mark.parametrize("fmt", ["trace", "encoded"])
def test_non_ascii_byte_after_a_bad_line_names_its_line(fmt, size):
    """A non-ASCII byte is the error raised, on its line of the whole file,
    though a bad line comes first, in its chunk or in an earlier one."""
    if fmt == "trace":
        lines = [b"R 0x10 00ff"] * 9 + [b"W 0x10 0\x80"]
        lines[3] = b"X 0x10 00ff"
        read = partial(traceio.read_trace, fmt="text", op_filter="all", size=size)
    else:
        lines = seven_frames(Algorithm.NONE).split(b"\n")[:9] + [b"A:\x80"]
        lines[3] = b"A:++++ B:++++++++ F:0"
        read = partial(traceio.read_encoded, size=size)
    with pytest.raises(ParseError, match=r"^line 10: non-ASCII byte$"):
        list(read(io.BytesIO(b"\n".join(lines) + b"\n")))


# ------------------------------------------------------- random traces

def test_generate_random_trace_deterministic():
    a = generate_random_trace(3, seed=99)
    b = generate_random_trace(3, seed=99)
    assert a == b
    assert generate_random_trace(3, seed=100) != a


def test_generate_random_trace_single_write():
    (rec,) = generate_random_trace(10, seed=0)
    assert rec.op == "W"
    assert rec.address == 0
    assert len(rec.payload) == 10


def test_generate_random_trace_one_byte_pads_two():
    stream = frame_records(generate_random_trace(1, seed=5))
    assert len(stream) == 1
    assert stream.pad_bytes == 2


def test_generate_random_trace_distribution():
    stream = frame_records(generate_random_trace(30_000, seed=7))
    counts = bulk.count_block(bulk.levels_of_masks(stream.masks)).sum(axis=0)
    fractions = 100.0 * counts / counts.sum()
    assert abs(fractions[0] - 37.5) < 1.0
    assert abs(fractions[1] - 25.0) < 1.0
    assert abs(fractions[2] - 37.5) < 1.0


def test_generate_random_trace_validation():
    with pytest.raises(ValueError):
        generate_random_trace(0, seed=1)
