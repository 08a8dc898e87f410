"""Chunked reading: the CLI reads traces and encoded text in blocks of
cli._READ_SIZE bytes through traceio's chunked readers, and every output
and error is the same for every read size."""

import io
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from pam3codec import bulk, cli, traceio
from pam3codec.encoders import Algorithm
from pam3codec.errors import ParseError
from pam3codec.traceio import (
    OP_FILTERS,
    TraceRecord,
    decode_encoded,
    format_encoded,
    frame_records,
    generate_random_trace,
    parse_text_trace,
)
from test_cli import _main_captured
from test_traceio import encoded_texts

GOLDEN = Path(__file__).resolve().parent / "golden"
ONE_CHUNK = 1 << 30
# golden/<alg>.enc is `pam3codec encode --format raw` of this payload
ENC_PAYLOAD = generate_random_trace(240, seed=2024)[0].payload + bytes(61)


ZERO_TRACE = (GOLDEN / "zero.trace").read_bytes()  # a comment line, then canonical lines
# (input bytes, trace format) of every input the properties read
INPUTS = {
    "raw": ((GOLDEN / "uniform.raw").read_bytes(), "raw"),
    "enc payload": (ENC_PAYLOAD, "raw"),
    "LF": (ZERO_TRACE, "text"),
    "CRLF": (ZERO_TRACE.replace(b"\n", b"\r\n"), "text"),
    "CR": (ZERO_TRACE.replace(b"\n", b"\r"), "text"),
    "LF, no final line end": (ZERO_TRACE.rstrip(b"\n"), "text"),
}
COMMANDS = [
    ["analyze", "--alg", alg, *flags]
    for alg in ("all", "none", "dbi", "mf", "sort")
    for flags in ([], ["--include-flag-power"])
] + [["distribution"]] + [["encode", "--alg", alg] for alg in ("none", "dbi", "mf", "sort")]


def _run(argv, data: bytes, size: int):
    """(exit code, output bytes or stderr text) of the CLI on data, read size bytes at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        source, dest = os.path.join(tmp, "in"), os.path.join(tmp, "out")
        with open(source, "wb") as f:
            f.write(data)
        err = io.StringIO()
        with mock.patch.object(cli, "_READ_SIZE", size), redirect_stderr(err):
            code = cli.main([*argv, "-i", source, "-o", dest])
        if code:
            return code, err.getvalue()
        with open(dest, "rb") as f:
            return code, f.read()


read_sizes = st.integers(1, 300)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COMMANDS), st.sampled_from(sorted(INPUTS)),
       st.sampled_from(OP_FILTERS), read_sizes)
@example(["analyze"], "CRLF", "read", 2)  # CR and LF in different reads
@example(["encode", "--alg", "sort"], "raw", "all", 1)  # every group spans reads
def test_output_does_not_depend_on_read_size(command, source, op_filter, size):
    data, fmt = INPUTS[source]
    argv = [*command, "--format", fmt, "--op-filter", op_filter]
    assert _run(argv, data, size) == _run(argv, data, ONE_CHUNK)


GOLDEN_REPORTS = {
    "uniform_all": ("raw", "analyze"),
    "uniform_sort": ("raw", "analyze", "--alg", "sort"),
    "uniform_flags": ("raw", "analyze", "--include-flag-power"),
    "uniform_dist": ("raw", "distribution"),
    "zero_all": ("text", "analyze"),
    "zero_sort_read": ("text", "analyze", "--alg", "sort", "--op-filter", "read"),
    "zero_flags_write": ("text", "analyze", "--include-flag-power", "--op-filter", "write"),
    "zero_mf_flags": ("text", "analyze", "--alg", "mf", "--include-flag-power"),
    "zero_dist_read": ("text", "distribution", "--op-filter", "read"),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(GOLDEN_REPORTS)), st.sampled_from(("csv", "json")),
       st.sampled_from(("LF", "CRLF", "CR")), read_sizes)
def test_chunked_reports_match_golden(case, report, line_end, size):
    fmt, *argv = GOLDEN_REPORTS[case]
    data = INPUTS[line_end if fmt == "text" else "raw"][0]
    golden = (GOLDEN / f"{case}.{report}").read_bytes()
    assert _run([*argv, "--format", fmt, "--report", report], data, size) == (0, golden)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("none", "dbi", "mf", "sort")), read_sizes)
def test_chunked_encode_matches_golden(alg, size):
    golden = (GOLDEN / f"{alg}.enc").read_bytes()
    assert _run(["encode", "--alg", alg, "--format", "raw"], ENC_PAYLOAD, size) == (0, golden)


ROW = b"A:++++++++ B:++++++++ F:0\n"  # a frame of payload ff ff ff for every algorithm


@settings(max_examples=150, deadline=None)
@given(encoded_texts(), read_sizes)
# a bad flag in an early chunk, a structural error in a later one
@example((b"# alg MF\n# pad 0\n" + ROW.replace(b"F:0", b"F:3") + ROW * 8 + b"A:+\n", False), 30)
# an unused pair in an early chunk, a bad flag in a later one
@example((b"# alg NONE\n# pad 0\n" + ROW.replace(b"+", b"0") + ROW * 8
          + ROW.replace(b"F:0", b"F:1"), False), 26)
# a non-ASCII byte after a structural error
@example((b"# alg SORT\n# pad 0\nA:+\n" + ROW * 8 + b"\xff", False), 40)
# the pad is stripped from a last chunk of one frame
@example((b"# alg DBI\n# pad 2\n" + ROW * 9, True), 26)
def test_decode_does_not_depend_on_read_size(case, size):
    data, _ = case
    try:
        expected = (0, decode_encoded(data))
    except ParseError as exc:
        expected = (2, f"pam3codec: error: {exc}\n")
    assert _run(["decode"], data, size) == expected


@pytest.mark.parametrize("size", [1, 7, ONE_CHUNK])
@pytest.mark.parametrize("alg", ["none", "dbi", "mf", "sort"])
def test_golden_encode_through_stdout(alg, size):
    golden = (GOLDEN / f"{alg}.enc").read_bytes()
    with mock.patch.object(cli, "_READ_SIZE", size):
        assert _main_captured(["encode", "--alg", alg, "--format", "raw"], ENC_PAYLOAD) == (
            0, golden, "")
        assert _main_captured(["decode"], golden) == (0, ENC_PAYLOAD, "")


def test_encode_of_no_records_is_the_header_alone():
    out = _run(["encode", "--alg", "mf", "--op-filter", "read"], b"W 0x0 00ff00\n", ONE_CHUNK)
    assert out == (0, b"# alg MF\n# pad 0\n")
    assert _run(["decode"], out[1], ONE_CHUNK) == (0, b"")


@pytest.mark.parametrize("size", [1, 300])  # 300: the lone last group is the whole last read
@pytest.mark.parametrize("remainder", [1, 2])
def test_pad_of_a_lone_last_group(size, remainder):
    payload = generate_random_trace(300 + remainder, seed=remainder)[0].payload
    stream = frame_records([TraceRecord("W", 0, payload)])
    encoded = format_encoded(Algorithm.SORT, *bulk.encode_block(stream.masks, Algorithm.SORT),
                             stream.pad_bytes)
    assert encoded.startswith(b"# alg SORT\n# pad %d\n" % (3 - remainder))
    assert _run(["encode", "--alg", "sort", "--format", "raw"], payload, size) == (0, encoded)
    assert _run(["decode"], encoded, size) == (0, payload)


GOOD_LINES = ["W 0x10 00ff00", "R 0x0 aabbccdd", "# a comment", "", "W 0x2 0011"]
BAD_LINES = ["W 0x10 abc", "X 0x1 00", "R zz 00", "R 0x1", "W 0x1 0g"]


@st.composite
def broken_traces(draw):
    """A text trace with LF, CRLF or CR line ends, perhaps a bad line and
    perhaps a non-ASCII byte, either of them first."""
    lines = draw(st.lists(st.sampled_from(GOOD_LINES), min_size=1, max_size=40))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    data = draw(st.sampled_from(("\n", "\r\n", "\r"))).join(lines).encode("ascii")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=100, deadline=None)
@given(broken_traces(), read_sizes)
@example(b"W 0x10 abc\nW 0x0 00\n" * 20 + b"W 0x0 00\xff\n", 16)  # non-ASCII after the error
@example(b"W 0x0 00\r\n" * 30 + b"W 0x0 0\r\n", 10)  # CRLF split by a read
def test_errors_name_the_line_of_the_whole_file(data, size):
    try:
        parse_text_trace(data)
    except ParseError as exc:
        expected = (2, f"pam3codec: error: {exc}\n")
    else:
        expected = _run(["analyze"], data, ONE_CHUNK)
    assert _run(["analyze"], data, size) == expected


def test_comment_header_sends_only_its_chunk_to_the_line_reader(monkeypatch):
    calls = []

    def counted(data):
        calls.append(data)
        return parse_text_trace(data)

    monkeypatch.setattr(traceio, "parse_text_trace", counted)
    size = 512
    assert len(ZERO_TRACE) > 20 * size and ZERO_TRACE.startswith(b"#")
    out = _run(["analyze"], ZERO_TRACE, size)
    assert len(calls) == 1 and calls[0].startswith(b"# ")
    assert out == _run(["analyze"], ZERO_TRACE, ONE_CHUNK) == (
        0, (GOLDEN / "zero_all.csv").read_bytes())


TRACED_PEAK_BOUND = 8e6  # bytes; a few chunks, whatever the size of the trace
# bytes; 2.8 and 3.9 MB when a chunk was folded at once and raw chunks were
# joined to the partial group of the chunk before
FOLD_PEAK_BOUND = 1e6
RAW_ANALYZE_PEAK_BOUND = 2.5e6


def _traced(run):
    """(run(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _big_raw_trace(path: Path) -> Path:
    np.random.default_rng(5).integers(0, 256, 12_000_000, dtype=np.uint8).tofile(path)
    return path


@pytest.mark.parametrize("command", [
    ["analyze", "--alg", "all"], ["distribution"], ["encode", "--alg", "sort"], ["decode"],
])
def test_memory_does_not_grow_with_the_trace(tmp_path, command):
    trace = _big_raw_trace(tmp_path / "big.raw")
    argv = [*command, "--format", "raw", "-i", str(trace)]
    if command == ["decode"]:  # the encoded text of the trace, 104 MB
        encoded = tmp_path / "big.enc"
        assert cli.main(["encode", "--alg", "sort", *argv[1:], "-o", str(encoded)]) == 0
        argv = ["decode", "-i", str(encoded)]
    out = tmp_path / "out"
    code, peak = _traced(lambda: cli.main([*argv, "-o", str(out)]))
    assert code == 0
    assert peak < TRACED_PEAK_BOUND, f"traced peak {peak / 1e6:.1f} MB"
    if command == ["decode"]:
        assert out.read_bytes() == trace.read_bytes()


def test_raw_analyze_holds_little_beyond_its_chunk(tmp_path):
    trace = _big_raw_trace(tmp_path / "big.raw")
    argv = ["analyze", "--alg", "all", "--format", "raw", "-i", str(trace),
            "-o", str(tmp_path / "out")]
    code, peak = _traced(lambda: cli.main(argv))
    assert code == 0
    assert peak < RAW_ANALYZE_PEAK_BOUND, f"traced peak {peak / 1e6:.2f} MB"


def test_folding_a_chunk_holds_one_block_of_temporaries():
    words = np.random.default_rng(6).integers(0, 256, (cli._READ_SIZE // 3, 3), dtype=np.uint8)
    masks = bulk.modulate_block(words)  # the frames of one raw read
    stats = bulk.StreamStats()
    _, peak = _traced(lambda: stats.update(masks))
    assert stats.frame_count == 87_381
    assert peak < FOLD_PEAK_BOUND, f"traced peak {peak / 1e6:.2f} MB"


class _RecordedReads(io.BytesIO):
    """A binary file that records the size of each read."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_raw_trace_is_read_in_whole_groups(size):
    assert len(ENC_PAYLOAD) % 3  # a partial last group
    whole = list(traceio.read_trace(io.BytesIO(ENC_PAYLOAD), "raw", "all", ONE_CHUNK))
    file = _RecordedReads(ENC_PAYLOAD)
    streams = list(traceio.read_trace(file, "raw", "all", size))
    assert set(file.sizes) == {max(size - size % 3, 3)}
    assert np.array_equal(np.concatenate([s.masks for s in streams], axis=1),
                          np.concatenate([s.masks for s in whole], axis=1))
    assert [s.pad_bytes for s in streams] == [0] * (len(streams) - 1) + [whole[-1].pad_bytes]
