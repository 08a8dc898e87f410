import ast
import errno
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import pam3codec
from pam3codec import cli, traceio
from pam3codec.cli import main
from pam3codec.encoders import Algorithm
from pam3codec.errors import ParseError
from pam3codec.traceio import TraceRecord, format_text_trace, frame_records
from test_traceio import decoded, encoded_text, generate_random_trace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ZERO_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "zero.trace")


def _run(*argv) -> int:
    return main(list(argv))


def _run_reading(size: int, *argv) -> int:
    """main(argv) reading its input size bytes at a time."""
    with mock.patch.object(cli, "_READ_SIZE", size):
        return main([str(arg) for arg in argv])


def test_gen_random_deterministic(tmp_path):
    a = tmp_path / "a.raw"
    b = tmp_path / "b.raw"
    assert _run("gen-random", "--bytes", "512", "--seed", "42", "-o", str(a)) == 0
    assert _run("gen-random", "--bytes", "512", "--seed", "42", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) == 512


def test_gen_random_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("gen-random", "--bytes", "10")
    assert exc.value.code == 1


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        _run("analyze", "--alg", "bogus")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        _run("no-such-command")
    assert exc.value.code == 1


def test_gen_random_rejects_zero_bytes():
    with pytest.raises(SystemExit) as exc:
        _run("gen-random", "--bytes", "0", "--seed", "1")
    assert exc.value.code == 1


@pytest.mark.parametrize("option, value, message", [
    ("--seed", "-1", "must be non-negative, got -1"),
    ("--bytes", "1x", "must be an integer, got '1x'"),
    ("--seed", "1.5", "must be an integer, got '1.5'"),
], ids=["seed--1", "bytes-1x", "seed-1.5"])
def test_gen_random_rejects_negative_seed(capsys, option, value, message):
    options = {"--bytes": "10", "--seed": "1", option: value}
    with pytest.raises(SystemExit) as exc:
        _run("gen-random", *(arg for item in options.items() for arg in item))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"pam3codec gen-random: error: argument {option}: {message}"]
    assert "Traceback" not in err


def test_gen_random_of_more_bytes_than_fit_exits_with_one_line():
    # 2**62 bytes is beyond every disk, so the spool refuses them before
    # a block is drawn (a drawn block fails the test, not the disk); a count
    # above sys.maxsize is a usage error
    with mock.patch.object(cli, "random_blocks", side_effect=AssertionError("a block drawn")):
        code, out, err = _main_captured(["gen-random", "--bytes", str(1 << 62), "--seed", "1"])
    assert (code, out) == (2, b"")
    assert err == f"pam3codec: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '-'\n"
    code, out, err = _main_captured(["gen-random", "--bytes", str(10**20), "--seed", "1"])
    assert (code, out) == (1, b"")
    assert err.splitlines()[-1] == (f"pam3codec gen-random: error: argument --bytes: "
                                    f"must be at most {sys.maxsize}, got {10**20}")
    assert "Traceback" not in err


@pytest.mark.parametrize("alg", ["none", "dbi", "mf", "sort"])
def test_encode_decode_roundtrip_raw(tmp_path, alg):
    raw = tmp_path / "trace.raw"
    enc = tmp_path / "trace.enc"
    dec = tmp_path / "trace.dec"
    assert _run("gen-random", "--bytes", "313", "--seed", "9", "-o", str(raw)) == 0
    assert _run("encode", "--alg", alg, "--format", "raw",
                "-i", str(raw), "-o", str(enc)) == 0
    assert _run("decode", "-i", str(enc), "-o", str(dec)) == 0
    assert dec.read_bytes() == raw.read_bytes()


def test_encode_decode_roundtrip_text(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("W 0x1000 00ff00aa\nR 0x2000 deadbeef\n")
    enc = tmp_path / "trace.enc"
    dec = tmp_path / "trace.dec"
    assert _run("encode", "--alg", "sort", "-i", str(trace), "-o", str(enc)) == 0
    assert _run("decode", "-i", str(enc), "-o", str(dec)) == 0
    assert dec.read_bytes() == bytes.fromhex("00ff00aa") + bytes.fromhex("deadbeef")


def test_encode_output_format(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 000000\n")
    enc = tmp_path / "t.enc"
    assert _run("encode", "--alg", "dbi", "-i", str(trace), "-o", str(enc)) == 0
    assert enc.read_text() == "# alg DBI\n# pad 0\nA:++++++++ B:++++++++ F:1\n"


def test_analyze_csv_lists_all_algorithms(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 000102030405060708090a0b\n")
    out = tmp_path / "report.csv"
    assert _run("analyze", "-i", str(trace), "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert [row.split(",")[0] for row in lines[1:5]] == ["NONE", "DBI", "MF", "SORT"]


def test_analyze_single_algorithm_json(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 000102030405\n")
    out = tmp_path / "report.json"
    assert _run("analyze", "--alg", "sort", "--report", "json",
                "-i", str(trace), "-o", str(out)) == 0
    obj = json.loads(out.read_text())
    assert set(obj["per_algorithm"]) == {"NONE", "SORT"}
    assert obj["frame_count"] == 2


def test_analyze_op_filter(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 000000\nR 0x8 000000000000\n")
    out = tmp_path / "r.json"
    assert _run("analyze", "--report", "json", "--op-filter", "write",
                "-i", str(trace), "-o", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["frame_count"] == 1
    assert obj["op_filter"] == "write"
    assert _run("analyze", "--report", "json", "--op-filter", "read",
                "-i", str(trace), "-o", str(out)) == 0
    assert json.loads(out.read_text())["frame_count"] == 2


def test_distribution_csv(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 000000\n")
    out = tmp_path / "d.csv"
    assert _run("distribution", "-i", str(trace), "-o", str(out)) == 0
    assert out.read_text() == "signal,percent\n-1,100.0000\n0,0.0000\n+1,0.0000\n"


def test_distribution_json(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 ffffff\n")
    out = tmp_path / "d.json"
    assert _run("distribution", "--report", "json", "-i", str(trace), "-o", str(out)) == 0
    assert json.loads(out.read_text()) == {"-1": 0.0, "0": 0.0, "+1": 100.0}


def test_parse_error_exits_2(tmp_path, capsys):
    trace = tmp_path / "bad.txt"
    trace.write_text("W 0x10 abc\n")
    assert _run("analyze", "-i", str(trace)) == 2
    assert "line 1" in capsys.readouterr().err


NON_ASCII_TRACE = b"W 0x0 00\nW 0x0 00\xff\n"


def test_non_ascii_trace_file_exits_2_with_line(tmp_path, capsys):
    trace = tmp_path / "bad.txt"
    trace.write_bytes(NON_ASCII_TRACE)
    assert _run("analyze", "-i", str(trace)) == 2
    assert capsys.readouterr().err == "pam3codec: error: line 2: non-ASCII byte\n"


def test_non_ascii_trace_stdin_exits_2_with_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NON_ASCII_TRACE)))
    assert _run("analyze") == 2
    assert capsys.readouterr().err == "pam3codec: error: line 2: non-ASCII byte\n"


def test_missing_file_exits_2(capsys):
    assert _run("analyze", "-i", "/no/such/file.txt") == 2


def test_empty_raw_input_exits_2(tmp_path, capsys):
    raw = tmp_path / "empty.raw"
    raw.write_bytes(b"")
    assert _run("analyze", "--format", "raw", "-i", str(raw)) == 2


def test_zero_baseline_exits_2(tmp_path, capsys):
    trace = tmp_path / "ff.txt"
    trace.write_text("W 0x0 ffffff\n")
    assert _run("analyze", "-i", str(trace)) == 2
    assert "baseline" in capsys.readouterr().err


def test_decode_rejects_corrupt_frames(tmp_path, capsys):
    enc = tmp_path / "bad.enc"
    # (0, 0) column pairs cannot come from the modulator
    enc.write_text("# alg NONE\n# pad 0\nA:00000000 B:00000000 F:0\n")
    assert _run("decode", "-i", str(enc)) == 2
    assert "(0, 0)" in capsys.readouterr().err


def test_decode_reports_bad_line(tmp_path, capsys):
    enc = tmp_path / "bad.enc"
    enc.write_text("# alg DBI\n# pad 0\nA:++++ B:++++++++ F:0\n")
    assert _run("decode", "-i", str(enc)) == 2
    assert "line 3" in capsys.readouterr().err


ROW = b"A:++++++++ B:++++++++ F:0\n"
BAD_LINE = "pam3codec: error: line 3: expected 'A:<8 symbols> B:<8 symbols> F:<flag>'\n"


@pytest.mark.parametrize("row, error", [
    (b"A:++++++++\tB:++++++++ F:0\n", BAD_LINE),  # 26 bytes, a fixed byte off the layout
    (b"a:++++++++ B:++++++++ F:0\n", BAD_LINE),
    (None, "pam3codec: error: line 2: bad pad count 'x'\n"),
], ids=["tab", "lower-case-a", "pad-x"])
@pytest.mark.parametrize("size", [19, 1 << 20], ids=["header-chunk", "one-chunk"])
def test_decode_rejects_off_layout_rows_and_bad_pad(row, error, size):
    header = b"# alg NONE\n# pad 0\n"  # 19 bytes: a chunk of its own at size 19
    if row is None:
        data = header.replace(b"pad 0", b"pad x") + ROW
    else:
        data = header + row
        reader = traceio._EncodedReader()
        assert reader.rows(data, 0) is None
        # a header is not a frame row: the line reader alone takes it
        assert reader.rows(header, 0) is None and reader.rows(row, 2) is None
    with mock.patch.object(cli, "_READ_SIZE", size):
        assert _main_captured(["decode"], data) == (2, b"", error)


@pytest.mark.parametrize("cmd, data, error", [
    ("analyze", b"R 0x0 00\nX 0x0 00\nW 0x0 0\xff\n", "line 2: op must be R or W, got 'X'\n"),
    ("decode", b"# alg NONE\n# pad 0\nA:++++ B:++++++++ F:0\n" + ROW[:-1] + b"\xff\n",
     BAD_LINE[len("pam3codec: error: "):]),
], ids=["analyze", "decode"])
@pytest.mark.parametrize("size", [19, 1 << 20], ids=["small-reads", "one-chunk"])
def test_first_bad_line_wins_over_a_later_non_ascii_byte(cmd, data, error, size):
    """A non-ASCII byte is one more way a line can be bad, so the first bad
    line is the error, at every read size and in parse_text_trace."""
    with mock.patch.object(cli, "_READ_SIZE", size):
        assert _main_captured([cmd], data) == (2, b"", f"pam3codec: error: {error}")
    if cmd == "analyze":
        with pytest.raises(ParseError, match=f"^{re.escape(error.rstrip())}$"):
            traceio.parse_text_trace(data)


FIELD_SEPARATORS = b" \t\x0b\x0c"  # space, tab, vertical tab, form feed


@pytest.mark.parametrize("size", [1, 1 << 18], ids=["byte-reads", "one-chunk"])
def test_only_space_tab_vertical_tab_and_form_feed_separate_fields(size):
    """Each byte up to the space, and DEL, between the fields and at the end
    of a trace line and of a `# alg` header line, through the CLI: only the
    four separators part fields, and LF and CR end lines. \\x1c-\\x1f, which
    str.split takes for whitespace, are bytes of a field."""
    with open(os.path.join(os.path.dirname(ZERO_TRACE), "sort.enc"), "rb") as f:
        header, frames = f.read().split(b"\n", 1)
    assert header == b"# alg SORT"
    with mock.patch.object(cli, "_READ_SIZE", size):
        trace_output = _main_captured(["distribution"], b"W 0x10 00ff\n")
        decoded_output = _main_captured(["decode"], header + b"\n" + frames)
        assert trace_output[0] == decoded_output[0] == 0
        for byte in [*range(0x21), 0x7F]:
            sep = bytes([byte])
            separates, ends_line = sep in FIELD_SEPARATORS, sep in b"\n\r"
            # (command, input, whether it is read, the error if it is not)
            cases = [
                ("distribution", b"W" + sep + b"0x10" + sep + b"00ff\n", separates,
                 "line 1: expected 'op address payload', got 1 field(s)"),
                ("distribution", b"W 0x10 00ff" + sep + b"\n", separates or ends_line,
                 "line 1: payload hex has odd length"),
                # `SORT` on a line of its own, or a comment and no `# alg` header
                ("decode", b"# alg" + sep + b"SORT\n" + frames, separates,
                 BAD_LINE[len("pam3codec: error: "):-1].replace("line 3", "line 2") if ends_line
                 else "line 1: missing '# alg' or '# pad' header"),
                ("decode", b"# alg SORT" + sep + b"\n" + frames, separates or ends_line,
                 f"line 1: unknown algorithm {'SORT' + chr(byte)!r}"),
            ]
            for cmd, data, read, error in cases:
                expected = ({"distribution": trace_output, "decode": decoded_output}[cmd] if read
                            else (2, b"", f"pam3codec: error: {error}\n"))
                assert _main_captured([cmd], data) == expected, (cmd, data[:16])


def test_decode_requires_headers(tmp_path, capsys):
    enc = tmp_path / "bad.enc"
    enc.write_text("A:++++++++ B:++++++++ F:0\n")
    assert _run("decode", "-i", str(enc)) == 2


def _decode_error(tmp_path, capsys, text: str) -> str:
    enc = tmp_path / "bad.enc"
    enc.write_text(text)
    assert _run("decode", "-i", str(enc), "-o", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("text, line", [
    # a flag that does not fit uint8 once raised OverflowError
    ("# alg SORT\n# pad 0\nA:++++++++ B:++++++++ F:0\nA:++++++++ B:++++++++ F:256\n", 4),
    # NONE carries no flag bits
    ("# alg NONE\n# pad 0\nA:++++++++ B:++++++++ F:3\n", 3),
    ("# alg DBI\n# pad 0\n\nA:++++++++ B:++++++++ F:2\n", 4),
    ("# alg MF\n# pad 0\nA:++++++++ B:++++++++ F:3\n", 3),
    ("# alg SORT\n# pad 0\nA:++++++++ B:++++++++ F:6\n", 3),
    # the first of two
    ("# alg DBI\n# pad 0\nA:++++++++ B:++++++++ F:2\nA:++++++++ B:++++++++ F:3\n", 3),
])
def test_decode_rejects_out_of_range_flag(tmp_path, capsys, text, line):
    assert f"line {line}:" in _decode_error(tmp_path, capsys, text)


@pytest.mark.parametrize("text, line", [
    # canonical layout, read as one byte array
    ("# alg SORT\n# pad 0\nA:++++++++ B:++++++++ F:0\nA:-0+-0+-0 B:-0+-00+0 F:0\n", 4),
    # comments shift the lines, read line by line
    ("# alg SORT\n# comment\n# pad 0\n\nA:++++++++ B:++++++++ F:0\n"
     "A:-0+-0+-0 B:-0+-00+0 F:0\n", 6),
    # SORT flag 2 maps level 0 to level -1, so (-, -) decodes to (0, 0)
    ("# alg SORT\n# pad 0\nA:+------- B:++------ F:2\n", 3),
])
def test_decode_unused_pair_names_line(tmp_path, capsys, text, line):
    err = _decode_error(tmp_path, capsys, text)
    assert f"line {line}:" in err
    assert "(0, 0)" in err


@pytest.mark.parametrize("text, line", [
    ("# alg SORT\n# pad 0\n# alg NONE\nA:++++++++ B:++++++++ F:1\n", 3),
    ("# alg SORT\n# pad 0\n# pad 0\nA:++++++++ B:++++++++ F:1\n", 3),
    # a trailing header once overrode the algorithm of every frame
    ("# alg SORT\n# pad 0\nA:++++++++ B:++++++++ F:0\n# alg NONE\n", 4),
    # a frame line before both headers is the missing header, at once
    ("# alg SORT\nA:++++++++ B:++++++++ F:1\n# pad 0\n", 1),
    # a pad count needs a frame to strip it from
    ("# alg SORT\n# pad 1\n", 2),
    ("# alg DBI\n# pad 2\n# comment\n", 2),
])
def test_decode_header_rules(tmp_path, capsys, text, line):
    assert f"line {line}:" in _decode_error(tmp_path, capsys, text)


def test_decode_no_frames_without_pad(tmp_path):
    enc = tmp_path / "empty.enc"
    enc.write_text("# alg SORT\n# pad 0\n")
    dec = tmp_path / "empty.dec"
    assert _run("decode", "-i", str(enc), "-o", str(dec)) == 0
    assert dec.read_bytes() == b""


def test_encode_stdout_decode_stdin(tmp_path, capsysbinary, monkeypatch):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 00ff00aa\n")
    assert _run("encode", "--alg", "mf", "-i", str(trace)) == 0
    encoded = capsysbinary.readouterr().out
    assert encoded.startswith(b"# alg MF\n# pad 2\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(encoded)))
    assert _run("decode") == 0
    assert capsysbinary.readouterr().out == bytes.fromhex("00ff00aa")


def test_encode_and_decode_in_place(tmp_path):
    """-o naming the input file: the output replaces it only at the end."""
    payload = generate_random_trace(3001, seed=4)[0].payload
    path, copy = tmp_path / "data", tmp_path / "copy"
    path.write_bytes(payload)
    encode = ("encode", "--alg", "sort", "--format", "raw", "-i", path, "-o")
    assert _run_reading(64, *encode, copy) == 0
    assert _run_reading(64, *encode, path) == 0
    assert path.read_bytes() == copy.read_bytes()
    assert _run_reading(64, "decode", "-i", path, "-o", path) == 0
    assert path.read_bytes() == payload
    assert sorted(os.listdir(tmp_path)) == ["copy", "data"]


@pytest.mark.parametrize("argv, data", [
    (["encode", "--alg", "sort"], b"W 0x0 00ff00\n" * 50 + b"W 0x0 0g\n"),
    (["encode", "--alg", "sort", "--format", "raw"], b""),
    (["decode"], b"# alg SORT\n# pad 0\n" + ROW * 50 + b"A:+\n"),
    (["decode"], b"# alg NONE\n# pad 0\n" + ROW * 50 + ROW.replace(b"+", b"0")),
])
def test_failed_run_leaves_no_file(tmp_path, argv, data):
    source, out = tmp_path / "in", tmp_path / "out"
    source.write_bytes(data)
    assert _run_reading(64, *argv, "-i", source, "-o", out) == 2
    assert os.listdir(tmp_path) == ["in"]  # neither the output nor a spool file
    out.write_bytes(b"kept")
    assert _run_reading(64, *argv, "-i", source, "-o", out) == 2
    assert sorted(os.listdir(tmp_path)) == ["in", "out"] and out.read_bytes() == b"kept"


def test_output_file_mode(tmp_path):
    """The spooled output gets the mode open() would give it."""
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 00ff00\n")
    out = tmp_path / "out"
    umask = os.umask(0o027)
    try:
        assert _run("encode", "--alg", "dbi", "-i", str(trace), "-o", str(out)) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o640
    out.chmod(0o604)
    assert _run("decode", "-i", str(out), "-o", str(out)) == 0
    assert out.stat().st_mode & 0o777 == 0o604 and out.read_bytes() == bytes.fromhex("00ff00")


@pytest.mark.parametrize("argv, data", [
    pytest.param(["encode", "--alg", "sort"], b"W 0x0 0g\n", id="encode"),
    pytest.param(["decode"], b"# alg SORT\n# pad 0\nA:+\n", id="decode"),
    pytest.param(["analyze"], b"W 0x0 0g\n", id="analyze"),
    pytest.param(["distribution"], b"W 0x0 0g\n", id="distribution"),
])
def test_output_in_a_missing_directory_exits_2(tmp_path, argv, data):
    """Every subcommand opens its output before it reads the input, so
    the output's error wins over the input's."""
    out = tmp_path / "missing" / "out"
    code, stdout, err = _main_captured([*argv, "-o", str(out)], data)
    assert (code, stdout) == (2, b"")
    # the error names the output, not the spool file beside it
    assert err == f"pam3codec: error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n"
    assert os.listdir(tmp_path) == []


def test_output_file_in_read_only_directory(tmp_path, monkeypatch):
    """A writable output file in a directory that is not writable is
    rewritten in place, as no spool file can be made beside it."""
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 00ff00\n")
    out = tmp_path / "out"
    out.write_bytes(b"old contents, longer than the output")
    inode = out.stat().st_ino
    directory = os.path.realpath(tmp_path)
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, m: p != directory and access(p, m))
    assert _run("encode", "--alg", "dbi", "-i", str(trace), "-o", str(out)) == 0
    assert out.stat().st_ino == inode and out.read_bytes().startswith(b"# alg DBI\n")
    assert _run("decode", "-i", str(out), "-o", str(out)) == 0
    assert out.stat().st_ino == inode and out.read_bytes() == bytes.fromhex("00ff00")
    assert sorted(os.listdir(tmp_path)) == ["out", "t.txt"]


@given(
    st.binary(min_size=1, max_size=300),
    st.sampled_from(list(Algorithm)),
)
def test_encode_text_pipeline_lossless(payload, algorithm):
    "The encode text form carries everything decode needs, for any input."
    stream = frame_records([TraceRecord("W", 0, payload)])
    text = encoded_text(algorithm, stream)
    assert text.startswith(b"# alg %s\n# pad %d\n" % (algorithm.value.encode(), stream.pad_bytes))
    assert decoded(text) == payload


def test_pipe_gen_random_into_analyze():
    env = dict(os.environ, PYTHONPATH=SRC)
    pipeline = (
        f"{sys.executable} -m pam3codec gen-random --bytes 30000 --seed 7 | "
        f"{sys.executable} -m pam3codec analyze --alg sort --format raw --report json"
    )
    proc = subprocess.run(
        ["sh", "-c", pipeline], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["per_algorithm"]["SORT"]["term_ratio_percent"] < 100.0


def test_stdout_report(capsys, tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("W 0x0 000000\n")
    assert _run("analyze", "-i", str(trace)) == 0
    out = capsys.readouterr().out
    assert out.startswith("algorithm,term_power")


def _main_captured(argv, stdin: bytes = b""):
    """(exit code, stdout bytes, stderr text) of main(argv) reading stdin,
    also when argparse exits."""
    out, err = io.BytesIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    sys.stdout, sys.stderr = io.TextIOWrapper(out, encoding="ascii", write_through=True), err
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        sys.stdout.flush()
    finally:
        sys.stdout.detach()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


FUZZ_COMMANDS = [
    [*cmd, *fmt]
    for cmd in (["encode", "--alg", "sort"], ["analyze"],
                ["distribution", "--op-filter", "write"])
    for fmt in ([], ["--format", "raw"])
] + [["decode"]]


@st.composite
def cli_inputs(draw):
    """Arbitrary bytes, or a text trace or encoded text with one byte replaced."""
    kind = draw(st.sampled_from(("bytes", "trace", "encoded")))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    if kind == "trace":
        records = draw(st.lists(st.builds(
            TraceRecord, st.sampled_from(("R", "W")), st.integers(0, 1 << 40),
            st.binary(min_size=1, max_size=8)), max_size=4))
        data = format_text_trace(records)
    else:
        payload = draw(st.binary(min_size=1, max_size=9))
        alg = draw(st.sampled_from(list(Algorithm)))
        stream = frame_records([TraceRecord("W", 0, payload)])
        data = encoded_text(alg, stream)
    if data and draw(st.booleans()):
        col = draw(st.integers(0, len(data) - 1))
        data = data[:col] + draw(st.binary(max_size=2)) + data[col + 1:]
    return data


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS), cli_inputs())
def test_cli_fuzz_exit_codes(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        source, dest = os.path.join(tmp, "in"), os.path.join(tmp, "out")
        with open(source, "wb") as f:
            f.write(data)
        code, _, err = _main_captured([*argv, "-i", source, "-o", dest])
        assert code in (0, 2)
        assert "Traceback" not in err
        if code:
            assert err.startswith("pam3codec: error: ") and err.count("\n") == 1
        else:
            assert err == ""
            with open(dest, "rb") as f:
                written = f.read()
    # the same input through stdin and stdout gives the same verdict
    piped = _main_captured(argv, data)
    assert piped == (code, written if code == 0 else b"", err)


@pytest.mark.parametrize("stream, argv", [
    ("stdin", ["analyze"]),
    ("stdout", ["gen-random", "--bytes", "10", "--seed", "1"]),
])
def test_closed_standard_stream_exits_2(capsys, monkeypatch, stream, argv):
    """A process started with stdin or stdout closed has None for it."""
    monkeypatch.setattr(sys, stream, None)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"pam3codec: error: [Errno 9] {stream} is closed\n")


class _FullStream(io.StringIO):
    """A text stream on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_to_full_stdout_exits_2(capsys, monkeypatch, argv):
    """argparse drops a failed write of its messages; help that cannot
    reach stdout is an error like any other failed output."""
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert main(argv) == 2
    message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert capsys.readouterr().err == f"pam3codec: error: {message}\n"


def test_help_and_usage_fallbacks_are_kept(capsys, monkeypatch):
    """Help with stdout closed goes to stderr, and a usage error to a full
    stderr still exits 1: only a failed write to stdout is reported."""
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().err.startswith("usage: pam3codec")
    monkeypatch.setattr(sys, "stderr", _FullStream())
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 1


def _python(*args, stdin: bytes = b"", stdout=subprocess.PIPE,
            env=os.environ) -> subprocess.CompletedProcess:
    """A child Python that imports the pam3codec this process imported."""
    path = os.path.dirname(os.path.dirname(pam3codec.__file__))
    return subprocess.run([sys.executable, *args], input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, env=dict(env, PYTHONPATH=path), timeout=120)


def test_import_does_not_freeze():
    proc = _python("-c", "import gc, pam3codec.cli; print(gc.get_freeze_count())")
    assert proc.stdout == b"0\n", proc.stderr


def test_import_leaves_numpy_random_out():
    """numpy.random adds ~14 ms and ~5 MiB to every start; only gen-random
    uses it, and numpy loads it on the first np.random access."""
    proc = _python("-c", "import sys, pam3codec.cli; print('numpy.random' in sys.modules)")
    assert proc.stdout == b"False\n", proc.stderr


def test_module_entry_freezes_before_main():
    """In a child, since a freeze would last for the rest of this process;
    run_module runs pam3codec/__main__.py as `python -m pam3codec` does."""
    probe = ("import gc, runpy, pam3codec.cli as cli\n"
             "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
             "runpy.run_module('pam3codec', run_name='__main__')\n")
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.mark.parametrize("entry", ["pam3codec", "pam3codec.cli"])
@pytest.mark.parametrize("argv, stdin, expected", [
    (["encode", "--alg", "sort", "-i", ZERO_TRACE], b"", 0),
    (["analyze", "--alg", "bogus"], b"", 1),
    (["decode"], b"# alg SORT\n# pad 0\nnot a frame\n", 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_process_entry_matches_main(entry, argv, stdin, expected):
    code, out, err = _main_captured(argv, stdin)
    assert code == expected
    proc = _python("-m", entry, *argv, stdin=stdin)
    assert (proc.returncode, proc.stdout, proc.stderr.decode("ascii")) == (code, out, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["gen-random", "--bytes", "10", "--seed", "1"],
    ["--help"],
    ["analyze", "-i", ZERO_TRACE],
], ids=["gen-random", "help", "analyze"])
def test_stdout_that_fails_at_exit_exits_2(argv):
    """With stdout buffered, as it is unless PYTHONUNBUFFERED is set, the
    bytes of a failed write stay in its buffer for the flush at interpreter
    exit; that flush must not fail again (exit 120 and a second message)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "wb") as full:
        proc = _python("-m", "pam3codec", *argv, stdout=full, env=env)
    message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert (proc.returncode, proc.stderr.decode("ascii")) == (2, f"pam3codec: error: {message}\n")


def test_process_entry_without_stdout_exits_2():
    probe = ("import sys, pam3codec.cli as cli\n"
             "sys.stdout = None\n"
             f"sys.argv = ['pam3codec', 'analyze', '-i', {ZERO_TRACE!r}]\n"
             "cli.run()\n")
    proc = _python("-c", probe)
    assert (proc.returncode, proc.stderr) == (2, b"pam3codec: error: [Errno 9] stdout is closed\n")


def test_readme_library_example_runs(capsys):
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        (block,) = re.findall(r"\n## Library\n\n```python\n(.*?)```\n", f.read(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert "SORT" in capsys.readouterr().out


def test_public_names_are_the_package_imports():
    """pam3codec.__all__ holds what __init__ imports from its submodules,
    sorted: no submodule, nothing private, no name that is not there."""
    names = pam3codec.__all__
    assert len(names) == 33 and names == sorted(names)
    for name in names:
        assert not isinstance(getattr(pam3codec, name), type(pam3codec)), name


def test_benchmark_sites_exist():
    """Every (module, attribute) the benchmark's layer tracer wraps exists.

    perfbench/layers.py skips a missing site silently, so a refactor that
    drops one would otherwise only show as missing per-layer metrics.
    """
    with open(os.path.join(os.path.dirname(SRC), "perfbench", "layers.py")) as f:
        tree = ast.parse(f.read())
    (sites,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["SITES"]
    ]
    assert sites
    for module, attr, _ in sites:
        assert hasattr(importlib.import_module(f"pam3codec.{module}"), attr), (module, attr)


def _attribute_chain(node) -> list[str]:
    """[a, b, c] for the expression a.b.c; [] unless it is names and attributes only."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return [node.id, *reversed(attrs)] if isinstance(node, ast.Name) else []


def test_benchmark_reads_exist():
    """Every core.X, encoders.X and power.X that perfbench's checks and
    tests read exists, read as checks.core.X too, or through a name bound
    to one, as in model = power.DEFAULT_MODEL; model.term_weight_neg.

    Tier-1 runs tests/ only, so a product name that only perfbench reads
    would otherwise break the benchmark and nothing here.
    """
    def product_chain(node, bound: dict) -> list[str]:
        chain = _attribute_chain(node)
        chain = chain[1:] if chain[:1] == ["checks"] else chain
        chain = bound[chain[0]] + chain[1:] if chain and chain[0] in bound else chain
        return chain if chain and chain[0] in ("core", "encoders", "power") else []

    reads = set()
    for name in ("checks.py", "test_perfbench.py"):
        with open(os.path.join(os.path.dirname(SRC), "perfbench", name)) as f:
            tree = ast.parse(f.read())
        bound = {}  # name -> the product chain assigned to it
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                chain = product_chain(node.value, {})
                if chain:
                    bound[node.targets[0].id] = chain
        reads |= {tuple(product_chain(node, bound)) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)} - {()}
    assert {("power", "DEFAULT_MODEL", weight) for weight in
            ("term_weight_neg", "term_weight_zero", "switch_unit_energy")} <= reads
    for module, *attrs in reads:
        value = importlib.import_module(f"pam3codec.{module}")
        for attr in attrs:
            assert hasattr(value, attr), (module, *attrs)
            value = getattr(value, attr)
