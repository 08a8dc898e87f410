import ast
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pam3codec import bulk, cli
from pam3codec.cli import main
from pam3codec.encoders import Algorithm
from pam3codec.traceio import (
    TraceRecord,
    format_encoded,
    format_text_trace,
    frame_records,
    generate_random_trace,
    parse_encoded,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_gen_random_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("gen-random", "--bytes", "10", "--seed", "-1")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        "pam3codec gen-random: error: argument --seed: must be non-negative, got -1"]
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
    ("# alg SORT\n# pad 0\nA:++++++++ B:++++++++ F:1\n# alg NONE\n", 4),
    ("# alg SORT\nA:++++++++ B:++++++++ F:1\n# pad 0\n", 3),
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


ROW = b"A:++++++++ B:++++++++ F:0\n"


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
    enc_masks, flags = bulk.encode_block(stream.masks, algorithm)
    text = format_encoded(algorithm, enc_masks, flags, stream.pad_bytes)
    alg, pad, parsed_masks, parsed_flags = parse_encoded(text)
    assert alg is algorithm
    assert pad == stream.pad_bytes
    decoded = bulk.decode_block(parsed_masks, parsed_flags, alg)
    data = bulk.demodulate_block(decoded).reshape(-1).tobytes()
    assert (data[: len(data) - pad] if pad else data) == payload


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
    """(exit code, stdout bytes, stderr text) of main(argv) reading stdin."""
    out, err = io.BytesIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    sys.stdout, sys.stderr = io.TextIOWrapper(out, encoding="ascii", write_through=True), err
    try:
        code = main(argv)
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
        data = format_text_trace(records).encode("ascii")
    else:
        payload = draw(st.binary(min_size=1, max_size=9))
        alg = draw(st.sampled_from(list(Algorithm)))
        stream = frame_records([TraceRecord("W", 0, payload)])
        data = format_encoded(alg, *bulk.encode_block(stream.masks, alg), stream.pad_bytes)
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
