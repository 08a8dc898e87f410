"""Byte-for-byte pins of `analyze` and `distribution` reports.

golden/<case>.<report> was written by `pam3codec` running the per-algorithm
encode-and-count analysis path on golden/uniform.raw (3001 uniform random
bytes, so the last group is zero padded) and golden/zero.trace (a
zero-biased text trace of reads and writes with payloads of 1 to 64 bytes).
Any later analysis path must reproduce every report exactly.
"""

from pathlib import Path

import pytest

from pam3codec.cli import main
from pam3codec.traceio import parse_text_columns

GOLDEN = Path(__file__).resolve().parent / "golden"

RAW = ("--format", "raw", "-i", str(GOLDEN / "uniform.raw"))
TEXT = ("-i", str(GOLDEN / "zero.trace"))

CASES = {
    "uniform_all": ("analyze", *RAW),
    "uniform_sort": ("analyze", "--alg", "sort", *RAW),
    "uniform_flags": ("analyze", "--include-flag-power", *RAW),
    "uniform_dist": ("distribution", *RAW),
    "zero_all": ("analyze", *TEXT),
    "zero_sort_read": ("analyze", "--alg", "sort", "--op-filter", "read", *TEXT),
    "zero_flags_write": ("analyze", "--include-flag-power", "--op-filter", "write", *TEXT),
    "zero_mf_flags": ("analyze", "--alg", "mf", "--include-flag-power", *TEXT),
    "zero_dist_read": ("distribution", "--op-filter", "read", *TEXT),
}


@pytest.mark.parametrize("report", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(tmp_path, case, report):
    out = tmp_path / f"{case}.{report}"
    assert main([*CASES[case], "--report", report, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.{report}").read_bytes()


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("zero_")))
def test_canonical_trace_report_matches_golden(tmp_path, case):
    # without its comment line zero.trace is read in bulk, not line by line
    lines = (GOLDEN / "zero.trace").read_bytes().splitlines(keepends=True)
    canonical = b"".join(line for line in lines if not line.startswith(b"#"))
    assert parse_text_columns(canonical) is not None
    trace = tmp_path / "zero.trace"
    trace.write_bytes(canonical)
    argv = [str(trace) if arg == TEXT[1] else arg for arg in CASES[case]]
    out = tmp_path / f"{case}.csv"
    assert main([*argv, "--report", "csv", "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()
