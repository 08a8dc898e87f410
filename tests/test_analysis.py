import json
import math

import pytest

from pam3codec.analysis import (
    TraceStats,
    analyze_trace,
    read_report,
    signal_distribution,
    write_report,
)
from pam3codec.encoders import Algorithm
from pam3codec.errors import EmptyStream, ZeroBaseline
from pam3codec.power import switching_power, termination_power
from pam3codec.traceio import TraceRecord, frame_records, generate_random_trace


def _trace(payload: bytes):
    return frame_records([TraceRecord("W", 0, payload)])


ALL_ZERO = _trace(bytes(6))
RANDOM = frame_records(generate_random_trace(3_000, seed=11))


def test_all_zero_trace_ratios_are_zero():
    stats = analyze_trace(ALL_ZERO)
    for alg in (Algorithm.DBI, Algorithm.MF, Algorithm.SORT):
        assert stats.per_algorithm[alg].term_ratio_percent == 0.0


def test_none_ratio_is_exactly_100():
    stats = analyze_trace(ALL_ZERO, [Algorithm.NONE])
    assert set(stats.per_algorithm) == {Algorithm.NONE}
    assert stats.per_algorithm[Algorithm.NONE].term_ratio_percent == 100.0


def test_sort_dominates_on_random_trace():
    stats = analyze_trace(RANDOM)
    ratios = {a: r.term_ratio_percent for a, r in stats.per_algorithm.items()}
    assert ratios[Algorithm.SORT] <= ratios[Algorithm.DBI] <= 100.0
    assert ratios[Algorithm.SORT] <= ratios[Algorithm.MF] <= 100.0


def test_baseline_matches_power_module():
    stats = analyze_trace(RANDOM, [Algorithm.NONE])
    report = stats.per_algorithm[Algorithm.NONE]
    frames = list(RANDOM)
    assert report.term_power_encoded == pytest.approx(
        sum(termination_power(f) for f in frames), rel=1e-12
    )
    assert report.switch_power_encoded == switching_power(frames)


def test_zero_baseline_raises():
    with pytest.raises(ZeroBaseline):
        analyze_trace(_trace(b"\xff" * 6))


def test_empty_stream_raises():
    with pytest.raises(EmptyStream):
        analyze_trace(frame_records([]))
    with pytest.raises(EmptyStream):
        signal_distribution(frame_records([]))


def test_constant_trace_switching_undefined():
    stats = analyze_trace(ALL_ZERO)
    for report in stats.per_algorithm.values():
        assert report.switch_power_encoded == 0.0
        assert report.switch_ratio_percent is None


def test_requested_subset_keeps_baseline():
    stats = analyze_trace(RANDOM, [Algorithm.SORT])
    assert list(stats.per_algorithm) == [Algorithm.NONE, Algorithm.SORT]


def test_canonical_row_order():
    stats = analyze_trace(RANDOM)
    assert list(stats.per_algorithm) == [
        Algorithm.NONE,
        Algorithm.DBI,
        Algorithm.MF,
        Algorithm.SORT,
    ]


def test_flag_power_charges_flag_wires():
    base = analyze_trace(ALL_ZERO)
    flagged = analyze_trace(ALL_ZERO, include_flag_power=True)
    # MF names the most frequent level with flag 00, two zero bits per frame
    assert base.per_algorithm[Algorithm.MF].term_ratio_percent == 0.0
    assert flagged.per_algorithm[Algorithm.MF].term_ratio_percent > 0.0
    # DBI's single 1 bit rides at level +1, which costs nothing
    assert flagged.per_algorithm[Algorithm.DBI].term_ratio_percent == 0.0
    assert flagged.per_algorithm[Algorithm.NONE].term_ratio_percent == 100.0
    assert flagged.flags_in_power is True


# ------------------------------------------------------- distribution

def test_distribution_all_zero():
    assert signal_distribution(ALL_ZERO) == (100.0, 0.0, 0.0)


def test_distribution_all_ff():
    assert signal_distribution(_trace(b"\xff" * 9)) == (0.0, 0.0, 100.0)


def test_distribution_random():
    dist = signal_distribution(frame_records(generate_random_trace(30_000, seed=3)))
    assert abs(dist[0] - 37.5) < 1.0
    assert abs(dist[1] - 25.0) < 1.0
    assert abs(dist[2] - 37.5) < 1.0


def test_distribution_order_independent():
    import numpy as np

    from pam3codec import bulk
    from pam3codec.traceio import FrameStream

    rng = np.random.default_rng(0)
    permuted = FrameStream(
        bulk.masks_of_levels(RANDOM.levels[rng.permutation(len(RANDOM))]), RANDOM.pad_bytes
    )
    assert signal_distribution(permuted) == signal_distribution(RANDOM)


def test_distribution_sums_to_100():
    dist = signal_distribution(RANDOM)
    assert math.isclose(sum(dist), 100.0, abs_tol=1e-9)
    assert analyze_trace(RANDOM).distribution_percent == dist


# ------------------------------------------------------------ reports

GOLDEN_CSV = """\
algorithm,term_power,term_ratio_percent,switch_power,switch_ratio_percent
NONE,0.3200,100.0000,0.0000,
DBI,0.0000,0.0000,0.0000,
MF,0.0000,0.0000,0.0000,
SORT,0.0000,0.0000,0.0000,

section,cnt_neg,cnt_zero,cnt_pos
totals,32,0,0
distribution_percent,100.0000,0.0000,0.0000

section,frame_count,op_filter,flags_in_power
meta,2,all,false
"""


def test_csv_golden():
    assert write_report(analyze_trace(ALL_ZERO), "csv") == GOLDEN_CSV


def test_csv_none_only_row():
    text = write_report(analyze_trace(ALL_ZERO, [Algorithm.NONE]), "csv")
    lines = text.splitlines()
    assert lines[1] == "NONE,0.3200,100.0000,0.0000,"
    assert lines[2] == ""


def test_json_golden():
    obj = json.loads(write_report(analyze_trace(ALL_ZERO), "json"))
    assert obj["frame_count"] == 2
    assert obj["totals"] == {"cnt_neg": 32, "cnt_zero": 0, "cnt_pos": 0}
    assert obj["distribution_percent"] == {"-1": 100.0, "0": 0.0, "+1": 0.0}
    assert obj["per_algorithm"]["SORT"] == {
        "term_power": 0.0,
        "term_ratio_percent": 0.0,
        "switch_power": 0.0,
        "switch_ratio_percent": None,
    }
    assert list(obj["per_algorithm"]) == ["NONE", "DBI", "MF", "SORT"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_roundtrip_bit_exact(fmt):
    for stats in (analyze_trace(ALL_ZERO), analyze_trace(RANDOM)):
        first = write_report(stats, fmt)
        reparsed = read_report(first, fmt)
        assert isinstance(reparsed, TraceStats)
        assert write_report(reparsed, fmt) == first
        assert reparsed.frame_count == stats.frame_count
        assert reparsed.totals == stats.totals


@pytest.mark.parametrize("keep, section", [
    (5, "totals"), (8, "distribution_percent"), (10, "meta"), (11, "meta"),
])
def test_truncated_csv_report_raises_value_error(keep, section):
    lines = write_report(analyze_trace(RANDOM), "csv").splitlines(keepends=True)
    with pytest.raises(ValueError, match=section):
        read_report("".join(lines[:keep]), "csv")


@pytest.mark.parametrize("text, field", [
    ("{}", "totals"),
    ("[]", "totals"),
    ('{"totals": 1}', "totals"),
    ("null", "totals"),
])
def test_malformed_json_report_raises_value_error(text, field):
    with pytest.raises(ValueError, match=field):
        read_report(text, "json")


DELETE = object()


@pytest.mark.parametrize("path, value, field", [
    (("frame_count",), DELETE, "frame_count"),
    (("frame_count",), None, "frame_count"),
    (("op_filter",), DELETE, "op_filter"),
    (("flags_in_power",), "yes", "flags_in_power"),
    (("totals", "cnt_zero"), DELETE, "cnt_zero"),
    (("totals", "cnt_zero"), None, "cnt_zero"),
    (("distribution_percent", "+1"), DELETE, r"\+1"),
    (("per_algorithm", "SORT", "switch_power"), DELETE, "switch_power"),
    (("per_algorithm", "SORT", "switch_power"), None, "switch_power"),
    (("per_algorithm", "SORT"), [], "term_power"),
    (("per_algorithm",), None, "per_algorithm"),
])
def test_json_report_field_errors_name_the_field(path, value, field):
    obj = json.loads(write_report(analyze_trace(RANDOM), "json"))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(ValueError, match=field):
        read_report(json.dumps(obj), "json")


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_report(analyze_trace(ALL_ZERO), "xml")
