import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from pam3codec import bulk
from pam3codec.analysis import (
    TraceStats,
    analyze_trace,
    read_report,
    signal_distribution,
    write_report,
)
from pam3codec.core import Pam3Frame, Word24, count_symbols, modulate
from pam3codec.encoders import Algorithm
from pam3codec.errors import EmptyStream, ZeroBaseline
from pam3codec.power import switching_power, termination_power
from pam3codec.traceio import (
    OP_FILTERS,
    FrameStream,
    TraceRecord,
    frame_records,
)
from test_traceio import generate_random_trace


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
    frames = [Pam3Frame(*row.tolist()) for row in bulk.levels_of_masks(RANDOM.masks)]
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


def test_analyze_trace_takes_algorithm_names():
    by_name = analyze_trace(RANDOM, ["SORT", "MF"])
    assert by_name == analyze_trace(RANDOM, [Algorithm.SORT, Algorithm.MF])
    assert set(by_name.per_algorithm) == {Algorithm.NONE, Algorithm.MF, Algorithm.SORT}


def _unread():
    pytest.fail("a stream was read")
    yield


@pytest.mark.parametrize("error, kwargs", [
    pytest.param(ValueError, {"algorithms": ["sort"]}, id="lower-case name"),
    pytest.param(ValueError, {"algorithms": [3]}, id="number"),
    pytest.param(ValueError, {"op_filter": "reads"}, id="op filter"),
    pytest.param(TypeError, {"include_flag_power": "yes"}, id="string flag"),
    pytest.param(TypeError, {"include_flag_power": 1}, id="int flag"),
])
def test_analyze_trace_checks_arguments_before_reading(error, kwargs):
    with pytest.raises(error):
        analyze_trace(_unread(), **kwargs)


@pytest.mark.parametrize("algorithms", ["SORT", Algorithm.SORT], ids=["name", "Algorithm"])
def test_analyze_trace_takes_no_lone_algorithm(algorithms):
    with pytest.raises(TypeError, match="must be an iterable of algorithms"):
        analyze_trace(_unread(), algorithms)


@pytest.mark.parametrize("name", ["XF", "sort", 3])
def test_analyze_trace_names_the_algorithms_it_knows(name):
    with pytest.raises(ValueError) as error:
        analyze_trace(_unread(), [Algorithm.MF, name])
    assert str(error.value) == f"unknown algorithm {name!r}; expected one of NONE, DBI, MF, SORT"


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
    rng = np.random.default_rng(0)
    permuted = FrameStream(
        bulk.masks_of_levels(bulk.levels_of_masks(RANDOM.masks)[rng.permutation(len(RANDOM))]), RANDOM.pad_bytes
    )
    assert signal_distribution(permuted) == signal_distribution(RANDOM)


@given(st.binary(min_size=1, max_size=300), st.lists(st.integers(0, 100), max_size=6))
@example(b"\x00\x12\xff\x80", [0, 1, 1, 2])  # empty chunks, a padded last frame
def test_distribution_of_chunks_matches_scalar_counts(payload, cuts):
    """The popcount distribution of any split into chunks is the share of
    each level in the scalar counts of every frame, padding included."""
    whole = _trace(payload)
    bounds = [0, *sorted(min(cut, len(whole)) for cut in cuts), len(whole)]
    chunks = [FrameStream(np.ascontiguousarray(whole.masks[:, start:stop]), 0)
              for start, stop in zip(bounds, bounds[1:])]
    chunks[-1] = FrameStream(chunks[-1].masks, whole.pad_bytes)
    padded = payload + bytes(whole.pad_bytes)
    counts = [count_symbols(modulate(Word24(*padded[i:i + 3]))).as_tuple()
              for i in range(0, len(padded), 3)]
    expected = tuple(100.0 * sum(column) / (16 * len(counts)) for column in zip(*counts))
    assert signal_distribution(chunks) == expected
    if expected[2] < 100.0:  # else the baseline termination power is zero
        assert analyze_trace(chunks).distribution_percent == expected


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


def test_csv_report_must_start_with_its_header():
    lines = write_report(analyze_trace(RANDOM), "csv").splitlines(keepends=True)
    for text in ("".join(lines[1:]), "x\n" + "".join(lines), lines[0].upper() + "".join(lines[1:])):
        with pytest.raises(ValueError, match="^not a pam3codec CSV report$"):
            read_report(text, "csv")


def test_csv_algorithm_row_with_a_cell_too_many_raises():
    lines = write_report(analyze_trace(RANDOM), "csv").splitlines()
    assert lines[4].startswith("SORT,")
    lines[4] += ",0.0000"
    with pytest.raises(ValueError, match="^CSV report SORT row has 5 fields, not 4$"):
        read_report("\n".join(lines) + "\n", "csv")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_without_the_none_row_raises(fmt):
    text = write_report(analyze_trace(RANDOM), fmt)
    if fmt == "csv":
        lines = text.splitlines(keepends=True)
        assert lines[1].startswith("NONE,")
        text = "".join(lines[:1] + lines[2:])
    else:
        obj = json.loads(text)
        del obj["per_algorithm"]["NONE"]
        text = json.dumps(obj)
    with pytest.raises(ValueError, match="^report lacks the NONE baseline row$"):
        read_report(text, fmt)


@pytest.mark.parametrize("row", [1, 4])
def test_csv_report_with_a_repeated_algorithm_row_raises(row):
    lines = write_report(analyze_trace(RANDOM), "csv").splitlines()
    name = lines[row].split(",")[0]
    assert name in ("NONE", "SORT") and lines[5] == ""
    lines.insert(5, f"{name},1.0000,1.0000,1.0000,1.0000")  # was read in place of the real row
    with pytest.raises(ValueError, match=f"^CSV report has a second {name} row, on line 6$"):
        read_report("\n".join(lines) + "\n", "csv")


@pytest.mark.parametrize("path", [
    ("frame_count",),
    ("totals", "cnt_zero"),
    ("distribution_percent", "0"),
    ("per_algorithm", "SORT"),
    ("per_algorithm", "NONE", "term_power"),
])
def test_json_report_with_a_repeated_key_raises(path):
    obj = json.loads(write_report(analyze_trace(RANDOM), "json"))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    # a second key of the same name, whose value was kept in place of the first
    value = parent[path[-1]]
    parent["@"] = {**value, "term_power": 1.0} if isinstance(value, dict) else value + 1
    text = json.dumps(obj, indent=2).replace('"@"', json.dumps(path[-1]))
    with pytest.raises(ValueError, match=f"^JSON report repeats its '{path[-1]}' field$"):
        read_report(text, "json")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_with_an_unknown_algorithm_row_raises(fmt):
    text = write_report(analyze_trace(RANDOM), fmt)
    if fmt == "csv":
        lines = text.splitlines()
        assert lines[4].startswith("SORT,")
        lines.insert(5, "XF" + lines[4][len("SORT"):])
        text = "\n".join(lines) + "\n"
    else:
        obj = json.loads(text)
        obj["per_algorithm"]["XF"] = obj["per_algorithm"]["SORT"]
        text = json.dumps(obj)
    with pytest.raises(ValueError, match=f"^{fmt.upper()} report has an unknown algorithm row 'XF'$"):
        read_report(text, fmt)


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
    (("note",), 1, "note"),
    (("meta",), {}, "meta"),  # the meta fields sit at the top level, not in a section
    (("totals", "note"), 1, "note"),
    (("per_algorithm", "SORT", "note"), 1, "note"),
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


@given(
    st.binary(min_size=1, max_size=300),
    st.sets(st.sampled_from(list(Algorithm))),
    st.sampled_from(OP_FILTERS),
    st.booleans(),
)
def test_csv_and_json_reports_read_back_equal(payload, algorithms, op_filter, flags_in_power):
    try:
        stats = analyze_trace(_trace(payload), algorithms,
                              include_flag_power=flags_in_power, op_filter=op_filter)
    except ZeroBaseline:
        assume(False)
    from_csv, from_json = (read_report(write_report(stats, fmt), fmt) for fmt in ("csv", "json"))
    assert from_csv == from_json
    assert (from_csv.frame_count, from_csv.totals) == (stats.frame_count, stats.totals)
    assert (from_csv.op_filter, from_csv.flags_in_power) == (op_filter, flags_in_power)
    assert set(from_csv.per_algorithm) == set(stats.per_algorithm)
    for read in (stats, from_csv, from_json):  # every row against the NONE row
        none = read.per_algorithm[Algorithm.NONE]
        assert none.term_ratio_percent == 100.0
        for report in read.per_algorithm.values():
            assert (report.switch_ratio_percent is None) == (none.switch_power_encoded == 0)


@given(
    arrays(np.uint16, st.tuples(st.just(2), st.integers(1, 40))),
    st.sampled_from(["csv", "json"]),
    st.booleans(),
)
def test_report_reads_back_the_counts_it_was_written_from(masks, fmt, flags_in_power):
    masks[1] &= ~masks[0]  # disjoint rows
    try:
        stats = analyze_trace(FrameStream(masks, 0), include_flag_power=flags_in_power)
    except ZeroBaseline:
        assume(False)
    read = read_report(write_report(stats, fmt), fmt)
    assert stats.frame_count == masks.shape[1]
    assert read.frame_count == stats.frame_count
    assert read.totals == stats.totals
    # the exact shares, not the report's 4-decimal text
    assert read.distribution_percent == stats.distribution_percent
    with pytest.raises(TypeError):  # frame_count follows from the totals
        dataclasses.replace(stats, frame_count=1)


# Every report field as (section, name, kind); meta fields are at the top
# level of a JSON report and in the meta row of a CSV report.
REPORT_FIELDS = [
    ("per_algorithm", "term_power", "number"),
    ("per_algorithm", "term_ratio_percent", "ratio"),
    ("per_algorithm", "switch_power", "number"),
    ("per_algorithm", "switch_ratio_percent", "ratio"),
    ("totals", "cnt_neg", "count"),
    ("totals", "cnt_zero", "count"),
    ("totals", "cnt_pos", "count"),
    ("distribution_percent", "-1", "number"),
    ("distribution_percent", "0", "number"),
    ("distribution_percent", "+1", "number"),
    ("meta", "frame_count", "count"),
    ("meta", "op_filter", "op filter"),
    ("meta", "flags_in_power", "bool"),
]
# Bad values by kind, each as (JSON value, CSV cell text). DELETE removes
# the JSON field and cuts the CSV row short just before the field.
BAD_VALUES = {
    "count": [(DELETE, None), (1.5, "1.5"), ("7", "x7"), (None, ""),
              (True, "true"), (False, "false"), (-3, "-3")],
    "number": [(DELETE, None), ("1.5", "x"), (None, ""), (True, "true"), ([], "[]"),
               (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (math.inf, "1e999"),
               (10**400, "1" + "0" * 400)],
    "ratio": [(DELETE, None), ("1.5", "x"), (True, "true"), ({}, "{}"),
              (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (math.inf, "1e999"),
              (10**400, "1" + "0" * 400)],
    "bool": [(DELETE, None), ("yes", "banana"), (1, "1"), (None, ""), ("true", "True")],
    "op filter": [(DELETE, None), ("bogus", "bogus"), (3, "3"), (None, ""), ("ALL", "ALL")],
}
BAD_REPORTS = [
    pytest.param(section, name, json_value, csv_text, id=f"{name}-{kind}-{i}")
    for section, name, kind in REPORT_FIELDS
    for i, (json_value, csv_text) in enumerate(BAD_VALUES[kind])
]


def _names_field(exc, name: str) -> bool:
    return name in str(exc.value).split()


@pytest.mark.parametrize("section, name, json_value, csv_text", BAD_REPORTS)
def test_both_readers_reject_bad_field(section, name, json_value, csv_text):
    stats = analyze_trace(RANDOM, op_filter="read", include_flag_power=True)
    obj = json.loads(write_report(stats, "json"))
    parent = obj if section == "meta" else obj[section]
    if section == "per_algorithm":
        parent = parent["SORT"]
    if json_value is DELETE:
        del parent[name]
    else:
        parent[name] = json_value
    with pytest.raises(ValueError) as exc:
        read_report(json.dumps(obj), "json")
    assert _names_field(exc, name)

    with pytest.raises(ValueError) as exc:
        read_report(_csv_edited(stats, section, name, lambda _: csv_text), "csv")
    assert _names_field(exc, name)


def _csv_edited(stats, section: str, name: str, edit) -> str:
    """The CSV report of stats with the text of field name in section's row
    (SORT's, for an algorithm field) replaced by edit(text), or the row cut
    short just before the field if edit gives None."""
    label = "SORT" if section == "per_algorithm" else section
    names = [n for s, n, _ in REPORT_FIELDS if s == section]
    lines = write_report(stats, "csv").splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(label + ","))
    cells = lines[row].split(",")
    column = 1 + names.index(name)
    text = edit(cells[column])
    cells[column:] = [] if text is None else [text, *cells[column + 1:]]
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# CSV cells that read as a valid value but are not the text the writer
# writes for it, as (field, edit of the written text)
NONCANONICAL_CELLS = [
    pytest.param("frame_count", lambda t: f"{t[0]}_{t[1:]}", id="frame_count-underscore"),
    pytest.param("frame_count", lambda t: " " + t, id="frame_count-space"),
    pytest.param("frame_count", lambda t: "+" + t, id="frame_count-plus"),
    pytest.param("term_power", lambda t: f"{t[0]}_{t[1:]}", id="term_power-underscore"),
    *(pytest.param(name, lambda _, cell=cell: cell, id=f"{name}-{label}")
      for _, name, kind in REPORT_FIELDS if kind in ("number", "ratio")
      for cell, label in ((" 1.5", "space"), ("1e1", "exponent"))),
]


@pytest.mark.parametrize("name, edit", NONCANONICAL_CELLS)
def test_csv_reader_takes_only_the_writers_text(name, edit):
    stats = analyze_trace(RANDOM, op_filter="read", include_flag_power=True)
    section = next(s for s, n, _ in REPORT_FIELDS if n == name)
    with pytest.raises(ValueError, match="is malformed") as exc:
        read_report(_csv_edited(stats, section, name, edit), "csv")
    assert _names_field(exc, name)


def _merged(obj: dict, edit: dict) -> dict:
    """obj with edit's fields put in, a dict in both merged field by field."""
    return {**obj, **{key: _merged(obj[key], value) if isinstance(value, dict)
                      and isinstance(obj.get(key), dict) else value
                      for key, value in edit.items()}}


@pytest.mark.parametrize("fmt, edit", [
    ("csv", "meta,1000,all,banana"),  # was read as False
    ("json", {"frame_count": True}),  # a bool was taken for a count
    ("json", {"totals": {"cnt_neg": False, "cnt_zero": 0, "cnt_pos": 0}}),
    ("csv", "meta,1000,bogus,false"),
    ("json", {"op_filter": "bogus"}),
    ("csv", "meta,-3,all,false"),
    ("json", {"frame_count": -3}),
    # unknown fields, which the CSV reader rejects as an extra cell
    ("json", {"note": 1}),
    ("json", {"per_algorithm": {"SORT": {"note": 1}}}),
    ("json", {"totals": {"note": 1}}),
])
def test_readers_reject_reports_one_of_them_accepted(fmt, edit):
    stats = analyze_trace(RANDOM)
    if fmt == "csv":
        lines = write_report(stats, "csv").splitlines()
        assert lines[-1] == "meta,1000,all,false"
        text = "\n".join(lines[:-1] + [edit]) + "\n"
    else:
        text = json.dumps(_merged(json.loads(write_report(stats, "json")), edit))
    with pytest.raises(ValueError):
        read_report(text, fmt)


GOLDEN = Path(__file__).resolve().parent / "golden"


# Reports whose numbers contradict each other, as edits of the golden
# zero_all report: (CSV text, its replacement, JSON edit, the error).
CONTRADICTIONS = {
    "NONE term ratio": ("NONE,205.0700,100.0000,", "NONE,205.0700,50.0000,",
                        {"per_algorithm": {"NONE": {"term_ratio_percent": 50.0}}},
                        "^{} report NONE row field term_ratio_percent is 50.0000, not 100.0000$"),
    "NONE switch ratio empty": ("19365.0000,100.0000\n", "19365.0000,\n",
                                {"per_algorithm": {"NONE": {"switch_ratio_percent": None}}},
                                "^{} report NONE row field switch_ratio_percent is empty, "
                                "not 100.0000$"),
    "NONE never switches": ("100.0000,19365.0000,", "100.0000,0.0000,",
                            {"per_algorithm": {"NONE": {"switch_power": 0.0}}},
                            "^{} report NONE row field switch_ratio_percent is 100.0000, "
                            "not empty$"),
    "DBI switch ratio empty": ("19205.0000,99.1738\n", "19205.0000,\n",
                               {"per_algorithm": {"DBI": {"switch_ratio_percent": None}}},
                               "^{} report DBI row field switch_ratio_percent is empty, "
                               "but NONE's is 100.0000$"),
    "DBI switch ratio set": ("100.0000,19365.0000,100.0000\n", "100.0000,0.0000,\n",
                             {"per_algorithm": {"NONE": {"switch_power": 0.0,
                                                         "switch_ratio_percent": None}}},
                             "^{} report DBI row field switch_ratio_percent is 99.1738, "
                             "but NONE's is empty$"),
    "SORT above DBI": ("SORT,48.0250,", "SORT,999.0000,",
                       {"per_algorithm": {"SORT": {"term_power": 999.0}}},
                       "^{} report SORT row field term_power is 999.0000, above DBI's 53.6200$"),
    "SORT above MF": ("MF,53.8100,", "MF,40.0000,",
                      {"per_algorithm": {"MF": {"term_power": 40.0}}},
                      "^{} report SORT row field term_power is 48.0250, above MF's 40.0000$"),
    "frame_count": ("meta,1649,", "meta,7,", {"frame_count": 7},
                    "^{} report field frame_count is 7, but its totals sum to 26384, "
                    "not 16 \\* 7$"),
    "-1 share": ("distribution_percent,70.5958,", "distribution_percent,99.0000,",
                 {"distribution_percent": {"-1": 99.0}},
                 "^{} report distribution_percent field -1 is 99.0000, but its totals give "
                 "70.5958$"),
    "+1 share": (",15.1455\n", ",15.1456\n", {"distribution_percent": {"+1": 15.1456}},
                 "^{} report distribution_percent field \\+1 is 15.1456, but its totals give "
                 "15.1455$"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", CONTRADICTIONS)
def test_readers_reject_a_report_that_contradicts_itself(fmt, case):
    old, new, edit, error = CONTRADICTIONS[case]
    text = (GOLDEN / f"zero_all.{fmt}").read_text()
    read_report(text, fmt)
    if fmt == "csv":
        assert text.count(old) == 1
        text = text.replace(old, new)
    else:
        text = json.dumps(_merged(json.loads(text), edit))
    with pytest.raises(ValueError, match=error.format(fmt.upper())):
        read_report(text, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_readers_reject_a_report_of_no_frames(fmt):
    """analyze_trace raises EmptyStream on no frames, so no report has
    none, and the distribution of none would be 0 / 0."""
    text = (GOLDEN / f"zero_all.{fmt}").read_text()
    if fmt == "csv":
        text = text.replace("totals,18626,3762,3996", "totals,0,0,0")
        text = text.replace("meta,1649,", "meta,0,")
    else:
        no_frames = {"frame_count": 0, "totals": {"cnt_neg": 0, "cnt_zero": 0, "cnt_pos": 0}}
        text = json.dumps(_merged(json.loads(text), no_frames))
    with pytest.raises(ValueError, match=f"^{fmt.upper()} report field frame_count is 0, "
                                         "not at least 1$"):
        read_report(text, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sort_above_dbi_and_mf_reads_with_flags_in_power(fmt):
    """With flags in power SORT drives three flag wires, so no order holds."""
    rows = read_report((GOLDEN / f"zero_flags_write.{fmt}").read_text(), fmt).per_algorithm
    assert rows[Algorithm.SORT].term_power_encoded > rows[Algorithm.DBI].term_power_encoded


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_readers_accept_trailing_whitespace_only(fmt):
    text = write_report(analyze_trace(RANDOM), fmt)
    assert read_report(text + "\n \n", fmt) == read_report(text, fmt)
    with pytest.raises(ValueError):
        read_report(text + "\nx\n", fmt)


def test_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_report(analyze_trace(ALL_ZERO), "xml")
