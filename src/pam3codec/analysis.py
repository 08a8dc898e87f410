"""Trace-level evaluation: per-algorithm power totals, ratios, and reports.

Every frame is encoded independently (per-frame flags). Termination totals
come from exact summed symbol counts; switching totals include inter-frame
transitions on each physical line. Flag wires are excluded from the power
accounting unless include_flag_power is set, in which case they add to the
termination side only, as binary lines (0 bit at level -1, 1 bit at +1).
The symbol distribution needs only the popcounts of the -1 and +1 masks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

import numpy as np

from . import bulk
from .core import SymbolCounts
from .encoders import Algorithm
from .errors import EmptyStream
from .power import PowerReport, termination_ratio
from .traceio import OP_FILTERS, FrameStream, kept_ops


@dataclass(frozen=True)
class TraceStats:
    """What analysis measured over one trace: level totals, power rows and
    meta. frame_count and distribution_percent follow from the totals.
    per_algorithm is kept as a read-only copy of the mapping given."""

    totals: SymbolCounts
    per_algorithm: Mapping[Algorithm, PowerReport]
    op_filter: str = "all"
    flags_in_power: bool = False

    def __post_init__(self):
        object.__setattr__(self, "per_algorithm", MappingProxyType(dict(self.per_algorithm)))

    @property
    def frame_count(self) -> int:
        return sum(self.totals.as_tuple()) // 16  # 16 levels per frame

    @property
    def distribution_percent(self) -> tuple[float, float, float]:
        return _percentages(self.totals.as_tuple(), self.frame_count)


def _percentages(counts, frame_count: int) -> tuple[float, float, float]:
    denom = 16 * frame_count
    return tuple(100.0 * t / denom for t in counts)


def _chunks(streams: FrameStream | Iterable[FrameStream]) -> Iterable[FrameStream]:
    """The chunks of streams in order; one FrameStream is one chunk."""
    return (streams,) if isinstance(streams, FrameStream) else streams


def signal_distribution(
    streams: FrameStream | Iterable[FrameStream],
) -> tuple[float, float, float]:
    """Percentage of -1, 0, +1 symbols over the whole stream, given as one
    FrameStream or in chunks in order: popcounts of the -1 and +1 masks,
    the rest of the 16 symbols per frame at 0."""
    frame_count, signed = 0, np.zeros(2, dtype=np.int64)  # the -1s and the +1s
    for stream in _chunks(streams):
        frame_count += len(stream)
        signed += np.bitwise_count(stream.masks).sum(axis=1, dtype=np.int64)
    if frame_count == 0:
        raise EmptyStream("distribution needs at least one frame")
    neg, pos = signed.tolist()
    return _percentages((neg, 16 * frame_count - neg - pos, pos), frame_count)


def analyze_trace(
    streams: FrameStream | Iterable[FrameStream],
    algorithms: Optional[Iterable[Algorithm]] = None,
    *,
    include_flag_power: bool = False,
    op_filter: str = "all",
) -> TraceStats:
    """Power totals of the stream under each algorithm against the baseline.

    streams is one FrameStream or the stream's chunks in order. algorithms
    is an iterable of Algorithms or their exact names, each taken by
    Algorithm(x). The NONE baseline row is always present. op_filter only
    records, in the report's meta, the filter the stream was read with;
    read_trace filters. The arguments are checked before any stream is read.
    Raises ZeroBaseline when the unencoded trace has zero termination
    power; a zero switching baseline just leaves the switching ratios
    undefined (None).
    """
    if isinstance(algorithms, (str, Algorithm)):
        raise TypeError(f"algorithms must be an iterable of algorithms, got {algorithms!r}")
    requested = {Algorithm.NONE, *map(Algorithm, Algorithm if algorithms is None else algorithms)}
    kept_ops(op_filter)  # ValueError for an unknown op filter
    if not isinstance(include_flag_power, bool):
        raise TypeError(f"include_flag_power must be a bool, got {include_flag_power!r}")
    stats = bulk.StreamStats()
    for stream in _chunks(streams):
        stats.update(stream.masks)
    if stats.frame_count == 0:
        raise EmptyStream("analysis needs at least one frame")

    per_algorithm = {}
    for alg in Algorithm:
        if alg not in requested:
            continue
        term = stats.termination_total(alg)
        if include_flag_power:
            term += stats.flag_termination_total(alg)
        switch = stats.switching_total(alg)
        if alg is Algorithm.NONE:  # NONE comes first: its powers are the baseline
            base_term, base_switch = term, switch
        per_algorithm[alg] = PowerReport(
            term, termination_ratio(term, base_term),
            switch, termination_ratio(switch, base_switch) if base_switch else None)

    totals = SymbolCounts(*stats.counts().tolist())
    return TraceStats(totals, per_algorithm, op_filter, include_flag_power)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def _report_format(fmt: str) -> str:
    """fmt in lower case; ValueError unless it is csv or json."""
    fmt = fmt.lower()
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"report format must be csv or json, got {fmt!r}")
    return fmt


REPORT_FORMATS = ("csv", "json")
# The report schema: every field's name and kind, by section. The meta
# fields sit at the top level of the JSON object and in the CSV meta row;
# the per_algorithm fields repeat in every algorithm's row.
_SCHEMA = {
    "per_algorithm": (("term_power", "number"), ("term_ratio_percent", "ratio"),
                      ("switch_power", "number"), ("switch_ratio_percent", "ratio")),
    "totals": (("cnt_neg", "count"), ("cnt_zero", "count"), ("cnt_pos", "count")),
    "distribution_percent": (("-1", "number"), ("0", "number"), ("+1", "number")),
    "meta": (("frame_count", "count"), ("op_filter", "op filter"), ("flags_in_power", "bool")),
}


class _Kind(NamedTuple):
    valid: Callable  # whether a report object's value is one of the kind
    text: Callable  # the CSV text of a value
    value: Callable  # the value of a CSV cell's text; ValueError or KeyError if none


def _finite(v) -> bool:
    """Whether v is an int or float with a finite float value; an int past
    the float range has none."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


_KINDS = {
    # type, not isinstance: bool is an int
    "count": _Kind(lambda v: type(v) is int and v >= 0, str, int),
    "number": _Kind(_finite, _fmt, float),
    # None: the ratio is undefined
    "ratio": _Kind(lambda v: v is None or _finite(v), _fmt,
                   lambda text: float(text) if text else None),
    "bool": _Kind(lambda v: type(v) is bool, json.dumps,
                  {"true": True, "false": False}.__getitem__),
    "op filter": _Kind(lambda v: v in OP_FILTERS, str, str),
}
# The CSV rows after the algorithm rows, in blocks under a `section,...`
# header that names the fields of the block's first section.
_CSV_BLOCKS = (("totals", "distribution_percent"), ("meta",))
_SIGNAL_KEYS = tuple(name for name, _ in _SCHEMA["distribution_percent"])


def _fields_of(obj: dict, section: str) -> dict:
    """The dict that holds section's fields in a report object, made if missing."""
    return obj if section == "meta" else obj.setdefault(section, {})


def write_report(stats: TraceStats, fmt: str = "csv") -> str:
    """Serialize TraceStats as one JSON-shaped object, numbers rounded to 4
    decimals, written as JSON or as the CSV sections; field order is fixed."""
    def fields(section, values):
        return {name: round(v, 4) if kind in ("number", "ratio") and v is not None else v
                for (name, kind), v in zip(_SCHEMA[section], values)}
    obj = {
        **fields("meta", (stats.frame_count, stats.op_filter, stats.flags_in_power)),
        "totals": fields("totals", stats.totals.as_tuple()),
        "distribution_percent": fields("distribution_percent", stats.distribution_percent),
        "per_algorithm": {alg.value: fields("per_algorithm", row)
                          for alg, row in stats.per_algorithm.items()},
    }
    return _write_csv(obj) if _report_format(fmt) == "csv" else json.dumps(obj, indent=2) + "\n"


def read_report(text: str, fmt: str = "csv") -> TraceStats:
    """Parse a report emitted by write_report back into TraceStats.

    Both formats give one report object, which one validator checks field
    by field against the schema, then checks that the NONE row reads as the
    baseline, that each switching ratio is empty exactly when NONE's is,
    that without flags in power SORT's termination power is at most DBI's
    and MF's, that each ratio is 100 x its power / NONE's as the writer
    rounds it, that frame_count agrees with the totals, and that each
    distribution percentage is the totals' share as the writer rounds it;
    ValueError names the row or field at fault.
    """
    fmt = _report_format(fmt)
    obj = _read_csv(text) if fmt == "csv" else json.loads(text, object_pairs_hook=_json_object)
    return _stats_of(obj, fmt.upper())


def write_distribution(percent: tuple[float, float, float], fmt: str = "csv") -> str:
    """Serialize signal_distribution percentages of -1, 0, +1, each with 4
    decimals in JSON too (100.0000, where json.dumps would write 100.0)."""
    fields = [(key, _fmt(value)) for key, value in zip(_SIGNAL_KEYS, percent)]
    if _report_format(fmt) == "csv":
        return "signal,percent\n" + "".join(f"{key},{value}\n" for key, value in fields)
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}\n"


def _csv_header(first: str, section: str) -> str:
    return ",".join([first, *(name for name, _ in _SCHEMA[section])])


def _csv_line(label: str, fields: dict, section: str) -> str:
    return ",".join([label, *(_KINDS[kind].text(fields[name]) for name, kind in _SCHEMA[section])])


def _write_csv(obj: dict) -> str:
    lines = [_csv_header("algorithm", "per_algorithm")]
    lines += [_csv_line(name, row, "per_algorithm") for name, row in obj["per_algorithm"].items()]
    for block in _CSV_BLOCKS:
        lines += ["", _csv_header("section", block[0])]
        lines += [_csv_line(section, _fields_of(obj, section), section) for section in block]
    return "\n".join(lines) + "\n"


def _csv_fields(cells: list[str], section: str, label: str) -> dict:
    """The fields of one CSV row, a short row lacking its last fields. Text
    its kind cannot read, or that is not the text the writer writes for its
    value, stays text, for the validator to reject."""
    schema = _SCHEMA[section]
    if len(cells) > len(schema):
        raise ValueError(f"CSV report {label} row has {len(cells)} fields, not {len(schema)}")
    fields = {}
    for (name, kind), text in zip(schema, cells):
        try:
            value = _KINDS[kind].value(text)
            fields[name] = value if _KINDS[kind].text(value) == text else text
        except (ValueError, KeyError):
            fields[name] = text
    return fields


def _read_csv(text: str) -> dict:
    """A CSV report as the report object of its JSON form, not yet checked."""
    lines = text.rstrip().splitlines()  # trailing whitespace, as JSON allows
    if not lines or lines[0] != _csv_header("algorithm", "per_algorithm"):
        raise ValueError("not a pam3codec CSV report")
    obj = {"per_algorithm": {}}
    i = 1
    while i < len(lines) and lines[i]:
        name, *cells = lines[i].split(",")
        if name in obj["per_algorithm"]:
            raise ValueError(f"CSV report has a second {name} row, on line {i + 1}")
        obj["per_algorithm"][name] = _csv_fields(cells, "per_algorithm", name)
        i += 1
    for block in _CSV_BLOCKS:
        if lines[i:i + 2] != ["", _csv_header("section", block[0])]:
            raise ValueError(f"CSV report lacks its {block[0]} header")
        i += 2
        for section in block:
            label, *cells = lines[i].split(",") if i < len(lines) else [""]
            if label != section:
                raise ValueError(f"CSV report lacks its {section} row")
            _fields_of(obj, section).update(_csv_fields(cells, section, section))
            i += 1
    if i < len(lines):
        raise ValueError(f"CSV report has text after its meta row, on line {i + 1}")
    return obj


def _json_object(pairs: list) -> dict:
    """A JSON report object from its pairs; ValueError names a field it repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON report repeats its {key!r} field")
        obj[key] = value
    return obj


def _values(fields, section: str, where: str) -> tuple:
    """The values of section's fields, each checked against its kind;
    ValueError names the field."""
    values = []
    for name, kind in _SCHEMA[section]:
        if not isinstance(fields, dict) or name not in fields:
            raise ValueError(f"{where} lacks its {name} field")
        value = fields[name]
        if not _KINDS[kind].valid(value):
            raise ValueError(f"{where} field {name} is malformed: {value!r}")
        values.append(float(value) if kind in ("number", "ratio") and value is not None else value)
    known = [name for name, _ in _SCHEMA[section]]
    if section == "meta":  # the other sections sit beside the meta fields
        known += [other for other in _SCHEMA if other != "meta"]
    unknown = [name for name in fields if name not in known]
    if unknown:
        raise ValueError(f"{where} has an unknown field {unknown[0]!r}")
    return tuple(values)


def _stats_of(obj, fmt: str) -> TraceStats:
    """The one validator: TraceStats of a report object, checked against the
    schema and against itself where read_report says."""
    def part(section: str) -> dict:
        if not isinstance(obj, dict) or not isinstance(obj.get(section), dict):
            raise ValueError(f"{fmt} report lacks its {section} section")
        return obj[section]

    totals, distribution = (_values(part(section), section, f"{fmt} report {section}")
                            for section in ("totals", "distribution_percent"))
    rows = part("per_algorithm")
    unknown = [name for name in rows if name not in {alg.value for alg in Algorithm}]
    if unknown:
        raise ValueError(f"{fmt} report has an unknown algorithm row {unknown[0]!r}")
    per_algorithm = {Algorithm(name): PowerReport(*_values(row, "per_algorithm",
                                                           f"{fmt} report {name} row"))
                     for name, row in rows.items()}
    if Algorithm.NONE not in per_algorithm:
        raise ValueError("report lacks the NONE baseline row")
    frame_count, op_filter, flags_in_power = _values(obj, "meta", f"{fmt} report")
    none = per_algorithm[Algorithm.NONE]
    # the baseline's ratios to itself; its switching ratio is undefined if it never switches
    for name, ratio in (("term_ratio_percent", 100.0),
                        ("switch_ratio_percent", 100.0 if none.switch_power_encoded else None)):
        found = getattr(none, name)
        if found != ratio:
            raise ValueError(f"{fmt} report NONE row field {name} is {_fmt(found) or 'empty'}, "
                             f"not {_fmt(ratio) or 'empty'}")
    sort = per_algorithm.get(Algorithm.SORT)
    for alg, row in per_algorithm.items():
        if (row.switch_ratio_percent is None) != (none.switch_ratio_percent is None):
            raise ValueError(f"{fmt} report {alg.value} row field switch_ratio_percent is "
                             f"{_fmt(row.switch_ratio_percent) or 'empty'}, but NONE's is "
                             f"{_fmt(none.switch_ratio_percent) or 'empty'}")
        # the paper's invariant; with flags in power SORT drives more flag wires
        if (sort is not None and alg in (Algorithm.DBI, Algorithm.MF) and not flags_in_power
                and sort.term_power_encoded > row.term_power_encoded):
            raise ValueError(f"{fmt} report SORT row field term_power is "
                             f"{_fmt(sort.term_power_encoded)}, above {alg.value}'s "
                             f"{_fmt(row.term_power_encoded)}")
        # each ratio is 100 x the row's power / NONE's, rounded to 4 decimals:
        # off by at most 0.00005, and by float error
        for i, name in ((0, "term_ratio_percent"), (2, "switch_ratio_percent")):
            found, ratio = row[i + 1], (row[i] / none[i] * 100.0 if none[i] else math.nan)
            if found is not None and not abs(found - ratio) <= 0.00005 + 1e-9 * abs(ratio):
                raise ValueError(f"{fmt} report {alg.value} row field {name} is {_fmt(found)}, "
                                 f"but its powers give {_fmt(ratio)}")
    if 16 * frame_count != sum(totals):
        raise ValueError(f"{fmt} report field frame_count is {frame_count}, but its totals "
                         f"sum to {sum(totals)}, not 16 * {frame_count}")
    if not frame_count:
        raise ValueError(f"{fmt} report field frame_count is 0, not at least 1")
    for key, found, share in zip(_SIGNAL_KEYS, distribution, _percentages(totals, frame_count)):
        if found != round(share, 4):
            raise ValueError(f"{fmt} report distribution_percent field {key} is {_fmt(found)}, "
                             f"but its totals give {_fmt(share)}")
    return TraceStats(SymbolCounts(*totals), per_algorithm, op_filter, flags_in_power)
