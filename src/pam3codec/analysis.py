"""Trace-level evaluation: per-algorithm power totals, ratios, and reports.

Every frame is encoded independently (per-frame flags). Termination totals
come from exact summed symbol counts; switching totals include inter-frame
transitions on each physical line. Flag wires are excluded from the power
accounting unless include_flag_power is set, in which case they add to the
termination side only, as binary lines (0 bit at level -1, 1 bit at +1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from . import bulk
from .core import SymbolCounts
from .encoders import CANONICAL_ORDER, Algorithm
from .errors import EmptyStream
from .power import DEFAULT_MODEL, PowerModel, PowerReport, compare_powers
from .traceio import OP_FILTERS, FrameStream

_SIGNAL_KEYS = ("-1", "0", "+1")


@dataclass(frozen=True)
class TraceStats:
    """Aggregated counts, power totals, and ratios over one trace."""

    frame_count: int
    totals: SymbolCounts
    distribution_percent: tuple[float, float, float]
    per_algorithm: dict[Algorithm, PowerReport]
    op_filter: str = "all"
    flags_in_power: bool = False


def _percentages(counts, frame_count: int) -> tuple[float, float, float]:
    denom = 16 * frame_count
    return tuple(100.0 * int(t) / denom for t in counts)


def signal_distribution(stream: FrameStream) -> tuple[float, float, float]:
    """Percentage of -1, 0, +1 symbols over the whole stream."""
    if len(stream) == 0:
        raise EmptyStream("distribution needs at least one frame")
    return _percentages(bulk.StreamStats(stream.masks).counts(), len(stream))


def analyze_trace(
    stream: FrameStream,
    algorithms: Optional[Iterable[Algorithm]] = None,
    model: PowerModel = DEFAULT_MODEL,
    *,
    include_flag_power: bool = False,
    op_filter: str = "all",
) -> TraceStats:
    """Power totals of the stream under each algorithm against the baseline.

    The NONE baseline row is always present. Raises ZeroBaseline when the
    unencoded trace has zero termination power; a zero switching baseline
    just leaves the switching ratios undefined (None).
    """
    if len(stream) == 0:
        raise EmptyStream("analysis needs at least one frame")
    if op_filter not in OP_FILTERS:
        raise ValueError(f"op_filter must be one of {OP_FILTERS}, got {op_filter!r}")
    requested = set(algorithms) if algorithms is not None else set(CANONICAL_ORDER)
    requested.add(Algorithm.NONE)

    stats = bulk.StreamStats(stream.masks)
    powers = {}
    for alg in CANONICAL_ORDER:
        if alg not in requested:
            continue
        term = stats.termination_total(alg, model)
        if include_flag_power:
            term += stats.flag_termination_total(alg, model)
        powers[alg] = (term, stats.switching_total(alg, model))
    base_term, base_switch = powers[Algorithm.NONE]
    per_algorithm = {
        alg: compare_powers(base_term, term, base_switch, switch)
        for alg, (term, switch) in powers.items()
    }

    totals = stats.counts()
    return TraceStats(
        frame_count=len(stream),
        totals=SymbolCounts(int(totals[0]), int(totals[1]), int(totals[2])),
        distribution_percent=_percentages(totals, len(stream)),
        per_algorithm=per_algorithm,
        op_filter=op_filter,
        flags_in_power=include_flag_power,
    )


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.4f}"


def _report_format(fmt: str) -> str:
    """fmt in lower case; ValueError unless it is csv or json."""
    fmt = fmt.lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"report format must be csv or json, got {fmt!r}")
    return fmt


def write_report(stats: TraceStats, fmt: str = "csv") -> str:
    """Serialize TraceStats; field order is fixed and ratios use 4 decimals."""
    return _write_csv(stats) if _report_format(fmt) == "csv" else _write_json(stats)


def read_report(text: str, fmt: str = "csv") -> TraceStats:
    """Parse a report emitted by write_report back into TraceStats."""
    return _read_csv(text) if _report_format(fmt) == "csv" else _read_json(text)


def write_distribution(percent: tuple[float, float, float], fmt: str = "csv") -> str:
    """Serialize signal_distribution percentages of -1, 0, +1, each with 4
    decimals in JSON too (100.0000, where json.dumps would write 100.0)."""
    fields = [(key, _fmt(value)) for key, value in zip(_SIGNAL_KEYS, percent)]
    if _report_format(fmt) == "csv":
        return "signal,percent\n" + "".join(f"{key},{value}\n" for key, value in fields)
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields) + "\n}\n"


def _write_csv(stats: TraceStats) -> str:
    lines = ["algorithm,term_power,term_ratio_percent,switch_power,switch_ratio_percent"]
    for alg, report in stats.per_algorithm.items():
        lines.append(
            f"{alg.value},{_fmt(report.term_power_encoded)},"
            f"{_fmt(report.term_ratio_percent)},{_fmt(report.switch_power_encoded)},"
            f"{_fmt(report.switch_ratio_percent)}"
        )
    lines.append("")
    lines.append("section,cnt_neg,cnt_zero,cnt_pos")
    lines.append(f"totals,{stats.totals.neg},{stats.totals.zero},{stats.totals.pos}")
    d = stats.distribution_percent
    lines.append(f"distribution_percent,{_fmt(d[0])},{_fmt(d[1])},{_fmt(d[2])}")
    lines.append("")
    lines.append("section,frame_count,op_filter,flags_in_power")
    lines.append(
        f"meta,{stats.frame_count},{stats.op_filter},"
        f"{'true' if stats.flags_in_power else 'false'}"
    )
    return "\n".join(lines) + "\n"


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 4)


def _write_json(stats: TraceStats) -> str:
    obj = {
        "frame_count": stats.frame_count,
        "op_filter": stats.op_filter,
        "flags_in_power": stats.flags_in_power,
        "totals": {
            "cnt_neg": stats.totals.neg,
            "cnt_zero": stats.totals.zero,
            "cnt_pos": stats.totals.pos,
        },
        "distribution_percent": {
            key: _round(v) for key, v in zip(_SIGNAL_KEYS, stats.distribution_percent)
        },
        "per_algorithm": {
            alg.value: {
                "term_power": _round(report.term_power_encoded),
                "term_ratio_percent": _round(report.term_ratio_percent),
                "switch_power": _round(report.switch_power_encoded),
                "switch_ratio_percent": _round(report.switch_ratio_percent),
            }
            for alg, report in stats.per_algorithm.items()
        },
    }
    return json.dumps(obj, indent=2) + "\n"


def _rebuild_reports(
    rows: dict[Algorithm, tuple[float, Optional[float], float, Optional[float]]],
) -> dict[Algorithm, PowerReport]:
    if Algorithm.NONE not in rows:
        raise ValueError("report lacks the NONE baseline row")
    base_term, _, base_switch, _ = rows[Algorithm.NONE]
    return {
        alg: PowerReport(
            term_power_baseline=base_term,
            term_power_encoded=term,
            term_ratio_percent=term_ratio,
            switch_power_baseline=base_switch,
            switch_power_encoded=switch,
            switch_ratio_percent=switch_ratio,
        )
        for alg, (term, term_ratio, switch, switch_ratio) in rows.items()
    }


def _csv_row(lines: list[str], index: int, label: str) -> list[str]:
    """The four fields of the row named label, expected at lines[index]."""
    row = lines[index].split(",") if index < len(lines) else []
    if len(row) != 4 or row[0] != label:
        raise ValueError(f"CSV report lacks its {label} row")
    return row


def _read_csv(text: str) -> TraceStats:
    lines = text.splitlines()
    header = "algorithm,term_power,term_ratio_percent,switch_power,switch_ratio_percent"
    if not lines or lines[0] != header:
        raise ValueError("not a pam3codec CSV report")
    rows: dict[Algorithm, tuple] = {}
    i = 1
    while i < len(lines) and lines[i]:
        name, term, term_ratio, switch, switch_ratio = lines[i].split(",")
        rows[Algorithm(name)] = (
            float(term),
            float(term_ratio) if term_ratio else None,
            float(switch),
            float(switch_ratio) if switch_ratio else None,
        )
        i += 1
    totals_row = _csv_row(lines, i + 2, "totals")
    dist_row = _csv_row(lines, i + 3, "distribution_percent")
    meta_row = _csv_row(lines, i + 6, "meta")
    totals = SymbolCounts(int(totals_row[1]), int(totals_row[2]), int(totals_row[3]))
    distribution = (float(dist_row[1]), float(dist_row[2]), float(dist_row[3]))
    return TraceStats(
        frame_count=int(meta_row[1]),
        totals=totals,
        distribution_percent=distribution,
        per_algorithm=_rebuild_reports(rows),
        op_filter=meta_row[2],
        flags_in_power=meta_row[3] == "true",
    )


_NUMBER = (int, float)
_RATIO = (int, float, type(None))  # None where the ratio is undefined
_ROW_FIELDS = (
    ("term_power", _NUMBER),
    ("term_ratio_percent", _RATIO),
    ("switch_power", _NUMBER),
    ("switch_ratio_percent", _RATIO),
)


def _json_field(obj, name: str, kind, where: str = "report"):
    """obj[name] checked to be of type kind; ValueError names the field."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"JSON {where} lacks its {name} field")
    if not isinstance(obj[name], kind):
        raise ValueError(f"JSON {where} field {name} is malformed")
    return obj[name]


def _read_json(text: str) -> TraceStats:
    obj = json.loads(text)
    totals = _json_field(obj, "totals", dict)
    distribution = _json_field(obj, "distribution_percent", dict)
    rows = {
        Algorithm(name): tuple(
            _json_field(entry, field, kind, name) for field, kind in _ROW_FIELDS
        )
        for name, entry in _json_field(obj, "per_algorithm", dict).items()
    }
    return TraceStats(
        frame_count=_json_field(obj, "frame_count", int),
        totals=SymbolCounts(*(
            _json_field(totals, key, int, "totals") for key in ("cnt_neg", "cnt_zero", "cnt_pos")
        )),
        distribution_percent=tuple(
            _json_field(distribution, key, _NUMBER, "distribution_percent") for key in _SIGNAL_KEYS
        ),
        per_algorithm=_rebuild_reports(rows),
        op_filter=_json_field(obj, "op_filter", str),
        flags_in_power=_json_field(obj, "flags_in_power", bool),
    )
