"""Command-line front end: encode, decode, analyze, distribution, gen-random.

All subcommands read stdin / write stdout when a path is - (the default),
so pipelines like `pam3codec gen-random ... | pam3codec analyze ...` work
without temporary files. Exit codes: 0 success, 1 usage error, 2 input or
parse error.
"""

from __future__ import annotations

import argparse
import sys

from . import bulk
from .analysis import analyze_trace, signal_distribution, write_distribution, write_report
from .encoders import Algorithm
from .errors import Pam3Error
from .power import DEFAULT_MODEL
from .traceio import (
    OP_FILTERS,
    TraceColumns,
    decode_encoded,
    format_encoded,
    frame_records,
    generate_random_trace,
    parse_raw_trace,
    parse_text_columns,
    parse_text_trace,
)

_ALG_CHOICES = {"none": Algorithm.NONE, "dbi": Algorithm.DBI,
                "mf": Algorithm.MF, "sort": Algorithm.SORT}


class _Parser(argparse.ArgumentParser):
    # contract says usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pam3codec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, binary_out=False):
        p.add_argument("--input", "-i", default="-", help="input path, - for stdin")
        p.add_argument("--output", "-o", default="-",
                       help="output path, - for stdout" + (" (binary)" if binary_out else ""))

    def add_trace_opts(p):
        p.add_argument("--format", choices=("text", "raw"), default="text",
                       help="trace input format")
        p.add_argument("--op-filter", choices=OP_FILTERS, default="all",
                       help="keep only read or write records")

    p = sub.add_parser("encode", help="encode a trace into frame+flag text")
    p.add_argument("--alg", choices=sorted(_ALG_CHOICES), required=True)
    add_trace_opts(p)
    add_io(p)

    p = sub.add_parser("decode", help="decode frame+flag text back to payload bytes")
    add_io(p, binary_out=True)

    p = sub.add_parser("analyze", help="power report for one or all algorithms")
    p.add_argument("--alg", choices=sorted(_ALG_CHOICES) + ["all"], default="all")
    p.add_argument("--report", choices=("csv", "json"), default="csv")
    p.add_argument("--include-flag-power", action="store_true",
                   help="charge flag wires as binary lines in termination power")
    add_trace_opts(p)
    add_io(p)

    p = sub.add_parser("distribution", help="symbol distribution percentages")
    p.add_argument("--report", choices=("csv", "json"), default="csv")
    add_trace_opts(p)
    add_io(p)

    p = sub.add_parser("gen-random", help="write a raw trace of random bytes")
    p.add_argument("--bytes", type=_positive_int, required=True, dest="byte_count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", "-o", default="-", help="output path, - for stdout (binary)")

    return parser


def _read_records(args) -> TraceColumns:
    data = _read_binary(args.input)
    if args.format == "raw":
        records = TraceColumns.from_records(parse_raw_trace(data))
    else:
        records = parse_text_columns(data)
        if records is None:  # not the canonical layout, or an error
            records = TraceColumns.from_records(parse_text_trace(data))
    return records.select(args.op_filter)


def _read_binary(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as f:
        return f.read()


def _write_binary(path: str, data: bytes):
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as f:
            f.write(data)


def _cmd_encode(args) -> int:
    alg = _ALG_CHOICES[args.alg]
    stream = frame_records(_read_records(args))
    enc_masks, flags = bulk.encode_block(stream.masks, alg)
    _write_binary(args.output, format_encoded(alg, enc_masks, flags, stream.pad_bytes))
    return 0


def _cmd_decode(args) -> int:
    _write_binary(args.output, decode_encoded(_read_binary(args.input)))
    return 0


def _cmd_analyze(args) -> int:
    algorithms = None if args.alg == "all" else [_ALG_CHOICES[args.alg]]
    stream = frame_records(_read_records(args))
    stats = analyze_trace(
        stream,
        algorithms,
        DEFAULT_MODEL,
        include_flag_power=args.include_flag_power,
        op_filter=args.op_filter,
    )
    _write_binary(args.output, write_report(stats, args.report).encode("ascii"))
    return 0


def _cmd_distribution(args) -> int:
    stream = frame_records(_read_records(args))
    report = write_distribution(signal_distribution(stream), args.report)
    _write_binary(args.output, report.encode("ascii"))
    return 0


def _cmd_gen_random(args) -> int:
    records = generate_random_trace(args.byte_count, args.seed)
    _write_binary(args.output, records[0].payload)
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "analyze": _cmd_analyze,
    "distribution": _cmd_distribution,
    "gen-random": _cmd_gen_random,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (Pam3Error, OSError) as exc:
        print(f"pam3codec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
