"""Command-line front end: encode, decode, analyze, distribution, gen-random.

All subcommands read stdin / write stdout when a path is - (the default),
so pipelines like `pam3codec gen-random ... | pam3codec analyze ...` work
without temporary files. Exit codes: 0 success, 1 usage error, 2 input or
parse error.

Inputs are read in blocks of _READ_SIZE bytes by traceio's chunked
readers and writer (read_trace, read_encoded, write_encoded), so every
subcommand but gen-random holds a few blocks at a time, whatever the size
of its input. Outputs go through a spool (_spool), a seekable temporary
file that becomes the output only when the command succeeds: a failed
run leaves stdout empty and the output path as it was.
"""

from __future__ import annotations

import argparse
import os
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from typing import BinaryIO, Iterator

from .analysis import analyze_trace, signal_distribution, write_distribution, write_report
from .encoders import Algorithm
from .errors import Pam3Error
from .power import DEFAULT_MODEL
from .traceio import (
    OP_FILTERS,
    TRACE_FORMATS,
    FrameStream,
    frame_records,  # not called; perfbench/layers.py wraps this site
    generate_random_trace,
    parse_raw_trace,  # not called; perfbench/layers.py wraps this site
    parse_text_trace,  # not called; perfbench/layers.py wraps this site
    read_encoded,
    read_trace,
    write_encoded,
)

# Bytes per read of a trace or of encoded text: every command holds a few
# chunks of this size, whatever the size of its input.
_READ_SIZE = 1 << 18

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


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pam3codec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, binary_out=False):
        p.add_argument("--input", "-i", default="-", help="input path, - for stdin")
        p.add_argument("--output", "-o", default="-",
                       help="output path, - for stdout" + (" (binary)" if binary_out else ""))

    def add_trace_opts(p):
        p.add_argument("--format", choices=TRACE_FORMATS, default="text",
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
    p.add_argument("--seed", type=_non_negative_int, required=True)
    p.add_argument("--output", "-o", default="-", help="output path, - for stdout (binary)")

    return parser


def _frames(f, args) -> Iterator[FrameStream]:
    return read_trace(f, args.format, args.op_filter, _READ_SIZE)


def _open_input(path: str):
    return nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


def _spool(path: str):
    """A seekable file for a command's output that reaches path, - for
    stdout, only if the with block ends without an error, so a failed run
    writes nothing.

    A regular file, or a new one, is spooled to a temporary file in its
    directory and renamed over it at the end. stdout, a regular file in a
    directory that is not writable and any other kind of file (a device, a
    pipe) are spooled to an anonymous temporary file and copied out at the
    end.
    """
    if path != "-":
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            return _replacing(path, None)
        if stat.S_ISREG(mode) and os.access(os.path.dirname(os.path.realpath(path)), os.W_OK):
            return _replacing(path, stat.S_IMODE(mode))
    return _copying(path)


@contextmanager
def _replacing(path: str, mode: int | None) -> Iterator[BinaryIO]:
    """The spool of a regular file; the file it becomes is new, with the
    mode of the file it replaces or, given None, the mode open() gives."""
    target = os.path.realpath(path)  # through a symbolic link, as open() writes
    if mode is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    try:
        fd, temp = tempfile.mkstemp(prefix=".pam3codec-", dir=os.path.dirname(target))
    except OSError as exc:  # name the output, not the spool
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w+b") as spool:
            yield spool
        os.chmod(temp, mode)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


@contextmanager
def _copying(path: str) -> Iterator[BinaryIO]:
    with tempfile.TemporaryFile() as spool:
        yield spool
        spool.seek(0)
        if path == "-":
            shutil.copyfileobj(spool, sys.stdout.buffer, _READ_SIZE)
            sys.stdout.buffer.flush()
        else:
            with open(path, "wb") as out:
                shutil.copyfileobj(spool, out, _READ_SIZE)


def _write_binary(path: str, data: bytes):
    with _spool(path) as out:
        out.write(data)


def _cmd_encode(args) -> int:
    with _open_input(args.input) as f, _spool(args.output) as out:
        write_encoded(out, _ALG_CHOICES[args.alg], _frames(f, args))
    return 0


def _cmd_decode(args) -> int:
    with _open_input(args.input) as f, _spool(args.output) as out:
        for piece in read_encoded(f, _READ_SIZE):
            out.write(piece)
    return 0


def _cmd_analyze(args) -> int:
    algorithms = None if args.alg == "all" else [_ALG_CHOICES[args.alg]]
    with _open_input(args.input) as f:
        stats = analyze_trace(
            _frames(f, args),
            algorithms,
            DEFAULT_MODEL,
            include_flag_power=args.include_flag_power,
            op_filter=args.op_filter,
        )
    _write_binary(args.output, write_report(stats, args.report).encode("ascii"))
    return 0


def _cmd_distribution(args) -> int:
    with _open_input(args.input) as f:
        distribution = signal_distribution(_frames(f, args))
    _write_binary(args.output, write_distribution(distribution, args.report).encode("ascii"))
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
