"""Command-line front end: encode, decode, analyze, distribution, gen-random.

All subcommands read stdin / write stdout when a path is - (the default),
so pipelines like `pam3codec gen-random ... | pam3codec analyze ...` work
without temporary files. Exit codes: 0 success, 1 usage error, 2 input or
parse error.

Inputs are read in blocks of _READ_SIZE bytes by traceio's chunked
readers and writer (read_trace, read_encoded, write_encoded), and
gen-random writes random_blocks, so every subcommand holds a few blocks
at a time, whatever their size. main() opens the input, then the output's
spool (_spool), before reading any input: a seekable temporary file that
becomes the output only when the command succeeds, so a failed run leaves
stdout empty and the output path as it was.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from typing import BinaryIO, Iterator

from .analysis import (REPORT_FORMATS, analyze_trace, signal_distribution, write_distribution,
                       write_report)
from .encoders import Algorithm
from .errors import Pam3Error
from .traceio import (
    OP_FILTERS,
    TRACE_FORMATS,
    FrameStream,
    frame_records,  # not called; perfbench/layers.py wraps this site
    parse_raw_trace,  # not called; perfbench/layers.py wraps this site
    parse_text_trace,  # not called; perfbench/layers.py wraps this site
    random_blocks,
    read_encoded,
    read_trace,
    write_encoded,
)

# Bytes per read of a trace or of encoded text: every command holds a few
# chunks of this size, whatever the size of its input.
_READ_SIZE = 1 << 18

_ALG_CHOICES = {alg.value.lower(): alg for alg in Algorithm}


class _Parser(argparse.ArgumentParser):
    # contract says usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse drops a failed write; help that cannot reach stdout is an error
    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


def _int_type(minimum: int, maximum: float = float("inf")):
    """The argparse type of an integer option of at least minimum, 1 or 0,
    and at most maximum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < minimum:
            kind = "positive" if minimum else "non-negative"
            raise argparse.ArgumentTypeError(f"must be {kind}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value
    return parse


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
    p.set_defaults(run=_cmd_encode)

    p = sub.add_parser("decode", help="decode frame+flag text back to payload bytes")
    add_io(p, binary_out=True)
    p.set_defaults(run=_cmd_decode)

    p = sub.add_parser("analyze", help="power report for one or all algorithms")
    p.add_argument("--alg", choices=sorted(_ALG_CHOICES) + ["all"], default="all")
    p.add_argument("--report", choices=REPORT_FORMATS, default="csv")
    p.add_argument("--include-flag-power", action="store_true",
                   help="charge flag wires as binary lines in termination power")
    add_trace_opts(p)
    add_io(p)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("distribution", help="symbol distribution percentages")
    p.add_argument("--report", choices=REPORT_FORMATS, default="csv")
    add_trace_opts(p)
    add_io(p)
    p.set_defaults(run=_cmd_distribution)

    p = sub.add_parser("gen-random", help="write a raw trace of random bytes")
    p.add_argument("--bytes", type=_int_type(1, sys.maxsize), required=True, dest="byte_count")
    p.add_argument("--seed", type=_int_type(0), required=True)
    p.add_argument("--output", "-o", default="-", help="output path, - for stdout (binary)")
    p.set_defaults(run=_cmd_gen_random, input=None)

    return parser


def _frames(f, args) -> Iterator[FrameStream]:
    return read_trace(f, args.format, args.op_filter, _READ_SIZE)


def _open_input(path: str | None):
    if path is None:  # gen-random reads nothing
        return nullcontext()
    if path != "-":
        return open(path, "rb")
    if sys.stdin is None:
        raise OSError(errno.EBADF, "stdin is closed")  # the process started without it
    return nullcontext(sys.stdin.buffer)


def _spool(path: str):
    """A seekable file for a command's output that reaches path, - for
    stdout, only if the with block ends without an error, so a failed run
    writes nothing. main() opens it after the input, before any input is read.

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
    if path == "-" and sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    with tempfile.TemporaryFile() as spool:
        yield spool
        spool.seek(0)
        with nullcontext(sys.stdout.buffer) if path == "-" else open(path, "wb") as out:
            shutil.copyfileobj(spool, out, _READ_SIZE)
            out.flush()


def _cmd_encode(args, f, out):
    write_encoded(out, _ALG_CHOICES[args.alg], _frames(f, args))


def _cmd_decode(args, f, out):
    for piece in read_encoded(f, _READ_SIZE):
        out.write(piece)


def _cmd_analyze(args, f, out):
    algorithms = None if args.alg == "all" else [_ALG_CHOICES[args.alg]]
    stats = analyze_trace(_frames(f, args), algorithms,
                          include_flag_power=args.include_flag_power, op_filter=args.op_filter)
    out.write(write_report(stats, args.report).encode("ascii"))


def _cmd_distribution(args, f, out):
    distribution = signal_distribution(_frames(f, args))
    out.write(write_distribution(distribution, args.report).encode("ascii"))


def _cmd_gen_random(args, f, out):
    room = os.fstatvfs(out.fileno())  # refuse, before writing, what cannot fit
    if args.byte_count > room.f_bavail * room.f_frsize:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), args.output)
    for block in random_blocks(args.byte_count, args.seed):
        out.write(block)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _open_input(args.input) as f, _spool(args.output) as out:
            args.run(args, f, out)
        return 0
    except (Pam3Error, OSError, MemoryError) as exc:
        return _error(exc)


def _error(exc: Exception) -> int:
    print(f"pam3codec: error: {exc}", file=sys.stderr)
    return 2


def run() -> None:
    """The process entry: main() on sys.argv, then exit with its code.

    Everything imported so far lives until the process ends, so it is
    frozen: the collections at interpreter exit then skip numpy's and this
    package's objects, which took as long as a small command's own work.
    stdout is flushed here, not at interpreter exit: a flush that fails
    exits 2 with one error line (main()'s, or this one if main() returned
    0), and fd 1 then points at os.devnull, so the exit flush of the bytes
    still buffered cannot fail again. atexit handlers run as usual.
    In-process callers use main(), which never freezes.
    """
    gc.freeze()
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), 1)
        if code == 0:
            code = _error(exc)
    sys.exit(code)


if __name__ == "__main__":
    run()
