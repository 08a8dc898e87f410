"""Trace ingestion, framing, encoded frame text, and synthetic traces.

Text trace format, one record per line:

    <op> <address> <payload>

where op is R or W, address is 0x-prefixed hex, and payload is even-length
hex (any case). Space, tab, vertical tab and form feed part fields, as
bytes.split parts them. Blank lines and lines starting with # are skipped. Raw
format is a flat binary file whose entire content is one WRITE payload.
An op filter keeps the records of all ops, of reads or of writes;
parse_text_columns reads the payload it keeps of a trace in the canonical
layout without a TraceRecord per record.

Encoded frame text is two header lines, `# alg <NAME>` and `# pad <0..2>`,
then one line per frame, `A:<8 symbols> B:<8 symbols> F:<flag>`, with the
symbols written as -, 0, +.

Files of any size are read and written a chunk at a time by read_trace
(a trace, as one FrameStream per chunk), write_encoded (encoded frame
text, whose one-digit pad count is patched at the end) and read_encoded
(encoded frame text back to payload bytes). Lines may end with LF, CRLF
or CR; text_chunks makes each line end LF, so every reader sees only LF,
and the # lines that open a chunk go to the line reader, not a bulk one.
"""

from __future__ import annotations

import binascii
import io
import operator
import re
from dataclasses import dataclass
from functools import partial
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from . import bulk
from .encoders import MAX_FLAG, Algorithm
from .errors import EmptyInput, InvalidPair, ParseError

READ = "R"
WRITE = "W"
OP_FILTERS = ("all", "read", "write")
TRACE_FORMATS = ("text", "raw")

_ADDRESS_RE = re.compile(rb"(?:0x)?[0-9a-fA-F]+\Z")

# Canonical text trace lines, `R|W 0x<1..16 hex digits> <even-length hex>\n`,
# as format_text_trace writes them: every byte at or below the space is a
# separator, each line holds exactly the separators of _LINE_SEPARATORS,
# and deleting _TOKEN_BYTES leaves only the op and the x of each line.
_LINE_SEPARATORS = np.frombuffer(b"  \n", dtype=np.uint8)
_TOKEN_BYTES = b"0123456789abcdefABCDEF \n"
_ADDRESS_TOKEN = (3, 18)  # 0x plus 1..16 digits, below 2**64

# Encoded frame text: format_encoded_rows writes each frame as a 26-byte row of
# _FRAME_ROW, whose 0 bytes are the 16 symbols (line A, then B) and the one-digit flag,
# and _EncodedReader.rows reads a canonical chunk as an (n, 26) byte array.
_NEG, _ZERO, _POS = b"-0+"  # the symbol bytes of the levels
_FRAME_ROW = np.frombuffer(b"A:00000000 B:00000000 F:0\n", dtype=np.uint8)
_SYMBOL_COLUMNS, (_FLAG_COLUMN,) = np.split(np.flatnonzero(_FRAME_ROW == _ZERO), [16])
_FIXED_COLUMNS = np.flatnonzero(_FRAME_ROW != _ZERO)
# By mask byte, a line's 8 symbol bytes as one uint64 from its -1 mask ('-'
# or '0'), and what its +1 mask takes off a '0' to make it '+'.
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_NEG_SYMBOLS = (_ZERO - (_ZERO - _NEG) * _BITS).view(np.uint64).reshape(-1)
_POS_OFFSETS = ((_ZERO - _POS) * _BITS).view(np.uint64).reshape(-1)
_FRAME_LINE_RE = re.compile(rb"A:([-0+]{8}) B:([-0+]{8}) F:0*(\d+)\Z")
# Frames per group of rows that write_encoded formats at once; formatting
# costs about 100 bytes per frame in temporaries.
_FORMAT_FRAMES = 8192
_RANDOM_BLOCK = 1 << 16  # bytes per draw; a multiple of 4, so the draws equal one draw


@dataclass(frozen=True)
class TraceRecord:
    """One bus access: operation, address, payload bytes."""

    op: str
    address: int
    payload: bytes

    def __post_init__(self):
        if self.op not in (READ, WRITE):
            raise ValueError(f"op must be {READ!r} or {WRITE!r}, got {self.op!r}")
        if not 0 <= operator.index(self.address) < (1 << 64):
            raise ValueError(f"address must fit 64 bits, got {self.address!r}")
        if memoryview(self.payload).nbytes < 1:  # TypeError unless bytes-like
            raise ValueError("payload must hold at least one byte")


@dataclass(frozen=True, eq=False)
class FrameStream:
    """Modulated frames of one trace plus the zero padding of the last group.

    masks is the (2, n) uint16 line masks of bulk, the one form of the
    frames, with rows each contiguous and disjoint, as bulk.check_masks
    alone checks; bulk.levels_of_masks gives their (n, 2, 8) int8 levels.
    The stream keeps the array it is given and makes it read-only.
    """

    masks: np.ndarray
    pad_bytes: int

    def __post_init__(self):
        bulk.check_masks(self.masks)
        object.__setattr__(self, "pad_bytes", operator.index(self.pad_bytes))
        if self.pad_bytes not in (0, 1, 2):
            raise ValueError(f"pad_bytes must be 0..2, got {self.pad_bytes}")
        self.masks.setflags(write=False)

    def __len__(self) -> int:
        return self.masks.shape[1]


def _lf(data: bytes) -> bytes:
    """data with every line end, CRLF and lone CR too, as one LF."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _lines(data: bytes, first: int) -> Iterator[tuple[int, bytes]]:
    """(line number, stripped line) of each line of data, one at a time,
    numbered from first; lines end with LF, CRLF or CR. The one line rule
    of both text formats: a line with a non-ASCII byte is a ParseError, and
    the others are bytes, so strip and split take only space, tab, vertical
    tab and form feed for whitespace."""
    for line_number, line in enumerate(io.BytesIO(_lf(data)), start=first):
        if not line.isascii():
            raise ParseError("non-ASCII byte", line_number)
        yield line_number, line.strip()


def text_chunks(file: BinaryIO, size: int) -> Iterator[bytes]:
    """A text file read size bytes at a time, as chunks of whole lines.

    A chunk ends after the last LF or CR of a read, but not after a CR that
    ends the read, since an LF may follow it, so chunks split lines as
    parse_text_trace does. Every CRLF and CR of a chunk is made LF. A chunk
    holds the rest of the read before and at most size bytes more, unless
    a line is longer than size.
    """
    pending = []  # what was read after the last line end
    for block in iter(lambda: file.read(size), b""):
        end = len(block) - block.endswith(b"\r")
        cut = max(block.rfind(b"\n", 0, end), block.rfind(b"\r", 0, end)) + 1
        if not cut:
            pending.append(block)
            continue
        yield _lf(b"".join([*pending, block[:cut]]))
        pending = [block[cut:]]
    chunk = b"".join(pending)  # a last line without a line end
    if chunk:
        yield _lf(chunk)


def _read_text(file: BinaryIO, size: int, bulk_read: Callable, line_read: Callable) -> Iterator:
    """The results of reading each chunk that text_chunks yields: the # lines
    that open it, a trace's comments or encoded text's headers, by
    line_read, and the rest by bulk_read, or by line_read where bulk_read
    returns None off the canonical layout. Each takes (piece, lines before
    it) and returns (result, lines in it), so only the reader of a piece
    counts its lines; line_read reads any piece and alone raises the
    line-numbered ParseError.
    """
    lines = 0
    for chunk in text_chunks(file, size):
        head = 0
        while chunk.startswith(b"#", head):  # a comment or header opens the chunk
            head = chunk.find(b"\n", head) + 1 or len(chunk)
        for piece, read in ((chunk[:head], line_read), (chunk[head:], bulk_read)):
            if piece:
                result, piece_lines = read(piece, lines) or line_read(piece, lines)
                lines += piece_lines
                yield result


def parse_text_trace(data: bytes) -> list[TraceRecord]:
    """Parse a text trace from bytes or a bytearray.

    Lines are read in order, and the first bad line is the ParseError
    raised: a line with a non-ASCII byte is bad, a comment too.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"parse_text_trace reads bytes, not {type(data).__name__}")
    return [TraceRecord(*record) for record in _trace_lines(data, 1)]


def _trace_lines(data: bytes, first: int) -> Iterator[tuple[str, int, bytes]]:
    """(op, address, payload) of each record line of a text trace whose
    lines are numbered from first; the first bad line is the ParseError."""
    for line_number, stripped in _lines(data, first):
        if not stripped or stripped.startswith(b"#"):
            continue
        fields = stripped.split()
        if len(fields) != 3:
            raise ParseError(
                f"expected 'op address payload', got {len(fields)} field(s)",
                line_number,
            )
        op, address_text, payload_text = fields
        if op not in (b"R", b"W"):
            raise ParseError(f"op must be R or W, got {op.decode()!r}", line_number)
        if not _ADDRESS_RE.match(address_text):
            raise ParseError(f"address {address_text.decode()!r} is not hex", line_number)
        address = int(address_text, 16)
        if address >= (1 << 64):
            raise ParseError(f"address {address_text.decode()!r} exceeds 64 bits", line_number)
        if len(payload_text) % 2:
            raise ParseError("payload hex has odd length", line_number)
        try:
            payload = binascii.unhexlify(payload_text)
        except binascii.Error:
            raise ParseError(f"payload {payload_text.decode()!r} is not hex", line_number)
        yield op.decode(), address, payload


def format_text_trace(records: Iterable[TraceRecord]) -> bytes:
    """The text trace of records, as the ASCII bytes parse_text_trace reads."""
    return "".join(f"{r.op} 0x{r.address:x} {r.payload.hex()}\n" for r in records).encode()


def kept_ops(op_filter: str) -> str:
    """The ops of the records an op filter keeps: all, read or write."""
    if op_filter not in OP_FILTERS:
        raise ValueError(f"op_filter must be one of {OP_FILTERS}, got {op_filter!r}")
    return {"all": READ + WRITE, "read": READ, "write": WRITE}[op_filter]


def parse_text_columns(data: bytes, op_filter: str) -> tuple[np.ndarray, int] | None:
    """(payload, lines) of a text trace in the canonical layout, else None:
    the joined payload bytes of the records op_filter keeps, as a uint8
    array, and the number of lines, one record each.

    The canonical layout is `R|W 0x<1..16 hex digits> <even-length hex>\n`
    on every line, as format_text_trace writes it; it is checked and read
    with whole-buffer byte operations. Anything else (comments, blank
    lines, a CR, no final newline, another address form or spacing, or an
    error) gives None: parse_text_trace reads every other form with the
    same rules and raises the line-numbered ParseError.
    """
    kept = kept_ops(op_filter)
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(buf <= 32)
    if not len(seps) or len(seps) % 3 or seps[-1] != len(buf) - 1:
        return None
    if not (buf[seps].reshape(-1, 3) == _LINE_SEPARATORS).all():
        return None
    op_end, address_end, line_end = seps[0::3], seps[1::3], seps[2::3]
    starts = np.concatenate(([0], line_end[:-1] + 1))
    address_len = address_end - op_end - 1
    lengths = line_end - address_end - 1
    ops = buf[starts]
    is_read = ops == ord(READ)
    if not (
        (op_end == starts + 1).all()
        and (is_read | (ops == ord(WRITE))).all()
        and (buf[op_end + 1] == ord("0")).all()
        and (buf[op_end + 2] == ord("x")).all()
        and (address_len >= _ADDRESS_TOKEN[0]).all()
        and (address_len <= _ADDRESS_TOKEN[1]).all()
        and (lengths >= 2).all()
        and not (lengths & 1).any()
        # the op and the x of each line are then the only other bytes
        and len(data.translate(None, _TOKEN_BYTES)) == 2 * len(starts)
    ):
        return None
    # each line is a run of op and address, a run of payload digits and a
    # newline; only the payload runs of the kept records are picked
    runs = np.stack([address_end + 1 - starts, lengths, np.ones_like(lengths)], axis=1)
    picked = np.zeros(runs.shape, dtype=bool)
    picked[:, 1] = is_read if kept == READ else ~is_read if kept == WRITE else True
    payload = binascii.unhexlify(buf[np.repeat(picked.reshape(-1), runs.reshape(-1))])
    return np.frombuffer(payload, dtype=np.uint8), len(starts)


def format_encoded_header(alg: Algorithm, pad_bytes: int) -> bytes:
    """The two header lines of encoded frame text. The pad count is the
    second last byte, so a writer that learns it only after the frames can
    write 0 first and overwrite that one digit."""
    return f"# alg {Algorithm(alg).value}\n# pad {pad_bytes}\n".encode("ascii")


def format_encoded_rows(alg: Algorithm, masks: np.ndarray, flags: np.ndarray) -> bytes:
    """The frame lines of encoded frame text, one 26-byte row per frame of
    (2, n) encoded line masks and their (n,) flags, as bulk.check_masks and
    bulk.check_flags take them."""
    bulk.check_masks(masks)
    flags = bulk.check_flags(flags, masks.shape[1], alg)
    rows = np.tile(_FRAME_ROW, (len(flags), 1))
    neg, pos = (mask.view(np.uint8) for mask in masks)  # line A, line B of every frame
    symbols = _NEG_SYMBOLS[neg]
    symbols -= _POS_OFFSETS[pos]  # no byte borrows: the masks are disjoint
    rows[:, _SYMBOL_COLUMNS] = symbols.view(np.uint8).reshape(-1, 16)
    rows[:, _FLAG_COLUMN] = flags + ord("0")
    return rows.tobytes()


def write_encoded(out: BinaryIO, alg: Algorithm, streams: Iterable[FrameStream]) -> None:
    """Write the encoded frame text of a trace's streams, in order, to the
    seekable file out, formatting _FORMAT_FRAMES rows at a time. Only the
    last stream has pad bytes, so the header's pad digit is written as 0
    and overwritten once the streams end."""
    header = format_encoded_header(alg, 0)
    pad_digit = out.tell() + len(header) - 2
    out.write(header)
    pad_bytes = 0
    for stream in streams:
        masks, flags = bulk.encode_block(stream.masks, alg)
        for start in range(0, len(flags), _FORMAT_FRAMES):
            end = start + _FORMAT_FRAMES
            out.write(format_encoded_rows(alg, masks[:, start:end], flags[start:end]))
        pad_bytes = stream.pad_bytes
    out.seek(pad_digit)
    out.write(b"%d" % pad_bytes)


def read_encoded(file: BinaryIO, size: int) -> Iterator[bytes]:
    """The payload bytes of the encoded frame text in file, read size bytes
    at a time: one piece per chunk of whole lines with frames. The pad is
    stripped from the last piece, so one piece is held back.

    Lines are read in order, and the first bad line is the ParseError: a
    malformed line, a non-ASCII byte, a repeated header, a frame line before
    both headers, a flag out of range, or a frame decoding to the unused
    pair. Then the end settles a missing header or a pad without frames.
    """
    reader = _EncodedReader()
    piece = b""  # the last piece decoded, held back
    for words in filter(None, _read_text(file, size, reader.rows, reader.lines)):
        if piece:
            yield piece
        piece = words
    _, pad = reader.end()
    yield piece[: len(piece) - pad]


class _EncodedReader:
    """Encoded frame text read in chunks of whole lines, in line order.

    rows and lines each take (chunk, lines before it) and return (payload
    bytes, lines in the chunk), decoding its frames through _words. rows
    reads a chunk of frame rows in the writer's exact layout as one byte
    array and returns None for any other, a header too; lines reads any
    chunk, the reference for rows, alone takes the headers and raises a
    structural ParseError, once the frames before its line are decoded.
    end raises what only the end of the text settles.
    """

    def __init__(self):
        self.alg = self.pad = self.pad_line = None  # no header read yet
        self.frames = 0  # frames decoded so far

    def rows(self, chunk: bytes, lines_before: int):
        """Reads a chunk of canonical 26-byte frame rows."""
        if len(chunk) % len(_FRAME_ROW):
            return None
        rows = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, len(_FRAME_ROW))
        if not (rows[:, _FIXED_COLUMNS] == _FRAME_ROW[_FIXED_COLUMNS]).all():
            return None
        masks = _masks_of_symbols(np.take(rows, _SYMBOL_COLUMNS, axis=1))
        flags = rows[:, _FLAG_COLUMN] - np.uint8(ord("0"))  # a non-digit wraps above 9
        if masks is None or (len(rows) and flags.max() > 9):
            return None
        self._check_headers()
        first = lines_before + 1
        return self._words(masks, flags, range(first, first + len(rows))), len(rows)

    def lines(self, chunk: bytes, lines_before: int):
        symbols, flags, frame_lines = [], [], []
        try:
            for line_number, stripped in _lines(chunk, lines_before + 1):
                if not stripped:
                    continue
                if stripped.startswith(b"#"):
                    self._header(stripped, line_number)
                    continue
                m = _FRAME_LINE_RE.match(stripped)
                if not m:
                    raise ParseError("expected 'A:<8 symbols> B:<8 symbols> F:<flag>'",
                                     line_number)
                self._check_headers()
                symbols.append(m[1] + m[2])
                # saturate: a flag above 255 is out of range for every algorithm
                flags.append(min(int(m[3][:3]), 255))
                frame_lines.append(line_number)
        finally:  # the frames before a bad line come first
            masks = _masks_of_symbols(np.frombuffer(b"".join(symbols), np.uint8).reshape(-1, 16))
            words = self._words(masks, np.array(flags, np.uint8), frame_lines)
        return words, chunk.count(b"\n")

    def _words(self, masks: np.ndarray, flags: np.ndarray, frame_lines) -> bytes:
        """The payload of frames on input lines frame_lines, after the frames
        decoded so far; the first flag out of range is an error after them."""
        if not len(flags):
            return b""
        limit = MAX_FLAG[self.alg]
        good = int(np.argmax(flags > limit)) if flags.max() > limit else len(flags)
        try:
            words = bulk.demodulate_block(
                bulk.decode_block(masks[:, :good], flags[:good], self.alg), self.frames)
        except InvalidPair as exc:
            raise ParseError(str(exc), frame_lines[exc.frame_index - self.frames])
        if good < len(flags):
            raise ParseError(f"{self.alg.value} flag must be 0..{limit}", frame_lines[good])
        self.frames += good
        return words.tobytes()

    def _check_headers(self) -> None:
        if self.alg is None or self.pad is None:
            raise ParseError("missing '# alg' or '# pad' header", 1)

    def _header(self, stripped: bytes, line_number: int) -> None:
        """Take a `# alg` or `# pad` header line; any other `#` line is a comment."""
        fields = stripped[1:].split()
        if len(fields) != 2 or fields[0] not in (b"alg", b"pad"):
            return
        name, value = fields[0].decode(), fields[1]
        if (self.alg if name == "alg" else self.pad) is not None:
            raise ParseError(f"repeated '# {name}' header", line_number)
        if name == "alg":
            try:
                self.alg = Algorithm(value.decode())
            except ValueError:
                raise ParseError(f"unknown algorithm {value.decode()!r}", line_number)
            return
        if not value.isdigit():  # bytes.isdigit takes ASCII digits only
            raise ParseError(f"bad pad count {value.decode()!r}", line_number)
        count = value.lstrip(b"0") or b"0"  # leading zeros, as a flag may have
        if count not in (b"0", b"1", b"2"):
            raise ParseError(f"pad count must be 0..2, got {count.decode()}", line_number)
        self.pad, self.pad_line = int(count), line_number

    def end(self) -> tuple[Algorithm, int]:
        """(algorithm, pad bytes) of the text once every chunk is read."""
        self._check_headers()
        if self.pad and not self.frames:
            raise ParseError(f"pad count {self.pad} without frames", self.pad_line)
        return self.alg, self.pad


def _masks_of_symbols(symbols: np.ndarray) -> np.ndarray | None:
    """(2, n) masks of (n, 16) symbol bytes, line A then B; None if one is not -, 0, +."""
    masks = np.empty((2, len(symbols)), dtype=np.uint16)
    bits = symbols == _ZERO
    matched = np.count_nonzero(bits)
    for mask, symbol in zip(masks, (_NEG, _POS)):
        np.equal(symbols, symbol, out=bits)
        matched += np.count_nonzero(bits)
        mask.view(np.uint8)[:] = np.packbits(bits)
    return masks if matched == symbols.size else None


def parse_raw_trace(source: BinaryIO | bytes) -> list[TraceRecord]:
    """Wrap a flat byte stream as a single WRITE record at address 0.

    A binary file object is read to its end in one read call, so the data
    is held once; a bytes-like source is taken as bytes.
    """
    data = bytes(source) if isinstance(source, (bytes, bytearray)) else source.read()
    if not data:
        raise EmptyInput("raw trace holds no bytes")
    return [TraceRecord(WRITE, 0, data)]


def frame_records(records: Iterable[TraceRecord]) -> FrameStream:
    """Concatenate payloads in record order and modulate 3-byte groups.

    A final partial group is zero padded and the pad count recorded so
    the payload can be reconstructed exactly.
    """
    return _frame_payload(np.frombuffer(b"".join(r.payload for r in records), dtype=np.uint8))


def read_trace(file: BinaryIO, fmt: str, op_filter: str, size: int) -> Iterator[FrameStream]:
    """The frames of the records an op filter keeps of a text or raw trace
    in file, read size bytes at a time: one FrameStream per chunk. A raw
    trace is read in whole 3-byte groups, size rounded down to a multiple
    of 3 but at least 3.

    A chunk's partial 3-byte group carries over to the next chunk, and a
    last stream, which may hold no frames, takes what is left, zero padded,
    so only the last stream has pad bytes.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"fmt must be one of {TRACE_FORMATS}, got {fmt!r}")
    kept = kept_ops(op_filter)  # before the first read
    if fmt == "raw":
        return _framed(_raw_payloads(file, size, WRITE in kept))
    return _framed(_read_text(file, size, lambda chunk, _: parse_text_columns(chunk, op_filter),
                              partial(_text_payload, op_filter=op_filter)))


def _raw_payloads(file: BinaryIO, size: int, kept: bool) -> Iterator[np.ndarray]:
    """Each block of a raw trace, one write record, or nothing of it if
    the op filter does not keep it; read in whole 3-byte groups so that
    _framed need not join a block to the group before."""
    size = max(size - size % 3, 3)
    block = file.read(size)
    if not block:
        raise EmptyInput("raw trace holds no bytes")
    while block:
        yield np.frombuffer(block if kept else b"", dtype=np.uint8)
        block = file.read(size)


def _text_payload(chunk: bytes, lines_before: int, op_filter: str) -> tuple[np.ndarray, int]:
    """(payload, lines) of a chunk of whole lines of a text trace read by
    the line reader: the payload an op filter keeps; an error names its
    line of the whole file."""
    kept = kept_ops(op_filter)
    payload = b"".join(p for op, _, p in _trace_lines(chunk, lines_before + 1) if op in kept)
    return np.frombuffer(payload, dtype=np.uint8), chunk.count(b"\n")


def _framed(payloads: Iterable[np.ndarray]) -> Iterator[FrameStream]:
    tail = np.zeros(0, dtype=np.uint8)
    for payload in payloads:
        data = np.concatenate([tail, payload]) if len(tail) else payload
        cut = len(data) - len(data) % 3
        tail = data[cut:].copy()
        yield _frame_payload(data[:cut])
    yield _frame_payload(tail)


def _frame_payload(data: np.ndarray) -> FrameStream:
    pad_bytes = (-len(data)) % 3
    if pad_bytes:
        data = np.concatenate([data, np.zeros(pad_bytes, dtype=np.uint8)])
    words = data.reshape(-1, 3)
    return FrameStream(bulk.modulate_block(words), pad_bytes)


def random_blocks(byte_count: int, seed: int) -> Iterator[bytes]:
    """byte_count uniform random bytes, deterministic per seed, _RANDOM_BLOCK at a time."""
    if byte_count < 1:
        raise ValueError(f"byte_count must be positive, got {byte_count}")
    rng = np.random.default_rng(seed)
    for start in range(0, byte_count, _RANDOM_BLOCK):
        yield rng.integers(0, 256, min(_RANDOM_BLOCK, byte_count - start), np.uint8).tobytes()
