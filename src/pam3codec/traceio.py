"""Trace ingestion, framing, encoded frame text, and synthetic traces.

Text trace format, one record per line:

    <op> <address> <payload>

where op is R or W, address is 0x-prefixed hex, and payload is even-length
hex (any case). Blank lines and lines starting with # are skipped. Raw
format is a flat binary file whose entire content is one WRITE payload.
parse_text_columns reads a trace in the canonical layout as columns
(TraceColumns), without a TraceRecord per record.

Encoded frame text is two header lines, `# alg <NAME>` and `# pad <0..2>`,
then one line per frame, `A:<8 symbols> B:<8 symbols> F:<flag>`, with the
symbols written as -, 0, +.
"""

from __future__ import annotations

import binascii
import io
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from . import bulk
from .core import Pam3Frame
from .encoders import MAX_FLAG, Algorithm
from .errors import EmptyInput, InvalidPair, ParseError

READ = "R"
WRITE = "W"
OP_FILTERS = ("all", "read", "write")

_ADDRESS_RE = re.compile(r"(?:0x)?[0-9a-fA-F]+\Z")

# Canonical text trace lines, `R|W 0x<1..16 hex digits> <even-length hex>\n`,
# as format_text_trace writes them: every byte at or below the space is a
# separator, each line holds exactly the separators of _LINE_SEPARATORS,
# and deleting _TOKEN_BYTES leaves only the op and the x of each line.
_LINE_SEPARATORS = np.frombuffer(b"  \n", dtype=np.uint8)
_TOKEN_BYTES = b"0123456789abcdefABCDEF \n"
_ADDRESS_TOKEN = (3, 18)  # 0x plus 1..16 digits, below 2**64

# Encoded frame text. format_encoded writes every frame as one 26-byte
# row of _FRAME_ROW (flags are at most 5, so always one digit), which
# lets parse_encoded read a canonical file as an (n, 26) byte array.
_HEADER_RE = re.compile(rb"# alg (NONE|DBI|MF|SORT)\n# pad ([012])\n")
_FRAME_ROW = np.frombuffer(b"A:00000000 B:00000000 F:0\n", dtype=np.uint8)
_SYMBOL_COLUMNS = np.r_[2:10, 13:21]  # line A, then line B
_FIXED_COLUMNS = np.array([0, 1, 10, 11, 12, 21, 22, 23, 25])
_FLAG_COLUMN = 24
_NEG, _ZERO, _POS = b"-0+"  # the symbol bytes of the levels
# By mask byte, a line's 8 symbol bytes as one uint64 from its -1 mask ('-'
# or '0'), and what its +1 mask takes off a '0' to make it '+'.
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_NEG_SYMBOLS = (_ZERO - (_ZERO - _NEG) * _BITS).view(np.uint64).reshape(-1)
_POS_OFFSETS = ((_ZERO - _POS) * _BITS).view(np.uint64).reshape(-1)
_FRAME_LINE_RE = re.compile(r"A:([-0+]{8}) B:([-0+]{8}) F:0*(\d+)\Z")


@dataclass(frozen=True)
class TraceRecord:
    """One bus access: operation, address, payload bytes."""

    op: str
    address: int
    payload: bytes

    def __post_init__(self):
        if self.op not in (READ, WRITE):
            raise ValueError(f"op must be {READ!r} or {WRITE!r}, got {self.op!r}")
        if not 0 <= self.address < (1 << 64):
            raise ValueError(f"address must fit 64 bits, got {self.address!r}")
        if len(self.payload) < 1:
            raise ValueError("payload must hold at least one byte")


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """The records of a trace as columns, in record order.

    is_read is (n,) bool, lengths is (n,) int64 payload byte counts and
    payload is every record's payload joined, one uint8 array.
    """

    is_read: np.ndarray
    payload: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "TraceColumns":
        records = list(records)
        return cls(
            np.array([r.op == READ for r in records], dtype=bool),
            np.frombuffer(b"".join(r.payload for r in records), dtype=np.uint8),
            np.array([len(r.payload) for r in records], dtype=np.int64),
        )

    def select(self, op_filter: str) -> "TraceColumns":
        """The records an op filter keeps: all, read or write."""
        if op_filter not in OP_FILTERS:
            raise ValueError(f"op_filter must be one of {OP_FILTERS}, got {op_filter!r}")
        if op_filter == "all":
            return self
        keep = self.is_read if op_filter == "read" else ~self.is_read
        if keep.all():
            return self
        return TraceColumns(
            self.is_read[keep], self.payload[np.repeat(keep, self.lengths)], self.lengths[keep]
        )


def _frame_of_row(row: np.ndarray) -> Pam3Frame:
    return Pam3Frame(*row.tolist())


@dataclass(frozen=True, eq=False)
class FrameStream:
    """Modulated frames of one trace plus the zero padding of the last group.

    masks is the (2, n) uint16 line masks of bulk. The stream keeps the
    array it is given and makes it read-only. levels derives the (n, 2, 8)
    int8 levels on each access; iteration yields Pam3Frames.
    """

    masks: np.ndarray
    pad_bytes: int

    def __post_init__(self):
        masks = self.masks
        if not (
            isinstance(masks, np.ndarray) and masks.dtype == np.uint16
            and masks.ndim == 2 and len(masks) == 2 and masks.flags.c_contiguous
        ):
            raise ValueError("masks must be a C-contiguous (2, n) uint16 array")
        if (masks[0] & masks[1]).any():
            raise ValueError("a position cannot be both -1 and +1")
        if self.pad_bytes not in (0, 1, 2):
            raise ValueError(f"pad_bytes must be 0..2, got {self.pad_bytes}")
        masks.setflags(write=False)

    def __len__(self) -> int:
        return self.masks.shape[1]

    @property
    def levels(self) -> np.ndarray:
        """Read-only (n, 2, 8) int8 levels of the frames."""
        levels = bulk.levels_of_masks(self.masks)
        levels.setflags(write=False)
        return levels

    def __iter__(self) -> Iterator[Pam3Frame]:
        return map(_frame_of_row, self.levels)

    def frame(self, index: int) -> Pam3Frame:
        return _frame_of_row(bulk.levels_of_masks(self.masks[:, [index]])[0])

    def payload_bytes(self) -> bytes:
        """Demodulate back to the original payload, padding stripped."""
        words = bulk.demodulate_block(self.masks)
        data = words.reshape(-1).tobytes()
        return data[: len(data) - self.pad_bytes] if self.pad_bytes else data

    @classmethod
    def from_frames(cls, frames: Iterable[Pam3Frame], pad_bytes: int = 0) -> "FrameStream":
        levels = np.array([(f.line_a, f.line_b) for f in frames], dtype=np.int8)
        return cls(bulk.masks_of_levels(levels.reshape(-1, 2, 8)), pad_bytes)


def _ascii_lines(data: bytes) -> Iterable[str]:
    """The lines of ASCII data, each ended by LF, CRLF or CR.

    A non-ASCII byte is a ParseError on its line.
    """
    if not data.isascii():
        start = int(np.argmax(np.frombuffer(data, dtype=np.uint8) > 0x7F))
        head = data[:start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError("non-ASCII byte", head.count(b"\n") + 1)
    return io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline=None)


def parse_text_trace(source) -> list[TraceRecord]:
    """Parse a text trace from bytes, a string or an iterable of lines.

    Bytes must be ASCII and may end lines with LF, CRLF or CR.
    """
    if isinstance(source, (bytes, bytearray)):
        source = _ascii_lines(source)
    elif isinstance(source, str):
        source = io.StringIO(source)
    records = []
    for line_number, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 3:
            raise ParseError(
                f"expected 'op address payload', got {len(fields)} field(s)",
                line_number,
            )
        op, address_text, payload_text = fields
        if op not in (READ, WRITE):
            raise ParseError(f"op must be R or W, got {op!r}", line_number)
        if not _ADDRESS_RE.match(address_text):
            raise ParseError(f"address {address_text!r} is not hex", line_number)
        address = int(address_text, 16)
        if address >= (1 << 64):
            raise ParseError(f"address {address_text!r} exceeds 64 bits", line_number)
        if len(payload_text) % 2:
            raise ParseError("payload hex has odd length", line_number)
        try:
            payload = bytes.fromhex(payload_text)
        except ValueError:
            raise ParseError(f"payload {payload_text!r} is not hex", line_number)
        records.append(TraceRecord(op, address, payload))
    return records


def format_text_trace(records: Iterable[TraceRecord]) -> str:
    """Symmetric writer for parse_text_trace."""
    return "".join(
        f"{r.op} 0x{r.address:x} {r.payload.hex()}\n" for r in records
    )


def parse_text_columns(data: bytes) -> TraceColumns | None:
    """Read a text trace in the canonical layout as columns, else None.

    The canonical layout is `R|W 0x<1..16 hex digits> <even-length hex>\n`
    on every line, as format_text_trace writes it; it is checked and read
    with whole-buffer byte operations. Anything else (comments, blank
    lines, CR or CRLF, no final newline, another address form or spacing,
    or an error) gives None: parse_text_trace reads every other form with
    the same rules and raises the line-numbered ParseError.
    """
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
    # each line is a run of op and address, a run of payload digits and a newline
    runs = np.stack([address_end + 1 - starts, lengths, np.ones_like(lengths)], axis=1)
    in_payload = np.repeat(np.tile([False, True, False], len(starts)), runs.reshape(-1))
    payload = binascii.unhexlify(buf[in_payload])
    return TraceColumns(is_read, np.frombuffer(payload, dtype=np.uint8), lengths // 2)


def format_encoded(
    alg: Algorithm, masks: np.ndarray, flags: np.ndarray, pad_bytes: int
) -> bytes:
    """Encoded frame text of (2, n) encoded line masks and their (n,) flags."""
    flags = np.asarray(flags, dtype=np.uint8)
    if flags.shape != masks.shape[1:]:
        raise ValueError("flags must be 1-D with one entry per frame")
    if flags.size and flags.max() > MAX_FLAG[alg]:
        raise ValueError(f"{alg.value} flags must be 0..{MAX_FLAG[alg]}")
    rows = np.tile(_FRAME_ROW, (len(flags), 1))
    neg, pos = (mask.view(np.uint8) for mask in masks)  # line A, line B of every frame
    symbols = np.take(_NEG_SYMBOLS, neg)
    symbols -= np.take(_POS_OFFSETS, pos)  # no byte borrows: the masks are disjoint
    rows[:, _SYMBOL_COLUMNS] = symbols.view(np.uint8).reshape(-1, 16)
    rows[:, _FLAG_COLUMN] = flags + ord("0")
    return b"".join((f"# alg {alg.value}\n# pad {pad_bytes}\n".encode("ascii"), rows.data))


def parse_encoded(data: bytes) -> tuple[Algorithm, int, np.ndarray, np.ndarray]:
    """Read encoded frame text: (algorithm, pad bytes, masks, flags).

    masks is (2, n) uint16 line masks as in bulk and flags is (n,) uint8,
    each flag within the algorithm's range. Text in the exact layout
    format_encoded writes is read as one byte array; anything else (blank
    lines, comments, CRLF, whitespace around a line, leading zeros in a
    flag, or an error) goes through the line parser, which raises the
    line-numbered ParseError.
    """
    return (_parse_encoded_rows(data) or _parse_encoded_lines(data))[:4]


def decode_encoded(data: bytes) -> bytes:
    """The payload bytes that encoded frame text carries, padding stripped.

    A frame that decodes to the unused pair is a ParseError on the input
    line the same read gave that frame.
    """
    alg, pad, masks, flags, frame_lines = _parse_encoded_rows(data) or _parse_encoded_lines(data)
    try:
        return FrameStream(bulk.decode_block(masks, flags, alg), pad).payload_bytes()
    except InvalidPair as exc:
        raise ParseError(str(exc), frame_lines[exc.frame_index]) from exc


def _parse_encoded_rows(data: bytes):
    """(alg, pad, masks, flags, frame_lines) of text in the exact layout of
    format_encoded, else None; frame i is on line i + 3, after the header."""
    header = _HEADER_RE.match(data)
    if header is None or (len(data) - header.end()) % len(_FRAME_ROW):
        return None
    alg, pad = Algorithm(header[1].decode("ascii")), int(header[2])
    rows = np.frombuffer(data, dtype=np.uint8, offset=header.end()).reshape(-1, len(_FRAME_ROW))
    if pad and not len(rows):
        return None
    if not (rows[:, _FIXED_COLUMNS] == _FRAME_ROW[_FIXED_COLUMNS]).all():
        return None
    masks = _masks_of_symbols(np.take(rows, _SYMBOL_COLUMNS, axis=1))
    flags = rows[:, _FLAG_COLUMN] - np.uint8(ord("0"))  # a non-digit wraps above 9
    if masks is None or (len(rows) and flags.max() > MAX_FLAG[alg]):
        return None
    return alg, pad, masks, flags, range(3, 3 + len(rows))


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


def _parse_encoded_lines(data: bytes):
    """Line-by-line reader of encoded frame text, the reference for
    _parse_encoded_rows: (alg, pad, masks, flags, frame_lines), the last
    the input line number of every frame."""
    alg = pad = None
    pad_line = 0
    symbols, flags, frame_lines = [], [], []
    for line_number, line in enumerate(_ascii_lines(data), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            fields = stripped[1:].split()
            if len(fields) != 2 or fields[0] not in ("alg", "pad"):
                continue  # a comment
            name, value = fields
            if (alg if name == "alg" else pad) is not None:
                raise ParseError(f"repeated '# {name}' header", line_number)
            if frame_lines:
                raise ParseError(f"'# {name}' header after the first frame line", line_number)
            if name == "alg":
                try:
                    alg = Algorithm(value)
                except ValueError:
                    raise ParseError(f"unknown algorithm {value!r}", line_number)
            else:
                try:
                    pad = int(value)
                except ValueError:
                    raise ParseError(f"bad pad count {value!r}", line_number)
                if pad not in (0, 1, 2):
                    raise ParseError(f"pad count must be 0..2, got {pad}", line_number)
                pad_line = line_number
            continue
        m = _FRAME_LINE_RE.match(stripped)
        if not m:
            raise ParseError("expected 'A:<8 symbols> B:<8 symbols> F:<flag>'",
                             line_number)
        symbols.append(m[1] + m[2])
        # saturate: a flag above 255 is out of range for every algorithm
        flags.append(min(int(m[3][:3]), 255))
        frame_lines.append(line_number)
    if alg is None or pad is None:
        raise ParseError("missing '# alg' or '# pad' header", 1)
    if pad and not symbols:
        raise ParseError(f"pad count {pad} without frames", pad_line)
    flags = np.array(flags, dtype=np.uint8)
    bad = np.flatnonzero(flags > MAX_FLAG[alg])
    if bad.size:
        raise ParseError(f"{alg.value} flag must be 0..{MAX_FLAG[alg]}", frame_lines[bad[0]])
    symbols = np.frombuffer("".join(symbols).encode("ascii"), dtype=np.uint8)
    return alg, pad, _masks_of_symbols(symbols.reshape(-1, 16)), flags, frame_lines


def parse_raw_trace(source: BinaryIO | bytes) -> list[TraceRecord]:
    """Wrap a flat byte stream as a single WRITE record at address 0.

    A binary file object is read to its end in one read call, so the data
    is held once; a bytes-like source is taken as bytes.
    """
    data = bytes(source) if isinstance(source, (bytes, bytearray)) else source.read()
    if not data:
        raise EmptyInput("raw trace holds no bytes")
    return [TraceRecord(WRITE, 0, data)]


def frame_records(records: Iterable[TraceRecord] | TraceColumns) -> FrameStream:
    """Concatenate payloads in record order and modulate 3-byte groups.

    records is TraceRecords or TraceColumns, whose payload is already
    joined. A final partial group is zero padded and the pad count
    recorded so the payload can be reconstructed exactly.
    """
    if isinstance(records, TraceColumns):
        data = records.payload
    else:
        data = np.frombuffer(b"".join(r.payload for r in records), dtype=np.uint8)
    pad_bytes = (-len(data)) % 3
    if pad_bytes:
        data = np.concatenate([data, np.zeros(pad_bytes, dtype=np.uint8)])
    words = data.reshape(-1, 3)
    return FrameStream(bulk.modulate_block(words), pad_bytes)


def generate_random_trace(byte_count: int, seed: int) -> list[TraceRecord]:
    """One WRITE record of uniform random bytes, deterministic per seed."""
    if byte_count < 1:
        raise ValueError(f"byte_count must be positive, got {byte_count}")
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=byte_count, dtype=np.uint8).tobytes()
    return [TraceRecord(WRITE, 0, payload)]
