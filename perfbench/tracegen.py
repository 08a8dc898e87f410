"""Seeded input traces for the benchmark.

Two kinds of trace are generated from a numpy Generator, so the same seed
always gives the same file:

* raw_uniform: uniform random bytes, the worst case for every encoding.
* text_zero: a DRAM-like text trace of 64-byte accesses, about two reads
  per write, with many all-zero lines and about half of the remaining
  bytes zero, the zero-biased traffic the encodings are designed for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

RECORD_BYTES = 64
READ_SHARE = 2 / 3
ALL_ZERO_RECORD_SHARE = 0.3
ZERO_BYTE_SHARE = 0.5
BASE_ADDRESS = 0x8000_0000
ADDRESS_LINES = 1 << 24  # 1 GiB of 64-byte lines


@dataclass(frozen=True, eq=False)
class Trace:
    """One generated trace: its file content and what the program must see.

    payload is every record's payload concatenated in record order. reads
    marks the read records of a text trace and is None for a raw trace,
    which the program treats as one write record.
    """

    kind: str
    content: bytes
    payload: bytes
    reads: Optional[np.ndarray]

    @property
    def suffix(self) -> str:
        return ".raw" if self.reads is None else ".txt"

    def kept_payload(self, op_filter: str) -> bytes:
        """Payload bytes left after the CLI's --op-filter."""
        if op_filter == "all":
            return self.payload
        if self.reads is None:
            return self.payload if op_filter == "write" else b""
        rows = np.frombuffer(self.payload, dtype=np.uint8).reshape(-1, RECORD_BYTES)
        keep = self.reads if op_filter == "read" else ~self.reads
        return rows[keep].tobytes()

    def head(self, payload_bytes: int) -> "Trace":
        """The first records (or raw bytes) holding about payload_bytes."""
        if self.reads is None:
            data = self.payload[:payload_bytes]
            return Trace(self.kind, data, data, None)
        records = max(1, payload_bytes // RECORD_BYTES)
        lines = self.content.splitlines(keepends=True)[:records]
        payload = self.payload[: records * RECORD_BYTES]
        return Trace(self.kind, b"".join(lines), payload, self.reads[:records])

    def stats(self) -> dict:
        """Measured properties of the trace, as reported with each run."""
        data = np.frombuffer(self.payload, dtype=np.uint8)
        out = {
            "kind": self.kind,
            "payload_bytes": len(self.payload),
            "file_bytes": len(self.content),
            "zero_byte_pct": 100.0 * float(np.count_nonzero(data == 0)) / len(data),
        }
        if self.reads is None:
            out.update(records=1, read_records=0, write_records=1)
        else:
            rows = data.reshape(-1, RECORD_BYTES)
            reads = int(np.count_nonzero(self.reads))
            out.update(
                records=len(self.reads),
                read_records=reads,
                write_records=len(self.reads) - reads,
                all_zero_record_pct=100.0 * float((~rows.any(axis=1)).mean()),
            )
        return out


def raw_uniform(payload_bytes: int, rng: np.random.Generator) -> Trace:
    data = rng.integers(0, 256, size=payload_bytes, dtype=np.uint8).tobytes()
    return Trace("raw_uniform", data, data, None)


def text_zero(payload_bytes: int, rng: np.random.Generator) -> Trace:
    records = max(1, -(-payload_bytes // RECORD_BYTES))
    rows = rng.integers(0, 256, size=(records, RECORD_BYTES), dtype=np.uint8)
    rows[rng.random((records, RECORD_BYTES)) < ZERO_BYTE_SHARE] = 0
    rows[rng.random(records) < ALL_ZERO_RECORD_SHARE] = 0
    reads = rng.random(records) < READ_SHARE
    addresses = BASE_ADDRESS + RECORD_BYTES * rng.integers(0, ADDRESS_LINES, size=records)
    payload = rows.tobytes()
    hexed = payload.hex()
    width = 2 * RECORD_BYTES
    text = "".join(
        f"{'R' if is_read else 'W'} 0x{address:x} {hexed[i * width:(i + 1) * width]}\n"
        for i, (is_read, address) in enumerate(zip(reads.tolist(), addresses.tolist()))
    )
    return Trace("text_zero", text.encode("ascii"), payload, reads)


GENERATORS = {"raw_uniform": raw_uniform, "text_zero": text_zero}
