"""References the benchmark computes itself, and the checks of CLI outputs.

Each check returns a list of problems; an empty list means the output is
correct. Whole outputs are compared with a vectorized numpy reference
written from the encodings' rules (the symbol table, DBI, MF, SORT and the
power model), independent of the program's bulk path. On a bounded sample
the program is also compared with the scalar reference code (core,
encoders, power and brute_force_best_permutation), which is too slow for
whole traces.
"""

from __future__ import annotations

import json
import math

import numpy as np

from pam3codec import core, encoders, power
from pam3codec.analysis import read_report
from pam3codec.encoders import Algorithm

from tracegen import Trace

_LEVEL_CHAR = {-1: "-", 0: "0", 1: "+"}
_REPORT_DECIMALS_TOL = 1e-4  # reports print 4 decimals
ENCODED_SAMPLE_FRAMES = 400


def _words(payload: bytes) -> np.ndarray:
    pad = (-len(payload)) % 3
    return np.frombuffer(payload + bytes(pad), dtype=np.uint8).reshape(-1, 3)


_LEVEL_INDEX_PAIRS = np.array(core.PAIR_OF_SYMBOL, dtype=np.int64) + 1  # (8, 2)
_PERMUTATIONS = np.array(encoders.PERMUTATION_IMAGES, dtype=np.int64) + 1  # (6, 3)
_PERMUTATION_OF = np.zeros(27, dtype=np.int64)  # base-3 image triple -> SORT flag
_PERMUTATION_OF[_PERMUTATIONS @ (9, 3, 1)] = np.arange(6)
_FRAME_LINE = 26  # b"A:xxxxxxxx B:xxxxxxxx F:d\n"


def reference_levels(payload: bytes) -> np.ndarray:
    """(n, 16) level indices (0, 1, 2 for -1, 0, +1): line A, then line B."""
    words = _words(payload).astype(np.int64)
    bits = (words[:, :, None] >> np.arange(7, -1, -1)) & 1  # (n, 3, 8), MSB first
    pairs = _LEVEL_INDEX_PAIRS[(bits[:, 0] << 2) | (bits[:, 1] << 1) | bits[:, 2]]
    return np.concatenate([pairs[:, :, 0], pairs[:, :, 1]], axis=1)


def level_totals(levels: np.ndarray) -> tuple[int, int, int]:
    return tuple(int(c) for c in np.bincount(levels.reshape(-1), minlength=3))


def reference_encode(levels: np.ndarray, alg: Algorithm) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame (encoded levels, flags) by each algorithm's rule."""
    n = len(levels)
    counts = np.stack([(levels == i).sum(axis=1) for i in range(3)], axis=1)
    images = np.tile(np.arange(3), (n, 1))
    if alg is Algorithm.NONE:
        flags = np.zeros(n, dtype=np.int64)
    elif alg is Algorithm.DBI:  # invert when -1 outnumbers +1
        flags = (counts[:, 0] > counts[:, 2]).astype(np.int64)
        images[flags == 1] = (2, 1, 0)
    elif alg is Algorithm.MF:  # swap the most frequent level with +1; ties prefer +1, then 0
        flags = 2 - counts[:, ::-1].argmax(axis=1)
        rows = np.arange(n)
        images[rows, flags] = 2
        images[rows, 2] = flags
    else:  # SORT: stable rank of the counts, least frequent to -1
        order = np.argsort(counts, axis=1, kind="stable")
        images[np.arange(n)[:, None], order] = np.arange(3)
        flags = _PERMUTATION_OF[images @ (9, 3, 1)]
    return np.take_along_axis(images, levels, axis=1), flags


def reference_rows(levels: np.ndarray, algorithms) -> dict:
    """Per-algorithm (term, term_ratio, switch, switch_ratio) of a whole trace."""
    model = power.DEFAULT_MODEL
    rows = {}
    for alg in (Algorithm.NONE, *algorithms):
        encoded, _ = reference_encode(levels, alg)
        neg, zero = int((encoded == 0).sum()), int((encoded == 1).sum())
        term = neg * model.term_weight_neg + zero * model.term_weight_zero
        steps = sum(int((np.diff(encoded[:, half].reshape(-1)) ** 2).sum())
                    for half in (slice(0, 8), slice(8, 16)))
        rows[alg] = (term, steps * model.switch_unit_energy)
    base_term, base_switch = rows[Algorithm.NONE]
    return {
        alg: (term, 100.0 * term / base_term, switch,
              100.0 * switch / base_switch if base_switch else None)
        for alg, (term, switch) in rows.items()
    }


def reference_encoded_text(payload: bytes, alg: Algorithm) -> bytes:
    encoded, flags = reference_encode(reference_levels(payload), alg)
    lines = np.empty((len(encoded), _FRAME_LINE), dtype=np.uint8)
    lines[:] = np.frombuffer(b"A:xxxxxxxx B:xxxxxxxx F:d\n", dtype=np.uint8)
    chars = np.frombuffer(b"-0+", dtype=np.uint8)[encoded]
    lines[:, 2:10], lines[:, 13:21] = chars[:, :8], chars[:, 8:]
    lines[:, 24] = ord("0") + flags
    pad = (-len(payload)) % 3
    return f"# alg {alg.value}\n# pad {pad}\n".encode() + lines.tobytes()


def _compare_rows(stats, want: dict, label: str) -> list[str]:
    problems = []
    for alg, expected in want.items():
        report = stats.per_algorithm.get(alg)
        if report is None:
            problems.append(f"{label} lacks {alg.value}")
            continue
        got = (report.term_power_encoded, report.term_ratio_percent,
               report.switch_power_encoded, report.switch_ratio_percent)
        if not all(_close(g, w) for g, w in zip(got, expected)):
            problems.append(f"{label} {alg.value} {got} != {expected}")
    return problems


def _close(a, b) -> bool:
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=_REPORT_DECIMALS_TOL)


def _scalar_frames(payload: bytes) -> list[core.Pam3Frame]:
    return [core.modulate(core.Word24(int(x), int(y), int(z))) for x, y, z in _words(payload)]


def _format_frame(encoded: encoders.EncodedFrame) -> str:
    a = "".join(_LEVEL_CHAR[v] for v in encoded.frame.line_a)
    b = "".join(_LEVEL_CHAR[v] for v in encoded.frame.line_b)
    return f"A:{a} B:{b} F:{encoded.flag}"


def check_analyze(text: str, fmt: str, trace: Trace, algorithms, op_filter: str) -> list[str]:
    """Whole-trace checks of an analyze report: it parses, every count, power
    and ratio matches the reference, and the termination invariants
    SORT <= MF and DBI <= NONE hold."""
    try:
        stats = read_report(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"report does not parse: {exc!r}"]
    problems = []
    levels = reference_levels(trace.kept_payload(op_filter))
    frames, totals = len(levels), level_totals(levels)
    if stats.frame_count != frames:
        problems.append(f"frame_count {stats.frame_count} != {frames}")
    if stats.totals.as_tuple() != totals:
        problems.append(f"totals {stats.totals.as_tuple()} != {totals}")
    for got, count in zip(stats.distribution_percent, totals):
        if not _close(got, 100.0 * count / (16 * frames)):
            problems.append(f"distribution {stats.distribution_percent} off")
            break
    if stats.op_filter != op_filter or stats.flags_in_power:
        problems.append(f"meta op_filter={stats.op_filter} flags={stats.flags_in_power}")
    expected_algs = {Algorithm.NONE, *algorithms}
    if set(stats.per_algorithm) != expected_algs:
        problems.append(f"rows {sorted(a.value for a in stats.per_algorithm)}")
        return problems
    problems += _compare_rows(stats, reference_rows(levels, algorithms), "report")
    term = {alg: r.term_power_encoded for alg, r in stats.per_algorithm.items()}
    for better, worse in ((Algorithm.SORT, Algorithm.MF), (Algorithm.DBI, Algorithm.NONE),
                          (Algorithm.SORT, Algorithm.NONE)):
        if better in term and worse in term and term[better] > term[worse]:
            problems.append(f"{better.value} term {term[better]} > {worse.value} {term[worse]}")
    return problems


def oracle_rows(payload: bytes, algorithms) -> tuple[dict, list[str]]:
    """Per-algorithm (term, term_ratio, switch, switch_ratio) from the scalar
    code, plus any frame where SORT misses the brute-force optimum."""
    frames = _scalar_frames(payload)
    base_term = sum(power.termination_power(f) for f in frames)
    base_switch = power.switching_power(frames)
    rows, problems = {}, []
    for alg in (Algorithm.NONE, *algorithms):
        encoded = [encoders.encode(f, alg).frame for f in frames]
        term = sum(power.termination_power(f) for f in encoded)
        switch = power.switching_power(encoded)
        rows[alg] = (
            term,
            100.0 * term / base_term,
            switch,
            100.0 * switch / base_switch if base_switch else None,
        )
        if alg is Algorithm.SORT:
            for i, (frame, enc) in enumerate(zip(frames, encoded)):
                _, best = encoders.brute_force_best_permutation(frame)
                if not math.isclose(power.termination_power(enc), best, abs_tol=1e-12):
                    problems.append(f"SORT frame {i} misses the brute-force optimum")
                    break
    return rows, problems


def check_against_oracle(text: str, fmt: str, payload: bytes, algorithms) -> list[str]:
    """Compare every power and ratio of a report on a small trace with the
    scalar oracle."""
    try:
        stats = read_report(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"sample report does not parse: {exc!r}"]
    rows, problems = oracle_rows(payload, algorithms)
    return problems + _compare_rows(stats, rows, "sample report vs oracle")


def check_encoded(output: bytes, trace: Trace, alg: Algorithm, rng: np.random.Generator) -> list[str]:
    """The whole encoded text against the reference, byte for byte, and a
    seeded sample of frame lines (always with the padded last frame)
    against the scalar encoder."""
    want = reference_encoded_text(trace.payload, alg)
    if output != want:
        n = min(len(output), len(want))
        diff = np.flatnonzero(np.frombuffer(output[:n], np.uint8) != np.frombuffer(want[:n], np.uint8))
        line = output[: diff[0] if len(diff) else n].count(b"\n") + 1
        return [f"encoded text differs from the reference at line {line} "
                f"({len(output)} vs {len(want)} bytes)"]
    lines = output.decode("ascii").split("\n")
    words = _words(trace.payload)
    picks = rng.choice(len(words), size=min(len(words), ENCODED_SAMPLE_FRAMES), replace=False)
    for i in sorted({*picks.tolist(), len(words) - 1}):
        frame = core.modulate(core.Word24(*(int(v) for v in words[i])))
        expected = _format_frame(encoders.encode(frame, alg))
        if lines[2 + i] != expected:
            return [f"frame {i}: {lines[2 + i]!r} != scalar {expected!r}"]
    return []


def check_decoded(data: bytes, trace: Trace) -> list[str]:
    if data == trace.payload:
        return []
    return [f"decoded {len(data)} bytes differ from the {len(trace.payload)}-byte payload"]


def check_distribution(text: str, trace: Trace, op_filter: str) -> list[str]:
    try:
        got = json.loads(text)
    except ValueError as exc:
        return [f"distribution does not parse: {exc!r}"]
    levels = reference_levels(trace.kept_payload(op_filter))
    frames, totals = len(levels), level_totals(levels)
    want = {key: 100.0 * count / (16 * frames) for key, count in zip(("-1", "0", "+1"), totals)}
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"distribution keys {got!r}"]
    if not all(_close(got[key], want[key]) for key in want):
        return [f"distribution {got} != {want}"]
    return []
