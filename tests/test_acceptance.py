"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; a failing criterion prints FAIL and the assertion detail.
"""

import functools
import time

import numpy as np
import pytest

from pam3codec import bulk
from pam3codec.analysis import analyze_trace, read_report, signal_distribution, write_report
from pam3codec.core import Pam3Frame, Word24, count_symbols, demodulate, modulate
from pam3codec.encoders import (
    Algorithm,
    brute_force_best_permutation,
    decode,
    encode,
)
from pam3codec.errors import ZeroBaseline
from pam3codec.power import TERM_WEIGHT_NEG, TERM_WEIGHT_ZERO, termination_power
from pam3codec.traceio import FrameStream, TraceRecord, frame_records, generate_random_trace

SEED = 20240501


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"\n[FAIL] {label}")
                raise
            print(f"\n[PASS] {label}")
        return run
    return wrap


def _frame(row) -> Pam3Frame:
    return Pam3Frame(tuple(int(v) for v in row[0]), tuple(int(v) for v in row[1]))


def _frame_powers(levels):
    """Per-frame termination power of (n, 2, 8) levels, from their counts;
    +1 costs nothing."""
    cnt = bulk.count_block(levels)
    return cnt[:, 0] * TERM_WEIGHT_NEG + cnt[:, 1] * TERM_WEIGHT_ZERO


def _encoded_levels(levels, algorithm):
    return bulk.levels_of_masks(bulk.encode_block(bulk.masks_of_levels(levels), algorithm)[0])


def _random_frames(count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-1, 2, (count, 2, 8)).astype(np.int8)


@criterion("criterion 1: modulation roundtrip, exhaustive over all 2^24 words")
def test_criterion_1_modulation_roundtrip():
    chunk = 1 << 20
    for start in range(0, 1 << 24, chunk):
        vals = np.arange(start, start + chunk, dtype=np.uint32)
        words = np.empty((chunk, 3), dtype=np.uint8)
        words[:, 0] = vals >> 16
        words[:, 1] = (vals >> 8) & 0xFF
        words[:, 2] = vals & 0xFF
        assert (bulk.demodulate_block(bulk.modulate_block(words)) == words).all()
    # the scalar operations agree with the array path on a large sample
    rng = np.random.default_rng(SEED)
    sample = rng.integers(0, 256, (100_000, 3), dtype=np.uint8)
    lv = bulk.levels_of_masks(bulk.modulate_block(sample))
    for i in range(0, len(sample), 1000):
        word = Word24(*map(int, sample[i]))
        assert modulate(word) == _frame(lv[i])
    for row in sample[:100_000:10]:
        word = Word24(*map(int, row))
        assert demodulate(modulate(word)) == word


@criterion("criterion 2: DBI/MF/SORT roundtrips on 10^5 random frames each")
def test_criterion_2_encoder_roundtrips():
    levels = _random_frames(100_000, SEED + 1)
    frames = [_frame(row) for row in levels]
    for alg in (Algorithm.DBI, Algorithm.MF, Algorithm.SORT):
        failures = sum(1 for f in frames if decode(encode(f, alg)) != f)
        assert failures == 0


@criterion("criterion 3: SORT power equals brute-force optimum on 10^4 frames")
def test_criterion_3_sort_optimality():
    levels = _random_frames(10_000, SEED + 2)
    for row in levels:
        frame = _frame(row)
        _, best = brute_force_best_permutation(frame)
        assert termination_power(encode(frame, Algorithm.SORT).frame) == best


@criterion("criterion 4: dominance SORT <= {DBI, MF} <= baseline on 10^4 frames")
def test_criterion_4_dominance():
    levels = _random_frames(10_000, SEED + 3)
    baseline = _frame_powers(levels)
    p_dbi = _frame_powers(_encoded_levels(levels, Algorithm.DBI))
    p_mf = _frame_powers(_encoded_levels(levels, Algorithm.MF))
    p_sort = _frame_powers(_encoded_levels(levels, Algorithm.SORT))
    assert (p_sort <= p_dbi).all() and (p_dbi <= baseline).all()
    assert (p_sort <= p_mf).all() and (p_mf <= baseline).all()
    # scalar spot checks along the same chain
    for row in levels[::37]:
        frame = _frame(row)
        base = termination_power(frame)
        s = termination_power(encode(frame, Algorithm.SORT).frame)
        assert s <= termination_power(encode(frame, Algorithm.DBI).frame) <= base
        assert s <= termination_power(encode(frame, Algorithm.MF).frame) <= base


@criterion("criterion 5: >= 40% termination reduction on a -1 dominant trace, SORT lowest")
def test_criterion_5_skewed_trace_reduction():
    rng = np.random.default_rng(SEED + 4)
    n_bytes = 300_000  # 10^5 frames
    payload = np.where(
        rng.random(n_bytes) < 0.9,
        np.zeros(n_bytes, dtype=np.uint8),
        rng.integers(0, 256, n_bytes, dtype=np.uint8),
    ).astype(np.uint8).tobytes()
    started = time.perf_counter()
    stream = frame_records([TraceRecord("W", 0, payload)])
    stats = analyze_trace(stream)
    elapsed = time.perf_counter() - started
    assert len(stream) == 100_000
    ratios = {a: r.term_ratio_percent for a, r in stats.per_algorithm.items()}
    for alg in (Algorithm.DBI, Algorithm.MF, Algorithm.SORT):
        assert ratios[alg] <= 60.0, f"{alg.value} ratio {ratios[alg]:.2f}% > 60%"
    assert ratios[Algorithm.SORT] == min(
        ratios[a] for a in (Algorithm.DBI, Algorithm.MF, Algorithm.SORT)
    )
    assert elapsed < 10.0, f"analysis took {elapsed:.1f}s"


@criterion("criterion 6: signal distribution, uniform random and all-zero traces")
def test_criterion_6_distribution():
    stream = frame_records(generate_random_trace(3_000_000, seed=SEED + 5))
    assert len(stream) >= 1_000_000
    dist = signal_distribution(stream)
    assert abs(dist[0] - 37.5) < 1.0
    assert abs(dist[1] - 25.0) < 1.0
    assert abs(dist[2] - 37.5) < 1.0
    zero_stream = frame_records([TraceRecord("W", 0, bytes(3_000))])
    assert signal_distribution(zero_stream) == (100.0, 0.0, 0.0)


@criterion("criterion 7: degenerate traces, exact 0% ratios and ZeroBaseline")
def test_criterion_7_degenerate_traces():
    zero_stats = analyze_trace(frame_records([TraceRecord("W", 0, bytes(3_000))]))
    for alg in (Algorithm.DBI, Algorithm.MF, Algorithm.SORT):
        assert zero_stats.per_algorithm[alg].term_ratio_percent == 0.0
    csv_text = write_report(zero_stats, "csv")
    for alg in ("DBI", "MF", "SORT"):
        assert f"{alg},0.0000,0.0000," in csv_text
    # all-0xFF means zero baseline termination power: the ratio must error
    ff_stream = frame_records([TraceRecord("W", 0, b"\xff" * 3_000)])
    with pytest.raises(ZeroBaseline):
        analyze_trace(ff_stream)


@criterion("criterion 8: switching sanity and report roundtrips")
def test_criterion_8_switching_and_reports():
    constant = analyze_trace(frame_records([TraceRecord("W", 0, bytes(300))]))
    for report in constant.per_algorithm.values():
        assert report.switch_power_encoded == 0.0
        assert report.switch_ratio_percent is None  # the NONE row never switches
    stream = FrameStream(bulk.masks_of_levels(_random_frames(10_000, SEED + 6)), 0)
    stats = analyze_trace(stream)
    for report in stats.per_algorithm.values():
        assert report.switch_ratio_percent is not None
        assert np.isfinite(report.switch_ratio_percent)
    for fmt in ("csv", "json"):
        first = write_report(stats, fmt)
        assert write_report(read_report(first, fmt), fmt) == first


@criterion("criterion 9: DBI leaves cnt(-1) <= cnt(+1) on 10^5 random frames")
def test_criterion_9_dbi_postcondition():
    levels = _random_frames(100_000, SEED + 7)
    violations = 0
    for row in levels:
        c = count_symbols(encode(_frame(row), Algorithm.DBI).frame)
        if c.neg > c.pos:
            violations += 1
    assert violations == 0
