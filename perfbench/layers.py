"""Traced in-process run: per-layer spans and counts from outside the program.

The program is not changed. Spans are recorded by replacing module
attributes (for example bulk.encode_block or cli.frame_records) with
wrappers for the duration of one invocation of cli.main, and restoring
them afterwards. Calls inside bulk look the functions up as module
globals, so they go through the wrappers too (count_block inside
encode_block). A layer's self time is its span's duration minus the time
covered by its direct child spans.

A site that no longer exists (after a refactor) is skipped, and its
metrics are left out of the result instead of failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from pam3codec.encoders import Algorithm

from tracegen import Trace
from workloads import Ledger, OutputChecker, Workload

MIN_REPS = 2
ALLOC_CYCLE_COST = 2.5  # untraced cycles: one more plus the tracemalloc cycle


def _alg_name(args, kwargs) -> str:
    alg = next((a for a in (*args, *kwargs.values()) if isinstance(a, Algorithm)), None)
    return getattr(alg, "value", "unknown")


def _count_parsed(values, result):
    values["traceio.parse_text_trace.records"] += len(result)
    values["traceio.parse_text_trace.bytes"] += sum(len(r.payload) for r in result)


def _count_framed(values, args, result, command):
    values["traceio.frame_records.frames"] += len(result)
    values["traceio.frame_records.pad_bytes"] += result.pad_bytes
    values[f"cli.{command}.records_kept"] += len(args[0])


def _count_flags(values, span, result):
    for flag, n in enumerate(np.bincount(np.asarray(result[1], dtype=np.int64)).tolist()):
        values[f"{span}.flag_{flag}"] += n


# (module, attribute, span name); span names use the defining module, not
# the module the attribute is looked up on.
SITES = (
    ("cli", "parse_text_trace", "traceio.parse_text_trace"),
    ("cli", "parse_raw_trace", "traceio.parse_raw_trace"),
    ("cli", "frame_records", "traceio.frame_records"),
    ("cli", "analyze_trace", "analysis.analyze_trace"),
    ("cli", "write_report", "analysis.write_report"),
    ("cli", "signal_distribution", "analysis.signal_distribution"),
    ("bulk", "modulate_block", "bulk.modulate_block"),
    ("bulk", "count_block", "bulk.count_block"),
    ("bulk", "encode_block", "bulk.encode_block"),
    ("bulk", "decode_block", "bulk.decode_block"),
    ("bulk", "demodulate_block", "bulk.demodulate_block"),
    ("bulk", "termination_total", "bulk.termination_total"),
    ("bulk", "switching_total", "bulk.switching_total"),
)
PER_ALGORITHM = ("bulk.encode_block", "bulk.decode_block")
ALLOC_SPANS = ("traceio.frame_records", "analysis.analyze_trace")
COMMANDS = ("analyze", "encode", "decode", "distribution")
FLAG_VALUES = {"DBI": 2, "MF": 3, "SORT": 6}


def _metric_table() -> list[tuple[str, str, str, str]]:
    """(metric, unit, better, span it needs) for every per-layer metric."""
    table = [
        ("input.zero_byte_pct", "%", "higher", ""),
        ("input.read_record_pct", "%", "higher", ""),
        ("tracing.overhead_s", "s", "lower", ""),
    ]
    for cmd in COMMANDS:
        table += [(f"cli.{cmd}.s", "s", "lower", ""),
                  (f"cli.{cmd}.records_kept", "count", "higher", "")]
    table += [("cli.encode.self_s", "s", "lower", ""), ("cli.decode.self_s", "s", "lower", "")]
    for *_, span in SITES:
        if span == "bulk.encode_block":
            for alg, n in FLAG_VALUES.items():
                table.append((f"{span}.{alg}.s", "s", "lower", span))
                table += [(f"{span}.{alg}.flag_{k}", "count", "higher", span) for k in range(n)]
        elif span == "bulk.decode_block":
            table.append((f"{span}.SORT.s", "s", "lower", span))
        else:
            table.append((f"{span}.s", "s", "lower", span))
    table += [
        ("traceio.parse_text_trace.records", "count", "higher", "traceio.parse_text_trace"),
        ("traceio.parse_text_trace.bytes", "count", "higher", "traceio.parse_text_trace"),
        ("traceio.frame_records.self_s", "s", "lower", "traceio.frame_records"),
        ("traceio.frame_records.frames", "count", "higher", "traceio.frame_records"),
        ("traceio.frame_records.pad_bytes", "count", "higher", "traceio.frame_records"),
        ("bulk.count_block.calls", "count", "lower", "bulk.count_block"),
        ("analysis.analyze_trace.self_s", "s", "lower", "analysis.analyze_trace"),
    ]
    table += [(f"{span}.alloc_peak_mb", "MB", "lower", span) for span in ALLOC_SPANS]
    return table


METRICS = _metric_table()


class Tracer:
    """Aggregates span durations, self times, call counts and counters."""

    def __init__(self):
        self.command = ""  # the CLI step being traced
        self.values = defaultdict(float)
        self._children = []  # child time accumulated per open span

    def step(self, command: str):
        """Span of one CLI step; framed records count towards this command."""
        self.command = command
        return self.span(f"cli.{command}")

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        self._children.append(0.0)
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self.values[f"{name}.s"] += duration
            self.values[f"{name}.self_s"] += duration - children
            self.values[f"{name}.calls"] += 1

    def wrap(self, span: str, fn):
        def traced(*args, **kwargs):
            name = f"{span}.{_alg_name(args, kwargs)}" if span in PER_ALGORITHM else span
            with self.span(name):
                result = fn(*args, **kwargs)
            if span == "traceio.parse_text_trace":
                _count_parsed(self.values, result)
            elif span == "traceio.frame_records":
                _count_framed(self.values, args, result, self.command)
            elif span == "bulk.encode_block":
                _count_flags(self.values, name, result)
            return result
        return traced


def _alloc_wrap(values, span: str, fn):
    def measured(*args, **kwargs):
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
        key = f"{span}.alloc_peak_mb"
        values[key] = max(values[key], (peak - base) / 1e6)
        return result
    return measured


@contextmanager
def patched(make_wrapper, spans=None):
    """Replace each present site whose span is in spans (all by default)."""
    saved = []
    try:
        for module_name, attr, span in SITES:
            if spans is not None and span not in spans:
                continue
            module = importlib.import_module(f"pam3codec.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(span, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def present_spans() -> set[str]:
    found = set()
    for module_name, attr, span in SITES:
        module = importlib.import_module(f"pam3codec.{module_name}")
        if getattr(module, attr, None) is not None:
            found.add(span)
    return found


def _call_main(argv: list[str], dest: Path, check: OutputChecker, ledger: Ledger, label: str):
    from pam3codec import cli

    dest.unlink(missing_ok=True)
    try:
        code = cli.main(argv)
    except Exception as exc:  # an in-process crash is a failed operation
        ledger.record(label, [f"raised {exc!r}"])
        return
    if code != 0:
        ledger.record(label, [f"exit code {code}"])
    elif not dest.exists():
        ledger.record(label, ["no output file"])
    else:
        ledger.record(label, check(dest.read_bytes()))


def run_traced(wl: Workload, trace: Trace, trace_path: Path, work: Path, seconds: float,
               ledger: Ledger, rng: np.random.Generator) -> dict:
    """After one warm-up cycle, alternate untraced and traced in-process
    cycles for `seconds`, then one tracemalloc cycle; returns per-layer metric values (medians over
    the traced cycles)."""
    raw = trace.reads is None
    paths = wl.io_paths(trace_path, work, "inprocess")
    argvs = [step.argv(source, dest, raw) for step, (source, dest) in zip(wl.steps, paths)]
    checkers = [OutputChecker(step, trace, rng) for step in wl.steps]

    def cycle(label, tracer=None):
        for step, argv, (_, dest), check in zip(wl.steps, argvs, paths, checkers):
            with nullcontext() if tracer is None else tracer.step(step.command):
                _call_main(argv, dest, check, ledger, f"{label} {step.command}")

    untraced, traced, reps = [], [], []
    start = time.perf_counter()
    cycle("warm-up")  # the first in-process cycle also pays lazy set-up and page faults
    while len(reps) < MIN_REPS or (
        # room for one more untraced and traced cycle plus the tracemalloc cycle
        time.perf_counter() - start + statistics.median(traced)
        + ALLOC_CYCLE_COST * statistics.median(untraced) < seconds
    ):
        t0 = time.perf_counter()
        cycle("untraced")
        untraced.append(time.perf_counter() - t0)

        tracer = Tracer()
        with patched(tracer.wrap):
            t0 = time.perf_counter()
            cycle("traced", tracer)
            traced.append(time.perf_counter() - t0)
        reps.append(tracer.values)

    alloc = defaultdict(float)
    tracemalloc.start()
    try:
        with patched(lambda span, fn: _alloc_wrap(alloc, span, fn), ALLOC_SPANS):
            cycle("tracemalloc")
    finally:
        tracemalloc.stop()

    stats = trace.stats()
    fixed = {
        "input.zero_byte_pct": stats["zero_byte_pct"],
        "input.read_record_pct": 100.0 * stats["read_records"] / stats["records"],
        "tracing.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    spans = present_spans()
    out = {}
    for name, _, _, needs in METRICS:
        if needs and needs not in spans:
            continue
        if name in fixed:
            out[name] = fixed[name]
        elif name.endswith(".alloc_peak_mb"):
            out[name] = alloc[name]
        else:
            out[name] = statistics.median(rep.get(name, 0.0) for rep in reps)
    return out
