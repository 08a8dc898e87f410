"""Workload definitions, CLI invocation and output checking.

A workload is a cycle of CLI steps on one seeded trace, repeated for the
run's duration. codec_text_zero decodes the output of its own encode step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from pam3codec.encoders import Algorithm

import checks
from tracegen import Trace

ORACLE_SAMPLE_BYTES = 4096
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


@dataclass(frozen=True)
class Step:
    """One CLI subcommand and its options; decode reads the previous step's output."""

    command: str
    alg: Optional[str] = None
    report: Optional[str] = None
    op_filter: str = "all"

    def argv(self, source: Path, dest: Path, raw: bool) -> list[str]:
        argv = [self.command]
        if self.alg:
            argv += ["--alg", self.alg]
        if raw and self.command != "decode":
            argv += ["--format", "raw"]
        if self.op_filter != "all":
            argv += ["--op-filter", self.op_filter]
        if self.report:
            argv += ["--report", self.report]
        return argv + ["--input", str(source), "--output", str(dest)]

    @property
    def algorithms(self) -> tuple[Algorithm, ...]:
        if self.alg == "all":
            return (Algorithm.DBI, Algorithm.MF, Algorithm.SORT)
        return (Algorithm(self.alg.upper()),)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trace_kind: str
    payload_mb: float
    steps: tuple[Step, ...]

    def io_paths(self, trace_path: Path, work: Path, tag: str) -> list[tuple[Path, Path]]:
        """(input, output) of each step of one cycle."""
        paths, previous = [], None
        for i, step in enumerate(self.steps):
            dest = work / f"{tag}{i}.{step.command}"
            paths.append((previous if step.command == "decode" else trace_path, dest))
            previous = dest
        return paths


WORKLOADS = {w.name: w for w in (
    Workload(
        "analyze_raw_uniform",
        "uniform random raw trace, analyze all algorithms: parsing is nearly free, so bulk "
        "modulate, count, three encodes and power totals dominate; no encoded text",
        "raw_uniform", 1.5, (Step("analyze", alg="all", report="csv"),),
    ),
    Workload(
        "codec_text_zero",
        "zero-biased DRAM-like text trace, encode SORT then decode it: text parsing and the "
        "encoded-text writer and reader dominate; analysis is unused",
        "text_zero", 0.5, (Step("encode", alg="sort"), Step("decode")),
    ),
    Workload(
        "analyze_text_zero",
        "the same kind of trace, analyze SORT on reads only plus distribution: text parsing "
        "and framing are a large share and a third of the records are filtered out",
        "text_zero", 2.0,
        (Step("analyze", alg="sort", report="json", op_filter="read"),
         Step("distribution", report="json")),
    ),
)}


@dataclass
class Ledger:
    """Every checked operation of a run and the problems of failed ones."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append((label, problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: bytes
    output: Optional[bytes]

    def problems(self) -> list[str]:
        problems = []
        if self.exit_code != 0:
            problems.append(f"exit code {self.exit_code}")
        if b"Traceback" in self.stderr:
            problems.append("traceback on stderr")
        if self.output is None:
            problems.append("no output file")
        return problems


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def invoke_cli(argv: list[str], dest: Path, work: Path, src: Path) -> Invocation:
    """Run one CLI subprocess through launch.py, which times it and reads
    its own peak RSS with os.wait4."""
    dest.unlink(missing_ok=True)
    err_path, result_path = work / "stderr.txt", work / "launch.json"
    result_path.unlink(missing_ok=True)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), str(result_path),
             sys.executable, "-m", "pam3codec", *argv],
            cwd=work, env=cli_env(src),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        wall = time.perf_counter() - start
    if proc.returncode == 0 and result_path.exists():
        launched = json.loads(result_path.read_text())
    else:
        launched = {"wall_s": wall, "exit_code": proc.returncode or -1, "peak_rss_mb": 0.0}
    return Invocation(
        stderr=err_path.read_bytes(),
        output=dest.read_bytes() if dest.exists() else None,
        **launched,
    )


def check_output(step: Step, output: bytes, trace: Trace, rng: np.random.Generator) -> list[str]:
    if step.command == "decode":
        return checks.check_decoded(output, trace)
    if step.command == "encode":
        return checks.check_encoded(output, trace, step.algorithms[0], rng)
    text = output.decode("ascii", errors="replace")
    if step.command == "analyze":
        return checks.check_analyze(text, step.report, trace, step.algorithms, step.op_filter)
    return checks.check_distribution(text, trace, step.op_filter)


class OutputChecker:
    """Checks each output of a step repeated on the same input.

    An output identical to one already checked gets the same verdict, so
    repeated invocations cost one byte comparison each.
    """

    def __init__(self, step: Step, trace: Trace, rng: np.random.Generator):
        self.step, self.trace, self.rng = step, trace, rng
        self.seen: Optional[tuple[bytes, list[str]]] = None

    def __call__(self, output: bytes) -> list[str]:
        if self.seen is not None and self.seen[0] == output:
            return self.seen[1]
        problems = check_output(self.step, output, self.trace, self.rng)
        self.seen = (output, problems)
        return problems


def prepare(wl: Workload, trace: Trace, work: Path, src: Path, ledger: Ledger,
            rng: np.random.Generator) -> Path:
    """Write the workload's trace file and run its untimed oracle checks.

    Each analyze step runs once on a small head of the trace, and that
    report is compared with the scalar oracle. Returns the trace path.
    """
    trace_path = work / f"trace{trace.suffix}"
    trace_path.write_bytes(trace.content)
    head = trace.head(ORACLE_SAMPLE_BYTES)
    head_path = work / f"head{trace.suffix}"
    head_path.write_bytes(head.content)
    for step in wl.steps:
        if step.command != "analyze":
            continue
        dest = work / "head.report"
        inv = invoke_cli(step.argv(head_path, dest, trace.reads is None), dest, work, src)
        problems = inv.problems()
        if not problems:
            text = inv.output.decode("ascii", errors="replace")
            problems = check_output(step, inv.output, head, rng) + checks.check_against_oracle(
                text, step.report, head.kept_payload(step.op_filter), step.algorithms)
        ledger.record("oracle sample", problems)
    return trace_path
