"""Tests of the benchmark itself, on small traces.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracegen  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_MB = "0.02"


def _run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--payload-mb", SMALL_MB],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    declared = {(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == {(name, unit, better) for name, unit, better, _ in layers.METRICS}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    info, result = _run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["metrics"]["error_rate"] == {"value": 0.0, "unit": "1"}
    assert {"zero_byte_pct", "read_records", "write_records"} <= set(info["trace"])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])


def _corrupt(output: bytes) -> bytes:
    """Change the first digit or level symbol from the middle of an output
    to another one of its kind, so the output still looks well formed."""
    data = bytearray(output)
    swap = {ord("+"): ord("-"), ord("-"): ord("+"), ord("0"): ord("+")}
    for i in range(len(data) // 2, len(data)):
        if chr(data[i]).isdigit() and data[i] != ord("0"):
            data[i] = ord("1") if data[i] != ord("1") else ord("2")
            return bytes(data)
        if data[i] in swap:
            data[i] = swap[data[i]]
            return bytes(data)
    data[len(data) // 2] ^= 0xFF
    return bytes(data)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_corrupted_cli_output_raises_error_rate(workload, monkeypatch, tmp_path):
    real_invoke = workloads.invoke_cli

    def corrupting_invoke(argv, dest, work, src):
        inv = real_invoke(argv, dest, work, src)
        if inv.output is None or not dest.name.startswith("out"):  # timed invocations only
            return inv
        return workloads.Invocation(inv.wall_s, inv.peak_rss_mb, inv.exit_code,
                                    inv.stderr, _corrupt(inv.output))

    wl = workloads.WORKLOADS[workload]
    monkeypatch.setattr(workloads, "invoke_cli", corrupting_invoke)
    rng = np.random.default_rng(5)
    trace = tracegen.GENERATORS[wl.trace_kind](20_000, rng)
    ledger = workloads.Ledger()
    source = workloads.prepare(wl, trace, tmp_path, run.SRC, ledger, rng)
    run.measure_cli(wl, trace, source, tmp_path, 0.1, ledger, rng)
    assert ledger.failed > 0
    commands = {step.command for step in wl.steps}
    assert {label.split()[0] for label, _ in ledger.failures} == commands


def test_peak_rss_is_the_cli_child_own(tmp_path):
    ballast = np.ones(200_000_000, dtype=np.uint8)  # 200 MB resident in this process
    trace = tracegen.raw_uniform(3000, np.random.default_rng(1))
    (tmp_path / "in.raw").write_bytes(trace.content)
    argv = ["distribution", "--format", "raw", "--input", "in.raw", "--output", "out"]
    inv = workloads.invoke_cli(argv, tmp_path / "out", tmp_path, run.SRC)
    assert inv.problems() == []
    assert 10 < inv.peak_rss_mb < 150 < ballast.nbytes / 1e6


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec_text_zero",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("kind", ["raw_uniform", "text_zero"])
def test_vectorized_reference_matches_the_scalar_oracle(kind):
    payload = tracegen.GENERATORS[kind](3001, np.random.default_rng(9)).payload
    algorithms = (checks.Algorithm.DBI, checks.Algorithm.MF, checks.Algorithm.SORT)
    frames = checks._scalar_frames(payload)
    levels = checks.reference_levels(payload)
    assert checks.level_totals(levels) == tuple(
        int(v) for v in np.sum([checks.core.count_symbols(f).as_tuple() for f in frames], axis=0))
    oracle, problems = checks.oracle_rows(payload, algorithms)
    assert problems == []
    reference = checks.reference_rows(levels, algorithms)
    assert reference.keys() == oracle.keys()
    for alg, row in reference.items():
        assert all(checks._close(a, b) for a, b in zip(row, oracle[alg])), alg
    for alg in algorithms:
        text = checks.reference_encoded_text(payload, alg).decode().split("\n")
        assert text[2:-1] == [
            checks._format_frame(checks.encoders.encode(f, alg)) for f in frames]


def test_text_trace_has_the_intended_shape():
    trace = tracegen.text_zero(64 * 3000, np.random.default_rng(2))
    stats = trace.stats()
    assert stats["records"] == 3000
    assert 0.6 < stats["read_records"] / stats["records"] < 0.73
    assert 25 < stats["all_zero_record_pct"] < 35
    assert 60 < stats["zero_byte_pct"] < 70
    assert trace.content.count(b"\n") == 3000
    same = tracegen.text_zero(64 * 3000, np.random.default_rng(2))
    assert same.content == trace.content
