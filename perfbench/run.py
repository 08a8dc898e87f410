"""pam3codec benchmark: CLI throughput, peak memory and set-up time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's trace from the seed, then repeats
the workload's cycle of CLI steps (from ./src) for about S seconds, one
subprocess per invocation, one at a time, and checks every output. With
--trace 1 it instead alternates untraced and traced in-process cycles and
reports per-layer metrics (see layers.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the trace's measured properties, the
per-subcommand throughputs, error_rate and every invocation's wall time.

Metrics (--trace 0):
  throughput_mb_s  payload MB (10^6 decoded bytes, not file bytes) of all
                   invocations / their summed wall seconds
  peak_rss_mb      highest peak RSS of any one CLI child, from os.wait4
  setup_s          median wall time of a fresh interpreter importing
                   pam3codec.cli, sampled once after every cycle
  success_pct      100 * (1 - error_rate): share of operations that exited
                   0, printed no traceback and passed every output check
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 7
MIN_CYCLES = 3


def time_import(src: Path, ledger) -> float:
    """Wall time of a fresh interpreter doing `import pam3codec.cli`."""
    from workloads import cli_env

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import pam3codec.cli"],
                          cwd=ROOT, env=cli_env(src), capture_output=True)
    wall = time.perf_counter() - start
    ledger.record("setup import", [proc.stderr.decode()[-300:]] if proc.returncode else [])
    return wall


def measure_cli(wl, trace, trace_path: Path, work: Path, seconds: float, ledger, rng) -> dict:
    """Repeat the workload's cycle for about `seconds`; never starts a cycle
    expected to end past the deadline once MIN_CYCLES ran."""
    from workloads import OutputChecker, invoke_cli

    raw = trace.reads is None
    paths = wl.io_paths(trace_path, work, "out")
    checkers = [OutputChecker(step, trace, rng) for step in wl.steps]
    walls = {step.command: [] for step in wl.steps}
    rss, cycles, setups = [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for step, (source, dest), check in zip(wl.steps, paths, checkers):
            inv = invoke_cli(step.argv(source, dest, raw), dest, work, SRC)
            ledger.record(f"{step.command} {len(walls[step.command])}",
                          inv.problems() or check(inv.output))
            walls[step.command].append(inv.wall_s)
            rss.append(inv.peak_rss_mb)
        cycles.append(time.perf_counter() - cycle_start)
        setups.append(time_import(SRC, ledger))
        elapsed = time.perf_counter() - start
        if len(cycles) >= MIN_CYCLES and elapsed + statistics.median(cycles) > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(time_import(SRC, ledger))
    payload_mb = len(trace.payload) / 1e6
    all_walls = [w for ws in walls.values() for w in ws]
    return {
        "throughput_mb_s": payload_mb * len(all_walls) / sum(all_walls),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setups),
        "per_command": {f"{cmd}_mb_s": payload_mb * len(ws) / sum(ws)
                        for cmd, ws in walls.items()},
        "cycles": len(cycles),
        "wall_s": walls,
        "setup_samples_s": setups,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--payload-mb", type=float, default=None,
                        help="override the workload's trace size, e.g. for scaling runs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pam3codec" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'pam3codec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import layers
    import tracegen
    from workloads import WORKLOADS, Ledger, prepare

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    payload_mb = wl.payload_mb if args.payload_mb is None else args.payload_mb
    trace = tracegen.GENERATORS[wl.trace_kind](int(payload_mb * 1e6), rng)
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        trace_path = prepare(wl, trace, work, SRC, ledger, rng)
        if args.trace:
            metrics = layers.run_traced(wl, trace, trace_path, work, args.seconds, ledger, rng)
            units = {name: unit for name, unit, _, _ in layers.METRICS}
            details = {}
        else:
            details = measure_cli(wl, trace, trace_path, work, args.seconds, ledger, rng)
            metrics = {name: details.pop(name) for name in ("throughput_mb_s", "peak_rss_mb",
                                                             "setup_s")}
            metrics["success_pct"] = 100.0 * (ledger.attempted - ledger.failed) / ledger.attempted
            units = {"throughput_mb_s": "MB/s", "peak_rss_mb": "MB", "setup_s": "s",
                     "success_pct": "%"}
    for label, problems in ledger.failures:
        print(f"perfbench: {label}: {'; '.join(problems)}", file=sys.stderr)
    named = {name: {"value": value, "unit": "MB/s"}
             for name, value in details.pop("per_command", {}).items()}
    named["error_rate"] = {"value": ledger.failed / ledger.attempted, "unit": "1"}
    print(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "trace": trace.stats(),
        "metrics": named,
        **details,
    }))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
