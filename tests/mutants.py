"""Mutation gate: every listed one-line mutant of the source must fail its tests.

For each mutant, src/ is copied to a temporary directory and one line of
the copy is edited; the mutant's test file then runs against the copy with
hypothesis derandomized, and must fail. An edit whose text is not found
once in its source file is an error, so the list cannot go stale without
notice. A test file that fails on the source as it is kills every mutant,
so run this after the tests pass. From the root of the repository:

    python tests/mutants.py [name ...]

Without names every mutant runs; the exit code is 0 only if each is killed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    source: str  # under src/pam3codec
    old: str  # found exactly once in source
    new: str
    tests: str  # the test file that must fail


ANALYSIS, BULK, CLI = "tests/test_analysis.py", "tests/test_bulk.py", "tests/test_cli.py"
ENCODERS = "tests/test_encoders.py"
GOLDEN, POWER = "tests/test_golden_reports.py", "tests/test_power.py"
STREAM, TRACEIO = "tests/test_stream.py", "tests/test_traceio.py"

MUTANTS = [
    # the paper's invariants: modulation, the flag rules, the power totals
    Mutant("modulate", "bulk.py", "(x & y & ~z)", "(x & y & z)", BULK),
    Mutant("demodulate", "bulk.py", "| (pos_a & ~neg_b)", "| (pos_a & neg_b)", BULK),
    Mutant("unused-pair", "bulk.py", "unused = zero_a & zero_b", "unused = zero_a & zero_b & 0",
           BULK),
    Mutant("sort-rank", "encoders.py", "images[level_index] = rank - 1",
           "images[level_index] = 1 - rank", BULK),
    Mutant("mf-tie", "encoders.py", "return max(i for i in range(3)",
           "return min(i for i in range(3)", ENCODERS),
    Mutant("dbi-tie", "encoders.py", "counts[0] > counts[2]", "counts[0] >= counts[2]", TRACEIO),
    Mutant("count-key", "bulk.py", "cnt_neg * 17 + (16 - cnt_neg", "cnt_neg * 17 + (17 - cnt_neg",
           BULK),
    Mutant("not-lsb", "bulk.py", "np.uint16(0xFEFE)", "np.uint16(0xFFFE)", BULK),
    Mutant("edge-cost", "bulk.py", "** 2 - 1", "** 2 - 2", BULK),
    Mutant("zero-edges", "bulk.py", "(neg, neg | pos, pos)", "(neg, pos, pos)", BULK),
    Mutant("zero-switch-baseline", "analysis.py", "if base_switch else None",
           "if base_switch else 0.0", ANALYSIS),
    Mutant("term-weight-zero", "power.py", "TERM_WEIGHT_ZERO = 1 / 200",
           "TERM_WEIGHT_ZERO = 1 / 100", POWER),
    # a JSON report writes an int total as 19365, not 19365.0
    Mutant("switching-int", "bulk.py", "        return float(steps)", "        return steps",
           GOLDEN),
    # perfbench/checks.py reads power.DEFAULT_MODEL
    Mutant("default-model-name", "power.py", "DEFAULT_MODEL = SimpleNamespace(",
           "_DEFAULT_MODEL = SimpleNamespace(", CLI),
    # a bijection is its index into PERMUTATION_IMAGES
    Mutant("inverse-images", "encoders.py", "return tuple(images.index(v) - 1 for v in (-1, 0, 1))",
           "return images", ENCODERS),
    Mutant("brute-force-tie", "encoders.py", "return powers.index(best), best",
           "return 5 - powers[::-1].index(best), best", ENCODERS),
    # the algorithm arguments: Algorithm(x) is the one rule
    Mutant("lone-algorithm", "analysis.py", "if isinstance(algorithms, (str, Algorithm)):",
           "if False:", ANALYSIS),
    Mutant("unknown-algorithm", "encoders.py",
           'raise ValueError(f"unknown algorithm {value!r}; expected one of {names}")',
           "return None", ENCODERS),
    # the input boundaries
    Mutant("csv-repeated-row", "analysis.py", 'if name in obj["per_algorithm"]:', "if False:",
           ANALYSIS),
    Mutant("json-repeated-field", "analysis.py", "if key in obj:", "if False:", ANALYSIS),
    Mutant("csv-writers-text", "analysis.py",
           "fields[name] = value if _KINDS[kind].text(value) == text else text",
           "fields[name] = value", ANALYSIS),
    Mutant("pad-index", "traceio.py",
           'object.__setattr__(self, "pad_bytes", operator.index(self.pad_bytes))', "pass",
           TRACEIO),
    Mutant("bytes-payload", "traceio.py", "if memoryview(self.payload).nbytes < 1:",
           "if len(self.payload) < 1:", TRACEIO),
    # a report must agree with itself
    Mutant("none-row-ratios", "analysis.py", "if found != ratio:", "if False:", ANALYSIS),
    Mutant("switch-ratio-rows", "analysis.py",
           "if (row.switch_ratio_percent is None) != (none.switch_ratio_percent is None):",
           "if False:", ANALYSIS),
    Mutant("sort-term-order", "analysis.py",
           "and sort.term_power_encoded > row.term_power_encoded):", "and False):", ANALYSIS),
    Mutant("sort-order-flags", "analysis.py", "and not flags_in_power", "", ANALYSIS),
    Mutant("frame-count-totals", "analysis.py", "if 16 * frame_count != sum(totals):",
           "if False:", ANALYSIS),
    Mutant("distribution-shares", "analysis.py", "if found != round(share, 4):", "if False:",
           ANALYSIS),
    Mutant("no-frames", "analysis.py", "if not frame_count:", "if False:", ANALYSIS),
    # a TraceStats keeps its totals, and frame_count follows from them
    Mutant("frame-count-levels", "analysis.py", "sum(self.totals.as_tuple()) // 16",
           "sum(self.totals.as_tuple()) // 8", ANALYSIS),
    Mutant("unknown-algorithm-row", "analysis.py",
           "unknown = [name for name in rows if name not in {alg.value for alg in Algorithm}]",
           "unknown = []", ANALYSIS),
    Mutant("boundary-states", "bulk.py", "np.add.at(self.boundaries, (self._last, first[0]), 1)",
           "pass", BULK),
    Mutant("boundary-states-stream", "bulk.py",
           "np.add.at(self.boundaries, (self._last, first[0]), 1)", "pass", STREAM),
    Mutant("check-flags-min", "bulk.py", "flags.min() < 0 or ", "", BULK),
    Mutant("disjoint-masks", "bulk.py", "if (masks[0] & masks[1]).any():", "if False:",
           TRACEIO),
    Mutant("contiguous-rows", "bulk.py", "masks[0].flags.c_contiguous", "True", BULK),
    Mutant("demodulate-mask-check", "bulk.py", "    check_masks(masks)\n    (neg_a, neg_b)",
           "    (neg_a, neg_b)", BULK),
    Mutant("rows-mask-check", "traceio.py", "    bulk.check_masks(masks)\n    flags =",
           "    flags =", TRACEIO),
    Mutant("address-digits", "traceio.py", "_ADDRESS_TOKEN = (3, 18)", "_ADDRESS_TOKEN = (3, 19)",
           TRACEIO),
    Mutant("lines-ascii", "traceio.py", "if not line.isascii():", "if False:", TRACEIO),
    # text lines are bytes: str.split would also part fields at \x1c-\x1f
    Mutant("str-split", "traceio.py", "fields = stripped.split()",
           "fields = [field.encode() for field in stripped.decode().split()]", CLI),
    Mutant("str-split-header", "traceio.py", "fields = stripped[1:].split()",
           "fields = [field.encode() for field in stripped[1:].decode().split()]", CLI),
    Mutant("trace-lines-first", "traceio.py", "_lines(data, first)", "_lines(data, 1)", STREAM),
    Mutant("pad-digits", "traceio.py", "if not value.isdigit():", "if False:", TRACEIO),
    Mutant("op-byte", "traceio.py", "        and (is_read | (ops == ord(WRITE))).all()\n", "",
           TRACEIO),
    Mutant("address-x", "traceio.py", '        and (buf[op_end + 2] == ord("x")).all()\n', "",
           TRACEIO),
    Mutant("even-payload", "traceio.py", "        and not (lengths & 1).any()\n", "", TRACEIO),
    Mutant("separator-order", "traceio.py", 'np.frombuffer(b"  \\n"', 'np.frombuffer(b" \\n "',
           TRACEIO),
    Mutant("fixed-columns", "traceio.py", "if not (rows[:, _FIXED_COLUMNS] ==",
           "if False and (rows[:, _FIXED_COLUMNS] ==", TRACEIO),
    Mutant("fixed-columns-cli", "traceio.py", "if not (rows[:, _FIXED_COLUMNS] ==",
           "if False and (rows[:, _FIXED_COLUMNS] ==", CLI),
    Mutant("flag-after-unused-pair", "traceio.py", "if not len(flags) or bad_flag or reader",
           "if not len(flags) or bad_flag or unused_pair or reader", TRACEIO),
    Mutant("pad-strip", "traceio.py", "yield piece[: len(piece) - pad]", "yield piece", TRACEIO),
    Mutant("held-back-piece", "traceio.py", "        if piece:\n            yield piece\n", "",
           STREAM),
    Mutant("pad-without-frames", "traceio.py", "if self.pad and not self.frames:", "if False:",
           CLI),
    Mutant("gen-random-room", "cli.py", "if args.byte_count > room.f_bavail * room.f_frsize:",
           "if False:", CLI),
    Mutant("random-block", "traceio.py", "_RANDOM_BLOCK = 1 << 16",
           "_RANDOM_BLOCK = (1 << 16) - 2", STREAM),
    # line ends: text_chunks hands every reader LF-only chunks
    Mutant("lf-lone-cr", "traceio.py", '.replace(b"\\r", b"\\n") if', " if", TRACEIO),
    Mutant("cr-held-back", "traceio.py", 'end = len(block) - block.endswith(b"\\r")',
           "end = len(block)", STREAM),
    Mutant("chunk-without-lf", "traceio.py", 'yield _lf(b"".join([*pending, block[:cut]]))',
           'yield b"".join([*pending, block[:cut]])', STREAM),
    Mutant("pending-line", "traceio.py", "pending = [block[cut:]]", "pending = []", STREAM),
    # # lines: _read_text gives the # lines that open a chunk to the line reader
    Mutant("comment-head", "traceio.py", 'while chunk.startswith(b"#", head):', "while False:",
           TRACEIO),
    # main() opens every subcommand's input and spool
    Mutant("spool-copy-out", "cli.py", "shutil.copyfileobj(spool, out, _READ_SIZE)", "pass", CLI),
    # start-up: only gen-random needs numpy.random, and numpy loads it when used
    Mutant("numpy-random-import", "traceio.py", "import numpy as np\n",
           "import numpy as np\nimport numpy.random\n", CLI),
    Mutant("no-input", "cli.py", "if path is None:  # gen-random reads nothing", "if False:", CLI),
]

# A pytest plugin, written beside the mutated copy of src/: it derandomizes
# hypothesis, and fails the run with exit 99 unless the tests imported the copy.
_PLUGIN = """
from pathlib import Path
import sys

import pytest


def pytest_configure(config):
    from hypothesis import settings
    settings.register_profile("mutants", derandomize=True, database=None)
    settings.load_profile("mutants")


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session):
    module = sys.modules.get("pam3codec")
    if module is None or Path(__file__).parent / "src" not in Path(module.__file__).parents:
        print(f"the tests did not import the mutant but {module}", file=sys.stderr)
        session.exitstatus = 99
"""


def mutate(mutant: Mutant, src: Path) -> None:
    """Apply mutant to the copy of src/ at src; ValueError unless its text is there once."""
    path = src / "pam3codec" / mutant.source
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} is in {mutant.source} "
                         f"{text.count(mutant.old)} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant) -> bool:
    """Whether mutant's test file fails against a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutate(mutant, src)
        (Path(tmp) / "mutant_plugin.py").write_text(_PLUGIN)
        argv = [sys.executable, "-m", "pytest", mutant.tests, "-x", "-q", "-p", "mutant_plugin",
                "-p", "no:cacheprovider", "-o", f"pythonpath={tmp} {src}"]
        run = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
    if run.returncode not in (0, 1):  # 1: tests failed
        raise RuntimeError(f"{mutant.name}: exit {run.returncode}\n{run.stdout}")
    return run.returncode == 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        result = "killed" if killed(mutant) else "SURVIVED"
        print(f"{mutant.name:24} {result:8} by {mutant.tests} in "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        if result != "killed":
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
