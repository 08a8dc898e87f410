"""Run one command; write its wall time, exit status and peak RSS as JSON.

Usage: python3 launch.py RESULT_PATH PROGRAM [ARG ...]

The command inherits this process's standard streams. The benchmark
starts every timed CLI invocation through this small launcher because on
Linux a child's ru_maxrss also counts the memory of the process it was
forked from, up to its exec. Forked from the benchmark itself, which holds
traces and references, a child would report the benchmark's peak instead
of its own; forked from this launcher, it carries only a few MB of
interpreter, below any CLI run's own peak.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w") as out:
        json.dump({
            "wall_s": wall,
            "exit_code": os.waitstatus_to_exitcode(status),
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is KiB on Linux
        }, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
