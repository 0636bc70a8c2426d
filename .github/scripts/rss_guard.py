"""Run a command under a time limit and a peak-memory limit.

    python .github/scripts/rss_guard.py LIMIT_MB CMD [ARG ...]

Runs CMD with a 300 s timeout and prints its wall time and its peak
resident set size (``RUSAGE_CHILDREN``; ``ru_maxrss`` is in KiB on Linux)
to stderr, so CMD's own output stays as it was.
Exits nonzero when CMD exits nonzero, when it times out, or when its peak
is at or above LIMIT_MB.
"""

import resource
import subprocess
import sys
import time

TIMEOUT_S = 300


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    limit_mb, command = float(argv[0]), argv[1:]
    started = time.perf_counter()
    try:
        # on the timeout the child is killed and waited for, so its peak counts
        code = subprocess.run(command, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    wall_s = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB (limit {limit_mb:g}), wall time {wall_s:.1f} s",
          file=sys.stderr)
    if code is None:
        print(f"timed out after {TIMEOUT_S} s", file=sys.stderr)
        return 124
    if code:
        print(f"command exited {code}", file=sys.stderr)
        return code if code > 0 else 1
    if peak_mb >= limit_mb:
        print(f"peak RSS {peak_mb:.0f} MB at or above {limit_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
