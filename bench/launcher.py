"""Start benchmark commands one at a time and report what each cost.

On Linux a child's maximum RSS is at least the high-water RSS of the process
that spawned it, because exec records the old address space's peak.  The
benchmark therefore spawns every timed command from this small process,
started before the benchmark grows, so that ``peak_rss_mb`` measures the
command and not the benchmark.  It imports nothing beyond ``os``, ``sys`` and
``time``.

Protocol, one request per line on stdin:
``STDOUT_PATH \\0 STDERR_PATH \\0 PROGRAM \\0 ARG...``.  The reply is one
line: ``EXIT_CODE MAXRSS_KB USER_S SYSTEM_S WALL_S``.
"""

import os
import sys
import time


def main() -> None:
    for line in sys.stdin.buffer:
        stdout_path, stderr_path, *argv = line.rstrip(b"\n").decode().split("\0")
        mode = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, stdout_path, mode, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stderr_path, mode, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        sys.stdout.write(
            f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss} "
            f"{usage.ru_utime!r} {usage.ru_stime!r} {wall!r}\n"
        )
        sys.stdout.flush()


if __name__ == "__main__":
    main()
