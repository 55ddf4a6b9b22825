"""Run one command and report its wall time and peak RSS as JSON.

    python3 -I -S perfbench/launch.py TIMEOUT_S EXECUTABLE ARGS...

A process's peak RSS as the kernel reports it includes the memory of the
process it was forked from. run.py holds the generated
inputs and their truth in memory, so it starts each child through this
small interpreter instead, whose own footprint is far below any
threatwatch run. The child's stdout goes to /dev/null and its stderr is
inherited; it is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    timeout = float(sys.argv[1])
    argv = sys.argv[2:]
    devnull = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=devnull)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, rusage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"wall_s": wall, "maxrss_kb": rusage.ru_maxrss,
                      "exit": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
