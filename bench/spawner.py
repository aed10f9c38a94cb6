"""Start the benchmark's children from a small process, so that their peak RSS is their own.

Linux reports a child's ru_maxrss as at least the peak RSS of the process it
was spawned from, so children spawned by run.py (which holds golden rows
and parses reports) would report run.py's memory. This process imports
next to nothing; run it as `python -I -S spawner.py`.

Protocol, one JSON object per line. A request on stdin:
{"argv": [...], "out": path, "err": path, "timeout": seconds}. A reply on
stdout: {"wall_s": ..., "maxrss_kb": ..., "code": ...}. The wall time spans
spawn to exit; a child still running at its timeout is killed. The spawner
exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, request["out"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["err"], flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)

        def kill(signum, frame, pid=pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        reply = {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
