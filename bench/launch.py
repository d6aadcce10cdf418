"""Run one command in a new session and print, as one JSON line, its exit
code, wall time, CPU time and peak RSS.

    python3 bench/launch.py LIMIT_S STDOUT_FILE STDERR_FILE COMMAND...

The harness measures every program run through this small process because
Linux charges the peak RSS of the process that spawns a child to the
child's ru_maxrss when the child execs.  Spawned straight from the harness,
which holds reports and spans, a run would read at least the harness's own
peak.  The command's whole session is killed once LIMIT_S has passed, or
when this process is terminated.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _terminated(pgid: int):
    def handler(signum, frame):
        _kill(pgid)
        raise SystemExit(128 + signum)

    return handler


def main(argv: list[str]) -> None:
    limit, out_path, err_path, command = float(argv[0]), argv[1], argv[2], argv[3:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, start_new_session=True)
        signal.signal(signal.SIGTERM, _terminated(proc.pid))
        killer = threading.Timer(limit, _kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill(proc.pid)  # pool workers end with their parent; sweep any straggler
    # wait4 reports the child plus every descendant it reaped
    print(json.dumps({"returncode": proc.returncode, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0}))  # Linux reports KiB


if __name__ == "__main__":
    main(sys.argv[1:])
