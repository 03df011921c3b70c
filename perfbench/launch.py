"""Starts the benchmark's CLI calls from a process that stays small.

Linux carries a process's peak resident size across ``exec``, so a child
forked from the benchmark (numpy and scipy loaded) would report the
benchmark's memory as its own.  The benchmark therefore hands each call to
this stdlib-only process, which times it and reads its resource usage.

Protocol: one JSON request per line on stdin,
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``, answered by one
JSON line ``{"returncode", "wall_s", "maxrss_kb", "user_s", "sys_s"}``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(request["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)     # no worker may outlive its call
    except ProcessLookupError:
        pass
    return {"returncode": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "user_s": usage.ru_utime, "sys_s": usage.ru_stime}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
