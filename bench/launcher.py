"""Runs the harness's commands from a small process.

Linux charges a child's peak RSS (``ru_maxrss``) with the RSS of the
process that forked it, so a command forked from the harness, which holds
the generated inputs and their references, would report the harness's
memory.  The harness starts this process first, while it is still small,
and sends it one JSON request per line: ``{"argv": [...], "stderr": path}``.
For each it runs the command to completion and answers one JSON line:
``[wall seconds, peak RSS in KiB, exit code]``.  It ends when its standard
input closes; on SIGTERM it kills the running command, waits for it and
exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    running: list[subprocess.Popen] = []

    def stop(*_):
        for proc in running:
            proc.kill()
            proc.wait()
        sys.exit(128 + signal.SIGTERM)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            running.append(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            running.remove(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)


if __name__ == "__main__":
    main()
