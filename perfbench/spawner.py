"""Starts the benchmark's child processes on request, one at a time.

Linux charges a process, at exec, the peak RSS of the image it replaces, so a
child started straight from the benchmark process (which holds every input in
memory) would report the benchmark's peak as its own. Started from this small
process instead, a child's ``ru_maxrss`` is the program's.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stdout":
path, "stderr": path}``; one JSON reply per line on stdout, ``{"wall_s": time
from start to reaped, "exit_code": ..., "maxrss_kb": ...}``. Children inherit
this process's environment and working directory. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "exit_code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
