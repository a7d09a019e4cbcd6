"""Runs one command at a time for run.py and reports its wall time and peak RSS.

It is a separate, small process because Linux folds the RSS high-water mark
of the process that spawns a child into the child's ``ru_maxrss``.  Spawned
from run.py itself (numpy loaded, outputs held in memory) every child would
report at least run.py's own peak.  Start it with ``python -S -I`` so its own
peak stays near that of a bare interpreter.

Protocol: one JSON request per stdin line, ``{"argv", "out", "cwd",
"timeout"}``, with stdout of the command written to the file ``out``; one
JSON reply per stdout line, ``{"exit", "wall_s", "maxrss_kib"}``.  The
command inherits this process's environment.  End of input ends the loop.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL, cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
