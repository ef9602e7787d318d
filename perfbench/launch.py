"""Child launcher: runs one command per request line and reports its usage.

A child's ``ru_maxrss`` counts the memory image it was forked from, so
children forked straight from the benchmark would report the benchmark's
own peak whenever it is the larger.  The benchmark therefore starts this
small process once per run and has it start every child.

Request (one JSON line on stdin): ``[argv, stdin path, stdout path]``.
Reply (one JSON line on stdout): ``[exit code, start, end, cpu s, maxrss KB]``
with ``start``/``end`` on the ``time.perf_counter`` clock, which is the
system's monotonic clock and so comparable across processes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, stdin_path, stdout_path = json.loads(line)
        with open(stdin_path, "rb") as fin, open(stdout_path, "wb") as fout:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        print(json.dumps([proc.returncode, start, end, cpu, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
