"""Spawns the benchmark's children from a process that stays small.

    python3 perfbench/spawner.py

reads one JSON request per line on stdin, {"argv", "cwd", "stderr",
"timeout", "cpu"}, runs it pinned to that CPU with stdin and stdout on
/dev/null and stderr to the named file, and answers one JSON line with its exit code, wall time and
its own rusage from wait4.  SIGTERM kills the running child, reaps it
and ends the process.

Linux carries the parent's peak RSS into a forked child's ru_maxrss, so
children forked by the benchmark process, which parses large outputs,
would report that peak instead of their own.  This process never grows,
and it times each child from fork to reaping.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


class Stop(Exception):
    pass


def expire(_signum, _frame):
    raise Timeout


def stop(_signum, _frame):
    raise Stop


def spawn(req: dict) -> dict:
    devnull = os.open(os.devnull, os.O_RDWR)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            os.sched_setaffinity(0, {req["cpu"]})
            os.dup2(devnull, 0)
            os.dup2(devnull, 1)
            os.dup2(err, 2)
            os.execv(req["argv"][0], req["argv"])
        finally:
            os._exit(127)
    os.close(devnull)
    os.close(err)
    timed_out = False
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    except Timeout:
        timed_out = True
    except Stop:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "spawned": spawned,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, stop)
    try:
        for line in sys.stdin:
            sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
            sys.stdout.flush()
    except Stop:
        return 143
    return 0


if __name__ == "__main__":
    sys.exit(main())
