"""Measures how fast one CPU runs Python while the benchmark's ops run on it.

    python3 perfbench/speedometer.py CPU OUT UNTIL

pins itself to CPU, the CPU the benchmark's children are pinned to, and
until the CLOCK_MONOTONIC time UNTIL (or until its parent goes away)
repeats a fixed chunk of pure-Python work, about 2 ms, followed by a
sleep nine times as long, so it takes a tenth of that CPU.  For each
chunk it appends "END CPU_S" to OUT: the monotonic time the chunk ended
and the CPU time it took.

The CPU time of a fixed chunk is the CPU's current speed, without the
time the chunk waited for the CPU.  On a shared host that speed changes
by a third or more within seconds, and the other CPU's speed does not
follow it, so only a probe on the same CPU, during the op, tracks what
the op got.  The probe imports nothing from mubkit, so a change to the
program never changes the work it measures.
"""

import os
import sys
import time

DUTY = 0.1


def gf16_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 16:
            a ^= 0b10011
    return r


def chunk() -> int:
    """About 2 ms of small-integer field arithmetic in function calls,
    with a small table, so the chunk runs out of the CPU's own caches
    and what the ops do to memory does not change its time."""
    table: dict[tuple[int, int], int] = {}
    for i in range(1600):
        key = (i & 15, (i >> 4) & 15)
        table[key] = gf16_mul(*key) ^ table.get(key, 0)
    return len(table)


def main(argv: list[str]) -> int:
    cpu, out, until = int(argv[0]), argv[1], float(argv[2])
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with open(out, "a", encoding="utf-8") as fh:
        while time.clock_gettime(time.CLOCK_MONOTONIC) < until and os.getppid() == parent:
            c0 = time.thread_time()
            chunk()
            c1 = time.thread_time()
            fh.write(f"{time.clock_gettime(time.CLOCK_MONOTONIC)!r} {c1 - c0!r}\n")
            fh.flush()
            time.sleep((c1 - c0) * (1 / DUTY - 1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
