"""Host-speed calibration of set-up time, ``ladder-6`` and ``service-mixed``.

On a small shared host the CPU these take swings from one minute to the
next.  In ``service-mixed`` the client, the daemon and its worker share
it, and a miss's wall latency spread 20-25% run to run while the host
was busy.  Fresh-process set-up slowed by 37% from one set of runs to
the next while compiles slowed by 17%, and ``ladder-6``'s wall latency
climbed from 1.04 to 1.67 s within one set.  A fixed pure-Python loop, owned
by the benchmark and run just before and just after each of these
operations, slows down with the host.  Their times are reported as

    wall seconds * CALIBRATION_S / mean CPU seconds of the two loops

which is the time on a host where the loop takes ``CALIBRATION_S``.  On
the same runs the miss latency's spread fell to 3-4%, and set-up probes
taken on a slow host read 0.455 s, against 0.72 s of wall time and 0.48 s
of wall time on the quieter host an hour before.  A change to the
program moves these as it moves wall time, because the loop does dict,
list and integer work and calls no code of the program.  The loop is
timed in thread CPU seconds, so waiting for another thread to release
the interpreter lock does not count.

``proof-4``'s compile latencies stay in wall seconds: there the loop
does not track the drift (the N=4 solver is bound by memory, and the
loop over-corrected, widening the spread from 15% to 21%).
"""

from __future__ import annotations

import time

#: Nominal time of :func:`calibrate`'s loop: the reference host's speed.
#: It is a fixed constant; only ratios to it matter.
CALIBRATION_S = 0.03


def calibrate() -> float:
    """CPU seconds of the calling thread the fixed loop takes right now."""
    started = time.thread_time()
    table: dict[int, int] = {}
    values = list(range(200))
    total = 0
    for index in range(200_000):
        key = index & 255
        table[key] = table.get(key, 0) + values[index % 200]
        if table[key] > 1000:
            table[key] -= 999
        total += key
    return time.thread_time() - started


def reference_seconds(wall_s: float, calibration_s: float) -> float:
    """``wall_s`` in reference-host seconds."""
    return wall_s * CALIBRATION_S / calibration_s
