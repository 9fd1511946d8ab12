"""Host speed: a fixed reference kernel, timed between ops, that puts every
timing of a run on one scale.

A shared virtual machine runs the same Python code up to 1.7 times slower
for minutes at a time, while other tenants load the host.  A run of half a
minute cannot wait that out, so wall-clock timings of one commit spread over
runs by more than any useful regression bound.  The kernel below is plain
Python that allocates, links and walks tuples, fills a dict and sorts
strings, as hornlog's term walks do, and it never calls hornlog.  Its time
rises and falls with the host's, so

    reference seconds = wall seconds * KERNEL_REF_S / kernel seconds nearby

is a timing at one fixed host speed: that of a host on which the kernel takes
``KERNEL_REF_S``.  A change to hornlog moves the wall seconds and not the
kernel, so it moves reference seconds by the same share.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import statistics
import time

#: The host speed every timing is scaled to: one on which ``kernel()`` takes
#: this long.  It is a unit, not a measurement; the machine baseline.json was
#: measured on took 0.8 to 1.4 ms, depending on its load.
KERNEL_REF_S = 1.0e-3
#: How often, between ops, the kernel is timed again.
CHECK_EVERY_S = 0.5
#: A timing is scaled by the median kernel time within this many seconds of
#: it, which spans several kernel timings even around the longest ops.
WINDOW_S = 2.0


def kernel() -> int:
    """About a millisecond of interpreter work that does not depend on
    hornlog."""
    table = {}
    node = None
    for i in range(3000):
        node = (i, node) if i % 7 else (str(i), node, [i])
        table[i % 257] = node
    length = 0
    while node is not None:
        length += 1
        node = node[1]
    return length + len(sorted(str(k * 7919 % 1000) for k in range(600)))


def time_kernel() -> float:
    """One timing of the kernel, with the collector off, so that the heap
    hornlog leaves behind does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def allowed_cpus() -> list:
    try:
        return sorted(os.sched_getaffinity(0))[:4]
    except (AttributeError, OSError):
        return []


def _pin(cpu: int) -> None:
    """Run on ``cpu`` only; does nothing where affinity cannot be set."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


class HostSpeed:
    """Kernel timings over a run, and the scale they give each timing.

    Each check times the kernel twice on every allowed CPU and pins the
    process to the CPU that ran it fastest: a virtual CPU slows while another
    tenant uses its sibling hardware thread, and which one is slowed changes
    every few seconds.  The faster timing is kept as the host's speed at
    that moment.  Checks run between ops, outside their timing."""

    def __init__(self):
        self.cpus = allowed_cpus()
        self.at: list = []  # perf_counter of each check
        self.kernel_s: list = []  # the kernel's time at that check
        self.last = -math.inf

    def check(self, force: bool = False) -> None:
        """Time the kernel and re-pin, if CHECK_EVERY_S has passed."""
        if not force and time.perf_counter() - self.last < CHECK_EVERY_S:
            return
        pinnable = len(self.cpus) > 1
        timings = []
        for cpu in self.cpus if pinnable else [None]:
            if pinnable:
                _pin(cpu)
            timings.append((min(time_kernel(), time_kernel()), cpu))
        best, cpu = min(timings)
        if pinnable:
            _pin(cpu)
        self.last = time.perf_counter()
        self.at.append(self.last)
        self.kernel_s.append(best)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second for a timing from ``start`` to
        ``end``: KERNEL_REF_S over the median kernel time of the checks
        within WINDOW_S of it, or of the nearest check if none is."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        nearby = self.kernel_s[lo:hi]
        if not nearby:
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            nearby = self.kernel_s[i:i + 1]
        return KERNEL_REF_S / statistics.median(nearby)

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
