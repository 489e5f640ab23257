"""A fixed reference kernel that measures how fast the machine runs.

The benchmark runs on a shared virtual machine whose speed drifts by a
quarter or more over minutes: a study_simulate op took 225 ms in one
stretch and 275-290 ms for the next half hour, with user and system time
both moving.  Runs of the same code minutes apart then disagree by more
than any useful bound.  Each worker therefore times this kernel between
its ops and scales every time it reports by REF_MS / (kernel time), so
that timings read as on a machine where the kernel takes REF_MS.  The
kernel time is the mean of the middle half of its samples: robust to a
call cut by preemption, and, unlike the median, proportional to the share
of the loop the machine spent fast or slow when it switches mid-run.

The kernel calls no gbcal code, so a change to gbcal cannot move it.  It
mixes the three kinds of work that gbcal's ops do: vectorised numpy on
arrays of the size of a block predictive (100 x 801), interpreted Python
with small numpy calls, and first touches of freshly mapped memory.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

REF_MS = 18.0            # the kernel's time on the reference machine
_A = np.random.default_rng(0).standard_normal((100, 801))
# 8 MB of fresh pages, mapped 1 MB at a time so that the kernel adds at
# most 1 MB to a worker's peak resident memory
_MAP_BYTES = 1 << 20
_MAPS = 8
_PAGE = mmap.PAGESIZE


def kernel() -> float:
    s = 0.0
    for _ in range(20):
        b = _A - _A.max(axis=1, keepdims=True)
        s += float(np.log(np.exp(b).sum(axis=1)).sum())
    x = 0
    for i in range(30000):
        x += i * i
    s += sum(float(np.sum(row)) for row in _A)
    for _ in range(_MAPS):
        m = mmap.mmap(-1, _MAP_BYTES)
        for off in range(0, _MAP_BYTES, _PAGE):
            m[off] = 1
        m.close()
    return s


class Meter:
    """Times the kernel and keeps every sample."""

    def __init__(self):
        self.samples = []

    def run(self) -> float:
        """Time one kernel call; returns its wall time in seconds."""
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        """Factor that turns a time measured here into reference time."""
        return REF_MS * 1e-3 / self.typical()

    def typical(self) -> float:
        """Mean of the samples between the quartiles, in seconds."""
        s = sorted(self.samples)
        q = len(s) // 4
        mid = s[q:len(s) - q]
        return sum(mid) / len(mid)
