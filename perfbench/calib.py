"""Machine-speed calibration for the timed phases.

The benchmark runs on shared virtual machines whose speed drifts with the
neighbours' load: the same replay ran 2.5 times faster within one hour,
with CPU time tracking wall time (the vCPU runs slower rather than being
descheduled).  A fixed chunk of interpreter work, interleaved with the
program's requests, measures that speed as it goes.  Each reported time
is scaled by ``NOMINAL_S`` over the mean chunk time of its own phase, so
it reads as the time on a machine that runs one chunk in ``NOMINAL_S``.
"""

from __future__ import annotations

import time

# one chunk on a quiet 2-vCPU Xeon VM
NOMINAL_S = 0.002
_BUF = [0] * 1024


def _chunk() -> int:
    # allocates no container, so it never triggers a garbage collection
    s = 0
    buf = _BUF
    for i in range(20000):
        s += i * i % 7
        buf[i & 1023] = s
    return s


class Calibration:
    """Running mean of timed reference chunks."""

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def tick(self, chunks: int = 1) -> None:
        t0 = time.perf_counter()
        for _ in range(chunks):
            _chunk()
        self.total += time.perf_counter() - t0
        self.count += chunks

    def slowdown(self) -> float:
        """Mean chunk time over ``NOMINAL_S``: above 1 on a slower
        machine.  Divide a measured time by it to normalise."""
        return self.total / self.count / NOMINAL_S
