"""How fast the CPU runs while a timed region runs.

On a shared host the speed of a core swings, by up to a factor of 2 on the
machine the benchmark was tuned on, in phases from a fraction of a second to
tens of minutes.  The process's CPU time swings with its wall time, so
neither can tell a slow phase of the host from a slow program.  A `Sampler`
therefore runs two small fixed kernels every ``INTERVAL_S`` of wall time
while a region runs (from a ``SIGALRM`` handler, so in the same process and
on the same core as the program) and keeps their speed relative to a
reference.  The region's wall time, less the time the handler took, times
the mean relative speed over the region is its time in seconds at the
reference speed: the scaled time the benchmark reports.  The kernels are not
part of the package, so a change to the program moves the scaled time and a
change of host speed does not.

One kernel builds text from floats (the interpreter loop, the allocator and
float formatting), the other counts a byte in a 64 KiB buffer (a tight C
loop over cached memory).  A sample's speed is the geometric mean of the two
relative speeds: across workloads and phases of the host it tracked the
workloads' wall time more closely than either kernel alone.  Neither kernel
needs numpy, so a sampler can run before numpy is imported.
"""

from __future__ import annotations

import math
import signal
import time

# Seconds of one call of each kernel in the handler, in a fast phase of a
# 2-core Firecracker VM, Python 3.11.7.  They fix only the scale of the
# scaled times.
REFERENCE_TEXT_S = 28e-6
REFERENCE_SCAN_S = 36e-6
INTERVAL_S = 0.01
_BUFFER = bytes(range(256)) * 256


def text_kernel():
    parts = [repr(i * 0.1) for i in range(40)]
    return len(",".join(parts) * 64)


def scan_kernel():
    return _BUFFER.count(7)


class Sampler:
    """Context manager that samples the host's speed while its body runs."""

    def __init__(self):
        self.speeds = []  # relative to the reference, one per sample
        self.spent = 0.0  # seconds spent sampling
        self._previous = None

    def sample(self, *_):
        start = time.perf_counter()
        text_kernel()
        mid = time.perf_counter()
        scan_kernel()
        end = time.perf_counter()
        self.speeds.append(math.sqrt(REFERENCE_TEXT_S / (mid - start)
                                     * REFERENCE_SCAN_S / (end - mid)))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.speeds, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()  # at least one sample, however short the region
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Mean speed relative to the reference over the region."""
        return sum(self.speeds) / len(self.speeds)
