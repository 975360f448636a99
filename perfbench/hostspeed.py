"""The speed of the host, sampled between operations by a fixed reference loop.

The benchmark runs on a few cores of a shared host whose speed changes by up
to half for stretches of 5 to 60 seconds, as long as a whole run.  A median
over one run cannot ride that out.  So the worker times a fixed loop of
mpmath arithmetic (`reference`, no multiroots code) before an op whenever
EVERY_S have passed since the last sample, and once after the last op.  Each
op's wall time is then scaled by REFERENCE_S / r, where r is the mean of the
samples just before and just after the op: the time the op would have taken
on a host on which the loop takes REFERENCE_S.  Set-up time is scaled by the
median of three samples taken right after it.  The loop speeds up and slows
down with the host much as the program does, and the program cannot change
its speed, so a program that gets faster still reads faster.

REFERENCE_S is the loop's usual time on the 2-core x86_64 virtual machine the
baseline was taken on, so scaled times read close to its wall times.
"""

import bisect
import statistics
import time

from mpmath import mp

REFERENCE_S = 0.0068
EVERY_S = 0.2


def reference():
    """Fixed mpmath arithmetic at 512 bits, then dict updates."""
    with mp.workprec(512):
        x = mp.mpf(1) / 3
        acc = mp.mpf(0)
        for k in range(1, 40):
            acc += mp.cos(x * k) * mp.exp(x / k) + mp.sqrt(k + x)
    table = {}
    for k in range(3000):
        table[k % 97] = table.get(k % 97, 0) + k * k
    return acc, len(table)


class HostSpeed:
    def __init__(self):
        self.starts = []     # start of each sample, ascending
        self.seconds = []    # the reference loop's time in each sample
        reference()          # untimed, so that mpmath's caches are warm

    def scale_now(self, samples=3):
        """Factor for the time just before: the median of a few samples."""
        for _ in range(samples):
            self.sample()
        return REFERENCE_S / statistics.median(self.seconds[-samples:])

    def sample(self):
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def sample_if_due(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def scale(self, start, end):
        """Factor that turns wall time in [start, end] into reference time."""
        after = bisect.bisect_left(self.starts, end)
        around = self.seconds[max(after - 1, 0):after + 1]
        return REFERENCE_S * len(around) / sum(around)
