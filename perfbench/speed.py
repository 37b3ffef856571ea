"""The machine's speed while a worker runs, from a fixed reference kernel.

Other tenants of a shared virtual machine slow a process down by up to two
times for minutes at a time, in CPU time as well as in wall time: on a 2-vCPU
sandbox one and the same degree-12 search took 5.1 s of CPU time and, two
minutes later, 2.6 s. No length of run averages that out, so the end-to-end
times are scaled to a fixed machine speed instead. A worker runs a small
reference kernel that uses only the standard library (big-int products,
Fraction elimination, dict traffic, like the `rc` kernels) SAMPLES times back
to back right after its set-up and, if it runs a workload, SAMPLES times right
after that. A time t measured in a worker whose kernel samples took r seconds
on average is reported as t * KERNEL_S / r: the time on a machine on which the
kernel takes KERNEL_S.

Samples are not taken during the workload: taken there from a SIGPROF timer,
the kernel took about 4.0 ms every time, whatever the load, while back to
back it took 4 to 6.7 ms, and only the latter followed the workload's own
slowdowns. Scaling does not cancel every slowdown, as the tenants' load does
not slow the kernel and each workload alike, but in two sets of ten 40-second
runs per workload on the sandbox it cut the quartile spread of the median
workload CPU time from 0.14-0.15 to 0.08-0.09 on search, from 0.10-0.11 to
0.03-0.07 on catalogue and from 0.16-0.22 to 0.09-0.11 on verify-sums.
"""

from __future__ import annotations

from fractions import Fraction
from time import process_time

# the unit of the scaled times: in a scaled second the machine runs the kernel
# 1 / KERNEL_S times; any fixed value would do
KERNEL_S = 0.006
SAMPLES = 16
_X = 7**4500  # about 12 600 bits, like the verify-sums terms at n = 8000
# fractions with 130-bit numerators, like the entries of the search's systems
_M = [[Fraction(_X % (10**40 + 7 * i + j), 10**20 + i + j + 1) for j in range(6)] for i in range(6)]


def reference_kernel() -> int:
    acc = 0
    for i in range(1, 20):
        acc += _X * (_X >> i)
    m = [row[:] for row in _M]
    for c in range(len(m)):
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    d: dict[int, int] = {}
    for i in range(4000):
        d[i & 511] = d.get(i & 511, 0) + i
    return (acc & 1) + m[-1][-1].denominator + len(d)


class SpeedProbe:
    """Kernel samples right before and right after a stretch of work."""

    def __init__(self):
        self.samples = 0
        self.sample_s = 0.0

    def take(self) -> None:
        for _ in range(SAMPLES):
            t0 = process_time()
            reference_kernel()
            self.sample_s += process_time() - t0
            self.samples += 1

    def __enter__(self):
        self.take()
        return self

    def __exit__(self, *exc):
        self.take()

    @property
    def scale(self) -> float:
        """Factor that turns a CPU time measured here into one at KERNEL_S."""
        return KERNEL_S * self.samples / self.sample_s
