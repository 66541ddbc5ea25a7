"""Calibration kernel: a fixed amount of work with the program's character.

The program spends its time in a python loop over grid rows that does
numpy arithmetic on one row of a momentum batch at a time (the Numerov
recurrence). The kernel does the same on fixed data, so a machine that
runs the program slower also runs the kernel slower. Pass times divided
by the kernel's median time are in "ref" units, which cancel most of the
drift in a shared machine's speed. It does not import polewave.

Its rows are 300 momenta wide. On a shared machine, rows of one
momentum (interpreter and call overhead) and wide rows (memory traffic)
speed up differently when a neighbour goes idle: the one-momentum kernel
then ran up to 1.8 times faster while bound-search ran 1.3 times faster,
and its ref figures spread by 0.29 over ten runs; the wide kernel sped up
about 1.35 times, closer to the program, and left 0.03-0.07.
"""

from __future__ import annotations

import time

import numpy as np

ROWS = 1600
WIDTH = 300
REPEATS = 3


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(12345)
        w = rng.uniform(-4.0, 4.0, size=(ROWS, WIDTH)) + 0j
        h = 1.0 / 256.0
        self.g = 1.0 - (h * h / 12.0) * w
        self.c = 12.0 - 10.0 * self.g

    def sweep(self) -> complex:
        """One pass of the recurrence over all rows; returns a checksum."""
        g, c = self.g, self.c
        u = np.empty(g.shape, dtype=complex)
        u[0] = 0.0
        u[1] = 1.0 / 256.0
        for j in range(1, g.shape[0] - 1):
            u[j + 1] = (c[j] * u[j] - g[j - 1] * u[j - 1]) / g[j + 1]
        return complex(u[-1, 0])

    def measure(self) -> list[float]:
        """CPU seconds of REPEATS sweeps. The worker pools them over a run
        and divides by their median, which short bursts of a faster or
        slower machine do not move."""
        times = []
        for _ in range(REPEATS):
            t0 = time.process_time()
            self.sweep()
            times.append(time.process_time() - t0)
        return times
