"""Gauges of how fast the shared machine runs at the moment of a measurement.

On a shared 2-vCPU machine the speed one process gets switches between
states that differ by up to 1.5x, for tens of seconds at a time, so the
median of a 30 s run lands on whichever state held longest. CPU time grows
with wall time in both states, so it is not waiting for a CPU. Each timed
figure is therefore paired with a fixed reference task run next to it, and
reported in seconds at the reference task's nominal speed:

    value = measured seconds * nominal_s / reference seconds

The reference tasks use none of the program's code, so a change to the
program moves the figure and not the gauge. There are two, because process
start and computing were measured to slow down by different factors:

- compute: QUADPACK over a Python integrand, the contour evaluator's kind of
  work; it gauges the in-process operations.
- start: a fresh interpreter that imports scipy.integrate, the kind of work
  a CLI call and the benchmark's set-up mostly do.

The raw seconds and the gauge readings are printed in the run record.
"""
from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time

from scipy.integrate import quad


def _compute_task() -> None:
    for k in range(12):
        quad(lambda x: math.exp(-x) * math.cos(k * x) / (1 + x * x), 0, 50, limit=200)


def _start_task() -> None:
    subprocess.run([sys.executable, "-c", "import scipy.integrate"], check=True,
                   capture_output=True, timeout=120)


class Gauge:
    """Timed readings of one reference task, each stamped with its mid-time."""

    def __init__(self, name: str, task, nominal_s: float, every_s: float, near: int):
        self.name = name
        self.task = task
        self.nominal_s = nominal_s
        self.every_s = every_s     # wanted time between readings in a timed loop
        self.near = near           # readings whose median scales one measurement
        self.stamps: list[float] = []
        self.readings: list[float] = []

    def read(self) -> None:
        t0 = time.perf_counter()
        self.task()
        t1 = time.perf_counter()
        self.stamps.append(0.5 * (t0 + t1))
        self.readings.append(t1 - t0)

    def factor_at(self, t: float) -> float:
        """Nominal seconds per measured second at time t, from the median of
        the `near` readings closest to t."""
        i = bisect.bisect_left(self.stamps, t)
        lo, hi = max(0, i - self.near), min(len(self.stamps), i + self.near)
        closest = sorted(range(lo, hi), key=lambda j: abs(self.stamps[j] - t))[:self.near]
        return self.nominal_s / statistics.median(self.readings[j] for j in closest)


# Nominal times are the tasks' medians on the machine the baseline was
# measured on (2 vCPUs of an Intel Xeon at 2.1 GHz); they fix the scale only.
def compute_gauge() -> Gauge:
    return Gauge("compute", _compute_task, nominal_s=2.0e-3, every_s=0.25, near=15)


def start_gauge() -> Gauge:
    return Gauge("start", _start_task, nominal_s=0.6, every_s=3.0, near=3)
