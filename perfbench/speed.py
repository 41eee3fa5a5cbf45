"""Machine-speed probe: express timings at a fixed reference speed.

On a small shared machine the same code runs up to 1.5 times slower for
seconds at a time, whatever the process does (measured on this benchmark's
2-core x86-64 machine: medians of 200 CNOT steps swing between 4.7 and 7.7 ms
within one process, pinned to one core or not, with no page faults).  A
fixed reference computation timed every ``PERIOD`` seconds in the same
process slows down with it: the ratio of step time to probe time stayed
within about 4 % where raw step time moved by 50 %.

``SpeedProbe`` runs the reference between workload calls and converts
raw intervals to "reference seconds": raw seconds times NOMINAL_S over the
probe time around that moment.  Probe time is excluded from every interval.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PERIOD = 0.25  # seconds between probes
NOMINAL_S = 0.008  # probe duration at the reference speed (fast state of that machine)
_U = np.full((4, 4), 0.1 + 0.2j)
_X = np.full((256, 60), 0.01)
_W = np.full((60, 60), 0.01)


def reference_work() -> None:
    """Interpreter-bound small matrix products, then vectorised layer ops,
    in the proportions of the workloads' own steps."""
    acc = np.eye(4, dtype=complex)
    for _ in range(2000):
        acc = _U @ acc
    x = _X
    for _ in range(40):
        x = np.tanh(x @ _W)


class SpeedProbe:
    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        reference_work()  # the first call in a process runs slow; keep it out

    def bracket(self) -> None:
        """Probe three times, so a run edge has a median of its own probes."""
        for _ in range(3):
            self.run()

    def run(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.spans.append((t0, time.perf_counter()))

    def poll(self, now: float) -> None:
        """Probe if PERIOD has passed since the last probe ended."""
        if not self.spans or now - self.spans[-1][1] >= PERIOD:
            self.run()

    def probe_seconds(self, a: float, b: float) -> float:
        """Probe time inside [a, b]."""
        return sum(e - s for s, e in self.spans if s >= a and e <= b)

    def factor(self, t: float) -> float:
        """NOMINAL_S over the median of the three probes nearest t."""
        mids = [(s + e) / 2 for s, e in self.spans]
        i = bisect.bisect_left(mids, t)
        near = sorted(range(max(0, i - 2), min(len(mids), i + 2)), key=lambda k: abs(mids[k] - t))[:3]
        return NOMINAL_S / statistics.median(self.spans[k][1] - self.spans[k][0] for k in near)

    def reference_seconds(self, a: float, b: float) -> float:
        """Duration of [a, b] without probes, at the reference speed: each
        stretch between two probes is scaled by the factor at its middle."""
        total = 0.0
        edges = [a] + [x for s, e in self.spans if s >= a and e <= b for x in (s, e)] + [b]
        for lo, hi in zip(edges[::2], edges[1::2]):
            total += (hi - lo) * self.factor((lo + hi) / 2)
        return total
