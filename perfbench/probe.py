"""Host-speed probe, and job times rescaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed moves by
half or more for stretches of five to thirty seconds, longer than many
jobs.  Wall time alone then says as much about the host as about the
program.  A probe is a fixed piece of interpreter work timed with
``perf_counter``: Fraction arithmetic and a bitset walk that fills a
set, the two kinds of work the library does (the density calculus and
the colouring search).  It uses no library code, so a change to the
library cannot change the probe.  Dividing a stretch of a job by the
probe's duration around it, and multiplying by ``PROBE_REF_S``, gives
the stretch's length on a host where one probe takes exactly
``PROBE_REF_S``: a time that moves with the program and far less with
the host.

``Sampler`` probes every ``INTERVAL_S`` from a SIGALRM handler, which
runs in the job's own thread between bytecodes, so each probe sees the
speed of the core the job is running on at that moment.  The probes
take about 1% of the job's time; that time is left out of the job's
wall time and of its reference time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_REF_S = 2e-4  # a round figure near one probe on the 2-core Xeon of baseline.json
INTERVAL_S = 0.02
WINDOW = 9  # probes whose median stands for the speed around a stretch


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes now."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(1, k)
    adj = [0] * 16
    seen = set()
    for i in range(180):
        u, v = i % 16, (7 * i + 3) % 16  # never equal: 6i + 3 is odd
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        for w in _bits(adj[u] & adj[v]):
            seen.add((min(u, w), max(u, w)))
    return time.perf_counter() - start


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Sampler:
    """Probes while a job runs and integrates the job at reference speed."""

    def __init__(self):
        self.durations: list[float] = []
        self.spans: list[tuple[float, float]] = []  # when each probe ran
        self.start_t = self.stop_t = 0.0

    def _tick(self, *_):
        began = time.perf_counter()
        self.durations.append(probe())
        self.spans.append((began, time.perf_counter()))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self.start_t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.stop_t = time.perf_counter()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.durations:  # a job shorter than one interval
            self.durations.append(probe())

    def result(self) -> tuple[float, float]:
        """The job's wall time without the probes, and its reference time."""
        half = WINDOW // 2
        probe_s = sum(end - began for began, end in self.spans)
        ref, prev = 0.0, self.start_t
        # the stretch before each probe, then the one after the last
        for i, (began, end) in enumerate(self.spans + [(self.stop_t, self.stop_t)]):
            k = min(i, len(self.durations) - 1)
            near = self.durations[max(0, k - half):k + half + 1]
            ref += (began - prev) * PROBE_REF_S / statistics.median(near)
            prev = end
        return self.stop_t - self.start_t - probe_s, ref
