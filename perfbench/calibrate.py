"""Host-speed calibration of the benchmark's timings.

On a shared host the CPU's speed drifts by a fifth or more, sometimes by
half, within seconds to minutes as other tenants come and go, and a
minute-long run of the program drifts with it.  ``probe()`` times a fixed
piece of pure-Python work (heap, dict and float operations, like the
simulator's event loop).  ``SpeedClock`` runs it every ``INTERVAL_S`` from
a timer signal while the program works (in the grid's process, or in the
serve load generator's event loop), so it samples the host's speed all
through the run, and rescales host time to the time it would have taken on
a host where the probe takes ``REFERENCE_S``.

The probe is the benchmark's own code and never changes with the program,
so a faster program still shows in full: only the host's speed is divided
out.  The probes' own time is left out of every operation.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

#: Probe time on the reference host (a 2-vCPU Xeon VM, median over a
#: paper-grid pass).  Normalised times read "seconds on that host".
REFERENCE_S = 0.0008
#: Seconds of host time between two probes.
INTERVAL_S = 0.1
#: Loop iterations of one probe.
_WORK = 600
#: Half-width, in probes, of the running median that smooths them: one
#: probe also catches momentary stalls (interrupts, page faults, and in
#: the mostly idle load generator, waking up).  About 2 s: the host's speed
#: flips within seconds, so a wider window would blur the flips in a
#: grid pass; a narrower one let the generator's probe noise through.
SMOOTH = 10


def _work(n: int) -> float:
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        key = i & 255
        seen[key] = seen.get(key, 0) + 1
        acc += (i % 13) * 0.5 + seen[key] * 1e-3
        if len(heap) > 64:
            acc -= heapq.heappop(heap)[0] * 1e-6
    return acc


def probe() -> tuple[float, float]:
    """``(start, duration)`` of one run of the fixed work, in s."""
    start = time.perf_counter()
    _work(_WORK)
    return start, time.perf_counter() - start


class SpeedClock:
    """Times a sequence of operations at the reference host speed.

    Use as a context manager; ``lap()`` ends the current operation and
    starts the next.  With ``sample=False`` only the one probe at entry is
    taken: traced passes keep the laps but report host time, and their
    spans must not contain probes.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.probes: list[tuple[float, float]] = []
        self.stamps: list[float] = []
        self._old_handler = None
        self._speeds: list[float] = []
        self._ends: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())

    def __enter__(self) -> "SpeedClock":
        self.probes.append(probe())
        if self.sample:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.stamps.append(time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def lap(self) -> None:
        self.stamps.append(time.perf_counter())

    def probe_median_s(self) -> float:
        return statistics.median(d for _, d in self.probes)

    def normalised_s(self) -> list[float]:
        """Each lap's time at the reference speed."""
        return [self.span_s(a, b)
                for a, b in zip(self.stamps, self.stamps[1:])]

    def span_s(self, a: float, b: float) -> float:
        """Host interval ``[a, b]`` at the reference speed.  The time
        before each probe is scaled by that probe's smoothed duration, the
        time after the last probe by the last one; probe time is left
        out."""
        if len(self._speeds) != len(self.probes):
            durations = [d for _, d in self.probes]
            self._speeds = [
                statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1])
                for i in range(len(durations))
            ]
            self._ends = [start + d for start, d in self.probes]
        speed = self._speeds
        j = bisect.bisect_right(self._ends, a)
        total, t = 0.0, a
        while j < len(self.probes) and self.probes[j][0] < b:
            start, duration = self.probes[j]
            if start > t:
                total += (start - t) * REFERENCE_S / speed[j]
            t = max(t, start + duration)
            j += 1
        last = speed[min(j, len(speed) - 1)]
        return total + max(0.0, b - t) * REFERENCE_S / last
