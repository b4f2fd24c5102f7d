"""Host-speed calibration: short pure-Python slices interleaved with the work.

On a shared host the speed of one core drifts by 20-40% between runs
minutes apart, and CPU time drifts with it, so raw times of unchanged
code do not repeat.  A slice of pure-Python work that looks like the
program's own (objects with slots, dicts, lists, sorting, a pickle round
trip) slows down with the host in step with the compiler: over 5-second
windows of a three-minute run, compile time spread 19% and compile time
divided by the slice time 3.5% (a plain arithmetic loop tracked it only
to 6.5%).  The benchmark therefore takes a slice after every job once
:data:`INTERVAL_S` of work has passed, plus a burst of slices around
every round and set-up step, and reports times scaled to a host on which
one slice takes :data:`REFERENCE_MS`.  The slices run between jobs, never
inside a timed request, and their own time is taken out of the round
clock.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import List, Optional

#: Slice time (ms) of the reference host that scaled times refer to.
REFERENCE_MS = 2.0

#: Seconds of work between two interleaved slices.
INTERVAL_S = 0.05

#: Slices in one burst.
BURST = 10

#: Objects built by one slice.
SLICE_OBJECTS = 600


class _Node:
    __slots__ = ("key", "name", "payload")

    def __init__(self, key: int, name: str, payload: dict):
        self.key = key
        self.name = name
        self.payload = payload


def slice_seconds() -> float:
    """Run one fixed slice of object-heavy pure-Python work; its seconds."""
    started = time.perf_counter()
    nodes = [
        _Node(i, str(i), {"k": i, "v": [i, i + 1]}) for i in range(SLICE_OBJECTS)
    ]
    groups: dict = {}
    for node in nodes:
        groups.setdefault(node.key % 17, []).append(node.payload["v"][1])
    blob = pickle.dumps([(n.key, n.name, n.payload) for n in nodes])
    pickle.loads(blob)
    sorted(nodes, key=lambda n: (n.key * 7919) % (SLICE_OBJECTS + 1))
    return time.perf_counter() - started


class Calibration:
    """The slices of one run, and the time they took out of the work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Total seconds spent in slices (to subtract from enclosing clocks).
        self.paused = 0.0
        self._last = time.perf_counter()

    def _take(self) -> None:
        seconds = slice_seconds()
        self.samples.append(seconds)
        self.paused += seconds
        self._last = time.perf_counter()

    def burst(self) -> None:
        for _ in range(BURST):
            self._take()

    def between_jobs(self) -> None:
        """Take one slice when :data:`INTERVAL_S` of work has passed."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self._take()

    def factor(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Scale turning times measured while samples ``start:stop`` were
        taken into reference-host times."""
        window = self.samples[start:stop]
        return REFERENCE_MS / (1e3 * statistics.median(window))

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)
