"""A fixed pure-Python reference loop that measures the host's current speed.

The benchmark's host times (throughput and the live p50) are scaled by
the speed of this loop, timed just before and just after each run. On a
shared host the speed of the same Python code drifts by tens of percent
from one second to the next; the loop drifts with it, so the scaled
figures stay comparable between runs made at different times. The loop
does the kinds of work the program does per event — heap pushes and pops,
generator resumes, and slotted attribute updates on objects found through
a large dict, so it touches about as much memory as a simulated cluster —
and imports nothing from the program, so no change to the program can
change it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: host seconds the loop takes on the nominal reference host; scaled
#: figures read as if measured there
REFERENCE_S = 0.12
ITERATIONS = 30_000
#: objects the loop updates, found by hashing into a dict
CELLS = 1 << 16


class _Cell:
    __slots__ = ("key", "hits", "last")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.last = None


class _Actor:
    __slots__ = ("fired", "gen")

    def __init__(self) -> None:
        self.fired = 0
        self.gen = self._loop()
        next(self.gen)

    def _loop(self):
        total = 0
        while True:
            total += yield total

    def fire(self, heap: list, now: int, seq: int) -> None:
        self.fired += 1
        self.gen.send(self.fired)
        heapq.heappush(heap, (now + 1 + (seq * 7919) % 97, seq, self))


def reference_s() -> float:
    """Host seconds for one pass of the fixed reference work."""
    t0 = perf_counter()
    cells = [_Cell(i) for i in range(CELLS)]
    index = {cell.key: cell for cell in cells}
    heap: list = []
    actors = [_Actor() for _ in range(64)]
    for i, actor in enumerate(actors):
        heapq.heappush(heap, (i, i, actor))
    seq = len(actors)
    for _ in range(ITERATIONS):
        now, _seq, actor = heapq.heappop(heap)
        cell = index[(seq * 2654435761) & (CELLS - 1)]
        cell.hits += 1
        cell.last = (now, actor.fired)
        actor.fire(heap, now, seq)
        seq += 1
    return perf_counter() - t0


def speed(ref_s: float) -> float:
    """Host speed relative to the nominal reference host (>1 = faster)."""
    return REFERENCE_S / ref_s
