"""Deterministic discrete-event core.

A virtual clock and a tie-stable event queue: events fire in time
order, and events at equal times fire in insertion order. Nothing here
sleeps or reads the wall clock, so a scenario is a pure function of its
inputs.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable


class EventQueue:
    """Events are a callable and its arguments: `fn(*args)` runs at `at`."""

    def __init__(self, start: float = 0.0):
        self.now = start
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0

    def schedule_at(self, at: float, fn: Callable[..., None], *args) -> None:
        # Written `not >=` so that a NaN time is refused too.
        if not at >= self.now:
            raise ValueError(f"cannot schedule at {at} before now {self.now}")
        heapq.heappush(self._heap, (at, self._seq, fn, args))
        self._seq += 1

    def reserve(self, n: int) -> int:
        """Set aside the next `n` sequence numbers; returns the first.

        An event later queued with `schedule_reserved` in one of them
        fires where it would have, had it been queued now: its
        `(time, seq)` key is the same. A caller with a long stream of
        events queues each one in its slot only when the one before it
        runs, and so holds one at a time instead of all of them.
        """
        first = self._seq
        self._seq += n
        return first

    def schedule_reserved(self, at: float, seq: int, fn: Callable[..., None], *args) -> None:
        """Queue `fn(*args)` at `at` in the slot `seq` that `reserve` set aside."""
        if not at >= self.now:
            raise ValueError(f"cannot schedule at {at} before now {self.now}")
        heapq.heappush(self._heap, (at, seq, fn, args))

    def horizon(self) -> float:
        """The time of the first queued event; `inf` when none is queued.

        Work due before the horizon may run now, inline; work due at or
        after it waits, since an event queued at exactly that time fires
        first. The horizon holds only while the caller queues nothing, so
        a caller that runs a walk of such work reads it once, moves `now`
        forward itself as it goes and queues its first step not due
        before it.
        """
        heap = self._heap
        return heap[0][0] if heap else math.inf

    def run(self) -> int:
        """Drain the queue; returns the number of events processed.

        Work a handler runs inline, before the horizon, is not an event
        and is not counted.
        """
        processed = 0
        heap = self._heap
        while heap:
            at, _, fn, args = heapq.heappop(heap)
            self.now = at
            fn(*args)
            processed += 1
        return processed


class TraceLog:
    """Append-only event trace: one ``t,component,event,details`` line each.

    By default the lines are kept in `lines`. Given `write` (say, an open
    text file's `write`), each line is handed to it with its newline as it
    is emitted, and `lines` stays empty.
    """

    def __init__(self, write: Callable[[str], object] | None = None):
        self.lines: list[str] = []
        if write is None:
            self._write, self._end = self.lines.append, ""
        else:
            self._write, self._end = write, "\n"

    def emit(self, t: float, component: str, event: str, details: str = "") -> None:
        self._write(f"{t:.3f},{component},{event},{details}{self._end}")
