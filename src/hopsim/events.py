"""Deterministic discrete-event core.

A virtual clock and a tie-stable event queue: events fire in time
order, and events at equal times in slot order. Each event takes the
next slot when it is queued, unless `reserve` set its slot aside
earlier. Nothing here sleeps or reads the wall clock, so a scenario is
a pure function of its inputs.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
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
        `(time, seq)` key is the same. `stream` queues a run of events
        in such slots one at a time.
        """
        first = self._seq
        self._seq += n
        return first

    def schedule_reserved(self, at: float, seq: int, fn: Callable[..., None], *args) -> None:
        """Queue `fn(*args)` at `at` in the slot `seq` that `reserve` set aside."""
        if not at >= self.now:
            raise ValueError(f"cannot schedule at {at} before now {self.now}")
        heapq.heappush(self._heap, (at, seq, fn, args))

    def stream(self, first: int, stride: int, n: int, time_of: Callable[[int], float],
               fn: Callable[..., None], *args) -> None:
        """Run `fn(*args, k)` at `time_of(k)` for k in 0..n-1, in slots `reserve` set aside.

        Step k takes the slot `first + stride * k` and, when it runs,
        queues step k + 1 before it calls `fn`: the heap holds one step of
        the stream at a time. `time_of` must not decrease, so each step's
        `(time, slot)` key is above that of the step that queues it, and a
        step not yet queued always has a queued one ahead of it: the steps
        fire, and `horizon()` reads, as if all had been queued up front.
        With `n` 0 nothing is queued.

        The step is handed itself as an argument rather than closing over
        its own name, so it refers to itself only through the queued
        event: once the last step has run, nothing holds it, and a drained
        queue leaves no cycle for the collector.
        """
        call = partial(fn, *args) if args else fn

        def step(step, k: int) -> None:
            nxt = k + 1
            if nxt < n:
                self.schedule_reserved(time_of(nxt), first + stride * nxt, step, step, nxt)
            call(k)

        if n:
            self.schedule_reserved(time_of(0), first, step, step, 0)

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
