"""Deterministic discrete-event core.

A virtual clock and a tie-stable event queue: events fire in time
order, and events at equal times fire in insertion order. Nothing here
sleeps or reads the wall clock, so a scenario is a pure function of its
inputs.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventQueue:
    def __init__(self, start: float = 0.0):
        self.now = start
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule_at(self, at: float, fn: Callable[[], None]) -> None:
        if at < self.now:
            raise ValueError(f"cannot schedule at {at} before now {self.now}")
        heapq.heappush(self._heap, (at, self._seq, fn))
        self._seq += 1

    def schedule_in(self, delay: float, fn: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, fn)

    def run(self) -> int:
        """Drain the queue; returns the number of events processed."""
        processed = 0
        while self._heap:
            at, _, fn = heapq.heappop(self._heap)
            self.now = at
            fn()
            processed += 1
        return processed


class TraceLog:
    """Append-only event trace: one ``t,component,event,details`` line each."""

    def __init__(self):
        self.lines: list[str] = []

    def emit(self, t: float, component: str, event: str, details: str = "") -> None:
        self.lines.append(f"{t:.3f},{component},{event},{details}")
