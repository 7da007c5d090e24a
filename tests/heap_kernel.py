"""The original binary-heap event kernel, kept as a test-only reference.

:class:`HeapSimulator` is the ``kernel="heap"`` branch the simulator carried
before the timer wheel became its only event queue, moved here verbatim: one
``heapq`` ordered by ``(time, seq)``, with the same free-list recycling,
sanitizer and observability seams.  It shares everything else (clock,
counters, cancellation accounting, ``_execute``) with
:class:`~repro.sim.kernel.Simulator`, so any divergence between the two
traces is a wheel bug.

Unit tests build it directly; scenario-level tests swap it in for the whole
runtime with ``monkeypatch.setattr(harness, "Simulator", HeapSimulator)``
(see :func:`use_heap_kernel`), because :func:`repro.apps.harness.deploy`
resolves ``Simulator`` through its module globals.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.kernel import _FREE_LIST_MAX, ScheduledEvent, Simulator, _getrefcount

#: parametrize ids of the kernel-differential tests
KERNELS = ("wheel", "heap")


class HeapSimulator(Simulator):
    """Binary-heap kernel: same ``(time, seq)`` order as the wheel."""

    def __init__(self, seed: int = 0, **kwargs: Any):
        super().__init__(seed, **kwargs)
        self._heap: list[ScheduledEvent] = []

    def _insert(self, when: float, callback: Callable[..., Any], args: tuple) -> ScheduledEvent:
        self._seq = seq = self._seq + 1
        free = self._free
        san = self._san
        if free:
            event = free.pop()
            if san is not None:
                san.check_recycled(event)
            event.time = when
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
            event._epoch = self._epoch
            event._overflow = False
        else:
            self.allocated_events += 1
            event = ScheduledEvent(when, seq, callback, args, self, self._epoch)
        if san is not None:
            san.note_scheduled(event)
        elif self._obs_stamp is not None:
            self._obs_stamp(event)
        self._pending += 1
        heappush(self._heap, event)
        return event

    def step(self) -> bool:
        heap = self._heap
        free = self._free
        while heap:
            event = heappop(heap)
            if event.cancelled:
                # refs: the event local + getrefcount's argument.
                if _getrefcount is not None and _getrefcount(event) == 2 \
                        and len(free) < _FREE_LIST_MAX:
                    event.callback = None
                    event.args = ()
                    free.append(event)
                continue
            self._execute(event)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        self._stop_requested = False
        self._running = True
        try:
            return self._run_heap(until)
        finally:
            self._running = False

    def _run_heap(self, until: Optional[float]) -> float:
        heap = self._heap
        free = self._free
        while heap and not self._stop_requested:
            head = heap[0]
            if head.cancelled:
                heappop(heap)
                # refs: the head local + getrefcount's argument.
                if _getrefcount is not None and _getrefcount(head) == 2 \
                        and len(free) < _FREE_LIST_MAX:
                    head.callback = None
                    head.args = ()
                    free.append(head)
                continue
            if until is not None and head.time > until:
                self._now = until
                return self._now
            heappop(heap)
            self._execute(head)
        if not heap and not self._stop_requested:
            if until is not None and self._now < until:
                self._now = until
        return self._now

    def clear(self) -> None:
        self._epoch += 1
        self._cleared_events += self._pending
        self._pending = 0
        self._heap.clear()


def make_simulator(kernel: str, seed: int = 0, **wheel: Any) -> Simulator:
    """A fresh simulator of the named kernel (``"wheel"`` or ``"heap"``)."""
    return (HeapSimulator if kernel == "heap" else Simulator)(seed, **wheel)


def use_heap_kernel(monkeypatch, kernel: str) -> None:
    """Make every deployment in this test run on ``kernel``."""
    if kernel == "heap":
        from repro.apps import harness

        monkeypatch.setattr(harness, "Simulator", HeapSimulator)
