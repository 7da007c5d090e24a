"""Event kernel: virtual clock, timer wheel and overflow heap.

The :class:`Simulator` is the single authority on virtual time.  Every other
component (network, daemons, controller, applications) schedules callbacks on
it.  Determinism is guaranteed by a monotonically increasing sequence number
used to break ties between events scheduled for the same instant, and by the
simulator-owned random number generator.

The event queue is a timer wheel tuned for the dominant short-delay periodic
events (RPC timeouts, stabilization rounds, churn ticks).  Four structures
cooperate, all ordered by the exact ``(time, seq)`` key, so events execute in
exactly the order a single binary heap would give them:

* a *ready* deque — events scheduled for the current instant
  (``delay == 0``, the process-step hot path).  Appends are naturally
  sorted because both the clock and the sequence counter are monotonic,
  so no heap operation is ever needed for them;
* a *cursor* heap — events belonging to wheel buckets the clock has
  already reached;
* the *wheel* — one unsorted bucket per tick for events within the
  horizon (``wheel_tick * wheel_slots`` seconds).  Insertion is an O(1)
  list append; cancelled events are purged in bulk when their bucket is
  loaded into the cursor;
* an *overflow* heap for far-future events (beyond the horizon), with
  lazy compaction once cancelled entries dominate.

The original binary-heap kernel is kept as a test-only reference
(``HeapSimulator`` in ``tests/heap_kernel.py``); the kernel and scenario
tests assert both execute identical traces.  The pending-event counter is
O(1).
"""

from __future__ import annotations

import random
import sys
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: CPython-only refcount probe used by the event free-list (None elsewhere).
_getrefcount = getattr(sys, "getrefcount", None)

#: upper bound on recycled ScheduledEvent objects kept per simulator
_FREE_LIST_MAX = 4096


class ScheduledEvent:
    """A cancellable callback scheduled on the simulator.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  Calling :meth:`cancel` before the event
    fires prevents the callback from running; cancelling an event that has
    already fired is a no-op.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired",
                 "origin", "_sim", "_epoch", "_overflow")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None, epoch: int = 0):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        #: provenance string ("who scheduled this"), stamped only when a
        #: sanitizer (repro.sim.sanitizer) or tracer (repro.obs) is
        #: installed; None otherwise
        self.origin = None
        self._sim = sim
        self._epoch = epoch
        self._overflow = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled(self)

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<ScheduledEvent t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed of the simulator-owned :class:`random.Random`.  All stochastic
        models (latency jitter, loss, host load, workloads) must draw either
        from :attr:`rng` or from a substream derived via
        :func:`repro.sim.rng.substream` so that runs are reproducible.
    wheel_tick / wheel_slots:
        Bucket granularity and count of the timer wheel.  The horizon
        (``wheel_tick * wheel_slots``) should cover the common delays (RPC
        timeouts, stabilization periods); longer delays fall back to the
        overflow heap.
    """

    def __init__(self, seed: int = 0, wheel_tick: float = 0.05,
                 wheel_slots: int = 4096):
        if wheel_tick <= 0 or wheel_slots < 2:
            raise ValueError("wheel_tick must be positive and wheel_slots >= 2")
        self._now: float = 0.0
        self._seq: int = 0
        self._stop_requested = False
        self._running = False
        self.seed = seed
        self.rng = random.Random(seed)
        #: number of callbacks executed so far (useful for tests and stats)
        self.executed_events = 0
        #: events that were pending when :meth:`clear` dropped them — they
        #: neither fired nor were cancelled, so the ``cancelled_events``
        #: derivation has to account for them separately
        self._cleared_events = 0
        #: fresh ScheduledEvent constructions — counted on the cold
        #: allocation branch so the recycling hot path stays increment-free;
        #: see the ``recycled_events`` property
        self.allocated_events = 0
        # O(1) pending-event accounting (events scheduled minus fired/cancelled)
        self._pending = 0
        self._epoch = 0
        self._next_pid = 0
        self._tick = float(wheel_tick)
        self._inv_tick = 1.0 / float(wheel_tick)
        # rounded up to a power of two so slot indexing is a mask, not a modulo
        self._slots = 1 << (int(wheel_slots) - 1).bit_length()
        self._slot_mask = self._slots - 1
        self._ready: deque = deque()
        self._cursor: list = []
        self._wheel: list[list] = [[] for _ in range(self._slots)]
        self._wheel_count = 0
        self._cur_tick = 0
        self._overflow: list = []
        self._overflow_ghosts = 0
        # Free-list of dead ScheduledEvent objects — both fired events and
        # cancelled ones (reclaimed when their queue entry is skipped or their
        # wheel bucket loads; RPC timeout timers are almost always cancelled
        # by the reply, so they dominate).  Recycling only happens when the
        # refcount proves no external handle survived, so a held event can
        # never be mutated under its owner's feet.
        self._free: list[ScheduledEvent] = []
        #: runtime sanitizer (repro.sim.sanitizer.Sanitizer) or None; the
        #: hot paths pay a single pointer test when disabled
        self._san = None
        #: observability handle (repro.obs.Observability) or None — same
        #: single-pointer-test discipline as the sanitizer
        self._obs = None
        #: origin-stamping hook (obs tracing only; the sanitizer stamps
        #: through its own note_scheduled when both are installed)
        self._obs_stamp = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def recycled_events(self) -> int:
        """Events served from the free list instead of a fresh allocation.

        Every insert either recycles or allocates, so this is derived from
        the monotonic sequence counter rather than maintained with an
        increment on the recycling hot path.
        """
        return self._seq - self.allocated_events

    @property
    def cancelled_events(self) -> int:
        """``cancel()`` calls on live events (timer churn; metrics section).

        Derived — every inserted event either fires, is cancelled, was
        dropped by :meth:`clear`, or is still pending — so the cancel hot
        path carries no extra increment.  (Cancelling an event that a
        ``clear()`` already dropped is not counted; the event was dead.)
        """
        return (self._seq - self.executed_events
                - self._pending - self._cleared_events)

    def allocate_pid(self) -> int:
        """Next process id (per-simulator, so co-hosted runs stay deterministic)."""
        self._next_pid += 1
        return self._next_pid

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self._insert(self._now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        return self._insert(when, callback, args)

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
        if when == self._now:
            # Hot path: process steps / future resumptions scheduled "now".
            # The deque stays sorted because time and seq are both monotonic.
            self._ready.append((when, seq, event))
            return event
        # Inline _bucket_of: one multiply plus boundary corrections.
        tick = self._tick
        bucket = int(when * self._inv_tick)
        while bucket * tick > when:
            bucket -= 1
        while (bucket + 1) * tick <= when:
            bucket += 1
        cur = self._cur_tick
        if bucket <= cur:
            heappush(self._cursor, (when, seq, event))
        elif bucket - cur < self._slots:
            self._wheel[bucket & self._slot_mask].append((when, seq, event))
            self._wheel_count += 1
        else:
            event._overflow = True
            heappush(self._overflow, (when, seq, event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at the current instant (after pending same-time events)."""
        return self._insert(self._now, callback, args)

    # -------------------------------------------------------- wheel internals
    def _bucket_of(self, when: float) -> int:
        """Tick index ``b`` with ``b*tick <= when < (b+1)*tick`` under exact
        float comparison (the correction loops absorb multiplication
        rounding, keeping bucket boundaries consistent everywhere)."""
        tick = self._tick
        idx = int(when * self._inv_tick)
        while idx * tick > when:
            idx -= 1
        while (idx + 1) * tick <= when:
            idx += 1
        return idx

    def _note_cancelled(self, event: ScheduledEvent) -> None:
        if event._epoch != self._epoch:
            return  # scheduled before a clear(); no longer accounted
        self._pending -= 1
        if event._overflow:
            self._overflow_ghosts += 1
            # Lazy purge: rebuild the overflow heap once ghosts dominate.
            if self._overflow_ghosts > 64 and self._overflow_ghosts * 2 >= len(self._overflow):
                self._overflow = [e for e in self._overflow if not e[2].cancelled]
                heapify(self._overflow)
                self._overflow_ghosts = 0

    def _advance_wheel(self) -> bool:
        """Move the wheel forward to the next tick holding events.

        Loads that bucket (minus cancelled ghosts) into the cursor and
        migrates overflow-heap entries that now fall inside it.  Returns
        ``False`` when no events remain anywhere.
        """
        overflow = self._overflow
        free = self._free
        while overflow and overflow[0][2].cancelled:
            event = heappop(overflow)[2]
            self._overflow_ghosts -= 1
            # refs: the event local + getrefcount's argument (the popped entry
            # tuple died above).  More means someone still holds the handle.
            if _getrefcount is not None and _getrefcount(event) == 2 \
                    and len(free) < _FREE_LIST_MAX:
                event.callback = None
                event.args = ()
                free.append(event)
        target = -1
        if self._wheel_count:
            wheel = self._wheel
            mask = self._slot_mask
            t = self._cur_tick + 1
            end = t + self._slots
            while t < end and not wheel[t & mask]:
                t += 1
            target = t
        if overflow:
            over_bucket = self._bucket_of(overflow[0][0])
            if target < 0 or over_bucket < target:
                target = over_bucket
        if target < 0:
            return False
        self._cur_tick = target
        slot = target & self._slot_mask
        bucket = self._wheel[slot]
        cursor = self._cursor
        if bucket:
            self._wheel[slot] = []
            self._wheel_count -= len(bucket)
            live = []
            for entry in bucket:
                event = entry[2]
                if not event.cancelled:
                    live.append(entry)
                # Cancelled-timer recycling: RPC timeout timers are cancelled
                # by the reply long before their bucket loads, so this purge
                # is where most dead events surface.  refs: the entry tuple +
                # the event local + getrefcount's argument.
                elif _getrefcount is not None and _getrefcount(event) == 3 \
                        and len(free) < _FREE_LIST_MAX:
                    event.callback = None
                    event.args = ()
                    free.append(event)
            if live:
                cursor.extend(live)
                heapify(cursor)
        if overflow:
            boundary = (target + 1) * self._tick
            while overflow and overflow[0][0] < boundary:
                entry = heappop(overflow)
                event = entry[2]
                event._overflow = False
                if event.cancelled:
                    self._overflow_ghosts -= 1
                    if _getrefcount is not None and _getrefcount(event) == 3 \
                            and len(free) < _FREE_LIST_MAX:
                        event.callback = None
                        event.args = ()
                        free.append(event)
                else:
                    heappush(cursor, entry)
        return True

    def _pop_next_wheel(self) -> Optional[ScheduledEvent]:
        """Remove and return the next pending event in (time, seq) order."""
        ready = self._ready
        cursor = self._cursor
        free = self._free
        while True:
            while ready and ready[0][2].cancelled:
                event = ready.popleft()[2]
                if _getrefcount is not None and _getrefcount(event) == 2 \
                        and len(free) < _FREE_LIST_MAX:
                    event.callback = None
                    event.args = ()
                    free.append(event)
            while cursor and cursor[0][2].cancelled:
                event = heappop(cursor)[2]
                if _getrefcount is not None and _getrefcount(event) == 2 \
                        and len(free) < _FREE_LIST_MAX:
                    event.callback = None
                    event.args = ()
                    free.append(event)
            if ready:
                if cursor and cursor[0] < ready[0]:
                    return heappop(cursor)[2]
                return ready.popleft()[2]
            if cursor:
                return heappop(cursor)[2]
            if not self._advance_wheel():
                return None

    # ------------------------------------------------------------------- run
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the event
        queue was empty (cancelled events are skipped transparently).
        """
        event = self._pop_next_wheel()
        if event is None:
            return False
        self._execute(event)
        return True

    def _execute(self, event: ScheduledEvent) -> None:
        if self._san is not None:
            self._san.before_execute(event)
        self._now = event.time
        event.fired = True
        self._pending -= 1
        self.executed_events += 1
        obs = self._obs
        if obs is None:
            event.callback(*event.args)
        else:
            # Observed dispatch (ring/trace/profile): every reference the
            # observer takes dies before run_event returns, so the refcount
            # gate below still sees exactly the expected handles.
            obs.run_event(event)
        # refs here: caller's local + our parameter + getrefcount argument.
        # Anything above 3 means an external handle survived — don't recycle.
        if _getrefcount is not None and _getrefcount(event) == 3 \
                and len(self._free) < _FREE_LIST_MAX:
            event.callback = None
            event.args = ()
            self._free.append(event)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains or virtual time reaches ``until``.

        Returns the virtual time at which the run stopped.  The clock jumps
        forward to ``until`` only when the queue genuinely drained — not when
        :meth:`stop` interrupted the run with events still pending before
        ``until`` (they must remain schedulable at their original times).
        """
        self._stop_requested = False
        self._running = True
        try:
            return self._run_wheel(until)
        finally:
            self._running = False

    def _run_wheel(self, until: Optional[float]) -> float:
        ready = self._ready
        cursor = self._cursor
        free = self._free
        # Hoisted once per run(): observability installs before the run
        # starts, so the per-event test is a local load, not an attribute.
        obs = self._obs
        while not self._stop_requested:
            while ready and ready[0][2].cancelled:
                event = ready.popleft()[2]
                if _getrefcount is not None and _getrefcount(event) == 2 \
                        and len(free) < _FREE_LIST_MAX:
                    event.callback = None
                    event.args = ()
                    free.append(event)
            while cursor and cursor[0][2].cancelled:
                event = heappop(cursor)[2]
                if _getrefcount is not None and _getrefcount(event) == 2 \
                        and len(free) < _FREE_LIST_MAX:
                    event.callback = None
                    event.args = ()
                    free.append(event)
            if ready:
                from_cursor = bool(cursor) and cursor[0] < ready[0]
                entry = cursor[0] if from_cursor else ready[0]
            elif cursor:
                from_cursor = True
                entry = cursor[0]
            else:
                if self._advance_wheel():
                    continue
                if until is not None and self._now < until:
                    self._now = until
                break
            if until is not None and entry[0] > until:
                self._now = until
                break
            if from_cursor:
                heappop(cursor)
            else:
                ready.popleft()
            event = entry[2]
            if self._san is not None:
                self._san.before_execute(event)
            self._now = entry[0]
            event.fired = True
            self._pending -= 1
            self.executed_events += 1
            if obs is None:
                event.callback(*event.args)
            else:
                obs.run_event(event)
            # refs here: the popped entry tuple + the event local +
            # getrefcount's argument.  More means an external handle exists.
            if _getrefcount is not None and _getrefcount(event) == 3 \
                    and len(self._free) < _FREE_LIST_MAX:
                event.callback = None
                event.args = ()
                self._free.append(event)
        return self._now

    def run_for(self, duration: float) -> float:
        """Run for ``duration`` seconds of virtual time from the current instant."""
        return self.run(until=self._now + duration)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # --------------------------------------------------------------- queries
    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return self._pending

    @property
    def running(self) -> bool:
        """True while :meth:`run` is executing."""
        return self._running

    def clear(self) -> None:
        """Drop all pending events (the clock is left unchanged)."""
        self._epoch += 1
        self._cleared_events += self._pending
        self._pending = 0
        self._ready.clear()
        self._cursor.clear()
        if self._wheel_count:
            self._wheel = [[] for _ in range(self._slots)]
        self._wheel_count = 0
        self._cur_tick = self._bucket_of(self._now)
        self._overflow.clear()
        self._overflow_ghosts = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator now={self._now:.6f} "
                f"pending={self.pending_events}>")
