"""Kernel: virtual clock, event ordering, determinism, timer wheel.

Behavioural tests run on the timer-wheel :class:`Simulator` and on its
binary-heap reference (``heap_kernel.HeapSimulator``); the differential
tests assert both execute identical traces.
"""

import random

import pytest
from heap_kernel import KERNELS, make_simulator

from repro.sim.kernel import Simulator


@pytest.mark.parametrize("kernel", KERNELS)
def test_same_instant_events_fire_in_schedule_order(kernel):
    sim = make_simulator(kernel)
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.schedule(1.0, order.append, "b")
    sim.schedule(0.5, order.append, "c")
    sim.schedule(1.0, order.append, "d")
    sim.run()
    assert order == ["c", "a", "b", "d"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_until_advances_clock_without_firing_later_events(kernel):
    sim = make_simulator(kernel)
    fired = []
    sim.schedule(5.0, fired.append, "late")
    assert sim.run(until=2.0) == 2.0
    assert fired == []
    assert sim.now == 2.0
    sim.run()
    assert fired == ["late"]
    assert sim.now == 5.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_cancelled_events_do_not_fire(kernel):
    sim = make_simulator(kernel)
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(1.0, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]
    assert not event.pending


@pytest.mark.parametrize("kernel", KERNELS)
def test_cannot_schedule_in_the_past(kernel):
    sim = make_simulator(kernel)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("kernel", KERNELS)
def test_event_callbacks_scheduling_more_events(kernel):
    sim = make_simulator(kernel)
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 3:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("kernel", KERNELS)
def test_two_seeded_runs_produce_identical_traces(kernel):
    def trace(seed):
        sim = make_simulator(kernel, seed)
        out = []

        def step(label):
            out.append((round(sim.now, 9), label, sim.rng.random()))
            if len(out) < 50:
                sim.schedule(sim.rng.uniform(0.0, 2.0), step, label + 1)

        sim.schedule(0.0, step, 0)
        sim.run()
        return out

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


# ------------------------------------------------------------- stop() + until
@pytest.mark.parametrize("kernel", KERNELS)
def test_stop_during_run_until_does_not_jump_the_clock(kernel):
    """Regression: stop() mid-run used to take the while/else branch and jump
    ``now`` to ``until`` even though unexecuted events remained before it —
    making subsequent schedule_at calls raise "cannot schedule in the past"."""
    sim = make_simulator(kernel)
    fired = []

    def first():
        fired.append(sim.now)
        sim.stop()

    sim.schedule(1.0, first)
    sim.schedule(2.0, fired.append, 2.0)  # still pending when stop() fires
    assert sim.run(until=10.0) == 1.0
    assert sim.now == 1.0
    assert fired == [1.0]
    assert sim.pending_events == 1
    # The window between the stop point and `until` must stay schedulable.
    sim.schedule_at(1.5, fired.append, 1.5)
    sim.run(until=10.0)
    assert fired == [1.0, 1.5, 2.0]
    assert sim.now == 10.0


@pytest.mark.parametrize("kernel", KERNELS)
def test_drained_run_until_still_advances_the_clock(kernel):
    sim = make_simulator(kernel)
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=30.0) == 30.0
    assert sim.now == 30.0


# ---------------------------------------------------------- pending counter
@pytest.mark.parametrize("kernel", KERNELS)
def test_pending_events_counter_tracks_schedules_cancels_and_fires(kernel):
    sim = make_simulator(kernel)
    events = [sim.schedule(float(i % 7), lambda: None) for i in range(50)]
    assert sim.pending_events == 50
    for event in events[::2]:
        event.cancel()
    assert sim.pending_events == 25
    events[0].cancel()  # double-cancel must not double-count
    assert sim.pending_events == 25
    sim.run()
    assert sim.pending_events == 0
    events[1].cancel()  # cancel after firing is a no-op
    assert sim.pending_events == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_clear_resets_pending_and_later_cancels_are_neutral(kernel):
    sim = make_simulator(kernel)
    stale = sim.schedule(5.0, lambda: None)
    sim.schedule(6.0, lambda: None)
    sim.clear()
    assert sim.pending_events == 0
    stale.cancel()  # scheduled before the clear(): must not go negative
    assert sim.pending_events == 0
    sim.schedule(1.0, lambda: None)
    assert sim.pending_events == 1
    assert sim.run() == 1.0


# ------------------------------------------------------------- wheel details
def test_wheel_and_heap_execute_identical_orders_across_structures():
    """Mixed workload spanning the ready deque, wheel buckets and the
    overflow heap (delays far beyond the wheel horizon) must execute in
    exactly the same (time, seq) order on both kernels."""
    def trace(kernel):
        sim = make_simulator(kernel, 3)
        out = []

        def emit(tag):
            out.append((round(sim.now, 9), tag))

        def burst(tag):
            emit(tag)
            # same-instant follow-ups exercise the ready deque
            sim.schedule(0.0, emit, f"{tag}/soon")
            if len(out) < 400:
                delay = sim.rng.choice([0.0, 0.001, 0.0499, 0.05, 1.0 / 3.0,
                                        2.5, 60.0, 500.0, 10_000.0])
                sim.schedule(delay, burst, f"{tag}+")

        for i in range(8):
            sim.schedule(i * 0.013, burst, f"n{i}")
        sim.run()
        return out

    assert trace("wheel") == trace("heap")


#: wheel geometries of the differential runs: the default wheel, a 16-slot
#: wheel whose 0.8 s horizon sends most delays through the overflow heap,
#: and an odd tick whose multiples often round to just below a bucket
#: boundary (``int(when / tick)`` undershoots), so the boundary corrections
#: actually run
_GEOMETRIES = ({"wheel_tick": 0.05}, {"wheel_tick": 0.05, "wheel_slots": 16},
               {"wheel_tick": 0.013, "wheel_slots": 16})


def _random_delay(rng, tick):
    """Delays on, just off and between bucket boundaries, and past the horizon."""
    kind = rng.random()
    if kind < 0.15:
        return 0.0
    if kind < 0.45:
        k = rng.randrange(1, 40)
        return rng.choice((k * tick, k * tick - 1e-9, k * tick + 1e-9,
                           k / 3.0 * tick))
    if kind < 0.8:
        return rng.uniform(0.0, 3.0)
    return rng.choice((10.0, 204.8, 250.0, 1000.0)) + rng.random()


def _differential_run(kernel, seed):
    """One seeded random program: schedules of all three kinds, cancels,
    ``run(until=)`` slices, ``stop()`` from callbacks and ``clear()``.

    Returns the executed ``(time, tag)`` trace (with the clock and pending
    count after every run slice) and the final event counts.
    """
    rng = random.Random(seed)
    geometry = _GEOMETRIES[seed % len(_GEOMETRIES)]
    tick = geometry["wheel_tick"]
    sim = make_simulator(kernel, seed, **geometry)
    trace = []
    # A bounded window of handles: older events can be recycled, recent
    # ones (wheel bucket, overflow or ready deque) can be cancelled.
    handles = []
    budget = [400]

    def add():
        if budget[0] <= 0:
            return
        budget[0] -= 1
        tag = 400 - budget[0]
        op = rng.random()
        if op < 0.5:
            event = sim.schedule(_random_delay(rng, tick), fire, tag)
        elif op < 0.8:
            # Absolute times computed as whole ticks: exact bucket boundaries,
            # near ones and ones past the horizon (overflow migrations).
            start = int(sim.now / tick) + rng.choice((0, 1, 2, 5, 17, 40, 90))
            event = sim.schedule_at(max(sim.now, start * tick), fire, tag)
        else:
            event = sim.call_soon(fire, tag)
        handles.append(event)
        if len(handles) > 24:
            handles.pop(0)

    def cancel_some():
        for _ in range(rng.randrange(1, 4)):
            if handles:
                handles[rng.randrange(len(handles))].cancel()

    def fire(tag):
        trace.append((sim.now, tag))
        roll = rng.random()
        if roll < 0.55:
            for _ in range(rng.randrange(1, 3)):
                add()
        elif roll < 0.75:
            cancel_some()
        elif roll < 0.8:
            sim.stop()

    for _ in range(rng.randrange(3, 9)):
        add()
    for _ in range(12):
        for _ in range(rng.randrange(0, 6)):
            add()
        roll = rng.random()
        if roll < 0.1:
            sim.clear()
        elif roll < 0.3:
            cancel_some()
        if rng.random() < 0.3:
            sim.run()
        else:
            sim.run(until=sim.now + rng.choice((0.0, tick, 0.37, 2.0, 50.0, 300.0)))
        trace.append(("run", sim.now, sim.pending_events))
    sim.run()
    return trace, (sim.executed_events, sim.cancelled_events, sim.pending_events)


def test_wheel_matches_the_heap_reference_on_random_programs():
    """100 seeded random programs execute identically on the wheel and on the
    binary-heap reference (free-list recycling counts may differ and are
    not compared)."""
    for seed in range(100):
        wheel = _differential_run("wheel", seed)
        heap = _differential_run("heap", seed)
        assert wheel == heap, f"kernels diverge on program seed {seed}"
        assert wheel[1][0] > 0, seed


def test_wheel_events_cancelled_inside_buckets_and_overflow():
    sim = Simulator()
    fired = []
    near = sim.schedule(0.2, fired.append, "near")       # wheel bucket
    far = sim.schedule(100_000.0, fired.append, "far")   # overflow heap
    keep = sim.schedule(0.3, fired.append, "keep")
    near.cancel()
    far.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.fired and not near.fired and not far.fired
    assert sim.pending_events == 0


def test_wheel_overflow_ghost_purge_keeps_counts_consistent():
    sim = Simulator()
    far = [sim.schedule(100_000.0 + i, lambda: None) for i in range(300)]
    for event in far[:299]:
        event.cancel()  # triggers the lazy overflow compaction
    assert sim.pending_events == 1
    sim.run()
    assert sim.executed_events == 1
    assert sim.pending_events == 0


def test_scheduling_into_the_jumped_until_window_works_on_the_wheel():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    sim.run(until=7.03)  # clock parks mid-bucket, ahead of the wheel cursor
    fired = []
    sim.schedule(0.0, fired.append, "soon")
    sim.schedule_at(7.04, fired.append, "mid")
    sim.schedule(0.5, fired.append, "later")
    sim.run(until=9.0)
    assert fired == ["soon", "mid", "later"]
    assert sim.now == 9.0


def test_call_soon_runs_after_already_scheduled_same_time_events():
    for kernel in KERNELS:
        sim = make_simulator(kernel)
        order = []
        sim.schedule(0.0, order.append, "first")
        sim.call_soon(order.append, "second")
        sim.run()
        assert order == ["first", "second"], kernel


def test_invalid_wheel_geometry_is_rejected():
    with pytest.raises(ValueError):
        Simulator(wheel_tick=0.0)
    with pytest.raises(ValueError):
        Simulator(wheel_slots=1)


# ------------------------------------------------------------------ pids
def test_pids_are_per_simulator_and_reproducible():
    from repro.sim.process import Process

    def pids():
        sim = Simulator(1)
        procs = [Process(sim, (lambda: (yield 0.0))(), name=f"p{i}")
                 for i in range(5)]
        return [p.pid for p in procs]

    first = pids()
    second = pids()  # same process, fresh simulator: identical pid sequence
    assert first == second == [1, 2, 3, 4, 5]


# ------------------------------------------------------------------ free list
#: execution-order digest of the churny free-list workload below — committed
#: so any event-recycling change that perturbs ordering fails loudly
_FREE_LIST_ORDER_DIGEST = "73985cd4ddd3dcf9"


def _churny_free_list_run(kernel):
    """An RPC-shaped workload (timers mostly cancelled) that exercises the
    event free list hard; returns the simulator and its fire-order digest."""
    import hashlib

    sim = make_simulator(kernel, 11)
    rng = sim.rng
    order = []

    def noop():
        return None

    def fire(i):
        order.append((repr(sim.now), i))
        timer = sim.schedule(3.0, noop)       # RPC-style timeout guard
        if rng.random() < 0.7:
            sim.schedule(0.05, timer.cancel)  # the reply arrived: cancel it
        sim.schedule(rng.random(), fire, i)   # next round

    for i in range(20):
        sim.schedule(rng.random(), fire, i)
    sim.run(until=30.0)
    digest = hashlib.sha256(repr(order).encode()).hexdigest()[:16]
    return sim, digest


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_recycling_preserves_event_order(kernel):
    sim, digest = _churny_free_list_run(kernel)
    assert digest == _FREE_LIST_ORDER_DIGEST
    # The free list actually recycled: executed far more events than live
    # ScheduledEvent objects, and the list holds returned carcasses.
    assert sim.executed_events > 2000
    assert len(sim._free) > 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_never_recycles_externally_held_events(kernel):
    sim = make_simulator(kernel, 3)
    fired = []
    handle = sim.schedule(1.0, fired.append, "kept")
    sim.schedule(2.0, fired.append, "later")
    sim.run()
    assert fired == ["kept", "later"]
    # We still hold ``handle``, so the refcount guard must have skipped it:
    # its identity (callback cleared = recycled) is intact and it is not on
    # the free list awaiting reuse.
    assert handle.fired
    assert handle.callback is not None
    assert all(ev is not handle for ev in sim._free)


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_recycles_unreferenced_cancelled_events(kernel):
    # Cancelled timers whose handles are dropped (the RPC pattern: the reply
    # cancels the timeout timer and forgets it) must be reclaimed when the
    # kernel skips over their queue entries — not only executed events.
    sim = make_simulator(kernel, 7)
    for _ in range(50):
        sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(2.0, lambda: None)  # something to run past the carcasses
    sim.run()
    # 50 cancelled + 1 fired event went through; nothing external holds them.
    assert len(sim._free) == 51


@pytest.mark.parametrize("kernel", KERNELS)
def test_free_list_never_recycles_held_cancelled_events(kernel):
    sim = make_simulator(kernel, 7)
    held = sim.schedule(1.0, lambda: None)
    held.cancel()
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert held.cancelled
    assert all(ev is not held for ev in sim._free)
