"""Bandwidth model: max-min fairness and transfer accounting."""

import pytest
from heap_kernel import KERNELS, make_simulator

from repro.net.bandwidth import BandwidthModel
from repro.sim.kernel import Simulator


def test_equal_flows_share_the_bottleneck_uplink():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)  # 8 Mbps uplink = 1 MB/s
    one_mb = 1_000_000
    t1 = bw.transfer("A", "B", one_mb)
    t2 = bw.transfer("A", "C", one_mb)
    assert t1.rate_bps == pytest.approx(4_000_000)
    assert t2.rate_bps == pytest.approx(4_000_000)
    sim.run()
    # Two 1 MB flows sharing 1 MB/s finish together at t = 2 s.
    assert t1.done.result() == pytest.approx(2.0)
    assert t2.done.result() == pytest.approx(2.0)
    assert bw.completed == 2


def test_max_min_gives_leftover_capacity_to_unconstrained_flow():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    bw.set_capacity("B", None, 2_000_000)  # B's downlink is the narrow link
    t_ab = bw.transfer("A", "B", 10_000_000)
    t_ac = bw.transfer("A", "C", 10_000_000)
    # Progressive filling: A->B capped at 2 Mbps by B's downlink; A->C takes
    # the remaining 6 Mbps of A's uplink.
    assert t_ab.rate_bps == pytest.approx(2_000_000)
    assert t_ac.rate_bps == pytest.approx(6_000_000)


def test_rates_rebalance_when_a_flow_completes():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    short = bw.transfer("A", "B", 500_000)
    long = bw.transfer("A", "C", 2_000_000)
    sim.run(until=1.01)  # short flow (0.5 MB at 0.5 MB/s) finishes at t = 1 s
    assert short.done.done()
    assert long.rate_bps == pytest.approx(8_000_000)
    sim.run()
    # long: 0.5 MB in the first second, the remaining 1.5 MB at 1 MB/s.
    assert long.done.result() == pytest.approx(2.5)


def test_cancel_host_aborts_its_transfers():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    doomed = bw.transfer("A", "B", 1_000_000)
    other = bw.transfer("C", "D", 1_000_000)
    assert bw.cancel_host("A") == 1
    assert doomed.done.cancelled()
    sim.run()
    assert other.done.done() and not other.done.cancelled()


def test_two_flow_shared_uplink_with_zero_rate_assignment_does_not_crash():
    """Regression: _reallocate computed min() over positive-rate flows only;
    a zero-rate assignment (shared uplink exhausted by a bottlenecked flow or
    float dust) made the generator empty and min() raise ValueError — and the
    stalled flow never completed.  The guard must survive the degenerate
    state and re-tick the stalled flow once capacity frees."""
    sim = Simulator()
    bw = BandwidthModel(sim)
    forced = {"zero": True}
    original = BandwidthModel._allocate_rates

    def patched(self, transfers):
        rates = original(self, transfers)
        if forced["zero"] and len(rates) > 1:
            rates[-1] = 0.0  # the shared uplink left nothing for the last flow
        return rates

    bw._allocate_rates = patched.__get__(bw, BandwidthModel)
    bw.set_capacity("A", 8_000_000, None)
    healthy = bw.transfer("A", "B", 1_000_000)
    stalled = bw.transfer("A", "C", 1_000_000)
    assert stalled.rate_bps == 0.0
    assert healthy.rate_bps > 0.0
    sim.run(until=9.0)
    # The healthy flow completes; its completion frees the uplink and the
    # next reallocation (no longer forced to zero) revives the stalled flow.
    assert healthy.done.done()
    forced["zero"] = False
    bw._reallocate()
    assert stalled.rate_bps > 0.0
    sim.run()
    assert stalled.done.done()
    assert bw.completed == 2


def test_all_flows_zero_rate_schedules_no_tick_and_recovers():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw._allocate_rates = (lambda transfers: [0.0] * len(transfers))
    bw.set_capacity("A", 8_000_000, None)
    stalled = bw.transfer("A", "B", 1_000_000)  # must not raise ValueError
    assert stalled.rate_bps == 0.0
    assert sim.pending_events == 0  # no completion tick for a fully stalled set
    del bw._allocate_rates  # capacity "frees": restore the real allocator
    bw._reallocate()
    sim.run()
    assert stalled.done.result() == pytest.approx(1.0)


def test_shared_uplink_two_flows_complete_with_fair_timing():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("S", 8_000_000, None)     # 1 MB/s shared uplink
    bw.set_capacity("D1", None, 2_000_000)    # D1 downlink bottleneck
    narrow = bw.transfer("S", "D1", 1_000_000)
    wide = bw.transfer("S", "D2", 1_500_000)
    assert narrow.rate_bps == pytest.approx(2_000_000)
    assert wide.rate_bps == pytest.approx(6_000_000)
    sim.run()
    assert narrow.done.done() and wide.done.done()
    assert bw.completed == 2


def test_transfer_progress_and_duration_accounting():
    sim = Simulator()
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)  # 1 MB/s
    transfer = bw.transfer("A", "B", 2_000_000)
    sim.run(until=1.0)
    # Trigger a progress update by starting another flow at t = 1 s.
    bw.transfer("A", "C", 1)
    assert transfer.bytes_transferred() == pytest.approx(1_000_000, rel=0.01)
    assert transfer.duration_so_far(sim.now) == pytest.approx(1.0)
    assert transfer.duration_so_far(0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("kernel", KERNELS)
def test_bytes_transferred_accrues_between_rate_recomputes(kernel):
    """Regression: the settled byte count only moves when rates change.

    A flow cruising at a steady rate saw ``bytes_transferred()`` stuck at
    the value of the *last* recomputation — stale by up to a whole
    completion interval.  Passing ``now`` extrapolates along the current
    rate from the last settlement and clamps at the transfer size.
    """
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)  # 1 MB/s
    transfer = bw.transfer("A", "B", 2_000_000)
    sim.run(until=1.0)
    # No rate change since t = 0: the settled value is the stale zero ...
    assert transfer.bytes_transferred() == 0.0
    # ... while the time-aware form accrues along the allocated rate.
    assert transfer.bytes_transferred(sim.now) == pytest.approx(1_000_000)
    sim.run(until=1.5)
    assert transfer.bytes_transferred(sim.now) == pytest.approx(1_500_000)
    sim.run()
    assert transfer.done.result() == pytest.approx(2.0)
    assert transfer.bytes_transferred(sim.now) == transfer.total_bytes
    # Extrapolating past completion clamps instead of overshooting.
    assert transfer.bytes_transferred(sim.now + 60.0) == transfer.total_bytes


@pytest.mark.parametrize("kernel", KERNELS)
def test_cancellation_from_completion_callback_mid_recompute(kernel):
    """A completion callback cancelling another flow re-enters _reallocate.

    The outer recomputation's partition pass has already run when the
    future's callbacks fire; the nested cancel must not corrupt the flow
    table, double-count, or strand the bystander flow.
    """
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    short = bw.transfer("A", "B", 500_000)
    victim = bw.transfer("A", "C", 4_000_000)
    bystander = bw.transfer("A", "D", 4_000_000)
    short.done.add_done_callback(lambda fut: bw.cancel_transfer(victim))
    sim.run()
    assert short.done.done() and not short.done.cancelled()
    assert victim.done.cancelled()
    assert bystander.done.done() and not bystander.done.cancelled()
    assert bw.completed == 2 and bw.preemptions == 1
    assert bw.active_transfers == 0
    assert not bw._flows_on_link  # nested removal left no stale adjacency
    assert bw.bytes_completed == short.total_bytes + bystander.total_bytes


@pytest.mark.parametrize("kernel", KERNELS)
def test_zero_byte_transfer_completes_immediately(kernel):
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    empty = bw.transfer("A", "B", 0)
    assert empty.done.done() and empty.done.result() == sim.now
    assert bw.completed == 1
    assert bw.active_transfers == 0  # never entered the allocation set
    assert empty.bytes_transferred() == 0.0
    assert empty.bytes_transferred(5.0) == 0.0  # nothing to extrapolate
    # A zero-byte transfer must not disturb concurrent flows' rates.
    flow = bw.transfer("A", "C", 1_000_000)
    bw.transfer("A", "D", 0)
    assert flow.rate_bps == pytest.approx(8_000_000)
    sim.run()
    assert bw.completed == 3


@pytest.mark.parametrize("kernel", KERNELS)
def test_simultaneous_completions_resolve_in_one_deterministic_tick(kernel):
    """Two identical flows finish at the same instant on the wheel and heap.

    One completion tick must retire both (bit-equal finish times, no
    zero-length follow-up interval), and the tie-break — partition order =
    start order — is the same under the wheel and the heap.
    """
    sim = make_simulator(kernel)
    bw = BandwidthModel(sim)
    bw.set_capacity("A", 8_000_000, None)
    first = bw.transfer("A", "B", 1_000_000)
    second = bw.transfer("A", "C", 1_000_000)
    sim.run()
    assert first.done.result() == second.done.result()  # exact, not approx
    assert first.done.result() == pytest.approx(2.0)
    assert bw.completed == 2 and bw.active_transfers == 0
    assert not bw._flows_on_link
