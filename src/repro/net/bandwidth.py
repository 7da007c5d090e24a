"""Flow-level bandwidth model (pluggable fair sharing of access links).

Bulk data transfers (BitTorrent pieces, tree-dissemination blocks, web cache
objects) are simulated at flow level: every host has an uplink and a downlink
capacity, and the rates of all concurrent transfers are computed by a
pluggable :mod:`~repro.net.bwalloc` allocator (max-min fairness by default)
over those access links.  Rates are recomputed whenever a transfer starts,
completes or is cancelled, which is exact for this link model.

Recomputation is **incremental** by default: a flow arriving or leaving can
only change the rates of flows it (transitively) shares an access link with,
so :meth:`BandwidthModel._reallocate` walks the connected component of the
flow/link graph around the changed flows and re-allocates just that
component.  Every registered allocator is per-component decomposable (no
global normalisation terms), which makes the incremental rates *bit-identical*
to a full recompute — the oracle test in ``tests/test_bwalloc.py`` replays
hundreds of random steps asserting exactly that, and ``--bw-global`` forces
the brute-force path at runtime.  At dissemination scale (thousands of
mostly-disjoint swarming flows) the component walk is what keeps the
allocation step off the profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net import bwalloc
from repro.net.bwalloc import BULK, BandwidthAllocator, make_allocator
from repro.sim.futures import Future
from repro.sim.kernel import ScheduledEvent, Simulator

#: capacity used for hosts without an explicit limit (effectively unlimited)
UNLIMITED_BPS = 1e15


class Transfer:
    """One in-flight bulk transfer."""

    __slots__ = ("transfer_id", "src_ip", "dst_ip", "total_bytes", "remaining_bytes",
                 "rate_bps", "started_at", "accrued_at", "priority", "done",
                 "cancelled")

    def __init__(self, src_ip: str, dst_ip: str, nbytes: float, started_at: float,
                 transfer_id: int = 0, priority: int = BULK):
        self.transfer_id = transfer_id
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.total_bytes = float(nbytes)
        self.remaining_bytes = float(nbytes)
        self.rate_bps = 0.0
        self.started_at = started_at
        #: virtual time up to which ``remaining_bytes`` is accurate; progress
        #: between rate recomputations is extrapolated from here
        self.accrued_at = started_at
        #: bwalloc priority class (CONTROL/LOOKUP/BULK)
        self.priority = priority
        #: completes with the finish time (seconds) once all bytes are delivered.
        #: Unnamed on purpose: formatting a label per transfer was measurable
        #: on dissemination workloads, and repr() can rebuild it on demand.
        self.done: Future = Future()
        self.cancelled = False

    def bytes_transferred(self, now: Optional[float] = None) -> float:
        """Bytes delivered so far.

        ``remaining_bytes`` is only settled when rates change, so between
        recomputations the accrued figure goes stale.  Passing ``now``
        extrapolates along the current rate from the last settlement
        (clamped to the transfer size); omitting it returns the settled
        value as of the last rate recomputation.
        """
        accrued = self.total_bytes - self.remaining_bytes
        if now is None:
            return accrued
        in_flight = self.rate_bps * max(0.0, now - self.accrued_at) / 8.0
        return min(self.total_bytes, accrued + in_flight)

    def duration_so_far(self, now: float) -> float:
        """Elapsed time since the transfer started, in seconds."""
        return max(0.0, now - self.started_at)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Transfer #{self.transfer_id} {self.src_ip}->{self.dst_ip} "
                f"{self.remaining_bytes:.0f}/{self.total_bytes:.0f}B @{self.rate_bps:.0f}bps>")


#: a transfer's two access links, in the fixed enumeration order every
#: allocator and the component walk share
def _links_of(transfer: Transfer) -> Tuple[Tuple[str, str], Tuple[str, str]]:
    return ("up", transfer.src_ip), ("down", transfer.dst_ip)


class BandwidthModel:
    """Fair sharing of per-host uplink/downlink capacities.

    The allocation strategy is pluggable (:meth:`configure`); the default is
    the historical progressive-filling max-min fairness with incremental
    connected-component recomputation.
    """

    def __init__(self, sim: Simulator, default_uplink_bps: Optional[float] = None,
                 default_downlink_bps: Optional[float] = None):
        self.sim = sim
        self.default_uplink_bps = default_uplink_bps or UNLIMITED_BPS
        self.default_downlink_bps = default_downlink_bps or UNLIMITED_BPS
        self._capacities: Dict[str, Tuple[float, float]] = {}
        self._active: List[Transfer] = []
        #: live transfers per access link (dict-as-ordered-set), the adjacency
        #: the incremental component walk traverses.  Kept in lockstep with
        #: ``_active`` by the add/remove paths; the sanitizer cross-checks it.
        self._flows_on_link: Dict[Tuple[str, str], Dict[Transfer, None]] = {}
        self._last_update = 0.0
        self._completion_event: Optional[ScheduledEvent] = None
        # Per-model ids keep co-hosted seeded simulations reproducible (a
        # process-wide counter would interleave them).
        self._transfer_ids = 0
        self._allocator: BandwidthAllocator = make_allocator("max-min", self)
        self._incremental = True
        #: completed transfer count (for stats/tests)
        self.completed = 0
        #: bytes fully delivered by completed transfers (metrics section)
        self.bytes_completed = 0.0
        #: transfers aborted mid-flight — explicit cancel or host failure
        self.preemptions = 0
        #: per-priority-class splits of the two counters above
        self.bytes_completed_by_class: Dict[int, float] = {}
        self.preemptions_by_class: Dict[int, int] = {}
        #: allocation-step accounting: recomputations run, and how many flows
        #: each handed to the allocator (global recompute counts every live
        #: flow; incremental counts only the touched component)
        self.reallocations = 0
        self.flows_allocated = 0
        #: runtime sanitizer (repro.sim.sanitizer) or None
        self._san: Optional[object] = None

    # ---------------------------------------------------------- configuration
    def configure(self, allocator: Optional[str] = None,
                  incremental: Optional[bool] = None) -> None:
        """Select the allocation strategy and/or the recomputation mode.

        Safe mid-run: switching with live flows triggers one full recompute
        so every rate reflects the new policy.
        """
        if allocator is not None:
            self._allocator = make_allocator(allocator, self)
        if incremental is not None:
            self._incremental = incremental
        if self._active:
            self._advance_progress()
            self._reallocate()

    @property
    def allocator_name(self) -> str:
        return self._allocator.name

    # ------------------------------------------------------------- capacities
    def set_capacity(self, ip: str, uplink_bps: Optional[float], downlink_bps: Optional[float]) -> None:
        """Set the access-link capacities of host ``ip`` (``None`` = unlimited)."""
        up = uplink_bps if uplink_bps and uplink_bps > 0 else UNLIMITED_BPS
        down = downlink_bps if downlink_bps and downlink_bps > 0 else UNLIMITED_BPS
        self._capacities[ip] = (up, down)

    def capacity(self, ip: str) -> Tuple[float, float]:
        return self._capacities.get(ip, (self.default_uplink_bps, self.default_downlink_bps))

    # --------------------------------------------------------------- transfers
    def transfer(self, src_ip: str, dst_ip: str, nbytes: float,
                 priority: int = BULK) -> Transfer:
        """Start a bulk transfer of ``nbytes`` bytes; returns its :class:`Transfer`."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        self._transfer_ids += 1
        transfer = Transfer(src_ip, dst_ip, nbytes, self.sim.now,
                            transfer_id=self._transfer_ids, priority=priority)
        if nbytes == 0:
            transfer.done.set_result(self.sim.now)
            self.completed += 1
            return transfer
        self._advance_progress()
        self._active.append(transfer)
        for link in _links_of(transfer):
            self._flows_on_link.setdefault(link, {})[transfer] = None
        self._reallocate(changed=(transfer,))
        return transfer

    def cancel_transfer(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer (its future is cancelled).

        The transfer is only marked here; the next :meth:`_reallocate` drops
        all cancelled entries in one partition pass instead of an O(n)
        ``list.remove`` per victim.
        """
        if transfer.done.done():
            return
        self._advance_progress()
        transfer.cancelled = True
        transfer.done.cancel()
        self.preemptions += 1
        self.preemptions_by_class[transfer.priority] = (
            self.preemptions_by_class.get(transfer.priority, 0) + 1)
        self._reallocate()

    def cancel_host(self, ip: str) -> int:
        """Abort every transfer with ``ip`` as source or destination (host failure).

        Single pass: victims are marked and their futures cancelled, then one
        rate recomputation covers them all (the old per-victim
        ``cancel_transfer`` loop recomputed rates O(victims) times).
        """
        victims = [t for t in self._active
                   if not t.cancelled and (t.src_ip == ip or t.dst_ip == ip)]
        if not victims:
            return 0
        self._advance_progress()
        for transfer in victims:
            transfer.cancelled = True
            transfer.done.cancel()
            self.preemptions_by_class[transfer.priority] = (
                self.preemptions_by_class.get(transfer.priority, 0) + 1)
        self.preemptions += len(victims)
        self._reallocate()
        return len(victims)

    @property
    def active_transfers(self) -> int:
        return len(self._active)

    # --------------------------------------------------------------- internals
    def _advance_progress(self) -> None:
        """Account for the bytes sent since the last rate change."""
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for transfer in self._active:
                transfer.remaining_bytes -= transfer.rate_bps * elapsed / 8.0
                if transfer.remaining_bytes < 1e-6:
                    transfer.remaining_bytes = 0.0
                transfer.accrued_at = now
        self._last_update = now

    def _component(self, seeds: List[Transfer]) -> List[Transfer]:
        """Live transfers transitively sharing an access link with ``seeds``.

        Walks the flow/link bipartite graph from the seeds' links and returns
        the members sorted by ``transfer_id`` — the relative order they hold
        in ``_active``, so the allocator sees the same enumeration (and hence
        the same link insertion order and tie-breaks) a full recompute would.
        """
        flows_on_link = self._flows_on_link
        seen_links: Dict[Tuple[str, str], None] = {}
        frontier: List[Tuple[str, str]] = []
        for transfer in seeds:
            for link in _links_of(transfer):
                if link not in seen_links:
                    seen_links[link] = None
                    frontier.append(link)
        members: Dict[Transfer, None] = {}
        while frontier:
            link = frontier.pop()
            for transfer in flows_on_link.get(link, ()):
                if transfer in members:
                    continue
                members[transfer] = None
                for other in _links_of(transfer):
                    if other not in seen_links:
                        seen_links[other] = None
                        frontier.append(other)
        return sorted(members, key=lambda t: t.transfer_id)

    def _allocate_rates(self, transfers: List[Transfer]) -> List[float]:
        """Allocator seam (tests monkeypatch this to inject rate schedules)."""
        return self._allocator.allocate(transfers)

    def _reallocate(self, changed: Tuple[Transfer, ...] = ()) -> None:
        """Recompute rates and schedule the next completion.

        ``changed`` lists transfers just *added*; transfers leaving (finished
        or cancelled) are discovered by the partition pass below.  Together
        they seed the incremental component walk: only flows sharing a
        bottleneck link (transitively) with a changed flow can see their rate
        move, so only that component is re-allocated.  With no seeds at all —
        an external call, or ``--bw-global`` — every live flow is.
        """
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None

        # One partition pass: drop cancelled entries, complete transfers with
        # no bytes left, keep the rest (order preserved for determinism).
        now = self.sim.now
        live: List[Transfer] = []
        finished: List[Transfer] = []
        removed: List[Transfer] = []
        for transfer in self._active:
            if transfer.cancelled:
                removed.append(transfer)
                continue
            if transfer.remaining_bytes <= 0.0:
                finished.append(transfer)
                removed.append(transfer)
            else:
                live.append(transfer)
        self._active = live
        flows_on_link = self._flows_on_link
        for transfer in removed:
            for link in _links_of(transfer):
                flows = flows_on_link.get(link)
                if flows is not None:
                    flows.pop(transfer, None)
                    if not flows:
                        del flows_on_link[link]
        for transfer in finished:
            transfer.done.set_result(now)
            self.completed += 1
            self.bytes_completed += transfer.total_bytes
            self.bytes_completed_by_class[transfer.priority] = (
                self.bytes_completed_by_class.get(transfer.priority, 0.0)
                + transfer.total_bytes)

        if not self._active:
            return

        seeds = [t for t in changed if not t.done.done()] + removed
        if self._incremental and seeds:
            targets = self._component(seeds)
        else:
            targets = self._active
        if targets:
            rates = self._allocate_rates(targets)
            for transfer, rate in zip(targets, rates):
                transfer.rate_bps = rate
        self.reallocations += 1
        self.flows_allocated += len(targets)
        if self._san is not None:
            self._san.check_flow_conservation(self)
            self._san.check_flow_table(self)

        # Progressive filling can legitimately leave a flow at rate 0 (e.g. a
        # shared uplink exhausted by a downlink-bottlenecked flow, float dust
        # zeroing a link's remaining capacity, or a strict-priority class
        # starved outright).  Zero-rate flows make no progress, so they must
        # not drive the completion tick — and if every flow is stalled there
        # is nothing to schedule: the next call to _reallocate (a transfer
        # starting, completing or being cancelled frees capacity) re-ticks
        # them.
        finish_times = [t.remaining_bytes * 8.0 / t.rate_bps
                        for t in self._active if t.rate_bps > 0]
        if not finish_times:
            return
        next_finish = max(min(finish_times), 0.0)
        self._completion_event = self.sim.schedule(next_finish, self._on_completion_tick)

    def _on_completion_tick(self) -> None:
        self._completion_event = None
        self._advance_progress()
        self._reallocate()

    def class_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-priority-class completed bytes and preemptions (for metrics)."""
        stats: Dict[str, Dict[str, float]] = {}
        for value, name in bwalloc.PRIORITY_NAMES.items():
            bytes_done = self.bytes_completed_by_class.get(value, 0.0)
            preempted = self.preemptions_by_class.get(value, 0)
            if bytes_done or preempted:
                stats[name] = {"bytes_completed": bytes_done,
                               "preemptions": preempted}
        return stats
