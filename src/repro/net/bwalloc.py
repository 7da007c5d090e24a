"""Pluggable bandwidth allocators with traffic priority classes.

The flow-level :class:`~repro.net.bandwidth.BandwidthModel` used to
hard-wire one global max-min recompute on every transfer start/finish.  This
module extracts the *allocation strategy* behind a small interface (the
shape of psim's ``BandwidthAllocator`` hierarchy): given the live transfer
list and the per-host access-link capacities, an allocator returns one rate
per transfer.  Four strategies are registered:

``max-min``
    Progressive-filling max-min fairness over access links — the historical
    semantics, byte-identical to the pre-refactor model (digest-pinned).
``fair-share``
    Equal split per bottleneck link: every flow gets ``capacity / flows``
    on each of its links and runs at the narrower of the two.  Simpler and
    cheaper than max-min, but leftover capacity is *not* redistributed.
``fixed-priority``
    Strict priority classes: CONTROL flows are allocated max-min first,
    LOOKUP flows share what remains, BULK flows get the leftovers.  A
    saturated higher class starves lower classes entirely (and releases
    them the moment it drains) — the "latency-critical requests must win"
    discipline.
``priority-queue``
    Weighted max-min: classes share every contended link in proportion to
    :data:`CLASS_WEIGHTS` instead of starving each other.

Every transfer carries a **priority class** (:data:`CONTROL` >
:data:`LOOKUP` > :data:`BULK`, lower value = more important): control-plane
RPC traffic rides CONTROL, application protocol messages ride LOOKUP, and
bulk dissemination transfers ride BULK.  Priority-blind allocators simply
ignore the class.

All four strategies are *per-component decomposable*: a flow's rate depends
only on the flows it (transitively) shares an access link with.  The model
exploits that for incremental recomputation — see
:meth:`~repro.net.bandwidth.BandwidthModel._reallocate`.  Allocators must
keep that property (no global normalisation terms), or incremental and
global recomputes would diverge; the differential harness in
``tests/test_bwalloc.py`` replays every registered allocator against the
shared invariants and catches violations.

Adding an allocator: subclass :class:`BandwidthAllocator`, set ``name``,
implement :meth:`~BandwidthAllocator.allocate`, decorate with
:func:`register_allocator`.  The CLI flag choices, the bench column and the
differential test harness all enumerate the registry.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

#: priority classes, lower value = more important.  CONTROL is the
#: control-plane RPC class, LOOKUP the application protocol-message class,
#: BULK the flow-level data class (dissemination chunks, cache objects).
CONTROL = 0
LOOKUP = 1
BULK = 2

#: class value -> report/metrics label, in priority order
PRIORITY_NAMES: Dict[int, str] = {CONTROL: "control", LOOKUP: "lookup",
                                  BULK: "bulk"}

#: per-class weights of the ``priority-queue`` allocator: a contended link
#: is shared 4:2:1 between CONTROL, LOOKUP and BULK flows
CLASS_WEIGHTS: Dict[int, float] = {CONTROL: 4.0, LOOKUP: 2.0, BULK: 1.0}

#: link key: ("up", src_ip) or ("down", dst_ip)
Link = Tuple[str, str]


class UnknownAllocatorError(KeyError):
    """Raised when looking up an allocator name nobody registered."""


class BandwidthAllocator:
    """Base class: rate assignment over per-host uplink/downlink capacities.

    The allocator is stateless between calls; everything it needs is the
    transfer list (objects exposing ``src_ip``/``dst_ip``/``priority``) and
    the owning model's :meth:`capacity` lookup.  ``allocate`` must return
    one rate (bits/second) per transfer, in input order, and must never
    oversubscribe a link — the sanitizer's flow-conservation check and the
    differential harness both assert that for every registered strategy.
    """

    #: registry key, CLI flag value and bench-CSV cell
    name: str = ""

    def __init__(self, model) -> None:
        self.model = model

    def allocate(self, transfers: List) -> List[float]:
        raise NotImplementedError

    # ------------------------------------------------------------- helpers
    def link_tables(self, transfers: List) -> Tuple[
            Dict[Link, float], Dict[Link, List[int]], List[Tuple[Link, Link]]]:
        """Shared link bookkeeping: capacities, flows per link, links per flow.

        Insertion order of the ``links`` dict follows transfer enumeration
        order — the deterministic tie-break every strategy inherits.
        """
        capacity = self.model.capacity
        links: Dict[Link, float] = {}
        flows_on_link: Dict[Link, List[int]] = {}
        flow_links: List[Tuple[Link, Link]] = []
        for index, transfer in enumerate(transfers):
            up_link = ("up", transfer.src_ip)
            down_link = ("down", transfer.dst_ip)
            up, _ = capacity(transfer.src_ip)
            _, down = capacity(transfer.dst_ip)
            links.setdefault(up_link, up)
            links.setdefault(down_link, down)
            flows_on_link.setdefault(up_link, []).append(index)
            flows_on_link.setdefault(down_link, []).append(index)
            flow_links.append((up_link, down_link))
        return links, flows_on_link, flow_links


_ALLOCATORS: Dict[str, type] = {}


def register_allocator(cls: type) -> type:
    """Class decorator: add an allocator to the registry (name must be new)."""
    name = cls.name
    if not name:
        raise ValueError(f"allocator {cls.__name__} has no name")
    existing = _ALLOCATORS.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"allocator {name!r} is already registered")
    _ALLOCATORS[name] = cls
    return cls


def allocator_names() -> List[str]:
    """Registered names, in registration order (``max-min`` first)."""
    return list(_ALLOCATORS)


def make_allocator(name: str, model) -> BandwidthAllocator:
    try:
        cls = _ALLOCATORS[name]
    except KeyError:
        known = ", ".join(_ALLOCATORS)
        raise UnknownAllocatorError(
            f"unknown bandwidth allocator {name!r} (known: {known})") from None
    return cls(model)


def _progressive_fill(links: Dict[Link, float],
                      flows_on_link: Dict[Link, List[int]],
                      flow_links: List[Tuple[Link, Link]],
                      rates: List[float], eligible: List[int],
                      weights: List[float]) -> None:
    """Weighted progressive filling over ``eligible`` flow indices, in place.

    ``links`` holds each link's *remaining* capacity and is consumed (so a
    caller can fill one priority class, then the next against the residue).
    Each round saturates the link offering the smallest per-weight share to
    its unallocated flows; those flows are pinned at ``weight * share`` and
    their demand leaves every link they cross.  With unit weights this is
    classic max-min fairness — the loop below is the historical
    ``_max_min_fair_rates`` body with a weight column threaded through.
    """
    allocated = [False] * len(rates)
    pending_weight: Dict[Link, float] = {}
    for link, flows in flows_on_link.items():
        pending_weight[link] = sum(weights[f] for f in flows)
    n_unallocated = len(eligible)
    while n_unallocated:
        best_link = None
        best_share = math.inf
        for link, capacity in links.items():
            weight = pending_weight[link]
            if weight <= 0.0:
                continue
            share = capacity / weight
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        for flow in flows_on_link[best_link]:
            if allocated[flow]:
                continue
            rate = best_share * weights[flow]
            rates[flow] = rate
            allocated[flow] = True
            n_unallocated -= 1
            for link in flow_links[flow]:
                links[link] = max(0.0, links[link] - rate)
                pending_weight[link] -= weights[flow]


@register_allocator
class MaxMinAllocator(BandwidthAllocator):
    """Classic progressive-filling max-min fairness (the historical model).

    Priority-blind: every flow weighs the same.  Byte-identical to the
    pre-refactor ``BandwidthModel._max_min_fair_rates`` — the churning-chord
    digest-parity test pins that equivalence (tests/test_bwalloc.py).
    """

    name = "max-min"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        rates = [0.0] * len(transfers)
        _progressive_fill(links, flows_on_link, flow_links, rates,
                          list(range(len(transfers))),
                          [1.0] * len(transfers))
        return rates


@register_allocator
class FairShareAllocator(BandwidthAllocator):
    """Equal split per bottleneck link, no leftover redistribution.

    A flow crossing links ``l1, l2`` runs at ``min(cap(l) / flows(l))`` —
    one pass, no rounds.  Never oversubscribes (each link hands out at most
    ``flows * cap / flows``), but a flow bottlenecked elsewhere strands its
    unused share, so total utilisation trails max-min under asymmetric load.
    """

    name = "fair-share"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        share: Dict[Link, float] = {
            link: capacity / len(flows_on_link[link])
            for link, capacity in links.items()}
        return [min(share[up], share[down]) for up, down in flow_links]


@register_allocator
class FixedPriorityAllocator(BandwidthAllocator):
    """Strict priority classes: higher classes starve lower ones.

    Classes fill in priority order (CONTROL, then LOOKUP, then BULK), each
    running max-min against whatever capacity the classes above left on
    every link.  A link saturated by CONTROL traffic hands LOOKUP and BULK
    flows a rate of exactly 0 until it drains — starvation is the contract,
    and the property tests assert both the starving and the resumption.
    """

    name = "fixed-priority"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        rates = [0.0] * len(transfers)
        weights = [1.0] * len(transfers)
        by_class: Dict[int, List[int]] = {}
        for index, transfer in enumerate(transfers):
            by_class.setdefault(transfer.priority, []).append(index)
        for priority in sorted(by_class):
            eligible = by_class[priority]
            eligible_set = set(eligible)  # membership only, never iterated
            class_flows: Dict[Link, List[int]] = {}
            for link, flows in flows_on_link.items():
                mine = [f for f in flows if f in eligible_set]
                if mine:
                    class_flows[link] = mine
            class_links = {link: links[link] for link in class_flows}
            _progressive_fill(class_links, class_flows, flow_links, rates,
                              eligible, weights)
            # What this class consumed leaves the shared residue.
            for link in class_links:
                links[link] = class_links[link]
        return rates


@register_allocator
class PriorityQueueAllocator(BandwidthAllocator):
    """Weighted max-min: classes share contended links by fixed weights.

    One progressive fill where a flow's share of a saturating link is
    proportional to its class weight (:data:`CLASS_WEIGHTS`, 4:2:1).  Unlike
    ``fixed-priority`` nothing starves — BULK keeps 1/7 of a link three
    classes fight over — and like max-min, capacity a weighted flow cannot
    use flows back to the others.
    """

    name = "priority-queue"

    def allocate(self, transfers: List) -> List[float]:
        links, flows_on_link, flow_links = self.link_tables(transfers)
        rates = [0.0] * len(transfers)
        weights = [CLASS_WEIGHTS.get(t.priority, 1.0) for t in transfers]
        _progressive_fill(links, flows_on_link, flow_links, rates,
                          list(range(len(transfers))), weights)
        return rates
