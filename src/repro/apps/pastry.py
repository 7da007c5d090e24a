"""Pastry on the SPLAY runtime (prefix routing, leaf sets, churn repair).

The paper's evaluation deploys Pastry alongside Chord on the same testbed;
this module is the Pastry half: identifiers are strings of ``2**base_bits``
digits, each node keeps a routing table indexed by shared-prefix length and
next digit (``shared_prefix_length`` / ``digit_at`` from ``lib/ring``) plus
a *leaf set* of its numerically closest neighbours on each side of the ring.

Routing forwards to a node whose identifier shares a strictly longer prefix
with the key, falling back to a numerically closer node with an equal
prefix (the "rare case"), and terminates at the numerically closest member
once the key lands inside a leaf set.  Like the Chord implementation,
lookups are *iterative*: the querying node walks the overlay one ``step``
RPC at a time and routes around nodes that die mid-lookup, and ownership is
confirmed with a ``claim`` check so recent joins don't yield stale owners.

Fault tolerance under churn comes from periodic leaf-set repair (exchange
leaf sets with the nearest live neighbour on each side) and routing-table
probing, mirroring Pastry's self-stabilisation.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.apps.membership import Membership
from repro.lib.ring import (
    between,
    digit_at,
    hash_key,
    numeric_distance,
    ring_distance,
    shared_prefix_length,
)
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef
from repro.sim.rng import substream

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.splayd import Instance


#: default leaf-set capacity (total, half per side) — also reported by the
#: scenario, so keep the node constructor and this constant in sync
DEFAULT_LEAF_SET_SIZE = 8


class RouteFailed(Exception):
    """A lookup exhausted its hop budget or every route attempt failed."""


@dataclass
class PastryStats:
    """Per-node counters (aggregated by the scenario report)."""

    lookups_started: int = 0
    lookups_completed: int = 0
    lookups_failed: int = 0
    hops_total: int = 0
    join_attempts: int = 0
    repair_rounds: int = 0
    dead_nodes_noticed: int = 0


class PastryNode:
    """One Pastry node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides): ``bits`` —
    identifier width; ``base_bits`` — bits per routing digit (``b``; base is
    ``2**b``); ``leaf_set_size`` — total leaf-set capacity (half per side);
    ``repair_interval`` / ``table_probe_interval`` — maintenance periods;
    ``hop_timeout`` / ``hop_retries`` — per-hop RPC settings; ``join_window``
    — joins are staggered uniformly over this many seconds.
    """

    def __init__(self, instance: "Instance", **overrides):
        options = {**instance.options, **overrides}
        self.instance = instance
        self.events = instance.events
        self.rpc = instance.rpc
        self.log = instance.logger
        self.bits: int = int(options.get("bits", 32))
        self.base_bits: int = int(options.get("base_bits", 4))
        if self.bits % self.base_bits:
            raise ValueError(
                f"bits ({self.bits}) must be a multiple of base_bits ({self.base_bits})")
        self.digits: int = self.bits // self.base_bits
        self.leaf_set_size: int = int(options.get("leaf_set_size", DEFAULT_LEAF_SET_SIZE))
        self.leaf_half: int = max(1, self.leaf_set_size // 2)
        self.repair_interval: float = float(options.get("repair_interval", 5.0))
        self.table_probe_interval: float = float(options.get("table_probe_interval", 8.0))
        self.hop_timeout: float = float(options.get("hop_timeout", 1.5))
        self.hop_retries: int = int(options.get("hop_retries", 1))
        self.join_window: float = float(options.get("join_window", 30.0))
        self.max_hops: int = int(options.get("max_hops", 3 * self.digits + 8))

        self.me = instance.me.with_id(
            hash_key(f"{instance.me.ip}:{instance.me.port}", self.bits))
        #: the leaf set, keyed by endpoint: always exactly the union of the
        #: two halves below (a small ring puts a node in both)
        self.leaves: Dict[Tuple[str, int], NodeRef] = {}
        #: the closest ``leaf_half`` leaves clockwise / counter-clockwise,
        #: nearest first (ordered by ``_cw_key`` / ``_ccw_key``)
        self._cw_half: List[NodeRef] = []
        self._ccw_half: List[NodeRef] = []
        #: ``leaves`` ordered by endpoint (None until read after a change)
        self._leaf_view: Optional[List[NodeRef]] = None
        #: routing table: ``table[row][column]`` — row = shared prefix
        #: length, column = next digit of the destination
        self.table: List[List[Optional[NodeRef]]] = [
            [None] * (1 << self.base_bits) for _ in range(self.digits)]
        #: endpoint -> bitmask of the table rows holding it (a small int
        #: per entry, so the index costs little memory)
        self._table_rows: Dict[NodeRef, int] = {}
        #: leaves and table entries ordered by endpoint (None when stale)
        self._known: Optional[List[NodeRef]] = None
        self.joined = False
        self.stats = PastryStats()
        self._rng = substream(self.events.sim.seed, "pastry",
                              instance.job.job_id, instance.instance_id)

        rpc = self.rpc
        rpc.register("step", self._rpc_step)
        rpc.register("claim", self._rpc_claim)
        rpc.register("find_owner", self._rpc_find_owner)
        rpc.register("leafset", self._rpc_leafset)
        rpc.register("table_dump", self._rpc_table_dump)
        rpc.register("notify", self._rpc_notify)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Create the overlay (first node of the job) or schedule a join."""
        self.members = Membership.of(self.instance.job, "pastry")
        if not self.instance.job.shared.get("pastry_created"):
            self.instance.job.shared["pastry_created"] = True
            self._become_member()
        else:
            delay = self._rng.uniform(0.0, self.join_window) if self.join_window > 0 else 0.0
            self.events.thread(self._join_main, name=f"{self.instance.context.name}.join",
                               delay=delay)
        self.instance.context.add_cleanup(lambda: self.members.remove(self.me))

    def _become_member(self) -> None:
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._leafset_repair, self.repair_interval,
                             jitter=self.repair_interval * 0.25)
        self.events.periodic(self._table_maintenance, self.table_probe_interval,
                             jitter=self.table_probe_interval * 0.25)
        self.log.info(f"node {self.me} up (id={self.me.id:0{self.digits}x})")

    def _join_main(self) -> Generator:
        """Join: route to our own id, adopt the owner's leaf set and tables."""
        for attempt in range(1, 16):
            self.stats.join_attempts += 1
            bootstrap = self._pick_bootstrap()
            if bootstrap is None:
                yield 2.0
                continue
            try:
                owner = yield self.rpc.call(bootstrap, "find_owner", self.me.id,
                                            timeout=self.hop_timeout * 8, retries=1)
                owner = NodeRef.coerce(owner)
                leafset = yield self.rpc.call(owner, "leafset",
                                              timeout=self.hop_timeout, retries=1)
            except RpcError as exc:
                self.log.debug(f"join attempt {attempt} via {bootstrap} failed: {exc}")
                yield 1.0 + self._rng.uniform(0.0, 1.0)
                continue
            self._learned(bootstrap)
            self._learned(owner)
            for entry in leafset:
                self._learned(NodeRef.coerce(entry))
            # Seed the routing table: rows from the bootstrap (long prefixes
            # are unlikely there, but early rows are) and from the owner
            # (whose table is close to what ours should be).
            for source in ([bootstrap, owner] if bootstrap != owner else [bootstrap]):
                try:
                    dump = yield self.rpc.call(source, "table_dump",
                                               timeout=self.hop_timeout, retries=0)
                except RpcError:
                    continue
                for entry in dump:
                    self._learned(NodeRef.coerce(entry))
            self._become_member()
            for leaf in self._leaf_nodes():
                self.rpc.a_call(leaf, "notify", self.me,
                                timeout=self.hop_timeout, retries=0)
            return
        self.log.error(f"node {self.me} could not join, giving up")
        self.events.exit()

    def _pick_bootstrap(self) -> Optional[NodeRef]:
        return self.members.pick_other(self._rng, self.me)

    # ------------------------------------------------------------ RPC handlers
    def _rpc_step(self, key: int, avoid: Optional[list] = None) -> dict:
        """One hop of an iterative lookup: done with the owner, or forward."""
        key = int(key) % (1 << self.bits)
        avoided = set(avoid or ())
        if self._leaf_covers(key):
            candidates = [n for n in self.leaves.values() if n.id not in avoided]
            candidates.append(self.me)
            best = min(candidates, key=self._closeness_key(key))
            return {"done": True, "node": best}
        row = shared_prefix_length(key, self.me.id, self.digits, self.base_bits)
        entry = self.table[row][digit_at(key, row, self.digits, self.base_bits)]
        if entry is not None and entry.id not in avoided and entry != self.me:
            return {"done": False, "node": entry}
        # Rare case: any known node with an equal-or-longer shared prefix
        # that is strictly numerically closer to the key than we are.
        fallback = self._rare_case(key, row, avoided)
        if fallback is not None:
            return {"done": False, "node": fallback}
        return {"done": True, "node": self.me}

    def _rpc_claim(self, key: int) -> dict:
        """Ownership check: are we the numerically closest among our leaves?

        A node that recently joined next to the key may be invisible to a
        stale router; its neighbours know it through leaf-set exchange, so
        asking the claimed owner to confirm (and bounce to the closer leaf
        otherwise) repairs stale-route errors.
        """
        key = int(key) % (1 << self.bits)
        best = min([*self.leaves.values(), self.me], key=self._closeness_key(key))
        if best == self.me:
            return {"mine": True}
        return {"mine": False, "node": best}

    def _rpc_find_owner(self, key: int) -> Generator:
        """Full lookup on behalf of a caller (used by joins)."""
        owner, _hops = yield from self.lookup(int(key))
        return owner

    def _rpc_leafset(self) -> List[NodeRef]:
        return self._leaf_nodes()

    def _rpc_table_dump(self) -> List[NodeRef]:
        return [entry for row in self.table for entry in row if entry is not None]

    def _rpc_notify(self, node) -> bool:
        self._learned(NodeRef.coerce(node))
        return True

    # ------------------------------------------------------------ maintenance
    def _leafset_repair(self) -> Generator:
        """Exchange leaf sets with the nearest live neighbour on each side."""
        self.stats.repair_rounds += 1
        cw, ccw = self._cw(), self._ccw()
        neighbours = []
        if cw:
            neighbours.append(cw[0])
        if ccw and (not cw or ccw[0] != cw[0]):
            neighbours.append(ccw[0])
        if not neighbours:
            yield from self._reseed()
            return
        for neighbour in neighbours:
            try:
                remote = yield self.rpc.call(neighbour, "leafset",
                                             timeout=self.hop_timeout,
                                             retries=self.hop_retries)
            except RpcError:
                self._note_dead(neighbour)
                continue
            for entry in remote:
                self._learned(NodeRef.coerce(entry))
            self.rpc.a_call(neighbour, "notify", self.me,
                            timeout=self.hop_timeout, retries=0)

    def _table_maintenance(self) -> Generator:
        """Probe one random routing-table entry; refresh one random row."""
        occupied = [(r, c) for r, row in enumerate(self.table)
                    for c, entry in enumerate(row) if entry is not None]
        if occupied:
            row, column = self._rng.choice(occupied)
            entry = self.table[row][column]
            if entry is not None:
                alive = yield self.rpc.ping(entry, timeout=self.hop_timeout)
                if not alive:
                    self._note_dead(entry)
        # Route towards a random key to (re)populate a table slot, the same
        # way Chord refreshes fingers.
        probe_key = self._rng.randrange(1 << self.bits)
        try:
            owner, _hops = yield from self.lookup(probe_key)
            self._learned(owner)
        except RouteFailed:
            pass

    def _reseed(self) -> Generator:
        """Every leaf died: fall back to the member list and re-anchor."""
        bootstrap = self._pick_bootstrap()
        if bootstrap is None:
            return
        try:
            owner = yield self.rpc.call(bootstrap, "find_owner", self.me.id,
                                        timeout=self.hop_timeout * 8, retries=1)
            owner = NodeRef.coerce(owner)
            self._learned(bootstrap)
            self._learned(owner)
            remote = yield self.rpc.call(owner, "leafset",
                                         timeout=self.hop_timeout, retries=0)
            for entry in remote:
                self._learned(NodeRef.coerce(entry))
        except RpcError:
            pass

    # ---------------------------------------------------------------- lookups
    def lookup(self, key: int) -> Generator:
        """Iteratively find the node owning ``key`` (numerically closest).

        Returns ``(owner, hops)``.  Dead hops are added to an ``avoid`` set
        and the walk restarts from the local node, so a lookup survives nodes
        failing underneath it as long as the overlay stays connected.
        """
        key = key % (1 << self.bits)
        self.stats.lookups_started += 1
        avoid: set = set()
        current = self.me
        hops = 0
        while hops < self.max_hops:
            if current == self.me:
                response = self._rpc_step(key, list(avoid))
            else:
                try:
                    response = yield self.rpc.call(current, "step", key, list(avoid),
                                                   timeout=self.hop_timeout,
                                                   retries=self.hop_retries)
                except RpcError:
                    avoid.add(current.id)
                    self._note_dead(current)
                    current = self.me
                    hops += 1
                    continue
            hops += 1
            node = NodeRef.coerce(response["node"])
            self._learned(node)
            if response["done"]:
                owner = node
                confirmed = None
                for _bounce in range(4):
                    if owner == self.me:
                        claim = self._rpc_claim(key)
                    else:
                        try:
                            claim = yield self.rpc.call(owner, "claim", key,
                                                        timeout=self.hop_timeout,
                                                        retries=self.hop_retries)
                        except RpcError:
                            avoid.add(owner.id)
                            self._note_dead(owner)
                            break  # restart the walk from the local node
                    hops += 1
                    if claim["mine"]:
                        confirmed = owner
                        break
                    candidate = NodeRef.coerce(claim["node"])
                    self._learned(candidate)
                    if candidate == owner or candidate.id in avoid:
                        confirmed = owner  # stale bounce; accept the claimer
                        break
                    owner = candidate
                else:
                    confirmed = owner  # bounce budget spent; best known owner
                if confirmed is not None:
                    self.stats.lookups_completed += 1
                    self.stats.hops_total += hops
                    return confirmed, hops
                current = self.me
                continue
            if node == current or (node == self.me and current != self.me):
                avoid.add(node.id)
                current = self.me
                continue
            current = node
        self.stats.lookups_failed += 1
        raise RouteFailed(f"lookup({key}) from {self.me} exceeded {self.max_hops} hops")

    # ----------------------------------------------------------------- helpers
    def _closeness_key(self, key: int):
        """Deterministic total order on 'numerically closest to ``key``'."""
        return lambda n: (numeric_distance(key, n.id, self.bits), n.id, n.ip, n.port)

    def _leaf_nodes(self) -> List[NodeRef]:
        view = self._leaf_view
        if view is None:
            view = self._leaf_view = sorted(self.leaves.values(),
                                            key=lambda n: (n.ip, n.port))
        return list(view)

    def _cw(self) -> List[NodeRef]:
        """Leaves ordered by clockwise distance from us (nearest first)."""
        return list(self._cw_half)

    def _ccw(self) -> List[NodeRef]:
        """Leaves ordered by counter-clockwise distance from us (nearest first)."""
        return list(self._ccw_half)

    def _cw_key(self, node: NodeRef) -> tuple:
        return (ring_distance(self.me.id, node.id, self.bits), node.ip, node.port)

    def _ccw_key(self, node: NodeRef) -> tuple:
        return (ring_distance(node.id, self.me.id, self.bits), node.ip, node.port)

    def _leaf_covers(self, key: int) -> bool:
        """True when ``key`` falls inside the span of our leaf set."""
        if len(self.leaves) < 2 * self.leaf_half:
            # The leaf set is not saturated, so it holds every member we
            # know of — ownership is decided by numeric closeness directly
            # (and alone on the ring we own everything).
            return True
        low = self._ccw_half[-1].id
        high = self._cw_half[-1].id
        return between(key, low, high, include_low=True, include_high=True)

    def _rare_case(self, key: int, row: int, avoided: set) -> Optional[NodeRef]:
        """Any known node with prefix >= ``row`` strictly closer to ``key``."""
        mine = numeric_distance(key, self.me.id, self.bits)
        closeness = self._closeness_key(key)
        best: Optional[NodeRef] = None
        best_key = None
        for node in self._known_nodes():
            if node.id in avoided or node == self.me:
                continue
            if shared_prefix_length(key, node.id, self.digits, self.base_bits) < row:
                continue
            candidate_key = closeness(node)
            if candidate_key[0] >= mine:
                continue
            if best is None or candidate_key < best_key:
                best, best_key = node, candidate_key
        return best

    def _known_nodes(self) -> List[NodeRef]:
        known = self._known
        if known is None:
            by_endpoint = {(n.ip, n.port): n for n in self.leaves.values()}
            for table_row in self.table:
                for entry in table_row:
                    if entry is not None:
                        by_endpoint.setdefault((entry.ip, entry.port), entry)
            known = self._known = [by_endpoint[k] for k in sorted(by_endpoint)]
        return known

    def _learned(self, node: NodeRef) -> None:
        """Fold a freshly observed node into the leaf set and routing table."""
        if node is None or node.id is None or node == self.me:
            return
        endpoint = (node.ip, node.port)
        held = self.leaves.get(endpoint)
        if held is None:
            self._offer_leaf(endpoint, node)
        elif held.id != node.id:
            self.leaves[endpoint] = node
            self._rebuild_leaves()
        row = shared_prefix_length(node.id, self.me.id, self.digits, self.base_bits)
        if row < self.digits:
            column = digit_at(node.id, row, self.digits, self.base_bits)
            if self.table[row][column] is None:
                self.table[row][column] = node
                self._table_rows[node] = self._table_rows.get(node, 0) | (1 << row)
                self._known = None

    def _offer_leaf(self, endpoint: Tuple[str, int], node: NodeRef) -> None:
        """Insert a new endpoint into each half it ranks in; drop what falls out."""
        cw_kept, cw_evicted = _offer(self._cw_half, node, self._cw_key, self.leaf_half)
        ccw_kept, ccw_evicted = _offer(self._ccw_half, node, self._ccw_key, self.leaf_half)
        if not (cw_kept or ccw_kept):
            return
        self.leaves[endpoint] = node
        for evicted in (cw_evicted, ccw_evicted):
            # An evicted leaf stays while the other half still holds it.
            if evicted is not None and evicted not in self._cw_half \
                    and evicted not in self._ccw_half:
                self.leaves.pop((evicted.ip, evicted.port), None)
        self._leaf_view = self._known = None

    def _rebuild_leaves(self) -> None:
        """Recompute both halves from ``leaves`` and drop what neither keeps."""
        self._cw_half = sorted(self.leaves.values(), key=self._cw_key)[: self.leaf_half]
        self._ccw_half = sorted(self.leaves.values(), key=self._ccw_key)[: self.leaf_half]
        keep = {(n.ip, n.port) for n in self._cw_half + self._ccw_half}
        if len(keep) < len(self.leaves):
            self.leaves = {k: v for k, v in self.leaves.items() if k in keep}
        self._leaf_view = self._known = None

    def _note_dead(self, node: NodeRef) -> None:
        """Purge a dead node from local routing state."""
        if node == self.me:
            return
        self.stats.dead_nodes_noticed += 1
        if self.leaves.pop((node.ip, node.port), None) is not None:
            self._rebuild_leaves()
        rows = self._table_rows.pop(node, 0)
        if not rows:
            return
        self._known = None
        for row, table_row in enumerate(self.table):
            if rows >> row & 1:
                for column, entry in enumerate(table_row):
                    if entry is not None and entry == node:
                        table_row[column] = None

    def routing_snapshot(self) -> dict:
        """Debug/report view of this node's routing state."""
        return {
            "me": self.me,
            "leaves": self._leaf_nodes(),
            "table_entries": sum(1 for row in self.table for e in row if e is not None),
            "joined": self.joined,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PastryNode {self.me} joined={self.joined}>"


def _offer(half: List[NodeRef], node: NodeRef, key, size: int
           ) -> Tuple[bool, Optional[NodeRef]]:
    """Bisect ``node`` into a leaf-set half sorted by ``key`` if it beats the
    farthest entry or the half is not full; return ``(kept, evicted)``."""
    if len(half) >= size and key(node) >= key(half[-1]):
        return False, None
    insort(half, node, key=key)
    if len(half) > size:
        return True, half.pop()
    return True, None


def pastry_factory(**options):
    """Build a :class:`JobSpec`-compatible application factory."""

    def _factory(instance: "Instance") -> PastryNode:
        node = PastryNode(instance, **options)
        node.start()
        return node

    return _factory


# ----------------------------------------------------------------- scenario
#: the Chord flagship script: same relative timeline for a fair comparison
from repro.apps.harness import FLAGSHIP_CHURN_SCRIPT as DEFAULT_CHURN_SCRIPT  # noqa: E402


def expected_owner(job, key: int, bits: int) -> Optional[NodeRef]:
    """Ground truth: the numerically closest current member to ``key``."""
    members = Membership.of(job, "pastry")
    if not members:
        return None
    return min(members, key=lambda m: (numeric_distance(key, m.id, bits),
                                       m.id, m.ip, m.port))


def run_pastry_scenario(nodes: int = 50, hosts: Optional[int] = None, seed: int = 0,
                        churn: bool = False, churn_script: Optional[str] = None,
                        lookups: int = 200, bits: int = 32, base_bits: int = 4,
                        join_window: Optional[float] = None,
                        settle: Optional[float] = None, spacing: float = 0.25,
                        probe_interval: float = 2.0,
                        duration: str = "full", ctl_shards: int = 1,
                        testbed: str = "transit-stub",
                        churn_trace: Optional[str] = None,
                        sanitize: bool = False, metrics: bool = False,
                        trace_out: Optional[str] = None, profile: bool = False,
                        log_level: str = "INFO",
                        bw_alloc: str = "max-min",
                        gc_policy: str = "tuned") -> dict:
    """Run Pastry under (optional) churn and return the report dict."""
    from repro.apps import harness
    from repro.sim.process import Process

    join_window, settle = harness.scaled_windows(nodes, join_window, settle, duration)
    lookups = harness.scaled_ops(lookups, duration)
    script = churn_script if churn_script is not None else (
        DEFAULT_CHURN_SCRIPT if churn else None)
    deployment = harness.deploy(
        "pastry", pastry_factory(), nodes=nodes, hosts=hosts, seed=seed,
        churn_script=script, churn_trace=churn_trace,
        testbed=testbed, options={"bits": bits, "base_bits": base_bits},
        join_window=join_window, settle=settle, ctl_shards=ctl_shards,
        sanitize=sanitize, metrics=metrics, trace_out=trace_out,
        profile=profile, log_level=log_level, bw_alloc=bw_alloc,
        gc_policy=gc_policy)
    sim, job = deployment.sim, deployment.job

    def _owner(job, key):
        return expected_owner(job, key, bits)

    probe_results: List["harness.OpResult"] = []
    if (script or churn_trace) and deployment.churn_end > deployment.warmup_end:
        probe_count = int((deployment.churn_end - deployment.warmup_end) / probe_interval)
        probe = Process(sim, harness.lookup_stream(
            sim, job, probe_count, probe_interval, bits,
            substream(seed, "workload-churn"), probe_results, _owner,
            failure=RouteFailed), name="workload.under-churn")
        probe.start(delay=deployment.warmup_end)

    results: List["harness.OpResult"] = []
    driver = Process(sim, harness.lookup_stream(
        sim, job, lookups, spacing, bits, substream(seed, "workload"),
        results, _owner, failure=RouteFailed), name="workload.measured")
    driver.start(delay=deployment.measure_start)

    hard_cap = deployment.measure_start + lookups * (spacing + 30.0) + 300.0
    harness.drain(sim, driver, hard_cap, deployment=deployment)

    report = harness.base_report("pastry", deployment, bits=bits)
    report["workload"] = {"base_bits": base_bits, "digits": bits // base_bits,
                          "leaf_set_size": DEFAULT_LEAF_SET_SIZE}
    report["under_churn"] = harness.summarise(probe_results) if probe_results else None
    report["measured"] = harness.summarise(results)
    report["cdf_samples_ms"] = sorted(
        round(1000.0 * r.latency, 3) for r in results if r.completed)
    return report


def _register() -> None:
    from repro.apps import registry

    def _add_arguments(parser) -> None:
        parser.add_argument("--lookups", type=int, default=200,
                            help="measured lookups after the overlay re-converges")
        parser.add_argument("--bits", type=int, default=32, help="identifier width")
        parser.add_argument("--base-bits", type=int, default=4,
                            help="bits per routing digit (b; routing base is 2^b)")

    registry.register(registry.ScenarioSpec(
        name="pastry",
        help="Pastry prefix routing with leaf sets under churn",
        runner=run_pastry_scenario,
        default_churn_script=DEFAULT_CHURN_SCRIPT,
        add_arguments=_add_arguments,
        make_kwargs=lambda args: {"lookups": args.lookups, "bits": args.bits,
                                  "base_bits": args.base_bits},
        ops_param="lookups",
        ops_label="lookup",
        default_min_success=0.95,
    ))


_register()
