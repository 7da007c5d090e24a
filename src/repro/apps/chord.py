"""Chord on the SPLAY runtime (the paper's Listing 3, grown fault-tolerant).

"We have implemented Chord for SPLAY ... the implementation is remarkably
compact and close to the pseudo-code."  This module keeps that structure —
``join``, ``stabilize``, ``notify``, ``fix_fingers`` as periodic coroutines
over the RPC library — and adds the successor-list fault tolerance the
paper's churn experiments rely on.

Every remote interaction goes through ``instance.rpc`` (and therefore the
restricted socket): the application never touches the network object.
Lookups are *iterative*: the querying node walks the ring one hop at a time
via the ``step`` RPC, which keeps per-hop timeouts small and lets the walker
route around nodes that died mid-lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.apps.membership import Membership
from repro.lib.ring import between, hash_key, ring_add, ring_distance
from repro.lib.rpc import RpcError
from repro.net.address import NodeRef
from repro.sim.rng import substream

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.splayd import Instance


class LookupFailed(Exception):
    """A lookup exhausted its hop budget or every route attempt failed."""


@dataclass
class ChordStats:
    """Per-node counters (aggregated by the scenario report)."""

    lookups_started: int = 0
    lookups_completed: int = 0
    lookups_failed: int = 0
    hops_total: int = 0
    join_attempts: int = 0
    stabilize_rounds: int = 0
    dead_nodes_noticed: int = 0


class ChordNode:
    """One Chord node, bound to one runtime instance.

    Options (from ``JobSpec.options`` or keyword overrides): ``bits`` —
    identifier width; ``stabilize_interval`` / ``fix_fingers_interval`` /
    ``check_predecessor_interval`` — maintenance periods; ``successor_list_size``
    — fault-tolerance depth; ``hop_timeout`` / ``hop_retries`` — per-hop RPC
    settings; ``join_window`` — joins are staggered uniformly over this many
    seconds to avoid a thundering herd at deployment.
    """

    def __init__(self, instance: "Instance", **overrides):
        options = {**instance.options, **overrides}
        self.instance = instance
        self.events = instance.events
        self.rpc = instance.rpc
        self.log = instance.logger
        self.bits: int = int(options.get("bits", 32))
        self.stabilize_interval: float = float(options.get("stabilize_interval", 5.0))
        self.fix_fingers_interval: float = float(options.get("fix_fingers_interval", 4.0))
        self.check_predecessor_interval: float = float(
            options.get("check_predecessor_interval", 11.0))
        self.successor_list_size: int = int(options.get("successor_list_size", 6))
        self.hop_timeout: float = float(options.get("hop_timeout", 1.5))
        self.hop_retries: int = int(options.get("hop_retries", 1))
        self.join_window: float = float(options.get("join_window", 30.0))
        self.max_hops: int = int(options.get("max_hops", 3 * self.bits))

        self.me = instance.me.with_id(
            hash_key(f"{instance.me.ip}:{instance.me.port}", self.bits))
        self.predecessor: Optional[NodeRef] = None
        self.successors: List[NodeRef] = [self.me]
        self.fingers: List[Optional[NodeRef]] = [None] * self.bits
        self._next_finger = 0
        self.joined = False
        self.stats = ChordStats()
        self._rng = substream(self.events.sim.seed, "chord",
                              instance.job.job_id, instance.instance_id)

        rpc = self.rpc
        rpc.register("step", self._rpc_step)
        rpc.register("claim", self._rpc_claim)
        rpc.register("find_successor", self._rpc_find_successor)
        rpc.register("get_predecessor", self._rpc_get_predecessor)
        rpc.register("successor_list", self._rpc_successor_list)
        rpc.register("notify", self._rpc_notify)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Create the ring (first node of the job) or schedule a join."""
        self.members = Membership.of(self.instance.job, "chord")
        if not self.instance.job.shared.get("chord_created"):
            # First instance of the job bootstraps the ring immediately.
            self.instance.job.shared["chord_created"] = True
            self._become_member()
        else:
            delay = self._rng.uniform(0.0, self.join_window) if self.join_window > 0 else 0.0
            self.events.thread(self._join_main, name=f"{self.instance.context.name}.join",
                               delay=delay)
        # Keep the shared member registry honest on teardown.
        self.instance.context.add_cleanup(lambda: self.members.remove(self.me))

    def _become_member(self) -> None:
        self.joined = True
        self.members.add(self.me)
        self.events.periodic(self._stabilize, self.stabilize_interval,
                             jitter=self.stabilize_interval * 0.25)
        self.events.periodic(self._fix_fingers, self.fix_fingers_interval,
                             jitter=self.fix_fingers_interval * 0.25)
        self.events.periodic(self._check_predecessor, self.check_predecessor_interval,
                             jitter=self.check_predecessor_interval * 0.25)
        self.log.info(f"node {self.me} up (id={self.me.id})")

    def _join_main(self) -> Generator:
        """Join coroutine: contact a member, learn the successor, go live."""
        for attempt in range(1, 16):
            self.stats.join_attempts += 1
            bootstrap = self._pick_bootstrap()
            if bootstrap is None:
                yield 2.0
                continue
            try:
                successor = yield self.rpc.call(
                    bootstrap, "find_successor", self.me.id,
                    timeout=self.hop_timeout * 8, retries=1)
            except RpcError as exc:
                self.log.debug(f"join attempt {attempt} via {bootstrap} failed: {exc}")
                yield 1.0 + self._rng.uniform(0.0, 1.0)
                continue
            successor = NodeRef.coerce(successor)
            self.successors = [successor]
            self.fingers[0] = successor
            self._become_member()
            # Announce ourselves right away instead of waiting a full period.
            self.rpc.a_call(successor, "notify", self.me,
                            timeout=self.hop_timeout, retries=0)
            return
        self.log.error(f"node {self.me} could not join, giving up")
        self.events.exit()

    def _pick_bootstrap(self) -> Optional[NodeRef]:
        """A live ring member to join through (the controller's node list)."""
        return self.members.pick_other(self._rng, self.me)

    # ------------------------------------------------------------ RPC handlers
    def _rpc_step(self, key: int, avoid: Optional[list] = None) -> dict:
        """One hop of an iterative lookup: done with the owner, or forward."""
        avoided = set(avoid or ())
        successor = self._current_successor()
        if between(key, self.me.id, successor.id, include_high=True):
            return {"done": True, "node": successor}
        nxt = self._closest_preceding(key, avoided)
        return {"done": False, "node": nxt}

    def _rpc_claim(self, key: int) -> dict:
        """Ownership check: is ``key`` in ``(predecessor, me]``?

        A node that recently joined between a stale router and the key is
        invisible to that router's ``step``; its *successor* knows about it
        through ``notify``, so asking the claimed owner to confirm (and
        bounce to its predecessor otherwise) repairs stale-skip errors.
        """
        predecessor = self.predecessor
        if (predecessor is None or predecessor == self.me
                or between(key, predecessor.id, self.me.id, include_high=True)):
            return {"mine": True}
        return {"mine": False, "node": predecessor}

    def _rpc_find_successor(self, key: int) -> Generator:
        """Full lookup on behalf of a caller (used by joins)."""
        owner, _hops = yield from self.lookup(int(key))
        return owner

    def _rpc_get_predecessor(self) -> Optional[NodeRef]:
        return self.predecessor

    def _rpc_successor_list(self) -> List[NodeRef]:
        return list(self.successors)

    def _rpc_notify(self, node) -> bool:
        node = NodeRef.coerce(node)
        if node == self.me:
            return False
        if self.predecessor is None or between(node.id, self.predecessor.id, self.me.id):
            self.predecessor = node
            return True
        return False

    # ------------------------------------------------------------ maintenance
    def _stabilize(self) -> Generator:
        """Verify the successor, adopt a closer one, refresh the successor list."""
        self.stats.stabilize_rounds += 1
        successor = self._first_live_successor()
        if successor is None:
            yield from self._rejoin_ring()
            return
        try:
            # Walk the predecessor chain back towards us (bounded): a single
            # round can then repair a successor pointer that overshot by many
            # nodes, instead of converging one node per stabilization period.
            for _step in range(8):
                if successor == self.me:
                    candidate = self.predecessor
                else:
                    candidate = yield self.rpc.call(successor, "get_predecessor",
                                                    timeout=self.hop_timeout,
                                                    retries=self.hop_retries)
                if candidate is None:
                    break
                candidate = NodeRef.coerce(candidate)
                if candidate == self.me or candidate == successor:
                    break
                if not between(candidate.id, self.me.id, successor.id):
                    break
                alive = yield self.rpc.ping(candidate, timeout=self.hop_timeout)
                if not alive:
                    break
                successor = candidate
            if successor != self.me:
                remote_list = yield self.rpc.call(successor, "successor_list",
                                                  timeout=self.hop_timeout,
                                                  retries=self.hop_retries)
                chain = [successor] + [NodeRef.coerce(n) for n in remote_list
                                       if NodeRef.coerce(n) != self.me]
                self.successors = _dedupe(chain)[: self.successor_list_size]
                self.fingers[0] = self.successors[0]
                self.rpc.a_call(successor, "notify", self.me,
                                timeout=self.hop_timeout, retries=0)
        except RpcError:
            self._note_dead(successor)

    def _rejoin_ring(self) -> Generator:
        """Every successor died: fall back to the member list and rejoin."""
        bootstrap = self._pick_bootstrap()
        if bootstrap is None:
            self.successors = [self.me]
            return
        try:
            successor = yield self.rpc.call(bootstrap, "find_successor", self.me.id,
                                            timeout=self.hop_timeout * 8, retries=1)
            successor = NodeRef.coerce(successor)
            self.successors = [successor] if successor != self.me else [self.me]
            self.fingers[0] = self.successors[0]
        except RpcError:
            self.successors = [self.me]

    def _fix_fingers(self) -> Generator:
        """Refresh one finger per round (round-robin over the table)."""
        self._next_finger = (self._next_finger + 1) % self.bits
        start = ring_add(self.me.id, 1 << self._next_finger, self.bits)
        try:
            owner, _hops = yield from self.lookup(start)
            self.fingers[self._next_finger] = owner
        except LookupFailed:
            self.fingers[self._next_finger] = None

    def _check_predecessor(self) -> Generator:
        """Drop the predecessor pointer if it stopped answering pings."""
        predecessor = self.predecessor
        if predecessor is None or predecessor == self.me:
            return
        alive = yield self.rpc.ping(predecessor, timeout=self.hop_timeout)
        if not alive and self.predecessor == predecessor:
            self.predecessor = None
            self.stats.dead_nodes_noticed += 1

    # ---------------------------------------------------------------- lookups
    def lookup(self, key: int) -> Generator:
        """Iteratively find the node owning ``key``.

        Returns ``(owner, hops)``.  Dead hops are added to an ``avoid`` set
        and the walk restarts from the local node, so a lookup survives nodes
        failing underneath it as long as the ring itself stays connected.
        """
        key = key % (1 << self.bits)
        self.stats.lookups_started += 1
        tracer = self.rpc._tracer
        started = self.events.sim.now
        avoid: set[int] = set()
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
            if response["done"]:
                # Confirm ownership with the claimed owner; bounce along its
                # predecessor chain if a recent joiner sits closer to the key.
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
                    if candidate == owner or candidate.id in avoid:
                        confirmed = owner  # stale bounce; accept the claimer
                        break
                    owner = candidate
                else:
                    confirmed = owner  # bounce budget spent; best known owner
                if confirmed is not None:
                    self.stats.lookups_completed += 1
                    self.stats.hops_total += hops
                    if tracer is not None:
                        # The lookup-level span: per-hop step/claim RPC spans
                        # nest under it on the same host track.
                        tracer.add(self.me.ip, "lookup",
                                   started, self.events.sim.now - started,
                                   cat="lookup",
                                   args={"key": key, "hops": hops})
                    registry = self.rpc._metrics
                    if registry is not None:
                        registry.inc("lookup.completed")
                        registry.observe("lookup.hops", hops)
                    return confirmed, hops
                current = self.me
                continue
            if node == current or (node == self.me and current != self.me):
                # No progress: the remote's best route is itself or bounces
                # back; blacklist the stuck hop and restart locally.
                avoid.add(node.id)
                current = self.me
                continue
            current = node
        self.stats.lookups_failed += 1
        if tracer is not None:
            tracer.add(self.me.ip, "lookup.failed",
                       started, self.events.sim.now - started, cat="lookup",
                       args={"key": key, "hops": hops})
        raise LookupFailed(f"lookup({key}) from {self.me} exceeded {self.max_hops} hops")

    # ----------------------------------------------------------------- helpers
    def _current_successor(self) -> NodeRef:
        return self.successors[0] if self.successors else self.me

    def _first_live_successor(self) -> Optional[NodeRef]:
        """The head of the successor list (pruned of known-dead entries)."""
        if not self.successors:
            return None
        return self.successors[0]

    def _closest_preceding(self, key: int, avoided: set) -> NodeRef:
        """Best known node strictly between us and ``key`` (fingers + successors).

        "Closest" means furthest along the clockwise walk from us towards
        the key, i.e. the candidate maximising ``ring_distance(me, node)``.
        """
        candidates = [f for f in self.fingers if f is not None] + self.successors
        best: Optional[NodeRef] = None
        best_distance = -1
        for node in candidates:
            if node.id in avoided or node == self.me:
                continue
            if not between(node.id, self.me.id, key):
                continue
            distance = ring_distance(self.me.id, node.id, self.bits)
            if distance > best_distance:
                best, best_distance = node, distance
        if best is not None:
            return best
        successor = self._current_successor()
        if successor.id not in avoided:
            return successor
        return self.me

    def _note_dead(self, node: NodeRef) -> None:
        """Purge a dead node from local routing state."""
        if node == self.me:
            return
        self.stats.dead_nodes_noticed += 1
        self.successors = [s for s in self.successors if s != node]
        if not self.successors:
            self.successors = [self.me]
        self.fingers = [None if f == node else f for f in self.fingers]
        if self.predecessor == node:
            self.predecessor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChordNode {self.me} joined={self.joined}>"


def chord_factory(**options):
    """Build a :class:`JobSpec`-compatible application factory.

    ``options`` override the job options for every instance (useful in
    tests: ``chord_factory(bits=10, join_window=0)``).
    """

    def _factory(instance: "Instance") -> ChordNode:
        node = ChordNode(instance, **options)
        node.start()
        return node

    return _factory


def _dedupe(nodes: List[NodeRef]) -> List[NodeRef]:
    seen = set()
    unique = []
    for node in nodes:
        key = (node.ip, node.port)
        if key not in seen:
            seen.add(key)
            unique.append(node)
    return unique


# ----------------------------------------------------------------- scenario
from repro.apps.harness import FLAGSHIP_CHURN_SCRIPT as DEFAULT_CHURN_SCRIPT  # noqa: E402


def expected_owner(job, key: int, bits: int) -> Optional[NodeRef]:
    """Ground truth: the successor of ``key`` among current ring members."""
    members = Membership.of(job, "chord")
    if not members:
        return None
    return min(members, key=lambda m: (ring_distance(key, m.id, bits), m.ip, m.port))


def run_chord_scenario(nodes: int = 50, hosts: Optional[int] = None, seed: int = 0,
                       churn: bool = False, churn_script: Optional[str] = None,
                       lookups: int = 200, bits: int = 32,
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
    """Run the flagship Chord-under-churn scenario and return the report dict.

    ``join_window`` and ``settle`` default to values scaled with the ring
    size — big rings need proportionally longer to join and re-converge
    (``duration="short"`` is the quick CI preset).  ``testbed`` selects
    the deployment environment preset and ``churn_trace`` replays an
    availability trace as host-level churn (see :mod:`repro.testbeds` and
    :mod:`repro.core.churn`).
    """
    from repro.apps import harness
    from repro.sim.process import Process
    from repro.sim.rng import substream

    join_window, settle = harness.scaled_windows(nodes, join_window, settle, duration)
    lookups = harness.scaled_ops(lookups, duration)
    script = churn_script if churn_script is not None else (
        DEFAULT_CHURN_SCRIPT if churn else None)
    deployment = harness.deploy(
        "chord", chord_factory(), nodes=nodes, hosts=hosts, seed=seed,
        churn_script=script, churn_trace=churn_trace,
        testbed=testbed, options={"bits": bits},
        join_window=join_window, settle=settle, ctl_shards=ctl_shards,
        sanitize=sanitize, metrics=metrics, trace_out=trace_out,
        profile=profile, log_level=log_level, bw_alloc=bw_alloc,
        gc_policy=gc_policy)
    sim, job = deployment.sim, deployment.job

    def _owner(job, key):
        return expected_owner(job, key, bits)

    # Probe lookups issued while churn is active (reported, not gating).
    probe_results: List["harness.OpResult"] = []
    if (script or churn_trace) and deployment.churn_end > deployment.warmup_end:
        probe_count = int((deployment.churn_end - deployment.warmup_end) / probe_interval)
        probe = Process(sim, harness.lookup_stream(
            sim, job, probe_count, probe_interval, bits,
            substream(seed, "workload-churn"), probe_results, _owner,
            failure=LookupFailed), name="workload.under-churn")
        probe.start(delay=deployment.warmup_end)

    # The measured workload starts once the ring has re-converged.
    results: List["harness.OpResult"] = []
    driver = Process(sim, harness.lookup_stream(
        sim, job, lookups, spacing, bits, substream(seed, "workload"),
        results, _owner, failure=LookupFailed), name="workload.measured")
    driver.start(delay=deployment.measure_start)

    # Run until the measured workload drains (lookups take several RTTs each,
    # so a fixed horizon would truncate the stream); a hard cap bounds runaway.
    hard_cap = deployment.measure_start + lookups * (spacing + 30.0) + 300.0
    harness.drain(sim, driver, hard_cap, deployment=deployment)

    report = harness.base_report("chord", deployment, bits=bits)
    report["under_churn"] = harness.summarise(probe_results) if probe_results else None
    report["measured"] = harness.summarise(results)
    report["cdf_samples_ms"] = sorted(
        round(1000.0 * r.latency, 3) for r in results if r.completed)
    return report


def _register() -> None:
    from repro.apps import registry

    def _add_arguments(parser) -> None:
        parser.add_argument("--lookups", type=int, default=200,
                            help="measured lookups after the ring re-converges")
        parser.add_argument("--bits", type=int, default=32, help="identifier width")

    registry.register(registry.ScenarioSpec(
        name="chord",
        help="Chord DHT on a transit-stub network under churn",
        runner=run_chord_scenario,
        default_churn_script=DEFAULT_CHURN_SCRIPT,
        add_arguments=_add_arguments,
        make_kwargs=lambda args: {"lookups": args.lookups, "bits": args.bits},
        ops_param="lookups",
        ops_label="lookup",
        default_min_success=0.99,
    ))


_register()
