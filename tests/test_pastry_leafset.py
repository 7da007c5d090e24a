"""Pastry routing state: incremental upkeep against the sort-everything oracle.

``PastryNode`` keeps its leaf-set halves sorted as nodes are learned, a
reverse index of routing-table slots and a cached known-nodes list.
:class:`ReferenceState` below is the from-scratch code it replaced, kept
verbatim: every read re-sorts the whole leaf set.  Seeded random sequences
of learns and deaths drive both side by side, and every observable piece of
routing state must agree after every step.
"""

import random
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import pytest

from repro.apps.pastry import PastryNode, PastryStats
from repro.lib.ring import (
    between,
    digit_at,
    numeric_distance,
    ring_distance,
    shared_prefix_length,
)
from repro.net.address import NodeRef


class ReferenceState:
    """Leaf set and routing table recomputed from scratch on every read."""

    def __init__(self, me: NodeRef, bits: int, base_bits: int, leaf_set_size: int):
        self.me = me
        self.bits = bits
        self.base_bits = base_bits
        self.digits = bits // base_bits
        self.leaf_half = max(1, leaf_set_size // 2)
        self.leaves: Dict[Tuple[str, int], NodeRef] = {}
        self.table: List[List[Optional[NodeRef]]] = [
            [None] * (1 << self.base_bits) for _ in range(self.digits)]
        self.stats = PastryStats()

    def _rpc_step(self, key: int, avoid: Optional[list] = None) -> dict:
        """One hop of an iterative lookup: done with the owner, or forward."""
        key = int(key) % (1 << self.bits)
        avoided = set(avoid or ())
        leaves = [n for n in self._leaf_nodes() if n.id not in avoided]
        if self._leaf_covers(key):
            best = min(leaves + [self.me], key=self._closeness_key(key))
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
        """Ownership check: are we the numerically closest among our leaves?"""
        key = int(key) % (1 << self.bits)
        best = min(self._leaf_nodes() + [self.me], key=self._closeness_key(key))
        if best == self.me:
            return {"mine": True}
        return {"mine": False, "node": best}

    def _closeness_key(self, key: int):
        """Deterministic total order on 'numerically closest to ``key``'."""
        return lambda n: (numeric_distance(key, n.id, self.bits), n.id, n.ip, n.port)

    def _leaf_nodes(self) -> List[NodeRef]:
        return sorted(self.leaves.values(), key=lambda n: (n.ip, n.port))

    def _cw(self) -> List[NodeRef]:
        """Leaves ordered by clockwise distance from us (nearest first)."""
        return sorted(self.leaves.values(),
                      key=lambda n: (ring_distance(self.me.id, n.id, self.bits),
                                     n.ip, n.port))[: self.leaf_half]

    def _ccw(self) -> List[NodeRef]:
        """Leaves ordered by counter-clockwise distance from us (nearest first)."""
        return sorted(self.leaves.values(),
                      key=lambda n: (ring_distance(n.id, self.me.id, self.bits),
                                     n.ip, n.port))[: self.leaf_half]

    def _leaf_covers(self, key: int) -> bool:
        """True when ``key`` falls inside the span of our leaf set."""
        cw, ccw = self._cw(), self._ccw()
        if not cw and not ccw:
            return True  # alone on the ring: we own everything
        if len(self.leaves) < 2 * self.leaf_half:
            # The leaf set is not saturated, so it holds every member we
            # know of — ownership is decided by numeric closeness directly.
            return True
        low = ccw[-1].id if ccw else self.me.id
        high = cw[-1].id if cw else self.me.id
        return between(key, low, high, include_low=True, include_high=True)

    def _rare_case(self, key: int, row: int, avoided: set) -> Optional[NodeRef]:
        """Any known node with prefix >= ``row`` strictly closer to ``key``."""
        mine = numeric_distance(key, self.me.id, self.bits)
        best: Optional[NodeRef] = None
        best_key = None
        for node in self._known_nodes():
            if node.id in avoided or node == self.me:
                continue
            if shared_prefix_length(key, node.id, self.digits, self.base_bits) < row:
                continue
            candidate_key = self._closeness_key(key)(node)
            if candidate_key[0] >= mine:
                continue
            if best is None or candidate_key < best_key:
                best, best_key = node, candidate_key
        return best

    def _known_nodes(self) -> List[NodeRef]:
        known = {(n.ip, n.port): n for n in self.leaves.values()}
        for table_row in self.table:
            for entry in table_row:
                if entry is not None:
                    known.setdefault((entry.ip, entry.port), entry)
        return [known[k] for k in sorted(known)]

    def _learned(self, node: NodeRef) -> None:
        """Fold a freshly observed node into the leaf set and routing table."""
        if node is None or node.id is None or node == self.me:
            return
        self.leaves[(node.ip, node.port)] = node
        self._trim_leaves()
        row = shared_prefix_length(node.id, self.me.id, self.digits, self.base_bits)
        if row < self.digits:
            column = digit_at(node.id, row, self.digits, self.base_bits)
            if self.table[row][column] is None:
                self.table[row][column] = node

    def _trim_leaves(self) -> None:
        keep = {(n.ip, n.port) for n in self._cw()} | {(n.ip, n.port) for n in self._ccw()}
        if len(keep) < len(self.leaves):
            self.leaves = {k: v for k, v in self.leaves.items() if k in keep}

    def _note_dead(self, node: NodeRef) -> None:
        """Purge a dead node from local routing state."""
        if node == self.me:
            return
        self.stats.dead_nodes_noticed += 1
        self.leaves.pop((node.ip, node.port), None)
        for table_row in self.table:
            for column, entry in enumerate(table_row):
                if entry == node:
                    table_row[column] = None


# ------------------------------------------------------------------ harness
def _pastry_node(me: NodeRef, bits: int, base_bits: int, leaf_set_size: int) -> PastryNode:
    """A ``PastryNode`` on a stand-in instance: only its local state is used."""
    instance = SimpleNamespace(
        options={"bits": bits, "base_bits": base_bits, "leaf_set_size": leaf_set_size},
        events=SimpleNamespace(sim=SimpleNamespace(seed=0)),
        rpc=SimpleNamespace(register=lambda name, handler: None),
        logger=None, me=me, job=SimpleNamespace(job_id=1), instance_id=1)
    node = PastryNode(instance)
    node.me = me
    return node


def _full(nodes) -> list:
    """NodeRefs compare by endpoint only; compare ids too."""
    return [None if n is None else (n.ip, n.port, n.id) for n in nodes]


def _assert_same_state(node: PastryNode, ref: ReferenceState, rng: random.Random,
                       probe_keys: List[int]) -> None:
    assert {k: _full([v]) for k, v in node.leaves.items()} == \
        {k: _full([v]) for k, v in ref.leaves.items()}
    assert _full(node._cw()) == _full(ref._cw())
    assert _full(node._ccw()) == _full(ref._ccw())
    assert _full(node._leaf_nodes()) == _full(ref._leaf_nodes())
    assert _full(node._known_nodes()) == _full(ref._known_nodes())
    assert [_full(row) for row in node.table] == [_full(row) for row in ref.table]
    held_ids = [n.id for n in ref._known_nodes()]
    for key in probe_keys:
        assert node._leaf_covers(key) == ref._leaf_covers(key), key
        avoided = set(rng.sample(held_ids, min(len(held_ids), rng.randrange(3))))
        row = rng.randrange(ref.digits + 1)
        assert _full([node._rare_case(key, row, avoided)]) == \
            _full([ref._rare_case(key, row, avoided)])
        step, ref_step = node._rpc_step(key, sorted(avoided)), ref._rpc_step(key, sorted(avoided))
        assert (step["done"], _full([step["node"]])) == \
            (ref_step["done"], _full([ref_step["node"]]))
        claim, ref_claim = node._rpc_claim(key), ref._rpc_claim(key)
        assert claim["mine"] == ref_claim["mine"]
        assert _full([claim.get("node")]) == _full([ref_claim.get("node")])


def _drive(seed: int, steps: int = 80) -> None:
    rng = random.Random(seed)
    bits = rng.choice([8, 8, 16, 32])
    base_bits = rng.choice([b for b in (2, 4) if bits % b == 0])
    leaf_set_size = rng.choice([1, 2, 4, 8, 16])
    modulus = 1 << bits
    # ids near 0 and near the top of the ring exercise wrap-around
    def near_edge():
        return rng.choice([rng.randrange(4), modulus - 1 - rng.randrange(4),
                           rng.randrange(modulus)])

    me = NodeRef("10.0.0.1", 20000, near_edge())
    # pool sizes from "one node sits in both halves" to several leaf sets
    pool_size = rng.choice([1, 2, 3, 5, 12, 40])
    pool = []
    for i in range(pool_size):
        ident = rng.choice([near_edge(), (me.id + rng.randrange(-8, 9)) % modulus,
                            rng.randrange(modulus)])
        if rng.random() < 0.1 and pool:
            ident = rng.choice(pool).id  # two endpoints sharing one id
        pool.append(NodeRef(f"10.0.{i // 200}.{i % 200 + 2}", 20000 + rng.randrange(3),
                            ident))
    pool = list({(n.ip, n.port): n for n in pool}.values())

    node = _pastry_node(me, bits, base_bits, leaf_set_size)
    ref = ReferenceState(me, bits, base_bits, leaf_set_size)
    probe_keys = [0, modulus - 1, me.id, (me.id + 1) % modulus, (me.id - 1) % modulus]
    for _step in range(steps):
        roll = rng.random()
        target = rng.choice(pool)
        if roll < 0.65:
            op = ("learn", target)  # often a duplicate of a held node
        elif roll < 0.72:
            op = ("learn", target.with_id(rng.randrange(modulus)))  # same endpoint, new id
        elif roll < 0.75:
            op = ("learn", rng.choice([me, me.with_id(rng.randrange(modulus)),
                                       NodeRef(target.ip, target.port)]))
        else:
            op = ("dead", rng.choice([target, target.with_id(None), me]))
        getattr(node, "_learned" if op[0] == "learn" else "_note_dead")(op[1])
        getattr(ref, "_learned" if op[0] == "learn" else "_note_dead")(op[1])
        keys = [rng.choice(probe_keys), rng.randrange(modulus), rng.choice(pool).id]
        _assert_same_state(node, ref, rng, keys)
    assert node.stats.dead_nodes_noticed == ref.stats.dead_nodes_noticed


@pytest.mark.parametrize("block", range(4))
def test_incremental_routing_state_matches_the_reference(block):
    for seed in range(block * 25, (block + 1) * 25):
        _drive(seed)

