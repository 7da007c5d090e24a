"""The job member registry against the list-and-filter code it replaced.

:class:`ReferenceMembers` below is the plain list every workload kept in
``job.shared`` before :class:`~repro.apps.membership.Membership`, kept
verbatim: a membership test before each append, a guarded remove, and a
fresh ``[m for m in members if m != me]`` before every ``rng.choice`` or
``rng.sample``.  Seeded random sequences of adds, removes, picks and samples
drive both side by side with twin ``random.Random`` instances; the picks,
the generators' states, the iteration order and the filtered lists must
agree after every step, or a report digest would move.
"""

import random
from typing import List, Optional

import pytest

from repro.apps.membership import Membership
from repro.net.address import NodeRef


class ReferenceMembers:
    """The shared member list as the workloads kept it by hand."""

    def __init__(self) -> None:
        self.members: List[NodeRef] = []

    def add(self, me: NodeRef) -> None:
        members = self.members
        if me not in members:
            members.append(me)

    def remove(self, me: NodeRef) -> None:
        members = self.members
        members.remove(me) if me in members else None

    def pick_other(self, rng: random.Random, me: NodeRef) -> Optional[NodeRef]:
        members = [m for m in self.members if m != me]
        if not members:
            return None
        return rng.choice(members)

    def others(self, me: NodeRef) -> List[NodeRef]:
        return [m for m in self.members if m != me]


def _sample(rng: random.Random, pool: list, count: int) -> list:
    """Gossip's ``_sample`` helper: how view seeding draws from the list."""
    if count <= 0 or not pool:
        return []
    return rng.sample(pool, min(count, len(pool)))


def _exact(nodes) -> List[tuple]:
    """Compare NodeRefs field by field (their ``==`` ignores ``id``)."""
    return [(n.ip, n.port, n.id) for n in nodes]


def _assert_same(registry: Membership, ref: ReferenceMembers, probes) -> None:
    assert _exact(registry) == _exact(ref.members)
    assert len(registry) == len(ref.members)
    assert bool(registry) == bool(ref.members)
    for me in probes:
        assert (me in registry) == (me in ref.members)
        assert _exact(registry.others(me)) == _exact(ref.others(me))


def _pick_both(registry, ref, rng, twin, me) -> None:
    picked = registry.pick_other(rng, me)
    expected = ref.pick_other(twin, me)
    assert (picked is None) == (expected is None)
    if picked is not None:
        assert _exact([picked]) == _exact([expected])
    assert rng.getstate() == twin.getstate()


def _endpoints(count: int) -> List[NodeRef]:
    return [NodeRef(f"10.0.{i // 4}.{i % 4 + 1}", 20000 + i % 3, i)
            for i in range(count)]


def test_empty_registry_draws_nothing():
    registry, ref = Membership(), ReferenceMembers()
    rng, twin = random.Random(1), random.Random(1)
    me = _endpoints(1)[0]
    _pick_both(registry, ref, rng, twin, me)
    assert registry.pick_other(rng, me) is None
    assert rng.getstate() == random.Random(1).getstate()  # no draw consumed
    assert registry.others(me) == [] and len(registry) == 0
    registry.remove(me)  # removing a non-member is a no-op
    _assert_same(registry, ref, [me])


def test_absent_me_draws_over_every_member():
    """A joiner bootstraps before it is a member itself."""
    nodes = _endpoints(5)
    registry, ref = Membership(), ReferenceMembers()
    for node in nodes[:4]:
        registry.add(node)
        ref.add(node)
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(50):
        _pick_both(registry, ref, rng, twin, nodes[4])
    assert registry.others(nodes[4]) == nodes[:4]


def test_sole_member_has_no_other():
    me = _endpoints(1)[0]
    registry, ref = Membership(), ReferenceMembers()
    registry.add(me)
    ref.add(me)
    rng, twin = random.Random(3), random.Random(3)
    _pick_both(registry, ref, rng, twin, me)
    assert registry.pick_other(rng, me) is None
    assert registry.others(me) == []
    # the same endpoint under another id is still "me"
    assert registry.pick_other(rng, me.with_id(99)) is None


@pytest.mark.parametrize("victim", [0, 3, 6], ids=["head", "middle", "tail"])
def test_removal_reindexes_later_members(victim):
    nodes = _endpoints(7)
    registry, ref = Membership(), ReferenceMembers()
    for node in nodes:
        registry.add(node)
        ref.add(node)
    registry.remove(nodes[victim])
    ref.remove(nodes[victim])
    _assert_same(registry, ref, nodes)
    rng, twin = random.Random(victim), random.Random(victim)
    for me in nodes:
        for _ in range(20):
            _pick_both(registry, ref, rng, twin, me)


def test_readded_endpoint_joins_at_the_tail():
    nodes = _endpoints(4)
    registry, ref = Membership(), ReferenceMembers()
    for node in nodes:
        registry.add(node)
        ref.add(node)
    for target in (registry, ref):
        target.remove(nodes[1])
        target.add(nodes[1].with_id(42))  # a new instance on the old endpoint
        target.add(nodes[2].with_id(43))  # already a member: no-op
    _assert_same(registry, ref, nodes)
    assert [n.id for n in registry] == [0, 2, 3, 42]


def _drive(seed: int) -> None:
    rng = random.Random(seed)
    pool = _endpoints(rng.randrange(2, 14))
    registry, ref = Membership(), ReferenceMembers()
    draws, twin = random.Random(seed + 1000), random.Random(seed + 1000)
    for _step in range(150):
        roll = rng.random()
        target = rng.choice(pool)
        if rng.random() < 0.1:
            target = target.with_id(rng.randrange(1000))  # same endpoint, new id
        if roll < 0.35:
            registry.add(target)
            ref.add(target)
        elif roll < 0.55:
            if ref.members and rng.random() < 0.8:
                # a current member, at the head, the tail or anywhere between
                where = rng.choice([0, len(ref.members) - 1,
                                    rng.randrange(len(ref.members))])
                target = ref.members[where]
            registry.remove(target)
            ref.remove(target)
        elif roll < 0.9:
            _pick_both(registry, ref, draws, twin, target)
        else:
            count = rng.randrange(0, 6)
            sampled = _sample(draws, registry.others(target), count)
            expected = _sample(twin, ref.others(target), count)
            assert _exact(sampled) == _exact(expected)
            assert draws.getstate() == twin.getstate()
        _assert_same(registry, ref, pool)


@pytest.mark.parametrize("block", range(4))
def test_registry_matches_the_reference(block):
    for seed in range(block * 25, (block + 1) * 25):
        _drive(seed)
