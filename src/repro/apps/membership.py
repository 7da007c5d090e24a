"""The job's member list: who is live, in join order, with O(1) random draws.

Every workload bootstraps from the job's list of live instances, and swarm
nodes draw a random peer from it on every poll.  :class:`Membership` keeps
that list in join order plus an index from ``(ip, port)`` to list slot, so
a draw no longer filters the whole list.  :meth:`Membership.pick_other`
consumes the same ``_randbelow(n)`` draw and returns the same member as
``rng.choice([m for m in members if m != me])``, so no report digest moves;
``tests/test_membership.py`` keeps that list-and-filter code as the oracle.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.address import NodeRef


class Membership:
    """Live members of one job, in join order, keyed by endpoint."""

    __slots__ = ("_members", "_slot")

    def __init__(self) -> None:
        self._members: List[NodeRef] = []
        #: (ip, port) -> index into ``_members``
        self._slot: Dict[Tuple[str, int], int] = {}

    @classmethod
    def of(cls, job, app: str) -> "Membership":
        """The registry ``app``'s instances of ``job`` share (made on first use)."""
        return job.shared.setdefault(f"{app}_members", cls())

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[NodeRef]:
        return iter(self._members)

    def __contains__(self, node: NodeRef) -> bool:
        return (node.ip, node.port) in self._slot

    def add(self, node: NodeRef) -> None:
        """Append ``node`` unless its endpoint is already a member."""
        key = (node.ip, node.port)
        if key not in self._slot:
            self._slot[key] = len(self._members)
            self._members.append(node)

    def remove(self, node: NodeRef) -> None:
        """Drop ``node``'s endpoint if present; later members shift down."""
        slot = self._slot.pop((node.ip, node.port), None)
        if slot is None:
            return
        members, index = self._members, self._slot
        del members[slot]
        for position in range(slot, len(members)):
            member = members[position]
            index[(member.ip, member.port)] = position

    def pick_other(self, rng: random.Random, me: NodeRef) -> Optional[NodeRef]:
        """A uniformly random member other than ``me`` (None if there is none)."""
        skip = self._slot.get((me.ip, me.port))
        count = len(self._members) if skip is None else len(self._members) - 1
        if count <= 0:
            return None
        position = rng.randrange(count)
        if skip is not None and position >= skip:
            position += 1
        return self._members[position]

    def others(self, me: NodeRef) -> List[NodeRef]:
        """Every member but ``me``, in join order (a fresh list)."""
        skip = self._slot.get((me.ip, me.port))
        if skip is None:
            return list(self._members)
        return self._members[:skip] + self._members[skip + 1:]
