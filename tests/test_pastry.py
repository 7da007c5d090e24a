"""Pastry: prefix routing, leaf-set ownership, and recovery under churn."""

import pytest

from repro.apps import harness
from repro.apps.pastry import pastry_factory, run_pastry_scenario
from repro.core.churn import synthetic_availability_trace
from repro.core.jobs import JobSpec
from repro.lib.ring import numeric_distance
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator
from repro.sim.process import Process

BITS = 16
BASE_BITS = 4

#: report digests captured before Pastry's routing state became
#: incrementally maintained: 40 nodes on 20 hosts under instance churn and a
#: replayed host-availability trace, one entry per seed
PRE_INCREMENTAL_DIGESTS = {
    0: "9274368a817d3987",
    1: "9fe254dc88697c9d",
}


def _deploy(nodes=10, seed=0, churn_script=None):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=3)))
    spec = JobSpec(
        name="pastry",
        app_factory=pastry_factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"bits": BITS, "base_bits": BASE_BITS, "join_window": 10.0,
                 "repair_interval": 2.0, "table_probe_interval": 3.0},
    )
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def _members(job):
    return sorted(job.shared["pastry_members"], key=lambda m: m.id)


def _expected_owner(job, key):
    return min(_members(job),
               key=lambda m: (numeric_distance(key, m.id, BITS), m.id, m.ip, m.port))


def _live_apps(job):
    return [i.app for i in job.live_instances() if i.app.joined]


def _run_lookup(sim, app, key, patience=60.0):
    box = {}

    def _gen():
        owner, hops = yield from app.lookup(key)
        box["owner"], box["hops"] = owner, hops

    process = Process(sim, _gen(), name="test-lookup")
    process.start()
    sim.run(until=sim.now + patience)
    assert process.done.done(), "lookup did not terminate"
    process.done.result()  # re-raise lookup failures
    return box["owner"], box["hops"]


def test_every_node_joins_and_builds_leaf_sets():
    sim, _controller, job = _deploy(nodes=10)
    sim.run(until=60.0)
    members = _members(job)
    assert len(members) == 10
    for app in _live_apps(job):
        snapshot = app.routing_snapshot()
        assert snapshot["joined"]
        assert len(snapshot["leaves"]) >= 1
        assert snapshot["table_entries"] >= 1


def test_lookups_find_the_numerically_closest_owner_from_every_node():
    sim, _controller, job = _deploy(nodes=8)
    sim.run(until=60.0)
    keys = [0, 1, 17, 4096, 65535, 30000]
    for app in _live_apps(job):
        for key in keys:
            owner, hops = _run_lookup(sim, app, key)
            expected = _expected_owner(job, key)
            assert (owner.ip, owner.port) == (expected.ip, expected.port), (
                f"lookup({key}) from {app.me} returned {owner}, wanted {expected}")
            assert hops <= app.max_hops


def test_mean_hops_stay_logarithmic_in_the_routing_base():
    # O(log_{2^b} N) route hops plus a constant for the final claim check:
    # for N=16, b=4 that bound is 1 + small constant — assert generously.
    import math

    sim, _controller, job = _deploy(nodes=16)
    sim.run(until=90.0)
    apps = _live_apps(job)
    total_hops = 0
    count = 0
    for app in apps[:4]:
        for key in (11, 222, 3333, 44444, 55555):
            _owner, hops = _run_lookup(sim, app, key)
            total_hops += hops
            count += 1
    mean = total_hops / count
    bound = math.log(16, 2 ** BASE_BITS) + 3.0
    assert mean <= bound, f"mean hops {mean:.2f} above O(log_16 N) bound {bound:.2f}"


def test_overlay_recovers_and_routes_correctly_after_crashes():
    sim, _controller, job = _deploy(nodes=10, churn_script="at 70s crash 30%\n")
    sim.run(until=60.0)
    assert job.live_count == 10
    sim.run(until=150.0)  # crash at 70s, then leaf-set repair time
    assert job.live_count == 7
    members = _members(job)
    assert len(members) == 7
    for app in _live_apps(job):
        for key in (3, 900, 12345, 54321, 65000):
            owner, _hops = _run_lookup(sim, app, key)
            expected = _expected_owner(job, key)
            assert (owner.ip, owner.port) == (expected.ip, expected.port)


def test_churned_in_nodes_become_routable_owners():
    sim, _controller, job = _deploy(nodes=6, churn_script="at 70s join 3\n")
    sim.run(until=160.0)
    assert job.live_count == 9
    members = _members(job)
    assert len(members) == 9
    app = _live_apps(job)[0]
    for member in members:
        owner, _hops = _run_lookup(sim, app, member.id)
        assert (owner.ip, owner.port) == (member.ip, member.port)


def test_same_seed_builds_the_same_overlay():
    def fingerprint(seed):
        sim, _controller, job = _deploy(nodes=8, seed=seed)
        sim.run(until=60.0)
        return tuple((m.ip, m.port, m.id) for m in _members(job))

    assert fingerprint(5) == fingerprint(5)


@pytest.mark.parametrize("seed", sorted(PRE_INCREMENTAL_DIGESTS))
def test_churn_and_trace_report_digest_is_pinned(seed):
    report = run_pastry_scenario(
        nodes=40, hosts=20, seed=seed, join_window=30.0, settle=30.0, lookups=40,
        churn_script="from 60s to 150s every 15s replace 10%\n",
        churn_trace=synthetic_availability_trace(hosts=8, duration=200.0, seed=seed))
    # the run exercises both failure sources the digest is meant to pin
    assert report["churn"]["joined"] > 0 and report["churn"]["hosts_failed"] > 0
    assert harness.report_digest(report) == PRE_INCREMENTAL_DIGESTS[seed]
