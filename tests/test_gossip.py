"""Gossip: Cyclon view maintenance and epidemic broadcast coverage."""

import pytest

from repro.apps.gossip import gossip_factory, run_gossip_scenario
from repro.apps.harness import report_digest
from repro.core.jobs import JobSpec
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.kernel import Simulator

#: crashes, then replacements: joiners seed their views from a member list
#: that has lost members at random positions
MEMBERSHIP_CHURN = "at 30s crash 10%\nfrom 40s to 100s every 20s replace 10%\n"

#: report digests captured while the job's member list was still a plain
#: list filtered on every draw, one entry per seed
PRE_MEMBERSHIP_DIGESTS = {
    0: "f50f9d283ece739f",
    1: "bb7eb3d1cc840054",
}


def _deploy(nodes=12, seed=0, churn_script=None, **options):
    sim = Simulator(seed)
    network = Network(sim, latency=ConstantLatency(0.010), seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(nodes):
        controller.register_daemon(
            Splayd(sim, network, f"10.0.0.{i + 1}", SplaydLimits(max_instances=3)))
    spec = JobSpec(
        name="gossip",
        app_factory=gossip_factory(),
        instances=nodes,
        churn_script=churn_script,
        options={"join_window": 5.0, "shuffle_interval": 2.0,
                 "ae_interval": 3.0, **options},
    )
    job = controller.submit(spec)
    controller.start(job)
    return sim, controller, job


def _apps(job):
    return [i.app for i in job.live_instances() if i.app.joined]


def test_views_fill_up_and_respect_the_capacity():
    sim, _controller, job = _deploy(nodes=12)
    sim.run(until=60.0)
    apps = _apps(job)
    assert len(apps) == 12
    for app in apps:
        assert 1 <= len(app.view) <= app.view_size
        assert all(entry[0] != app.me for entry in app.view.values())


def test_shuffling_spreads_membership_beyond_the_bootstrap():
    sim, _controller, job = _deploy(nodes=12)
    sim.run(until=90.0)
    # Union of everyone's view should cover (almost) the whole membership:
    # Cyclon converges towards a uniform random graph, not a star.
    seen = set()
    for app in _apps(job):
        seen.update(key for key in app.view)
    assert len(seen) >= 10


def test_broadcast_reaches_every_member():
    sim, _controller, job = _deploy(nodes=12)
    sim.run(until=60.0)
    apps = _apps(job)
    apps[0].publish("hello")
    sim.run(until=sim.now + 30.0)
    delivered = [a for a in apps if "hello" in a.store]
    assert len(delivered) == len(apps)
    hops = [a.store["hello"].hops for a in apps]
    assert max(hops) >= 1  # it actually travelled
    origin_record = apps[0].store["hello"]
    assert origin_record.via == "publish" and origin_record.hops == 0


def test_anti_entropy_recovers_nodes_that_missed_the_push():
    # Tiny fanout on a larger group: eager push alone will miss nodes, so
    # full coverage demonstrates the anti-entropy pull path.
    sim, _controller, job = _deploy(nodes=16, fanout=1)
    sim.run(until=60.0)
    apps = _apps(job)
    apps[0].publish("m")
    sim.run(until=sim.now + 60.0)
    delivered = [a for a in apps if "m" in a.store]
    assert len(delivered) == len(apps)
    assert any(a.store["m"].via == "anti-entropy" for a in apps)


def test_broadcast_survives_churn_and_reaches_joiners():
    sim, _controller, job = _deploy(
        nodes=12, churn_script="at 40s crash 25%\nat 50s join 3\n")
    sim.run(until=30.0)
    _apps(job)[0].publish("early")
    sim.run(until=150.0)
    apps = _apps(job)
    assert job.live_count == 12
    # Joiners arrived after the publish; anti-entropy must backfill them.
    missing = [a for a in apps if "early" not in a.store]
    assert missing == []


def test_same_seed_same_deliveries():
    def fingerprint(seed):
        sim, _controller, job = _deploy(nodes=10, seed=seed)
        sim.run(until=40.0)
        _apps(job)[0].publish("x")
        sim.run(until=90.0)
        return tuple(sorted((a.me.ip, a.me.port, round(a.store["x"].received_at, 9),
                             a.store["x"].hops)
                            for a in _apps(job) if "x" in a.store))

    assert fingerprint(3) == fingerprint(3)


@pytest.mark.parametrize("seed", sorted(PRE_MEMBERSHIP_DIGESTS))
def test_churn_report_digest_is_pinned(seed):
    report = run_gossip_scenario(
        nodes=20, hosts=10, seed=seed, broadcasts=10, join_window=10.0,
        settle=20.0, churn_script=MEMBERSHIP_CHURN)
    assert report["churn"]["crashed"] > 0 and report["churn"]["joined"] > 0
    assert report_digest(report) == PRE_MEMBERSHIP_DIGESTS[seed]
