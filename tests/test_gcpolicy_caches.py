"""GC discipline and incrementally maintained job-store views.

The two perf cuts behind the flattened per-event cost curve are guarded
here: the host-interpreter GC policy (``repro.sim.gcpolicy``) must be
digest-neutral across every workload, on the wheel kernel and on its heap
reference, and the cached alive/live sets (``runtime/jobstore.py`` /
``core/jobs.py``) must stay coherent with a from-scratch recompute through
instance churn, scripted host churn and trace-driven host churn — with the
runtime sanitizer able to catch any cache that goes stale.

The from-scratch store views and the sort-every-candidate placement planner
the store used before its caches are kept below, verbatim, as the
reference (:func:`use_reference_store` swaps them in).
"""

import gc
from typing import Dict, List, Optional, Tuple

import pytest
from heap_kernel import KERNELS, use_heap_kernel

from repro.apps.chord import run_chord_scenario
from repro.apps.dissemination import run_dissemination_scenario
from repro.apps.gossip import run_gossip_scenario
from repro.apps.harness import report_digest
from repro.apps.pastry import run_pastry_scenario
from repro.core.churn import synthetic_availability_trace
from repro.core.jobs import JobSpec
from repro.net.network import Network
from repro.runtime.controller import Controller
from repro.runtime.jobstore import JobStore
from repro.runtime.splayd import Splayd, SplaydLimits
from repro.sim.gcpolicy import GC_MODES, GCPolicy, TUNED_THRESHOLDS
from repro.sim.kernel import Simulator
from repro.sim.sanitizer import Sanitizer

RUNNERS = {
    "chord": run_chord_scenario,
    "pastry": run_pastry_scenario,
    "gossip": run_gossip_scenario,
    "dissemination": run_dissemination_scenario,
}

#: small-but-real cell every parity test runs (short mode keeps CI fast)
CELL = dict(nodes=12, seed=11, duration="short")


# ------------------------------------------------------- reference store
def _alive_daemons(store: JobStore) -> List[Splayd]:
    return [d for d in store.daemons.values() if d.alive]


def _alive_host_ips(store: JobStore) -> List[str]:
    return sorted(ip for ip, daemon in store.daemons.items() if daemon.alive)


def _failed_host_ips(store: JobStore) -> List[str]:
    return sorted(ip for ip, daemon in store.daemons.items()
                  if not daemon.alive)


def _plan_placements(store: JobStore, job, count: int) -> List[Tuple[Splayd, int]]:
    plan: List[Tuple[Splayd, int]] = []
    pending: Dict[str, int] = {}
    for _ in range(count):
        daemon = _select_daemon(store, pending)
        if daemon is None:
            break
        plan.append((daemon, job.allocate_instance_id()))
        pending[daemon.ip] = pending.get(daemon.ip, 0) + 1
    return plan


def _select_daemon(store: JobStore, pending: Dict[str, int]) -> Optional[Splayd]:
    candidates = []
    for daemon in store.alive_daemons():
        load = len(daemon.instances) + pending.get(daemon.ip, 0)
        if daemon.limits.max_instances is not None and \
                load >= daemon.limits.max_instances:
            continue
        candidates.append((load, daemon))
    if not candidates:
        return None
    # Prefer emptier daemons (balanced placement) with a random tiebreak,
    # keyed on ip so the choice is stable across runs with one seed.
    candidates.sort(key=lambda entry: (entry[0], entry[1].ip))
    emptiest = candidates[0][0]
    pool = [daemon for load, daemon in candidates if load == emptiest]
    return store._rng.choice(pool)


def use_reference_store(monkeypatch) -> None:
    """Recompute every store view from scratch and plan placements naively."""
    for name, reference in (("alive_daemons", _alive_daemons),
                            ("alive_host_ips", _alive_host_ips),
                            ("failed_host_ips", _failed_host_ips),
                            ("plan_placements", _plan_placements)):
        monkeypatch.setattr(JobStore, name, reference)


# ------------------------------------------------------------- digest parity
@pytest.mark.parametrize("workload", sorted(RUNNERS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_digest_identical_with_gc_policy_and_caches_toggled(workload, kernel,
                                                            monkeypatch):
    # The whole point of the perf cuts: the tuned GC policy and the cached
    # store must never move a digest-relevant byte against GC off and the
    # reference store, on any workload, on the wheel or the heap reference.
    use_heap_kernel(monkeypatch, kernel)
    runner = RUNNERS[workload]
    tuned = runner(gc_policy="tuned", **CELL)
    use_reference_store(monkeypatch)
    plain = runner(gc_policy="off", **CELL)
    assert report_digest(plain) == report_digest(tuned)


def test_digest_identical_in_tuned_mode_under_churn(monkeypatch):
    # Tuned mode freezes the deployed graph — still invisible to the
    # simulation, even while churn exercises the cache invalidation paths.
    base = dict(nodes=12, seed=7, duration="short", churn=True)
    thresholds = gc.get_threshold()
    tuned = run_chord_scenario(gc_policy="tuned", **base)
    assert gc.get_threshold() == thresholds  # disengage() restored them
    assert gc.get_freeze_count() == 0
    use_reference_store(monkeypatch)
    plain = run_chord_scenario(gc_policy="off", **base)
    assert report_digest(plain) == report_digest(tuned)


# --------------------------------------------------------- gc policy lifecycle
def test_gc_policy_rejects_unknown_modes():
    for mode in ("aggressive", "manual"):
        with pytest.raises(ValueError):
            GCPolicy(mode)
    assert set(GC_MODES) == {"off", "tuned"}


def test_gc_policy_engage_disengage_restores_interpreter_state():
    before_thresholds = gc.get_threshold()
    before_enabled = gc.isenabled()
    policy = GCPolicy("tuned").engage()
    assert gc.get_threshold() == TUNED_THRESHOLDS
    policy.after_deploy()
    assert gc.isenabled() == before_enabled  # ambient collection stays on
    assert policy.frozen_objects > 0
    assert policy.explicit_collects == 1  # after_deploy's gen2 collect
    policy.disengage()
    assert gc.get_threshold() == before_thresholds
    assert gc.get_freeze_count() == 0
    assert gc.isenabled() == before_enabled
    # Idempotent: a second disengage must not double-restore or collect.
    policy.disengage()
    assert policy.explicit_collects == 1
    assert gc.get_threshold() == before_thresholds


@pytest.mark.parametrize("broken", [{"testbed": "bogus"}, {"ctl_shards": 0}],
                         ids=["unknown-testbed", "zero-shards"])
def test_failed_deploy_leaves_the_interpreter_gc_state_alone(broken):
    # deploy() engages the tuned policy before it builds the testbed and
    # the controller; when either raises, the policy must be disengaged.
    thresholds, frozen = gc.get_threshold(), gc.get_freeze_count()
    with pytest.raises(Exception):
        run_chord_scenario(nodes=8, duration="short", **broken)
    assert gc.get_threshold() == thresholds
    assert gc.get_freeze_count() == frozen


def test_gc_policy_section_reports_counters():
    policy = GCPolicy("tuned").engage()
    policy.after_deploy()
    policy.disengage()
    section = policy.section()
    assert section["mode"] == "tuned"
    assert section["explicit_collects"] == 1
    assert section["frozen_objects"] > 0
    assert section["pause_wall_s"] >= 0.0
    assert len(section["ambient_collections"]) == 3


def test_tuned_gc_section_lands_in_the_report_and_not_the_digest():
    report = run_chord_scenario(gc_policy="tuned", **CELL)
    assert report["gc"]["mode"] == "tuned"
    assert report["gc"]["frozen_objects"] > 0
    assert report["phase_wall"]["deploy"] >= 0.0
    stripped = {k: v for k, v in report.items() if k not in ("gc", "phase_wall")}
    assert report_digest(stripped) == report_digest(report)


# ------------------------------------------------------------- cached views
def _world(seed=0, daemons=6, max_instances=4):
    sim = Simulator(seed)
    network = Network(sim, seed=seed)
    controller = Controller(sim, network, seed=seed)
    for i in range(daemons):
        controller.register_daemon(Splayd(
            sim, network, f"10.0.0.{i + 1}",
            SplaydLimits(max_instances=max_instances)))
    return sim, network, controller


def _store_views(controller):
    return (controller.alive_host_ips(), controller.failed_host_ips(),
            [d.ip for d in controller.store.alive_daemons()])


def test_cached_views_track_instance_and_host_churn():
    sim, _network, controller = _world()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=8))
    controller.start(job)
    store = controller.store
    assert [i.instance_id for i in job.live_instances()] == list(range(8))

    # Instance death through the daemon's reap path invalidates the job's
    # live view.
    victim = job.live_instances()[3]
    controller.kill_instance(victim, reason="test")
    sim.run(until=sim.now + 1.0)
    assert victim not in job.live_instances()
    assert job.live_instances() == job._recompute_live_instances()

    # Host failure invalidates every store-level view.
    controller.fail_host("10.0.0.2")
    assert "10.0.0.2" in controller.failed_host_ips()
    assert "10.0.0.2" not in controller.alive_host_ips()
    assert controller.alive_host_ips() == sorted(
        d.ip for d in store.daemons.values() if d.alive)
    controller.recover_host("10.0.0.2")
    assert "10.0.0.2" in controller.alive_host_ips()
    assert controller.failed_host_ips() == []
    assert job.live_instances() == job._recompute_live_instances()


def test_cached_and_uncached_worlds_agree_through_host_churn(monkeypatch):
    def timeline():
        sim, _network, controller = _world(seed=5)
        job = controller.submit(JobSpec(
            name="app", app_factory=lambda i: None, instances=10,
            churn_script=("at 5s crash 30%\nat 8s fail 1\n"
                          "at 12s join 2\nat 15s recover 1\n")))
        controller.start(job)
        snapshots = []
        for until in (6.0, 9.0, 13.0, 20.0):
            sim.run(until=until)
            snapshots.append((_store_views(controller),
                              [i.instance_id for i in job.live_instances()]))
        return snapshots

    cached = timeline()
    use_reference_store(monkeypatch)
    assert cached == timeline()


@pytest.mark.parametrize("churn_kwargs", [
    {"churn": True},
    {"churn_trace": synthetic_availability_trace(hosts=6, duration=120.0,
                                                 seed=3)},
], ids=["script-churn", "trace-churn"])
def test_scenario_digests_identical_with_caches_under_churn(churn_kwargs,
                                                            monkeypatch):
    # End-to-end: scripted instance churn and trace-driven host churn both
    # hammer the invalidation paths; the sanitizer cross-checks every cache
    # against a recompute after each control action and must stay silent.
    base = dict(nodes=12, seed=4, duration="short", sanitize=True)
    cached = run_chord_scenario(**base, **churn_kwargs)
    use_reference_store(monkeypatch)
    oracle = run_chord_scenario(**base, **churn_kwargs)
    assert cached["sanitizer"]["violations"] == 0
    assert report_digest(cached) == report_digest(oracle)


def test_sanitizer_catches_a_stale_alive_cache():
    sim, _network, controller = _world(seed=9)
    san = Sanitizer(sim).install()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=4))
    controller.start(job)
    store = controller.store
    assert san.counts == {}

    # Corrupt the memoized alive-IP view the way a missed invalidation
    # would: the cache keeps advertising a host that is no longer alive.
    store.alive_host_ips()  # populate
    store._alive_ips_cache.append("10.0.0.99")
    controller.start_instances(job, 1)  # any control action cross-checks
    assert san.counts.get("store_cache", 0) >= 1
    assert any("alive-ip cache" in v.detail for v in san.violations)


def test_sanitizer_catches_a_stale_live_instance_cache():
    sim, _network, controller = _world(seed=9)
    san = Sanitizer(sim).install()
    job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                    instances=4))
    other = controller.submit(JobSpec(name="other",
                                      app_factory=lambda i: None, instances=1))
    controller.start(job)
    job.live_instances().pop()  # mutate the cached list in place
    # A control action on a *different* job cross-checks every job's cache
    # (acting on the corrupted job itself would legitimately invalidate it).
    controller.start(other)
    assert san.counts.get("store_cache", 0) >= 1
    assert any("live-instance cache" in v.detail for v in san.violations)


# ---------------------------------------------------------- bucketed planner
def test_bucketed_placement_matches_the_naive_kill_switch_path(monkeypatch):
    # The bucketed planner must consume the RNG and pick daemons exactly
    # like the original sort-the-world-per-instance loop (the reference
    # planner above), including across capacity exhaustion and post-churn
    # refills.
    def placements():
        sim, _network, controller = _world(seed=13, daemons=5,
                                           max_instances=3)
        job = controller.submit(JobSpec(name="app", app_factory=lambda i: None,
                                        instances=9))
        controller.start(job)
        controller.fail_host("10.0.0.4")
        sim.run(until=sim.now + 1.0)
        controller.start_instances(job, 4)  # refill after the failure
        return [(p.ip, p.instance_id) for p in job.placements]

    bucketed = placements()
    use_reference_store(monkeypatch)
    assert bucketed == placements()
