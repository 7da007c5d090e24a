"""The shared job store, controller shards and per-job log collectors.

Paper counterpart: the *splayctl* back end.  "The controller is composed of
several cooperating processes" sharing one database, which is how the
testbed keeps up with hundreds of daemons and heavy log traffic.  This
module reproduces that shape:

* :class:`JobStore` — the shared database: jobs, placements, the host
  (daemon) registry, churn bookkeeping, shard claims and the placement RNG.
  Every piece of state that must look the same no matter which front-end
  serves a request lives here.
* :class:`CtlShard` — one stateless controller front-end.  Daemons register
  through a shard, shards claim jobs from the store, and every daemon
  command a shard issues is *batched*: one :meth:`Splayd.batch_exec` round
  per daemon per control action instead of per-instance calls.
* :class:`LogCollector` — one bounded-queue collector per job.  Instance
  loggers ship records into the queue (drop-oldest when full, with a
  counted drop stat — the paper's log throttling) and a drain event moves
  them into the permanent record list.

Determinism contract: nothing in this module draws randomness or schedules
simulator events in a way that depends on the number of shards.  Placement
uses the store's single RNG substream, batching is a pure regrouping of a
deterministic placement plan, and log-drain events depend only on enqueue
order.  A deployment therefore produces byte-identical workload reports for
1..N shards (asserted by ``tests/test_determinism.py``).

Public entry points: :class:`JobStore`, :class:`CtlShard`,
:class:`LogCollector`, :class:`ShardStats` and :class:`ControllerError`
(re-exported by :mod:`repro.runtime.controller`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.churn import ChurnManager, parse_churn_script, trace_churn_actions
from repro.core.jobs import Job, JobSpec, JobState, Placement
from repro.lib.logging import LogRecord
from repro.net.network import Network
from repro.runtime.splayd import Instance, Splayd, SplaydError
from repro.sim.kernel import Simulator
from repro.sim.rng import substream


class ControllerError(Exception):
    """Raised on invalid job commands (unknown job, no capacity, ...)."""


# ------------------------------------------------------------- log collection
class LogCollector:
    """Per-job log collector process with a bounded ingress queue.

    Records shipped by daemons land in ``queue``; when the queue is full the
    *oldest* queued record is dropped (and counted — both here and on
    ``job.stats.log_records_dropped``).  A drain event scheduled
    ``drain_interval`` after the first enqueue moves everything queued into
    ``records``, the permanent per-job list the controller serves
    ``job_logs`` from; :meth:`flush` drains synchronously (used at report
    time so counts never depend on where the simulation happened to stop).
    """

    def __init__(self, sim: Simulator, job: Job, max_queue: int = 4096,
                 drain_interval: float = 0.25):
        if max_queue < 1:
            raise ValueError("log collector queue must hold at least one record")
        self.sim = sim
        self.job = job
        self.max_queue = max_queue
        self.drain_interval = drain_interval
        #: drained (permanently collected) records
        self.records: List[LogRecord] = []
        #: bounded ingress queue of (record, shard name) pairs
        self.queue: Deque[Tuple[LogRecord, Optional[str]]] = deque()
        self.dropped = 0
        self.collected = 0
        self.queue_peak = 0
        self._drain_scheduled = False

    def offer(self, record: LogRecord, shard: Optional[str] = None) -> bool:
        """Enqueue one record; returns ``False`` if an old record was dropped."""
        record.job_id = self.job.job_id
        evicted = False
        if len(self.queue) >= self.max_queue:
            self.queue.popleft()
            self.dropped += 1
            self.job.stats.log_records_dropped += 1
            evicted = True
        self.queue.append((record, shard))
        if len(self.queue) > self.queue_peak:
            self.queue_peak = len(self.queue)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.sim.schedule(self.drain_interval, self._drain)
        return not evicted

    def _drain(self) -> None:
        self._drain_scheduled = False
        self._drain_queue()

    def _drain_queue(self) -> None:
        while self.queue:
            record, shard = self.queue.popleft()
            self.records.append(record)
            self.collected += 1
            self.job.stats.log_records += 1
            if shard is not None:
                by_shard = self.job.stats.logs_by_shard
                by_shard[shard] = by_shard.get(shard, 0) + 1

    def flush(self) -> List[LogRecord]:
        """Drain synchronously and return the collected record list."""
        self._drain_queue()
        return self.records

    @property
    def pending(self) -> int:
        return len(self.queue)

    def status(self) -> Dict[str, int]:
        return {"collected": self.collected, "dropped": self.dropped,
                "pending": len(self.queue), "queue_peak": self.queue_peak,
                "max_queue": self.max_queue}


# ------------------------------------------------------------------ the store
class JobStore:
    """Shared controller state: the paper's database behind splayctl.

    Shards coordinate exclusively through this object — the daemon registry,
    job table, per-job log collectors, churn managers, shard claims and the
    placement RNG all live here, so any shard can serve any job and a failed
    shard's work can be reclaimed without losing bookkeeping.
    """

    def __init__(self, sim: Simulator, network: Network, seed: Optional[int] = None,
                 log_queue_depth: int = 4096, log_drain_interval: float = 0.25,
                 caches: bool = True):
        self.sim = sim
        self.network = network
        self.seed = seed if seed is not None else sim.seed
        self.daemons: Dict[str, Splayd] = {}
        #: daemon ip -> name of the shard it is currently registered with
        self.daemon_shard: Dict[str, str] = {}
        #: daemon ip -> "up"/"down" as last driven by the control plane
        #: (hosts the control plane never touched are implicitly "up")
        self.host_state: Dict[str, str] = {}
        self.host_failures_total = 0
        self.host_recoveries_total = 0
        self.jobs: Dict[int, Job] = {}
        self.collectors: Dict[int, LogCollector] = {}
        #: per-job metrics registries (repro.obs) — created lazily like the
        #: log collectors, and only when observability is enabled, so jobs
        #: that never record a metric pay nothing
        self.metrics: Dict[int, object] = {}
        self.churn_managers: Dict[int, ChurnManager] = {}
        self.shards: List["CtlShard"] = []
        #: job_id -> shard currently responsible for the job
        self.claims: Dict[int, "CtlShard"] = {}
        self.log_queue_depth = log_queue_depth
        self.log_drain_interval = log_drain_interval
        self._rng = substream(self.seed, "controller")
        # Memoized host views.  The daemon registry and per-daemon liveness
        # change only on registration and host fail/recover — a handful of
        # control-plane events per run — while the views are consulted on
        # every placement, churn action and status call; recomputing them
        # per call is an O(hosts) (or O(hosts log hosts)) cost per event at
        # 10k nodes.  ``caches=False`` is the kill switch that restores the
        # from-scratch recompute everywhere (digest-parity oracle; see
        # tests/test_gcpolicy_caches.py), and the sanitizer cross-checks the
        # cached views after every control action.
        self.caches_enabled = caches
        self._alive_daemons_cache: Optional[List[Splayd]] = None
        self._alive_ips_cache: Optional[List[str]] = None
        self._failed_ips_cache: Optional[List[str]] = None

    # ---------------------------------------------------------------- shards
    def add_shard(self, shard: "CtlShard") -> None:
        self.shards.append(shard)

    def alive_shards(self) -> List["CtlShard"]:
        return [s for s in self.shards if s.alive]

    def claim(self, job: Job, shard: "CtlShard") -> None:
        self.claims[job.job_id] = shard
        shard.stats.jobs_claimed += 1
        job.stats.claimed_by.append(shard.name)

    def claimant(self, job: Job) -> "CtlShard":
        """The shard responsible for ``job``, reclaiming if the owner died."""
        shard = self.claims.get(job.job_id)
        if shard is not None and shard.alive:
            return shard
        return self._reclaim(job)

    def _reclaim(self, job: Job) -> "CtlShard":
        alive = self.alive_shards()
        if not alive:
            raise ControllerError(
                f"job #{job.job_id}: no alive controller shard left to claim it")
        shard = alive[0]  # deterministic: lowest-index survivor
        self.claims[job.job_id] = shard
        shard.stats.jobs_reclaimed += 1
        job.stats.claimed_by.append(shard.name)
        return shard

    def on_shard_failed(self, shard: "CtlShard") -> None:
        """Move a dead shard's daemons and claims to the survivors.

        Daemons are re-registered round-robin over the alive shards (in
        registration order, so the outcome is deterministic); claimed jobs
        are reclaimed lazily by :meth:`claimant` — their stats, placements
        and log collectors live on the store/job and survive untouched.
        """
        alive = self.alive_shards()
        if not alive:
            return
        orphans = [ip for ip, name in self.daemon_shard.items() if name == shard.name]
        for index, ip in enumerate(orphans):
            heir = alive[index % len(alive)]
            self.daemon_shard[ip] = heir.name
            heir.stats.daemons_registered += 1

    # ---------------------------------------------------------------- daemons
    def add_daemon(self, daemon: Splayd, shard: "CtlShard") -> None:
        if daemon.ip in self.daemons:
            raise ControllerError(f"daemon already registered for {daemon.ip}")
        self.daemons[daemon.ip] = daemon
        self.daemon_shard[daemon.ip] = shard.name
        daemon.store = self
        self._note_host_state_changed()
        shard.stats.daemons_registered += 1

    def _note_host_state_changed(self) -> None:
        """Drop the memoized host views (registration, host fail/recover)."""
        self._alive_daemons_cache = None
        self._alive_ips_cache = None
        self._failed_ips_cache = None

    def alive_daemons(self) -> List[Splayd]:
        """Alive daemons in registration order (memoized; do not mutate)."""
        if not self.caches_enabled:
            return [d for d in self.daemons.values() if d.alive]
        cache = self._alive_daemons_cache
        if cache is None:
            cache = [d for d in self.daemons.values() if d.alive]
            self._alive_daemons_cache = cache
        return cache

    def alive_host_ips(self) -> List[str]:
        """Sorted alive-host ips (memoized; do not mutate)."""
        if not self.caches_enabled:
            return sorted(ip for ip, daemon in self.daemons.items() if daemon.alive)
        cache = self._alive_ips_cache
        if cache is None:
            cache = sorted(ip for ip, daemon in self.daemons.items() if daemon.alive)
            self._alive_ips_cache = cache
        return cache

    def failed_host_ips(self) -> List[str]:
        """Sorted failed-host ips (memoized; do not mutate)."""
        if not self.caches_enabled:
            return sorted(ip for ip, daemon in self.daemons.items()
                          if not daemon.alive)
        cache = self._failed_ips_cache
        if cache is None:
            cache = sorted(ip for ip, daemon in self.daemons.items()
                           if not daemon.alive)
            self._failed_ips_cache = cache
        return cache

    def host_alive(self, ip: str) -> bool:
        daemon = self.daemons.get(ip)
        return daemon is not None and daemon.alive

    def shard_for_daemon(self, ip: str) -> "CtlShard":
        """The alive shard a daemon's commands travel through.

        Normally the shard the daemon is registered with; if that shard died
        (and rehoming has not caught this daemon yet) the lowest-index
        survivor serves, exactly like job reclaiming.
        """
        name = self.daemon_shard.get(ip)
        for shard in self.shards:
            if shard.name == name and shard.alive:
                return shard
        alive = self.alive_shards()
        if not alive:
            raise ControllerError("no alive controller shard")
        return alive[0]

    # ------------------------------------------------------------------- jobs
    def create_job(self, spec: JobSpec) -> Job:
        # The job's log collector (queue + record list) is created by
        # :meth:`collector` on the first shipped record, not here — jobs that
        # never log pay nothing.
        job = Job(spec, created_at=self.sim.now, job_id=len(self.jobs) + 1)
        self.jobs[job.job_id] = job
        return job

    def collector(self, job: Job) -> LogCollector:
        existing = self.collectors.get(job.job_id)
        if existing is None:
            existing = LogCollector(self.sim, job, max_queue=self.log_queue_depth,
                                    drain_interval=self.log_drain_interval)
            self.collectors[job.job_id] = existing
        return existing

    def metrics_for(self, job: Job):
        """The job's metrics registry — same store-resident path as logs.

        Instance-side emitters (the RPC layer, workload apps) and the
        report aggregation both resolve the registry through the store, so
        per-job measurements survive shard failover exactly like log
        records do.  Timestamps come from the simulated clock.
        """
        existing = self.metrics.get(job.job_id)
        if existing is None:
            from repro.obs.metrics import MetricsRegistry
            sim = self.sim
            existing = MetricsRegistry(clock=lambda: sim.now)
            self.metrics[job.job_id] = existing
        return existing

    # -------------------------------------------------------------- placement
    def plan_placements(self, job: Job, count: int) -> List[Tuple[Splayd, int]]:
        """Select hosts for ``count`` new instances (no side effects yet).

        Selection is uniform over alive daemons with spare capacity,
        re-evaluated per instance with the instances planned so far counted
        against each daemon's free slots — the exact sequence the monolithic
        controller produced by spawning one instance at a time, but without
        touching the daemons, so the plan can then be executed in batches.
        Fewer than ``count`` placements are returned when capacity runs out.
        Instance ids come from the job's never-reused allocator, so a spawn
        that later fails leaves a gap instead of letting a future plan hand
        a live instance's id to a second node.
        """
        if self.caches_enabled:
            return self._plan_placements_bucketed(job, count)
        plan: List[Tuple[Splayd, int]] = []
        pending: Dict[str, int] = {}
        for _ in range(count):
            daemon = self._select_daemon(pending)
            if daemon is None:
                break
            plan.append((daemon, job.allocate_instance_id()))
            pending[daemon.ip] = pending.get(daemon.ip, 0) + 1
        return plan

    def _plan_placements_bucketed(self, job: Job, count: int) -> List[Tuple[Splayd, int]]:
        """Load-bucketed planner: same plan as :meth:`_select_daemon`, not O(N) per pick.

        The naive planner rebuilds and re-sorts the full candidate list per
        instance — O(N·H log H) for a whole-deployment plan, the dominant
        deploy-phase cost at 10k nodes.  Bucketing daemons by load turns each
        pick into O(1) amortized: draw from the minimum-load bucket, promote
        the chosen daemon to the next one.  No simulator event runs between
        picks, so daemon liveness and true loads cannot shift mid-plan.

        Byte-identical to the naive path by construction: the min-load bucket
        ip-sorted *is* the naive pool, and ``randrange(len(pool))`` consumes
        the RNG exactly like ``choice(pool)`` (both make one ``_randbelow``
        call) — asserted against the naive plan in tests/test_gcpolicy_caches.py.
        """
        plan: List[Tuple[Splayd, int]] = []
        buckets: Dict[int, List[Splayd]] = {}
        available = 0
        for daemon in self.alive_daemons():
            load = len(daemon.instances)
            cap = daemon.limits.max_instances
            if cap is not None and load >= cap:
                continue
            buckets.setdefault(load, []).append(daemon)
            available += 1
        if not buckets:
            return plan
        # Buckets are ip-sorted lazily, the first time they become the
        # minimum: promotions only ever append *above* the active bucket,
        # so each bucket is sorted at most once per level pass.
        dirty = set(buckets)
        load = min(buckets)
        rng = self._rng
        for _ in range(count):
            if not available:
                break
            while load not in buckets:
                load += 1
            pool = buckets[load]
            if load in dirty:
                pool.sort(key=_daemon_ip)
                dirty.discard(load)
            daemon = pool.pop(rng.randrange(len(pool)))
            if not pool:
                del buckets[load]
            available -= 1
            plan.append((daemon, job.allocate_instance_id()))
            new_load = load + 1
            cap = daemon.limits.max_instances
            if cap is None or new_load < cap:
                buckets.setdefault(new_load, []).append(daemon)
                dirty.add(new_load)
                available += 1
        return plan

    def _select_daemon(self, pending: Dict[str, int]) -> Optional[Splayd]:
        candidates = []
        for daemon in self.alive_daemons():
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
        return self._rng.choice(pool)


def _daemon_ip(daemon: Splayd) -> str:
    """Sort key for placement pools (module-level: no per-sort closure)."""
    return daemon.ip


@dataclass
class ShardStats:
    """Per-shard control-plane counters (reported, never digest-relevant)."""

    daemons_registered: int = 0
    jobs_claimed: int = 0
    jobs_reclaimed: int = 0
    hosts_failed: int = 0
    hosts_recovered: int = 0
    batches_sent: int = 0
    commands_sent: int = 0
    instances_started: int = 0
    instances_killed: int = 0
    logs_routed: int = 0


# ------------------------------------------------------------------ the shard
class CtlShard:
    """One stateless controller front-end (one splayctl process).

    A shard holds no job state of its own: everything it needs to serve a
    request comes from (and goes back to) the shared :class:`JobStore`, so
    front-ends can be added, load-balanced or lost without the deployment
    noticing.  Commands to daemons are *batched*: each control action sends
    one ``batch_exec`` round per affected daemon instead of one call per
    instance.
    """

    def __init__(self, store: JobStore, index: int):
        self.store = store
        self.index = index
        self.name = f"ctl{index}"
        self.alive = True
        self.stats = ShardStats()
        store.add_shard(self)

    # ---------------------------------------------------------------- daemons
    def register_daemon(self, daemon: Splayd, controller=None) -> None:
        """Register a daemon with this shard (normally done by the splayd).

        ``controller`` is the object stored on the daemon for log-sink
        wiring — the facade when deployed through one, else this shard.
        """
        self.store.add_daemon(daemon, self)
        daemon.controller = controller if controller is not None else self

    # ------------------------------------------------------------------- jobs
    def submit(self, spec: JobSpec) -> Job:
        """Accept a job for deployment and claim it; returns the job record."""
        job = self.store.create_job(spec)
        self.store.claim(job, self)
        return job

    def start(self, job: Job) -> List[Instance]:
        """Deploy the job: select hosts and spawn every requested instance.

        If the job's spec carries a churn script, a churn manager is created
        and started alongside (its action times are relative to this call).
        """
        if job.state is not JobState.PENDING:
            raise ControllerError(f"job #{job.job_id} is {job.state.value}, not pending")
        job.state = JobState.RUNNING
        instances = self.start_instances(job, job.spec.instances)
        if len(instances) < job.spec.instances:
            # Partial deployment is a failed deployment: tear the already
            # placed instances down so nothing keeps running unmanaged.
            placed = len(instances)
            self.kill_instances(instances, reason="deployment failed")
            job.state = JobState.FAILED
            raise ControllerError(
                f"job #{job.job_id}: only {placed}/{job.spec.instances} "
                f"instances could be placed")
        if job.spec.churn_script or job.spec.churn_trace:
            sim = self.store.sim
            churn = ChurnManager(sim, _churn_driver(self.store), job, seed=sim.seed)
            actions = []
            if job.spec.churn_script:
                actions.extend(parse_churn_script(job.spec.churn_script))
            if job.spec.churn_trace:
                # Availability traces replay as host-level fail/recover
                # actions, merged with (and replayed alongside) any script.
                actions.extend(trace_churn_actions(job.spec.churn_trace))
            churn.load_actions(actions)
            churn.start()
            self.store.churn_managers[job.job_id] = churn
        return instances

    def start_instances(self, job: Job, count: int) -> List[Instance]:
        """Spawn ``count`` additional instances, one command batch per daemon.

        The store plans the placements (deterministically, independent of
        the shard count), then this shard groups the plan by daemon and
        sends one ``batch_exec`` per daemon.  Fewer than ``count`` instances
        are returned when capacity runs out.
        """
        plan = self.store.plan_placements(job, count)
        grouped: Dict[str, Tuple[Splayd, List[int]]] = {}
        for daemon, instance_id in plan:
            grouped.setdefault(daemon.ip, (daemon, []))[1].append(instance_id)
        started: List[Instance] = []
        for daemon, instance_ids in grouped.values():
            commands = [("spawn", job, instance_id) for instance_id in instance_ids]
            error: Optional[Exception] = None
            for outcome in self._dispatch(daemon, commands):
                if isinstance(outcome, Instance):
                    placement = Placement(instance_id=outcome.instance_id,
                                          ip=daemon.ip,
                                          port=outcome.address.port)
                    job.record_start(outcome, placement)
                    started.append(outcome)
                    self.stats.instances_started += 1
                elif (error is None and isinstance(outcome, Exception)
                      and not isinstance(outcome, SplaydError)):
                    # An application bug (e.g. a raising factory), not a
                    # placement failure: surface it — but only after every
                    # spawn that *did* succeed is recorded on the job, so
                    # nothing keeps running untracked.
                    error = outcome
            if error is not None:
                raise error
        self._check_caches()
        return started

    def _check_caches(self) -> None:
        """Sanitizer cross-check of the store's memoized views (if installed)."""
        san = getattr(self.store.sim, "_san", None)
        if san is not None:
            san.check_store_caches(self.store)

    def _dispatch(self, daemon: Splayd, commands: List[tuple]) -> List[object]:
        """One batched command round to one daemon (+ stats)."""
        self.stats.batches_sent += 1
        self.stats.commands_sent += len(commands)
        return daemon.batch_exec(commands)

    # ---------------------------------------------------------------- control
    def kill_instances(self, instances: List[Instance], reason: str = "controller stop",
                       failed: bool = False) -> None:
        """Stop several instances, batching the commands per daemon."""
        grouped: Dict[str, Tuple[Splayd, List[Instance]]] = {}
        for instance in instances:
            grouped.setdefault(instance.daemon.ip,
                               (instance.daemon, []))[1].append(instance)
        for daemon, victims in grouped.values():
            commands = [("kill", instance, reason) for instance in victims]
            outcomes = self._dispatch(daemon, commands)
            error: Optional[Exception] = None
            for instance, outcome in zip(victims, outcomes):
                if (isinstance(outcome, Exception)
                        and not isinstance(outcome, SplaydError)):
                    error = error or outcome
                    continue
                instance.job.record_stop(instance, failed=failed)
                self.stats.instances_killed += 1
            if error is not None:
                raise error
        self._check_caches()

    def kill_instance(self, instance: Instance, reason: str = "controller stop",
                      failed: bool = False) -> None:
        """Stop one instance through its daemon (used directly by churn)."""
        self.kill_instances([instance], reason=reason, failed=failed)

    def stop(self, job: Job) -> None:
        """Stop every instance of a job and mark it stopped."""
        if job.state in (JobState.STOPPED, JobState.FAILED):
            return
        self.kill_instances(list(job.instances), reason=f"job #{job.job_id} stopped")
        job.state = JobState.STOPPED

    # ------------------------------------------------------------ host churn
    def fail_host(self, ip: str) -> int:
        """Take a whole daemon down: every co-located instance (of every job)
        dies, in-flight transfers are cancelled, and the store records the
        host as control-plane-down.  Returns the number of instances killed."""
        daemon = self.store.daemons.get(ip)
        if daemon is None:
            raise ControllerError(f"no daemon on {ip}")
        victims = list(daemon.instances)
        killed = daemon.fail()
        for instance in victims:
            instance.job.record_stop(instance, failed=True)
        self.store.host_state[ip] = "down"
        self.store.host_failures_total += 1
        self.stats.hosts_failed += 1
        self._check_caches()
        return killed

    def recover_host(self, ip: str) -> None:
        """Bring a failed daemon back (empty, like a freshly booted splayd).

        The daemon keeps its registration (and shard assignment): placement
        sees it again immediately, so later joins can land on it.
        """
        daemon = self.store.daemons.get(ip)
        if daemon is None:
            raise ControllerError(f"no daemon on {ip}")
        if daemon.alive:
            return
        daemon.recover()
        self.store.host_state[ip] = "up"
        self.store.host_recoveries_total += 1
        self.stats.hosts_recovered += 1
        self._check_caches()

    # ---------------------------------------------------------------- failure
    def fail(self) -> None:
        """Take this shard down; the store rehomes its daemons and claims."""
        if not self.alive:
            return
        self.alive = False
        self.store.on_shard_failed(self)

    def recover(self) -> None:
        """Bring the shard back as an empty front-end (no claims, no daemons)."""
        self.alive = True

    # ---------------------------------------------------------------- metrics
    def metrics_for(self, job: Job):
        """Per-job metrics registry (store-resident, like the log collector)."""
        return self.store.metrics_for(job)

    # ------------------------------------------------------------------- logs
    def route_log(self, job: Job, record: LogRecord) -> None:
        """Ship one record into the job's bounded collector, attributed here."""
        self.stats.logs_routed += 1
        self.store.collector(job).offer(record, shard=self.name)

    def make_log_sink(self, job: Job,
                      daemon_ip: Optional[str] = None) -> Callable[[LogRecord], None]:
        """Log sink for daemons registered directly with this shard
        (deployments built through the facade use its failover-aware sink)."""
        return lambda record: self.route_log(job, record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<CtlShard {self.name} {state} claimed={self.stats.jobs_claimed}>"


class _churn_driver:
    """The controller handle given to churn managers: routes every command
    through the job's *current* claiming shard, so churn keeps working when
    the shard that started the job dies mid-run."""

    def __init__(self, store: JobStore):
        self.store = store

    def kill_instances(self, instances: List[Instance], reason: str = "churn",
                       failed: bool = False) -> None:
        if not instances:
            return
        self.store.claimant(instances[0].job).kill_instances(
            instances, reason=reason, failed=failed)

    def kill_instance(self, instance: Instance, reason: str = "churn",
                      failed: bool = False) -> None:
        self.kill_instances([instance], reason=reason, failed=failed)

    def start_instances(self, job: Job, count: int) -> List[Instance]:
        return self.store.claimant(job).start_instances(job, count)

    def stop(self, job: Job) -> None:
        self.store.claimant(job).stop(job)

    # Host-level churn routes through the daemon's *current* shard (which
    # follows shard failover), and the host views come from the store.
    def fail_host(self, ip: str) -> int:
        return self.store.shard_for_daemon(ip).fail_host(ip)

    def recover_host(self, ip: str) -> None:
        self.store.shard_for_daemon(ip).recover_host(ip)

    def daemon_ips(self) -> List[str]:
        return sorted(self.store.daemons)

    def alive_host_ips(self) -> List[str]:
        return self.store.alive_host_ips()

    def failed_host_ips(self) -> List[str]:
        return self.store.failed_host_ips()

    def host_alive(self, ip: str) -> bool:
        return self.store.host_alive(ip)
