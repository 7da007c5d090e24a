"""End-to-end experiment scenarios (``python -m repro.apps.scenarios``).

Every registered workload (Chord, Pastry, epidemic gossip, BitTorrent-style
dissemination — see :mod:`repro.apps.registry`) gets a subcommand with the
same deployment/churn/measurement plumbing: deploy through the controller
onto splayd daemons spread over the selected testbed preset (``--testbed``:
transit-stub by default, or cluster / planetlab / mixed — see
:mod:`repro.testbeds`), replay a churn script (``--churn`` /
``--churn-script``) and/or an Overnet-style availability trace
(``--churn-trace``) against the job, then measure the workload once the
system re-converges.  ``--cdf PATH`` dumps the measured latency
distribution as a ``(latency_ms, fraction)`` CSV — the shape of the paper's
Figures 7-13.

Everything is driven by one root seed: topology, placement, join staggering,
churn victim selection and the workload all draw from deterministic
substreams, so a given command line always produces the same report (and
prints the same ``report digest``).

``scenarios bench`` sweeps nodes x churn-rate (and optionally host-count)
grids for any registered workload and emits CSV + JSON perf numbers with a
regression gate.  ``--jobs N`` spreads the grid cells over an N-worker
process pool (deterministic columns stay byte-identical with the serial
run); ``--scale`` switches to the large-deployment profile (Chord at
1k/5k/10k nodes with fixed windows, per-cell peak RSS).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from typing import List, Optional

try:  # resource is POSIX-only; peak-RSS columns degrade to 0 elsewhere
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.apps import harness, registry
# Re-exported for compatibility: the flagship runner and its churn script
# historically lived in this module.
from repro.apps.chord import DEFAULT_CHURN_SCRIPT, run_chord_scenario  # noqa: F401
from repro.core.churn import (
    parse_availability_trace,
    parse_churn_script,
    synthetic_churn_script,
)
from repro.net.bwalloc import allocator_names
from repro.sim.gcpolicy import GC_MODES
from repro.sim.kernel import Simulator
from repro.testbeds import testbed_names

#: historical aliases (the implementations moved to ``repro.apps.harness``)
LookupResult = harness.OpResult
_host_ips = harness.host_ips
_percentile = harness.percentile
_summarise = harness.summarise
_report_digest = harness.report_digest


# ------------------------------------------------------------------ reporting
def _print_report(report: dict, spec: registry.ScenarioSpec) -> None:
    job = report["job"]
    measured = report["measured"]
    label = spec.ops_label
    bits = f", bits={report['bits']}" if report.get("bits") is not None else ""
    print(f"=== SPLAY scenario: {report['scenario']} "
          f"(seed={report['seed']}, nodes={report['nodes']}, "
          f"hosts={report['hosts']}{bits}, "
          f"testbed={report.get('testbed', 'transit-stub')}) ===")
    print(f"virtual time: {report['virtual_time']:.0f}s   "
          f"events: {report['events_executed']}")
    print(f"job: state={job['state']} live={job['live_instances']} "
          f"started={job['instances_started']} "
          f"churn(+{job['churn_joins']}/-{job['churn_leaves']}"
          f"/x{job['churn_crashes']}) "
          f"logs={report['log_records_collected']}")
    shards = (report.get("control_plane") or {}).get("shards") or []
    if shards:
        batches = sum(s["batches_sent"] for s in shards)
        commands = sum(s["commands_sent"] for s in shards)
        print(f"control plane: {len(shards)} shard(s), "
              f"{commands} daemon commands in {batches} batches, "
              f"logs dropped={report.get('log_records_dropped', 0)}")
    if report["churn"]:
        churn = report["churn"]
        hosts = ""
        if churn.get("hosts_failed") or churn.get("hosts_recovered"):
            hosts = (f", {churn.get('hosts_failed', 0)} hosts failed / "
                     f"{churn.get('hosts_recovered', 0)} recovered")
        print(f"churn: {churn['actions_applied']} actions, "
              f"{churn['crashed']} crashed, {churn['left']} left, "
              f"{churn['joined']} joined{hosts}")
    if report["under_churn"]:
        under = report["under_churn"]
        print(f"{label}s under churn: {under['correct']}/{under['issued']} correct "
              f"({100 * under['success_rate']:.1f}%), "
              f"latency p50={under['latency_p50_ms']:.0f}ms "
              f"p95={under['latency_p95_ms']:.0f}ms")
    print(f"measured {label}s: {measured['correct']}/{measured['issued']} correct "
          f"-> success rate {100 * measured['success_rate']:.2f}%")
    print(f"{label} latency: mean={measured['latency_mean_ms']:.0f}ms "
          f"p50={measured['latency_p50_ms']:.0f}ms "
          f"p95={measured['latency_p95_ms']:.0f}ms "
          f"max={measured['latency_max_ms']:.0f}ms")
    print(f"{label} hops: mean={measured['hops_mean']:.2f} max={measured['hops_max']}")
    workload = report.get("workload") or {}
    for key in spec.extra_report_lines:
        if key in workload:
            value = workload[key]
            if isinstance(value, float):
                value = f"{value:.4f}"
            print(f"{spec.name} {key.replace('_', ' ')}: {value}")
    network = report["network"]
    print(f"network: {network['messages_sent']} sent, "
          f"{network['messages_delivered']} delivered, "
          f"{network['messages_dropped']} dropped, "
          f"{network['bytes_sent']} bytes")
    print(f"report digest: {harness.report_digest(report)}")


# --------------------------------------------------------------------- bench
#: CSV columns emitted by ``scenarios bench`` (one row per grid cell;
#: ``recompute`` is the bandwidth recomputation mode of ``bwalloc`` rows)
BENCH_CSV_COLUMNS = [
    "row_type", "workload", "testbed", "nodes", "hosts", "churn_rate",
    "ctl_shards", "bw_alloc", "recompute", "seed", "seeds", "jobs",
    "wall_sec", "virtual_time", "events_executed", "events_per_sec",
    "events_per_sec_ci95", "wall_per_virtual_sec", "peak_rss_kb",
    "wall_deploy_s", "wall_run_s", "wall_drain_s",
    "lookups_issued", "lookups_correct", "success_rate",
    "latency_p50_ms", "latency_p95_ms", "hops_mean",
    "rpc_calls_sent", "rpc_retries", "rpc_timeouts",
    "messages_sent", "messages_dropped", "bytes_sent",
    "churn_joins", "churn_leaves", "churn_crashes",
    "report_digest",
    "profile_wall_s", "profile_sites", "profile_top_site", "profile_top_share",
]

#: columns that legitimately differ between runs, machines and ``--jobs``
#: settings — everything else must be byte-identical for the same grid cell
#: whatever the worker count (tests compare :func:`deterministic_row_view`)
BENCH_TIMING_COLUMNS = frozenset({
    "wall_sec", "events_per_sec", "events_per_sec_ci95",
    "wall_per_virtual_sec", "peak_rss_kb", "jobs",
    "wall_deploy_s", "wall_run_s", "wall_drain_s",
    "profile_wall_s", "profile_sites", "profile_top_site", "profile_top_share",
})


def deterministic_row_view(row: dict) -> dict:
    """A bench row minus its timing/measurement columns.

    This is the parallelism contract: for the same grid cell this view is
    byte-identical whether the cell ran serially, on a process pool, or on
    another machine.
    """
    return {key: value for key, value in row.items()
            if key not in BENCH_TIMING_COLUMNS}


def _peak_rss_kb() -> int:
    """This process's peak resident set size in KB (0 where unsupported)."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KB on Linux
        peak //= 1024
    return int(peak)

#: two-sided 95 % Student-t critical values by degrees of freedom (n - 1);
#: beyond 30 the normal approximation is close enough
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
        19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
        25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042}


def mean_ci95(values: List[float]) -> tuple:
    """Sample mean and the half-width of its 95 % confidence interval."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _T95.get(n - 1, 1.96)
    return mean, t * math.sqrt(variance / n)


#: numeric bench columns averaged over a multi-seed sweep (name -> digits)
_SEED_MEAN_COLUMNS = {
    "wall_sec": 4, "virtual_time": 3, "events_per_sec": 1,
    "wall_per_virtual_sec": 6, "success_rate": 6,
    "latency_p50_ms": 3, "latency_p95_ms": 3, "hops_mean": 4,
}


def _aggregate_seed_rows(per_seed: List[dict]) -> dict:
    """Fold one cell's per-seed rows into one row of means.

    The emitted ``events_per_sec`` is the across-seed mean (what ``--check``
    gates on) with its 95 % CI half-width in ``events_per_sec_ci95``; other
    latency/quality columns are seed means too.  Count-like columns (and the
    ``report_digest``) are kept from the first seed — digests are per-seed
    values and have no meaningful aggregate.
    """
    row = dict(per_seed[0])
    row["seeds"] = len(per_seed)
    row["events_per_sec_ci95"] = 0.0
    if len(per_seed) > 1:
        for key, digits in _SEED_MEAN_COLUMNS.items():
            values = [r[key] for r in per_seed
                      if isinstance(r.get(key), (int, float))]
            if values:
                row[key] = round(sum(values) / len(values), digits)
        row["events_executed"] = round(
            sum(r["events_executed"] for r in per_seed) / len(per_seed))
        _mean, ci = mean_ci95([r["events_per_sec"] for r in per_seed])
        row["events_per_sec_ci95"] = round(ci, 1)
    return row


def _kernel_timer_churn(nodes: int, duration: float = 60.0,
                        seed: int = 7, repeats: int = 3) -> dict:
    """Kernel-isolated benchmark: the scenario's timer workload, no app code.

    Replays the hot event pattern the runtime generates per node — RPC
    timeout timers that are almost always cancelled shortly after (the reply
    arrived), immediate process-step events, and short network-latency
    delays — so the measured events/sec is the queue machinery itself.
    The identical (seeded) event stream runs ``repeats`` times and the best
    wall time is reported: the microbench is short enough that scheduler /
    frequency-scaling noise otherwise dominates the regression gate.
    """
    def noop() -> None:
        return None

    wall = float("inf")
    sim = None
    for _ in range(max(1, repeats)):
        sim = Simulator(seed)
        rng = sim.rng

        def rpc_fire(index: int) -> None:
            timer = sim.schedule(3.0, noop)  # RPC timeout guard
            if rng.random() < 0.9:
                # the reply arrives: cancel the timeout shortly after issue
                sim.schedule(0.05 + rng.random() * 0.15, timer.cancel)
            sim.schedule(0.0, noop)  # coroutine step
            sim.schedule(0.0, noop)  # future resumption
            sim.schedule(0.01 + rng.random() * 0.2, noop)  # message delivery
            sim.schedule(0.5 + rng.random(), rpc_fire, index)  # next round

        for index in range(nodes):
            sim.schedule(rng.random(), rpc_fire, index)
        start = time.perf_counter()  # det: ignore[DET102] -- bench wall timing
        sim.run(until=duration)
        wall = min(wall, time.perf_counter() - start)  # det: ignore[DET102] -- bench wall timing
    return {
        "row_type": "kernel",
        "workload": "",
        "testbed": "",
        "nodes": nodes,
        "hosts": "",
        "churn_rate": "",
        "ctl_shards": "",
        "seed": seed,
        "seeds": 1,
        "events_per_sec_ci95": "",
        "wall_sec": round(wall, 4),
        "virtual_time": duration,
        "events_executed": sim.executed_events,
        "events_per_sec": round(sim.executed_events / wall, 1) if wall > 0 else 0.0,
        "wall_per_virtual_sec": round(wall / duration, 6),
    }


def _bench_scenario_row(spec: registry.ScenarioSpec, nodes: int,
                        churn_rate: float, seed: int, report: dict,
                        wall: float) -> dict:
    network = report["network"]
    job = report["job"]
    virtual = report["virtual_time"]
    row = {
        "row_type": "scenario",
        "workload": spec.name,
        "testbed": report.get("testbed", "transit-stub"),
        "nodes": nodes,
        "hosts": report["hosts"],
        "churn_rate": churn_rate,
        "ctl_shards": report.get("ctl_shards", 1),
        "bw_alloc": (report.get("bw_alloc") or {}).get("allocator", "max-min"),
        "seed": seed,
        "wall_sec": round(wall, 4),
        "virtual_time": round(virtual, 3),
        "events_executed": report["events_executed"],
        "events_per_sec": round(report["events_executed"] / wall, 1) if wall > 0 else 0.0,
        "wall_per_virtual_sec": round(wall / virtual, 6) if virtual else 0.0,
        "rpc_calls_sent": report["rpc"]["calls_sent"],
        "rpc_retries": report["rpc"]["retries"],
        "rpc_timeouts": report["rpc"]["timeouts"],
        "messages_sent": network["messages_sent"],
        "messages_dropped": network["messages_dropped"],
        "bytes_sent": network["bytes_sent"],
        "churn_joins": job["churn_joins"],
        "churn_leaves": job["churn_leaves"],
        "churn_crashes": job["churn_crashes"],
        "report_digest": harness.report_digest(report),
    }
    # Phase wall attribution (deploy vs run vs drain): where the cell's host
    # time went, not how long the experiment was — digest-excluded upstream.
    phase = report.get("phase_wall") or {}
    row["wall_deploy_s"] = phase.get("deploy", "")
    row["wall_run_s"] = phase.get("run", "")
    row["wall_drain_s"] = phase.get("drain", "")
    profile = report.get("profile") or {}
    top = profile["top"][0] if profile.get("top") else {}
    row["profile_wall_s"] = profile.get("wall_s", "")
    row["profile_sites"] = profile.get("sites", "")
    row["profile_top_site"] = top.get("site", "")
    row["profile_top_share"] = top.get("wall_share", "")
    row.update(spec.bench_metrics(report))
    return row


def _bench_task_row(task: dict) -> dict:
    """Execute one bench task descriptor and return its row.

    Top-level (picklable) so ``--jobs N`` can ship tasks to pool workers;
    descriptors are pure data (the workload name, grid coordinates
    and runner kwargs), so a task produces the same deterministic columns in
    any process.  ``kind`` selects the task type: a ``scenario`` grid cell,
    a ``scale`` profile cell, or the kernel ``micro`` benchmark.
    """
    registry.load_builtin()
    kind = task["kind"]
    if kind == "micro":
        row = _kernel_timer_churn(task["nodes"], duration=task["duration"])
    elif kind == "bwalloc":
        row = _bwalloc_step_bench(task["allocator"], task["flows"],
                                  task["mode"], seed=task["seed"],
                                  steps=task["steps"])
    else:
        spec = registry.get_spec(task["workload"])
        start = time.perf_counter()  # det: ignore[DET102] -- bench wall timing
        report = spec.runner(**task["runner_kwargs"])
        wall = time.perf_counter() - start  # det: ignore[DET102] -- bench wall timing
        row = _bench_scenario_row(spec, task["nodes"], task["churn_rate"],
                                  task["seed"], report, wall)
        if kind == "scale":
            row["row_type"] = "scale"
    # Meaningful per cell only with fresh workers (scale mode); in a serial
    # or shared-worker run this is the process's cumulative high-water mark.
    row["peak_rss_kb"] = _peak_rss_kb()
    for column in ("wall_deploy_s", "wall_run_s", "wall_drain_s",
                   "profile_wall_s", "profile_sites",
                   "profile_top_site", "profile_top_share"):
        row.setdefault(column, "")
    return row


def _run_bench_tasks(tasks: List[dict], jobs: int,
                     fresh_workers: bool = False) -> List[dict]:
    """Run bench tasks serially or on a process pool, preserving task order.

    ``jobs <= 1`` without ``fresh_workers`` runs in-process (the historical
    serial path).  Otherwise a ``ProcessPoolExecutor`` executes the tasks;
    ``map(..., chunksize=1)`` keeps results in submission order, so row
    assembly is identical for any worker count.  ``fresh_workers`` recycles
    the worker after every task (``max_tasks_per_child=1``) so each cell's
    peak RSS is its own; on Python < 3.11 (no such parameter) workers are
    shared and RSS becomes cumulative per worker.
    """
    if jobs <= 1 and not fresh_workers:
        return [_bench_task_row(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    executor = None
    if fresh_workers:
        try:
            executor = ProcessPoolExecutor(max_workers=max(1, jobs),
                                           max_tasks_per_child=1)
        except TypeError:  # pragma: no cover - Python < 3.11
            executor = None
    if executor is None:
        executor = ProcessPoolExecutor(max_workers=max(1, jobs))
    with executor:
        return list(executor.map(_bench_task_row, tasks, chunksize=1))


def run_bench(nodes_list: List[int], churn_rates: List[float],
              seed: int = 0, lookups: int = 100,
              micro_duration: float = 60.0, quiet: bool = False,
              workload: str = "chord",
              hosts_list: Optional[List[Optional[int]]] = None,
              ctl_shards: int = 1, testbed: str = "transit-stub",
              seeds: int = 1, jobs: int = 1, sanitize: bool = False,
              profile: bool = False, gc_policy: str = "tuned") -> dict:
    """Sweep the scenario grid and the kernel microbenchmark; return the summary.

    Every ``(nodes, hosts, churn_rate)`` cell runs the workload once per
    seed.  ``hosts_list`` adds a host-count sweep dimension (``None`` = the
    workload's default of nodes/2); ``ctl_shards`` runs every scenario cell
    with that many controller front-ends; ``testbed`` selects the
    environment preset every cell deploys on.  With ``seeds > 1`` each cell
    runs once per root seed (``seed .. seed+N-1``) and its row carries the
    across-seed mean ``events_per_sec`` plus a 95 % CI half-width.

    ``jobs > 1`` runs the flattened task list (grid cells x seeds, then the
    microbench cells) on a process pool.  Each task seeds its own
    simulator from pure descriptor data, so every deterministic column (see
    :data:`BENCH_TIMING_COLUMNS` for the exclusions) and every report digest
    is byte-identical with the serial run; only wall-clock-derived numbers
    move.  Progress lines print after the sweep in grid order.
    """
    def say(text: str) -> None:
        if not quiet:
            print(text, flush=True)

    if seeds < 1:
        raise ValueError("bench needs at least one seed")
    if jobs < 1:
        raise ValueError("bench needs at least one worker")
    spec = registry.get_spec(workload)
    hosts_sweep: List[Optional[int]] = hosts_list if hosts_list else [None]
    # Flatten the grid into pure task descriptors first: execution (serial or
    # pooled) is separated from row assembly, which walks the same nested
    # loops over the ordered results so rows come out identical either way.
    tasks: List[dict] = []
    for nodes in nodes_list:
        for hosts in hosts_sweep:
            for rate in churn_rates:
                script = synthetic_churn_script(duration=120.0, period=30.0,
                                                fraction=rate) if rate > 0 else None
                for offset in range(seeds):
                    kwargs = dict(nodes=nodes, hosts=hosts, seed=seed + offset,
                                  churn_script=script, ctl_shards=ctl_shards,
                                  testbed=testbed, sanitize=sanitize,
                                  profile=profile, gc_policy=gc_policy)
                    if spec.ops_param is not None:
                        kwargs[spec.ops_param] = lookups
                    tasks.append({"kind": "scenario", "workload": workload,
                                  "nodes": nodes, "churn_rate": rate,
                                  "seed": seed + offset,
                                  "runner_kwargs": kwargs})
    # micro_duration <= 0 skips the kernel microbenchmark entirely
    micro_nodes = nodes_list if micro_duration > 0 else []
    for nodes in micro_nodes:
        tasks.append({"kind": "micro", "nodes": nodes,
                      "duration": micro_duration})

    results = iter(_run_bench_tasks(tasks, jobs))
    rows: List[dict] = []
    for nodes in nodes_list:
        for hosts in hosts_sweep:
            for rate in churn_rates:
                row = _aggregate_seed_rows([next(results) for _ in range(seeds)])
                row["jobs"] = jobs
                rows.append(row)
                ci = (f" ±{row['events_per_sec_ci95']:.0f}"
                      if seeds > 1 else "")
                say(f"scenario workload={spec.name} testbed={testbed} "
                    f"nodes={nodes} hosts={row['hosts']} churn={rate:g} "
                    f"shards={ctl_shards} seeds={seeds}: "
                    f"{row['events_per_sec']:.0f}{ci} ev/s, "
                    f"success={row['success_rate']:.3f}, "
                    f"wall={row['wall_sec']:.2f}s")
    for nodes in micro_nodes:
        row = next(results)
        row["jobs"] = jobs
        rows.append(row)
        say(f"kernel-timer-churn nodes={nodes}: "
            f"{row['events_per_sec']:.0f} ev/s")

    return {
        "bench": "kernel",
        "config": {
            "workload": workload,
            "testbed": testbed,
            "nodes": nodes_list,
            "hosts": hosts_list,
            "churn_rates": churn_rates,
            "ctl_shards": ctl_shards,
            "seed": seed,
            "seeds": seeds,
            "jobs": jobs,
            "lookups": lookups,
            "micro_duration": micro_duration,
            "sanitize": sanitize,
            "profile": profile,
            "gc_policy": gc_policy,
        },
        "rows": rows,
    }


# --------------------------------------------------------------------- scale
#: default node counts of the large-deployment profile (``bench --scale``)
DEFAULT_SCALE_NODES = [1000, 5000, 10000]
#: base windows for scale cells at the reference size (1k nodes); unlike the
#: grid bench (whose windows scale linearly with the ring size), scale cells
#: grow these only with log10 of the node count — see :func:`scale_windows` —
#: so a 10k-node cell measures per-event and per-node overhead rather than a
#: proportionally longer experiment, while the join wave still has time to
#: stabilise O(log N) ring state per node
SCALE_JOIN_WINDOW = 30.0
SCALE_SETTLE = 20.0
#: node count whose windows are exactly the base values above
SCALE_REFERENCE_NODES = 1000


def scale_windows(nodes: int) -> tuple:
    """``(join_window, settle)`` for one scale cell, growing with log10(N).

    Chord's per-join stabilisation work is O(log N) (successor/finger
    repair), so a window fixed at the 1k-node value starves large rings:
    joins pile up faster than pointers repair and measured success craters
    (0.47 at 1k fell to 0.22 at 5k+ with flat 30 s/20 s windows).  Growing
    the windows by ``1 + log10(N / 1000)`` — 1k: 30/20, 5k: ~51/34,
    10k: 60/40 — keeps the *per-node* join pressure comparable across the
    sweep without reverting to the grid bench's linear windows, which would
    turn a 10k cell into a 10x-longer experiment and hide per-event cost.
    """
    factor = max(1.0, 1.0 + math.log10(max(1, nodes) / SCALE_REFERENCE_NODES))
    return (round(SCALE_JOIN_WINDOW * factor, 3),
            round(SCALE_SETTLE * factor, 3))


def scale_efficiency(rows: List[dict]) -> Optional[float]:
    """events/sec at the largest node count over events/sec at the smallest.

    The machine-independent flatness number ``bench --scale`` exists to
    produce: 1.0 means per-event cost is constant in N, 0.6 means events at
    the largest scale cost ~1.67x what they cost at the smallest.  ``None``
    when the sweep has fewer than two distinct node counts.
    """
    by_nodes = {row["nodes"]: row["events_per_sec"]
                for row in rows if row.get("row_type") == "scale"}
    if len(by_nodes) < 2:
        return None
    smallest, largest = min(by_nodes), max(by_nodes)
    if not by_nodes[smallest]:
        return None
    return round(by_nodes[largest] / by_nodes[smallest], 4)


def run_scale_bench(scales: Optional[List[int]] = None, jobs: int = 1,
                    seed: int = 0, lookups: int = 100,
                    testbed: str = "transit-stub", quiet: bool = False,
                    gc_policy: str = "tuned") -> dict:
    """The large-deployment profile: Chord at 1k/5k/10k nodes, peak RSS per cell.

    Every cell runs in a *fresh* pool worker (``max_tasks_per_child=1``,
    even with ``jobs=1``) so its ``peak_rss_kb`` is that deployment's own
    high-water mark rather than the run's cumulative maximum.  Rows carry
    ``row_type="scale"`` and flow through the same CSV schema and
    :func:`check_bench_regression` gate as the grid bench — the committed
    ``BENCH_scale.json`` baseline gates both events/sec (floor) and peak
    RSS (ceiling) — plus the scale-only ``scale_efficiency`` summary number
    (largest-over-smallest events/sec ratio) that ``--min-scale-efficiency``
    gates without needing a baseline file.  Join/settle windows grow with
    log10(N) per :func:`scale_windows`; ``gc_policy`` is forwarded to
    every cell (results are byte-identical for any setting — that is what
    the digest column proves).
    """
    def say(text: str) -> None:
        if not quiet:
            print(text, flush=True)

    if jobs < 1:
        raise ValueError("bench needs at least one worker")
    scale_list = list(scales) if scales else list(DEFAULT_SCALE_NODES)
    tasks = []
    for nodes in scale_list:
        join_window, settle = scale_windows(nodes)
        kwargs = dict(nodes=nodes, hosts=None, seed=seed, churn_script=None,
                      ctl_shards=1, testbed=testbed, lookups=lookups,
                      join_window=join_window, settle=settle,
                      gc_policy=gc_policy)
        tasks.append({"kind": "scale", "workload": "chord", "nodes": nodes, "churn_rate": 0.0, "seed": seed,
                      "runner_kwargs": kwargs})
    rows = []
    for row in _run_bench_tasks(tasks, jobs, fresh_workers=True):
        row["seeds"] = 1
        row["jobs"] = jobs
        rows.append(row)
        say(f"scale nodes={row['nodes']} hosts={row['hosts']}: "
            f"{row['events_per_sec']:.0f} ev/s, wall={row['wall_sec']:.1f}s "
            f"(deploy={row['wall_deploy_s'] or 0:.1f}s "
            f"run={row['wall_run_s'] or 0:.1f}s "
            f"drain={row['wall_drain_s'] or 0:.1f}s), "
            f"success={row['success_rate']:.3f}, "
            f"peak_rss={row['peak_rss_kb']} KB, "
            f"digest={row['report_digest']}")
    efficiency = scale_efficiency(rows)
    if efficiency is not None:
        say(f"scale efficiency ({max(scale_list)} vs {min(scale_list)} "
            f"nodes): {efficiency:.3f}")
    return {
        "bench": "scale",
        "config": {
            "workload": "chord",
            "testbed": testbed,
            "scales": scale_list,
            "seed": seed,
            "lookups": lookups,
            "join_window": SCALE_JOIN_WINDOW,
            "settle": SCALE_SETTLE,
            "windows": {str(nodes): list(scale_windows(nodes))
                        for nodes in scale_list},
            "gc_policy": gc_policy,
            "jobs": jobs,
        },
        "rows": rows,
        "scale_efficiency": efficiency,
    }


# -------------------------------------------------------------------- bwalloc
#: concurrent-flow counts of the allocation-step profile (``bench --bwalloc``)
DEFAULT_BWALLOC_FLOWS = [100, 500]


def _bwalloc_step_bench(allocator: str, flows: int, mode: str, seed: int = 7,
                        steps: int = 300, repeats: int = 3) -> dict:
    """Allocation-step microbenchmark: flow churn against one allocator.

    Builds a standalone :class:`~repro.net.bandwidth.BandwidthModel` with one
    10 Mbps host per flow, ramps up to ``flows`` concurrent never-finishing
    transfers with random endpoints, then measures the wall time of ``steps``
    churn steps (cancel one random flow, start a replacement — two rate
    recomputations each).  ``mode`` selects incremental component-walk
    recomputation or the global brute force
    (``BandwidthModel.configure(incremental=False)``); the reported
    events/sec is *reallocations per second*, the number the incremental
    engine exists to raise.  Incremental cells also verify the final rate
    vector bit-identically matches a global recompute (``rates_match``) —
    the runtime half of the oracle test in ``tests/test_bwalloc.py``.
    """
    from repro.net.bandwidth import BandwidthModel
    from repro.sim.rng import substream

    incremental = mode == "incremental"
    host_count = flows
    ips = harness.host_ips(host_count)
    wall = float("inf")
    rates_match = True
    realloc_steps = 0
    for _ in range(max(1, repeats)):
        sim = Simulator(seed)
        model = BandwidthModel(sim)
        model.configure(allocator=allocator, incremental=incremental)
        for ip in ips:
            model.set_capacity(ip, 10_000_000, 10_000_000)
        rng = substream(seed, "bwalloc-bench", allocator, mode, str(flows))

        def start_flow():
            src = rng.randrange(host_count)
            dst = rng.randrange(host_count - 1)
            if dst >= src:
                dst += 1
            # Large enough that no flow finishes during the measured loop:
            # every recomputation is driven by the churn steps themselves.
            return model.transfer(ips[src], ips[dst], 1e15)

        active = [start_flow() for _ in range(flows)]
        before = model.reallocations
        start = time.perf_counter()  # det: ignore[DET102] -- bench wall timing
        for _ in range(steps):
            victim = active.pop(rng.randrange(len(active)))
            model.cancel_transfer(victim)
            active.append(start_flow())
        elapsed = time.perf_counter() - start  # det: ignore[DET102] -- bench wall timing
        realloc_steps = model.reallocations - before
        wall = min(wall, elapsed)
        if incremental:
            # Oracle cross-check: replaying the final state through a global
            # recompute must reproduce the incremental rates bit for bit.
            expected = [(t.transfer_id, t.rate_bps) for t in model._active]
            model._incremental = False
            model._reallocate()
            got = [(t.transfer_id, t.rate_bps) for t in model._active]
            if got != expected:
                rates_match = False
    return {
        "row_type": "bwalloc",
        "workload": "",
        "testbed": "",
        "recompute": mode,
        "nodes": flows,
        "hosts": host_count,
        "churn_rate": "",
        "ctl_shards": "",
        "bw_alloc": allocator,
        "seed": seed,
        "seeds": 1,
        "events_per_sec_ci95": "",
        "wall_sec": round(wall, 4),
        "virtual_time": "",
        "events_executed": realloc_steps,
        "events_per_sec": round(realloc_steps / wall, 1) if wall > 0 else 0.0,
        "wall_per_virtual_sec": "",
        "success_rate": 1.0 if rates_match else 0.0,
    }


def run_bwalloc_bench(allocators: Optional[List[str]] = None,
                      flows_list: Optional[List[int]] = None,
                      steps: int = 300, seed: int = 7, jobs: int = 1,
                      quiet: bool = False) -> dict:
    """The allocation-step profile: incremental vs global recompute throughput.

    Every ``(allocator, flows)`` cell runs in both recomputation modes; the
    summary's ``speedups["bwalloc"]`` carries the incremental/global
    reallocations-per-second ratio per cell (the machine-independent number
    the CI leg gates with ``--bwalloc-min-speedup``).  Incremental cells
    whose final rates diverge from the global oracle land in ``mismatches``
    — a correctness failure, not a perf number.
    """
    def say(text: str) -> None:
        if not quiet:
            print(text, flush=True)

    if jobs < 1:
        raise ValueError("bench needs at least one worker")
    allocator_list = list(allocators) if allocators else ["max-min"]
    flows_sweep = list(flows_list) if flows_list else list(DEFAULT_BWALLOC_FLOWS)
    tasks = []
    for allocator in allocator_list:
        for flows in flows_sweep:
            for mode in ("incremental", "global"):
                tasks.append({"kind": "bwalloc", "allocator": allocator,
                              "flows": flows, "mode": mode, "seed": seed,
                              "steps": steps})
    results = iter(_run_bench_tasks(tasks, jobs))
    rows: List[dict] = []
    mismatches: List[str] = []
    for allocator in allocator_list:
        for flows in flows_sweep:
            per_mode = {}
            for mode in ("incremental", "global"):
                row = next(results)
                row["jobs"] = jobs
                rows.append(row)
                per_mode[mode] = row["events_per_sec"]
                say(f"bwalloc allocator={allocator} flows={flows} mode={mode}: "
                    f"{row['events_per_sec']:.0f} reallocations/s, "
                    f"wall={row['wall_sec']:.3f}s")
                if mode == "incremental" and row["success_rate"] < 1.0:
                    mismatches.append(
                        f"allocator={allocator} flows={flows}: incremental "
                        f"rates diverge from the global recompute oracle")
            if per_mode.get("global"):
                say(f"bwalloc allocator={allocator} flows={flows}: "
                    f"incremental/global speedup "
                    f"{per_mode['incremental'] / per_mode['global']:.2f}x")
    return {
        "bench": "bwalloc",
        "config": {
            "allocators": allocator_list,
            "flows": flows_sweep,
            "steps": steps,
            "seed": seed,
            "jobs": jobs,
        },
        "rows": rows,
        "speedups": {"bwalloc": _bwalloc_speedups(rows)},
        "mismatches": mismatches,
    }


def _bwalloc_speedup_failures(summary: dict, min_speedup: float) -> List[str]:
    """Cells whose incremental/global ratio falls below ``min_speedup``."""
    failures = []
    for cell, ratio in (summary.get("speedups", {}).get("bwalloc") or {}).items():
        if ratio < min_speedup:
            failures.append(f"{cell}: incremental/global speedup {ratio:.2f}x "
                            f"is below the required {min_speedup:.1f}x")
    return failures


def _bwalloc_speedups(rows: List[dict]) -> dict:
    """Incremental-over-global reallocations/sec per ``bwalloc`` cell.

    The number the allocation-step CI leg gates, keyed by allocator and
    flow count.
    """
    by_cell: dict = {}
    for row in rows:
        cell = (row["bw_alloc"], row["nodes"])
        by_cell.setdefault(cell, {})[row["recompute"]] = row["events_per_sec"]
    speedups = {}
    for (bw_alloc, flows), per_mode in sorted(by_cell.items(), key=str):
        if per_mode.get("global"):
            speedups[f"allocator={bw_alloc},flows={flows}"] = round(
                per_mode["incremental"] / per_mode["global"], 3)
    return speedups


def write_bench_csv(path: str, rows: List[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=BENCH_CSV_COLUMNS, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def check_bench_regression(summary: dict, baseline: dict,
                           tolerance: float = 0.30,
                           rss_tolerance: float = 0.50) -> List[str]:
    """Compare events/sec against a committed baseline (same grid cells only).

    Returns a list of human-readable failures for rows whose throughput
    dropped more than ``tolerance`` below the baseline.  Baseline rows the
    run does not cover are skipped, but a run that matches *no* baseline row
    fails: a grid or schema mismatch would otherwise pass having compared
    nothing.  Multi-seed rows
    carry the across-seed *mean* in ``events_per_sec``, so that is what the
    gate compares (seed count is part of the cell signature: a 3-seed mean
    is only compared against a 3-seed baseline).  ``scale`` rows (whose
    ``peak_rss_kb`` is a per-cell measurement from a fresh worker) are
    additionally gated on memory: growing more than ``rss_tolerance`` above
    the baseline's peak RSS is a failure too.
    """
    def index(rows: List[dict]) -> dict:
        # The workload signature (testbed, seeds, lookups, virtual duration)
        # is part of the key: rows are only comparable when they ran the
        # same experiment.
        return {(r["row_type"], r.get("workload", ""), r.get("testbed", ""),
                 r.get("recompute", ""), r["nodes"],
                 r.get("hosts", ""), r.get("churn_rate", ""),
                 r.get("ctl_shards", ""), r.get("seeds", ""),
                 r.get("lookups_issued", ""), r.get("virtual_time", "")): r
                for r in rows}

    current = index(summary.get("rows", []))
    failures: List[str] = []
    compared = 0
    for key, base_row in index(baseline.get("rows", [])).items():
        row = current.get(key)
        if row is None:
            continue  # baseline covers a larger grid than this run
        compared += 1
        base = base_row.get("events_per_sec") or 0.0
        seen = row.get("events_per_sec") or 0.0
        if base > 0 and seen < base * (1.0 - tolerance):
            failures.append(
                f"{key}: {seen:.0f} ev/s is {100 * (1 - seen / base):.0f}% below "
                f"baseline {base:.0f} ev/s (tolerance {100 * tolerance:.0f}%)")
        if row.get("row_type") == "scale":
            base_rss = base_row.get("peak_rss_kb") or 0
            seen_rss = row.get("peak_rss_kb") or 0
            if base_rss > 0 and seen_rss > base_rss * (1.0 + rss_tolerance):
                failures.append(
                    f"{key}: peak RSS {seen_rss} KB is "
                    f"{100 * (seen_rss / base_rss - 1):.0f}% above baseline "
                    f"{base_rss} KB (tolerance {100 * rss_tolerance:.0f}%)")
    if not compared:
        failures.append("no baseline row matches a row of this run: the "
                        "check compared nothing (different grid, workload, "
                        "seeds or row schema)")
    return failures


# ----------------------------------------------------------------------- CLI
def _add_common_arguments(parser: argparse.ArgumentParser,
                          spec: registry.ScenarioSpec) -> None:
    parser.add_argument("--nodes", type=int, default=50,
                        help="application instances to deploy")
    parser.add_argument("--hosts", type=int, default=None,
                        help="physical hosts (default: nodes/2, min 8)")
    parser.add_argument("--seed", type=int, default=0, help="root determinism seed")
    parser.add_argument("--churn", action="store_true",
                        help="replay the workload's default churn script")
    parser.add_argument("--churn-script", type=str, default=None, metavar="FILE",
                        help="replay a churn script from FILE instead of the default")
    parser.add_argument("--churn-trace", type=str, default=None, metavar="FILE",
                        help="replay an Overnet-style availability trace "
                             "('host_id start end' lines) as host-level churn")
    parser.add_argument("--testbed", choices=testbed_names(),
                        default="transit-stub",
                        help="deployment environment preset to build")
    parser.add_argument("--join-window", type=float, default=None,
                        help="joins are staggered over this many seconds "
                             "(default: scales with --nodes)")
    parser.add_argument("--settle", type=float, default=None,
                        help="grace period after churn before measuring "
                             "(default: scales with --nodes)")
    parser.add_argument("--duration", choices=("full", "short"), default="full",
                        help="'short' shrinks windows and op counts for CI smoke")
    parser.add_argument("--min-success", type=float,
                        default=spec.default_min_success,
                        help="exit non-zero below this measured success rate")
    parser.add_argument("--ctl-shards", type=int, default=1, metavar="N",
                        help="controller front-ends sharing the job store "
                             "(results are identical for any N >= 1)")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable runtime invariant checks (clock "
                             "monotonicity, free-list integrity, future "
                             "legality, listener/bandwidth consistency); "
                             "observation-only, results are identical")
    parser.add_argument("--bw-alloc", choices=allocator_names(),
                        default="max-min", metavar="NAME",
                        help="flow-level bandwidth allocation strategy "
                             f"({', '.join(allocator_names())}; the default "
                             "max-min keeps the historical digests)")
    parser.add_argument("--cdf", type=str, default=None, metavar="PATH",
                        help="write the measured latency CDF as "
                             "(latency_ms, fraction) CSV to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="collect sim-time metrics (counters/gauges/"
                             "histograms, aggregated per job); digest-"
                             "excluded, results are identical")
    parser.add_argument("--metrics-out", type=str, default=None, metavar="FILE",
                        help="write the metrics report section as JSON to "
                             "FILE (implies --metrics)")
    parser.add_argument("--trace-out", type=str, default=None, metavar="FILE",
                        help="record causal RPC/lookup spans and write "
                             "Chrome trace-event JSON (Perfetto-loadable, "
                             "one track per host) to FILE")
    parser.add_argument("--profile", action="store_true",
                        help="attribute wall time and event counts to kernel "
                             "callback sites; prints a top-N table")
    parser.add_argument("--gc-policy", choices=GC_MODES, default="tuned",
                        help="host-interpreter GC discipline (repro.sim."
                             "gcpolicy): 'tuned' freezes the post-deploy "
                             "heap and raises collector thresholds; "
                             "results are byte-identical for any setting")
    parser.add_argument("--log-level", choices=("DEBUG", "INFO", "WARN", "ERROR"),
                        default="INFO",
                        help="minimum severity the job's instances record")


def _run_scenario_cli(spec: registry.ScenarioSpec, args: argparse.Namespace) -> int:
    script = None
    if args.churn_script:
        try:
            with open(args.churn_script, "r", encoding="utf-8") as handle:
                script = handle.read()
        except OSError as exc:
            print(f"error: cannot read churn script: {exc}", file=sys.stderr)
            return 2
        try:
            parse_churn_script(script)
        except ValueError as exc:
            print(f"error: invalid churn script {args.churn_script}: {exc}",
                  file=sys.stderr)
            return 2
    trace = None
    if args.churn_trace:
        try:
            with open(args.churn_trace, "r", encoding="utf-8") as handle:
                trace = handle.read()
        except OSError as exc:
            print(f"error: cannot read churn trace: {exc}", file=sys.stderr)
            return 2
        try:
            parse_availability_trace(trace)
        except ValueError as exc:
            print(f"error: invalid churn trace {args.churn_trace}: {exc}",
                  file=sys.stderr)
            return 2
    kwargs = dict(nodes=args.nodes, hosts=args.hosts, seed=args.seed,
                  churn=args.churn, churn_script=script, churn_trace=trace,
                  testbed=args.testbed,
                  join_window=args.join_window, settle=args.settle,
                  duration=args.duration,
                  ctl_shards=args.ctl_shards, sanitize=args.sanitize,
                  metrics=args.metrics or bool(args.metrics_out),
                  trace_out=args.trace_out, profile=args.profile,
                  log_level=args.log_level, bw_alloc=args.bw_alloc,
                  gc_policy=args.gc_policy)
    kwargs.update(spec.make_kwargs(args))
    report = spec.runner(**kwargs)
    _print_report(report, spec)
    _print_observability(report, args)
    if args.sanitize:
        sanitizer = report.get("sanitizer") or {}
        count = sanitizer.get("violations", 0)
        print(f"sanitizer: {count} violation(s)"
              + (f" {sanitizer.get('by_kind')}" if count else ""))
        for line in sanitizer.get("reports", []):
            print(f"  {line}", file=sys.stderr)
        if count:
            print("FAIL: sanitizer recorded invariant violations", file=sys.stderr)
            _dump_flight_recorder(report)
            return 2
    if args.cdf:
        samples = report.get("cdf_samples_ms", [])
        if samples:
            count = harness.write_cdf(args.cdf, samples)
            print(f"cdf: wrote {count} samples to {args.cdf}")
        else:
            print(f"cdf: no completed {spec.ops_label}s, nothing written to {args.cdf}")
    ok = report["measured"]["success_rate"] >= args.min_success
    if not ok:
        print(f"FAIL: success rate below {100 * args.min_success:.0f}%",
              file=sys.stderr)
        _dump_flight_recorder(report)
    return 0 if ok else 2


def _print_observability(report: dict, args: argparse.Namespace) -> None:
    """Summarise the metrics/trace/profile sections (and write --metrics-out)."""
    metrics = report.get("metrics")
    if metrics:
        kernel = metrics["kernel"]
        network = metrics["network"]
        registry_size = len(metrics["job"]["registry"])
        print(f"metrics: kernel {kernel['events_dispatched']} dispatched "
              f"/ {kernel['events_recycled']} recycled "
              f"/ {kernel['events_cancelled']} cancelled; "
              f"drops loss={network['drops_loss']} "
              f"dead-host={network['drops_dead_host']} "
              f"no-listener={network['drops_no_listener']}; "
              f"{registry_size} job metric(s)")
    if args.metrics_out and metrics:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        print(f"metrics: wrote section to {args.metrics_out}")
    trace = report.get("trace")
    if trace:
        where = (f", written to {trace['written_to']}"
                 if trace.get("written_to") else "")
        print(f"trace: {trace['spans']} span(s) over {trace['hosts']} "
              f"host track(s), {trace['dropped']} dropped{where}")
    profile = report.get("profile")
    if profile:
        from repro.obs import KernelProfiler
        for line in KernelProfiler.format_table(profile):
            print(line)


def _dump_flight_recorder(report: dict) -> None:
    """Print the report's flight-recorder ring (failure context) to stderr."""
    for line in report.get("flight_recorder") or []:
        print(line, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    registry.load_builtin()
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.scenarios",
        description="SPLAY reproduction scenarios")
    sub = parser.add_subparsers(dest="scenario", required=True)

    for spec in registry.all_specs():
        scenario_parser = sub.add_parser(spec.name, help=spec.help)
        _add_common_arguments(scenario_parser, spec)
        spec.add_arguments(scenario_parser)

    bench = sub.add_parser(
        "bench", help="sweep nodes x churn-rate (x hosts) grids and emit "
                      "CSV + JSON perf numbers")
    bench.add_argument("--workload", choices=registry.scenario_names(),
                       default="chord", help="registered workload to sweep")
    bench.add_argument("--nodes", type=int, nargs="+", default=[50, 100, 200],
                       help="deployment sizes to sweep")
    bench.add_argument("--hosts-list", type=int, nargs="+", default=None,
                       metavar="HOSTS",
                       help="host counts to sweep (default: the workload's "
                            "nodes/2 heuristic only)")
    bench.add_argument("--churn-rates", type=float, nargs="+", default=[0.0, 0.05],
                       help="fraction of live nodes replaced every 30s "
                            "(0 disables churn)")
    bench.add_argument("--ctl-shards", type=int, default=1, metavar="N",
                       help="controller front-ends per scenario run")
    bench.add_argument("--testbed", choices=testbed_names(),
                       default="transit-stub",
                       help="deployment environment preset for scenario cells")
    bench.add_argument("--seed", type=int, default=0, help="root determinism seed")
    bench.add_argument("--seeds", type=int, default=1, metavar="N",
                       help="seeds per scenario cell; N > 1 emits the "
                            "across-seed mean events/sec ± 95%% CI "
                            "(--check gates on the mean)")
    bench.add_argument("--lookups", type=int, default=100,
                       help="measured operations per scenario run")
    bench.add_argument("--micro-duration", type=float, default=60.0,
                       help="virtual seconds of the kernel timer-churn microbench")
    bench.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run grid cells x seeds on an N-worker process "
                            "pool (deterministic columns and digests are "
                            "byte-identical with --jobs 1)")
    bench.add_argument("--scale", action="store_true",
                       help="large-deployment profile instead of the grid: "
                            "chord at --scales node counts with fixed "
                            "windows, peak RSS per cell (fresh worker each)")
    bench.add_argument("--scales", type=int, nargs="+",
                       default=DEFAULT_SCALE_NODES, metavar="NODES",
                       help="node counts swept by --scale")
    bench.add_argument("--min-scale-efficiency", type=float, default=0.0,
                       metavar="RATIO",
                       help="fail (exit 4) when the --scale sweep's "
                            "largest-over-smallest events/sec ratio is "
                            "below RATIO (baseline-free flatness gate)")
    bench.add_argument("--gc-policy", choices=GC_MODES, default="tuned",
                       help="GC discipline for every scenario/scale cell "
                            "(digests are unchanged)")
    bench.add_argument("--bwalloc", action="store_true",
                       help="allocation-step profile instead of the grid: "
                            "flow churn against standalone bandwidth models, "
                            "incremental vs global recompute per cell")
    bench.add_argument("--bwalloc-flows", type=int, nargs="+",
                       default=DEFAULT_BWALLOC_FLOWS, metavar="FLOWS",
                       help="concurrent-flow counts swept by --bwalloc")
    bench.add_argument("--bwalloc-allocators", choices=allocator_names(),
                       nargs="+", default=["max-min"], metavar="NAME",
                       help="allocators swept by --bwalloc")
    bench.add_argument("--bwalloc-steps", type=int, default=300, metavar="N",
                       help="churn steps measured per --bwalloc cell")
    bench.add_argument("--bwalloc-min-speedup", type=float, default=0.0,
                       metavar="RATIO",
                       help="fail (exit 4) when any --bwalloc cell's "
                            "incremental/global speedup is below RATIO")
    bench.add_argument("--csv", type=str, default=None,
                       help="CSV output path (default bench_kernel.csv, or "
                            "bench_scale.csv with --scale)")
    bench.add_argument("--json", type=str, default=None,
                       help="JSON summary output path (default "
                            "BENCH_kernel.json, or BENCH_scale.json "
                            "with --scale)")
    bench.add_argument("--check", type=str, default=None, metavar="BASELINE",
                       help="compare events/sec against a committed baseline "
                            "JSON and exit non-zero on regression")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional events/sec drop for --check")
    bench.add_argument("--rss-tolerance", type=float, default=0.50,
                       help="allowed fractional peak-RSS growth for --check "
                            "of scale rows")
    bench.add_argument("--sanitize", action="store_true",
                       help="run every scenario cell with the runtime "
                            "sanitizer enabled (measures its overhead; "
                            "digests are unchanged)")
    bench.add_argument("--profile", action="store_true",
                       help="run every scenario cell with the kernel "
                            "profiler; adds profile_* columns to the CSV "
                            "(digests are unchanged)")
    bench.add_argument("--quiet", action="store_true", help="suppress progress lines")

    args = parser.parse_args(argv)
    if args.scenario == "bench":
        csv_path = args.csv or ("bench_scale.csv" if args.scale
                                else "bench_bwalloc.csv" if args.bwalloc
                                else "bench_kernel.csv")
        json_path = args.json or ("BENCH_scale.json" if args.scale
                                  else "BENCH_bwalloc.json" if args.bwalloc
                                  else "BENCH_kernel.json")
        if args.bwalloc:
            summary = run_bwalloc_bench(allocators=args.bwalloc_allocators,
                                        flows_list=args.bwalloc_flows,
                                        steps=args.bwalloc_steps,
                                        seed=args.seed, jobs=args.jobs,
                                        quiet=args.quiet)
        elif args.scale:
            summary = run_scale_bench(scales=args.scales, jobs=args.jobs,
                                      seed=args.seed, lookups=args.lookups,
                                      testbed=args.testbed, quiet=args.quiet,
                                      gc_policy=args.gc_policy)
        else:
            summary = run_bench(nodes_list=args.nodes, churn_rates=args.churn_rates,
                                seed=args.seed,
                                lookups=args.lookups,
                                micro_duration=args.micro_duration,
                                quiet=args.quiet, workload=args.workload,
                                hosts_list=args.hosts_list,
                                ctl_shards=args.ctl_shards,
                                testbed=args.testbed, seeds=args.seeds,
                                jobs=args.jobs, sanitize=args.sanitize,
                                profile=args.profile,
                                gc_policy=args.gc_policy)
        write_bench_csv(csv_path, summary["rows"])
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"bench: wrote {len(summary['rows'])} rows to {csv_path} "
              f"and summary to {json_path}")
        for row_type, ratios in summary.get("speedups", {}).items():
            for cell, ratio in ratios.items():
                print(f"speedup[{row_type}] {cell}: {ratio:.2f}x")
        status = 0
        if summary.get("mismatches"):
            for line in summary["mismatches"]:
                print(f"DETERMINISM FAIL: {line}", file=sys.stderr)
            status = 3
        if args.scale and args.min_scale_efficiency > 0:
            efficiency = summary.get("scale_efficiency")
            if efficiency is None:
                print("PERF REGRESSION: --min-scale-efficiency needs at "
                      "least two distinct --scales node counts",
                      file=sys.stderr)
                status = status or 4
            elif efficiency < args.min_scale_efficiency:
                print(f"PERF REGRESSION: scale_efficiency {efficiency:.3f} "
                      f"is below the required "
                      f"{args.min_scale_efficiency:.2f} (events/sec at the "
                      f"largest scale fell too far below the smallest)",
                      file=sys.stderr)
                status = status or 4
        if args.bwalloc and args.bwalloc_min_speedup > 0:
            failures = _bwalloc_speedup_failures(summary,
                                                 args.bwalloc_min_speedup)
            for line in failures:
                print(f"PERF REGRESSION: {line}", file=sys.stderr)
            if failures:
                status = status or 4
        if args.check:
            try:
                with open(args.check, "r", encoding="utf-8") as handle:
                    baseline = json.load(handle)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read baseline {args.check}: {exc}",
                      file=sys.stderr)
                return 2
            failures = check_bench_regression(summary, baseline,
                                              tolerance=args.tolerance,
                                              rss_tolerance=args.rss_tolerance)
            for line in failures:
                print(f"PERF REGRESSION: {line}", file=sys.stderr)
            if failures:
                status = status or 4
        return status
    return _run_scenario_cli(registry.get_spec(args.scenario), args)


if __name__ == "__main__":
    raise SystemExit(main())
