"""Run one benchmark experiment in this (fresh) process and write its result.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --out FILE

``MODE`` is ``timed`` (the experiment as users run it), ``traced`` (the
same experiment under :mod:`tracer`) or ``setup`` (stop once the job is
deployed: a set-up time sample).  ``run.py`` starts one process per
experiment so that imports and peak RSS belong to that experiment alone.
"""

import time

#: set-up time is measured from here: before anything of ``repro`` loads
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer, find_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _SetupDone(Exception):
    """Raised out of the runner once deployment finished (``setup`` mode)."""


def nearest_rank(ordered: list, percent: int) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = -(-percent * len(ordered) // 100)  # ceil, in integers
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def op_metrics(report: dict, results: list) -> dict:
    """Outcomes of the measured operations ``results`` (``harness.OpResult``)."""
    measured = report["measured"]
    latencies = sorted(1000.0 * r.latency for r in results if r.completed)
    issued = measured["issued"]
    return {
        "issued": issued,
        "completed": measured["completed"],
        "correct": measured["correct"],
        "op_success": measured["correct"] / issued if issued else 0.0,
        "op_p50_sim_ms": nearest_rank(latencies, 50),
        "op_p90_sim_ms": nearest_rank(latencies, 90),
        "latency_samples": len(latencies),
    }


def counts(report: dict, deployment) -> dict:
    """Work counts that must repeat exactly for one seed."""
    sim, network = deployment.sim, deployment.network
    bw = report["bw_alloc"]
    net = report["network"]
    rpc = report["rpc"]
    return {
        "events": sim.executed_events,
        "scheduled": sim.executed_events + sim.cancelled_events + sim.pending_events,
        "cancelled": sim.cancelled_events,
        "msgs": net["messages_sent"],
        "delivered": net["messages_delivered"],
        "dropped": net["messages_dropped"],
        "bytes": net["bytes_sent"],
        "rpc_calls": rpc["calls_sent"],
        "rpc_timeouts": rpc["timeouts"],
        "rpc_retries": rpc["retries"],
        "transfers": network.stats.transfers_started,
        "transfers_completed": network.bandwidth.completed,
        "reallocations": bw["reallocations"],
        "flows_allocated": bw["flows_allocated"],
        "churn_actions": (report["churn"] or {}).get("actions_applied", 0),
    }


def output_checks(workload, report: dict, deployment, found: dict) -> list:
    """Failed output checks of one experiment, as messages."""
    from repro.apps import harness

    failures = []
    issued, configured = found["ops"]["issued"], found["configured_ops"]
    if issued != configured:
        failures.append(f"issued {issued} operations, configured {configured}")
    work = found["counts"]
    if work["delivered"] + work["dropped"] > work["msgs"]:
        failures.append(f"messages delivered ({work['delivered']}) + dropped "
                        f"({work['dropped']}) > sent ({work['msgs']})")
    if workload.scenario == "dissemination":
        chunks = report["workload"]["chunks"]
        for app in harness.joined_apps(deployment.job):
            if app.completed_at is not None and app.have != set(range(chunks)):
                failures.append(f"download at {app.me} completed holding "
                                f"{len(app.have)} of {chunks} chunks")
        if work["transfers_completed"] != work["transfers"]:
            failures.append(f"transfers completed ({work['transfers_completed']}) "
                            f"!= started ({work['transfers']})")
    return failures


def run(workload_name: str, seed: int, mode: str, smoke: bool = False) -> dict:
    """One experiment; ``smoke`` shrinks it to the tests' reduced size."""
    from repro.apps import harness, registry

    workload = WORKLOADS[workload_name]
    spec = registry.get_spec(workload.scenario)
    kwargs = workload.kwargs(seed, smoke)

    # Keep hold of the deployment (for the output checks), note when set-up
    # ends, and keep the operation lists the report summarises.  This
    # observes a few calls per experiment; it is not part of the tracing.
    captured = {"summaries": []}
    deploy, summarise = harness.deploy, harness.summarise

    def capture_summarise(results):
        summary = summarise(results)
        captured["summaries"].append((summary, list(results)))
        return summary

    def capture_deploy(*args, **kw):
        deployment = deploy(*args, **kw)
        captured["setup_end"] = time.perf_counter()
        captured["deployment"] = deployment
        if mode == "setup":
            raise _SetupDone
        return deployment

    harness.deploy, harness.summarise = capture_deploy, capture_summarise
    result = {"workload": workload_name, "seed": seed, "mode": mode,
              "configured_ops": workload.expected_ops(kwargs)}
    tracer = None
    try:
        if mode == "traced":
            tracer = Tracer().install()
            tracer.begin()
        else:
            leftovers = find_wrappers()
            if leftovers:
                raise RuntimeError(f"tracing wrappers present before a timed run: {leftovers}")
        started = time.perf_counter()
        try:
            report = spec.runner(**kwargs)
        except _SetupDone:
            report = None
        wall = time.perf_counter() - started
        if tracer is not None:
            wall = tracer.end()
    finally:
        if tracer is not None:
            tracer.uninstall()
        harness.deploy, harness.summarise = deploy, summarise
    result["setup_s"] = captured["setup_end"] - _STARTED
    if report is None:
        return result

    deployment = captured["deployment"]
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["digest"] = harness.report_digest(report)
    measured = [ops for summary, ops in captured["summaries"]
                if summary is report["measured"]]
    result["ops"] = op_metrics(report, measured[0])
    result["counts"] = counts(report, deployment)
    result["failures"] = output_checks(workload, report, deployment, result)
    if tracer is not None:
        result["trace"] = tracer.to_dict()
        result["trace"]["gc_collections"] = tracer.gc_collections
        result["trace"]["processes"] = tracer.processes
        result["trace"]["wrappers_left"] = find_wrappers()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "setup"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.mode)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
