"""The repo benchmark: wall time, memory and correctness of SPLAY experiments.

    python3 perfbench/run.py --workload swarm --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each experiment runs in a fresh process
(``child.py``), one at a time.  ``--trace 0`` times whole experiments until
``--seconds`` have passed (at least one), takes set-up samples until there
are :data:`SETUP_SAMPLES`, and prints the end-to-end metrics.  ``--trace 1``
times one experiment, then runs it again under the tracer and prints the
per-layer ledger; the spans are written to ``perfbench/out/``.

Every run checks the outputs (see ``NOTES.md``) and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
It exits 1 when a check fails and 2 when the repository is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LEDGER = os.path.join(OUT, "ledger.json")

sys.path.insert(0, HERE)
from workloads import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS  # noqa: E402

#: set-up samples per ``--trace 0`` run (each experiment gives one)
SETUP_SAMPLES = 7
#: a run must end within this many seconds
DEADLINE_S = 170.0

#: deterministic outputs compared across every run of one seed
EXACT_OP_KEYS = ("issued", "completed", "correct", "op_success",
                 "op_p50_sim_ms", "op_p90_sim_ms", "latency_samples")


class BenchmarkError(Exception):
    """A child failed or its outputs disagree: no metrics are printed."""


def source_hash(workload: str) -> str:
    """Hash of the program's sources and of what defines the experiments."""
    digest = hashlib.sha256(workload.encode())
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    for name in ("workloads.py", "child.py"):
        with open(os.path.join(HERE, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one experiment in a fresh process and return its result."""
    out = os.path.join(OUT, f"child-{workload}-{seed}-{mode}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--out", out]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for a {mode} run")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{mode} run of {workload} exceeded the deadline") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} run of {workload} failed "
                             f"(exit {done.returncode}):\n{done.stderr[-3000:]}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(out)
    return result


def fingerprint(result: dict) -> dict:
    """The deterministic part of an experiment's result."""
    return {"digest": result["digest"],
            "ops": {key: result["ops"][key] for key in EXACT_OP_KEYS},
            "counts": result["counts"]}


def trace_fingerprint(traced: dict) -> dict:
    """Counts only a traced run takes; they repeat across traced runs."""
    spans = traced["trace"]["spans"]
    return {"processes": traced["trace"]["processes"],
            "calls": {name: spans[name]["calls"] for name in ("sock.send", "ctl", "ctl.placement")
                      if name in spans}}


def consistency_failures(results: list, workload: str, seed: int) -> list:
    """Experiments of one seed that disagree with each other or the ledger.

    The ledger (``perfbench/out/ledger.json``) remembers the fingerprint of
    every (workload, seed, source) this checkout ran, so repetitions are
    compared across runs as well as within one.
    """
    failures = []
    first = fingerprint(results[0])
    for result in results[1:]:
        if fingerprint(result) != first:
            failures.append(f"{result['mode']} run differs from {results[0]['mode']} run: "
                            f"{fingerprint(result)} != {first}")
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as handle:
            ledger = json.load(handle)
    key = f"{workload}|{seed}|{source_hash(workload)}"
    entries = {key: first}
    entries.update({f"{key}|traced": trace_fingerprint(r)
                    for r in results if r["mode"] == "traced"})
    changed = False
    for entry, found in entries.items():
        recorded = ledger.get(entry)
        if recorded is None:
            ledger[entry] = found
            changed = True
        elif recorded != found:
            failures.append(f"outputs differ from an earlier run of this seed: "
                            f"{found} != {recorded}")
    if changed:
        temporary = LEDGER + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
        os.replace(temporary, LEDGER)
    return failures


def end_to_end(results: list, setup_samples: list) -> dict:
    ops = results[0]["ops"]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MiB"),
        "op_success": (ops["op_success"], "fraction"),
        "op_p50_sim_ms": (ops["op_p50_sim_ms"], "ms"),
        "op_p90_sim_ms": (ops["op_p90_sim_ms"], "ms"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(timed: dict, traced: dict) -> dict:
    """The layer ledger of a traced experiment (see NOTES.md)."""
    trace = traced["trace"]
    spans = trace["spans"]
    work = traced["counts"]
    ops = traced["ops"]["issued"]

    def self_s(*prefixes: str) -> float:
        return sum(s["self_s"] for name, s in spans.items() if name.startswith(prefixes))

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    return {
        "sim.events": (work["events"], "count"),
        "sim.events_per_op": (_ratio(work["events"], ops), "events/op"),
        "sim.events_per_s": (_ratio(work["events"], timed["wall_s"]), "1/s"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.timers_cancelled_frac": (_ratio(work["cancelled"], work["scheduled"]), "fraction"),
        "sim.spawns_per_rpc": (_ratio(trace["processes"], work["rpc_calls"]), "spawns/rpc"),
        "net.msgs": (work["msgs"], "count"),
        "net.msgs_per_op": (_ratio(work["msgs"], ops), "msgs/op"),
        "net.bytes_per_msg": (_ratio(work["bytes"], work["msgs"]), "B/msg"),
        "net.drop_frac": (_ratio(work["dropped"], work["msgs"]), "fraction"),
        "net.send_self_s": (self_s("net.send"), "s"),
        "net.deliver_self_s": (self_s("net.deliver"), "s"),
        "bw.transfers": (work["transfers"], "count"),
        "bw.reallocs_per_transfer": (_ratio(work["reallocations"], work["transfers"]),
                                     "reallocs/xfer"),
        "bw.flows_per_realloc": (_ratio(work["flows_allocated"], work["reallocations"]),
                                 "flows/realloc"),
        "bw.alloc_self_s": (self_s("bw"), "s"),
        "rpc.calls_per_op": (_ratio(work["rpc_calls"], ops), "calls/op"),
        "rpc.timeout_frac": (_ratio(work["rpc_timeouts"], work["rpc_calls"]), "fraction"),
        "rpc.retries": (work["rpc_retries"], "count"),
        "rpc.self_s": (self_s("rpc"), "s"),
        "ser.self_s": (self_s("ser"), "s"),
        "sock.sends": (calls("sock.send"), "count"),
        "sock.self_s": (self_s("sock"), "s"),
        "ctl.actions": (calls("ctl") + calls("ctl.placement"), "count"),
        "ctl.self_s": (self_s("ctl"), "s"),
        "ctl.placement_s": (total_s("ctl.placement"), "s"),
        "churn.actions": (work["churn_actions"], "count"),
        "app.self_s": (self_s("app", "testbed."), "s"),
        "app.deploy_s": (total_s("app.deploy"), "s"),
        "testbed.build_s": (total_s("testbed.build"), "s"),
        "gc.collections": (trace["gc_collections"], "count"),
        "gc.pause_s": (self_s("gc"), "s"),
        "trace.overhead_frac": (traced["wall_s"] / timed["wall_s"] - 1.0, "fraction"),
        "trace.unattributed_s": (self_s("root"), "s"),
    }


#: per-layer self times that, with ``trace.unattributed_s``, make up the
#: traced wall time
SELF_TIME_METRICS = ("sim.self_s", "net.send_self_s", "net.deliver_self_s",
                     "bw.alloc_self_s", "rpc.self_s", "ser.self_s", "sock.self_s",
                     "ctl.self_s", "app.self_s", "gc.pause_s", "trace.unattributed_s")


def trace_failures(traced: dict, ledger: dict) -> list:
    """Checks of a traced run; ``ledger`` is its :func:`per_layer` output."""
    failures = []
    trace = traced["trace"]
    if trace["wrappers_left"]:
        failures.append(f"tracing wrappers not removed: {trace['wrappers_left']}")
    accounted = sum(ledger[name][0] for name in SELF_TIME_METRICS)
    if abs(accounted - traced["wall_s"]) > 1e-6 * max(1.0, traced["wall_s"]):
        failures.append(f"layer self times ({accounted:.6f} s) do not add up to the "
                        f"traced wall time ({traced['wall_s']:.6f} s)")
    if len(trace["ops"]) != traced["ops"]["issued"]:
        failures.append(f"{len(trace['ops'])} operation root spans for "
                        f"{traced['ops']['issued']} measured operations")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time whole experiments until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            timed = run_child(args.workload, args.seed, "timed", deadline)
            traced = run_child(args.workload, args.seed, "traced", deadline)
            results = [timed, traced]
            metrics = per_layer(timed, traced)
            failures = trace_failures(traced, metrics)
            spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(traced["trace"], handle, indent=1)
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        else:
            results = []
            started = time.monotonic()
            while not results or time.monotonic() - started < args.seconds:
                results.append(run_child(args.workload, args.seed, "timed", deadline))
            setup_samples = [r["setup_s"] for r in results]
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(
                    run_child(args.workload, args.seed, "setup", deadline)["setup_s"])
            failures = []
            metrics = end_to_end(results, setup_samples)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    for result in results:
        failures.extend(result["failures"])
    failures.extend(consistency_failures(results, args.workload, args.seed))
    ops = results[0]["ops"]
    print(f"{args.workload} seed={args.seed}: {len(results)} experiment(s), "
          f"digest {results[0]['digest']}, ops issued={ops['issued']} "
          f"completed={ops['completed']} correct={ops['correct']}, "
          f"latency samples={ops['latency_samples']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": ops["issued"],
        "failed": ops["issued"] - ops["completed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
