"""Observability subsystem: metrics math, flight-recorder ring, tracer
export, profiler attribution — and the load-bearing guarantee that enabling
any combination of ``--metrics`` / ``--trace-out`` / ``--profile`` never
changes a report digest, on the wheel kernel and on its heap reference,
for every workload."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from heap_kernel import KERNELS, use_heap_kernel

from repro.obs import (
    COUNT_BOUNDS,
    FlightRecorder,
    Histogram,
    KernelProfiler,
    MetricsRegistry,
    Observability,
    Tracer,
    callback_label,
    load_trace,
    log_bucket_bounds,
)
from repro.sim.kernel import Simulator

_REPO = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------- bucket math
def test_log_bucket_bounds_are_fixed_log_spaced():
    bounds = log_bucket_bounds(1.0, 1000.0, per_decade=1)
    assert bounds == [1.0, 10.0, 100.0, 1000.0]
    fine = log_bucket_bounds(1.0, 10.0, per_decade=4)
    assert len(fine) == 5
    # Log-spaced: constant ratio between neighbours.
    ratios = [fine[i + 1] / fine[i] for i in range(len(fine) - 1)]
    assert all(abs(r - ratios[0]) < 1e-9 for r in ratios)


def test_histogram_bucket_index_and_overflow():
    histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
    assert histogram.bucket_index(0.5) == 0
    assert histogram.bucket_index(1.0) == 0    # bounds are inclusive uppers
    assert histogram.bucket_index(5.0) == 1
    assert histogram.bucket_index(100.0) == 2
    assert histogram.bucket_index(1e9) == 3    # overflow bucket
    for value in (0.5, 5.0, 50.0, 500.0):
        histogram.observe(value, now=1.0)
    assert histogram.count == 4
    assert histogram.min == 0.5 and histogram.max == 500.0
    data = histogram.to_dict()
    assert data["buckets"]["+Inf"] == 1
    assert data["count"] == 4


def test_histogram_percentile_returns_rank_bucket_upper_bound():
    histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
    for _ in range(90):
        histogram.observe(5.0)     # bucket <= 10.0
    for _ in range(10):
        histogram.observe(50.0)    # bucket <= 100.0
    assert histogram.percentile(0.50) == 10.0
    assert histogram.percentile(0.95) == 100.0
    # Overflow samples report the observed max, not +Inf.
    histogram.observe(9999.0)
    assert histogram.percentile(1.0) == 9999.0


def test_empty_histogram_percentile_is_zero():
    assert Histogram("h", bounds=(1.0,)).percentile(0.5) == 0.0


def test_registry_snapshot_is_sorted_and_sim_time_stamped():
    clock_value = [0.0]
    registry = MetricsRegistry(clock=lambda: clock_value[0])
    clock_value[0] = 3.5
    registry.inc("z.counter")
    registry.observe("a.histogram", 2.0, COUNT_BOUNDS)
    registry.gauge("m.gauge").set(7, now=clock_value[0])
    snapshot = registry.snapshot()
    assert list(snapshot) == sorted(snapshot)
    assert snapshot["z.counter"]["last_update"] == 3.5
    assert snapshot["m.gauge"]["value"] == 7
    assert len(registry) == 3 and "a.histogram" in registry


# ----------------------------------------------------------- flight recorder
def _cb():
    return None


def test_ring_wraparound_keeps_last_capacity_entries_oldest_first():
    ring = FlightRecorder(capacity=8)
    for seq in range(20):
        ring.push_event(float(seq), seq, _cb, origin=None)
    assert ring.total == 20
    assert len(ring) == 8
    entries = ring.entries()
    assert [entry[2] for entry in entries] == list(range(12, 20))
    rendered = ring.snapshot(last=3)
    assert len(rendered) == 3
    assert "seq=19" in rendered[-1]
    assert callback_label(_cb) in rendered[-1]


def test_ring_renders_spans_and_partial_fill():
    ring = FlightRecorder(capacity=4)
    ring.push_span(1.25, "10.0.0.1", "rpc.step", 0.002)
    lines = ring.dump_lines(header="ctx")
    assert lines[0].startswith("ctx: last 1 of 1")
    assert "host=10.0.0.1" in lines[1] and "2.000ms" in lines[1]


def test_observed_kernel_still_recycles_events():
    """The observer must not pin events: free-list recycling stays on."""
    sim = Simulator(0)
    Observability(sim, metrics=True, tracing=True, profile=True).install()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < 50:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    assert fired[0] == 50
    assert sim.recycled_events > 0


# ------------------------------------------------------------------ profiler
def test_profiler_aggregates_bound_methods_by_function():
    profiler = KernelProfiler()

    class App:
        def step(self):
            return None

    first, second = App(), App()
    profiler.add(first.step, 0.002)
    profiler.add(second.step, 0.001)
    profiler.add(_cb, 0.004)
    section = profiler.section(top_n=5)
    assert section["events"] == 3
    assert section["sites"] == 2
    top = section["top"]
    assert top[0]["site"].endswith("_cb") and top[0]["wall_s"] == 0.004
    step_row = top[1]
    assert step_row["events"] == 2
    assert "App.step" in step_row["site"]
    table = KernelProfiler.format_table(section)
    assert "3 events" in table[0]
    assert any("App.step" in line for line in table)


# -------------------------------------------------------------------- tracer
def test_chrome_trace_has_one_named_track_per_host(tmp_path):
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.add("10.0.0.2", "rpc.step", 1.0, 0.25, cat="rpc", args={"k": 1})
    tracer.add("10.0.0.1", "lookup", 0.5, 1.5, cat="lookup")
    tracer.add("10.0.0.2", "serve.step", 1.1, 0.0)
    path = tmp_path / "trace.json"
    assert tracer.write(str(path)) == 3

    document = json.loads(path.read_text())
    events = document["traceEvents"]
    meta = [e for e in events if e.get("ph") == "M"]
    complete = [e for e in events if e.get("ph") == "X"]
    assert {m["args"]["name"] for m in meta} == {"10.0.0.1", "10.0.0.2"}
    assert len({m["pid"] for m in meta}) == 2      # one pid track per host
    assert len(complete) == 3
    span = next(e for e in complete if e["name"] == "rpc.step")
    assert span["ts"] == 1.0e6 and span["dur"] == 0.25e6  # microseconds
    assert span["args"] == {"k": 1}

    by_host = load_trace(str(path))
    assert sorted(by_host) == ["10.0.0.1", "10.0.0.2"]
    assert len(by_host["10.0.0.2"]) == 2


def test_tracer_bounds_span_count():
    tracer = Tracer(clock=lambda: 0.0, max_spans=2)
    for index in range(5):
        tracer.add("h", "s", float(index), 0.1)
    assert len(tracer.spans) == 2 and tracer.dropped == 3


# ------------------------------------------------------- structured logging
def test_logger_records_carry_host_and_structured_fields():
    from repro.lib.logging import LogLevel, SplayLogger

    logger = SplayLogger(source="job1/i1", level="INFO", host="10.0.0.9",
                         clock=lambda: 12.5)
    record = logger.info("joined ring", ring=7, hops=3)
    assert record.host == "10.0.0.9"
    assert record.time == 12.5
    assert record.fields == {"ring": 7, "hops": 3}
    assert logger.debug("below threshold") is None
    logger.set_level(LogLevel.ERROR)
    assert logger.warn("suppressed", detail=1) is None


# ------------------------------------------------- sanitizer ring integration
def test_sanitizer_violation_report_includes_ring_context():
    from repro.sim.sanitizer import Sanitizer

    sim = Simulator(0)
    sanitizer = Sanitizer(sim).install()
    obs = Observability(sim).install()
    sanitizer.recorder = obs.recorder
    sim.schedule(1.0, _cb)
    sim.schedule(2.0, _cb)
    sim.run()
    sanitizer.record("clock", "injected breach", provenance="test")
    violation = sanitizer.violations[0]
    assert violation.ring, "ring context missing from violation"
    rendered = violation.render()
    assert "ring (last" in rendered
    assert callback_label(_cb) in rendered
    assert any("ring (last" in line
               for line in sanitizer.summary()["reports"])


# --------------------------------------------------------- digest neutrality
_WORKLOADS = {
    "chord": dict(nodes=10, hosts=6, seed=3, churn=True, lookups=12,
                  duration="short"),
    "pastry": dict(nodes=10, hosts=6, seed=3, churn=True, lookups=12,
                   duration="short"),
    "gossip": dict(nodes=10, hosts=6, seed=3, churn=True, broadcasts=8,
                   duration="short"),
    "dissemination": dict(nodes=8, hosts=6, seed=3, chunks=6,
                          duration="short"),
}


def _runner(workload):
    from repro.apps import chord, dissemination, gossip, pastry

    return {"chord": chord.run_chord_scenario,
            "pastry": pastry.run_pastry_scenario,
            "gossip": gossip.run_gossip_scenario,
            "dissemination": dissemination.run_dissemination_scenario}[workload]


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
@pytest.mark.parametrize("kernel", KERNELS)
def test_observability_flags_never_change_the_digest(workload, kernel,
                                                     tmp_path, monkeypatch):
    """Metrics + tracing + profiling on vs everything off: byte-identical
    digests for every workload, on the wheel and on its heap reference
    (the core guarantee)."""
    from repro.apps.harness import report_digest

    use_heap_kernel(monkeypatch, kernel)
    config = _WORKLOADS[workload]
    runner = _runner(workload)
    plain = runner(**config)
    trace_path = tmp_path / f"{workload}.json"
    observed = runner(metrics=True, trace_out=str(trace_path), profile=True,
                      **config)
    assert report_digest(plain) == report_digest(observed)
    for key in ("metrics", "trace", "profile", "flight_recorder"):
        assert key not in plain
        assert observed.get(key), key
    assert observed["metrics"]["enabled"] is True
    assert observed["metrics"]["kernel"]["events_dispatched"] \
        == observed["events_executed"]
    assert trace_path.exists()


def test_fifty_node_churning_chord_acceptance(tmp_path):
    """The issue's acceptance gate: a 50-node churning chord run with every
    flag on matches the flags-off digest, and the trace is Perfetto-shaped
    (one named pid track per host, complete events with us timestamps)."""
    from repro.apps.chord import run_chord_scenario
    from repro.apps.harness import report_digest

    config = dict(nodes=50, hosts=25, seed=7, churn=True, lookups=25,
                  duration="short")
    plain = run_chord_scenario(**config)
    trace_path = tmp_path / "chord50.json"
    observed = run_chord_scenario(metrics=True, trace_out=str(trace_path),
                                  profile=True, **config)
    assert report_digest(plain) == report_digest(observed)

    by_host = load_trace(str(trace_path))
    assert len(by_host) >= 2            # one track per traced host
    spans = [span for spans in by_host.values() for span in spans]
    assert spans
    assert all(span["ph"] == "X" for span in spans)
    names = {span["name"] for span in spans}
    assert any(name.startswith("rpc.") for name in names)
    assert any(name.startswith("serve.") for name in names)
    assert "lookup" in names            # chord's lookup-level span
    # Per-job metrics flowed through the JobStore path.
    registry = observed["metrics"]["job"]["registry"]
    assert any(name.startswith("rpc.latency_s.") for name in registry)
    assert "lookup.hops" in registry
    # Profile attributes wall time to module:qualname sites.
    top = observed["profile"]["top"]
    assert top and all(":" in row["site"] for row in top)


def test_metrics_identical_across_kernels(monkeypatch):
    """The metrics themselves (not just the digest) match the heap reference
    kernel's, except the kernel-specific recycle/cancel counters."""
    from repro.apps.chord import run_chord_scenario

    config = dict(nodes=10, hosts=6, seed=5, lookups=10, duration="short",
                  metrics=True)
    wheel = run_chord_scenario(**config)["metrics"]
    use_heap_kernel(monkeypatch, "heap")
    heap = run_chord_scenario(**config)["metrics"]
    assert wheel["network"] == heap["network"]
    assert wheel["rpc"] == heap["rpc"]
    assert wheel["job"]["registry"] == heap["job"]["registry"]
    assert wheel["kernel"]["events_dispatched"] \
        == heap["kernel"]["events_dispatched"]


# ----------------------------------------------------------- CLI + tool smoke
def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, _REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_scenarios_cli_writes_metrics_and_trace_artifacts(tmp_path, capsys):
    from repro.apps.scenarios import main

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    status = main(["chord", "--nodes", "10", "--hosts", "6", "--seed", "3",
                   "--duration", "short", "--lookups", "10",
                   "--min-success", "0.0",
                   "--metrics-out", str(metrics_path),
                   "--trace-out", str(trace_path), "--profile",
                   "--log-level", "WARN"])
    out = capsys.readouterr().out
    assert status == 0
    assert "metrics:" in out and "trace:" in out and "profile:" in out
    metrics = json.loads(metrics_path.read_text())
    assert metrics["enabled"] is True and "network" in metrics

    summary = _load_tool("trace_summary")
    assert summary.main([str(trace_path)]) == 0
    tool_out = capsys.readouterr().out
    assert "host track(s)" in tool_out and "p95_ms" in tool_out


def test_trace_summary_rejects_garbage(tmp_path, capsys):
    summary = _load_tool("trace_summary")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    assert summary.main([str(bad)]) == 1
    assert summary.main([str(tmp_path / "missing.json")]) == 1
    empty = tmp_path / "empty.json"
    empty.write_text("{\"traceEvents\": []}")
    assert summary.main([str(empty)]) == 1
    capsys.readouterr()
