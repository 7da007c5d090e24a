"""The ``scenarios bench`` harness: sweep, CSV/JSON schema, regression gate."""

import csv
import json

import pytest
from heap_kernel import HeapSimulator

from repro.apps import scenarios
from repro.apps.scenarios import (
    BENCH_CSV_COLUMNS,
    _aggregate_seed_rows,
    _kernel_timer_churn,
    check_bench_regression,
    mean_ci95,
    run_bench,
    write_bench_csv,
)


def test_run_bench_produces_rows_for_every_grid_cell(tmp_path):
    summary = run_bench(nodes_list=[8], churn_rates=[0.0, 0.05],
                        seed=3, lookups=5, micro_duration=2.0, quiet=True)
    rows = summary["rows"]
    scenario_rows = [r for r in rows if r["row_type"] == "scenario"]
    kernel_rows = [r for r in rows if r["row_type"] == "kernel"]
    assert len(scenario_rows) == 2  # one per churn rate
    assert [r["churn_rate"] for r in scenario_rows] == [0.0, 0.05]
    assert len(kernel_rows) == 1
    for row in scenario_rows:
        assert row["workload"] == "chord"  # the active workload is recorded
        assert row["hosts"] == 8
        assert row["events_executed"] > 0
        assert row["events_per_sec"] > 0
        assert 0.0 <= row["success_rate"] <= 1.0
        assert row["report_digest"]

    csv_path = tmp_path / "bench.csv"
    write_bench_csv(str(csv_path), rows)
    with open(csv_path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(rows)
    assert list(parsed[0].keys()) == BENCH_CSV_COLUMNS

    json_blob = json.dumps(summary, sort_keys=True)  # must be serialisable
    assert "rows" in json.loads(json_blob)


def test_run_bench_sweeps_host_counts_and_other_workloads():
    summary = run_bench(nodes_list=[10], churn_rates=[0.0],
                        seed=3, lookups=5, micro_duration=1.0, quiet=True,
                        workload="pastry", hosts_list=[4, 8])
    scenario_rows = [r for r in summary["rows"] if r["row_type"] == "scenario"]
    assert len(scenario_rows) == 2  # one per host count
    assert {r["hosts"] for r in scenario_rows} == {4, 8}
    assert all(r["workload"] == "pastry" for r in scenario_rows)
    assert summary["config"]["workload"] == "pastry"
    assert summary["config"]["hosts"] == [4, 8]


def test_mean_ci95_uses_student_t_for_small_samples():
    mean, ci = mean_ci95([10.0])
    assert (mean, ci) == (10.0, 0.0)  # one sample: no interval
    mean, ci = mean_ci95([8.0, 12.0])
    assert mean == 10.0
    # n=2: t(df=1)=12.706, s=2*sqrt(2)... half-width = 12.706 * 2 = 25.412
    assert ci == pytest.approx(12.706 * 2.0, rel=1e-6)
    mean, ci = mean_ci95([10.0, 10.0, 10.0, 10.0])
    assert (mean, ci) == (10.0, 0.0)  # zero variance


def test_aggregate_seed_rows_means_perf_and_keeps_the_first_digest():
    per_seed = [
        {"seed": 0, "wall_sec": 1.0, "virtual_time": 100.0, "events_executed": 1000,
         "events_per_sec": 1000.0, "wall_per_virtual_sec": 0.01,
         "success_rate": 1.0, "latency_p50_ms": 10.0, "latency_p95_ms": 20.0,
         "hops_mean": 3.0, "report_digest": "aaaa"},
        {"seed": 1, "wall_sec": 3.0, "virtual_time": 100.0, "events_executed": 2000,
         "events_per_sec": 2000.0, "wall_per_virtual_sec": 0.03,
         "success_rate": 0.9, "latency_p50_ms": 30.0, "latency_p95_ms": 40.0,
         "hops_mean": 5.0, "report_digest": "bbbb"},
    ]
    row = _aggregate_seed_rows(per_seed)
    assert row["seeds"] == 2
    assert row["seed"] == 0
    assert row["events_per_sec"] == 1500.0
    assert row["events_per_sec_ci95"] > 0
    assert row["success_rate"] == pytest.approx(0.95)
    assert row["latency_p50_ms"] == pytest.approx(20.0)
    assert row["events_executed"] == 1500
    assert row["report_digest"] == "aaaa"  # digests are per-seed values


def test_run_bench_multi_seed_emits_means_with_ci():
    summary = run_bench(nodes_list=[8], churn_rates=[0.0],
                        seed=3, seeds=2, lookups=5, micro_duration=1.0,
                        quiet=True)
    (row,) = [r for r in summary["rows"] if r["row_type"] == "scenario"]
    assert row["seeds"] == 2
    assert row["events_per_sec"] > 0
    assert row["events_per_sec_ci95"] >= 0
    assert summary["config"]["seeds"] == 2


def test_run_bench_records_the_testbed_in_every_scenario_row():
    summary = run_bench(nodes_list=[8], churn_rates=[0.0],
                        seed=3, lookups=5, micro_duration=1.0, quiet=True,
                        testbed="cluster")
    scenario_rows = [r for r in summary["rows"] if r["row_type"] == "scenario"]
    assert all(r["testbed"] == "cluster" for r in scenario_rows)
    assert summary["config"]["testbed"] == "cluster"


def test_kernel_timer_churn_is_deterministic_per_kernel(monkeypatch):
    wheel = _kernel_timer_churn(nodes=10, duration=5.0)
    assert _kernel_timer_churn(nodes=10, duration=5.0)["events_executed"] \
        == wheel["events_executed"]
    monkeypatch.setattr(scenarios, "Simulator", HeapSimulator)
    heap = _kernel_timer_churn(nodes=10, duration=5.0)
    # identical workloads: the wheel and the heap reference execute exactly
    # the same events
    assert wheel["events_executed"] == heap["events_executed"] > 0


def test_check_bench_regression_flags_only_large_drops():
    baseline = {"rows": [
        {"row_type": "kernel", "nodes": 20, "churn_rate": "",
         "events_per_sec": 1000.0},
        {"row_type": "scenario", "nodes": 20, "churn_rate": 0.0,
         "events_per_sec": 500.0},
        {"row_type": "scenario", "nodes": 999, "churn_rate": 0.0,
         "events_per_sec": 500.0},  # cell absent from the current run: ignored
    ]}
    current = {"rows": [
        {"row_type": "kernel", "nodes": 20, "churn_rate": "",
         "events_per_sec": 800.0},   # -20%: within the 30% tolerance
        {"row_type": "scenario", "nodes": 20, "churn_rate": 0.0,
         "events_per_sec": 300.0},   # -40%: regression
    ]}
    failures = check_bench_regression(current, baseline, tolerance=0.30)
    assert len(failures) == 1
    assert "scenario" in failures[0] and "40%" in failures[0]


def test_check_bench_regression_fails_when_no_baseline_row_matches():
    # A schema or grid mismatch (here: a baseline row still carrying a
    # retired column value in its signature) must not pass silently.
    baseline = {"rows": [{"row_type": "scenario", "recompute": "global",
                          "nodes": 20, "churn_rate": 0.0,
                          "events_per_sec": 500.0}]}
    current = {"rows": [{"row_type": "scenario", "nodes": 20,
                         "churn_rate": 0.0, "events_per_sec": 500.0}]}
    failures = check_bench_regression(current, baseline)
    assert len(failures) == 1 and "compared nothing" in failures[0]
    assert check_bench_regression(current, {"rows": []}) == failures
    assert check_bench_regression(current, {"rows": current["rows"]}) == []


def test_bench_cli_writes_csv_and_json(tmp_path, capsys):
    from repro.apps.scenarios import main

    csv_path = tmp_path / "bench.csv"
    json_path = tmp_path / "BENCH_kernel.json"
    status = main(["bench", "--nodes", "8", "--churn-rates", "0",
                   "--lookups", "5", "--micro-duration", "2",
                   "--csv", str(csv_path), "--json", str(json_path), "--quiet"])
    assert status == 0
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert summary["config"]["nodes"] == [8]
    assert "kernel" not in summary["rows"][0]
    out = capsys.readouterr().out
    assert "wrote" in out


def test_run_bench_jobs_pool_matches_serial_byte_for_byte():
    """The --jobs contract: pooled runs differ from serial only in timing."""
    from repro.apps.scenarios import BENCH_TIMING_COLUMNS, deterministic_row_view

    kwargs = dict(nodes_list=[8], churn_rates=[0.0, 0.05],
                  seed=3, lookups=5, micro_duration=1.0, quiet=True)
    serial = run_bench(jobs=1, **kwargs)
    pooled = run_bench(jobs=4, **kwargs)
    assert [deterministic_row_view(r) for r in serial["rows"]] == \
           [deterministic_row_view(r) for r in pooled["rows"]]
    assert all(r["jobs"] == 4 for r in pooled["rows"])
    assert all(r["jobs"] == 1 for r in serial["rows"])
    # Digests are part of the deterministic view, but assert explicitly:
    # worker processes must reproduce the serial reports bit-for-bit.
    serial_digests = [r["report_digest"] for r in serial["rows"]
                      if r["row_type"] == "scenario"]
    pooled_digests = [r["report_digest"] for r in pooled["rows"]
                      if r["row_type"] == "scenario"]
    assert serial_digests == pooled_digests
    # Timing columns exist on every row (masked above, gated by --check).
    for row in pooled["rows"]:
        assert BENCH_TIMING_COLUMNS <= set(row)


def test_run_scale_bench_records_peak_rss_per_cell():
    from repro.apps.scenarios import run_scale_bench

    summary = run_scale_bench(scales=[30], jobs=1, seed=3, lookups=5,
                              quiet=True)
    (row,) = summary["rows"]
    assert row["row_type"] == "scale"
    assert row["workload"] == "chord"
    assert row["nodes"] == 30
    assert row["virtual_time"] > 0
    assert row["events_executed"] > 0
    assert row["peak_rss_kb"] > 0  # measured in the cell's own fresh worker
    assert row["report_digest"]
    assert summary["bench"] == "scale"
    assert summary["config"]["scales"] == [30]


def test_check_bench_regression_gates_scale_rows_on_peak_rss():
    base_row = {"row_type": "scale", "nodes": 1000,
                "churn_rate": 0.0, "events_per_sec": 1000.0,
                "peak_rss_kb": 100_000}
    baseline = {"rows": [base_row]}
    ok = {"rows": [dict(base_row, events_per_sec=950.0, peak_rss_kb=120_000)]}
    assert check_bench_regression(ok, baseline, rss_tolerance=0.50) == []
    bloated = {"rows": [dict(base_row, peak_rss_kb=160_000)]}
    failures = check_bench_regression(bloated, baseline, rss_tolerance=0.50)
    assert len(failures) == 1 and "peak RSS" in failures[0]
    # Non-scale rows never gate on RSS (serial runs report cumulative RSS).
    scenario_base = dict(base_row, row_type="scenario")
    scenario_bloat = {"rows": [dict(scenario_base, peak_rss_kb=500_000)]}
    assert check_bench_regression(scenario_bloat,
                                  {"rows": [scenario_base]}) == []


def test_scale_windows_grow_with_log10_of_the_node_count():
    from repro.apps.scenarios import (SCALE_JOIN_WINDOW, SCALE_SETTLE,
                                      scale_windows)

    # The 1k reference cell keeps the historical fixed windows...
    assert scale_windows(1000) == (SCALE_JOIN_WINDOW, SCALE_SETTLE)
    # ...and a 10x ring gets exactly one extra decade: doubled windows.
    assert scale_windows(10000) == (2 * SCALE_JOIN_WINDOW, 2 * SCALE_SETTLE)
    join_5k, settle_5k = scale_windows(5000)
    assert SCALE_JOIN_WINDOW < join_5k < 2 * SCALE_JOIN_WINDOW
    assert SCALE_SETTLE < settle_5k < 2 * SCALE_SETTLE
    # Sub-reference sizes never shrink below the base windows.
    assert scale_windows(100) == (SCALE_JOIN_WINDOW, SCALE_SETTLE)


def test_scale_efficiency_is_largest_over_smallest_events_per_sec():
    from repro.apps.scenarios import scale_efficiency

    rows = [
        {"row_type": "scale", "nodes": 1000, "events_per_sec": 50_000.0},
        {"row_type": "scale", "nodes": 5000, "events_per_sec": 40_000.0},
        {"row_type": "scale", "nodes": 10000, "events_per_sec": 35_000.0},
        {"row_type": "scenario", "nodes": 50, "events_per_sec": 1.0},
    ]
    assert scale_efficiency(rows) == pytest.approx(0.7)
    assert scale_efficiency(rows[:1]) is None  # one size: no ratio
    assert scale_efficiency([]) is None


def test_bench_rows_carry_phase_wall_columns():
    from repro.apps.scenarios import run_scale_bench

    summary = run_scale_bench(scales=[30], jobs=1, seed=3, lookups=5,
                              quiet=True)
    (row,) = summary["rows"]
    for column in ("wall_deploy_s", "wall_run_s", "wall_drain_s"):
        assert column in BENCH_CSV_COLUMNS
        assert isinstance(row[column], float)
    # Phase attribution covers (almost) the whole cell wall: the slices are
    # the same sim.run calls the cell times, so nothing big goes missing.
    assert row["wall_deploy_s"] + row["wall_run_s"] + row["wall_drain_s"] <= \
        row["wall_sec"] * 1.05
    assert summary["scale_efficiency"] is None  # single size: no ratio
