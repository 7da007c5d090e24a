"""Repo tools: the CDF plotter (stdlib fallback) and the trace generator."""

import importlib.util
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_TOOLS = _REPO / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _write_cdf_csv(path, samples):
    from repro.apps.harness import write_cdf

    write_cdf(str(path), samples)


def test_plot_cdf_reads_the_harness_csv_format(tmp_path):
    plot_cdf = _load("plot_cdf")
    csv_path = tmp_path / "cdf.csv"
    _write_cdf_csv(csv_path, [10.0, 20.0, 30.0, 40.0])
    xs, ys = plot_cdf.read_cdf(str(csv_path))
    assert xs == [10.0, 20.0, 30.0, 40.0]
    assert ys == [0.25, 0.5, 0.75, 1.0]


def test_plot_cdf_svg_fallback_renders_every_curve(tmp_path):
    plot_cdf = _load("plot_cdf")
    curves = [("stable", [5.0, 10.0], [0.5, 1.0]),
              ("churn", [5.0, 40.0], [0.5, 1.0])]
    out = plot_cdf._plot_svg(curves, str(tmp_path / "plot.png"), "title")
    assert out.endswith(".svg")  # extension is corrected for the fallback
    svg = Path(out).read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "stable" in svg and "churn" in svg
    assert "latency (ms)" in svg


def test_plot_cdf_main_plots_multiple_files(tmp_path, capsys):
    plot_cdf = _load("plot_cdf")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_cdf_csv(first, [1.0, 2.0])
    _write_cdf_csv(second, [3.0, 4.0, 5.0])
    out = tmp_path / "figure.svg"
    status = plot_cdf.main([str(first), str(second), "--out", str(out),
                            "--labels", "one", "two"])
    assert status == 0
    assert out.exists()
    assert "2 curve(s), 5 samples" in capsys.readouterr().out


def test_plot_cdf_main_rejects_label_count_mismatch(tmp_path, capsys):
    plot_cdf = _load("plot_cdf")
    csv_path = tmp_path / "a.csv"
    _write_cdf_csv(csv_path, [1.0])
    status = plot_cdf.main([str(csv_path), "--labels", "a", "b"])
    assert status == 2
    assert "label" in capsys.readouterr().err


def test_gen_availability_trace_defaults_reproduce_the_bundled_file(tmp_path, capsys):
    gen = _load("gen_availability_trace")
    out = tmp_path / "trace.txt"
    status = gen.main(["--out", str(out)])
    assert status == 0
    assert out.read_text() == (_REPO / "traces" / "synthetic_overnet.trace").read_text()


def _write_scale_csv(path):
    from repro.apps.scenarios import BENCH_CSV_COLUMNS, write_bench_csv

    rows = [
        {"row_type": "kernel", "nodes": 50},  # skipped
        {"row_type": "scale", "workload": "chord",
         "nodes": 1000, "hosts": 500, "events_executed": 500000,
         "events_per_sec": 50000.0, "wall_sec": 10.0, "peak_rss_kb": 200000},
        {"row_type": "scale", "workload": "chord",
         "nodes": 5000, "hosts": 2500, "events_executed": 2500000,
         "events_per_sec": 45000.0, "wall_sec": 55.0, "peak_rss_kb": 800000},
    ]
    write_bench_csv(str(path), rows)
    assert BENCH_CSV_COLUMNS[0] == "row_type"


def test_plot_scale_reads_only_scale_rows_and_derives_ratios(tmp_path, capsys):
    plot_scale = _load("plot_scale")
    csv_path = tmp_path / "bench_scale.csv"
    _write_scale_csv(csv_path)
    rows = plot_scale.read_scale_rows(str(csv_path))
    assert [int(r["nodes"]) for r in rows] == [1000, 5000]
    status = plot_scale.main([str(csv_path)])
    out = capsys.readouterr().out
    assert status == 0
    assert "1000" in out and "5000" in out
    # 200000/1000 = 200 KB/node at 1k; 800000/5000 = 160 KB/node at 5k
    assert "KB-per-node ratio: 0.80x" in out
    assert "events/sec ratio (scale_efficiency): 0.90x" in out
    # 1e6/50000 = 20 us/event at 1k; 1e6/45000 = 22.22 at 5k
    assert "per-event cost: 20.00 -> 22.22 us/event" in out


def test_plot_scale_rejects_csv_without_scale_rows(tmp_path, capsys):
    plot_scale = _load("plot_scale")
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("row_type,nodes\nkernel,50\n")
    status = plot_scale.main([str(csv_path)])
    assert status == 2
    assert "no scale rows" in capsys.readouterr().err
