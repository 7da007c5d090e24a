"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
from tracer import WRAPPED, Tracer, find_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def chord_pair():
    timed = child.run("chord-1k", 3, "timed", smoke=True)
    traced = child.run("chord-1k", 3, "traced", smoke=True)
    return timed, traced


def test_names_are_well_formed(bench_spec):
    names = [w["name"] for w in bench_spec["workloads"]]
    names += [m["name"] for m in bench_spec["end_to_end"] + bench_spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in WORKLOADS)
    assert {w["name"] for w in bench_spec["workloads"]} <= set(WORKLOADS)


def test_metric_sets_match_benchmark_json(bench_spec, chord_pair):
    timed, traced = chord_pair
    assert list(run.per_layer(timed, traced)) == [m["name"] for m in bench_spec["per_layer"]]
    e2e = run.end_to_end([timed], [timed["setup_s"]])
    assert list(e2e) == [m["name"] for m in bench_spec["end_to_end"]]


def test_self_time_arithmetic_on_a_hand_built_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    def serialize():
        advance(0.5)

    def send():
        advance(1.0)
        ser()
        advance(1.0)

    def handler():
        advance(2.0)
        net_send()
        advance(3.0)
        net_send()

    ser = tracer.timed("ser", serialize)
    net_send = tracer.timed("net.send", send)
    app = tracer.timed("app", handler)
    # A nested entry into the same layer folds into the open span.
    outer = tracer.timed("app", lambda: (advance(0.25), app()))
    tracer.begin()
    advance(1.0)
    outer()
    advance(0.75)
    wall = tracer.end()

    spans = tracer.spans
    assert wall == pytest.approx(1.0 + 0.25 + 2.0 + 2 * 2.5 + 3.0 + 0.75)
    assert spans["ser"].self_s == pytest.approx(1.0)
    assert spans["ser"].calls == 2
    assert spans["net.send"].self_s == pytest.approx(4.0)
    assert spans["net.send"].total_s == pytest.approx(5.0)
    assert spans["app"].self_s == pytest.approx(5.25)
    assert spans["app"].calls == 1
    assert spans["root"].self_s == pytest.approx(1.75)
    assert sum(s.self_s for s in spans.values()) == pytest.approx(wall)


def test_generator_resumptions_are_timed_separately():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def body():
        now[0] += 1.0
        received = yield "first"
        now[0] += 2.0
        return received

    tracer.begin()
    gen = tracer.timed_gen(body(), "app")
    assert next(gen) == "first"
    now[0] += 10.0  # suspended: not the generator's time
    with pytest.raises(StopIteration) as stop:
        gen.send("value")
    assert stop.value.value == "value"
    tracer.end()
    assert tracer.spans["app"].self_s == pytest.approx(3.0)
    assert tracer.spans["app"].calls == 2
    assert tracer.spans["root"].self_s == pytest.approx(10.0)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reduced_size_run_passes_the_output_checks(workload):
    timed = child.run(workload, 1, "timed", smoke=True)
    traced = child.run(workload, 1, "traced", smoke=True)
    assert timed["failures"] == []
    assert traced["failures"] == []
    assert run.trace_failures(traced, run.per_layer(timed, traced)) == []
    assert run.fingerprint(traced) == run.fingerprint(timed)
    assert timed["ops"]["issued"] == timed["configured_ops"]
    assert timed["ops"]["latency_samples"] >= 10


def test_wrappers_are_restored_after_the_traced_run(chord_pair):
    from repro.lib import rpc, sbsocket, serializer
    from repro.net import network
    from repro.sim import kernel, process

    originals = {
        (kernel.Simulator, "schedule"): kernel.Simulator.__dict__["schedule"],
        (kernel.Simulator, "run"): kernel.Simulator.__dict__["run"],
        (process.Process, "__init__"): process.Process.__dict__["__init__"],
        (network.Network, "_deliver"): network.Network.__dict__["_deliver"],
        (rpc.RpcService, "register"): rpc.RpcService.__dict__["register"],
        (sbsocket, "estimate_size"): serializer.estimate_size,
    }
    assert all(not hasattr(value, WRAPPED) for value in originals.values())
    tracer = Tracer().install()
    assert find_wrappers()
    tracer.uninstall()
    assert find_wrappers() == []
    for (owner, attr), original in originals.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
    _timed, traced = chord_pair
    assert traced["trace"]["wrappers_left"] == []
