"""The benchmark's workloads: seeded SPLAY experiments.

Each workload is a set of keyword arguments for a registered scenario
runner (``registry.get_spec(scenario).runner(**kwargs)``); the workload
seed is the runner's root seed.  Only workload parameters are set: nodes,
hosts, testbed, windows, operation counts, the churn script text and the
availability-trace text.  None of the runners' performance switches
(``kernel``, ``gc_policy``, ``bw_global``, ``store_caches``) and none of the
observability flags are passed, so the program runs exactly as a user runs
it.  The reasons each workload was chosen are in ``NOTES.md`` next to this
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

#: seed used when ``--seed`` is not given
DEFAULT_SEED = 0
#: ``--seconds`` used when it is not given (``run_seconds`` of BENCHMARK.json)
DEFAULT_SECONDS = 25

#: instance churn of ``pastry-churn``, relative to job start
PASTRY_CHURN_SCRIPT = "from 120s to 480s every 20s replace 5%\n"
#: seed of the availability trace ``pastry-churn`` replays
PASTRY_TRACE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: registered scenario name
    scenario: str
    #: ``seed -> runner kwargs``; everything seed-dependent is generated here
    make_kwargs: Callable[[int], dict]
    #: ``seed -> kwargs overrides`` of the reduced-size smoke run (tests)
    make_smoke: Callable[[int], dict]

    def kwargs(self, seed: int, smoke: bool = False) -> dict:
        kwargs = self.make_kwargs(seed)
        if smoke:
            kwargs.update(self.make_smoke(seed))
        return kwargs

    @staticmethod
    def expected_ops(kwargs: dict) -> int:
        """Measured operations a run with ``kwargs`` must issue."""
        for key in ("lookups", "broadcasts"):
            if key in kwargs:
                return kwargs[key]
        return kwargs["nodes"] - 1  # every swarm node but the seed downloads


def _chord_1k(seed: int) -> dict:
    # The 1k cell of BENCH_scale.json: same sizes, windows and op count.
    return dict(nodes=1000, hosts=500, testbed="transit-stub", seed=seed,
                join_window=30.0, settle=20.0, lookups=100)


def _pastry_churn(seed: int) -> dict:
    from repro.core.churn import synthetic_availability_trace

    # One trace for every seed: hosts still down when a trace ends stay
    # down, and their number, which varies a lot between trace seeds, moved
    # the tail latency more than anything else (see NOTES.md).
    return dict(nodes=300, hosts=150, testbed="transit-stub", seed=seed,
                join_window=240.0, settle=180.0, lookups=200,
                churn_script=PASTRY_CHURN_SCRIPT,
                churn_trace=synthetic_availability_trace(
                    hosts=40, duration=600.0, seed=PASTRY_TRACE_SEED))


def _pastry_churn_smoke(seed: int) -> dict:
    from repro.core.churn import synthetic_availability_trace

    return dict(nodes=40, hosts=20, join_window=30.0, settle=30.0, lookups=20,
                churn_script="from 60s to 120s every 20s replace 5%\n",
                churn_trace=synthetic_availability_trace(
                    hosts=4, duration=150.0, seed=seed))


def _swarm(seed: int) -> dict:
    return dict(nodes=600, hosts=300, testbed="transit-stub", seed=seed,
                join_window=480.0, settle=360.0, chunks=64, chunk_size=65536)


def _gossip_planetlab(seed: int) -> dict:
    return dict(nodes=300, hosts=150, testbed="planetlab", seed=seed,
                join_window=240.0, settle=180.0, broadcasts=100)


#: every workload ``run.py`` accepts; ``BENCHMARK.json`` lists the ones the
#: benchmark runs (chord-1k is left out of it: see NOTES.md)
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("chord-1k", "chord", _chord_1k,
             lambda seed: dict(nodes=40, hosts=20, join_window=20.0, settle=20.0,
                               lookups=20)),
    Workload("pastry-churn", "pastry", _pastry_churn, _pastry_churn_smoke),
    Workload("swarm", "dissemination", _swarm,
             lambda seed: dict(nodes=30, hosts=15, join_window=20.0, settle=20.0,
                               chunks=8)),
    Workload("gossip-planetlab", "gossip", _gossip_planetlab,
             lambda seed: dict(nodes=30, hosts=15, join_window=20.0, settle=20.0,
                               broadcasts=12)),
)}
