"""Fast checks of the benchmark itself, on a small serve world.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import report  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REF_NOMINAL_NS,
    HostSpeed,
    Storm,
    make_world,
    run_serve,
    serve_positions,
)

SIDE = 6.0  # ≈ 720 nodes at the benchmark's density


def _storm(seed: int) -> Storm:
    return Storm(serve_positions(seed, SIDE), SIDE, 1.0, seed)


def _trace_lines(storm: Storm) -> list:
    lines = []
    for _ in range(3):
        lines += storm.tick(60)
        lines += [storm.query(kind) for kind in ("neighbours", "route", "coverage")]
    return lines


def test_same_seed_gives_same_storm_trace():
    assert _trace_lines(_storm(3)) == _trace_lines(_storm(3))
    assert _trace_lines(_storm(3)) != _trace_lines(_storm(4))


def test_storm_keeps_nodes_in_the_window_and_walks_from_current_positions():
    storm = _storm(5)
    current = dict(enumerate(storm.positions))
    for line in storm.tick(200):
        event = json.loads(line)
        if event["op"] != "move":
            continue
        x, y = event["position"]
        assert 0.0 <= x <= SIDE and 0.0 <= y <= SIDE
        old = current[event["node"]]
        # A move is ≤ 0.3 r from where the node is now; a re-report repeats it.
        assert np.hypot(x - old[0], y - old[1]) <= 0.3 + 1e-9
        current[event["node"]] = (x, y)


def _serve(workload: str, seed: int, tracer=None):
    positions = serve_positions(seed, SIDE)
    return run_serve(
        workload, seed, make_world(positions, SIDE), positions,
        max_units=2, tracer=tracer, side=SIDE,
    )


@pytest.mark.parametrize("workload", ["serve_write", "serve_read"])
def test_same_seed_same_digest_and_traced_equals_untraced(workload):
    first, second = _serve(workload, 7), _serve(workload, 7)
    tracer = Tracer()
    traced = _serve(workload, 7, tracer)
    assert first.digest == second.digest == traced.digest
    assert all(first.checks.values()) and all(traced.checks.values())
    # Self times of all spans, the root included, add up to the root's wall.
    assert sum(tracer.self_ns.values()) == pytest.approx(traced.wall_ns, rel=1e-3)
    assert tracer.self_ns["tracker.update"] > 0
    metrics = report.layer_metrics(tracer, traced, first)
    assert set(metrics) == set(report.PER_LAYER)


def test_tracer_self_time_with_a_manual_clock():
    ticks = iter([0, 10, 30, 35, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.begin("outer")        # 0
    tracer.begin("inner")        # 10
    tracer.charge("kernel.k", 5)
    tracer.end()                 # 30: inner lasted 20, 5 of it in the kernel
    tracer.begin("inner")        # 35
    tracer.end()                 # 100: inner lasted 65
    assert dict(tracer.self_ns) == {"inner": 80, "kernel.k": 5}
    assert tracer._stack[-1][2] == 85  # outer's children cover 85


def test_host_speed_samples_at_most_every_interval():
    host = HostSpeed()
    host.maybe_sample()
    host.maybe_sample()  # too soon after the first: skipped
    assert len(host.samples) == 1 and host.samples[0] > 0
    host.samples = [1 * REF_NOMINAL_NS, 2 * REF_NOMINAL_NS, 6 * REF_NOMINAL_NS]
    assert host.factor() == 3.0
    assert host.factor(statistics.median) == 2.0


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert report.percentile(samples, 50) == (50.0, 100)
    assert report.percentile(samples, 90) == (90.0, 100)
    assert report.percentile(samples, 99) is None
    assert report.percentile(list(range(1, 20)), 50) is None
    assert report.percentile(list(range(1, 21)), 50) == (10.0, 20)
    assert report.percentile(list(range(1, 1001)), 99) == (990.0, 1000)
    assert report.percentile([], 50) is None


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.GATED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(report.PRIMARY)
