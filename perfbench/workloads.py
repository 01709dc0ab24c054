"""The three workloads: serve write storm, serve read storm, SENS batch builds.

Every workload is a closed loop with one client and no threads in the
generator: the next request is sent only after the previous one returned.
Inputs come from the seed alone; the program sees only the generated request
lines (serve) or the sampled deployments (batch).  Outputs are checked after
the timed region, never inside it.

* ``serve_write`` — per tick 60 update lines, one flush, then 10 queries
  alternating neighbours and route.  The update path index → tracker →
  repair → reply does almost all the work.
* ``serve_read`` — per block 500 queries (50% neighbours, 35% route, 15%
  coverage), then one tick of 10 updates.  A change that speeds writes by
  slowing reads shows here.
* ``batch_build`` — the paper-reproduction path (UDG-SENS build, stretch,
  coverage, overlay routing, distributed and sharded builds; NN-SENS build
  and stretch).  It never touches ``repro.dynamics`` or ``repro.serve``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
import hashlib
import json
import math
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.tracing import ROOT, Tracer, instrument_batch, instrument_world, traced_layers

__all__ = [
    "WORKLOADS",
    "Storm",
    "Outcome",
    "HostSpeed",
    "serve_positions",
    "make_world",
    "run_serve",
    "run_batch",
    "batch_setup_job",
]

WORKLOADS = ("serve_write", "serve_read", "batch_build")

# -- serve world: uniform λ = 20 on 20×20 (≈ 8,000 nodes, 15×15 tiles) -------
SERVE_INTENSITY = 20.0
SERVE_SIDE = 20.0
MOVE_FRACTION = 0.9
DUPLICATE_FRACTION = 0.1
#: A move is a random step of at most this share of the UDG radius.
STEP_SHARE = 0.3
WRITE_EVENTS_PER_TICK = 60
WRITE_QUERIES_PER_TICK = 10
READ_QUERIES_PER_BLOCK = 500
READ_EVENTS_PER_BLOCK = 10
COVERAGE_POINTS = 64
COVERAGE_RADIUS = 0.5
#: serve_write's self-check: the final UDG edge count stays within this share
#: of the initial one, so a drifting generator cannot change the density.
EDGE_DRIFT = 0.10

# -- batch jobs -----------------------------------------------------------------
UDG_INTENSITY = 20.0
UDG_SIDE = 30.0
NN_TILES = 8
NN_K = 188
STRETCH_PAIRS = 300
ROUTES_PER_JOB = 40
COVERAGE_BOXES = (0.5, 1.0, 1.5, 2.0)

_clock = time.perf_counter_ns

#: The reference op's duration on the nominal host.  Host-normalised metrics
#: read as if measured on a host where the op takes exactly this long.
REF_NOMINAL_NS = 40_000_000
#: Between units or stages the reference op runs at most this often.
REF_EVERY_NS = 500_000_000


class HostSpeed:
    """Times a fixed reference op between units of work.

    The benchmark runs on shared hosts whose speed drifts by ±30% over tens
    of seconds, which no run length averages out.  The reference op —
    ``np.unique``-based set algebra over 120k int64 keys plus a dict loop, the
    kinds of work the tracker's and the builders' hot paths do — is timed in
    the same process between units, and :meth:`factor` (reference time ÷
    nominal) rescales the gated metrics to the nominal host.  The op is
    benchmark code, so no change to the program moves it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._keys = np.unique(rng.integers(0, 2**40, 120_000))
        self._probe = rng.integers(0, 2**40, 2_000)
        self.samples: List[int] = []
        self._last: Optional[int] = None

    def sample(self) -> None:
        t0 = _clock()
        np.union1d(self._keys[~np.isin(self._keys, self._probe)], self._probe)
        table = {(i, i + 1): i for i in range(10_000)}
        sum(table.values())
        self._last = _clock()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if self._last is None or _clock() - self._last >= REF_EVERY_NS:
            self.sample()

    def factor(self, average: Callable[[List[int]], float] = statistics.fmean) -> float:
        """How much slower than nominal the host ran (> 1: slower).

        Average the samples as the rescaled metric averages its work: a
        throughput over the whole run takes the mean, so slow stretches
        count as they do in the throughput; a median of repetitions takes
        the median.
        """
        return average(self.samples) / REF_NOMINAL_NS


@dataclass
class Outcome:
    """What one measured run did and what it answered."""

    units: int = 0
    wall_ns: int = 0
    #: Latency samples in ns, by kind ("update", "neighbours", "route", ...).
    samples: Dict[str, List[int]] = field(default_factory=dict)
    #: Busy time in ns, by kind ("update", "query", "udg_job", "nn_job").
    busy_ns: Dict[str, int] = field(default_factory=dict)
    #: Work counts ("update", "query", "udg_nodes", "nn_nodes", ...).
    counts: Dict[str, int] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    digest: str = ""

    def add_sample(self, kind: str, ns: int) -> None:
        self.samples.setdefault(kind, []).append(ns)

    def add(self, table: str, key: str, n: int) -> None:
        target = getattr(self, table)
        target[key] = target.get(key, 0) + n


def _span(tracer: Optional[Tracer], name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn if tracer is None else tracer.wrap(name, fn)


def _begin(tracer: Optional[Tracer], name: str) -> None:
    if tracer is not None:
        tracer.begin(name)


def _end(tracer: Optional[Tracer]) -> None:
    if tracer is not None:
        tracer.end()


def _done(start: int, units: int, seconds: Optional[float], max_units: Optional[int]) -> bool:
    if max_units is not None and units >= max_units:
        return True
    return seconds is not None and _clock() - start >= seconds * 1e9


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------
def _reflect(value: float, side: float) -> float:
    if value < 0.0:
        return -value
    if value > side:
        return 2.0 * side - value
    return value


class Storm:
    """Seeded, position-aware client model producing request lines.

    It tracks what the server will hold — alive ids, each node's current
    position, the id the next insert will receive — so every move is a short
    random step from where the node is now, and a uniform deployment stays
    uniform.  Ids inserted in a tick become usable after that tick, as a
    client learns them from the replies.
    """

    def __init__(self, positions: np.ndarray, side: float, radius: float, seed: Any) -> None:
        self.side = float(side)
        self.step = STEP_SHARE * float(radius)
        self.rng = np.random.default_rng(seed)
        self.positions: List[Tuple[float, float]] = [
            (float(x), float(y)) for x, y in positions.tolist()
        ]
        self.alive: List[int] = list(range(len(self.positions)))
        self._slot: Dict[int, int] = {node: i for i, node in enumerate(self.alive)}

    def _pick(self) -> int:
        return self.alive[int(self.rng.integers(len(self.alive)))]

    def _remove(self, node: int) -> None:
        slot = self._slot.pop(node)
        last = self.alive.pop()
        if last != node:
            self.alive[slot] = last
            self._slot[last] = slot

    def _walk(self, node: int) -> Tuple[float, float]:
        angle, share = self.rng.random(2)
        length = self.step * math.sqrt(share)
        x, y = self.positions[node]
        moved = (
            _reflect(x + length * math.cos(2 * math.pi * angle), self.side),
            _reflect(y + length * math.sin(2 * math.pi * angle), self.side),
        )
        self.positions[node] = moved
        return moved

    def tick(self, n_events: int) -> List[str]:
        """One tick of update lines: moves (some re-reported), deletes, inserts."""
        lines: List[str] = []
        moved: List[int] = []
        inserted: List[int] = []
        for _ in range(n_events):
            roll = self.rng.random()
            if roll < MOVE_FRACTION:
                if moved and self.rng.random() < DUPLICATE_FRACTION:
                    # Re-report of a node's current position; if the node was
                    # deleted later in this tick the server rejects it, as a
                    # sequential application would.
                    node = moved[int(self.rng.integers(len(moved)))]
                    position = self.positions[node]
                else:
                    node = self._pick()
                    position = self._walk(node)
                    moved.append(node)
                lines.append(json.dumps({"op": "move", "node": node, "position": list(position)}))
            elif roll < (1.0 + MOVE_FRACTION) / 2.0:
                node = self._pick()
                self._remove(node)
                lines.append(json.dumps({"op": "delete", "node": node}))
            else:
                position = (
                    float(self.rng.uniform(0.0, self.side)),
                    float(self.rng.uniform(0.0, self.side)),
                )
                inserted.append(len(self.positions))
                self.positions.append(position)
                lines.append(json.dumps({"op": "insert", "position": list(position)}))
        for node in inserted:
            self._slot[node] = len(self.alive)
            self.alive.append(node)
        return lines

    def query(self, kind: str) -> str:
        if kind == "neighbours":
            return json.dumps({"op": "query", "kind": kind, "node": self._pick()})
        if kind == "route":
            return json.dumps(
                {"op": "query", "kind": kind, "source": self._pick(), "target": self._pick()}
            )
        events = self.rng.uniform(0.0, self.side, size=(COVERAGE_POINTS, 2)).tolist()
        return json.dumps(
            {"op": "query", "kind": kind, "events": events, "radius": COVERAGE_RADIUS}
        )

    def read_kind(self) -> str:
        roll = self.rng.random()
        return "neighbours" if roll < 0.5 else "route" if roll < 0.85 else "coverage"


def _serve_seeds(seed: int) -> Tuple[np.random.SeedSequence, np.random.SeedSequence]:
    deployment, storm = np.random.SeedSequence([seed, 0]).spawn(2)
    return deployment, storm


def serve_positions(seed: int, side: float = SERVE_SIDE) -> np.ndarray:
    """The uniform deployment: round(λ · area) nodes on the square window."""
    n = int(round(SERVE_INTENSITY * side * side))
    return np.random.default_rng(_serve_seeds(seed)[0]).uniform(0.0, side, size=(n, 2))


def make_world(positions: np.ndarray, side: float = SERVE_SIDE) -> Any:
    """The served world (grid index backend) — what daemon start pays."""
    from repro.serve.world import LiveWorld, WorldConfig

    config = WorldConfig(window_xmax=float(side), window_ymax=float(side), backend="grid")
    return LiveWorld(positions.copy(), config)


def run_serve(
    workload: str,
    seed: int,
    world: Any,
    positions: np.ndarray,
    *,
    seconds: Optional[float] = None,
    max_units: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    host: Optional[HostSpeed] = None,
    side: float = SERVE_SIDE,
) -> Outcome:
    """Drive ``world`` through one ServeSession until time or units run out.

    A unit is a tick (serve_write) or a block (serve_read).  ``positions``
    must be the deployment ``world`` was built from.
    """
    from repro.serve.server import ServeSession

    if workload not in ("serve_write", "serve_read"):
        raise ValueError(f"not a serve workload: {workload!r}")
    session = ServeSession(world)
    storm = Storm(positions, side, world.config.udg_radius, _serve_seeds(seed)[1])
    writes = workload == "serve_write"
    out = Outcome()
    replies: List[Tuple[str, str]] = []
    start_edges = world.tracker.n_edges

    def updates(n_events: int) -> None:
        _begin(tracer, "bench.generate")
        lines = storm.tick(n_events)
        _end(tracer)
        submitted: List[int] = []
        busy = 0
        for line in lines:
            t0 = _clock()
            result = ingest(line)
            busy += _clock() - t0
            if result.immediate is not None:  # refused or unparsable
                replies.append(("update", result.immediate))
            else:
                submitted.append(t0)
        t0 = _clock()
        flushed = flush()
        t1 = _clock()
        busy += t1 - t0
        for t_submit in submitted:
            out.add_sample("update", t1 - t_submit)
        replies.extend(("update", reply) for _, reply in flushed)
        out.add("busy_ns", "update", busy)
        out.add("counts", "update", len(lines))

    def queries(n_queries: int) -> None:
        busy = 0
        for i in range(n_queries):
            _begin(tracer, "bench.generate")
            kind = ("neighbours" if i % 2 == 0 else "route") if writes else storm.read_kind()
            line = storm.query(kind)
            _end(tracer)
            t0 = _clock()
            result = answer(line)
            elapsed = _clock() - t0
            busy += elapsed
            out.add_sample(kind, elapsed)
            replies.append((kind, result.immediate))
        out.add("busy_ns", "query", busy)
        out.add("counts", "query", n_queries)

    with traced_layers(tracer) if tracer is not None else nullcontext() as stack:
        if tracer is not None:
            instrument_world(tracer, world, stack)
        ingest = _span(tracer, "serve.ingest", session.handle_line)
        answer = _span(tracer, "serve.query", session.handle_line)
        flush = _span(tracer, "serve.reply", session.flush)
        _begin(tracer, ROOT)
        start = _clock()
        while not _done(start, out.units, seconds, max_units):
            if host is not None:
                host.maybe_sample()
            if writes:
                updates(WRITE_EVENTS_PER_TICK)
                queries(WRITE_QUERIES_PER_TICK)
            else:
                queries(READ_QUERIES_PER_BLOCK)
                updates(READ_EVENTS_PER_BLOCK)
            out.units += 1
        out.wall_ns = _clock() - start
        _end(tracer)
        if tracer is not None:
            tracer.counters["tracker.edges"] = world.tracker.n_edges

    _check_replies(replies, out)
    out.checks["tracker_matches_recompute"] = bool(world.tracker.matches_recompute())
    out.checks["engine_matches_rebuild"] = bool(world.engine.matches_rebuild())
    end_edges = world.tracker.n_edges
    out.counts["edges_start"], out.counts["edges_end"] = start_edges, end_edges
    out.checks["edge_count_within_10pct"] = abs(end_edges - start_edges) <= EDGE_DRIFT * start_edges
    return out


def _check_replies(replies: List[Tuple[str, str]], out: Outcome) -> None:
    """Parse every reply, classify failures, hash the whole reply stream."""
    digest = hashlib.sha256()
    parsed_all = True
    for kind, reply in replies:
        digest.update(str(reply).encode("utf-8") + b"\n")
        try:
            payload = json.loads(reply)
        except (TypeError, ValueError):
            parsed_all = False
            out.add("counts", "protocol_errors", 1)
            continue
        if payload.get("ok") is True:
            if kind == "route":
                out.add("counts", "route_answers", 1)
                out.add("counts", "route_successes", int(bool(payload.get("success"))))
            continue
        error = str(payload.get("error", ""))
        if kind == "update" and error.endswith("is not alive"):
            out.add("counts", "semantic_rejects", 1)
        elif error == "overloaded":
            out.add("counts", "refusals", 1)
        else:
            out.add("counts", "protocol_errors", 1)
    out.checks["replies_parse"] = parsed_all
    out.digest = digest.hexdigest()


# ---------------------------------------------------------------------------
# batch_build
# ---------------------------------------------------------------------------
def _job_outputs(*arrays: Any) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _batch_job(
    job_seed: Any,
    tracer: Optional[Tracer],
    host: Optional[HostSpeed],
    out: Outcome,
    digest: Any,
) -> None:
    """One UDG job and one NN job; timings and work into ``out``."""
    from repro.core.coverage import measure_coverage
    from repro.core.nn_sens import build_nn_sens
    from repro.core.stretch import measure_stretch
    from repro.core.tiles_nn import NNTileSpec
    from repro.core.udg_sens import build_udg_sens
    from repro.distributed.construct import distributed_build
    from repro.distributed.sharding import sharded_build
    from repro.geometry.primitives import Rect
    from repro.routing.overlay import route_on_overlay

    udg_seed, nn_seed = np.random.SeedSequence(job_seed).spawn(2)
    rng = np.random.default_rng(udg_seed)
    window = Rect(0.0, 0.0, UDG_SIDE, UDG_SIDE)
    paused = 0

    def boundary() -> None:
        # Host samples between stages; their time is not the job's.
        nonlocal paused
        if host is not None:
            t = _clock()
            host.maybe_sample()
            paused += _clock() - t

    t0 = _clock()
    net = _span(tracer, "core.build_sens", build_udg_sens)(
        intensity=UDG_INTENSITY, window=window, rng=rng
    )
    boundary()
    stretch = _span(tracer, "core.measure_stretch", measure_stretch)(
        net, n_pairs=STRETCH_PAIRS, rng=rng
    )
    coverage = _span(tracer, "core.measure_coverage", measure_coverage)(
        net.sens.graph.points, window, COVERAGE_BOXES, rng=rng
    )
    good = sorted(t for t in net.classification.good_tiles() if t in net.sens.tile_representatives)
    route = _span(tracer, "routing.route_on_overlay", route_on_overlay)
    routes = []
    for _ in range(ROUTES_PER_JOB):
        a, b = rng.integers(len(good), size=2)
        routes.append(route(net, good[int(a)], good[int(b)]))
    boundary()
    distributed = _span(tracer, "distributed.build", distributed_build)(
        net.points, net.spec, window
    )
    boundary()
    sharded, info = _span(tracer, "shard.build", sharded_build)(
        net.points, net.spec, window, n_shards=2, max_workers=2
    )
    t1, udg_paused = _clock(), paused
    boundary()
    nn_window_side = NN_TILES * NNTileSpec.default().tile_side
    nn_net = _span(tracer, "core.build_sens", build_nn_sens)(
        k=NN_K,
        window=Rect(0.0, 0.0, nn_window_side, nn_window_side),
        rng=np.random.default_rng(nn_seed),
    )
    boundary()
    nn_stretch = _span(tracer, "core.measure_stretch", measure_stretch)(
        nn_net, n_pairs=STRETCH_PAIRS, rng=np.random.default_rng(nn_seed)
    )
    t2 = _clock()

    out.add("busy_ns", "udg_job", t1 - t0 - udg_paused)
    out.add("busy_ns", "nn_job", t2 - t1 - (paused - udg_paused))
    out.add("counts", "udg_nodes", len(net.points))
    out.add("counts", "nn_nodes", len(nn_net.points))
    out.add("counts", "jobs", 1)
    out.add("counts", "operations", 7 + len(routes))
    out.add("counts", "route_answers", len(routes))
    out.add("counts", "route_successes", sum(bool(r.success) for r in routes))
    if tracer is not None:
        tracer.count("routing.route_on_overlay.calls", len(routes))
        tracer.count("routing.route_on_overlay.successes", sum(bool(r.success) for r in routes))
        tracer.count("distributed.messages", distributed.stats.messages_sent)
        tracer.count("shard.halo_owned", info.total_owned)
        tracer.count("shard.halo_members", info.total_halo)

    # Output checks, outside the timed region.
    _begin(tracer, "bench.check")
    stretches = np.asarray([s.stretch for s in stretch.samples + nn_stretch.samples])
    checks = {
        "udg_sens_max_degree_le_4": int(net.sens.graph.degrees().max(initial=0)) <= 4,
        "nn_sens_max_degree_le_4": int(nn_net.sens.graph.degrees().max(initial=0)) <= 4,
        "distributed_matches_overlay": bool(distributed.matches_overlay(net.overlay)),
        "sharded_edges_equal_distributed": distributed.edge_set() == sharded.edge_set(),
        "stretch_finite": bool(len(stretches)) and bool(np.isfinite(stretches).all()),
    }
    for name, ok in checks.items():
        out.checks[name] = out.checks.get(name, True) and ok
    digest.update(
        _job_outputs(
            net.sens.graph.edges,
            nn_net.sens.graph.edges,
            distributed.edges,
            stretches,
            coverage.empty_probabilities,
            np.asarray([r.hops for r in routes], dtype=np.int64),
        )
    )
    _end(tracer)


def batch_setup_job(seed: int, rep: int) -> None:
    """A warm-up job: same shape as a measured job, on its own seed."""
    _batch_job([seed, 1, rep], None, None, Outcome(), hashlib.sha256())


def run_batch(
    seed: int,
    *,
    seconds: Optional[float] = None,
    max_units: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    host: Optional[HostSpeed] = None,
) -> Outcome:
    """Run UDG + NN jobs (one unit each) until time or units run out."""
    out = Outcome()
    digest = hashlib.sha256()
    with traced_layers(tracer) if tracer is not None else nullcontext() as stack:
        if tracer is not None:
            instrument_batch(tracer, stack)
        _begin(tracer, ROOT)
        start = _clock()
        while not _done(start, out.units, seconds, max_units):
            if host is not None:
                host.sample()
            _batch_job([seed, 0, out.units], tracer, host, out, digest)
            out.units += 1
        out.wall_ns = _clock() - start
        _end(tracer)
    out.digest = digest.hexdigest()
    return out
