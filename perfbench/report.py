"""Metric assembly: the percentile rule, the environment stamp, the metric tables.

Three tables come out of a run:

* ``GATED`` — the end-to-end metrics of ``BENCHMARK.json``.  Every workload
  reports all of them, so each is defined on every workload (see
  ``primary``/``secondary`` below).
* the workload's named end-to-end metrics (``update.p50_ms``,
  ``route.p99_ms``, ``build.udg_nodes_per_s``, ...), printed with their
  sample counts on untraced runs;
* ``PER_LAYER`` — the traced run's per-layer self times and counters.
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import platform
import resource
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.tracing import ROOT, Tracer
from perfbench.workloads import Outcome

__all__ = [
    "MIN_BEYOND",
    "RESIDUAL_LIMIT",
    "GATED",
    "PER_LAYER",
    "percentile",
    "environment",
    "named_metrics",
    "gated_metrics",
    "layer_metrics",
    "failures",
]

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
#: The traced run's unattributed harness time, as a share of its wall time,
#: must stay below this: the layer spans then account for the rest.
RESIDUAL_LIMIT = 0.05

#: name -> unit of the gated end-to-end metrics, in BENCHMARK.json order.
GATED: Dict[str, str] = {
    "setup_s": "s",
    "primary.per_s": "1/s",
    "secondary.per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: The named metrics behind ``primary.per_s`` / ``secondary.per_s`` on each
#: workload.
PRIMARY = {
    "serve_write": ("update.events_per_s", "query.per_s"),
    "serve_read": ("query.per_s", "update.events_per_s"),
    "batch_build": ("build.udg_nodes_per_s", "build.nn_nodes_per_s"),
}

_SPANS = [
    "serve.ingest", "serve.coalesce", "serve.apply", "serve.reply", "serve.query",
    "world.neighbours", "world.route", "world.coverage",
    "index.update", "index.query", "index.consume_dirty",
    "tracker.update", "repair.update", "repair.result",
    "core.build_sens", "graphs.build_udg", "graphs.build_knn",
    "core.classify_tiles", "core.build_overlay",
    "core.measure_stretch", "core.measure_coverage", "routing.route_on_overlay",
    "distributed.build", "shard.build", "bench.generate", "bench.check",
]
_KERNELS = ["cell_gather", "within_ball_mask", "count_in_balls", "pair_candidates", "splice_edges"]

#: name -> unit of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: Dict[str, str] = {f"{span}.ms": "ms" for span in _SPANS}
PER_LAYER.update(
    {
        "serve.coalesce_ratio": "ratio",
        "serve.semantic_rejects": "count",
        "world.route.success_ratio": "ratio",
        "index.update.ids": "count",
        "index.query.centers": "count",
        "tracker.update.calls": "count",
        "tracker.dirty_ids": "count",
        "tracker.edge_churn": "count",
        "tracker.edges": "count",
        "repair.dirty_tiles": "count",
        "repair.changed_tiles": "count",
        "repair.changed_per_dirty_tile": "ratio",
        "repair.re_elected_regions": "count",
        "repair.respliced_pairs": "count",
        "repair.messages": "count",
        "routing.route_on_overlay.success_ratio": "ratio",
        "distributed.messages": "count",
        "shard.halo_overhead": "ratio",
    }
)
for _kernel in _KERNELS:
    PER_LAYER[f"kernel.{_kernel}.calls"] = "count"
    PER_LAYER[f"kernel.{_kernel}.ms"] = "ms"
    PER_LAYER[f"kernel.{_kernel}.bytes"] = "B_computed"
PER_LAYER.update(
    {
        "trace.units": "count",
        "trace.wall_ms": "ms",
        "trace.untraced_wall_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.residual_frac": "ratio",
    }
)


def percentile(samples: Sequence[float], q: float) -> Optional[Tuple[float, int]]:
    """Nearest-rank ``q``-th percentile and the sample count.

    ``None`` unless at least :data:`MIN_BEYOND` samples lie beyond the
    percentile's rank: a tail read from fewer samples is not reported.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return float(sorted(samples)[rank - 1]), n


def _git_rev(root: pathlib.Path) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (no subprocess); None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def _source_digest(root: pathlib.Path) -> str:
    """sha256 over the package sources: identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: pathlib.Path) -> Dict[str, Any]:
    """The stamp every result carries: code, toolchain, cores, kernel backend."""
    import importlib.util

    import numpy as np
    import scipy

    from repro.kernels import POSITIONS, default_backend_name

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "git_rev": _git_rev(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(affinity) if affinity is not None else None,
        "kernel_backend": default_backend_name(),
        "positions_dtype": str(POSITIONS.dtype),
        "numba_available": importlib.util.find_spec("numba") is not None,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failures(outcome: Outcome) -> Tuple[int, int]:
    """``(attempted, failed)``: refusals, protocol errors and failed checks fail.

    Same-tick move-after-delete rejections and unroutable answers are
    correct answers and count as neither.
    """
    counts = outcome.counts
    attempted = (
        counts.get("update", 0) + counts.get("query", 0) + counts.get("operations", 0)
        + len(outcome.checks)
    )
    failed = (
        counts.get("refusals", 0) + counts.get("protocol_errors", 0)
        + sum(1 for ok in outcome.checks.values() if not ok)
    )
    return max(attempted, 1), failed


def _rate(work: float, busy_ns: float) -> Optional[float]:
    return work / (busy_ns / 1e9) if busy_ns > 0 and work > 0 else None


Metric = Tuple[Optional[float], str, Optional[int]]  # value, unit, sample count


def named_metrics(
    workload: str, outcome: Outcome, setup_times: List[float]
) -> Dict[str, Metric]:
    """The workload's named end-to-end metrics (``None`` where not measurable)."""
    out: Dict[str, Metric] = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
    }

    def pct(kind: str, q: int) -> Metric:
        got = percentile(outcome.samples.get(kind, []), q)
        n = len(outcome.samples.get(kind, []))
        return (got[0] / 1e6 if got else None, "ms", n)

    busy, counts = outcome.busy_ns, outcome.counts
    if workload.startswith("serve"):
        out["update.p50_ms"] = pct("update", 50)
        if workload == "serve_write":
            out["update.p90_ms"] = pct("update", 90)
            out["neighbours.p50_ms"] = pct("neighbours", 50)
            out["route.p50_ms"] = pct("route", 50)
        else:
            for kind in ("neighbours", "route", "coverage"):
                out[f"{kind}.p50_ms"] = pct(kind, 50)
                out[f"{kind}.p99_ms"] = pct(kind, 99)
        out["update.events_per_s"] = (
            _rate(counts.get("update", 0), busy.get("update", 0)), "1/s", counts.get("update", 0)
        )
        out["query.per_s"] = (
            _rate(counts.get("query", 0), busy.get("query", 0)), "1/s", counts.get("query", 0)
        )
        out["serve.semantic_rejects"] = (counts.get("semantic_rejects", 0), "count", None)
        routes = counts.get("route_answers", 0)
        out["world.route.success_ratio"] = (
            counts.get("route_successes", 0) / routes if routes else None, "ratio", routes
        )
    else:
        jobs = counts.get("jobs", 0)
        out["build.udg_nodes_per_s"] = (
            _rate(counts.get("udg_nodes", 0), busy.get("udg_job", 0)), "1/s", jobs
        )
        out["build.nn_nodes_per_s"] = (
            _rate(counts.get("nn_nodes", 0), busy.get("nn_job", 0)), "1/s", jobs
        )
    out["peak_rss_mb"] = (peak_rss_mb(), "MB", None)
    attempted, failed = failures(outcome)
    out["failed_frac"] = (failed / attempted, "ratio", attempted)
    return out


def gated_metrics(
    workload: str, named: Dict[str, Metric], setup_factor: float, run_factor: float
) -> Dict[str, Dict[str, Any]]:
    """The BENCHMARK.json end-to-end metrics, read off the named ones.

    Times and rates are rescaled to the nominal host: ``setup_factor`` and
    ``run_factor`` are :meth:`~perfbench.workloads.HostSpeed.factor` over the
    set-up and the measured run.
    """
    primary, secondary = PRIMARY[workload]
    values = {
        "setup_s": _scaled(named["setup_s"][0], 1.0 / setup_factor),
        "primary.per_s": _scaled(named[primary][0], run_factor),
        "secondary.per_s": _scaled(named[secondary][0], run_factor),
        "peak_rss_mb": named["peak_rss_mb"][0],
    }
    missing = [name for name, value in values.items() if not value]
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in GATED.items()}


def _scaled(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, traced: Outcome, untraced: Outcome
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of the traced run (0 where a layer is unused)."""
    c, wall = tracer.counters, traced.wall_ns
    values: Dict[str, float] = {f"{span}.ms": tracer.self_ns.get(span, 0) / 1e6 for span in _SPANS}
    values.update(
        {
            "serve.coalesce_ratio": _ratio(c["serve.operations"], c["serve.events"]),
            "serve.semantic_rejects": traced.counts.get("semantic_rejects", 0),
            "world.route.success_ratio": _ratio(c["world.route.successes"], c["world.route.calls"]),
            "repair.changed_per_dirty_tile": _ratio(c["repair.changed_tiles"], c["repair.dirty_tiles"]),
            "routing.route_on_overlay.success_ratio": _ratio(
                c["routing.route_on_overlay.successes"], c["routing.route_on_overlay.calls"]
            ),
            "shard.halo_overhead": _ratio(c["shard.halo_members"], c["shard.halo_owned"]),
        }
    )
    for name in ("index.update.ids", "index.query.centers", "tracker.update.calls",
                 "tracker.dirty_ids", "tracker.edge_churn", "tracker.edges",
                 "repair.dirty_tiles", "repair.changed_tiles", "repair.re_elected_regions",
                 "repair.respliced_pairs", "repair.messages", "distributed.messages"):
        values[name] = c[name]
    for kernel in _KERNELS:
        values[f"kernel.{kernel}.calls"] = tracer.calls.get(f"kernel.{kernel}", 0)
        values[f"kernel.{kernel}.ms"] = tracer.self_ns.get(f"kernel.{kernel}", 0) / 1e6
        values[f"kernel.{kernel}.bytes"] = c[f"kernel.{kernel}.bytes"]
    values.update(
        {
            "trace.units": traced.units,
            "trace.wall_ms": wall / 1e6,
            "trace.untraced_wall_ms": untraced.wall_ns / 1e6,
            "trace.overhead_ratio": _ratio(wall, untraced.wall_ns),
            "trace.residual_frac": _ratio(tracer.self_ns.get(ROOT, 0), wall),
        }
    )
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def self_time_table(tracer: Tracer, wall_ns: int) -> List[Tuple[str, float, float]]:
    """``(span, self ms, share of wall)`` for every span, largest first."""
    rows = [(name, ns / 1e6, _ratio(ns, wall_ns)) for name, ns in tracer.self_ns.items()]
    return sorted(rows, key=lambda row: -row[1])
