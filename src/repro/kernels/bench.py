"""S06 — kernel-layer throughput and byte-identity per backend.

Profiles the three hottest kernels of the stack — ``cell_gather`` (the grid
index's bulk candidate expansion), ``within_ball_mask`` (the exact
closed-ball predicate) and ``step_events`` (the event queue's stepping
order) — on every registered backend, using the
:class:`~repro.kernels.profile.KernelProfiler` as the attribution source:
timings come from the profiler's per-kernel nanosecond counters, not from
timing whole queries.

Two arms:

* **Certificates** (deterministic): every registered backend is replayed on
  an adversarial workload — exact-boundary distances, radius-0 queries,
  subnormal offsets, tie-heavy event times — and its answers must be
  byte-identical to the ``reference`` backend (the extracted scalar loops).
  ``certificates_ok`` is the conjunction; it is the headline the floor file
  hard-asserts.
* **Throughput** (wall-clock): each kernel is driven ``repeats`` times per
  backend at size ``n`` and the headline reports per-call nanoseconds plus
  the speedup of every backend over ``reference``.

``BENCH_S06.json`` tracks the trajectory: per-kernel per-backend headline
rows, one record per (git revision, headline).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.experiments import ExperimentResult
from repro.kernels import (
    CellTable,
    KernelProfiler,
    cell_gather,
    profiled,
    registered_backend_names,
    step_events,
    within_ball_mask,
)
from repro.kernels.layout import pack_bounds, pack_keys
from repro.runner.registry import register

__all__ = ["experiment_s06_kernels"]

#: The profiled kernel set (the stack's three hottest inner loops).
PROFILED_KERNELS = ("cell_gather", "within_ball_mask", "step_events")

#: Exact-boundary constants from the PR 2 adversarial suite.
_BOUNDARY_RADIUS = 1.9033145596437013
_SUBNORMAL = 2.2e-313


def _workload(n: int, seed: int):
    """Seeded kernel operands at size ``n`` (shared by every backend arm)."""
    rng = np.random.default_rng(seed)
    # cell_gather: a dense-ish cell table plus a query stream that mixes
    # hits and misses, each carrying an owner id.
    span = max(4, int(np.sqrt(n / 4)))
    keys = rng.integers(0, span, size=(n, 2))
    key_min, spans = pack_bounds(keys)
    table = CellTable.group_points(pack_keys(keys, key_min, spans), key_min, spans)
    queries = rng.integers(-2, int(table.cell_ids.max()) + 3, size=n)
    owners = rng.integers(0, max(1, n // 8), size=n)
    # within_ball_mask: points around one center, radius tuned to ~50% hits,
    # with exact-boundary rows spliced in so the certificate bites.
    points = rng.normal(scale=1.0, size=(n, 2))
    points[:: max(1, n // 64)] = [_BOUNDARY_RADIUS, 0.0]
    points[1 :: max(1, n // 64)] = [0.0, _SUBNORMAL]
    center = np.zeros(2)
    radius = _BOUNDARY_RADIUS
    # step_events: quantised times force heavy (time, sequence) ties.
    times = np.round(rng.uniform(0, n / 16, size=n), 1)
    seqs = rng.permutation(n).astype(np.int64)
    return (table, queries, owners), (points, center, radius), (times, seqs)


def _run_all(
    backend: str,
    gather_args,
    ball_args,
    event_args,
) -> Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    g = cell_gather(*gather_args, backend=backend)
    m = within_ball_mask(*ball_args, backend=backend)
    e = step_events(*event_args, backend=backend)
    return g, m, e


def _certify(backend: str, workload) -> bool:
    """Byte-identity of ``backend`` against ``reference`` on the workload."""
    got = _run_all(backend, *workload)
    want = _run_all("reference", *workload)
    return (
        np.array_equal(got[0][0], want[0][0])
        and np.array_equal(got[0][1], want[0][1])
        and np.array_equal(got[1], want[1])
        and np.array_equal(got[2], want[2])
    )


@register("S06")
def experiment_s06_kernels(
    n: int = 100_000,
    certificate_n: int = 4_096,
    repeats: int = 3,
    seed: int = 406,
) -> ExperimentResult:
    """Kernel-layer throughput and byte-identity per backend.

    Parameters
    ----------
    n:
        Operand size of the throughput arm.
    certificate_n:
        Operand size of the deterministic byte-identity arm (kept small:
        the reference loops are scalar Python).
    repeats:
        Timed calls per kernel per backend; per-call nanoseconds are the
        profiler total divided by ``repeats``.
    seed:
        Workload RNG seed.
    """
    if n < 1 or certificate_n < 1 or repeats < 1:
        raise ValueError("n, certificate_n and repeats must be positive")
    backends = list(registered_backend_names())
    timed_backends = [b for b in backends if b != "reference"] + ["reference"]

    # -- certificate arm: every backend vs the extracted scalar loops ----------
    cert_workload = _workload(certificate_n, seed)
    certificates = {b: _certify(b, cert_workload) for b in backends if b != "reference"}
    certificates_ok = all(certificates.values())

    # -- throughput arm: profiler-attributed per-kernel nanoseconds ------------
    workload = _workload(n, seed + 1)
    ns_per_call: Dict[str, Dict[str, float]] = {}
    for backend in timed_backends:
        _run_all(backend, *workload)  # warm up (caches)
        prof = KernelProfiler()
        with profiled(prof):
            for _ in range(repeats):
                _run_all(backend, *workload)
        snap = prof.snapshot()
        ns_per_call[backend] = {
            kernel: snap[kernel]["ns"] / snap[kernel]["calls"]
            for kernel in PROFILED_KERNELS
        }

    rows: List[Dict] = []
    for kernel in PROFILED_KERNELS:
        reference_ns = ns_per_call["reference"][kernel]
        for backend in timed_backends:
            ns = ns_per_call[backend][kernel]
            rows.append(
                {
                    "kernel": kernel,
                    "backend": backend,
                    "ns_per_call": round(ns, 1),
                    "items_per_s": round(n / (ns / 1e9), 1) if ns > 0 else None,
                    "speedup_vs_reference": (
                        round(reference_ns / ns, 2) if ns > 0 else None
                    ),
                    "certified": (
                        True if backend == "reference" else certificates[backend]
                    ),
                }
            )

    headline: Dict = {"certificates_ok": certificates_ok, "backends": ",".join(backends)}
    for kernel in PROFILED_KERNELS:
        reference_ns = ns_per_call["reference"][kernel]
        for backend in timed_backends:
            if backend == "reference":
                continue
            ns = ns_per_call[backend][kernel]
            headline[f"speedup_{kernel}_{backend}"] = (
                round(reference_ns / ns, 2) if ns > 0 else None
            )

    return ExperimentResult(
        experiment_id="S06",
        title="Kernel-layer throughput and byte-identity per backend",
        paper_reference="construction/maintenance hot paths (PR 2/4/7), hoisted (PR 10)",
        rows=rows,
        headline=headline,
        notes=[
            "Speedups are wall-clock and vary between reruns; certificates_ok "
            "is deterministic — every backend answered the adversarial "
            "workload (exact-boundary distances, subnormal offsets, tie-heavy "
            "event times) byte-identically to the extracted scalar reference "
            "loops.",
            "Timings are profiler-attributed per-kernel nanoseconds "
            f"({repeats} calls per kernel per backend at n={n}), not "
            "whole-query wall time.",
        ],
    )
