"""S06 — kernel-layer throughput and byte-identity per backend (PR 12).

Profiles the three hottest kernels (``cell_gather``, ``within_ball_mask``,
``step_events``) on every registered backend with profiler-attributed
per-kernel timings, and replays an adversarial workload (exact-boundary
distances, subnormal offsets, tie-heavy event times) through each backend
against the extracted scalar ``reference`` loops.

Floors: the byte-identity certificate is hard-asserted (deterministic);
the numpy backend must beat the scalar reference by ≥2× on every profiled
kernel at this size (measured margins are 10–100×, so CI load cannot turn
this into a spurious failure).  The headline trajectory is tracked in
``BENCH_S06.json``.
"""

from repro.kernels.bench import PROFILED_KERNELS, experiment_s06_kernels


def test_s06_kernels(benchmark, emit_result):
    result = benchmark.pedantic(
        experiment_s06_kernels,
        kwargs={"n": 100_000},
        rounds=1,
        iterations=1,
    )
    emit_result(result)
    # Deterministic certificate: every backend answers the adversarial
    # workload byte-identically to the extracted scalar reference loops.
    assert result.headline["certificates_ok"] is True
    # The vectorised default must decisively beat the scalar loops it
    # replaced, on every profiled kernel.
    for kernel in PROFILED_KERNELS:
        assert result.headline[f"speedup_{kernel}_numpy"] >= 2.0
