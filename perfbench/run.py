"""Run one workload of the stack benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_write --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics;
``--trace 1`` measures the same workload untraced for half the time, then
replays exactly as many units traced, checks that both answered
byte-identically, and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
import traceback
from typing import Any, Dict, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: LiveWorld constructions timed per serve run; setup_s is their median.
SERVE_SETUP_REPS = 15
#: Warm-up jobs timed per batch_build run; setup_s is their median.
BATCH_SETUP_REPS = 3


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_write", "serve_read", "batch_build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _timed(fn: Any, *args: Any) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced run: setup timings plus one measured run, each beside host samples."""
    from perfbench import workloads as wl

    setup_host, run_host = wl.HostSpeed(), wl.HostSpeed()
    setup = []
    if workload == "batch_build":
        for rep in range(BATCH_SETUP_REPS):
            setup_host.sample()
            setup.append(_timed(wl.batch_setup_job, seed, rep))
        setup_host.sample()
        outcome = wl.run_batch(seed, seconds=seconds, host=run_host)
    else:
        positions = wl.serve_positions(seed)
        for _ in range(SERVE_SETUP_REPS):
            setup_host.sample()
            setup_host.sample()
            t0 = time.perf_counter()
            world = wl.make_world(positions)
            setup.append(time.perf_counter() - t0)
        setup_host.sample()
        outcome = wl.run_serve(workload, seed, world, positions, seconds=seconds, host=run_host)
    return {"setup": setup, "outcome": outcome,
            "setup_factor": setup_host.factor(statistics.median),
            "run_factor": run_host.factor()}


def _trace(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced for half the time, then the same units traced."""
    from perfbench import workloads as wl
    from perfbench.tracing import Tracer

    tracer = Tracer()
    half = seconds / 2.0
    if workload == "batch_build":
        wl.batch_setup_job(seed, 0)  # first-call costs stay out of both arms
        untraced = wl.run_batch(seed, seconds=half)
        traced = wl.run_batch(seed, max_units=untraced.units, tracer=tracer)
    else:
        positions = wl.serve_positions(seed)
        untraced = wl.run_serve(workload, seed, wl.make_world(positions), positions, seconds=half)
        traced = wl.run_serve(
            workload, seed, wl.make_world(positions), positions,
            max_units=untraced.units, tracer=tracer,
        )
    return {"tracer": tracer, "untraced": untraced, "outcome": traced}


def _print_metrics(rows: Dict[str, Any]) -> None:
    for name, (value, unit, n) in rows.items():
        shown = "n/a (too few samples beyond the percentile)" if value is None else f"{value:.6g}"
        count = f"  (n={n})" if n is not None else ""
        print(f"metric {name} = {shown} {unit}{count}")


def run(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    from repro.kernels import use_backend

    from perfbench import report

    with use_backend("numpy"):
        print(f"# perfbench workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
        print("env " + json.dumps(report.environment(ROOT), sort_keys=True))
        if trace:
            got = _trace(workload, seed, seconds)
            tracer, outcome, untraced = got["tracer"], got["outcome"], got["untraced"]
            outcome.checks["traced_digest_equals_untraced"] = outcome.digest == untraced.digest
            metrics = report.layer_metrics(tracer, outcome, untraced)
            residual = metrics["trace.residual_frac"]["value"]
            outcome.checks["trace_residual_within_limit"] = residual <= report.RESIDUAL_LIMIT
            print(f"trace wall_ms={outcome.wall_ns / 1e6:.1f} units={outcome.units} "
                  f"overhead={metrics['trace.overhead_ratio']['value']:.3f} "
                  f"residual={residual:.4f} (limit {report.RESIDUAL_LIMIT})")
            for name, ms, share in report.self_time_table(tracer, outcome.wall_ns):
                print(f"self {name:<28} {ms:12.2f} ms {100 * share:6.2f}%")
        else:
            got = _measure(workload, seed, seconds)
            outcome = got["outcome"]
            named = report.named_metrics(workload, outcome, got["setup"])
            _print_metrics(named)
            print(f"host setup_factor={got['setup_factor']:.4f} run_factor={got['run_factor']:.4f}"
                  " (reference-op time / nominal; gated metrics are rescaled by them)")
            metrics = report.gated_metrics(
                workload, named, got["setup_factor"], got["run_factor"]
            )
    if workload == "batch_build":
        loaded = sorted(m for m in sys.modules if m.startswith(("repro.dynamics", "repro.serve")))
        print(f"batch_build loaded from repro.dynamics / repro.serve: {loaded or 'nothing'}")
    for name, ok in sorted(outcome.checks.items()):
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    print(f"reply_digest sha256={outcome.digest} units={outcome.units}")
    attempted, failed = report.failures(outcome)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _stop_children() -> None:
    """Stop and reap every process the run started.

    The sharded build's worker pool joins its workers on close, but creating
    a shared-memory block also starts multiprocessing's resource tracker,
    which would otherwise outlive this process as an orphan.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe, then waits for it to exit


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except Exception:  # a crash in the program under test is a failed run
        traceback.print_exc()
        sys.stdout.flush()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        _stop_children()
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
