"""Shared helpers for the benchmark suite.

Every benchmark regenerates one experiment from the DESIGN.md index (E01–E12),
prints the resulting table and persists the structured rows through the
:mod:`repro.runner` result store (``benchmarks/results/store/``): each emitted
result is keyed by its ``(experiment_id, params)`` pair, an unchanged result
is a no-op on rerun, and the JSON-lines records are what
``python -m repro.runner show`` reads.  The store is the single source of the
numbers that back EXPERIMENTS.md — re-render any experiment's table with
``repro.analysis.tables.store_table(store, "E01")`` or export everything via
``ResultStore.to_dataframe()`` (pandas optional); the old per-experiment
``results/<id>.txt`` side files are gone.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess

import numpy as np
import pytest
import scipy

from repro.analysis.experiments import ExperimentResult
from repro.analysis.tables import format_table
from repro.kernels import POSITIONS, default_backend_name
from repro.runner.serialize import canonical_json, params_key, result_to_payload
from repro.runner.store import ResultStore

REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
STORE_DIR = RESULTS_DIR / "store"


def _git_rev(root: pathlib.Path = REPO_ROOT) -> str:
    """Short HEAD revision, suffixed ``-dirty`` when tracked files differ.

    A run on uncommitted code must not be filed under its parent commit.
    The BENCH_*.json trajectory files themselves are left out of the check:
    the first benchmark of a session appends to them, which must not mark
    the rest of the session dirty.
    """

    def git(*args: str) -> str:
        proc = subprocess.run(
            ["git", *args], capture_output=True, text=True, cwd=root, timeout=10
        )
        return proc.stdout.strip()

    try:
        rev = git("rev-parse", "--short", "HEAD")
        changes = git(
            "status", "--porcelain", "--untracked-files=no", "--", ".", ":(exclude)BENCH_*.json"
        )
    except OSError:
        return "unknown"
    if not rev:
        return "unknown"
    return f"{rev}-dirty" if changes else rev


def _append_trajectory(result: ExperimentResult) -> None:
    """Append an S-series headline record to the repo-root BENCH_<ID>.json.

    The BENCH files are the perf *trajectory*: one compact record per
    (git revision, headline) — wall-clock speedups, throughput and the
    deterministic agreement certificates — checked in so regressions show
    up as history, not folklore.  Records whose revision and headline both
    match an existing entry are not re-appended, so reruns at one commit
    stay no-ops.

    Every record carries the kernel backend that served the run, the
    position dtype, the python/numpy/scipy versions and the CPU count, so
    trajectory numbers measured under different compute configurations are
    never compared as if they were the same machine state.  (Older records
    lack the later fields or carry ``null`` for them.)
    """
    if not result.experiment_id.startswith("S"):
        return
    path = REPO_ROOT / f"BENCH_{result.experiment_id}.json"
    record = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "n": result.params.get(
            "n_points", result.params.get("n_nodes", result.params.get("n"))
        ),
        "kernel_backend": default_backend_name(),
        "dtype": str(POSITIONS.dtype),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "headline": result.headline,
        "git_rev": _git_rev(),
        # Provenance stamp on a measurement record, not simulation state.
        "date": datetime.date.today().isoformat(),  # repro: allow[REPRO301] provenance stamp
    }
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    for existing in records:
        if (
            existing.get("git_rev") == record["git_rev"]
            and existing.get("headline") == record["headline"]
        ):
            return
    records.append(record)
    body = "[\n" + ",\n".join(canonical_json(r, strict=False) for r in records) + "\n]\n"
    path.write_text(body, encoding="utf-8")


@pytest.fixture(scope="session")
def emit_result():
    """Return a callable that prints and persists an ExperimentResult."""

    RESULTS_DIR.mkdir(exist_ok=True)
    store = ResultStore(STORE_DIR)

    def _emit(result: ExperimentResult) -> ExperimentResult:
        lines = [
            f"{result.experiment_id} — {result.title}",
            f"paper reference: {result.paper_reference}",
            "",
            format_table(result.rows),
            "",
            "headline: " + ", ".join(f"{k}={v}" for k, v in result.headline.items()),
        ]
        if result.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in result.notes)
        print("\n" + "\n".join(lines))

        record = {
            "key": params_key(result.experiment_id, result.params),
            "experiment_id": result.experiment_id,
            "params": result.params,
            "status": "ok",
            "result": result_to_payload(result),
        }
        existing = store.get(record["key"])
        # Compare canonical lines, not dicts: NaN payloads never compare equal.
        if existing is None or canonical_json(existing, strict=False) != canonical_json(
            record, strict=False
        ):
            store.put(record)
        _append_trajectory(result)
        return result

    return _emit
