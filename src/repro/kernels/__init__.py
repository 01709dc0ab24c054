"""One structure-of-arrays compute layer under index, repair, shard and serve.

The hot inner loops of the stack — the grid cell-table gather, the exact
closed-ball predicate, the repair/shard edge splice, and the event-queue
stepping order — used to live hand-rolled inside their consumer modules, so
every optimisation had to be re-implemented four times.  This package hoists
them into one kernel vocabulary:

* :mod:`repro.kernels.layout` — the SoA buffer descriptions (positions,
  row ids, cell keys) and the CSR-style :class:`~repro.kernels.layout.CellTable`
  shared by the grid index, the dynamic layer's adopted views, and the
  shard workers' shared-memory blocks.
* :mod:`repro.kernels.ops` — the kernel API (``cell_gather``,
  ``within_ball_mask``, ``count_in_balls``, ``pair_candidates``,
  ``splice_edges``, ``incident_edge_keys``, ``splice_edge_keys``,
  ``step_events``).
* :mod:`repro.kernels.dispatch` — the backend registry: ``numpy`` is the
  zero-dependency default and ``reference`` the extracted scalar certificate
  baseline, selected via the ``REPRO_KERNEL_BACKEND`` environment variable,
  :func:`use_backend` or an explicit argument.
* :mod:`repro.kernels.profile` — opt-in per-kernel call/ns/bytes counters
  behind an injected clock (the S06 benchmark's attribution source).

Discipline (see CONTRIBUTING.md): every kernel keeps its scalar reference
implementation registered, and every backend is property-tested
byte-identical against it (or carries a documented tolerance).
"""

from repro.kernels.dispatch import (
    KERNEL_NAMES,
    KernelBackend,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backend_names,
    set_backend,
    use_backend,
)
from repro.kernels.layout import CELL_KEYS, POSITIONS, ROW_IDS, BufferSpec, CellTable
from repro.kernels.ops import (
    cell_gather,
    count_in_balls,
    incident_edge_keys,
    pair_candidates,
    splice_edge_keys,
    splice_edges,
    step_events,
    within_ball_mask,
)
from repro.kernels.profile import KernelProfiler, KernelStats, active_profiler, profiled

__all__ = [
    "KERNEL_NAMES",
    "KernelBackend",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "registered_backend_names",
    "set_backend",
    "use_backend",
    "BufferSpec",
    "CellTable",
    "POSITIONS",
    "ROW_IDS",
    "CELL_KEYS",
    "cell_gather",
    "count_in_balls",
    "pair_candidates",
    "splice_edges",
    "incident_edge_keys",
    "splice_edge_keys",
    "step_events",
    "within_ball_mask",
    "KernelProfiler",
    "KernelStats",
    "active_profiler",
    "profiled",
]
