"""Structure-of-arrays buffer descriptions shared across the stack.

The kernel layer operates on flat, contiguous arrays — positions, stable
ids, packed cell keys — rather than per-point Python objects.  This module
is the single place those buffer shapes are written down:

* :class:`BufferSpec` describes one SoA buffer (dtype + per-item shape) and
  derives byte sizes and zero-copy views from it.  The shard layer's
  shared-memory blocks (:mod:`repro.distributed.sharding` creates them,
  :mod:`repro.shard.worker` attaches to them) and the grid index both read
  their dtypes from the same :data:`POSITIONS` / :data:`ROW_IDS` /
  :data:`CELL_KEYS` instances, so the two sides cannot drift apart.
* :class:`CellTable` is the CSR-style packed cell table (sorted unique cell
  ids, per-cell start/count, and the member permutation) that
  :class:`repro.geometry.index.GridIndex` builds from scratch and
  :meth:`~repro.geometry.index.GridIndex.from_cell_table` adopts from the
  dynamic layer's patched cell map.  Both constructors funnel through the
  same grouping code here.
* :func:`sort_groups` is the one stable group-by-key primitive (argsort +
  boundary diff) underneath the cell table and the shard worker's tile and
  region classification.

Everything in this package is importable without scipy or any other
optional dependency — consumers below (geometry, simulation) depend on
kernels, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "BufferSpec",
    "POSITIONS",
    "ROW_IDS",
    "CELL_KEYS",
    "CellTable",
    "sort_groups",
    "range_gather",
    "pack_bounds",
    "spans_fit_packed",
    "pack_keys",
]


@dataclass(frozen=True)
class BufferSpec:
    """Description of one SoA buffer: a name, a dtype and a per-item shape.

    A spec is the contract between whoever allocates a buffer (e.g. a
    ``multiprocessing.shared_memory`` block) and whoever views it: both call
    :meth:`nbytes` / :meth:`view` off the same instance instead of
    re-deriving ``count * 2 * 8``-style arithmetic locally.
    """

    name: str
    dtype: np.dtype
    item_shape: Tuple[int, ...] = ()

    @property
    def itemsize(self) -> int:
        """Bytes per item (dtype itemsize times the per-item element count)."""
        n_elem = 1
        for dim in self.item_shape:
            n_elem *= dim
        return int(self.dtype.itemsize) * n_elem

    def nbytes(self, count: int) -> int:
        """Bytes needed to hold ``count`` items."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.itemsize * int(count)

    def shape(self, count: int) -> Tuple[int, ...]:
        return (int(count), *self.item_shape)

    def view(self, buf: memoryview | bytearray, count: int) -> np.ndarray:
        """Zero-copy ndarray view of ``count`` items at the head of ``buf``."""
        return np.ndarray(self.shape(count), dtype=self.dtype, buffer=buf)

    def empty(self, count: int = 0) -> np.ndarray:
        """Freshly allocated (uninitialised) array of ``count`` items."""
        return np.empty(self.shape(count), dtype=self.dtype)


#: Planar point coordinates — the layout of the shard layer's shared-memory
#: position blocks and of every ``points`` array the kernels consume.
POSITIONS = BufferSpec("positions", np.dtype(np.float64), (2,))

#: Stable row/node ids — the shard layer's rows blocks, cell-table member
#: ids, and every index array the kernels emit.
ROW_IDS = BufferSpec("row_ids", np.dtype(np.int64), ())

#: Integer ``(cx, cy)`` grid cell keys as produced by ``_exact_keys``.
CELL_KEYS = BufferSpec("cell_keys", np.dtype(np.int64), (2,))


def sort_groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable group-by over integer ``keys``.

    Returns ``(order, group_keys, starts, counts)`` where ``order`` is the
    stable permutation sorting ``keys`` ascending, ``group_keys`` the sorted
    unique keys, and ``keys[order][starts[g] : starts[g] + counts[g]]`` is
    group ``g``.  The stable sort keeps original element order inside each
    group — the property every consumer (cell tables, shard tile/region
    classification) relies on for deterministic output.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    n = len(sorted_keys)
    if n == 0:
        empty = np.zeros(0, dtype=ROW_IDS.dtype)
        return order.astype(np.int64), keys[:0], empty, empty
    firsts = np.nonzero(np.diff(sorted_keys))[0] + 1
    starts = np.concatenate([[0], firsts]).astype(np.int64)
    counts = np.diff(np.append(starts, n)).astype(np.int64)
    return order, sorted_keys[starts], starts, counts


def range_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[g] .. starts[g] + counts[g] - 1`` of every run ``g``, in order."""
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + np.arange(total, dtype=np.int64) - offsets


def pack_bounds(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Bounding box of integer cell ``keys``: ``(key_min, spans)``."""
    key_min = keys.min(axis=0)
    spans = keys.max(axis=0) - key_min + 1
    return key_min, spans


def spans_fit_packed(spans: np.ndarray) -> bool:
    """Whether a ``spans`` box packs into collision-free int64 keys."""
    return int(spans[0]) * int(spans[1]) < 2**62


def pack_keys(keys: np.ndarray, key_min: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Pack ``(cx, cy)`` keys into one int64 per key: ``(cx-min)*span_y + (cy-min)``."""
    return (keys[:, 0] - key_min[0]) * spans[1] + (keys[:, 1] - key_min[1])


@dataclass(frozen=True)
class CellTable:
    """CSR-style packed cell table: the SoA form of a spatial hash.

    ``cell_ids`` holds the packed ids of the occupied cells, sorted
    ascending and duplicate-free; cell ``c``'s members are
    ``order[starts[c] : starts[c] + counts[c]]``.  ``key_min``/``spans``
    record the packing so queries can derive packed ids for arbitrary
    cells.  The two constructors mirror the two ways an index comes to
    exist: :meth:`group_points` buckets a fresh point set, and
    :meth:`adopt_cells` wraps an externally maintained cell → members map
    (the dynamic layer's patched table) without re-bucketing anything.
    """

    cell_ids: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    order: np.ndarray
    key_min: np.ndarray
    spans: np.ndarray

    @classmethod
    def empty(cls) -> "CellTable":
        zeros = np.zeros(0, dtype=ROW_IDS.dtype)
        return cls(
            cell_ids=zeros,
            starts=zeros.copy(),
            counts=zeros.copy(),
            order=zeros.copy(),
            key_min=np.zeros(2, dtype=CELL_KEYS.dtype),
            spans=np.ones(2, dtype=CELL_KEYS.dtype),
        )

    @classmethod
    def group_points(
        cls, packed: np.ndarray, key_min: np.ndarray, spans: np.ndarray
    ) -> "CellTable":
        """Bucket points by their packed cell key (stable within each cell)."""
        order, cell_ids, starts, counts = sort_groups(packed)
        return cls(
            cell_ids=cell_ids,
            starts=starts,
            counts=counts,
            order=order,
            key_min=key_min,
            spans=spans,
        )

    @classmethod
    def adopt_cells(
        cls,
        packed: np.ndarray,
        members: Sequence[np.ndarray],
        key_min: np.ndarray,
        spans: np.ndarray,
    ) -> "CellTable":
        """Wrap an existing cell → sorted-members map (one entry per packed id).

        ``packed`` must be duplicate-free but need not be sorted;
        ``members[i]`` are the member ids of cell ``packed[i]``.  The member
        arrays are concatenated in cell order — adopted by reference, never
        re-bucketed.
        """
        cell_order = np.argsort(packed, kind="stable")
        counts = np.fromiter(
            (len(members[i]) for i in cell_order.tolist()),
            dtype=ROW_IDS.dtype,
            count=len(packed),
        )
        return cls(
            cell_ids=packed[cell_order],
            starts=np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64),
            counts=counts,
            order=np.concatenate([members[i] for i in cell_order.tolist()]),
            key_min=key_min,
            spans=spans,
        )

    @property
    def n_cells(self) -> int:
        return len(self.cell_ids)

    @property
    def n_members(self) -> int:
        return len(self.order)

    def member_lists(self) -> List[np.ndarray]:
        """Per-cell member views, in ``cell_ids`` order."""
        return [
            self.order[s : s + c]
            for s, c in zip(self.starts.tolist(), self.counts.tolist())
        ]
