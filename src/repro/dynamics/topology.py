"""Incremental topology maintenance: per-step edge diffs instead of rebuilds.

:class:`TopologyTracker` keeps the unit-disk edge set of a
:class:`~repro.dynamics.incremental.DynamicSpatialIndex` current by repairing
only the neighbourhoods that can have changed.  UDG edges have perfect
locality — an edge can appear or disappear only if one of its endpoints
moved, arrived or failed — so each :meth:`~TopologyTracker.update` queries
just the nodes the index marked dirty since the last step, leaves every edge
between two untouched nodes alone, and returns the resulting
:class:`EdgeDiff`.  Downstream consumers (graph metrics, the distributed
construction's repair path) can then process deltas instead of recomputing
the whole graph; :meth:`TopologyTracker.graph` materialises a
:class:`~repro.graphs.base.GeometricGraph` when a consumer does want the full
picture.

:class:`KnnTopologyTracker` provides the same diff surface for the ``NN(2,
k)`` graph.  kNN edges do *not* have the unit disk's fixed-radius locality,
but each node's *current* kNN radius (the distance to its k-th neighbour)
bounds how far away a change can matter: a node's neighbour list can only
change when a changed point's old or new position lands inside that ball.
The tracker exploits exactly that — it re-queries only the affected nodes
and splices the undirected edge set through directed-support bookkeeping,
falling back to recompute-and-diff when the step touched so many nodes that
the locality bound would visit everything anyway.

Edges travel in stable *node-id* space (pairs ``(i, j)``, ``i < j``,
lexicographic), encoded internally as single int64 keys so diffs are set
operations on sorted arrays.  :class:`TopologyTracker` keeps every key set in
two sorted views — lo-major ``i * 2**31 + j`` and hi-major ``j * 2**31 + i``
— so the edges incident to a node are one contiguous key range in each view,
and it keeps the edge set in two layers: a large *base* and a small *hot*
overlay holding the current edges of every node touched since the last fold.
An update finds the old incident edges by range lookups
(:func:`repro.kernels.ops.incident_edge_keys`), diffs the re-queried edges
against those alone and splices the change into the overlay by sorted merge
(:func:`repro.kernels.ops.splice_edge_keys`); only the overlay is copied.
When the overlay passes a fixed size it is folded into the base with the same
splice: a tick costs what its dirty nodes touch, and only a fold, every few
ticks, copies the whole base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.dynamics.incremental import DynamicSpatialIndex
from repro.geometry.index import KDTreeIndex
from repro.graphs.base import GeometricGraph
from repro.graphs.knn import knn_edges, knn_neighbour_indices
from repro.kernels import ops as kernel_ops

__all__ = ["EdgeDiff", "TopologyTracker", "KnnTopologyTracker"]

#: Edge keys pack two ids into one int64: ``i * 2**31 + j``.  2³¹ nodes is far
#: beyond anything the simulator holds in memory; the bound is checked.
_ENC = np.int64(2**31)

_EMPTY_KEYS = np.zeros(0, dtype=np.int64)
_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)

#: Hot nodes plus hot edges past which the overlay is folded into the base.
#: Each tick copies the overlay (at most this many keys, a few hundred KB);
#: each fold copies the base once, after about ``limit / churn`` ticks.
_HOT_LIMIT = 1 << 15


def _encode(pairs: np.ndarray) -> np.ndarray:
    """Sorted int64 keys of an ``(m, 2)`` id-pair array (``i < j`` rows)."""
    if len(pairs) == 0:
        return _EMPTY_KEYS.copy()
    if pairs.max() >= _ENC:
        raise ValueError("node ids past 2**31 cannot be edge-encoded")
    return np.sort(pairs[:, 0] * _ENC + pairs[:, 1])


def _hi_major(keys: np.ndarray) -> np.ndarray:
    """Sorted ``j * 2**31 + i`` keys of the ``i * 2**31 + j`` edge keys."""
    return np.sort((keys % _ENC) * _ENC + keys // _ENC)


def _member(values: np.ndarray, sorted_ids: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in the sorted array ``sorted_ids``."""
    if len(sorted_ids) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_ids, values), len(sorted_ids) - 1)
    return sorted_ids[pos] == values


def _decode(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_encode`; sorted keys give lexicographic rows."""
    if len(keys) == 0:
        return _EMPTY_EDGES.copy()
    return np.column_stack([keys // _ENC, keys % _ENC])


@dataclass(frozen=True)
class EdgeDiff:
    """Edge delta of one timestep, in stable node-id space.

    ``added`` / ``removed`` are ``(m, 2)`` id pairs, smaller id first, rows
    lexicographic — the same canonical shape the graph builders emit.
    """

    added: np.ndarray
    removed: np.ndarray

    @property
    def n_added(self) -> int:
        return len(self.added)

    @property
    def n_removed(self) -> int:
        return len(self.removed)

    @property
    def churn(self) -> int:
        """Total number of edge changes this step."""
        return self.n_added + self.n_removed


class TopologyTracker:
    """Maintains the UDG edge set of a dynamic index through local repairs.

    Parameters
    ----------
    index:
        The dynamic index whose alive nodes define the graph.  The tracker
        takes over the index's dirty-id stream (it calls
        :meth:`~repro.dynamics.incremental.DynamicSpatialIndex.consume_dirty`),
        so use one tracker per index.
    radius:
        UDG connection radius.  Mirroring
        :func:`repro.graphs.udg.udg_edges`, ``radius == 0`` yields an edgeless
        graph (a zero-range radio connects nothing) rather than the raw
        index layer's coincident-point matching.
    """

    def __init__(self, index: DynamicSpatialIndex, radius: float) -> None:
        if not radius >= 0:  # also rejects NaN
            raise ValueError("radius must be non-negative")
        self.index = index
        self.radius = float(radius)
        index.consume_dirty()  # updates before tracking started are not diffs
        keys = _encode(index.query_pairs(self.radius)) if self.radius > 0 else _EMPTY_KEYS.copy()
        # The edge set is (base edges with no hot endpoint) ∪ hot edges, where
        # the hot edges are the current edges of every hot node.
        self._base_keys, self._base_swapped = keys, _hi_major(keys)
        self._hot_nodes = _EMPTY_KEYS  # sorted ids touched since the last fold
        self._hot_keys, self._hot_swapped = _EMPTY_KEYS, _EMPTY_KEYS
        self._n_edges = len(keys)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def edges(self) -> np.ndarray:
        """Current ``(m, 2)`` edge array (id space, lexicographic)."""
        self._fold()
        return _decode(self._base_keys)

    def _fold(self) -> None:
        """Fold the hot overlay into the base: its edges replace the hot nodes' ones."""
        if len(self._hot_nodes):
            self._base_keys, self._base_swapped, _, _ = kernel_ops.splice_edge_keys(
                self._base_keys, self._base_swapped, self._hot_nodes, self._hot_keys, int(_ENC)
            )
            self._hot_nodes = _EMPTY_KEYS
            self._hot_keys, self._hot_swapped = _EMPTY_KEYS, _EMPTY_KEYS

    def update(
        self, dirty: np.ndarray | None = None, deleted: np.ndarray | None = None
    ) -> EdgeDiff:
        """Repair the edge set after index updates; returns what changed.

        Only edges incident to a dirty (moved/inserted) or deleted node are
        re-examined: the dirty nodes' closed balls are re-queried with one
        bulk query, and the old incident edges are found by range lookups —
        in the hot overlay, and in the base for nodes that were not hot yet
        (their base edges to hot nodes are stale copies and are skipped).
        Every fresh edge has a dirty endpoint, so ``added`` / ``removed`` are
        differences against those incident edges alone, and only the overlay
        is spliced.  Edges between two untouched nodes are provably unchanged
        and never visited.

        With no arguments the tracker consumes the index's own dirty stream;
        pass an already-consumed ``(dirty, deleted)`` pair explicitly when
        another consumer (e.g. the
        :class:`~repro.distributed.repair.DistributedRepairEngine`) shares
        the same stream.  Passing only one of the two is rejected — it would
        silently drop the other half of the diff.
        """
        if (dirty is None) != (deleted is None):
            raise ValueError(
                "pass both dirty and deleted (one consumed stream), or neither"
            )
        if dirty is None:
            dirty, deleted = self.index.consume_dirty()
        dirty = np.asarray(dirty, dtype=np.int64).reshape(-1)
        deleted = np.asarray(deleted, dtype=np.int64).reshape(-1)
        if dirty.size == 0 and deleted.size == 0:
            return EdgeDiff(_EMPTY_EDGES.copy(), _EMPTY_EDGES.copy())
        alive = self.index.ids()
        if alive.size and alive[-1] >= _ENC:
            raise ValueError("node ids past 2**31 cannot be edge-encoded")

        fresh = _EMPTY_KEYS
        if self.radius > 0 and dirty.size:
            lists = self.index.query_radius_many(self.index.id_positions()[dirty], self.radius)
            counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
            owners = np.repeat(dirty, counts)
            nbrs = np.concatenate(lists)
            other = owners != nbrs
            owners, nbrs = owners[other], nbrs[other]
            # Each edge between two dirty nodes appears twice; the kernel dedupes.
            fresh = np.minimum(owners, nbrs) * _ENC + np.maximum(owners, nbrs)

        touched = np.unique(np.concatenate([dirty, deleted]))
        newly_hot = touched[~_member(touched, self._hot_nodes)]
        # Live base edges of the newly hot nodes: those to an already hot
        # node are stale, the overlay holds that node's current edges.
        pulled = kernel_ops.incident_edge_keys(
            self._base_keys, self._base_swapped, newly_hot, int(_ENC)
        )
        pulled = pulled[
            ~(_member(pulled // _ENC, self._hot_nodes) | _member(pulled % _ENC, self._hot_nodes))
        ]
        self._hot_keys, self._hot_swapped, added, removed = kernel_ops.splice_edge_keys(
            self._hot_keys, self._hot_swapped, touched, fresh, int(_ENC)
        )
        # The pulled edges were live in the base: present again means
        # unchanged, absent from the spliced overlay means removed.
        added = added[~_member(added, pulled)]
        removed = np.sort(np.concatenate([removed, pulled[~_member(pulled, self._hot_keys)]]))
        self._hot_nodes = np.sort(np.concatenate([self._hot_nodes, newly_hot]))
        self._n_edges += len(added) - len(removed)
        if len(self._hot_nodes) + len(self._hot_keys) > _HOT_LIMIT:
            self._fold()
        return EdgeDiff(_decode(added), _decode(removed))

    def matches_recompute(self) -> bool:
        """Whether the maintained edge set equals a from-scratch recompute."""
        expected = (
            _encode(self.index.query_pairs(self.radius)) if self.radius > 0 else _EMPTY_KEYS
        )
        self._fold()
        return (
            self._n_edges == len(expected)
            and np.array_equal(self._base_keys, expected)
            and np.array_equal(self._base_swapped, _hi_major(expected))
        )

    def graph(self, name: str | None = None) -> GeometricGraph:
        """Materialise the current topology as a compacted :class:`GeometricGraph`.

        Node ``k`` of the returned graph is the ``k``-th alive id of the
        index (the :meth:`~repro.dynamics.incremental.DynamicSpatialIndex.ids`
        order), so metrics line up with ``index.positions()``.
        """
        ids = self.index.ids()
        edges = self.edges()
        remapped = np.searchsorted(ids, edges) if len(edges) else _EMPTY_EDGES.copy()
        return GeometricGraph(
            self.index.positions().copy(),
            remapped,
            name=name or f"UDG(r={self.radius:g}, dynamic)",
        )


def _in_sorted(arr: np.ndarray, value: int) -> bool:
    """Membership probe on a sorted id array."""
    pos = int(np.searchsorted(arr, value))
    return pos < len(arr) and int(arr[pos]) == value


class KnnTopologyTracker:
    """Per-step ``NN(2, k)`` edge diffs, repaired through a kNN-radius bound.

    The undirected ``NN(2, k)`` edge {i, j} exists when either endpoint lists
    the other among its k nearest.  The tracker maintains the *directed*
    lists per node and derives the locality of each update from them: node
    ``j``'s list — the k nearest points, all within ``r_j`` = j's current
    k-th-neighbour distance — can only change when some changed point's old
    or new position lies within ``r_j`` of ``j`` (a point that stays outside
    the ball was not, and cannot become, one of the k nearest, so the point
    set within the ball, hence its k smallest distances, is untouched).
    :meth:`update` therefore:

    1. finds the affected nodes with one bulk radius query at
       ``R = max_j r_j`` around every changed position, filtered per
       candidate against its own ``r_j``,
    2. re-queries the k nearest of just those nodes against a fresh static
       index over the surviving positions (the index build is cheap C code;
       the per-node queries were the recompute bottleneck), and
    3. splices the undirected edge set: a dropped directed edge ``i → t``
       only removes {i, t} when the reverse support ``t → i`` is gone too.

    Two regimes still recompute from scratch (and count in
    ``full_recomputes``): steps that touch more than ``recompute_fraction``
    of the alive nodes (e.g. all-nodes mobility — the locality machinery
    would visit everything anyway), and steps that change the effective
    ``k`` (arrivals/failures around ``n = k + 1``, where every list changes
    length).  Exact distance ties keep the k-d tree's own tie order, as for
    the static builder — a measure-zero divergence for continuous inputs.
    """

    def __init__(
        self,
        index: DynamicSpatialIndex,
        k: int,
        recompute_fraction: float = 0.25,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if recompute_fraction <= 0:
            raise ValueError("recompute_fraction must be positive")
        self.index = index
        self.k = int(k)
        self.recompute_fraction = float(recompute_fraction)
        #: Nodes whose directed lists were repaired / full recompute count.
        self.repaired_nodes = 0
        self.full_recomputes = 0
        index.consume_dirty()
        self._lists: Dict[int, np.ndarray] = {}  # node id → directed targets, ascending
        self._kdist: Dict[int, float] = {}  # node id → k-th-neighbour distance
        self._pos: Dict[int, Tuple[float, float]] = {}  # last-seen positions
        self._k_eff = 0
        self._edge_keys = self._rebuild_all()

    # -- full recompute ---------------------------------------------------------
    def _rebuild_all(self) -> np.ndarray:
        ids = self.index.ids()
        n = len(ids)
        self._lists, self._kdist, self._pos = {}, {}, {}
        self._k_eff = min(self.k, max(n - 1, 0))
        if n == 0:
            return _EMPTY_KEYS.copy()
        if ids[-1] >= _ENC:
            raise ValueError("node ids past 2**31 cannot be edge-encoded")
        positions = self.index.positions()
        for i, node in enumerate(ids.tolist()):
            self._pos[node] = (float(positions[i, 0]), float(positions[i, 1]))
        if self._k_eff == 0:
            for node in ids.tolist():
                self._lists[node] = _EMPTY_KEYS.copy()
                self._kdist[node] = 0.0
            return _EMPTY_KEYS.copy()
        rows = knn_neighbour_indices(positions, self.k)
        for i, node in enumerate(ids.tolist()):
            row = rows[i]
            row = row[row >= 0]
            diff = positions[row[-1]] - positions[i]
            self._kdist[node] = float(np.hypot(diff[0], diff[1]))
            self._lists[node] = np.sort(ids[row])
        src = np.repeat(np.arange(n, dtype=np.int64), rows.shape[1])
        tgt = rows.ravel()
        valid = tgt >= 0
        a, b = ids[src[valid]], ids[tgt[valid]]
        return np.unique(np.minimum(a, b) * _ENC + np.maximum(a, b))

    # -- incremental repair ------------------------------------------------------
    def _repair(self, dirty: np.ndarray, deleted: np.ndarray) -> np.ndarray:
        ids = self.index.ids()
        if ids.size and ids[-1] >= _ENC:
            raise ValueError("node ids past 2**31 cannot be edge-encoded")
        pts_by_id = self.index.id_positions()
        k_eff = self._k_eff

        changed_centers: List[Tuple[float, float]] = []
        affected: Set[int] = set()
        removed_candidates: List[Tuple[int, int]] = []  # directed (i, t) drops
        for node in deleted.tolist():
            old = self._pos.pop(node, None)
            if old is not None:
                changed_centers.append(old)
            old_list = self._lists.pop(node, None)
            self._kdist.pop(node, None)
            if old_list is not None:
                removed_candidates.extend((node, int(t)) for t in old_list.tolist())
        new_positions = pts_by_id[dirty]
        for i, node in enumerate(dirty.tolist()):
            affected.add(node)
            old = self._pos.get(node)
            if old is not None:
                changed_centers.append(old)
            current = (float(new_positions[i, 0]), float(new_positions[i, 1]))
            self._pos[node] = current
            changed_centers.append(current)

        # Affected set: every node whose current kNN ball a changed position
        # entered or left.  One bulk query at the largest ball radius, then a
        # per-candidate cut against its own radius.
        reach = max(self._kdist.values(), default=0.0)
        centers = np.asarray(changed_centers, dtype=np.float64).reshape(-1, 2)
        for center, candidates in zip(centers, self.index.query_radius_many(centers, reach)):
            if candidates.size == 0:
                continue
            offsets = pts_by_id[candidates] - center
            distances = np.hypot(offsets[:, 0], offsets[:, 1])
            radii = np.fromiter(
                (self._kdist.get(j, np.inf) for j in candidates.tolist()),
                dtype=np.float64,
                count=len(candidates),
            )
            affected.update(int(j) for j in candidates[distances <= radii].tolist())

        aff = np.fromiter(sorted(affected), dtype=np.int64, count=len(affected))
        positions = self.index.positions()
        rows = np.searchsorted(ids, aff)
        nearest = KDTreeIndex(positions).query_nearest(positions[rows], k_eff + 1)
        added_keys: Set[int] = set()
        for a_i, node in enumerate(aff.tolist()):
            row = nearest[a_i]
            row = row[row != rows[a_i]][:k_eff]
            diff = positions[row[-1]] - positions[rows[a_i]]
            targets = np.sort(ids[row])
            old_list = self._lists.get(node, _EMPTY_KEYS)
            for t in np.setdiff1d(targets, old_list, assume_unique=True).tolist():
                added_keys.add(int(min(node, t) * _ENC + max(node, t)))
            for t in np.setdiff1d(old_list, targets, assume_unique=True).tolist():
                removed_candidates.append((node, int(t)))
            self._lists[node] = targets
            self._kdist[node] = float(np.hypot(diff[0], diff[1]))
        self.repaired_nodes += len(aff)

        # A dropped directed edge only breaks the undirected edge when the
        # (post-repair) reverse support is gone too.
        removed_keys: Set[int] = set()
        for i, t in removed_candidates:
            reverse = self._lists.get(t)
            if reverse is None or not _in_sorted(reverse, i):
                removed_keys.add(int(min(i, t) * _ENC + max(i, t)))
        removed_keys -= added_keys
        fresh = self._edge_keys
        if removed_keys:
            drop = np.fromiter(sorted(removed_keys), dtype=np.int64, count=len(removed_keys))
            fresh = np.setdiff1d(fresh, drop, assume_unique=True)
        if added_keys:
            grow = np.fromiter(sorted(added_keys), dtype=np.int64, count=len(added_keys))
            fresh = np.union1d(fresh, grow)
        return fresh

    # -- diff surface ------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return len(self._edge_keys)

    def edges(self) -> np.ndarray:
        return _decode(self._edge_keys)

    def update(
        self, dirty: np.ndarray | None = None, deleted: np.ndarray | None = None
    ) -> EdgeDiff:
        """Repair the kNN edge set and report the delta since last time.

        With no arguments the tracker consumes the index's own dirty stream;
        pass an already-consumed ``(dirty, deleted)`` pair explicitly when
        another consumer (e.g. the
        :class:`~repro.distributed.repair.DistributedRepairEngine`) shares
        the same stream — the same contract as
        :meth:`TopologyTracker.update`, so the two tracker flavours compose
        with the repair engine interchangeably.  Passing only one of the two
        is rejected; an empty diff is a true no-op (no affected-set
        bookkeeping, no repair/recompute accounting).
        """
        if (dirty is None) != (deleted is None):
            raise ValueError(
                "pass both dirty and deleted (one consumed stream), or neither"
            )
        if dirty is None:
            dirty, deleted = self.index.consume_dirty()
        dirty = np.asarray(dirty, dtype=np.int64).reshape(-1)
        deleted = np.asarray(deleted, dtype=np.int64).reshape(-1)
        if dirty.size == 0 and deleted.size == 0:
            return EdgeDiff(_EMPTY_EDGES.copy(), _EMPTY_EDGES.copy())
        old_keys = self._edge_keys
        n_alive = len(self.index)
        k_eff = min(self.k, max(n_alive - 1, 0))
        n_changed = int(dirty.size + deleted.size)
        if k_eff != self._k_eff or k_eff == 0 or (
            n_changed > self.recompute_fraction * max(1, n_alive)
        ):
            self.full_recomputes += 1
            fresh = self._rebuild_all()
        else:
            fresh = self._repair(dirty, deleted)
        added = np.setdiff1d(fresh, old_keys, assume_unique=True)
        removed = np.setdiff1d(old_keys, fresh, assume_unique=True)
        self._edge_keys = fresh
        return EdgeDiff(_decode(added), _decode(removed))

    def matches_recompute(self) -> bool:
        """Whether the maintained edge set equals a from-scratch recompute."""
        ids = self.index.ids()
        if len(ids) == 0:
            return len(self._edge_keys) == 0
        compact_edges = knn_edges(self.index.positions(), self.k)
        expected = _encode(ids[compact_edges]) if len(compact_edges) else _EMPTY_KEYS
        return np.array_equal(self._edge_keys, expected)
