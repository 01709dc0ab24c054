"""The kernel API: eight hot-path primitives with pluggable implementations.

Every interpreter-bound inner loop of the stack reduces to one of these:

* :func:`cell_gather` — expand packed cell-table hits into (owner, member)
  candidate pairs: one ``searchsorted`` + vectorised range gather.  The
  engine under ``GridIndex._matches`` and the dynamic layer's bulk queries.
* :func:`within_ball_mask` — the exact closed-ball predicate (true
  Euclidean distance via ``hypot``, no tolerance; at ``radius == 0`` only
  coincident points qualify).  Shared by both index backends, so they agree
  on every boundary pair.
* :func:`count_in_balls` — per-owner candidate counts (the count-only
  bulk query's tail).
* :func:`pair_candidates` — group matched (owner, member) pairs into one
  sorted member array per owner (the bulk query's tail).
* :func:`splice_edges` — merge edge fragments into the canonical sorted,
  duplicate-free ``(m, 2)`` pair array (repair re-splice, shard stitching).
* :func:`incident_edge_keys` — the edges of a sorted packed-key edge set
  incident to a few nodes: one ``searchsorted`` range per node in the
  lo-major and the hi-major key view, expanded by a range gather.
* :func:`splice_edge_keys` — replace the incident edges of a set of nodes in
  such an edge set (the topology tracker's per-tick update): the diff is
  taken against the incident keys alone, then one sorted merge per key view
  splices the change in — instead of hash-based set algebra over every key.
* :func:`step_events` — total-order event scheduling: the pop order of a
  pending ``(time, sequence)`` batch (the ``EventQueue`` stepping loop).

Each function dispatches through :mod:`repro.kernels.dispatch` (numpy
default, optional compiled backends) and, when a
:class:`~repro.kernels.profile.KernelProfiler` is installed, accounts its
calls/ns/bytes.  The ``reference`` backend registered here is the extracted
scalar loop each vectorised kernel replaced — the byte-identity certificate
baseline.  The scalar reference calls ``np.hypot`` *per element* rather
than ``math.hypot``: CPython's ``math.hypot`` is a different (correctly
rounded) algorithm that disagrees with the platform libm by 1 ULP on ~0.5%
of inputs, which would flip exact-boundary memberships.
"""

from __future__ import annotations

import bisect
from itertools import takewhile
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels.dispatch import KernelBackend, get_backend, register_backend
from repro.kernels.layout import CellTable, range_gather
from repro.kernels.profile import active_profiler

__all__ = [
    "cell_gather",
    "within_ball_mask",
    "count_in_balls",
    "pair_candidates",
    "splice_edges",
    "incident_edge_keys",
    "splice_edge_keys",
    "step_events",
]

BackendSpec = Union[str, KernelBackend, None]

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


# -- public dispatchers ------------------------------------------------------------


def cell_gather(
    table: CellTable,
    packed: np.ndarray,
    owners: np.ndarray,
    *,
    backend: BackendSpec = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand cell-table hits into (owner, member) candidate pairs.

    ``packed[i]`` is a packed cell id wanted by query ``owners[i]``; for
    every id present in ``table`` the cell's members are emitted paired
    with their owner, in ``packed`` order (cells absent from the table
    contribute nothing).  Returns ``(owners_expanded, members)``.
    """
    impl = get_backend(backend).kernels["cell_gather"]
    prof = active_profiler()
    if prof is None:
        return impl(table, packed, owners)
    t0 = prof.clock()
    out = impl(table, packed, owners)
    prof.record(
        "cell_gather",
        prof.clock() - t0,
        packed.nbytes + owners.nbytes + out[0].nbytes + out[1].nbytes,
    )
    return out


def within_ball_mask(
    points: np.ndarray,
    center: np.ndarray,
    radius: float,
    *,
    backend: BackendSpec = None,
) -> np.ndarray:
    """Exact closed-ball membership mask (see ``geometry.index.within_ball``).

    ``center`` broadcasts against ``points``: one ``(2,)`` center or one
    center per point.  True Euclidean distance via ``hypot`` — never
    squared, which underflows for subnormal offsets.
    """
    impl = get_backend(backend).kernels["within_ball_mask"]
    prof = active_profiler()
    if prof is None:
        return impl(points, center, radius)
    t0 = prof.clock()
    out = impl(points, center, radius)
    prof.record(
        "within_ball_mask",
        prof.clock() - t0,
        np.asarray(points).nbytes + out.nbytes,
    )
    return out


def count_in_balls(
    owners: np.ndarray,
    n_owners: int,
    *,
    backend: BackendSpec = None,
) -> np.ndarray:
    """Per-owner match counts from the mask-filtered owner column."""
    impl = get_backend(backend).kernels["count_in_balls"]
    prof = active_profiler()
    if prof is None:
        return impl(owners, n_owners)
    t0 = prof.clock()
    out = impl(owners, n_owners)
    prof.record("count_in_balls", prof.clock() - t0, owners.nbytes + out.nbytes)
    return out


def pair_candidates(
    owners: np.ndarray,
    members: np.ndarray,
    n_owners: int,
    member_bound: int,
    *,
    backend: BackendSpec = None,
) -> List[np.ndarray]:
    """Group matched (owner, member) pairs into per-owner sorted arrays.

    ``member_bound`` is an exclusive upper bound on member values (the
    indexed point count), letting the fast path sort one collision-free
    combined key ``owner * bound + member`` instead of a two-key lexsort;
    the overflow fallback is byte-identical.
    """
    impl = get_backend(backend).kernels["pair_candidates"]
    prof = active_profiler()
    if prof is None:
        return impl(owners, members, n_owners, member_bound)
    t0 = prof.clock()
    out = impl(owners, members, n_owners, member_bound)
    prof.record(
        "pair_candidates",
        prof.clock() - t0,
        owners.nbytes + members.nbytes,
    )
    return out


def splice_edges(
    parts: Sequence[Union[np.ndarray, Sequence[Tuple[int, int]]]],
    *,
    backend: BackendSpec = None,
) -> np.ndarray:
    """Merge edge fragments into the canonical sorted unique ``(m, 2)`` array.

    Byte-identical to ``np.asarray(sorted(set(map(tuple, ...))))`` over the
    pooled fragments — the scalar splice the repair engine and the shard
    stitcher used to run.
    """
    impl = get_backend(backend).kernels["splice_edges"]
    prof = active_profiler()
    if prof is None:
        return impl(parts)
    t0 = prof.clock()
    out = impl(parts)
    prof.record("splice_edges", prof.clock() - t0, out.nbytes)
    return out


def incident_edge_keys(
    keys: np.ndarray,
    swapped: np.ndarray,
    ids: np.ndarray,
    base: int,
    *,
    backend: BackendSpec = None,
) -> np.ndarray:
    """Sorted keys of the edges with an endpoint in ``ids`` (any order, repeats allowed).

    ``keys`` / ``swapped`` are the lo-major and hi-major sorted views of one
    edge set, as for :func:`splice_edge_keys`.  The cost follows ``ids`` and
    the edges found, not the size of the set.
    """
    impl = get_backend(backend).kernels["incident_edge_keys"]
    prof = active_profiler()
    if prof is None:
        return impl(keys, swapped, ids, base)
    t0 = prof.clock()
    out = impl(keys, swapped, ids, base)
    prof.record("incident_edge_keys", prof.clock() - t0, ids.nbytes + out.nbytes)
    return out


def splice_edge_keys(
    keys: np.ndarray,
    swapped: np.ndarray,
    touched: np.ndarray,
    fresh: np.ndarray,
    base: int,
    *,
    backend: BackendSpec = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replace every edge incident to ``touched`` by the ``fresh`` edges.

    An edge ``{i, j}`` (``i < j``) is packed as ``i * base + j``.  ``keys``
    holds the current edge set sorted and duplicate-free; ``swapped`` the
    same edges packed hi-major (``j * base + i``), also sorted, so the edges
    whose *larger* endpoint is touched form contiguous key ranges too.
    ``touched`` holds node ids and ``fresh`` the keys of the touched nodes'
    edges after the update, both in any order with repeats allowed; every
    fresh edge must have a touched endpoint.

    Returns ``(keys', swapped', added, removed)``: the spliced arrays (same
    layout as the inputs) and the sorted keys of the edges that appeared and
    disappeared.  Byte-identical to recomputing
    ``(keys \\ incident) ∪ fresh`` with set algebra over every key.
    """
    impl = get_backend(backend).kernels["splice_edge_keys"]
    prof = active_profiler()
    if prof is None:
        return impl(keys, swapped, touched, fresh, base)
    t0 = prof.clock()
    out = impl(keys, swapped, touched, fresh, base)
    prof.record(
        "splice_edge_keys",
        prof.clock() - t0,
        touched.nbytes + fresh.nbytes + sum(a.nbytes for a in out),
    )
    return out


def step_events(
    times: np.ndarray,
    seqs: np.ndarray,
    *,
    until: Optional[float] = None,
    max_events: Optional[int] = None,
    backend: BackendSpec = None,
) -> np.ndarray:
    """Pop order of a pending event batch under the ``(time, seq)`` total order.

    Returns the indices of the events to process, in processing order:
    ascending time, ties broken by ascending sequence number (which is
    unique, so the order is total).  ``until`` keeps only events with
    ``time <= until``; ``max_events`` truncates the batch.
    """
    impl = get_backend(backend).kernels["step_events"]
    prof = active_profiler()
    if prof is None:
        return impl(times, seqs, until, max_events)
    t0 = prof.clock()
    out = impl(times, seqs, until, max_events)
    prof.record(
        "step_events", prof.clock() - t0, times.nbytes + seqs.nbytes + out.nbytes
    )
    return out


# -- numpy backend -----------------------------------------------------------------


def _numpy_cell_gather(
    table: CellTable, packed: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    cell_ids = table.cell_ids
    n_cells = len(cell_ids)
    if n_cells == 0 or len(packed) == 0:
        return _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
    pos = np.searchsorted(cell_ids, packed)
    hit = (pos < n_cells) & (cell_ids[np.minimum(pos, n_cells - 1)] == packed)
    if not hit.any():
        return _EMPTY_IDS.copy(), _EMPTY_IDS.copy()
    pos = pos[hit]
    starts = table.starts[pos]
    counts = table.counts[pos]
    return np.repeat(owners[hit], counts), table.order[range_gather(starts, counts)]


def _numpy_within_ball_mask(
    points: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    diff = points - center
    return np.hypot(diff[..., 0], diff[..., 1]) <= radius


def _numpy_count_in_balls(owners: np.ndarray, n_owners: int) -> np.ndarray:
    return np.bincount(owners, minlength=n_owners)


def _numpy_pair_candidates(
    owners: np.ndarray, members: np.ndarray, n_owners: int, member_bound: int
) -> List[np.ndarray]:
    # A single combined-key argsort is ~10x faster than the equivalent
    # two-key lexsort; fall back when the combined key could overflow int64.
    bound = max(1, int(member_bound))
    if int(n_owners) * bound < 2**62:
        order = np.argsort(owners * bound + members, kind="stable")
    else:
        order = np.lexsort((members, owners))
    members = members[order]
    per_owner = np.bincount(owners, minlength=n_owners)
    return np.split(members, np.cumsum(per_owner)[:-1])


def _numpy_splice_edges(
    parts: Sequence[Union[np.ndarray, Sequence[Tuple[int, int]]]]
) -> np.ndarray:
    arrays = [np.asarray(p, dtype=np.int64).reshape(-1, 2) for p in parts]
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return np.zeros((0, 2), dtype=np.int64)
    # A lone fragment is read in place: concatenating it would only copy it
    # (the gather below already writes a fresh array).
    pooled = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=0)
    order = np.lexsort((pooled[:, 1], pooled[:, 0]))
    pooled = pooled[order]
    del order
    keep = np.empty(len(pooled), dtype=np.bool_)
    keep[0] = True
    np.any(pooled[1:] != pooled[:-1], axis=1, out=keep[1:])
    return pooled[keep]


def _unique_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (a sort and an adjacent-duplicate drop: on small
    int64 arrays several times faster than ``np.unique``'s hash path)."""
    out = np.sort(values)
    if len(out) > 1:
        out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out


def _in_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in the sorted array ``sorted_set``."""
    if len(sorted_set) == 0:
        return np.zeros(len(values), dtype=np.bool_)
    pos = np.minimum(np.searchsorted(sorted_set, values), len(sorted_set) - 1)
    return sorted_set[pos] == values


def _key_ranges(sorted_keys: np.ndarray, ids: np.ndarray, base: int) -> np.ndarray:
    """Keys of ``sorted_keys`` whose major id (``key // base``) is in ``ids``."""
    starts = np.searchsorted(sorted_keys, ids * base)
    ends = np.searchsorted(sorted_keys, (ids + 1) * base)
    return sorted_keys[range_gather(starts, ends - starts)]


def _merge_sorted(arr: np.ndarray, drop: np.ndarray, add: np.ndarray) -> np.ndarray:
    """``arr`` minus its sorted subset ``drop``, plus sorted ``add`` (disjoint)."""
    kept = np.delete(arr, np.searchsorted(arr, drop))
    return np.insert(kept, np.searchsorted(kept, add), add)


def _swap_keys(keys: np.ndarray, base: int) -> np.ndarray:
    return np.sort((keys % base) * base + keys // base)


def _numpy_incident_edge_keys(
    keys: np.ndarray, swapped: np.ndarray, ids: np.ndarray, base: int
) -> np.ndarray:
    ids = _unique_sorted(ids)
    by_lo = _key_ranges(keys, ids, base)
    by_hi = _key_ranges(swapped, ids, base)
    # An edge with both endpoints in ``ids`` turns up in both lookups.
    return _unique_sorted(np.concatenate([by_lo, (by_hi % base) * base + by_hi // base]))


def _numpy_splice_edge_keys(
    keys: np.ndarray,
    swapped: np.ndarray,
    touched: np.ndarray,
    fresh: np.ndarray,
    base: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    fresh = _unique_sorted(fresh)
    incident = _numpy_incident_edge_keys(keys, swapped, touched, base)
    added = fresh[~_in_sorted(fresh, incident)]
    removed = incident[~_in_sorted(incident, fresh)]
    return (
        _merge_sorted(keys, removed, added),
        _merge_sorted(swapped, _swap_keys(removed, base), _swap_keys(added, base)),
        added,
        removed,
    )


def _numpy_step_events(
    times: np.ndarray,
    seqs: np.ndarray,
    until: Optional[float],
    max_events: Optional[int],
) -> np.ndarray:
    order = np.lexsort((seqs, times))
    if until is not None:
        # times[order] ascends, so the kept set is a prefix.
        cut = int(np.searchsorted(times[order], until, side="right"))
        order = order[:cut]
    if max_events is not None:
        order = order[: max(0, int(max_events))]
    return order


# -- reference backend (extracted scalar loops) ------------------------------------


def _reference_cell_gather(
    table: CellTable, packed: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    cell_list = table.cell_ids.tolist()
    starts = table.starts.tolist()
    counts = table.counts.tolist()
    order = table.order
    out_owners: List[int] = []
    out_members: List[int] = []
    for key, owner in zip(packed.tolist(), owners.tolist()):
        pos = bisect.bisect_left(cell_list, key)
        if pos < len(cell_list) and cell_list[pos] == key:
            start, count = starts[pos], counts[pos]
            for j in range(start, start + count):
                out_owners.append(owner)
                out_members.append(int(order[j]))
    return (
        np.array(out_owners, dtype=np.int64),
        np.array(out_members, dtype=np.int64),
    )


def _reference_within_ball_mask(
    points: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.broadcast_to(np.asarray(center, dtype=np.float64), pts.shape)
    flat_p = pts.reshape(-1, 2)
    flat_c = ctr.reshape(-1, 2)
    out = np.empty(len(flat_p), dtype=np.bool_)
    for i in range(len(flat_p)):
        # Scalar np.hypot on purpose: it is the same libm primitive the
        # vectorised path uses, so exact-boundary pairs classify identically
        # (math.hypot is a different algorithm, off by 1 ULP on ~0.5% of
        # inputs).
        out[i] = float(
            np.hypot(flat_p[i, 0] - flat_c[i, 0], flat_p[i, 1] - flat_c[i, 1])
        ) <= radius
    return out.reshape(pts.shape[:-1])


def _reference_count_in_balls(owners: np.ndarray, n_owners: int) -> np.ndarray:
    out = np.zeros(int(n_owners), dtype=np.intp)
    for owner in owners.tolist():
        out[owner] += 1
    return out


def _reference_pair_candidates(
    owners: np.ndarray, members: np.ndarray, n_owners: int, member_bound: int
) -> List[np.ndarray]:
    groups: List[List[int]] = [[] for _ in range(int(n_owners))]
    for owner, member in zip(owners.tolist(), members.tolist()):
        groups[owner].append(member)
    return [np.array(sorted(group), dtype=np.int64) for group in groups]


def _reference_splice_edges(
    parts: Sequence[Union[np.ndarray, Sequence[Tuple[int, int]]]]
) -> np.ndarray:
    edges = set()
    for part in parts:
        arr = np.asarray(part, dtype=np.int64).reshape(-1, 2)
        edges.update((int(a), int(b)) for a, b in arr)
    if not edges:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(sorted(edges), dtype=np.int64)


def _reference_incident_edge_keys(
    keys: np.ndarray, swapped: np.ndarray, ids: np.ndarray, base: int
) -> np.ndarray:
    hit = set(ids.tolist())
    found = sorted(key for key in keys.tolist() if key // base in hit or key % base in hit)
    return np.array(found, dtype=np.int64)


def _reference_splice_edge_keys(
    keys: np.ndarray,
    swapped: np.ndarray,
    touched: np.ndarray,
    fresh: np.ndarray,
    base: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    hit = set(touched.tolist())
    old = set(keys.tolist())
    incident = {key for key in old if key // base in hit or key % base in hit}
    new_incident = set(fresh.tolist())
    spliced = sorted((old - incident) | new_incident)

    def as_keys(values) -> np.ndarray:
        return np.array(sorted(values), dtype=np.int64)

    return (
        as_keys(spliced),
        as_keys((key % base) * base + key // base for key in spliced),
        as_keys(new_incident - incident),
        as_keys(incident - new_incident),
    )


def _reference_step_events(
    times: np.ndarray,
    seqs: np.ndarray,
    until: Optional[float],
    max_events: Optional[int],
) -> np.ndarray:
    t = times.tolist()
    s = seqs.tolist()
    order = sorted(range(len(t)), key=lambda i: (t[i], s[i]))
    if until is not None:
        order = list(takewhile(lambda i: t[i] <= until, order))
    if max_events is not None:
        order = order[: max(0, int(max_events))]
    return np.array(order, dtype=np.intp)


register_backend(
    "numpy",
    lambda: KernelBackend(
        "numpy",
        {
            "cell_gather": _numpy_cell_gather,
            "within_ball_mask": _numpy_within_ball_mask,
            "count_in_balls": _numpy_count_in_balls,
            "pair_candidates": _numpy_pair_candidates,
            "splice_edges": _numpy_splice_edges,
            "incident_edge_keys": _numpy_incident_edge_keys,
            "splice_edge_keys": _numpy_splice_edge_keys,
            "step_events": _numpy_step_events,
        },
    ),
)

register_backend(
    "reference",
    lambda: KernelBackend(
        "reference",
        {
            "cell_gather": _reference_cell_gather,
            "within_ball_mask": _reference_within_ball_mask,
            "count_in_balls": _reference_count_in_balls,
            "pair_candidates": _reference_pair_candidates,
            "splice_edges": _reference_splice_edges,
            "incident_edge_keys": _reference_incident_edge_keys,
            "splice_edge_keys": _reference_splice_edge_keys,
            "step_events": _reference_step_events,
        },
    ),
)
