"""Spatial-index backends with vectorised bulk queries.

Every layer of the library ultimately reduces to fixed-radius neighbour
queries over planar point sets: the UDG builder enumerates all pairs within
the connection radius, the distributed simulator checks one-hop locality, the
sensing model asks which sensors cover an event, and continuum percolation
derives adjacency from the same closed ball.  This module gives those
consumers one interface — :class:`SpatialIndex` — with two backends:

* :class:`GridIndex` — a uniform spatial hash.  The cell table is built with
  one ``np.unique`` over packed integer cell keys (CSR-style: points sorted
  by cell plus start/count arrays), and :meth:`GridIndex.query_radius_many`
  answers *all* queries with one candidate gather and one exact-distance
  mask instead of a Python loop per query.
* :class:`KDTreeIndex` — a thin wrapper over :class:`scipy.spatial.cKDTree`,
  and the only backend with nearest-neighbour queries.

Both backends implement the exact closed ball through one shared predicate,
:func:`within_ball` (true Euclidean distance via ``np.hypot``, no tolerance;
at ``radius == 0`` only exactly coincident points qualify) and return
identical, deterministically ordered results, so either is the other's
oracle.  Each consumer is fixed to the backend that measured faster for its
query kind at every tested density (λ = 1.44, 3 and 20): ``query_pairs`` and
``query_nearest`` (the UDG and kNN builders, continuum clusters, H01) use the
k-d tree; ``neighbour_lists`` (the message network) uses the grid.
:func:`build_index` remains the factory for code that compares the two.
"""

from __future__ import annotations

from fractions import Fraction
import inspect
from typing import Dict, Iterable, List, Protocol, Sequence, Tuple, runtime_checkable
import warnings

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.primitives import as_points
from repro.kernels import ops as kernel_ops
from repro.kernels.layout import CellTable, pack_bounds, pack_keys, spans_fit_packed

#: ``cKDTree.query_ball_point(..., workers=-1)`` parallelises bulk queries
#: across all cores (scipy >= 1.6); the guard keeps older scipy working.
#: Only the *bulk* entry points pass it — thread fan-out on a single-center
#: query costs more than it saves.
_KDTREE_WORKERS = (
    {"workers": -1}
    if "workers" in inspect.signature(cKDTree.query_ball_point).parameters
    else {}
)

__all__ = [
    "SpatialIndex",
    "GridIndex",
    "KDTreeIndex",
    "build_index",
    "within_ball",
    "BACKENDS",
    "DEFAULT_BULK_CHUNK_SIZE",
]

#: Centers per block of one bulk candidate gather.  The peak transient of
#: :meth:`GridIndex._matches` is proportional to ``centers × mean occupancy
#: × scanned cells``, so a 10⁶-center query against a dense table could
#: materialise a multi-gigabyte candidate pool at once; processing centers in
#: blocks bounds that peak.  Measured with tracemalloc at λ = 20 and radius =
#: cell size = 1 (20 points per cell, 3×3 scan): the pool costs ≈ 14 KB per
#: center, so ``neighbour_lists`` over 8,000 nodes peaks at 121 MB in one
#: gather and at 33 MB in 2048-center blocks, at the same speed.  Results are
#: per-center, so any chunking of the centers axis is byte-identical to the
#: one-shot gather.
DEFAULT_BULK_CHUNK_SIZE = 2048


def within_ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Exact closed-ball membership mask shared by every backend.

    Compares the true Euclidean distance (``np.hypot``) against ``radius``
    instead of squaring: the naive ``d² <= r²`` underflows for subnormal
    offsets (``(2e-313)²`` rounds to ``0.0``), so at tiny radii it admits
    points strictly outside the ball — and which *candidates* each backend
    generates for such points differs, so the backends disagreed.  ``hypot``
    never under- or overflows and satisfies ``hypot(dx, dy) >= max(|dx|,
    |dy|)``, which also guarantees every admitted point lies within the grid
    scan reach of ``ceil(radius / cell_size)`` cells.

    ``center`` broadcasts against ``points``, so it may be a single ``(2,)``
    center or one ``(n, 2)`` center per point.

    The predicate itself lives in the kernel layer
    (:func:`repro.kernels.ops.within_ball_mask`), where compiled backends
    can replace it; this name remains the stable public entry point.
    """
    return kernel_ops.within_ball_mask(points, center, radius)


#: Below this radius ``r²`` is subnormal, where the relative ULP spacing of
#: ``cKDTree``'s squared-distance arithmetic (up to ~1e-3) dwarfs any relative
#: slack, so candidate generation needs an absolute floor instead.
_TINY_RADIUS = 1e-154


def _candidate_radius(radius: float) -> float:
    """Inflated radius for cKDTree candidate generation.

    ``cKDTree`` prunes with its own squared-distance arithmetic, which can
    disagree with :func:`within_ball` by an ULP on exact-boundary pairs; a
    few ULPs of slack make its candidate set a strict superset of the closed
    ball, and the exact post-filter removes the extras.  When ``r²`` is
    subnormal a *relative* slack is swallowed by the subnormal ULP spacing
    and the tree could still prune true neighbours, so those radii get an
    absolute floor — a ball of radius 2e-154 only ever holds (near-)
    coincident points, so the post-filter stays cheap.
    """
    if radius < _TINY_RADIUS:
        return 2.0 * _TINY_RADIUS
    return radius * (1.0 + 1e-12)


#: ``cKDTree`` squares coordinate differences; once coordinates reach this
#: magnitude a squared distance can overflow float64 (``2·(2·1e153)²`` is
#: still finite, ``1e154`` need not be).  Overflow raises ``ValueError`` on
#: the calling thread, but scipy >= 1.17 swallows it inside ``workers=-1``
#: threads — ``query_ball_point`` then returns ``None`` per center and
#: ``return_length`` returns uninitialised counts — so bulk queries over such
#: spreads must not fan out.
_KDTREE_THREAD_SAFE_MAGNITUDE = 1e153

#: Below this radius squared distances go subnormal inside ``cKDTree``, where
#: their relative rounding error is no longer ~2⁻⁵² and the bracketing-radius
#: argument of ``KDTreeIndex.count_radius_many`` breaks down; such degenerate
#: radii take the exact per-hit filter instead.
_COUNT_FAST_PATH_MIN_RADIUS = 1e-150


@runtime_checkable
class SpatialIndex(Protocol):
    """Common query surface of the spatial-index backends.

    All radius queries are exact closed balls: a point at distance exactly
    ``radius`` *is* a neighbour, a point at ``radius + ulp`` is not, and at
    ``radius == 0`` only exactly coincident points qualify.  Results are
    sorted ascending (scalar queries / per-query lists) or in canonical
    ``(i, j)``-lexicographic order with ``i < j`` (:meth:`query_pairs`), so
    two backends built over the same points return *identical* arrays.
    """

    points: np.ndarray

    def __len__(self) -> int: ...

    def query_radius(self, center: Iterable[float], radius: float) -> np.ndarray:
        """Indices of points within ``radius`` of one ``center``, ascending."""
        ...

    def query_radius_many(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        """Per-center neighbour index arrays for a whole batch of centers."""
        ...

    def count_radius_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per-center neighbour *counts* (cheaper than materialising indices)."""
        ...

    def query_pairs(self, radius: float) -> np.ndarray:
        """All index pairs ``(i, j)``, ``i < j``, within ``radius`` of each other."""
        ...

    def neighbour_lists(self, radius: float, include_self: bool = False) -> List[np.ndarray]:
        """Neighbour array per stored point (self excluded unless requested)."""
        ...


def _strip_self(lists: List[np.ndarray], include_self: bool) -> List[np.ndarray]:
    if include_self:
        return lists
    return [arr[arr != i] for i, arr in enumerate(lists)]


def _check_radius(radius: float) -> None:
    if not radius >= 0:  # also rejects NaN
        raise ValueError("radius must be non-negative")


def _check_chunk_size(chunk_size: int | None) -> int | None:
    """Validate a bulk-chunk size (``None`` = unchunked single gather)."""
    if chunk_size is None:
        return None
    if int(chunk_size) < 1:
        raise ValueError("chunk_size must be >= 1 (or None for one gather)")
    return int(chunk_size)


class _IndexBase:
    """Backend behaviour derivable from the primitive queries.

    Kept in one place so the derived semantics (self-exclusion, ordering)
    cannot drift between backends — the exact agreement of which is this
    layer's contract.
    """

    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def neighbours_of(self, index: int, radius: float, include_self: bool = False) -> np.ndarray:
        """Indices of points within ``radius`` of the stored point ``index``."""
        result = self.query_radius(self.points[index], radius)
        if include_self:
            return result
        return result[result != index]

    def neighbour_lists(self, radius: float, include_self: bool = False) -> List[np.ndarray]:
        """Neighbour array per stored point via one bulk query."""
        return _strip_self(self.query_radius_many(self.points, radius), include_self)


def _pairs_from_lists(
    lists: List[np.ndarray], sources: np.ndarray | None = None
) -> np.ndarray:
    """Canonical ``(m, 2)`` pair array from per-point neighbour lists.

    ``sources`` optionally relabels the list owners (ascending — e.g. the
    stable node ids of the dynamic layer, whose lists are already in id
    space); the default is the positional indices.
    """
    n = len(lists)
    counts = np.fromiter((len(a) for a in lists), dtype=np.int64, count=n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros((0, 2), dtype=np.int64)
    owners = (
        np.arange(n, dtype=np.int64) if sources is None else np.asarray(sources, dtype=np.int64)
    )
    src = np.repeat(owners, counts)
    targets = np.concatenate(lists)
    keep = targets > src  # each unordered pair once, smaller index first
    pairs = np.column_stack([src[keep], targets[keep]])
    # Sources ascend by construction and per-list targets are sorted, so the
    # rows are already in (i, j)-lexicographic order.
    return pairs


class GridIndex(_IndexBase):
    """Uniform spatial hash over square cells of a given size.

    Parameters
    ----------
    points:
        ``(n, 2)`` point coordinates.
    cell_size:
        Side of the (axis-aligned) hash cells.  For radius-``r`` neighbour
        queries a cell size of ``r`` means only the 3×3 block of cells around
        a query needs scanning.
    chunk_size:
        Bulk queries process at most this many centers per candidate gather
        (:data:`DEFAULT_BULK_CHUNK_SIZE`), bounding peak memory on 10⁶-center
        workloads; ``None`` restores the single one-shot gather.  Chunking
        never changes a result — each center's answer is independent.

    The constructor is fully vectorised: integer cell keys are packed into one
    ``int64`` per point, a stable argsort groups points by cell, and a single
    ``np.unique`` yields the CSR-style ``(cell id, start, count)`` table.  No
    per-point Python loop runs at build or bulk-query time (the exact-key
    repair of :meth:`_exact_keys` touches only coordinates whose quotient
    lands exactly on an integer).
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_size: float,
        chunk_size: int | None = DEFAULT_BULK_CHUNK_SIZE,
    ) -> None:
        if not cell_size > 0:  # also rejects NaN
            raise ValueError("cell_size must be positive")
        self.points = as_points(points)
        self.cell_size = float(cell_size)
        self.bulk_chunk_size = _check_chunk_size(chunk_size)
        n = len(self.points)
        if n:
            quot = self.points / self.cell_size
            keys_f = np.floor(quot)
            # Guard in float BEFORE the int64 cast: a key magnitude past
            # int64 range would cast to garbage, wrap the span negative, and
            # sail past the product check below into silently empty queries.
            if not np.isfinite(keys_f).all() or np.abs(keys_f).max() >= 2**62:
                raise ValueError(
                    "point spread spans too many grid cells for this cell_size; "
                    "use a larger cell_size"
                )
            keys = self._exact_keys(self.points, quot=quot)
            key_min, spans = pack_bounds(keys)
            if not spans_fit_packed(spans):
                raise ValueError(
                    "point spread spans too many grid cells for this cell_size; "
                    "use a larger cell_size"
                )
            # Stable sort inside CellTable keeps original index order per cell.
            self._table = CellTable.group_points(
                pack_keys(keys, key_min, spans), key_min, spans
            )
        else:
            self._table = CellTable.empty()

    @classmethod
    def from_cell_table(
        cls,
        points: np.ndarray,
        cell_size: float,
        cell_keys: np.ndarray,
        cell_members: Sequence[np.ndarray],
        chunk_size: int | None = DEFAULT_BULK_CHUNK_SIZE,
    ) -> "GridIndex":
        """Adopt an externally maintained cell table instead of deriving one.

        The dynamic layer (:class:`repro.dynamics.incremental.DynamicSpatialIndex`)
        keeps cell membership current by *patching* — a hash map of sorted
        member-id arrays touched only where nodes cross cell boundaries.  This
        constructor wraps such a table in a :class:`GridIndex` without
        re-bucketing anything, so the vectorised bulk machinery
        (:meth:`_matches` and everything built on it) runs over a patched
        table exactly as it would over a from-scratch build.

        The returned view answers *centers-in, candidates-out* queries only
        (``query_radius``, ``query_radius_many``, ``count_radius_many`` and
        the ``_matches`` engine underneath them, chunked like a static
        build's).  Whole-index derived queries — ``query_pairs`` and
        ``neighbour_lists`` — are undefined on an adopted view: they would
        iterate the raw ``points`` buffer, whose dead/spare rows are not part
        of the indexed set, and ``len`` counts those rows too (the bulk
        queries use it only as an exclusive bound on ids).
        The dynamic layer exposes its own id-space versions of those
        surfaces instead.

        Parameters
        ----------
        points:
            Coordinate array indexable by the ids stored in ``cell_members``.
            It is adopted *by reference* (no copy, no validation) and may hold
            extra rows — ids never referenced by a cell are never candidates.
        cell_size:
            The cell side the keys were derived with (must match the exact
            :meth:`_exact_keys` convention, as the dynamic layer guarantees).
        cell_keys:
            ``(m, 2)`` integer keys of the occupied cells, duplicate-free.
        cell_members:
            One sorted id array per row of ``cell_keys``.

        Raises
        ------
        ValueError
            When the occupied-cell bounding box overflows the packed-key
            representation (callers fall back to scalar queries).
        """
        index = cls.__new__(cls)
        index.points = points
        index.cell_size = float(cell_size)
        index.bulk_chunk_size = _check_chunk_size(chunk_size)
        keys = np.asarray(cell_keys, dtype=np.int64).reshape(-1, 2)
        if len(keys) == 0:
            index._table = CellTable.empty()
            return index
        key_min, spans = pack_bounds(keys)
        if not spans_fit_packed(spans):
            raise ValueError(
                "occupied cells span too large a bounding box for the packed "
                "cell table; fall back to scalar queries"
            )
        index._table = CellTable.adopt_cells(
            pack_keys(keys, key_min, spans), cell_members, key_min, spans
        )
        return index

    # -- cell-table views ---------------------------------------------------------
    # The CSR arrays live in one kernel-layer CellTable (the SoA description
    # shared with the dynamic layer's adopted views and the shard workers);
    # these views keep the historical private names readable in the query
    # code below.
    @property
    def _key_min(self) -> np.ndarray:
        return self._table.key_min

    @property
    def _spans(self) -> np.ndarray:
        return self._table.spans

    @property
    def _order(self) -> np.ndarray:
        return self._table.order

    @property
    def _cell_ids(self) -> np.ndarray:
        return self._table.cell_ids

    @property
    def _starts(self) -> np.ndarray:
        return self._table.starts

    @property
    def _counts(self) -> np.ndarray:
        return self._table.counts

    # -- cell accessors -----------------------------------------------------------
    #: On x86 ``np.longdouble`` carries a 64-bit mantissa, so a key below 2¹¹
    #: times a 53-bit cell size multiplies exactly and decides boundary cases
    #: without exact-rational arithmetic.
    _LONGDOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63

    def _exact_keys(self, coords: np.ndarray, quot: np.ndarray | None = None) -> np.ndarray:
        """``floor(x / cell_size)`` with the division's up-rounding repaired.

        ``quot`` may pass in an already-computed ``coords / cell_size`` to
        spare the build path a second full-array division.

        ``fl(x / cell_size)`` can round up onto an exact integer when the true
        quotient lies within half an ULP below it, mis-bucketing ``x`` one
        cell high (down-shifts cannot happen: a correctly rounded quotient of
        a value at or past an integer never lands below it).  Only entries
        whose computed quotient is exactly an integer can hide a shift.  For
        those, comparing against the rounded product ``fl(key·cell_size)``
        decides every non-equal case outright (the product is within half an
        ULP, and an exactly representable ``key·cell_size`` rounds to
        itself); float equality — exact-lattice coordinates — is resolved by
        an exact ``longdouble`` product, leaving exact-rational arithmetic
        for the vanishing remainder.  Lattice data therefore stays
        vectorised instead of paying a per-point Python loop.
        """
        if quot is None:
            quot = coords / self.cell_size
        keys_f = np.floor(quot)
        # Query centers may sit arbitrarily far off-grid (or be non-finite);
        # saturate their keys instead of casting int64 garbage with a
        # RuntimeWarning.  The span bound checks discard them either way, and
        # this bound keeps key differences inside int64 (stored points are
        # range-checked at build time and pass through unchanged).
        limit = 2.0**62 - 2.0**10
        keys_f = np.where(np.isfinite(keys_f), np.clip(keys_f, -limit, limit), 0.0)
        keys = keys_f.astype(np.int64)
        suspect = quot == keys_f
        if suspect.any():
            prod = keys_f * self.cell_size
            shifted = suspect & (coords < prod)
            ambiguous = suspect & (coords == prod)
            if ambiguous.any() and self._LONGDOUBLE_EXACT:
                exact = ambiguous & (np.abs(keys_f) < 2.0**11)
                prod_l = keys_f.astype(np.longdouble) * np.longdouble(self.cell_size)
                shifted |= exact & (coords.astype(np.longdouble) < prod_l)
                ambiguous &= ~exact
            if ambiguous.any():
                cell = Fraction(self.cell_size)
                for pos in zip(*np.nonzero(ambiguous)):
                    if Fraction(float(coords[pos])) < int(keys[pos]) * cell:
                        shifted[pos] = True
            keys[shifted] -= 1
        return keys

    def cell_of(self, point: Iterable[float]) -> Tuple[int, int]:
        """Integer cell coordinates containing ``point``."""
        x, y = point
        key = self._exact_keys(np.array([[float(x), float(y)]], dtype=np.float64))[0]
        return (int(key[0]), int(key[1]))

    def _cell_slice(self, cx: int, cy: int) -> np.ndarray:
        """Stored-point indices in cell ``(cx, cy)`` (ascending; empty if none)."""
        rx = cx - int(self._key_min[0])
        ry = cy - int(self._key_min[1])
        if not (0 <= rx < int(self._spans[0]) and 0 <= ry < int(self._spans[1])):
            return np.zeros(0, dtype=np.int64)
        packed = rx * int(self._spans[1]) + ry
        pos = int(np.searchsorted(self._cell_ids, packed))
        if pos == len(self._cell_ids) or self._cell_ids[pos] != packed:
            return np.zeros(0, dtype=np.int64)
        start = self._starts[pos]
        return self._order[start : start + self._counts[pos]]

    def points_in_cell(self, cell: Tuple[int, int]) -> np.ndarray:
        """Indices of points bucketed into ``cell``, ascending."""
        cx, cy = cell
        return self._cell_slice(int(cx), int(cy)).copy()

    def _reach(self, radius: float) -> int:
        """Cell offsets to scan so every point of the closed ball is covered.

        ``ceil(radius / cell_size)`` alone can undercount by one ring: a true
        quotient just above an integer ``k`` may *compute* as exactly ``k``
        (e.g. radius 1.9033145596437013 over cell size 0.6344381865479004
        divides to exactly 3.0), silently dropping neighbours in ring ``k+1``.
        The covering check ``reach·cell_size >= radius`` is therefore done in
        exact rational arithmetic — a float product has its own half-ULP
        window that can hide the shortfall.  The common exact-quotient case
        (``cell_size == radius``) keeps its 3×3 scan.
        """
        reach = int(np.ceil(radius / self.cell_size))
        if reach * Fraction(self.cell_size) < Fraction(radius):
            reach += 1
        return reach

    def _boundary_slack(
        self, coords: np.ndarray, keys: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-axis ``(lo, hi)`` flags: queries within ULPs of a cell boundary.

        With exact cell keys, the only points that can pass the computed-
        difference closed-ball predicate from one ring beyond ``_reach`` are
        those whose *query* coordinate lies within about half an ULP of
        ``radius`` of a cell boundary (the difference ``px - cx`` rounds down
        to ``radius`` while the true distance extends just past ``reach``
        cells).  These flags tell the scan loops which queries need the extra
        ring on which side of which axis; generic coordinates never trigger
        them, so the common 3×3 scan is untouched.
        """
        cell = self.cell_size
        r_ulp = np.nextafter(radius, np.inf) - radius
        c_ulp = np.nextafter(np.abs(coords), np.inf) - np.abs(coords)
        guard = 2.0 * (r_ulp + c_ulp)
        lo = coords - keys * cell <= guard
        hi = (keys + 1.0) * cell - coords <= guard
        return lo, hi

    def occupied_cells(self) -> List[Tuple[int, int]]:
        """All cells that contain at least one point."""
        span_y = int(self._spans[1])
        cx = self._cell_ids // span_y + self._key_min[0]
        cy = self._cell_ids % span_y + self._key_min[1]
        return list(zip(cx.tolist(), cy.tolist()))

    # -- scalar queries -----------------------------------------------------------
    def query_radius(self, center: Iterable[float], radius: float) -> np.ndarray:
        """Indices of points within ``radius`` of ``center`` (exact closed ball).

        Scans the minimal block of cells that can contain qualifying points
        and filters with :func:`within_ball` (exact true-distance closed
        ball, no tolerance) — the same predicate :class:`KDTreeIndex`
        applies, so the distributed simulator and the centralized builder
        agree on every boundary pair.  At ``radius == 0`` only exactly
        coincident points qualify.
        """
        _check_radius(radius)
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        cx, cy = center
        reach = self._reach(radius)
        coords = np.array([[float(cx), float(cy)]], dtype=np.float64)
        key = self._exact_keys(coords)
        base = (int(key[0, 0]), int(key[0, 1]))
        lo, hi = self._boundary_slack(coords, key, radius)
        parts = [
            self._cell_slice(base[0] + dx, base[1] + dy)
            for dx in range(-reach - int(lo[0, 0]), reach + int(hi[0, 0]) + 1)
            for dy in range(-reach - int(lo[0, 1]), reach + int(hi[0, 1]) + 1)
        ]
        idx = np.concatenate(parts)
        if idx.size == 0:
            return idx
        keep = within_ball(self.points[idx], np.asarray([cx, cy], dtype=np.float64), radius)
        return np.sort(idx[keep])

    # -- bulk queries -------------------------------------------------------------
    def _matches(self, centers: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """All (query, point) index pairs within ``radius``, unordered.

        The shared engine of the bulk queries: for each of the
        ``(2·reach + 1)²`` cell offsets (3×3 when ``radius <= cell_size``)
        the candidate ranges of *all* queries are located with one
        ``searchsorted`` into the packed cell table and expanded with a
        vectorised range gather; a single :func:`within_ball` mask then
        filters the pooled candidates.  One extra ring of offsets is scanned
        for just the queries flagged by :meth:`_boundary_slack` — in the
        common case those offsets cost one all-false mask check each.
        """
        reach = self._reach(radius)
        qkeys_abs = self._exact_keys(centers)
        lo, hi = self._boundary_slack(centers, qkeys_abs, radius)
        qkeys = qkeys_abs - self._key_min
        qidx = np.arange(len(centers), dtype=np.int64)
        span_x, span_y = int(self._spans[0]), int(self._spans[1])

        cand_query_parts: List[np.ndarray] = []
        cand_point_parts: List[np.ndarray] = []
        for dx in range(-reach - 1, reach + 2):
            for dy in range(-reach - 1, reach + 2):
                allowed = None  # None means: offset applies to every query
                if dx < -reach:
                    allowed = lo[:, 0]
                elif dx > reach:
                    allowed = hi[:, 0]
                if dy < -reach:
                    allowed = lo[:, 1] if allowed is None else allowed & lo[:, 1]
                elif dy > reach:
                    allowed = hi[:, 1] if allowed is None else allowed & hi[:, 1]
                if allowed is not None and not allowed.any():
                    continue
                rx = qkeys[:, 0] + dx
                ry = qkeys[:, 1] + dy
                inside = (rx >= 0) & (rx < span_x) & (ry >= 0) & (ry < span_y)
                if allowed is not None:
                    inside &= allowed
                if not inside.any():
                    continue
                packed = rx[inside] * span_y + ry[inside]
                owners, members = kernel_ops.cell_gather(
                    self._table, packed, qidx[inside]
                )
                if len(members):
                    cand_point_parts.append(members)
                    cand_query_parts.append(owners)

        if not cand_point_parts:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        cand_points = np.concatenate(cand_point_parts)
        cand_queries = np.concatenate(cand_query_parts)
        keep = within_ball(self.points[cand_points], centers[cand_queries], radius)
        return cand_queries[keep], cand_points[keep]

    def query_radius_many(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        """Answer all ``centers`` at once with one gather + one distance mask.

        Returns one sorted index array per center; see :meth:`_matches` for
        the vectorised candidate-gathering scheme.  Centers are processed in
        blocks of ``bulk_chunk_size`` to bound the peak size of the candidate
        pool (results are per-center, so blocking is byte-identical to one
        gather; pass ``chunk_size=None`` at construction for the one-shot
        path).
        """
        _check_radius(radius)
        centers = as_points(centers)
        q = len(centers)
        if q == 0:
            return []
        if len(self) == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(q)]
        chunk = self.bulk_chunk_size
        if chunk is not None and q > chunk:
            out: List[np.ndarray] = []
            for start in range(0, q, chunk):
                out.extend(self._query_radius_block(centers[start : start + chunk], radius))
            return out
        return self._query_radius_block(centers, radius)

    def _query_radius_block(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        cand_queries, cand_points = self._matches(centers, radius)
        # Group by query, ascending point index inside each group.
        return kernel_ops.pair_candidates(
            cand_queries, cand_points, len(centers), len(self)
        )

    def count_radius_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per-center neighbour counts — skips the sort/split of the full query.

        Chunked over centers like :meth:`query_radius_many`, and for the same
        reason: the counts of a block depend only on that block's centers.
        """
        _check_radius(radius)
        centers = as_points(centers)
        q = len(centers)
        if q == 0 or len(self) == 0:
            return np.zeros(q, dtype=np.int64)
        chunk = self.bulk_chunk_size
        if chunk is not None and q > chunk:
            return np.concatenate(
                [
                    self._count_radius_block(centers[start : start + chunk], radius)
                    for start in range(0, q, chunk)
                ]
            )
        return self._count_radius_block(centers, radius)

    def _count_radius_block(self, centers: np.ndarray, radius: float) -> np.ndarray:
        cand_queries, _ = self._matches(centers, radius)
        return kernel_ops.count_in_balls(cand_queries, len(centers))

    def query_pairs(self, radius: float) -> np.ndarray:
        """All pairs within ``radius`` (``i < j``, lexicographically ordered)."""
        return _pairs_from_lists(self.query_radius_many(self.points, radius))


class KDTreeIndex(_IndexBase):
    """:class:`scipy.spatial.cKDTree` behind the :class:`SpatialIndex` surface.

    ``cKDTree`` is only used for candidate generation (at the slightly
    inflated :func:`_candidate_radius`, so its internal squared-distance
    pruning — which underflows for subnormal offsets and can disagree with
    the exact ball by an ULP on boundary pairs — never decides membership);
    every hit is post-filtered through the same :func:`within_ball` predicate
    :class:`GridIndex` applies, and result ordering is normalised, so the two
    backends are interchangeable array-for-array.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = as_points(points)
        self._tree = cKDTree(self.points) if len(self.points) else None
        self._magnitude = float(np.abs(self.points).max()) if len(self.points) else 0.0

    def _bulk_workers(self, centers: np.ndarray) -> Dict[str, int]:
        """scipy's thread fan-out for a bulk query, unless it could overflow.

        Threads only pay off for more than one center, and only run where no
        squared distance can overflow (see
        :data:`_KDTREE_THREAD_SAFE_MAGNITUDE`): there an overflow would be
        swallowed by the worker threads instead of raised.
        """
        if len(centers) < 2:
            return {}
        magnitude = max(self._magnitude, float(np.abs(centers).max()))
        return _KDTREE_WORKERS if magnitude < _KDTREE_THREAD_SAFE_MAGNITUDE else {}

    def _exact_candidates(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        """Brute-force ``within_ball`` candidates, for spreads the tree cannot handle."""
        warnings.warn(
            "cKDTree squared distances overflow for this coordinate spread; "
            "answering with exact brute-force candidates instead",
            RuntimeWarning,
            stacklevel=3,
        )
        return [np.nonzero(within_ball(self.points, c, radius))[0] for c in centers]

    def _filter(self, hits: Iterable[int], center: np.ndarray, radius: float) -> np.ndarray:
        """Sorted hit indices that pass the shared exact-ball predicate."""
        idx = np.asarray(hits, dtype=np.int64)
        if idx.size:
            idx = idx[within_ball(self.points[idx], center, radius)]
        return np.sort(idx)

    def _candidates(self, centers: np.ndarray, radius: float, parallel: bool = False) -> List:
        """Per-center candidate hit lists at the inflated radius.

        ``parallel`` allows scipy's ``workers=-1`` thread fan-out (bulk
        callers only, and only where :meth:`_bulk_workers` rules out
        overflow).  Per-center hit *contents* are unaffected by the worker
        count, and every hit still goes through the exact post-filter.

        ``cKDTree``'s squared-distance arithmetic overflows for coordinate
        spreads past ~1e154, even though the exact predicate is still well
        defined; there the query falls back, with a ``RuntimeWarning``, to
        brute-force ``within_ball`` candidates so both backends keep
        answering identically.  Overflow shows up as scipy's ``ValueError``
        or, if a threaded query slipped past the guard, as ``None`` hits.
        """
        workers = self._bulk_workers(centers) if parallel else {}
        try:
            hits = self._tree.query_ball_point(centers, _candidate_radius(radius), **workers)
        except ValueError as err:
            if "overflow" not in str(err):
                raise
            return self._exact_candidates(centers, radius)
        if workers and any(h is None for h in hits):
            return self._exact_candidates(centers, radius)
        return hits

    def query_radius(self, center: Iterable[float], radius: float) -> np.ndarray:
        _check_radius(radius)
        if self._tree is None:
            return np.zeros(0, dtype=np.int64)
        center = np.asarray(tuple(center), dtype=np.float64)
        hits = self._candidates(center[None, :], radius)[0]
        return self._filter(hits, center, radius)

    def query_radius_many(self, centers: np.ndarray, radius: float) -> List[np.ndarray]:
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0:
            return []
        if self._tree is None:
            return [np.zeros(0, dtype=np.int64) for _ in range(len(centers))]
        hits = self._candidates(centers, radius, parallel=True)
        return [self._filter(h, center, radius) for center, h in zip(centers, hits)]

    def count_radius_many(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Per-center neighbour counts via cKDTree's ``return_length`` fast path.

        ``return_length`` counts in C but with the tree's own squared-distance
        predicate, which can disagree with :func:`within_ball` only for points
        in the shell between ``radius·(1 − 1e-12)`` and
        :func:`_candidate_radius`: every point the lower count includes is
        strictly inside the closed ball, every closed-ball point is included
        by the upper count, so wherever the two counts coincide the shell is
        empty and the count is already exact.  Only the (rare) centers whose
        counts differ are re-counted with the exact predicate.  Tiny radii —
        where squared distances go subnormal and the bracketing argument
        breaks down — take the exact path for every center with a candidate.
        """
        _check_radius(radius)
        centers = as_points(centers)
        if len(centers) == 0 or self._tree is None:
            return np.zeros(len(centers), dtype=np.int64)
        workers = self._bulk_workers(centers)
        try:
            upper = np.asarray(
                self._tree.query_ball_point(
                    centers, _candidate_radius(radius), return_length=True, **workers
                ),
                dtype=np.int64,
            )
            if radius < _COUNT_FAST_PATH_MIN_RADIUS:
                counts = np.zeros(len(centers), dtype=np.int64)
                ambiguous = np.nonzero(upper)[0]
            else:
                counts = np.asarray(
                    self._tree.query_ball_point(
                        centers, radius * (1.0 - 1e-12), return_length=True, **workers
                    ),
                    dtype=np.int64,
                )
                ambiguous = np.nonzero(upper != counts)[0]
        except ValueError as err:  # overflow fallback, see _candidates
            if "overflow" not in str(err):
                raise
            hits = self._candidates(centers, radius)
            return np.fromiter((len(h) for h in hits), dtype=np.int64, count=len(centers))
        if ambiguous.size:
            hits = self._candidates(centers[ambiguous], radius)
            for i, h in zip(ambiguous, hits):
                idx = np.asarray(h, dtype=np.int64)
                counts[i] = int(np.count_nonzero(within_ball(self.points[idx], centers[i], radius)))
        return counts

    def query_pairs(self, radius: float) -> np.ndarray:
        _check_radius(radius)
        if self._tree is None or len(self) < 2:
            return np.zeros((0, 2), dtype=np.int64)
        try:
            pairs = self._tree.query_pairs(r=_candidate_radius(radius), output_type="ndarray")
        except ValueError as err:  # overflow fallback, see _candidates
            if "overflow" not in str(err):
                raise
            return _pairs_from_lists(self.query_radius_many(self.points, radius))
        if pairs.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        pairs = pairs.astype(np.int64)
        pairs = pairs[within_ball(self.points[pairs[:, 0]], self.points[pairs[:, 1]], radius)]
        if pairs.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        pairs = np.sort(pairs, axis=1)
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

    def query_nearest(self, centers: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` nearest stored points per center (``(q, k)``).

        Nearest first; when fewer than ``k`` points are stored the available
        columns are returned (callers pad).  Exact distance ties keep
        scipy's unspecified order — a measure-zero event for continuous
        inputs.  Only this backend answers nearest-neighbour queries, and
        the kNN builders call it directly: a grid expanding-ring search
        measured 16× slower at ``k = 188``, ``n = 5127``.
        """
        if k < 1:
            raise ValueError("k must be positive")
        centers = as_points(centers)
        if self._tree is None:
            raise ValueError("cannot run nearest-neighbour queries on an empty index")
        k_eff = min(k, len(self))
        _, idx = self._tree.query(centers, k=k_eff)
        return np.asarray(idx, dtype=np.int64).reshape(len(centers), k_eff)


#: Names accepted by :func:`build_index`.
BACKENDS = ("grid", "kdtree")


def build_index(
    points: np.ndarray,
    radius: float | None = None,
    backend: str = "grid",
) -> SpatialIndex:
    """Build a :class:`SpatialIndex` over ``points``.

    Parameters
    ----------
    points:
        ``(n, 2)`` point coordinates.
    radius:
        The query radius the index will mostly serve.  The grid backend uses
        it as its cell size (the optimal choice for fixed-radius queries);
        the KD-tree backend ignores it.
    backend:
        ``"grid"`` or ``"kdtree"``.
    """
    if radius is not None and not radius >= 0:  # also rejects NaN
        raise ValueError("radius must be non-negative")
    if backend == "kdtree":
        return KDTreeIndex(points)
    if backend == "grid":
        # Radius-0 queries only match coincident points; any cell works.
        return GridIndex(points, cell_size=radius or 1.0)
    raise ValueError(f"unknown spatial-index backend {backend!r}; known: {', '.join(BACKENDS)}")
