"""Vectorised dynamic bulk queries vs the scalar per-center loop.

The PR-4 contract: on a *dirty* :class:`DynamicSpatialIndex` (after any
interleaving of moves, inserts and deletes), ``query_radius_many`` and
``count_radius_many`` answer byte-identically to looping the scalar
``query_radius`` per center.  The scalar query is the pre-optimisation
reference implementation, so these tests pin the fast path to the slow one
directly; the parametrised tests also pin both to a from-scratch
``build_index`` on each static backend (the *oracle*: grid or cKDTree).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.dynamics.incremental import DynamicSpatialIndex
from repro.geometry.index import BACKENDS, GridIndex, build_index

RADIUS = 1.0
coord = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
snapped = coord.map(lambda x: round(x * 2) / 2)  # boundary/coincident cases
coord_any = coord | snapped
point = st.tuples(coord_any, coord_any)

operation = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 10**6), point),
    st.tuples(st.just("insert"), st.just(0), point),
    st.tuples(st.just("delete"), st.integers(0, 10**6), point),
)


def _assert_bulk_matches_scalar(
    dyn: DynamicSpatialIndex, centers: np.ndarray, radius: float, oracle: str | None = None
):
    bulk = dyn.query_radius_many(centers, radius)
    scalar = [dyn.query_radius(c, radius) for c in centers]
    assert len(bulk) == len(scalar)
    for got, ref in zip(bulk, scalar):
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)
    counts = dyn.count_radius_many(centers, radius)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.array([len(a) for a in scalar], dtype=np.int64))
    if oracle is not None:
        ids = dyn.ids()
        rebuilt = build_index(dyn.positions(), radius=radius, backend=oracle)
        for got, ref in zip(bulk, rebuilt.query_radius_many(centers, radius)):
            assert np.array_equal(got, ids[ref])
        assert np.array_equal(counts, rebuilt.count_radius_many(centers, radius))


class TestBulkMatchesScalar:
    @pytest.mark.parametrize("oracle", BACKENDS)
    @given(points=st.lists(point, min_size=0, max_size=18), ops=st.lists(operation, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_random_update_interleavings(self, oracle, points, ops):
        pts = np.asarray(points, dtype=np.float64).reshape(len(points), 2)
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        centers = np.array([[0.25, -0.25], [4.0, 4.0], [-7.5, 7.5]])
        for op, raw_id, xy in ops:
            alive = dyn.ids()
            if op == "insert":
                dyn.insert(np.array([xy]))
            elif len(alive):
                node = int(alive[raw_id % len(alive)])
                if op == "move":
                    dyn.move([node], np.array([xy]))
                else:
                    dyn.delete([node])
            query_points = np.vstack([centers, dyn.positions()]) if len(dyn) else centers
            for radius in (0.0, RADIUS):
                _assert_bulk_matches_scalar(dyn, query_points, radius, oracle)

    @pytest.mark.parametrize("oracle", BACKENDS)
    def test_large_dirty_session(self, oracle, rng):
        pts = rng.uniform(0, 15, size=(400, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        for _ in range(5):
            ids = dyn.ids()
            movers = rng.choice(ids, size=60, replace=False)
            rows = np.searchsorted(ids, movers)
            dyn.move(movers, dyn.positions()[rows] + rng.normal(0, 0.6, size=(60, 2)))
            dyn.delete(rng.choice(dyn.ids(), size=10, replace=False))
            dyn.insert(rng.uniform(0, 15, size=(10, 2)))
            centers = rng.uniform(-1, 16, size=(120, 2))
            _assert_bulk_matches_scalar(dyn, centers, RADIUS, oracle)

    @pytest.mark.parametrize("oracle", BACKENDS)
    def test_empty_cases(self, oracle):
        dyn = DynamicSpatialIndex(np.zeros((0, 2)), radius=RADIUS)
        assert dyn.query_radius_many(np.zeros((0, 2)), RADIUS) == []
        lists = dyn.query_radius_many(np.array([[0.0, 0.0]]), RADIUS)
        assert len(lists) == 1 and lists[0].size == 0
        assert np.array_equal(dyn.count_radius_many(np.array([[0.0, 0.0]]), RADIUS), [0])
        _assert_bulk_matches_scalar(dyn, np.array([[0.0, 0.0]]), RADIUS, oracle)
        # All nodes deleted → same empty answers.
        dyn2 = DynamicSpatialIndex(np.array([[1.0, 1.0]]), radius=RADIUS)
        dyn2.delete([0])
        lists = dyn2.query_radius_many(np.array([[1.0, 1.0]]), RADIUS)
        assert len(lists) == 1 and lists[0].size == 0
        _assert_bulk_matches_scalar(dyn2, np.array([[1.0, 1.0]]), RADIUS, oracle)

    @pytest.mark.parametrize("oracle", BACKENDS)
    def test_negative_radius_rejected(self, oracle):
        # Same refusal as the static oracle: a negative radius is an error.
        pts = np.array([[0.0, 0.0]])
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        rebuilt = build_index(pts, radius=RADIUS, backend=oracle)
        for index in (dyn, rebuilt):
            with pytest.raises(ValueError):
                index.query_radius_many(np.array([[0.0, 0.0]]), -0.5)
            with pytest.raises(ValueError):
                index.count_radius_many(np.array([[0.0, 0.0]]), -0.5)


class TestGridViewLifecycle:
    def test_view_reused_between_queries_and_invalidated_on_change(self, rng):
        pts = rng.uniform(0, 10, size=(50, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        centers = rng.uniform(0, 10, size=(20, 2))
        dyn.query_radius_many(centers, RADIUS)
        view = dyn._bulk_view
        assert isinstance(view, GridIndex)
        dyn.query_radius_many(centers, RADIUS)
        assert dyn._bulk_view is view  # no membership change → same snapshot
        # An in-cell move keeps the snapshot (positions are read live) …
        dyn.move([0], dyn.position_of(0)[None, :] + 1e-12)
        assert dyn._bulk_view is view
        _assert_bulk_matches_scalar(dyn, centers, RADIUS)
        # … while a cell-crossing move invalidates it.
        dyn.move([0], dyn.position_of(0)[None, :] + 5.0)
        assert dyn._bulk_view is None
        _assert_bulk_matches_scalar(dyn, centers, RADIUS)

    @pytest.mark.parametrize("radius", [RADIUS, 1.9033145596437013, 0.0])
    def test_small_batch_scans_the_cell_map_without_flattening(self, rng, radius):
        # A few centers against a stale view are answered from the cell map
        # (the per-tick repair query); the answers equal the view's.
        pts = np.round(rng.uniform(0, 12, size=(600, 2)) * 4) / 4  # lattice ties
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        centers = np.vstack([rng.uniform(-1, 13, size=(2, 2)), pts[:2]])
        dyn.move([0, 1], pts[[1, 0]] + 2.5)  # membership change: the view is stale
        assert dyn._bulk_view is None
        via_map = dyn.query_radius_many(centers, radius)
        map_counts = dyn.count_radius_many(centers, radius)
        assert dyn._bulk_view is None  # the small batch did not flatten it
        view = dyn._grid_view()
        for got, expected in zip(via_map, view.query_radius_many(centers, radius)):
            assert np.array_equal(got, expected)
        assert np.array_equal(map_counts, view.count_radius_many(centers, radius))
        _assert_bulk_matches_scalar(dyn, centers, radius)

    def test_span_overflow_falls_back_to_scalar(self):
        # Two occupied cells 2**61 apart: the packed span overflows and the
        # bulk path must quietly loop the scalar query instead.
        pts = np.array([[0.0, 0.0], [2.0**61, 2.0**61]])
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        centers = np.array([[0.0, 0.0], [2.0**61, 2.0**61]])
        assert dyn._grid_view() is None
        _assert_bulk_matches_scalar(dyn, centers, 1.0)

    def test_from_cell_table_empty(self):
        view = GridIndex.from_cell_table(
            np.zeros((0, 2)), 1.0, np.zeros((0, 2), dtype=np.int64), []
        )
        assert view.query_radius(np.array([0.0, 0.0]), 1.0).size == 0


class TestDerivedQueriesRideBulk:
    @pytest.mark.parametrize("oracle", BACKENDS)
    def test_pairs_and_neighbour_lists_after_updates(self, oracle, rng):
        pts = rng.uniform(0, 8, size=(100, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        dyn.delete(rng.choice(dyn.ids(), size=15, replace=False))
        dyn.insert(rng.uniform(0, 8, size=(5, 2)))
        ids = dyn.ids()
        # Reference: the scalar definitions the old loop implemented.
        ref_pairs = []
        for node in ids.tolist():
            nbrs = dyn.query_radius(dyn.position_of(node), RADIUS)
            nbrs = nbrs[nbrs > node]
            ref_pairs.extend((node, int(t)) for t in nbrs)
        pairs = dyn.query_pairs(RADIUS)
        assert [(int(a), int(b)) for a, b in pairs] == ref_pairs
        rebuilt = build_index(dyn.positions(), radius=RADIUS, backend=oracle)
        assert np.array_equal(pairs, ids[rebuilt.query_pairs(RADIUS)])
        for node, arr in zip(ids.tolist(), dyn.neighbour_lists(RADIUS)):
            ref = dyn.query_radius(dyn.position_of(node), RADIUS)
            assert np.array_equal(arr, ref[ref != node])
