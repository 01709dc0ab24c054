"""Tests for incremental edge-diff maintenance (TopologyTracker)."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.dynamics import topology
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.dynamics.topology import EdgeDiff, KnnTopologyTracker, TopologyTracker
from repro.geometry.index import BACKENDS, build_index
from repro.graphs.knn import knn_edges
from repro.graphs.udg import udg_edges

RADIUS = 1.2


def _edge_set(edges: np.ndarray) -> set:
    return {(int(a), int(b)) for a, b in edges}


def _apply(diff: EdgeDiff, edges: set) -> set:
    out = (edges - _edge_set(diff.removed)) | _edge_set(diff.added)
    return out


def _udg_pairs(pts: np.ndarray, backend: str) -> np.ndarray:
    return build_index(pts, radius=RADIUS, backend=backend).query_pairs(RADIUS)


def _knn_edge_set(pts: np.ndarray, k: int, backend: str) -> set:
    """kNN edges from radius queries: point i's k nearest are the other
    points in the closed ball reaching its k-th nearest (no ties in random
    data), so any radius-query backend is a kNN oracle."""
    dists = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    kth = np.sort(dists, axis=1)[:, min(k, len(pts) - 1)]
    index = build_index(pts, radius=1.0, backend=backend)
    return {
        (min(i, j), max(i, j))
        for i in range(len(pts))
        for j in index.query_radius(pts[i], kth[i]).tolist()
        if j != i
    }


class TestTopologyTracker:
    @pytest.mark.parametrize("oracle", BACKENDS)
    def test_diffs_replay_to_full_recompute(self, oracle, rng):
        # The recompute runs on each static backend (grid or cKDTree).
        pts = rng.uniform(0, 8, size=(80, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        replayed = _edge_set(tracker.edges())
        assert replayed == _edge_set(_udg_pairs(pts, oracle))
        for step in range(10):
            ids = dyn.ids()
            movers = rng.choice(ids, size=min(15, len(ids)), replace=False)
            rows = np.searchsorted(ids, movers)
            dyn.move(movers, dyn.positions()[rows] + rng.normal(0, 0.5, size=(len(movers), 2)))
            if step % 2 == 0:
                dyn.insert(rng.uniform(0, 8, size=(3, 2)))
            if step % 3 == 1:
                dyn.delete(rng.choice(dyn.ids(), size=4, replace=False))
            diff = tracker.update()
            replayed = _apply(diff, replayed)
            # The maintained set, the replayed diffs and a from-scratch
            # recompute over the survivors must all coincide.
            assert replayed == _edge_set(tracker.edges())
            assert tracker.matches_recompute()
            ids = dyn.ids()
            expected = {
                (int(ids[a]), int(ids[b]))
                for a, b in _udg_pairs(dyn.positions(), oracle)
            }
            assert replayed == expected

    def test_no_updates_yield_empty_diff(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 5, size=(20, 2)), radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        diff = tracker.update()
        assert diff.n_added == 0 and diff.n_removed == 0 and diff.churn == 0

    def test_deleting_a_node_removes_exactly_its_edges(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        tracker = TopologyTracker(dyn, 1.0)
        assert _edge_set(tracker.edges()) == {(0, 1), (1, 2)}
        dyn.delete([1])
        diff = tracker.update()
        assert _edge_set(diff.removed) == {(0, 1), (1, 2)}
        assert diff.n_added == 0
        assert tracker.n_edges == 0

    def test_move_creates_and_breaks_edges(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        tracker = TopologyTracker(dyn, 1.0)
        dyn.move([2], np.array([[2.0, 0.0]]))  # now adjacent to node 1
        diff = tracker.update()
        assert _edge_set(diff.added) == {(1, 2)}
        dyn.move([1], np.array([[9.0, 9.0]]))  # leaves both neighbourhoods
        diff = tracker.update()
        assert _edge_set(diff.removed) == {(0, 1), (1, 2)}

    def test_radius_zero_matches_udg_convention(self):
        # udg_edges at radius 0 is empty even for coincident points.
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        dyn = DynamicSpatialIndex(pts, radius=0.0)
        tracker = TopologyTracker(dyn, 0.0)
        assert tracker.n_edges == 0
        dyn.move([0], np.array([[2.0, 2.0]]))
        assert tracker.update().churn == 0
        assert tracker.matches_recompute()

    def test_graph_remaps_ids_to_compact_rows(self, rng):
        pts = rng.uniform(0, 5, size=(25, 2))
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        dyn.delete([0, 5, 6])
        tracker.update()
        graph = tracker.graph()
        assert graph.n_nodes == 22
        assert np.array_equal(graph.points, dyn.positions())
        expected = udg_edges(dyn.positions(), RADIUS)
        assert _edge_set(graph.edges) == _edge_set(expected)

    def test_negative_radius_rejected(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 2, size=(3, 2)), radius=1.0)
        with pytest.raises(ValueError):
            TopologyTracker(dyn, -1.0)


def _recomputed_keys(index: DynamicSpatialIndex, radius: float) -> set:
    if radius == 0:  # the UDG convention: a zero-range radio connects nothing
        return set()
    return _edge_set(index.query_pairs(radius))


#: One step of the interleaving property: (kind, selector, x, y).  The
#: selector picks an alive id; ``-1`` picks the highest alive id (the id
#: high-water mark after inserts), where key-range lookups end.
_STEP = st.tuples(
    st.sampled_from(["move", "move", "insert", "delete", "isolate"]),
    st.integers(-1, 50),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
)


class TestTrackerInterleavings:
    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([0.0, 0.7, 1.3]),
        st.sampled_from([2, 16, topology._HOT_LIMIT]),
        st.lists(st.lists(_STEP, min_size=1, max_size=6), min_size=1, max_size=8),
        st.integers(1, 4),
    )
    def test_every_step_matches_recompute(self, seed, radius, hot_limit, ticks, check_every):
        # ``hot_limit`` folds the hot overlay into the base after almost every
        # tick, after some, or never; ``matches_recompute`` (which folds too)
        # runs only every ``check_every`` ticks, so diffs are also checked
        # across several ticks of overlay.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 4.0, size=(int(rng.integers(0, 25)), 2))
        dyn = DynamicSpatialIndex(pts, radius=max(radius, 1.0))
        with mock.patch.object(topology, "_HOT_LIMIT", hot_limit):
            self._replay(dyn, TopologyTracker(dyn, radius), radius, ticks, check_every)

    def test_stale_base_edge_of_a_hot_node_is_not_removed_twice(self):
        # Tick 1 moves node 0 away: its edge to node 1 is removed while the
        # base still holds it.  Tick 2 touches node 1 only; the base copy of
        # the edge is stale (node 0 is hot) and must not count again.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        dyn = DynamicSpatialIndex(pts, radius=RADIUS)
        tracker = TopologyTracker(dyn, RADIUS)
        dyn.move([0], np.array([[10.0, 10.0]]))
        first = tracker.update()
        assert _edge_set(first.removed) == {(0, 1)}
        dyn.move([1], np.array([[1.5, 0.0]]))
        second = tracker.update()
        assert second.churn == 0
        assert tracker.n_edges == 1 and tracker.matches_recompute()

    @staticmethod
    def _replay(dyn, tracker, radius, ticks, check_every):
        previous = _recomputed_keys(dyn, radius)
        for step, tick in enumerate(ticks):
            for kind, selector, x, y in tick:
                ids = dyn.ids()
                if kind == "insert" or len(ids) == 0:
                    dyn.insert(np.array([[x, y]]))
                    continue
                node = int(ids[-1] if selector < 0 else ids[selector % len(ids)])
                if kind == "delete":
                    dyn.delete([node])
                elif kind == "isolate":  # far from everyone: no edges at all
                    dyn.move([node], np.array([[100.0 + 10.0 * node, -100.0]]))
                else:
                    dyn.move([node], np.array([[x, y]]))
            diff = tracker.update()
            current = _recomputed_keys(dyn, radius)
            assert _edge_set(diff.added) == current - previous
            assert _edge_set(diff.removed) == previous - current
            assert tracker.n_edges == len(current)
            if step % check_every == 0:
                assert tracker.matches_recompute()
            previous = current
        assert tracker.matches_recompute()
        assert _edge_set(tracker.edges()) == previous


class TestKnnTopologyTracker:
    def test_recompute_diff_matches_static_builder(self, rng):
        pts = rng.uniform(0, 6, size=(40, 2))
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        tracker = KnnTopologyTracker(dyn, k=3)
        assert _edge_set(tracker.edges()) == _edge_set(knn_edges(pts, 3))
        replayed = _edge_set(tracker.edges())
        for _ in range(4):
            ids = dyn.ids()
            movers = rng.choice(ids, size=8, replace=False)
            rows = np.searchsorted(ids, movers)
            dyn.move(movers, dyn.positions()[rows] + rng.normal(0, 0.6, size=(8, 2)))
            dyn.delete(rng.choice(dyn.ids(), size=2, replace=False))
            replayed = _apply(tracker.update(), replayed)
            ids = dyn.ids()
            expected = {
                (int(ids[a]), int(ids[b])) for a, b in knn_edges(dyn.positions(), 3)
            }
            assert replayed == expected

    def test_invalid_k_rejected(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 2, size=(5, 2)), radius=1.0)
        with pytest.raises(ValueError):
            KnnTopologyTracker(dyn, k=0)
        with pytest.raises(ValueError):
            KnnTopologyTracker(dyn, k=2, recompute_fraction=0.0)


class TestKnnIncrementalRepair:
    """The kNN-radius locality bound: repair only the affected nodes."""

    @pytest.mark.parametrize("oracle", BACKENDS)
    def test_sparse_updates_match_recompute(self, oracle, rng):
        # The recompute runs on each static backend (grid or cKDTree).
        pts = rng.uniform(0, 10, size=(120, 2))
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        tracker = KnnTopologyTracker(dyn, k=4)
        replayed = _edge_set(tracker.edges())
        for step in range(12):
            ids = dyn.ids()
            # Sparse motion: well under the recompute threshold.
            movers = rng.choice(ids, size=5, replace=False)
            rows = np.searchsorted(ids, movers)
            dyn.move(movers, dyn.positions()[rows] + rng.normal(0, 0.8, size=(5, 2)))
            if step % 3 == 0:
                dyn.insert(rng.uniform(0, 10, size=(2, 2)))
            if step % 3 == 1:
                dyn.delete(rng.choice(dyn.ids(), size=2, replace=False))
            replayed = _apply(tracker.update(), replayed)
            assert replayed == _edge_set(tracker.edges())
            assert tracker.matches_recompute()
            ids = dyn.ids()
            expected = {
                (int(ids[a]), int(ids[b]))
                for a, b in _knn_edge_set(dyn.positions(), 4, oracle)
            }
            assert replayed == expected
        assert tracker.full_recomputes == 0
        assert tracker.repaired_nodes < 12 * len(pts)  # strictly less than recompute

    def test_far_move_does_not_touch_unrelated_neighbourhoods(self, rng):
        # Two well-separated clusters: moving a node within one cluster must
        # not re-query the other one.
        cluster_a = rng.uniform(0, 3, size=(30, 2))
        cluster_b = rng.uniform(100, 103, size=(30, 2))
        dyn = DynamicSpatialIndex(np.vstack([cluster_a, cluster_b]), radius=1.0)
        tracker = KnnTopologyTracker(dyn, k=3)
        dyn.move([0], dyn.position_of(0)[None, :] + 0.2)
        tracker.update()
        assert tracker.matches_recompute()
        assert tracker.repaired_nodes <= 30  # nothing from cluster B

    def test_mass_mobility_falls_back_to_recompute(self, rng):
        pts = rng.uniform(0, 6, size=(50, 2))
        dyn = DynamicSpatialIndex(pts, radius=1.0)
        tracker = KnnTopologyTracker(dyn, k=3)
        dyn.move(dyn.ids(), dyn.positions() + rng.normal(0, 0.3, size=pts.shape))
        tracker.update()
        assert tracker.full_recomputes == 1
        assert tracker.matches_recompute()

    def test_k_eff_transitions_recompute(self, rng):
        # Growing through n = k + 1 changes every list's length; the tracker
        # must notice and recompute rather than repair.
        dyn = DynamicSpatialIndex(rng.uniform(0, 2, size=(2, 2)), radius=1.0)
        tracker = KnnTopologyTracker(dyn, k=3, recompute_fraction=10.0)
        for _ in range(4):
            dyn.insert(rng.uniform(0, 2, size=(1, 2)))
            tracker.update()
            assert tracker.matches_recompute()
        # n is now 6 > k + 1: a sparse move goes through the repair path.
        dyn.move([0], rng.uniform(0, 2, size=(1, 2)))
        before = tracker.full_recomputes
        tracker.update()
        assert tracker.full_recomputes == before
        assert tracker.matches_recompute()
        # Shrinking back through n = k + 1 recomputes again.
        dyn.delete([1, 2, 3])
        tracker.update()
        assert tracker.full_recomputes == before + 1
        assert tracker.matches_recompute()

    def test_empty_and_single_node_sessions(self, rng):
        dyn = DynamicSpatialIndex(np.array([[0.0, 0.0]]), radius=1.0)
        tracker = KnnTopologyTracker(dyn, k=2)
        assert tracker.n_edges == 0
        dyn.move([0], np.array([[1.0, 1.0]]))
        assert tracker.update().churn == 0
        dyn.delete([0])
        tracker.update()
        assert tracker.matches_recompute() and tracker.n_edges == 0

    def test_no_updates_yield_empty_diff(self, rng):
        dyn = DynamicSpatialIndex(rng.uniform(0, 4, size=(20, 2)), radius=1.0)
        tracker = KnnTopologyTracker(dyn, k=3)
        diff = tracker.update()
        assert diff.churn == 0 and tracker.full_recomputes == 0
