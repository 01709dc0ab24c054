"""Property and equivalence tests for the SpatialIndex backend layer.

The contract under test: `GridIndex` and `KDTreeIndex` implement the *same*
exact closed-ball semantics and return *identical, identically ordered*
results for every radius query method, including boundary-distance pairs
and radius 0 — so each is the other's oracle.  Nearest-neighbour queries
are the k-d tree's alone and are checked against brute force.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.geometry.index import BACKENDS, GridIndex, KDTreeIndex, SpatialIndex, build_index

coord = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)
# Snapping coordinates to a coarse lattice makes exact boundary-distance and
# coincident pairs common instead of measure-zero.
snapped = st.tuples(coord, coord).map(lambda p: (round(p[0] * 2) / 2, round(p[1] * 2) / 2))
point_sets = st.lists(st.tuples(coord, coord) | snapped, min_size=0, max_size=50)
radii = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 7.0]) | st.floats(0.0, 8.0, allow_nan=False)


def _brute_ball(pts: np.ndarray, center, radius: float) -> np.ndarray:
    # True distance via hypot, not d² <= r²: squaring underflows for
    # subnormal offsets and would call points outside the ball neighbours.
    if len(pts) == 0:
        return np.zeros(0, dtype=np.int64)
    diff = pts - np.asarray(center, dtype=np.float64)
    return np.nonzero(np.hypot(diff[:, 0], diff[:, 1]) <= radius)[0]


def _indices(pts: np.ndarray, radius: float):
    return (
        GridIndex(pts, cell_size=max(radius, 0.75)),
        KDTreeIndex(pts),
    )


class TestCrossBackendAgreement:
    @given(point_sets, radii)
    @settings(max_examples=60, deadline=None)
    def test_query_radius_many_agrees_with_scalar_and_brute_force(self, coords, radius):
        pts = np.asarray(coords, dtype=np.float64).reshape(len(coords), 2)
        grid, tree = _indices(pts, radius)
        centers = np.vstack([pts, [[0.25, -0.25]]]) if len(pts) else np.array([[0.25, -0.25]])
        grid_many = grid.query_radius_many(centers, radius)
        tree_many = tree.query_radius_many(centers, radius)
        assert len(grid_many) == len(tree_many) == len(centers)
        grid_counts = grid.count_radius_many(centers, radius)
        tree_counts = tree.count_radius_many(centers, radius)
        assert np.array_equal(grid_counts, [len(a) for a in grid_many])
        assert np.array_equal(grid_counts, tree_counts)
        for i, center in enumerate(centers):
            expected = _brute_ball(pts, center, radius)
            assert np.array_equal(grid_many[i], expected)
            assert np.array_equal(tree_many[i], expected)
            assert np.array_equal(grid.query_radius(center, radius), expected)
            assert np.array_equal(tree.query_radius(center, radius), expected)

    @given(point_sets, radii)
    @settings(max_examples=60, deadline=None)
    def test_query_pairs_and_neighbour_lists_identical(self, coords, radius):
        pts = np.asarray(coords, dtype=np.float64).reshape(len(coords), 2)
        grid, tree = _indices(pts, radius)
        grid_pairs = grid.query_pairs(radius)
        tree_pairs = tree.query_pairs(radius)
        assert np.array_equal(grid_pairs, tree_pairs)
        if len(grid_pairs):
            assert (grid_pairs[:, 0] < grid_pairs[:, 1]).all()
        for with_self in (False, True):
            gl = grid.neighbour_lists(radius, include_self=with_self)
            tl = tree.neighbour_lists(radius, include_self=with_self)
            assert len(gl) == len(tl) == len(pts)
            for i, (a, b) in enumerate(zip(gl, tl)):
                assert np.array_equal(a, b)
                assert with_self or i not in a


class TestBoundarySemantics:
    def test_pair_at_exact_radius_is_a_neighbour(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        for backend in BACKENDS:
            index = build_index(pts, radius=1.0, backend=backend)
            assert index.query_pairs(1.0).tolist() == [[0, 1]]

    def test_pair_just_outside_radius_is_not(self):
        pts = np.array([[0.0, 0.0], [1.0 + 4e-13, 0.0]])
        for backend in BACKENDS:
            index = build_index(pts, radius=1.0, backend=backend)
            assert index.query_pairs(1.0).shape == (0, 2)
            assert index.query_radius_many(pts, 1.0)[0].tolist() == [0]

    def test_radius_zero_matches_exact_coincidence_only(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.5 + 1e-9, 0.5], [2.0, 2.0]])
        for backend in BACKENDS:
            index = build_index(pts, radius=0.0, backend=backend)
            many = index.query_radius_many(pts, 0.0)
            assert many[0].tolist() == [0, 1]
            assert many[2].tolist() == [2]
            assert index.query_pairs(0.0).tolist() == [[0, 1]]

    def test_subnormal_offset_is_not_coincident_at_radius_zero(self):
        # Regression: (2.2e-313)² underflows to 0.0, so the old d² <= r²
        # predicate called this pair coincident at radius 0 — but only on the
        # backend whose candidate generation visited the point (cKDTree did,
        # the grid scan did not), so the backends disagreed.
        pts = np.array([[0.0, 0.0], [0.0, -2.2e-313]])
        for backend in BACKENDS:
            index = build_index(pts, radius=0.0, backend=backend)
            many = index.query_radius_many(pts, 0.0)
            assert many[0].tolist() == [0]
            assert many[1].tolist() == [1]
            assert index.query_pairs(0.0).shape == (0, 2)
            assert index.count_radius_many(pts, 0.0).tolist() == [1, 1]
            assert index.query_radius((0.0, 0.0), 0.0).tolist() == [0]

    def test_subnormal_squared_radius_pair_found_by_both_backends(self):
        # r² ~ 2.6e-321 is deeply subnormal: inside cKDTree's squared-distance
        # pruning the relative ULP spacing (~2e-3) swallows any relative
        # candidate-radius slack, so a true neighbour used to be pruned before
        # the exact post-filter ever saw it — only the absolute candidate
        # floor keeps the candidate set a superset of the closed ball.
        r = 5.094248284187525e-161
        d, angle = 5.094248284187524e-161, 1.2037904221167388
        pts = np.array([[0.0, 0.0], [d * np.cos(angle), d * np.sin(angle)]])
        assert np.hypot(pts[1, 0], pts[1, 1]) <= r  # genuinely inside the ball
        for backend in BACKENDS:
            index = build_index(pts, radius=r, backend=backend)
            assert index.query_radius((0.0, 0.0), r).tolist() == [0, 1]
            assert [a.tolist() for a in index.query_radius_many(pts, r)] == [[0, 1], [0, 1]]
            assert index.query_pairs(r).tolist() == [[0, 1]]
            assert index.count_radius_many(pts, r).tolist() == [2, 2]

    def test_reach_covers_quotient_that_rounds_down_across_an_integer(self):
        # radius / cell_size is truly just above 3 but computes as exactly
        # 3.0, so a plain ceil() scanned one ring of cells too few and the
        # grid silently dropped this true neighbour four cells away.
        cell_size = 0.6344381865479004
        radius = 1.9033145596437013
        center = np.nextafter(cell_size, 0.0)  # cell 0, just below the boundary
        pts = np.array([[4 * cell_size, 0.0]])  # cell 4
        assert np.hypot(pts[0, 0] - center, 0.0) <= radius  # genuinely inside
        grid = GridIndex(pts, cell_size=cell_size)
        tree = KDTreeIndex(pts)
        assert grid.query_radius((center, 0.0), radius).tolist() == [0]
        assert tree.query_radius((center, 0.0), radius).tolist() == [0]
        centers = np.array([[center, 0.0]])
        assert [a.tolist() for a in grid.query_radius_many(centers, radius)] == [[0]]
        assert grid.count_radius_many(centers, radius).tolist() == [1]

    def test_reach_covers_product_that_rounds_up_past_the_radius(self):
        # Here radius = fp(2·cell_size) rounds *up* past the exact product,
        # so the float check `reach·cell_size >= radius` claimed ring 2
        # covered the ball while the exact product falls short; only the
        # exact rational covering check widens the scan to ring 3.
        cell_size = 0.17784969547876991
        radius = 0.35569939095753983  # fp(2 * cell_size), above the exact product
        center = np.nextafter(cell_size, 0.0)
        pts = np.array([[0.5335490864363097, 0.0]])
        assert np.hypot(pts[0, 0] - center, 0.0) <= radius  # genuinely inside
        grid = GridIndex(pts, cell_size=cell_size)
        assert grid.query_radius((center, 0.0), radius).tolist() == [0]
        centers = np.array([[center, 0.0]])
        assert [a.tolist() for a in grid.query_radius_many(centers, radius)] == [[0]]
        assert grid.count_radius_many(centers, radius).tolist() == [1]
        assert KDTreeIndex(pts).query_radius((center, 0.0), radius).tolist() == [0]

    def test_unit_lattice_boundary_pairs(self):
        # Every horizontal/vertical neighbour sits at distance exactly 1.
        pts = np.array([[float(i), float(j)] for i in range(5) for j in range(5)])
        grid_pairs = build_index(pts, radius=1.0, backend="grid").query_pairs(1.0)
        tree_pairs = build_index(pts, radius=1.0, backend="kdtree").query_pairs(1.0)
        assert np.array_equal(grid_pairs, tree_pairs)
        assert len(grid_pairs) == 2 * 5 * 4  # 4-neighbour lattice edges


class TestGridInternals:
    def test_vectorised_build_matches_cell_arithmetic(self, rng):
        pts = rng.uniform(-7, 7, size=(200, 2))
        grid = GridIndex(pts, cell_size=1.25)
        keys = np.floor(pts / 1.25).astype(np.int64)
        assert sorted(grid.occupied_cells()) == sorted(set(map(tuple, keys.tolist())))
        for cell in grid.occupied_cells():
            expected = np.nonzero((keys == cell).all(axis=1))[0]
            assert np.array_equal(grid.points_in_cell(cell), expected)

    def test_large_radius_spans_many_cells(self, rng):
        pts = rng.uniform(0, 10, size=(150, 2))
        grid = GridIndex(pts, cell_size=0.5)  # reach of 12 cells at radius 6
        for center in [(5.0, 5.0), (-1.0, 11.0)]:
            assert np.array_equal(grid.query_radius(center, 6.0), _brute_ball(pts, center, 6.0))

    def test_empty_and_degenerate_inputs(self):
        for backend in BACKENDS:
            empty = build_index(np.zeros((0, 2)), radius=1.0, backend=backend)
            assert len(empty) == 0
            assert empty.query_radius((0, 0), 2.0).size == 0
            assert empty.query_radius_many(np.array([[0.0, 0.0]]), 2.0)[0].size == 0
            assert empty.count_radius_many(np.array([[0.0, 0.0]]), 2.0).tolist() == [0]
            assert empty.query_pairs(2.0).shape == (0, 2)
            assert empty.neighbour_lists(2.0) == []
            single = build_index(np.array([[1.0, 1.0]]), radius=1.0, backend=backend)
            assert single.query_pairs(1.0).shape == (0, 2)
            assert single.query_radius_many(np.zeros((0, 2)), 1.0) == []

    def test_cell_key_overflow_raises_instead_of_returning_empty(self):
        # floor(1e6 / 1e-13) = 1e19 exceeds int64: the cast would produce
        # garbage keys and every query would silently come back empty; the
        # spread guard must fire before the cast instead.
        pts = np.array([[1e6, 0.0], [1e6, 0.0]])
        with pytest.raises(ValueError, match="too many grid cells"):
            GridIndex(pts, cell_size=1e-13)
        # The k-d tree has no cell keys to overflow.
        assert KDTreeIndex(pts).query_radius((1e6, 0.0), 1e-13).tolist() == [0, 1]

    def test_extreme_spread_overflow_matches_grid(self):
        # Squared distances overflow float64 for this spread, making scipy's
        # tree raise internally; the kdtree backend must fall back to exact
        # hypot candidates and keep agreeing with the grid instead of
        # surfacing scipy's ValueError.
        pts = np.array([[0.0, 0.0], [1e170, 0.0]])
        grid = GridIndex(pts, cell_size=1e160)
        tree = KDTreeIndex(pts)
        assert grid.query_radius((0.0, 0.0), 1e160).tolist() == [0]
        assert tree.query_radius((0.0, 0.0), 1e160).tolist() == [0]
        assert [a.tolist() for a in tree.query_radius_many(pts, 1e160)] == [[0], [1]]
        assert tree.count_radius_many(pts, 1e160).tolist() == [1, 1]
        assert tree.query_pairs(1e160).shape == (0, 2)
        assert tree.query_pairs(1e170).tolist() == [[0, 1]]

    @pytest.mark.parametrize("workers", [-1, 1])
    def test_overflow_fallback_for_every_bulk_entry_point(self, monkeypatch, workers):
        # scipy >= 1.17 swallows the overflow inside workers=-1 threads
        # (None hits, uninitialised return_length counts); every bulk entry
        # point must still answer exactly, and say that it fell back.
        import repro.geometry.index as index_module

        monkeypatch.setattr(index_module, "_KDTREE_WORKERS", {"workers": workers})
        pts = np.array([[0.0, 0.0], [1e170, 0.0], [1e170, 1e150], [-1e170, 0.0]])
        tree = KDTreeIndex(pts)
        grid = GridIndex(pts, cell_size=1e160)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = tree.query_radius_many(pts, 1e160)
        assert [a.tolist() for a in got] == [a.tolist() for a in grid.query_radius_many(pts, 1e160)]
        with pytest.warns(RuntimeWarning, match="overflow"):
            counts = tree.count_radius_many(pts, 1e160)
        assert counts.tolist() == grid.count_radius_many(pts, 1e160).tolist() == [1, 2, 2, 1]
        with pytest.warns(RuntimeWarning, match="overflow"):
            pairs = tree.query_pairs(1e160)
        assert pairs.tolist() == grid.query_pairs(1e160).tolist() == [[1, 2]]

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_none_hits_from_threads_fall_back(self, monkeypatch):
        # Past the magnitude guard a threaded query may still overflow: its
        # None hits must be caught, not passed on to the exact filter.
        import repro.geometry.index as index_module

        monkeypatch.setattr(index_module, "_KDTREE_THREAD_SAFE_MAGNITUDE", np.inf)
        pts = np.array([[0.0, 0.0], [1e170, 0.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = KDTreeIndex(pts).query_radius_many(pts, 1e160)
        assert [a.tolist() for a in got] == [[0], [1]]

    def test_far_away_center_returns_empty_without_warnings(self):
        # A query center whose cell key exceeds int64 must not cast to
        # garbage (numpy RuntimeWarning); it saturates and matches nothing,
        # exactly like the kdtree backend.
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for backend in BACKENDS:
                index = build_index(pts, radius=1.0, backend=backend)
                assert index.query_radius((1e19, 0.0), 1.0).size == 0
                assert index.query_radius_many(np.array([[1e19, 0.0]]), 1.0)[0].size == 0
                assert index.count_radius_many(np.array([[1e19, 0.0]]), 1.0).tolist() == [0]

    def test_negative_radius_rejected_everywhere(self):
        for backend in BACKENDS:
            index = build_index(np.zeros((1, 2)), radius=1.0, backend=backend)
            for call in (
                lambda: index.query_radius((0, 0), -1.0),
                lambda: index.query_radius_many(np.zeros((1, 2)), -1.0),
                lambda: index.count_radius_many(np.zeros((1, 2)), -1.0),
                lambda: index.query_pairs(-1.0),
            ):
                with pytest.raises(ValueError):
                    call()


class TestQueryNearest:
    """Nearest-neighbour queries live on the k-d tree alone."""

    def test_backends_agree_with_brute_force(self, rng):
        pts = rng.uniform(0, 10, size=(200, 2))
        centers = rng.uniform(-3, 13, size=(60, 2))  # includes off-grid centers
        tree = KDTreeIndex(pts)
        for k in (1, 3, 10, 200, 350):
            got = tree.query_nearest(centers, k)
            assert got.shape == (60, min(k, 200))
            for row, center in enumerate(centers):
                diff = pts - center
                dists = np.hypot(diff[:, 0], diff[:, 1])
                expected = np.lexsort((np.arange(len(pts)), dists))[: min(k, 200)]
                assert np.array_equal(got[row], expected)

    def test_k_larger_than_population_returns_all_columns(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert KDTreeIndex(pts).query_nearest(np.array([[0.2, 0.0]]), 5).tolist() == [[0, 1]]

    def test_far_away_center_terminates_and_is_correct(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        center = np.array([[5000.0, -4000.0]])
        expected = np.argsort(np.hypot(*(pts - center).T))[:2]
        assert KDTreeIndex(pts).query_nearest(center, 2).tolist() == [expected.tolist()]

    def test_empty_index_and_bad_k_raise(self):
        with pytest.raises(ValueError):
            KDTreeIndex(np.zeros((0, 2))).query_nearest(np.array([[0.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            KDTreeIndex(np.zeros((2, 2))).query_nearest(np.array([[0.0, 0.0]]), 0)
        assert not hasattr(GridIndex(np.zeros((2, 2)), cell_size=1.0), "query_nearest")

    def test_knn_builders_match_radius_queries_on_every_backend(self, rng):
        from repro.graphs.knn import knn_edges, knn_neighbour_indices

        # Each point's k nearest are exactly the other points inside the
        # closed ball reaching its k-th neighbour (no ties in random data),
        # so every radius-query backend is an oracle for the kNN builders.
        pts = rng.uniform(0, 6, size=(70, 2))
        k = 4
        rows = knn_neighbour_indices(pts, k)
        kth = np.hypot(*(pts[rows[:, -1]] - pts).T)
        for backend in BACKENDS:
            index = build_index(pts, radius=1.0, backend=backend)
            balls = [index.query_radius(pts[i], kth[i]) for i in range(len(pts))]
            for i, ball in enumerate(balls):
                assert sorted(rows[i].tolist()) == [j for j in ball.tolist() if j != i]
            pairs = {(min(i, j), max(i, j)) for i, ball in enumerate(balls) for j in ball if j != i}
            assert knn_edges(pts, k).tolist() == sorted(map(list, pairs))


class TestFactory:
    def test_backend_dispatch(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert isinstance(build_index(pts, radius=1.0, backend="grid"), GridIndex)
        assert isinstance(build_index(pts, radius=1.0, backend="kdtree"), KDTreeIndex)
        assert isinstance(build_index(pts, radius=1.0), SpatialIndex)

    def test_grid_cell_size_defaults(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert build_index(pts, radius=2.5).cell_size == 2.5
        # Radius 0 (or None) still builds a usable grid.
        assert build_index(pts, radius=0.0).query_radius((0, 0), 0.0).tolist() == [0]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown spatial-index backend"):
            build_index(np.zeros((1, 2)), radius=1.0, backend="rtree")


def test_nan_radius_rejected_by_every_consumer():
    # NaN fails every `<` / `<=` comparison, so `radius < 0` checks let it
    # through: the UDG and the tracked UDG came back silently empty, coverage
    # read 0.0 and the grid paths blamed the point spread.  Each consumer
    # must refuse it.
    from repro.distributed.network import MessageNetwork
    from repro.dynamics.incremental import DynamicSpatialIndex
    from repro.dynamics.topology import TopologyTracker
    from repro.graphs.udg import udg_edges
    from repro.percolation.clusters import continuum_cluster_labels
    from repro.simulation.sensing import coverage_fraction

    pts = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]])
    nan = float("nan")
    calls = [
        lambda: udg_edges(pts, nan),
        lambda: continuum_cluster_labels(pts, nan),
        lambda: MessageNetwork(pts, radio_range=nan),
        lambda: TopologyTracker(DynamicSpatialIndex(pts, radius=1.0), nan),
        lambda: DynamicSpatialIndex(pts, radius=nan),
        lambda: GridIndex(pts, cell_size=nan),
    ]
    calls += [lambda b=b: coverage_fraction(pts, pts, nan, backend=b) for b in BACKENDS]
    calls += [lambda b=b: build_index(pts, radius=nan, backend=b) for b in BACKENDS]
    for call in calls:
        with pytest.raises(ValueError, match="must be"):
            call()
