"""Cross-backend kernel equality over the PR 2 adversarial inputs.

Every backend must answer byte-identically to the extracted scalar
``reference`` loops — the certificate discipline of ``matches_rebuild()``
applied to the kernel layer.  The inputs deliberately replay the spatial
suite's worst cases: exact-boundary pairs, radius 0, subnormal offsets, and
chunk seams.  Every registered backend other than ``reference`` itself is
parametrised in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    CellTable,
    cell_gather,
    count_in_balls,
    get_backend,
    incident_edge_keys,
    pair_candidates,
    registered_backend_names,
    splice_edge_keys,
    splice_edges,
    step_events,
    within_ball_mask,
)
from repro.kernels.layout import pack_bounds, pack_keys

BACKENDS = [name for name in registered_backend_names() if name != "reference"]

#: The PR 2 exact-quotient pair: radius / cell_size computes to exactly 3.0
#: while the true quotient is just above it.
EXACT_QUOTIENT_RADIUS = 1.9033145596437013
EXACT_QUOTIENT_CELL = 0.6344381865479004
SUBNORMAL = 2.2e-313


def _random_table(rng, n=300, span=7):
    keys = rng.integers(-span, span + 1, size=(n, 2))
    key_min, spans = pack_bounds(keys)
    packed = pack_keys(keys, key_min, spans)
    return CellTable.group_points(packed, key_min, spans), packed


@pytest.mark.parametrize("backend", BACKENDS)
class TestCellGather:
    def test_random_hits_and_misses(self, backend):
        rng = np.random.default_rng(42)
        table, _ = _random_table(rng)
        # Query cells both present and absent, including out-of-table ids.
        packed = rng.integers(-5, int(table.cell_ids.max()) + 5, size=500)
        owners = rng.integers(0, 50, size=500)
        expected = cell_gather(table, packed, owners, backend="reference")
        got = cell_gather(table, packed, owners, backend=backend)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        assert got[0].dtype == np.int64 and got[1].dtype == np.int64

    def test_empty_table_and_empty_queries(self, backend):
        table = CellTable.empty()
        packed = np.array([3], dtype=np.int64)
        owners = np.array([0], dtype=np.int64)
        for args in ((table, packed, owners),):
            got = cell_gather(*args, backend=backend)
            expected = cell_gather(*args, backend="reference")
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
        rng = np.random.default_rng(1)
        table2, _ = _random_table(rng, n=10)
        empty = np.zeros(0, dtype=np.int64)
        got = cell_gather(table2, empty, empty, backend=backend)
        assert len(got[0]) == 0 and len(got[1]) == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestWithinBallMask:
    def test_boundary_pairs_classify_identically(self, backend):
        # Points at exactly the radius, one ULP inside, one ULP outside.
        radius = EXACT_QUOTIENT_RADIUS
        xs = np.array(
            [radius, np.nextafter(radius, 0.0), np.nextafter(radius, np.inf), 0.0]
        )
        pts = np.column_stack([xs, np.zeros_like(xs)])
        center = np.zeros(2)
        expected = within_ball_mask(pts, center, radius, backend="reference")
        got = within_ball_mask(pts, center, radius, backend=backend)
        assert np.array_equal(got, expected)
        assert expected.tolist() == [True, True, False, True]

    def test_radius_zero_admits_only_coincident(self, backend):
        pts = np.array([[0.0, 0.0], [0.0, -SUBNORMAL], [SUBNORMAL, 0.0]])
        got = within_ball_mask(pts, np.zeros(2), 0.0, backend=backend)
        assert got.tolist() == [True, False, False]

    def test_subnormal_offsets(self, backend):
        # d² underflows to 0.0 here; hypot must not.
        pts = np.array([[0.0, -SUBNORMAL], [SUBNORMAL, SUBNORMAL], [0.0, 0.0]])
        for radius in (0.0, SUBNORMAL, 1e-300):
            expected = within_ball_mask(pts, np.zeros(2), radius, backend="reference")
            got = within_ball_mask(pts, np.zeros(2), radius, backend=backend)
            assert np.array_equal(got, expected)

    def test_paired_centers_broadcast(self, backend):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(200, 2))
        centers = rng.normal(size=(200, 2))
        expected = within_ball_mask(pts, centers, 0.7, backend="reference")
        got = within_ball_mask(pts, centers, 0.7, backend=backend)
        assert np.array_equal(got, expected)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(0, 100, allow_nan=False),
    )
    def test_property_random_points(self, backend, coords, radius):
        pts = np.asarray(coords, dtype=np.float64)
        expected = within_ball_mask(pts, np.zeros(2), radius, backend="reference")
        got = within_ball_mask(pts, np.zeros(2), radius, backend=backend)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCountAndGroup:
    def test_count_in_balls(self, backend):
        rng = np.random.default_rng(5)
        owners = rng.integers(0, 40, size=1000).astype(np.int64)
        expected = count_in_balls(owners, 40, backend="reference")
        got = count_in_balls(owners, 40, backend=backend)
        assert np.array_equal(got, expected)
        assert np.array_equal(
            count_in_balls(np.zeros(0, dtype=np.int64), 7, backend=backend),
            np.zeros(7, dtype=np.int64),
        )

    def test_pair_candidates(self, backend):
        rng = np.random.default_rng(6)
        owners = rng.integers(0, 25, size=400).astype(np.int64)
        members = rng.integers(0, 90, size=400).astype(np.int64)
        expected = pair_candidates(owners, members, 25, 90, backend="reference")
        got = pair_candidates(owners, members, 25, 90, backend=backend)
        assert len(got) == len(expected) == 25
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)

    def test_pair_candidates_overflow_fallback(self, backend):
        # A member bound big enough to overflow the combined key exercises
        # the lexsort fallback; results must not change.
        owners = np.array([1, 0, 1, 0], dtype=np.int64)
        members = np.array([7, 3, 2, 9], dtype=np.int64)
        wide = pair_candidates(owners, members, 2, 2**62, backend=backend)
        narrow = pair_candidates(owners, members, 2, 10, backend=backend)
        for w, n in zip(wide, narrow):
            assert np.array_equal(w, n)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSpliceEdges:
    def test_fragments_with_duplicates(self, backend):
        rng = np.random.default_rng(8)
        parts = [
            rng.integers(0, 30, size=(rng.integers(0, 20), 2)) for _ in range(12)
        ]
        parts.append([(5, 6), (5, 6), (0, 1)])  # list-of-tuples fragment
        parts.append(np.zeros((0, 2), dtype=np.int64))
        expected = splice_edges(parts, backend="reference")
        got = splice_edges(parts, backend=backend)
        assert np.array_equal(got, expected)
        assert got.dtype == np.int64 and got.shape[1] == 2

    def test_empty(self, backend):
        assert splice_edges([], backend=backend).shape == (0, 2)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 15), st.integers(0, 15)),
                max_size=10,
            ),
            max_size=6,
        )
    )
    def test_property_equals_sorted_set(self, backend, parts):
        got = splice_edges(parts, backend=backend)
        pooled = sorted({pair for part in parts for pair in part})
        assert got.tolist() == [list(p) for p in pooled]


#: Packing base of the edge-key kernels (the topology tracker's).
KEY_BASE = 2**31


def _edge_key_state(rng, n_nodes, n_edges):
    """A sorted edge-key set and its hi-major view over ``n_nodes`` ids."""
    a = rng.integers(0, n_nodes, size=n_edges)
    b = rng.integers(0, n_nodes, size=n_edges)
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    keys = np.unique(lo * KEY_BASE + hi)
    return keys, np.sort((keys % KEY_BASE) * KEY_BASE + keys // KEY_BASE)


def _fresh_keys(rng, touched, n_nodes, per_node):
    """Random post-update edges of ``touched`` (unsorted, with repeats)."""
    owners = np.repeat(touched, per_node)
    others = rng.integers(0, n_nodes, size=len(owners))
    keep = owners != others
    owners, others = owners[keep], others[keep]
    return np.minimum(owners, others) * KEY_BASE + np.maximum(owners, others)


def _assert_splices_equal(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == np.int64
        assert np.array_equal(g, e)


@pytest.mark.parametrize("backend", BACKENDS)
class TestIncidentEdgeKeys:
    def test_lookups_match_reference(self, backend):
        rng = np.random.default_rng(12)
        keys, swapped = _edge_key_state(rng, 120, 700)
        empty = np.zeros(0, dtype=np.int64)
        cases = [
            rng.integers(0, 120, size=9),
            np.array([0, 119, 119]),  # lowest and highest id, repeated
            np.array([500]),  # an id with no edges
            empty,
        ]
        for ids in cases:
            expected = incident_edge_keys(keys, swapped, ids, KEY_BASE, backend="reference")
            got = incident_edge_keys(keys, swapped, ids, KEY_BASE, backend=backend)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)
        assert len(incident_edge_keys(empty, empty, np.array([3]), KEY_BASE, backend=backend)) == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestSpliceEdgeKeys:
    def test_random_splices_match_reference(self, backend):
        rng = np.random.default_rng(10)
        n_nodes = 200
        keys, swapped = _edge_key_state(rng, n_nodes, 1500)
        for _ in range(20):
            # The id high-water mark and id 0 are always among the touched.
            touched = np.concatenate(
                [rng.integers(0, n_nodes, size=8), [0, n_nodes - 1]]
            )
            fresh = _fresh_keys(rng, touched, n_nodes, 6)
            expected = splice_edge_keys(keys, swapped, touched, fresh, KEY_BASE, backend="reference")
            got = splice_edge_keys(keys, swapped, touched, fresh, KEY_BASE, backend=backend)
            _assert_splices_equal(got, expected)
            keys, swapped = got[0], got[1]

    def test_edge_cases(self, backend):
        rng = np.random.default_rng(11)
        keys, swapped = _edge_key_state(rng, 30, 60)
        empty = np.zeros(0, dtype=np.int64)
        cases = [
            (keys, swapped, empty, empty),  # nothing touched
            (empty, empty, np.array([3, 7]), empty),  # empty graph stays empty
            (empty, empty, np.array([3]), np.array([3 * KEY_BASE + 9])),  # first edge
            (keys, swapped, np.arange(30), empty),  # every edge removed
            (keys, swapped, np.array([29, 29]), empty),  # isolate the top id
        ]
        for args in cases:
            expected = splice_edge_keys(*args, KEY_BASE, backend="reference")
            got = splice_edge_keys(*args, KEY_BASE, backend=backend)
            _assert_splices_equal(got, expected)
        spliced = splice_edge_keys(keys, swapped, np.arange(30), empty, KEY_BASE, backend=backend)
        assert len(spliced[0]) == len(spliced[1]) == 0
        assert np.array_equal(spliced[3], keys)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
        st.lists(st.integers(0, 12), max_size=6),
        st.lists(st.integers(0, 12), max_size=20),
    )
    def test_property_equals_set_algebra(self, backend, old, touched_list, partners):
        edges = {(min(a, b), max(a, b)) for a, b in old if a != b}
        touched = set(touched_list)
        fresh_edges = {
            (min(t, p), max(t, p))
            for t, p in zip(sorted(touched) * len(partners), partners)
            if t != p
        }
        keys = np.array(sorted(a * KEY_BASE + b for a, b in edges), dtype=np.int64)
        swapped = np.array(sorted(b * KEY_BASE + a for a, b in edges), dtype=np.int64)
        fresh = np.array([a * KEY_BASE + b for a, b in fresh_edges], dtype=np.int64)
        got = splice_edge_keys(
            keys, swapped, np.array(touched_list, dtype=np.int64), fresh, KEY_BASE, backend=backend
        )
        incident = {e for e in edges if e[0] in touched or e[1] in touched}
        spliced = (edges - incident) | fresh_edges

        def as_keys(pairs):
            return sorted(a * KEY_BASE + b for a, b in pairs)

        assert got[0].tolist() == as_keys(spliced)
        assert got[1].tolist() == sorted(b * KEY_BASE + a for a, b in spliced)
        assert got[2].tolist() == as_keys(fresh_edges - incident)
        assert got[3].tolist() == as_keys(incident - fresh_edges)


@pytest.mark.parametrize("backend", BACKENDS)
class TestStepEvents:
    def test_ties_break_by_sequence(self, backend):
        times = np.array([2.0, 1.0, 2.0, 0.5, 2.0])
        seqs = np.array([4, 1, 0, 3, 2], dtype=np.int64)
        expected = step_events(times, seqs, backend="reference")
        got = step_events(times, seqs, backend=backend)
        assert np.array_equal(got, expected)
        assert got.tolist() == [3, 1, 2, 4, 0]

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(0, 100, allow_nan=False), max_size=40),
        st.one_of(st.none(), st.floats(0, 100, allow_nan=False)),
        st.one_of(st.none(), st.integers(0, 50)),
    )
    def test_property_cuts(self, backend, times_list, until, max_events):
        times = np.asarray(times_list, dtype=np.float64)
        seqs = np.arange(len(times), dtype=np.int64)
        expected = step_events(
            times, seqs, until=until, max_events=max_events, backend="reference"
        )
        got = step_events(
            times, seqs, until=until, max_events=max_events, backend=backend
        )
        assert np.array_equal(got, expected)


class TestChunkSeams:
    """Chunked bulk queries must not depend on the kernel backend either."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_grid_bulk_query_chunk_seams(self, backend):
        from repro.geometry.index import GridIndex
        from repro.kernels import use_backend

        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, size=(300, 2))
        # Exact-quotient radius/cell pair + a chunk size that splits queries.
        index_small = GridIndex(pts, EXACT_QUOTIENT_CELL, chunk_size=17)
        index_one = GridIndex(pts, EXACT_QUOTIENT_CELL, chunk_size=None)
        with use_backend(backend):
            chunked = index_small.query_radius_many(pts, EXACT_QUOTIENT_RADIUS)
            oneshot = index_one.query_radius_many(pts, EXACT_QUOTIENT_RADIUS)
        reference_idx = GridIndex(pts, EXACT_QUOTIENT_CELL)
        with use_backend("reference"):
            expected = reference_idx.query_radius_many(pts, EXACT_QUOTIENT_RADIUS)
        for c, o, e in zip(chunked, oneshot, expected):
            assert np.array_equal(c, o)
            assert np.array_equal(c, e)


def test_every_backend_answers_full_vocabulary():
    from repro.kernels import KERNEL_NAMES

    for name in registered_backend_names():
        backend = get_backend(name)
        assert set(backend.kernels) == set(KERNEL_NAMES)
