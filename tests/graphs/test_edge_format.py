"""The canonical edge format — sorted ``(lo, hi)`` rows, unique, in
lexicographic order — has one producer, :func:`repro.kernels.ops.splice_edges`.

Every builder that canonicalises edges must give the bytes of the
``np.unique(np.sort(e, axis=1), axis=0)`` expression it replaced, which stays
here as the oracle; the seeded UDG and kNN builds are pinned to the digests
that expression produced.
"""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np

from repro.geometry.poisson import poisson_points
from repro.geometry.primitives import Rect
from repro.graphs.base import GeometricGraph
from repro.graphs.knn import build_knn, knn_edges, knn_neighbour_indices
from repro.graphs.spanners import _candidate_edges
from repro.graphs.udg import build_udg

N_NODES = 12

# Edges over N_NODES nodes without self-loops; list draws repeat pairs and
# draw both orientations of a pair often enough to exercise the dedupe.
edge_rows = st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1)).filter(
    lambda e: e[0] != e[1]
)
edge_lists = st.lists(edge_rows, max_size=80)


def _oracle(edges: np.ndarray) -> np.ndarray:
    return np.unique(np.sort(edges, axis=1), axis=0)


def _same_bytes(got: np.ndarray, expected: np.ndarray) -> bool:
    return (
        got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


@given(edge_lists)
@example([])
@example([(3, 1)])
@example([(0, 1), (1, 0), (0, 1), (5, 2), (2, 5)])
@settings(max_examples=80, deadline=None)
def test_edge_canonicalisation_matches_the_unique_oracle(rows):
    edges = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    expected = _oracle(edges)
    points = np.zeros((N_NODES, 2))
    assert _same_bytes(GeometricGraph(points, edges).edges, expected)
    assert _same_bytes(_candidate_edges(points, edges), expected)


@given(st.integers(0, 40), st.integers(0, 6), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_knn_edges_match_the_unique_oracle(n, k, seed):
    pts = np.random.default_rng(seed).uniform(0, 5, size=(n, 2))
    neighbours = knn_neighbour_indices(pts, k)
    sources = np.repeat(np.arange(n, dtype=np.int64), neighbours.shape[1])
    targets = neighbours.ravel()
    directed = np.column_stack([sources, targets])[targets >= 0]
    assert _same_bytes(knn_edges(pts, k), _oracle(directed))


def test_seeded_udg_and_knn_builds_keep_their_bytes():
    # λ = 20 on an 8×8 window (1298 points), the paper's k = 188; the
    # digests were produced by the np.unique-based builders.
    pts = poisson_points(Rect(0, 0, 8, 8), 20.0, np.random.default_rng(2024))
    assert len(pts) == 1298
    udg = build_udg(pts, 1.0).edges
    knn = build_knn(pts, 188).edges
    assert udg.shape == (37043, 2) and knn.shape == (137290, 2)
    assert hashlib.sha256(udg.tobytes()).hexdigest() == (
        "45809793742a6e208db8395390388a4b1e12836bfab08cf101a99104a3a2cb33"
    )
    assert hashlib.sha256(knn.tobytes()).hexdigest() == (
        "06786d19d46461746e7986478f61a6c81b60dfee2ce3c841761acaa60f2189e0"
    )
