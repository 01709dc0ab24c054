"""k-nearest-neighbour graph construction — the paper's ``NN(2, k)`` model.

Each point establishes undirected edges to the ``k`` points nearest to it
(Häggström–Meester model): the edge {x, y} exists when y is among x's k
nearest *or* x is among y's k nearest.  Neighbour queries go to a
:class:`~repro.geometry.index.KDTreeIndex` (``query_nearest``); ties (a
measure-zero event for Poisson inputs) keep scipy's order, matching the
paper's remark that any tie-breaking rule is acceptable.  The directed pairs
are canonicalised by :func:`repro.kernels.ops.splice_edges`, the one place
the sorted ``(lo, hi)`` edge format is produced.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.index import KDTreeIndex
from repro.geometry.primitives import as_points
from repro.graphs.base import GeometricGraph
from repro.kernels import ops as kernel_ops

__all__ = ["knn_neighbour_indices", "knn_edges", "build_knn"]


def knn_neighbour_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbours of every point.

    Returns an ``(n, k)`` integer array; row i lists the k nearest points to
    point i (excluding i itself), nearest first.  When fewer than k other
    points exist, the available neighbours are followed by ``-1`` padding.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    pts = as_points(points)
    n = len(pts)
    if n == 0 or k == 0:
        return np.full((n, k), -1, dtype=np.int64)
    k_eff = min(k, n - 1)
    if k_eff == 0:
        return np.full((n, k), -1, dtype=np.int64)
    # Query k_eff + 1 because the nearest hit is the point itself.
    idx = KDTreeIndex(pts).query_nearest(pts, k_eff + 1)
    neighbours = np.full((n, k), -1, dtype=np.int64)
    for i in range(n):
        row = idx[i]
        row = row[row != i][:k_eff]
        neighbours[i, : len(row)] = row
    return neighbours


def knn_edges(points: np.ndarray, k: int) -> np.ndarray:
    """Undirected edge list of ``NN(2, k)`` on the given point set."""
    pts = as_points(points)
    neighbours = knn_neighbour_indices(pts, k)
    sources = np.repeat(np.arange(len(pts), dtype=np.int64), neighbours.shape[1])
    targets = neighbours.ravel()
    valid = targets >= 0
    pairs = np.column_stack([sources[valid], targets[valid]])
    pairs.sort(axis=1)
    return kernel_ops.splice_edges([pairs])


def build_knn(points: np.ndarray, k: int, name: str | None = None) -> GeometricGraph:
    """Build the undirected k-nearest-neighbour graph ``NN(2, k)``."""
    pts = as_points(points)
    edges = knn_edges(pts, k)
    return GeometricGraph(pts, edges, name=name or f"NN(k={k})")
