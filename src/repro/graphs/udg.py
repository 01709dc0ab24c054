"""Unit disk graph construction — the paper's ``UDG(2, λ)`` model.

Given a point set S, the unit disk graph joins x, y ∈ S whenever
``d(x, y) <= radius`` (the paper fixes the radius to 1; we keep it a
parameter so that radio-range experiments can rescale).  Edges are
enumerated with one ``query_pairs`` call on a
:class:`~repro.geometry.index.KDTreeIndex` — O(n log n + output), no quadratic
distance matrix.  The k-d tree is fixed by measurement: on Poisson inputs at
λ = 1.44, 3 and 20 its pair enumeration beat the grid index by 1.5–5×, and
the two return identical pairs.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.index import KDTreeIndex
from repro.geometry.primitives import as_points
from repro.graphs.base import GeometricGraph

__all__ = ["udg_edges", "build_udg"]


def udg_edges(points: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Edge list of the unit-disk graph with the given connection ``radius``.

    Returns an ``(m, 2)`` integer array of node-index pairs (smaller index
    first, rows in lexicographic order).

    ``radius == 0`` returns no edges *by UDG convention* (a zero-range radio
    connects nothing) without consulting the index.  This deliberately
    differs from the raw index layer, where a radius-0 closed ball matches
    exactly coincident points — e.g. ``continuum_cluster_labels`` merges
    coincident points at radius 0 while the UDG on the same set is empty.
    """
    if not radius >= 0:  # also rejects NaN
        raise ValueError("radius must be non-negative")
    pts = as_points(points)
    if len(pts) < 2 or radius == 0:
        return np.zeros((0, 2), dtype=np.int64)
    return KDTreeIndex(pts).query_pairs(radius)


def build_udg(points: np.ndarray, radius: float = 1.0, name: str | None = None) -> GeometricGraph:
    """Build ``UDG(2, λ)`` on an explicit point set.

    Parameters
    ----------
    points:
        ``(n, 2)`` node coordinates (typically a Poisson realisation from
        :mod:`repro.geometry.poisson`).
    radius:
        Connection radius (1.0 in the paper).
    name:
        Optional label; defaults to ``"UDG(r=<radius>)"``.
    """
    pts = as_points(points)
    edges = udg_edges(pts, radius)
    return GeometricGraph(pts, edges, name=name or f"UDG(r={radius:g})")
