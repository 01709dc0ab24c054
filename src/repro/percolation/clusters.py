"""Cluster labelling and statistics for site-percolation configurations.

The workhorse is a vectorised union–find (weighted quick-union with path
compression).  Open sites are united with their open right/down neighbours,
which labels all 4-connected open clusters in near-linear time; this is the
standard Hoshen–Kopelman-style approach expressed with numpy index arrays
instead of per-site Python loops.

The same union–find also labels *continuum* clusters: given a planar point
set, :func:`continuum_cluster_labels` derives the Gilbert-graph adjacency
from one ``query_pairs`` call on a :class:`~repro.geometry.index.KDTreeIndex`
and unions the resulting pairs, which is how E11-style continuum-percolation
questions reduce to the cluster machinery already used on Z².
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.index import KDTreeIndex
from repro.geometry.primitives import as_points
from repro.percolation.lattice import LatticeConfiguration

__all__ = [
    "UnionFind",
    "ClusterStatistics",
    "label_clusters",
    "cluster_sizes",
    "cluster_statistics",
    "largest_cluster_mask",
    "has_spanning_cluster",
    "theta_estimate",
    "continuum_cluster_labels",
    "continuum_largest_cluster_fraction",
]


class UnionFind:
    """Weighted quick-union with path compression over ``n`` elements.

    Exposes both scalar operations (`find`, `union`) and a vectorised
    :meth:`find_many` used by the cluster labeller.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def __len__(self) -> int:
        return len(self.parent)

    def find(self, x: int) -> int:
        """Root of the component containing ``x`` (with path compression)."""
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        # Path compression pass.
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return int(root)

    def union(self, a: int, b: int) -> int:
        """Merge the components of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return ra

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def union_pairs(self, pairs_a: np.ndarray, pairs_b: np.ndarray) -> None:
        """Union many pairs; order-independent result."""
        for a, b in zip(np.asarray(pairs_a).ravel(), np.asarray(pairs_b).ravel()):
            self.union(int(a), int(b))

    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Roots for an array of elements."""
        return np.fromiter((self.find(int(x)) for x in np.asarray(xs).ravel()), dtype=np.int64)

    def component_size(self, x: int) -> int:
        return int(self.size[self.find(x)])


def _order_by_first_appearance(compact: np.ndarray) -> np.ndarray:
    """Relabel compact component ids by first (array-order) appearance.

    Fully vectorised: each unique id is ranked by the position of its first
    occurrence, so no per-point Python loop runs even on 100k+-point
    realisations.
    """
    _, first, inverse = np.unique(compact, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first), dtype=np.int64)
    return rank[inverse]


def label_clusters(config: LatticeConfiguration) -> np.ndarray:
    """Label 4-connected open clusters.

    Returns an ``(H, W)`` integer array: closed sites get label ``-1``; open
    sites get a label in ``0 .. n_clusters-1``.  Labels are contiguous and
    ordered by the first (row-major) appearance of each cluster.
    """
    mask = config.open_mask
    h, w = mask.shape
    uf = UnionFind(h * w)
    idx = np.arange(h * w).reshape(h, w)

    # Horizontal unions: open site with open right neighbour.
    horiz = mask[:, :-1] & mask[:, 1:]
    uf.union_pairs(idx[:, :-1][horiz], idx[:, 1:][horiz])
    # Vertical unions: open site with open lower neighbour.
    vert = mask[:-1, :] & mask[1:, :]
    uf.union_pairs(idx[:-1, :][vert], idx[1:, :][vert])
    if config.wrap:
        wrap_h = mask[:, -1] & mask[:, 0]
        uf.union_pairs(idx[:, -1][wrap_h], idx[:, 0][wrap_h])
        wrap_v = mask[-1, :] & mask[0, :]
        uf.union_pairs(idx[-1, :][wrap_v], idx[0, :][wrap_v])

    labels = np.full((h, w), -1, dtype=np.int64)
    open_idx = idx[mask]
    if open_idx.size == 0:
        return labels
    roots = uf.find_many(open_idx)
    _, compact = np.unique(roots, return_inverse=True)
    # Re-order labels by first appearance to make them deterministic.
    labels[mask] = _order_by_first_appearance(compact)
    return labels


def continuum_cluster_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Connected-component labels of the Gilbert (unit-disk) graph on ``points``.

    Adjacency is derived from one :meth:`~repro.geometry.index.KDTreeIndex.query_pairs`
    call (exact closed ball, so boundary pairs at distance exactly ``radius``
    are connected, and at ``radius == 0`` coincident points merge — unlike
    :func:`~repro.graphs.udg.udg_edges`, which is empty at radius 0), and the
    pairs are fed to the same :class:`UnionFind` that labels lattice clusters.
    Returns one label per point, contiguous from 0 and ordered by first
    (index-order) appearance.
    """
    if not radius >= 0:  # also rejects NaN
        raise ValueError("radius must be non-negative")
    pts = as_points(points)
    n = len(pts)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    uf = UnionFind(n)
    pairs = KDTreeIndex(pts).query_pairs(radius)
    if len(pairs):
        uf.union_pairs(pairs[:, 0], pairs[:, 1])
    roots = uf.find_many(np.arange(n))
    _, compact = np.unique(roots, return_inverse=True)
    return _order_by_first_appearance(compact)


def continuum_largest_cluster_fraction(points: np.ndarray, radius: float) -> float:
    """Fraction of points in the largest Gilbert-graph cluster (0.0 if empty)."""
    labels = continuum_cluster_labels(points, radius)
    if labels.size == 0:
        return 0.0
    return float(np.bincount(labels).max()) / labels.size


def cluster_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes of each labelled cluster (index = label)."""
    valid = labels[labels >= 0]
    if valid.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(valid)


@dataclass(frozen=True)
class ClusterStatistics:
    """Summary statistics of a labelled configuration.

    Attributes
    ----------
    n_clusters: number of open clusters.
    largest_size: size (site count) of the largest cluster.
    largest_fraction: largest cluster size divided by the total site count —
        the finite-volume estimate of θ(p)·(volume) normalisation used in E09.
    mean_size: mean cluster size over clusters.
    open_fraction: fraction of open sites.
    spanning: whether some cluster touches both the left and right boundary
        columns (a standard finite-size criterion for criticality).
    """

    n_clusters: int
    largest_size: int
    largest_fraction: float
    mean_size: float
    open_fraction: float
    spanning: bool


def cluster_statistics(config: LatticeConfiguration, labels: np.ndarray | None = None) -> ClusterStatistics:
    """Compute :class:`ClusterStatistics` for a configuration."""
    if labels is None:
        labels = label_clusters(config)
    sizes = cluster_sizes(labels)
    n_sites = config.n_sites
    if sizes.size == 0:
        return ClusterStatistics(0, 0, 0.0, 0.0, config.open_fraction, False)
    return ClusterStatistics(
        n_clusters=int(sizes.size),
        largest_size=int(sizes.max()),
        largest_fraction=float(sizes.max()) / n_sites,
        mean_size=float(sizes.mean()),
        open_fraction=config.open_fraction,
        spanning=has_spanning_cluster(config, labels),
    )


def largest_cluster_mask(config: LatticeConfiguration, labels: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of the largest open cluster (all-``False`` if no open site)."""
    if labels is None:
        labels = label_clusters(config)
    sizes = cluster_sizes(labels)
    if sizes.size == 0:
        return np.zeros(config.shape, dtype=bool)
    return labels == int(np.argmax(sizes))


def has_spanning_cluster(config: LatticeConfiguration, labels: np.ndarray | None = None) -> bool:
    """``True`` when one open cluster touches both the left and right edges.

    Left–right spanning of an L×L box is the classic finite-size indicator
    whose probability jumps from 0 to 1 across p_c as L grows; it drives the
    threshold estimator in :mod:`repro.percolation.critical`.
    """
    if labels is None:
        labels = label_clusters(config)
    left = labels[:, 0]
    right = labels[:, -1]
    left_labels = set(int(x) for x in left[left >= 0])
    if not left_labels:
        return False
    right_labels = set(int(x) for x in right[right >= 0])
    return bool(left_labels & right_labels)


def theta_estimate(config: LatticeConfiguration, labels: np.ndarray | None = None) -> float:
    """Finite-volume estimate of θ(p): P(a given site lies in the largest cluster).

    On the infinite lattice θ(p) is the probability that the origin belongs to
    the infinite cluster; on a finite box the standard proxy is the largest
    cluster's share of *all* sites.  The paper leans on the monotonicity of
    θ(p) for its coverage argument (§3.2), which experiment E09 verifies.
    """
    if labels is None:
        labels = label_clusters(config)
    sizes = cluster_sizes(labels)
    if sizes.size == 0:
        return 0.0
    return float(sizes.max()) / config.n_sites
