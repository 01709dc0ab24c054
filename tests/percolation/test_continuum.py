"""Tests for continuum (Gilbert-graph) cluster labelling via query_pairs."""

import numpy as np
import pytest

from repro.geometry.index import BACKENDS, build_index
from repro.percolation.clusters import (
    UnionFind,
    continuum_cluster_labels,
    continuum_largest_cluster_fraction,
)


class TestContinuumClusterLabels:
    def test_two_clusters_labelled_by_first_appearance(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 10.0], [1.0, 0.0], [10.5, 10.0]])
        labels = continuum_cluster_labels(pts, radius=1.0)
        assert labels.tolist() == [0, 0, 1, 0, 1]

    def test_boundary_pair_connects(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0 + 4e-13, 0.0]])
        labels = continuum_cluster_labels(pts, radius=1.0)
        assert labels[0] == labels[1]
        assert labels[2] != labels[0]

    def test_radius_zero_merges_coincident_points_only(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1e-9, 0.0]])
        labels = continuum_cluster_labels(pts, radius=0.0)
        assert labels[0] == labels[1] != labels[2]

    def test_backends_agree(self):
        # The labels equal a union-find over every backend's pairs.
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 12, size=(150, 2))
        labels = continuum_cluster_labels(pts, radius=1.0)
        for backend in BACKENDS:
            uf = UnionFind(len(pts))
            pairs = build_index(pts, radius=1.0, backend=backend).query_pairs(1.0)
            uf.union_pairs(pairs[:, 0], pairs[:, 1])
            roots = uf.find_many(np.arange(len(pts)))
            same = roots[:, None] == roots[None, :]
            assert np.array_equal(same, labels[:, None] == labels[None, :])

    def test_empty_and_negative_inputs(self):
        assert continuum_cluster_labels(np.zeros((0, 2)), 1.0).size == 0
        with pytest.raises(ValueError):
            continuum_cluster_labels(np.zeros((1, 2)), -1.0)

    def test_agrees_with_udg_component_structure(self):
        from repro.graphs.metrics import largest_component_fraction
        from repro.graphs.udg import build_udg

        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 10, size=(120, 2))
        fraction = continuum_largest_cluster_fraction(pts, radius=1.0)
        assert fraction == pytest.approx(largest_component_fraction(build_udg(pts, 1.0)))


class TestContinuumLargestClusterFraction:
    def test_fully_connected(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        assert continuum_largest_cluster_fraction(pts, radius=0.6) == 1.0

    def test_isolated_points(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        assert continuum_largest_cluster_fraction(pts, radius=1.0) == pytest.approx(1 / 3)

    def test_empty(self):
        assert continuum_largest_cluster_fraction(np.zeros((0, 2)), 1.0) == 0.0
