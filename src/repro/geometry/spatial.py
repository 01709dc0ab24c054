"""Backward-compatible home of :class:`GridIndex`.

The implementation moved to :mod:`repro.geometry.index`, which hosts the
:class:`~repro.geometry.index.SpatialIndex` backend layer (the
vectorised grid, the cKDTree wrapper and the :func:`~repro.geometry.index.build_index`
factory).  This module re-exports :class:`GridIndex` so existing imports keep
working.
"""

from repro.geometry.index import GridIndex

__all__ = ["GridIndex"]
