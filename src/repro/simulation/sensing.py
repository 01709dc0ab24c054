"""Sensing-field models: random events and a moving target.

The paper's coverage property (P3) is about the sensing function: the region
must be covered by nodes that belong to the connected SENS network.  These
helpers measure that operationally:

* :func:`coverage_fraction` — fraction of randomly placed events that at
  least one *connected* node senses (within the sensing radius).
* :class:`MovingTarget` — a target following a piecewise-linear path, used by
  the collaborative-tracking example (the paper's §1 motivation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.geometry.index import KDTreeIndex, build_index, within_ball
from repro.geometry.primitives import Rect, as_points

__all__ = ["SensingField", "MovingTarget", "coverage_fraction"]


def coverage_fraction(
    sensor_positions: np.ndarray,
    events: np.ndarray,
    sensing_radius: float,
    backend: str = "kdtree",
) -> float:
    """Fraction of event positions within ``sensing_radius`` of some sensor.

    An event is covered when its closed sensing ball contains at least one
    sensor.  Existence is all that matters, so the KD-tree backend answers
    each event with one nearest-sensor query confirmed by the backends'
    shared ``within_ball`` predicate — O(log n) per event instead of
    enumerating every sensor inside the ball; the grid backend answers with
    one bulk ``count_radius_many``.
    """
    if not sensing_radius > 0:  # also rejects NaN
        raise ValueError("sensing_radius must be positive")
    sensors = as_points(sensor_positions)
    evts = as_points(events)
    if len(evts) == 0:
        return 1.0
    if len(sensors) == 0:
        return 0.0
    index = build_index(sensors, radius=sensing_radius, backend=backend)
    if isinstance(index, KDTreeIndex):
        nearest = index.query_nearest(evts, 1)[:, 0]
        covered = within_ball(sensors[nearest], evts, sensing_radius)
        # The tree ranks sensors by its own (underflow-prone) metric, so the
        # one it picks can fail the exact predicate while an equidistant-
        # under-rounding sensor covers the event; re-check apparent misses
        # with the exact ball query (cheap: their balls are almost always
        # empty, which is why the nearest-first path is the fast one).
        unsure = np.nonzero(~covered)[0]
        if unsure.size:
            covered[unsure] = index.count_radius_many(evts[unsure], sensing_radius) > 0
    else:
        covered = index.count_radius_many(evts, sensing_radius) > 0
    return float(covered.mean())


@dataclass
class SensingField:
    """A rectangular field in which point events occur uniformly at random.

    Attributes
    ----------
    window: the field extent.
    sensing_radius: detection radius of every sensor.
    """

    window: Rect
    sensing_radius: float

    def __post_init__(self) -> None:
        if not self.sensing_radius > 0:  # also rejects NaN
            raise ValueError("sensing_radius must be positive")

    def sample_events(self, n_events: int, rng: np.random.Generator) -> np.ndarray:
        """``n_events`` uniformly random event positions."""
        if n_events < 0:
            raise ValueError("n_events must be non-negative")
        return self.window.sample_uniform(n_events, rng)

    def detectors_of(self, sensor_positions: np.ndarray, event: np.ndarray) -> np.ndarray:
        """Indices of sensors that detect a single event position.

        A one-shot single-event query: the direct vectorised distance check
        (literally the index backends' shared ``within_ball`` predicate)
        beats building a spatial index that would answer only one query.
        """
        sensors = as_points(sensor_positions)
        if len(sensors) == 0:
            return np.zeros(0, dtype=np.int64)
        event = np.asarray(event, dtype=np.float64)
        return np.nonzero(within_ball(sensors, event, self.sensing_radius))[0]

    def coverage(
        self,
        sensor_positions: np.ndarray,
        n_events: int,
        rng: np.random.Generator,
    ) -> float:
        """Monte-Carlo event-coverage fraction for a set of sensors."""
        events = self.sample_events(n_events, rng)
        return coverage_fraction(sensor_positions, events, self.sensing_radius)


@dataclass
class MovingTarget:
    """A target moving along a piecewise-linear path at constant speed.

    Attributes
    ----------
    waypoints: ``(m, 2)`` array of waypoints visited in order.
    speed: distance covered per time step.
    """

    waypoints: np.ndarray
    speed: float

    def __post_init__(self) -> None:
        self.waypoints = as_points(self.waypoints)
        if len(self.waypoints) < 2:
            raise ValueError("a moving target needs at least two waypoints")
        if self.speed <= 0:
            raise ValueError("speed must be positive")

    @property
    def path_length(self) -> float:
        return float(np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1).sum())

    def positions(self) -> Iterator[np.ndarray]:
        """Yield the target position at each time step until the path ends."""
        seg_vecs = np.diff(self.waypoints, axis=0)
        seg_lens = np.linalg.norm(seg_vecs, axis=1)
        total = float(seg_lens.sum())
        travelled = 0.0
        while travelled <= total:
            yield self.position_at(travelled)
            travelled += self.speed
        yield self.waypoints[-1].copy()

    def position_at(self, distance: float) -> np.ndarray:
        """Position after travelling ``distance`` along the path (clamped to the end)."""
        if distance <= 0:
            return self.waypoints[0].copy()
        seg_vecs = np.diff(self.waypoints, axis=0)
        seg_lens = np.linalg.norm(seg_vecs, axis=1)
        remaining = distance
        for start, vec, length in zip(self.waypoints[:-1], seg_vecs, seg_lens):
            if remaining <= length or length == 0:
                frac = 0.0 if length == 0 else remaining / length
                return start + frac * vec
            remaining -= length
        return self.waypoints[-1].copy()
