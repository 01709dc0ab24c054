"""LiveWorld: apply semantics, queries from maintained structures, state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.index import BACKENDS
from repro.serve.batching import TickBatcher, coalesce_events
from repro.serve.protocol import Request
from repro.serve.world import LiveWorld, WorldConfig
from repro.simulation.sensing import coverage_fraction


@pytest.fixture
def world(rng):
    positions = rng.uniform(0.0, 15.0, size=(80, 2))
    return LiveWorld(positions, WorldConfig())


def _apply(world, batcher, requests):
    events = []
    for request in requests:
        event, accepted = batcher.offer(request)
        assert accepted
        events.append(event)
    return world.apply(coalesce_events(events, world.is_alive))


class TestApply:
    def test_moves_deletes_inserts(self, world):
        batcher = TickBatcher()
        result = _apply(
            world,
            batcher,
            [
                Request(op="move", node=0, position=(1.0, 1.0)),
                Request(op="delete", node=1),
                Request(op="insert", position=(7.0, 7.0)),
            ],
        )
        assert result.applied_seq == 3
        assert result.inserted_ids == {3: 80}
        assert world.n_alive == 80  # -1 delete, +1 insert
        assert not world.is_alive(1)
        assert world.index.position_of(0).tolist() == [1.0, 1.0]
        assert world.index.position_of(80).tolist() == [7.0, 7.0]

    def test_applied_seq_tracks_rejected_events_too(self, world):
        batcher = TickBatcher()
        result = _apply(
            world,
            batcher,
            [
                Request(op="delete", node=2),
                Request(op="move", node=2, position=(0.0, 0.0)),  # dead: rejected
            ],
        )
        assert result.applied_seq == 2

    def test_allocated_ids_match_sequential_application(self, rng):
        positions = rng.uniform(0.0, 15.0, size=(10, 2))
        coalesced = LiveWorld(positions.copy(), WorldConfig())
        sequential = LiveWorld(positions.copy(), WorldConfig())
        requests = [
            Request(op="insert", position=(1.0, 1.0)),
            Request(op="delete", node=3),
            Request(op="insert", position=(2.0, 2.0)),
        ]
        batcher = TickBatcher()
        bulk = _apply(coalesced, batcher, requests)
        seq_batcher = TickBatcher()
        allocated = {}
        for request in requests:
            event, _ = seq_batcher.offer(request)
            result = sequential.apply(
                coalesce_events([event], sequential.is_alive)
            )
            allocated.update(result.inserted_ids)
        assert bulk.inserted_ids == allocated == {1: 10, 3: 11}


class TestQueries:
    def test_neighbours_respects_radius(self, world):
        batcher = TickBatcher()
        _apply(
            world,
            batcher,
            [
                Request(op="move", node=0, position=(5.0, 5.0)),
                Request(op="move", node=1, position=(5.3, 5.0)),
                Request(op="move", node=2, position=(14.9, 14.9)),
            ],
        )
        close = world.neighbours(0, radius=0.5)
        assert 1 in close and 2 not in close

    def test_route_between_good_tile_representatives(self, rng):
        # A dense deployment so tiles are good and the overlay is connected;
        # endpoints are picked from good tiles (routable by construction).
        positions = rng.uniform(0.0, 8.0, size=(600, 2))
        world = LiveWorld(positions, WorldConfig(window_xmax=8.0, window_ymax=8.0))
        reps = sorted(world.engine.result().representatives.values())
        assert len(reps) >= 2
        route = world.route(reps[0], reps[-1])
        assert route["success"] is True
        assert route["hops"] == len(route["node_path"]) - 1
        assert route["euclidean_length"] >= 0.0
        assert route["node_path"][0] == reps[0]
        assert route["node_path"][-1] == reps[-1]

    def test_route_from_bad_tile_fails_cleanly(self, rng):
        positions = rng.uniform(0.0, 8.0, size=(600, 2))
        world = LiveWorld(positions, WorldConfig(window_xmax=8.0, window_ymax=8.0))
        good = set(world.engine.result().representatives)
        tiles = world.engine.tiling.tile_of_points(world.index.positions())
        bad_rows = [
            i for i, tile in enumerate(map(tuple, tiles.tolist())) if tile not in good
        ]
        if not bad_rows:
            pytest.skip("every tile is good in this realisation")
        node = int(world.index.ids()[bad_rows[0]])
        route = world.route(node, node)
        assert route["success"] is False
        assert "not good" in route["reason"]

    def test_route_dead_endpoint_raises(self, world):
        _apply(world, TickBatcher(), [Request(op="delete", node=0)])
        with pytest.raises(ValueError, match="not alive"):
            world.route(0, 1)

    def test_coverage(self, world):
        events = np.array([[world.index.position_of(0)[0], world.index.position_of(0)[1]]])
        assert world.coverage(events, sensing_radius=0.5) == 1.0
        assert world.coverage(np.array([[100.0, 100.0]]), sensing_radius=0.5) == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_coverage_matches_static_coverage_fraction(self, rng, backend):
        # Lattice positions make events exactly r away from a node; the world
        # is dirtied first so the alive set differs from the initial one.
        positions = np.round(rng.uniform(0.0, 15.0, size=(300, 2)) * 4) / 4
        world = LiveWorld(positions, WorldConfig())
        _apply(
            world,
            TickBatcher(),
            [Request(op="move", node=i, position=(float(i % 15), 7.5)) for i in range(20)]
            + [Request(op="delete", node=i) for i in range(20, 30)]
            + [Request(op="insert", position=(0.25, 14.75))],
        )
        alive = world.index.positions()
        for radius in (0.05, 0.5, 1.3, 3.0):
            exact = alive[:40] + np.array([radius, 0.0])
            diagonal = alive[40:80] + np.array([0.3, 0.4]) * (radius / 0.5)
            random = rng.uniform(-1.0, 16.0, size=(64, 2))
            for events in (exact, diagonal, random):
                assert world.coverage(events, radius) == coverage_fraction(
                    alive, events, radius, backend=backend
                )

    def test_coverage_edge_cases(self, world):
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError):
                world.coverage(np.array([[1.0, 1.0]]), radius)
        assert world.coverage(np.zeros((0, 2)), 0.5) == 1.0
        # An empty deployment covers nothing, checked before anything else.
        empty = LiveWorld(np.zeros((0, 2)), WorldConfig())
        assert empty.coverage(np.array([[1.0, 1.0]]), 0.5) == 0.0
        assert empty.coverage(np.zeros((0, 2)), 0.5) == 0.0
        assert empty.coverage(np.array([[1.0, 1.0]]), 0.0) == 0.0


class TestStateRoundTrip:
    def test_digest_identical_after_restore(self, world):
        _apply(
            world,
            TickBatcher(),
            [
                Request(op="move", node=0, position=(3.25, 4.75)),
                Request(op="delete", node=5),
                Request(op="insert", position=(9.5, 9.5)),
            ],
        )
        clone = LiveWorld.from_state(world.state())
        assert clone.digest() == world.digest()
        assert clone.applied_seq == world.applied_seq

    def test_restore_preserves_id_high_water_mark(self, world):
        _apply(world, TickBatcher(), [Request(op="insert", position=(1.0, 1.0))])
        clone = LiveWorld.from_state(world.state())
        original = _apply(world, TickBatcher(start_seq=2), [Request(op="insert", position=(2.0, 2.0))])
        restored = _apply(clone, TickBatcher(start_seq=2), [Request(op="insert", position=(2.0, 2.0))])
        assert original.inserted_ids == restored.inserted_ids
        assert world.digest() == clone.digest()

    def test_unknown_version_rejected(self, world):
        state = world.state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            LiveWorld.from_state(state)

    def test_kdtree_backend_is_rejected(self, world):
        # Live worlds run only the grid index, so a "kdtree" config — fresh or
        # from an old snapshot — must fail loudly, not silently run the grid.
        with pytest.raises(ValueError, match="kdtree"):
            WorldConfig(backend="kdtree")
        state = world.state()
        assert state["config"]["backend"] == "grid"
        state["config"]["backend"] = "kdtree"
        with pytest.raises(ValueError, match="kdtree"):
            LiveWorld.from_state(state)

    def test_digest_pinned(self):
        # A fixed seeded world after four ticks: the hex digest was computed
        # before the dynamic index became grid-only, so snapshot and digest
        # bytes are pinned across that change.
        rng = np.random.default_rng(20140)
        world = LiveWorld(rng.uniform(0.0, 15.0, size=(300, 2)), WorldConfig())
        batcher = TickBatcher()
        for _ in range(4):
            requests = [
                Request(op="move", node=int(node), position=tuple(rng.uniform(0.0, 15.0, size=2)))
                for node in rng.choice(world.index.ids(), size=20, replace=False)
            ]
            requests.append(Request(op="delete", node=int(world.index.ids()[-1])))
            requests.append(Request(op="insert", position=tuple(rng.uniform(0.0, 15.0, size=2))))
            _apply(world, batcher, requests)
        assert (world.applied_seq, world.n_alive) == (88, 300)
        expected = "fc4cf09433d2aa63f3665ba5595db08a599a06cc5aaa82f1e8938479fd6312bf"
        assert world.digest() == expected
        assert LiveWorld.from_state(world.state()).digest() == expected
