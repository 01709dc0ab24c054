"""Tests for the synchronous message-passing simulator."""

import numpy as np
import pytest

from repro.distributed.messages import Message
from repro.distributed.network import MessageNetwork
from repro.geometry.index import BACKENDS, build_index


class TestMessage:
    def test_valid_message(self):
        m = Message(0, 1, "hello", {"x": 1})
        assert m.kind == "hello"

    def test_invalid_message(self):
        with pytest.raises(ValueError):
            Message(-1, 0, "x")
        with pytest.raises(ValueError):
            Message(0, 1, "")


class TestMessageNetwork:
    def test_send_and_deliver(self):
        net = MessageNetwork(np.array([[0, 0], [0.5, 0]], dtype=float), radio_range=1.0)
        net.send(Message(0, 1, "ping"))
        inboxes = net.deliver_round()
        assert len(inboxes[1]) == 1
        assert inboxes[1][0].kind == "ping"
        assert net.stats.messages_sent == 1
        assert net.stats.rounds == 1

    def test_locality_violation_rejected(self):
        net = MessageNetwork(np.array([[0, 0], [5, 0]], dtype=float), radio_range=1.0)
        with pytest.raises(ValueError, match="locality violation"):
            net.send(Message(0, 1, "ping"))

    def test_unknown_endpoint_rejected(self):
        net = MessageNetwork(np.array([[0, 0]], dtype=float))
        with pytest.raises(ValueError):
            net.send(Message(0, 5, "ping"))

    def test_unlimited_range_when_none(self):
        net = MessageNetwork(np.array([[0, 0], [100, 0]], dtype=float), radio_range=None)
        net.send(Message(0, 1, "far"))
        assert net.deliver_round()[1]

    def test_broadcast_counts_and_skips_self(self):
        net = MessageNetwork(np.array([[0, 0], [0.1, 0], [0.2, 0]], dtype=float), radio_range=1.0)
        net.broadcast(0, [0, 1, 2], "announce")
        assert net.stats.messages_sent == 2
        inboxes = net.deliver_round()
        assert 0 not in inboxes

    def test_messages_by_kind_accounting(self):
        net = MessageNetwork(np.array([[0, 0], [0.1, 0]], dtype=float))
        net.send(Message(0, 1, "a"))
        net.send(Message(1, 0, "a"))
        net.send(Message(0, 1, "b"))
        assert net.stats.messages_by_kind == {"a": 2, "b": 1}

    def test_messages_delivered_only_next_round(self):
        net = MessageNetwork(np.array([[0, 0], [0.1, 0]], dtype=float))
        net.send(Message(0, 1, "first"))
        first = net.deliver_round()
        net.send(Message(1, 0, "second"))
        second = net.deliver_round()
        assert [m.kind for m in first.get(1, [])] == ["first"]
        assert [m.kind for m in second.get(0, [])] == ["second"]
        assert second.get(1, []) == []

    def test_neighbours_of(self):
        pts = np.array([[0, 0], [0.5, 0], [3, 0]], dtype=float)
        net = MessageNetwork(pts, radio_range=1.0)
        assert set(net.neighbours_of(0).tolist()) == {1}

    def test_index_backends_agree(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 6, size=(40, 2))
        net = MessageNetwork(pts, radio_range=1.0)
        for backend in BACKENDS:
            lists = build_index(pts, radius=1.0, backend=backend).neighbour_lists(1.0)
            for node in range(len(pts)):
                assert np.array_equal(net.neighbours_of(node), lists[node])

    def test_boundary_pair_can_message(self):
        # d == radio_range exactly: "is a neighbour" under the exact closed
        # ball, so "can message" must agree (regression for the 1e-9 slack).
        pts = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=float)
        net = MessageNetwork(pts, radio_range=1.0)
        assert net.neighbours_of(0).tolist() == [1]
        net.send(Message(0, 1, "edge"))
        assert net.deliver_round()[1]

    def test_just_outside_boundary_rejected(self):
        # d = 1 + 4e-13 was sendable under the old ``d <= r + 1e-9`` slack
        # even though the neighbour index excluded the pair.
        pts = np.array([[0.0, 0.0], [1.0 + 4e-13, 0.0]], dtype=float)
        net = MessageNetwork(pts, radio_range=1.0)
        assert net.neighbours_of(0).size == 0
        with pytest.raises(ValueError, match="locality violation"):
            net.send(Message(0, 1, "edge"))

    def test_send_and_neighbourhood_agree_on_random_points(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 4, size=(25, 2))
        net = MessageNetwork(pts, radio_range=1.0)
        for i in range(len(pts)):
            neighbours = set(net.neighbours_of(i).tolist())
            for j in range(len(pts)):
                if i == j:
                    continue
                if j in neighbours:
                    net.send(Message(i, j, "ok"))
                else:
                    with pytest.raises(ValueError, match="locality violation"):
                        net.send(Message(i, j, "far"))

    def test_zero_radio_range_allows_only_coincident_nodes(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 2.0]], dtype=float)
        net = MessageNetwork(pts, radio_range=0.0)
        net.send(Message(0, 1, "coincident"))
        with pytest.raises(ValueError, match="locality violation"):
            net.send(Message(0, 2, "apart"))

    def test_self_message_always_in_range(self):
        net = MessageNetwork(np.array([[0, 0], [5, 0]], dtype=float), radio_range=1.0)
        net.send(Message(0, 0, "note-to-self"))
        assert net.deliver_round()[0]

    def test_broadcast_preserves_falsy_payloads(self):
        net = MessageNetwork(np.array([[0, 0], [0.1, 0]], dtype=float), radio_range=1.0)
        for payload in (0, "", False, []):
            net.broadcast(0, [1], "falsy", payload)
            [message] = net.deliver_round()[1]
            assert message.payload == payload
            assert message.payload is not None
        net.broadcast(0, [1], "default")
        [message] = net.deliver_round()[1]
        assert message.payload == {}

    def test_broadcast_default_payload_not_shared_between_recipients(self):
        # Each recipient must get its own dict: a receiver mutating its
        # payload must not leak the mutation into the other inboxes.
        pts = np.array([[0, 0], [0.1, 0], [0.2, 0]], dtype=float)
        net = MessageNetwork(pts, radio_range=1.0)
        net.broadcast(0, [1, 2], "default")
        inboxes = net.deliver_round()
        [first], [second] = inboxes[1], inboxes[2]
        first.payload["seen"] = True
        assert second.payload == {}

    def test_run_phase_executes_steps(self):
        pts = np.array([[0, 0], [0.5, 0]], dtype=float)
        net = MessageNetwork(pts, radio_range=1.0)
        seen = []

        def step(node, inbox, network):
            seen.append((network.stats.rounds, node, len(inbox)))
            if network.stats.rounds == 1 and node == 0:
                network.send(Message(0, 1, "ping"))

        net.run_phase(step, rounds=2)
        assert (1, 0, 0) in seen
        # In round 2 node 1 received the ping sent in round 1.
        assert (2, 1, 1) in seen


class TestNeighbourTableCache:
    def setup_method(self):
        from repro.distributed.network import clear_neighbour_cache

        clear_neighbour_cache()

    def test_same_array_and_radius_share_the_table(self, rng):
        pts = rng.uniform(0, 4, size=(30, 2))
        a = MessageNetwork(pts, radio_range=1.0)
        b = MessageNetwork(pts, radio_range=1.0)
        assert a._neighbours is b._neighbours

    def test_repeated_distributed_build_hits_the_cache(self, rng):
        from unittest import mock

        from repro.core.tiles_udg import UDGTileSpec
        from repro.distributed import network as network_module
        from repro.distributed.construct import distributed_build
        from repro.geometry.primitives import Rect

        spec = UDGTileSpec.default()
        window = Rect(0, 0, 2 * spec.tile_side, 2 * spec.tile_side)
        pts = window.sample_uniform(120, rng)
        with mock.patch.object(
            network_module, "build_index", wraps=network_module.build_index
        ) as spy:
            distributed_build(pts, spec, window)
            assert spy.call_count == 1
            distributed_build(pts, spec, window)
            assert spy.call_count == 1  # second build reused the cached table

    def test_different_radius_or_backend_is_a_separate_entry(self, rng):
        pts = rng.uniform(0, 4, size=(20, 2))
        a = MessageNetwork(pts, radio_range=1.0)
        b = MessageNetwork(pts, radio_range=2.0)
        assert a._neighbours is not b._neighbours
        # Each entry holds its own radius's table, equal to every backend's.
        for net, radius in ((a, 1.0), (b, 2.0)):
            for backend in BACKENDS:
                lists = build_index(pts, radius=radius, backend=backend).neighbour_lists(radius)
                for x, y in zip(net._neighbours, lists):
                    assert np.array_equal(x, y)

    def test_equal_but_distinct_array_misses_without_stale_answers(self, rng):
        pts = rng.uniform(0, 4, size=(20, 2))
        a = MessageNetwork(pts, radio_range=1.0)
        b = MessageNetwork(pts.copy(), radio_range=1.0)
        assert a._neighbours is not b._neighbours
        for x, y in zip(a._neighbours, b._neighbours):
            assert np.array_equal(x, y)

    def test_invalidate_after_in_place_mutation(self, rng):
        from repro.distributed.network import invalidate_neighbour_cache
        from repro.geometry.index import build_index

        pts = rng.uniform(0, 4, size=(25, 2))
        stale = MessageNetwork(pts, radio_range=1.0)._neighbours
        pts[:5] = rng.uniform(0, 4, size=(5, 2))  # in-place mutation
        invalidate_neighbour_cache(pts)
        fresh = MessageNetwork(pts, radio_range=1.0)._neighbours
        assert fresh is not stale
        expected = build_index(pts, radius=1.0).neighbour_lists(1.0)
        for got, ref in zip(fresh, expected):
            assert np.array_equal(got, ref)

    def test_use_cache_false_bypasses(self, rng):
        pts = rng.uniform(0, 4, size=(15, 2))
        a = MessageNetwork(pts, radio_range=1.0, use_cache=False)
        b = MessageNetwork(pts, radio_range=1.0, use_cache=False)
        assert a._neighbours is not b._neighbours

    def test_dead_array_entry_is_dropped(self, rng):
        from repro.distributed.network import _NEIGHBOUR_CACHE

        pts = rng.uniform(0, 4, size=(10, 2))
        MessageNetwork(pts, radio_range=1.0)
        assert len(_NEIGHBOUR_CACHE) == 1
        del pts
        import gc

        gc.collect()
        assert len(_NEIGHBOUR_CACHE) == 0
