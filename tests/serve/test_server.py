"""ServeSession + stdio transport: replies, backpressure, determinism."""

from __future__ import annotations

import io
import json
import warnings

import pytest

from repro.serve.clock import ManualClock
from repro.serve.server import ServeSession, run_stdio
from repro.serve.world import LiveWorld, WorldConfig


@pytest.fixture
def session(rng):
    positions = rng.uniform(0.0, 15.0, size=(60, 2))
    return ServeSession(LiveWorld(positions, WorldConfig()), clock=ManualClock())


def _run(session, lines):
    out = io.StringIO()
    run_stdio(session, lines, out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestHandleRequest:
    def test_update_reply_is_deferred_to_the_tick(self, session):
        result = session.handle_line('{"op": "move", "node": 0, "position": [1, 1]}')
        assert result.immediate is None
        assert result.event is not None and result.event.seq == 1
        replies = session.flush()
        assert len(replies) == 1
        payload = json.loads(replies[0][1])
        assert payload == {"ok": True, "seq": 1, "applied_seq": 1}

    def test_insert_reply_announces_allocated_id(self, session):
        session.handle_line('{"op": "insert", "position": [2, 2], "id": "x"}')
        ((_, reply),) = session.flush()
        assert json.loads(reply)["node"] == 60

    def test_coverage_radius_far_above_udg_radius_answers_promptly(self, session):
        # The sensing radius comes from the client unchecked; one far above
        # the UDG radius must still be a single bounded query, not a scan
        # whose cost grows with radius / cell size.
        line = '{"op": "query", "kind": "coverage", "events": [[1, 1]], "radius": 1e300}'
        payload = json.loads(session.handle_line(line).immediate)
        assert payload == {"ok": True, "coverage": 1.0, "applied_seq": 0}

    @pytest.mark.parametrize("radius", ["Infinity", "-Infinity", "0"])
    def test_coverage_bad_radius_is_an_error_reply(self, session, radius):
        line = '{"op": "query", "kind": "coverage", "events": [[1, 1]], "radius": %s}' % radius
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            payload = json.loads(session.handle_line(line).immediate)
        assert payload["ok"] is False
        assert payload["error"].startswith("bad query")

    def test_backpressure_reply_carries_retry_after(self, rng):
        positions = rng.uniform(0.0, 15.0, size=(10, 2))
        session = ServeSession(
            LiveWorld(positions, WorldConfig()), high_water=1, tick_interval=0.2
        )
        assert session.handle_line('{"op": "insert", "position": [1, 1]}').immediate is None
        result = session.handle_line('{"op": "insert", "position": [2, 2]}')
        payload = json.loads(result.immediate)
        assert payload["ok"] is False
        assert payload["error"] == "overloaded"
        assert payload["retry_after"] == pytest.approx(0.2)
        assert payload["pending"] == 1
        assert session.batcher.rejected_overload == 1

    def test_backpressure_refusals_are_visible_in_stats(self, rng):
        """An operator reading ``stats`` must see refusals, not just the
        refused clients: rejected count plus the last advertised backoff."""
        positions = rng.uniform(0.0, 15.0, size=(10, 2))
        session = ServeSession(
            LiveWorld(positions, WorldConfig()), high_water=1, tick_interval=0.2
        )
        session.handle_line('{"op": "insert", "position": [1, 1]}')
        session.handle_line('{"op": "insert", "position": [2, 2]}')  # refused
        session.handle_line('{"op": "insert", "position": [3, 3]}')  # refused
        payload = json.loads(session.handle_line('{"op": "stats"}').immediate)
        assert payload["latency"]["events_rejected"] == 2
        assert payload["latency"]["last_retry_after"] == pytest.approx(0.2)

    def test_stats_report_no_rejections_by_default(self, session):
        payload = json.loads(session.handle_line('{"op": "stats"}').immediate)
        assert payload["latency"]["events_rejected"] == 0
        assert payload["latency"]["last_retry_after"] is None

    def test_resume_reports_applied_seq_without_flushing(self, session):
        """The reconnect handshake: a client that lost replies asks where the
        daemon got to.  It must NOT force a flush — pending events stay
        pending until the next tick."""
        session.handle_line('{"op": "move", "node": 0, "position": [1, 1]}')
        payload = json.loads(session.handle_line('{"op": "resume"}').immediate)
        assert payload["ok"] is True
        assert payload["applied_seq"] == 0  # nothing flushed yet
        assert payload["next_seq"] == 2
        assert payload["pending"] == 1
        assert len(session.batcher) == 1  # resume did not drain the batch
        session.flush()
        payload = json.loads(session.handle_line('{"op": "resume"}').immediate)
        assert payload["applied_seq"] == 1 and payload["pending"] == 0

    def test_parse_error_is_a_reply_not_an_exception(self, session):
        payload = json.loads(session.handle_line("garbage").immediate)
        assert payload["ok"] is False and "JSON" in payload["error"]

    def test_stats_include_latency_report(self, session):
        payload = json.loads(session.handle_line('{"op": "stats"}').immediate)
        assert payload["n_alive"] == 60
        assert payload["latency"]["events_applied"] == 0

    def test_snapshot_without_store_is_an_error(self, session):
        payload = json.loads(session.handle_line('{"op": "snapshot"}').immediate)
        assert payload["ok"] is False

    def test_snapshot_with_store(self, rng, tmp_path):
        positions = rng.uniform(0.0, 15.0, size=(20, 2))
        session = ServeSession(
            LiveWorld(positions, WorldConfig()), snapshot_store=tmp_path / "snaps"
        )
        payload = json.loads(session.handle_line('{"op": "snapshot"}').immediate)
        assert payload["ok"] is True
        assert payload["snapshot_seq"] == 0
        assert payload["digest"] == session.world.digest()

    def test_shutdown_stops_session(self, session):
        result = session.handle_line('{"op": "shutdown"}')
        assert result.shutdown and not session.running


class TestStdio:
    LINES = [
        '{"op": "ping", "id": 1}',
        '{"op": "move", "node": 0, "position": [1.5, 2.5]}',
        '{"op": "insert", "position": [3.5, 4.5]}',
        '{"op": "tick"}',
        '{"op": "query", "kind": "neighbours", "node": 0, "id": 2}',
        '{"op": "query", "kind": "digest", "id": 3}',
        '{"op": "stats", "id": 4}',
    ]

    def test_reads_flush_pending_events_first(self, session):
        replies = _run(
            session,
            [
                '{"op": "move", "node": 0, "position": [9.0, 9.0]}',
                '{"op": "query", "kind": "neighbours", "node": 0, "id": "q"}',
            ],
        )
        # The move's deferred reply lands before the query answer.
        assert replies[0]["seq"] == 1
        assert replies[1]["id"] == "q"

    def test_eof_flushes_tail_events(self, session):
        replies = _run(session, ['{"op": "insert", "position": [1, 1]}'])
        assert replies[-1]["node"] == 60

    def test_blank_lines_ignored(self, session):
        assert _run(session, ["", "   ", '{"op": "ping"}']) == [
            {"ok": True, "pong": True, "applied_seq": 0, "n_alive": 60}
        ]

    def test_shutdown_stops_reading(self, session):
        replies = _run(session, ['{"op": "shutdown"}', '{"op": "ping"}'])
        assert len(replies) == 1 and replies[0]["stopping"]

    def test_identical_traces_yield_byte_identical_replies(self, rng):
        positions = rng.uniform(0.0, 15.0, size=(60, 2))

        def run_once() -> str:
            session = ServeSession(
                LiveWorld(positions.copy(), WorldConfig()), clock=ManualClock()
            )
            out = io.StringIO()
            run_stdio(session, self.LINES, out)
            return out.getvalue()

        assert run_once() == run_once()


def test_tcp_daemon_round_trip(rng):
    """End-to-end asyncio TCP: deferred tick replies, queries, shutdown."""
    import asyncio

    from repro.serve.server import ServeDaemon

    positions = rng.uniform(0.0, 15.0, size=(40, 2))
    session = ServeSession(LiveWorld(positions, WorldConfig()), tick_interval=0.01)
    daemon = ServeDaemon(session, port=0)

    async def scenario():
        await daemon.start()
        server_task = asyncio.ensure_future(daemon.serve_forever())
        reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
        writer.write(b'{"op": "move", "node": 0, "position": [1.0, 1.0]}\n')
        writer.write(b'{"op": "insert", "position": [2.0, 2.0]}\n')
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(2)]
        writer.write(b'{"op": "query", "kind": "digest", "id": "d"}\n')
        await writer.drain()
        digest_reply = json.loads(await reader.readline())
        writer.write(b'{"op": "shutdown"}\n')
        await writer.drain()
        stop_reply = json.loads(await reader.readline())
        writer.close()
        await asyncio.wait_for(server_task, timeout=5)
        return replies, digest_reply, stop_reply

    replies, digest_reply, stop_reply = asyncio.run(scenario())
    assert {r["seq"] for r in replies} == {1, 2}
    assert next(r for r in replies if r["seq"] == 2)["node"] == 40
    assert digest_reply["id"] == "d" and len(digest_reply["digest"]) == 64
    assert stop_reply["stopping"] is True
    assert session.world.applied_seq == 2
