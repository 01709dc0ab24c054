"""Full-stack byte-identity certificates: consumers under every backend.

The per-kernel equality suite proves the kernels agree in isolation; these
tests prove the *consumers* — grid index bulk queries, the repair engine's
spliced overlay, the event queue's stepping order — produce byte-identical
results whichever backend the process routes through.  This is the
``matches_rebuild()`` discipline applied at the seams the refactor touched.
"""

import numpy as np
import pytest

from repro.core.tiles_udg import UDGTileSpec
from repro.distributed import DistributedRepairEngine
from repro.dynamics.incremental import DynamicSpatialIndex
from repro.geometry.index import GridIndex, KDTreeIndex
from repro.geometry.primitives import Rect
from repro.kernels import registered_backend_names, use_backend
from repro.simulation.events import EventQueue

BACKENDS = [name for name in registered_backend_names() if name != "reference"]


def _reference(fn):
    with use_backend("reference"):
        return fn()


@pytest.mark.parametrize("backend", BACKENDS)
class TestGridIndexCertificate:
    def test_query_and_count_radius_many(self, backend):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 6, size=(400, 2))
        queries = rng.uniform(-0.5, 6.5, size=(80, 2))
        index = GridIndex(pts, cell_size=0.7)
        expected_q = _reference(lambda: index.query_radius_many(queries, 0.9))
        expected_c = _reference(lambda: index.count_radius_many(queries, 0.9))
        with use_backend(backend):
            got_q = index.query_radius_many(queries, 0.9)
            got_c = index.count_radius_many(queries, 0.9)
        assert np.array_equal(got_c, expected_c)
        for g, e in zip(got_q, expected_q):
            assert np.array_equal(g, e)

    def test_kdtree_post_filter(self, backend):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 6, size=(300, 2))
        index = KDTreeIndex(pts)
        expected = _reference(lambda: index.query_radius(np.array([3.0, 3.0]), 1.1))
        with use_backend(backend):
            got = index.query_radius(np.array([3.0, 3.0]), 1.1)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRepairCertificate:
    def test_spliced_result_identical(self, backend):
        spec = UDGTileSpec.default()
        window = Rect(0.0, 0.0, 6.0, 6.0)
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 6, size=(150, 2))

        def session():
            index = DynamicSpatialIndex(pts, radius=spec.connection_radius)
            engine = DistributedRepairEngine(index, spec, window)
            index.move(
                index.ids()[:20],
                index.positions()[:20] + rng2.normal(0, 0.3, size=(20, 2)),
            )
            index.insert(rng2.uniform(0, 6, size=(5, 2)))
            index.delete(index.ids()[40:50])
            engine.update()
            return engine.result()

        rng2 = np.random.default_rng(99)
        expected = _reference(session)
        rng2 = np.random.default_rng(99)
        with use_backend(backend):
            got = session()
        assert got.good_tiles == expected.good_tiles
        assert got.representatives == expected.representatives
        assert np.array_equal(got.edges, expected.edges)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEventQueueCertificate:
    def test_run_order_identical(self, backend):
        def session():
            queue = EventQueue()
            queue.schedule_at_many(
                np.repeat(np.arange(1.0, 11.0), 3), "tick"
            )
            order = []

            def handler(event, q):
                order.append((event.time, event.sequence, event.kind))
                # Mid-run scheduling exercises the side-heap merge.
                if event.sequence % 7 == 0:
                    q.schedule(0.25, "echo")

            queue.run(handler, until=9.0)
            order.extend((e.time, e.sequence, e.kind) for e in queue.drain())
            return order

        expected = _reference(session)
        with use_backend(backend):
            got = session()
        assert got == expected
