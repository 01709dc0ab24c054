"""Span tracer for the traced run: per-layer self time and work counters.

Spans open and close around calls into each layer's public entry points: the
bound methods of the objects the benchmark owns (``world.index``,
``world.tracker``, ``world.engine``) and module functions the layers look up
at call time (``repro.serve.server.coalesce_events``,
``repro.core.udg_sens.build_udg``, ...).  The program itself is not edited.
A span's self time is its duration minus the time its child spans cover, so
the self times of all spans, the root included, add up to the root's wall
time.  Kernel time comes from :mod:`repro.kernels.profile`'s counters and is
charged as a child of whichever span is open when the kernel runs.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import ExitStack, contextmanager
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.kernels.profile import KernelProfiler, profiled

__all__ = ["Tracer", "ROOT", "traced_layers", "instrument_world", "instrument_batch"]

#: The root span: its self time is the harness's own, unattributed time.
ROOT = "bench.harness"


class Tracer:
    """Nested spans with self-time accounting, plus named counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Calls of time charged from outside (the kernels).
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[List[Any]] = []  # [name, start_ns, child_ns]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def end(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def charge(self, name: str, ns: int) -> None:
        """Account ``ns`` measured elsewhere as a finished child of the open span."""
        self.self_ns[name] += ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += ns

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``on_result(result, *args, **kwargs)`` counts work.

        A call nested in a span of the same name (``neighbours_of`` calling
        ``query_radius``) adds self time but is not counted twice.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            outermost = not self._stack or self._stack[-1][0] != name
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None and outermost:
                on_result(result, *args, **kwargs)
            return result

        return traced


class _KernelCharger(KernelProfiler):
    """Kernel counters that also charge each kernel call to the open span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(clock=tracer.clock)
        self.tracer = tracer

    def record(self, kernel: str, ns: int, nbytes: int) -> None:
        super().record(kernel, ns, nbytes)
        self.tracer.charge(f"kernel.{kernel}", ns)
        self.tracer.count(f"kernel.{kernel}.bytes", nbytes)


@contextmanager
def traced_layers(tracer: Tracer) -> Iterator[ExitStack]:
    """Kernel counters on for the duration; the stack restores every patch."""
    with ExitStack() as stack:
        stack.enter_context(profiled(_KernelCharger(tracer)))
        yield stack


def _patch(stack: ExitStack, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
    """Replace ``owner.attr`` by ``wrapper(original)`` until ``stack`` closes."""
    original = getattr(owner, attr)
    own = attr in vars(owner)
    setattr(owner, attr, wrapper(original))
    if own:
        stack.callback(setattr, owner, attr, original)
    else:  # a bound method shadowed on the instance: drop the shadow
        stack.callback(delattr, owner, attr)


def instrument_world(tracer: Tracer, world: Any, stack: ExitStack) -> None:
    """Spans around the serve → dynamics → repair entry points of one world."""
    import repro.serve.server as server

    t = tracer

    def count_coalesce(batch: Any, *_: Any) -> None:
        t.count("serve.events", batch.n_events)
        t.count("serve.operations", batch.n_operations)

    def count_update_ids(_: Any, ids_or_positions: Any, *__: Any) -> None:
        t.count("index.update.ids", len(ids_or_positions))

    def count_one_center(*_: Any) -> None:
        t.count("index.query.centers")

    def count_centers(_: Any, centers: Any, *__: Any) -> None:
        t.count("index.query.centers", len(centers))

    def count_all_alive(*_: Any) -> None:
        t.count("index.query.centers", len(world.index))

    def count_tracker(diff: Any, dirty: Any = None, deleted: Any = None) -> None:
        t.count("tracker.update.calls")
        t.count("tracker.dirty_ids", len(dirty) + len(deleted))
        t.count("tracker.edge_churn", diff.churn)

    def count_repair(report: Any, *_: Any, **__: Any) -> None:
        t.count("repair.dirty_tiles", report.dirty_tiles)
        t.count("repair.changed_tiles", report.changed_tiles)
        t.count("repair.re_elected_regions", report.re_elected_regions)
        t.count("repair.respliced_pairs", report.respliced_pairs)
        t.count("repair.messages", report.messages)

    def count_route(answer: Any, *_: Any) -> None:
        t.count("world.route.calls")
        t.count("world.route.successes", bool(answer["success"]))

    def span(name: str, on_result: Optional[Callable[..., None]] = None):
        return lambda fn: t.wrap(name, fn, on_result)

    _patch(stack, server, "coalesce_events", span("serve.coalesce", count_coalesce))
    _patch(stack, world, "apply", span("serve.apply"))
    _patch(stack, world, "neighbours", span("world.neighbours"))
    _patch(stack, world, "route", span("world.route", count_route))
    _patch(stack, world, "coverage", span("world.coverage"))
    index = world.index
    for method in ("move", "delete", "insert"):
        _patch(stack, index, method, span("index.update", count_update_ids))
    for method, counter in (
        ("query_radius", count_one_center),
        ("neighbours_of", count_one_center),
        ("query_radius_many", count_centers),
        ("count_radius_many", count_centers),
        ("query_pairs", count_all_alive),
    ):
        _patch(stack, index, method, span("index.query", counter))
    _patch(stack, index, "consume_dirty", span("index.consume_dirty"))
    _patch(stack, world.tracker, "update", span("tracker.update", count_tracker))
    _patch(stack, world.engine, "update", span("repair.update", count_repair))
    _patch(stack, world.engine, "result", span("repair.result"))


def instrument_batch(tracer: Tracer, stack: ExitStack) -> None:
    """Spans around the graph / core builders the SENS builders call."""
    import repro.core.nn_sens as nn_sens
    import repro.core.udg_sens as udg_sens

    def span(name: str):
        return lambda fn: tracer.wrap(name, fn)

    _patch(stack, udg_sens, "build_udg", span("graphs.build_udg"))
    _patch(stack, nn_sens, "build_knn", span("graphs.build_knn"))
    for module in (udg_sens, nn_sens):
        _patch(stack, module, "classify_tiles", span("core.classify_tiles"))
        _patch(stack, module, "build_overlay", span("core.build_overlay"))
