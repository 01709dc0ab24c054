"""Synchronous message-passing network simulator.

The simulator models the standard synchronous-round abstraction used by the
distributed-computing literature the paper cites: in each round every node
reads the messages delivered to it in the previous round, updates its local
state and emits new messages, which are delivered at the start of the next
round.  Radio constraints are enforced at send time: a node may only message
nodes within its communication radius (one-hop neighbours), which is exactly
the paper's locality requirement P4.

The simulator is deliberately simple — no losses, no collisions — because the
paper's algorithm is analysed under the same assumptions; the energy model of
:mod:`repro.simulation` handles the cost side separately.  Losses *can* be
injected deliberately: a seeded :class:`~repro.faults.plan.FaultInjector`
passed at construction fires scheduled drop/duplicate/delay faults at the
``network.deliver`` point (one occurrence per delivered message), which is
how the chaos tests certify that the protocols above either tolerate the
storm (duplicates, bounded delays healed by retransmission) or fail loudly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple
import weakref

import numpy as np

from repro.distributed.messages import Message
from repro.faults.plan import DELAY, DROP, DUPLICATE, FaultInjector
from repro.geometry.index import build_index
from repro.geometry.primitives import as_points

__all__ = [
    "NetworkStats",
    "MessageNetwork",
    "invalidate_neighbour_cache",
    "clear_neighbour_cache",
]


# -- neighbour-table cache ----------------------------------------------------
#: (id(points), radius) → (weakref to the points array, table).  The
#: table is the expensive precompute of repeated ``distributed_build`` calls
#: on the same deployment; keying on array *identity* (not content) keeps the
#: lookup O(1), and the weakref both drops entries when the deployment dies
#: and guards against CPython reusing the id of a collected array.
_NEIGHBOUR_CACHE: Dict[Tuple[int, float], Tuple[weakref.ref, List[np.ndarray]]] = {}


def _neighbour_table(points: np.ndarray, radius: float) -> List[np.ndarray]:
    """One-hop neighbour lists via one bulk query on a grid index.

    The grid is fixed by measurement: its ``neighbour_lists`` beat the k-d
    tree's by 1.2–2.5× on Poisson inputs at λ = 1.44, 3 and 20 (S01 tracks
    the same comparison, and that the two return identical lists).
    """
    return build_index(points, radius=radius, backend="grid").neighbour_lists(radius)


def _cached_neighbour_table(points: np.ndarray, radius: float) -> List[np.ndarray]:
    key = (id(points), float(radius))
    entry = _NEIGHBOUR_CACHE.get(key)
    if entry is not None and entry[0]() is points:
        return entry[1]
    table = _neighbour_table(points, radius)
    try:
        ref = weakref.ref(points, lambda _: _NEIGHBOUR_CACHE.pop(key, None))
    except TypeError:  # non-weakrefable array subclass: just don't cache
        return table
    _NEIGHBOUR_CACHE[key] = (ref, table)
    return table


def invalidate_neighbour_cache(points: np.ndarray) -> None:
    """Drop cached neighbour tables of one positions array.

    Required whenever an array that was handed to a :class:`MessageNetwork`
    is mutated *in place* (the dynamics layer does this on node moves);
    replacing the array with a fresh object needs no invalidation because
    the cache keys on identity.
    """
    stale = [key for key, (ref, _) in _NEIGHBOUR_CACHE.items() if ref() is points]
    for key in stale:
        _NEIGHBOUR_CACHE.pop(key, None)


def clear_neighbour_cache() -> None:
    """Drop every cached neighbour table (test isolation hook)."""
    _NEIGHBOUR_CACHE.clear()


@dataclass
class NetworkStats:
    """Accounting of a distributed execution.

    Attributes
    ----------
    rounds: number of synchronous rounds executed.
    messages_sent: total messages sent (a broadcast to m neighbours counts m).
    messages_by_kind: per-kind message counts.
    dropped/duplicated/delayed: injected-fault accounting (all zero on a
    fault-free network, so fault-free stats stay byte-identical).
    """

    rounds: int = 0
    messages_sent: int = 0
    messages_by_kind: Dict[str, int] = field(default_factory=dict)
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0

    def record(self, message: Message) -> None:
        self.messages_sent += 1
        self.messages_by_kind[message.kind] = self.messages_by_kind.get(message.kind, 0) + 1


class MessageNetwork:
    """A set of positioned nodes exchanging messages in synchronous rounds.

    Parameters
    ----------
    points:
        ``(n, 2)`` node positions; node ids are the row indices.
    radio_range:
        Maximum distance over which a message can be sent.  ``None`` disables
        the check (useful for unit tests of upper layers).
    use_cache:
        Reuse the neighbour table across networks built over the *same*
        positions array object and radio range (repeated
        ``distributed_build`` calls on one deployment).  The cache keys on
        array identity; callers that mutate a positions array in place must
        call :func:`invalidate_neighbour_cache` (the dynamics layer does).

    When a radio range is given, the full neighbour table is computed once at
    construction with one bulk ``neighbour_lists`` query; every subsequent
    locality check in :meth:`send` is then an O(log degree) membership probe
    on the sender's sorted neighbour array instead of a per-message distance
    computation (and no second copy of the table is materialised).  The table
    uses the backends' exact closed ball (true distance ``<= r``, see
    :func:`repro.geometry.index.within_ball`), so "can message" and "is a
    neighbour" agree on every boundary pair.
    """

    def __init__(
        self,
        points: np.ndarray,
        radio_range: float | None = None,
        use_cache: bool = True,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.points = as_points(points)
        self.radio_range = radio_range
        self.stats = NetworkStats()
        self.injector = injector
        self._outbox: List[Message] = []
        self._delayed: List[Message] = []
        self._inboxes: Dict[int, List[Message]] = defaultdict(list)
        self._neighbours: Optional[List[np.ndarray]] = None
        if radio_range is not None and len(self.points):
            if use_cache:
                self._neighbours = _cached_neighbour_table(self.points, radio_range)
            else:
                self._neighbours = _neighbour_table(self.points, radio_range)

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    # -- sending ---------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Queue a message for delivery at the next round.

        Raises
        ------
        ValueError
            If either endpoint does not exist or the recipient is out of radio
            range (a locality violation — the construction algorithm must
            never do this).
        """
        if message.sender >= self.n_nodes or message.recipient >= self.n_nodes:
            raise ValueError("message endpoints must be existing node ids")
        if (
            self._neighbours is not None
            and message.recipient != message.sender
            and not self._is_neighbour(message.sender, message.recipient)
        ):
            d = float(np.linalg.norm(self.points[message.sender] - self.points[message.recipient]))
            raise ValueError(
                f"locality violation: node {message.sender} tried to message node "
                f"{message.recipient} at distance {d:.6g} > radio range {self.radio_range:.6g}"
            )
        self._outbox.append(message)
        self.stats.record(message)

    def _is_neighbour(self, sender: int, recipient: int) -> bool:
        """Membership probe on the sender's sorted neighbour array."""
        neighbours = self._neighbours[sender]
        pos = int(np.searchsorted(neighbours, recipient))
        return pos < len(neighbours) and neighbours[pos] == recipient

    def broadcast(self, sender: int, recipients: Iterable[int], kind: str, payload=None) -> None:
        """Send the same message to several recipients (counts one message each).

        The default payload is a *fresh* dict per recipient, so a receiver
        mutating its payload cannot leak the mutation into the other
        recipients' inboxes.  An explicit payload (falsy ones included) is
        shared by reference, as for :meth:`send`.
        """
        for recipient in recipients:
            if recipient == sender:
                continue
            self.send(Message(sender, int(recipient), kind, {} if payload is None else payload))

    def neighbours_of(self, node: int) -> np.ndarray:
        """One-hop neighbours of ``node`` under the radio range (empty if unlimited)."""
        if self._neighbours is None:
            return np.zeros(0, dtype=np.int64)
        return self._neighbours[int(node)].copy()

    # -- round execution ---------------------------------------------------------
    def deliver_round(self) -> Dict[int, List[Message]]:
        """Deliver all queued messages and advance the round counter.

        Returns the per-recipient inboxes for the round that just started.
        With a fault injector attached, each message to deliver is one
        occurrence of the ``network.deliver`` point: a *drop* fault loses
        the message, a *duplicate* delivers it twice, a *delay* holds it
        back for the start of the next round (messages delayed in an
        earlier round deliver first, preserving per-sender order).
        """
        inboxes: Dict[int, List[Message]] = defaultdict(list)
        queue = self._delayed + self._outbox
        self._delayed = []
        self._outbox = []
        for message in queue:
            fault = self.injector.fire("network.deliver") if self.injector else None
            if fault is not None:
                if fault.kind == DROP:
                    self.stats.dropped += 1
                    continue
                if fault.kind == DELAY:
                    self.stats.delayed += 1
                    self._delayed.append(message)
                    continue
                if fault.kind == DUPLICATE:
                    self.stats.duplicated += 1
                    inboxes[message.recipient].append(message)
            inboxes[message.recipient].append(message)
        self.stats.rounds += 1
        self._inboxes = inboxes
        return inboxes

    def run_phase(
        self,
        step: Callable[[int, List[Message], "MessageNetwork"], None],
        nodes: Sequence[int] | None = None,
        rounds: int = 1,
    ) -> None:
        """Run ``rounds`` synchronous rounds of a phase.

        ``step(node, inbox, network)`` is called once per node per round with
        the messages delivered to that node at the start of the round; any
        messages it sends are delivered at the next round.
        """
        node_ids = list(range(self.n_nodes)) if nodes is None else list(nodes)
        for _ in range(rounds):
            inboxes = self.deliver_round()
            for node in node_ids:
                step(int(node), inboxes.get(int(node), []), self)
