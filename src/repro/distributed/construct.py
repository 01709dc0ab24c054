"""The Figure-7 distributed construction algorithm.

The paper's algorithm has four steps, each realised here with explicit
messages over a :class:`~repro.distributed.network.MessageNetwork`:

1. **Tile identification** — every node derives its tile index from its own
   coordinates and the tile side programmed into it (pure local computation,
   no messages).
2. **Region identification** — every node evaluates the tile-spec region
   predicates on its own (local) coordinates.
3. **Leader election** — the nodes of each non-empty region elect a leader
   (one broadcast round per region,
   :func:`~repro.distributed.leader_election.elect_leader_distributed`); the
   C0 leader becomes the tile representative, other leaders become relays.
4. **Connection** — the representative handshakes with its relays
   (``connect-request`` / ``connect-ack``), decides whether its tile is good
   (all required relays answered and, for NN-SENS, the tile occupancy cap
   holds), announces goodness to its relays, and the outward relays then
   handshake with the facing relays of the neighbouring tile.  Overlay edges
   are created exactly for handshakes in which *both* sides belong to good
   tiles, which reproduces the centralized overlay edge-for-edge (verified by
   :meth:`DistributedBuildResult.matches_overlay` in the integration tests).

One deliberate simplification is documented here rather than hidden: the
NN-SENS occupancy count (``≤ k/2`` points in the tile) is computed from the
tile membership directly instead of via an in-network census protocol.  The
paper itself does not specify a census mechanism; counting messages for it
would be guesswork, and it does not affect which overlay is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.goodness import TileClassification, anchor_distance_sq
from repro.core.overlay import OverlayGraph
from repro.core.tiles_base import TileSpec
from repro.core.tiling import TileIndex, Tiling
from repro.distributed.messages import Message
from repro.distributed.network import MessageNetwork, NetworkStats
from repro.geometry.primitives import Rect, as_points
from repro.kernels.layout import sort_groups

__all__ = [
    "DistributedBuildResult",
    "distributed_build",
    "TileElection",
    "elect_tiles",
    "tile_goodness",
    "cross_tile_edges",
]


# -- pure decision helpers ------------------------------------------------------
# The repair engine (repro.distributed.repair) and the shard workers
# (repro.shard.worker) re-run exactly these decisions in only the tiles they
# own or a diff touched; sharing one implementation is what makes "repair
# equals rebuild" and shard-count invariance structural properties rather
# than coincidences.


@dataclass(frozen=True)
class TileElection:
    """Region membership and elected leaders of one tile.

    ``region_members`` maps every non-empty region to its member node ids
    (ascending); ``leaders`` maps the same regions to their elected node;
    ``n_members`` counts the tile's nodes, in a region or not.
    """

    region_members: Dict[str, np.ndarray]
    leaders: Dict[str, int]
    n_members: int


def elect_tiles(
    points: np.ndarray,
    ids: np.ndarray,
    tiles: np.ndarray,
    tiling: Tiling,
    spec: TileSpec,
) -> Dict[TileIndex, TileElection]:
    """Classify and elect every tile of a batch at once.

    ``points`` is any array indexable by the node ids in ``ids`` (the global
    coordinate array, the id-indexed buffer of a dynamic index, a shard's
    shared block); ``tiles`` holds each node's in-grid ``(col, row)`` tile.
    One :meth:`~repro.core.tiles_base.TileSpec.classify_points` call
    classifies every node in its own tile's frame, and one lexsort on
    ``(tile, region, squared distance to the region anchor, node id)``
    elects every region — the key of
    :func:`repro.core.goodness.select_region_leader`, so the batched
    election picks exactly the nodes the centralized rule and the
    message-passing election converge to, exact ties included.  Returns one
    :class:`TileElection` per tile with members, in ascending tile order.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    tiles = np.asarray(tiles, dtype=np.int64).reshape(-1, 2)
    if ids.size == 0:
        return {}
    n_rows = tiling.n_rows
    tile_key = tiles[:, 0] * n_rows + tiles[:, 1]
    order = np.lexsort((ids, tile_key))
    ids, tiles, tile_key = ids[order], tiles[order], tile_key[order]
    pts = points[ids]
    # Same expression as Tiling.tile_center, so every local offset (hence
    # every mask bit and anchor) is bit-identical to the per-tile frame.
    centers = np.empty((len(ids), 2), dtype=np.float64)
    centers[:, 0] = tiling.origin[0] + (tiles[:, 0] + 0.5) * tiling.tile_side
    centers[:, 1] = tiling.origin[1] + (tiles[:, 1] + 0.5) * tiling.tile_side
    masks = spec.classify_points(pts - centers)
    names = list(masks)
    anchors = np.array([spec.region_anchor(name) for name in names], dtype=np.float64)

    # One row per (node, region) membership, node-major: a stable grouping
    # by (tile, region) keeps each group's ids ascending.
    rows, region = np.nonzero(np.column_stack([masks[name] for name in names]))
    members = ids[rows]
    group = tile_key[rows] * len(names) + region
    d2 = anchor_distance_sq(pts[rows], centers[rows] + anchors[region])
    group_order, group_keys, starts, counts = sort_groups(group)
    by_group = members[group_order]
    # Groups occupy the same slices in both orders; each one's first
    # (d², id) entry is its leader.
    elected = members[np.lexsort((members, d2, group))][starts]

    _, tile_keys, _, n_members = sort_groups(tile_key)
    out: Dict[TileIndex, TileElection] = {
        divmod(key, n_rows): TileElection({}, {}, count)
        for key, count in zip(tile_keys.tolist(), n_members.tolist())
    }
    for key, start, count, leader in zip(
        group_keys.tolist(), starts.tolist(), counts.tolist(), elected.tolist()
    ):
        tile_of_group, r = divmod(key, len(names))
        election = out[divmod(tile_of_group, n_rows)]
        election.region_members[names[r]] = by_group[start : start + count]
        election.leaders[names[r]] = leader
    return out


def tile_goodness(
    spec: TileSpec, tile_leaders: Dict[str, int], n_members: int, cap: int | None
) -> Tuple[bool, Dict[str, int]]:
    """Goodness decision of one tile: ``(is_good, present relay leaders)``.

    A tile is good when its representative region elected a leader, every
    relay region is occupied and the occupancy cap (NN-SENS) holds.  The
    present-relay mapping is returned even for bad tiles — the handshake
    phase messages them before the decision is known.
    """
    rep_region = spec.representative_region
    if rep_region not in tile_leaders:
        return False, {}
    relay_regions = tuple(name for name in spec.region_names if name != rep_region)
    present = {name: tile_leaders[name] for name in relay_regions if name in tile_leaders}
    over_cap = cap is not None and n_members > cap
    good = len(present) == len(relay_regions) and not over_cap
    return good, present


def cross_tile_edges(
    spec: TileSpec,
    direction: str,
    rep_a: int,
    relays_a: Dict[str, int],
    rep_b: int,
    relays_b: Dict[str, int],
) -> Tuple[List[Tuple[int, int]], Tuple[int, int]]:
    """Overlay edges of one good tile pair, plus the border-handshake endpoints.

    ``a`` is the tile owning ``direction`` (right/top), ``b`` its neighbour.
    Returns the ``(min, max)`` edge tuples along the relay path
    ``rep_a – chain(a) – chain(b) reversed – rep_b`` (consecutive duplicates
    skipped) and the two outermost relays whose border handshake precedes the
    splice.
    """
    facing = spec.facing_direction(direction)
    own_chain = [rep_a] + [relays_a[region] for region in spec.relay_chain(direction)]
    other_chain = [relays_b[region] for region in reversed(spec.relay_chain(facing))] + [rep_b]
    path = own_chain + other_chain
    edges = [
        (min(u, v), max(u, v)) for u, v in zip(path[:-1], path[1:]) if u != v
    ]
    return edges, (own_chain[-1], other_chain[0])


@dataclass
class DistributedBuildResult:
    """Outcome of the distributed construction.

    Attributes
    ----------
    edges:
        ``(m, 2)`` array of overlay edges as *global point index* pairs.
    representatives:
        Mapping good tile → global index of its elected representative.
    relays:
        Mapping good tile → {region name → global index of the elected relay}.
    good_tiles:
        Tiles whose representatives declared themselves good.
    stats:
        Message/round accounting of the whole run.
    """

    edges: np.ndarray
    representatives: Dict[TileIndex, int]
    relays: Dict[TileIndex, Dict[str, int]]
    good_tiles: List[TileIndex]
    stats: NetworkStats

    def edge_set(self) -> set[Tuple[int, int]]:
        return {(min(int(a), int(b)), max(int(a), int(b))) for a, b in self.edges}

    def matches_overlay(self, overlay: OverlayGraph) -> bool:
        """Whether the produced edges equal the centralized overlay's edges."""
        central = {
            (
                min(int(overlay.original_indices[a]), int(overlay.original_indices[b])),
                max(int(overlay.original_indices[a]), int(overlay.original_indices[b])),
            )
            for a, b in overlay.graph.edges
        }
        return self.edge_set() == central

    def matches_classification(self, classification: TileClassification) -> bool:
        """Whether good tiles and elected points agree with the centralized rule."""
        central_good = set(classification.good_tiles())
        if central_good != set(self.good_tiles):
            return False
        for tile in central_good:
            record = classification.records[tile]
            if self.representatives.get(tile) != record.representative:
                return False
            if {k: v for k, v in self.relays.get(tile, {}).items()} != dict(record.relays):
                return False
        return True


def distributed_build(
    points: np.ndarray,
    spec: TileSpec,
    window: Rect,
    k: int | None = None,
    radio_range: float | None = None,
) -> DistributedBuildResult:
    """Run the Figure-7 algorithm on a deployment and return the built overlay.

    Parameters
    ----------
    points:
        Deployment coordinates (node ids are row indices).
    spec:
        Tile specification (UDG or NN).
    window:
        Deployment window (defines the tiling, as in the centralized builder).
    k:
        NN parameter for the occupancy cap (ignored by UDG specs).
    radio_range:
        Enforced maximum message distance.  Defaults to the UDG connection
        radius for UDG specs and to unlimited for NN specs (NN links are not
        distance-bounded); pass an explicit value to tighten the locality
        check.
    """
    pts = as_points(points)
    tiling = Tiling(window=window, tile_side=spec.tile_side)
    if radio_range is None:
        radio_range = getattr(spec, "connection_radius", None)
    network = MessageNetwork(pts, radio_range=radio_range)

    # -- Steps 1 & 2: local tile + region identification --------------------------
    tiles = tiling.tile_of_points(pts)
    in_grid = np.nonzero(tiling.in_grid_mask(tiles))[0]
    elections = elect_tiles(pts, in_grid, tiles[in_grid], tiling, spec)
    # Tiles in discovery order (by lowest node id): the order the protocol's
    # messages and good_tiles follow.
    _, first = np.unique(
        tiles[in_grid, 0] * tiling.n_rows + tiles[in_grid, 1], return_index=True
    )
    discovery = tiles[in_grid[np.sort(first)]].tolist()
    elections = {(col, row): elections[(col, row)] for col, row in discovery}

    # -- Step 3: leader election per non-empty region -------------------------------
    # All regions elect in parallel: every candidate broadcasts its key to the
    # other members of its region in one round, then every candidate locally
    # picks the minimum key it heard (plus its own).  The broadcasts of all
    # regions share the same synchronous round, so the whole step costs one
    # round regardless of the number of tiles — this is what property P4 is
    # about.  (elect_leader_distributed implements the same protocol for a
    # single region and is unit-tested separately.)
    for tile, election in elections.items():
        for name, members in election.region_members.items():
            if len(members) < 2:
                continue
            member_list = members.tolist()
            for m in member_list:
                network.broadcast(
                    m, member_list, "candidate", {"tile": tile, "region": name, "node": m}
                )
    network.deliver_round()
    leaders = {tile: election.leaders for tile, election in elections.items()}

    # -- Step 4a: representative ↔ relay handshake, goodness decision ----------------
    rep_region = spec.representative_region
    cap = spec.max_points_per_tile(k)

    representatives: Dict[TileIndex, int] = {}
    relays: Dict[TileIndex, Dict[str, int]] = {}
    good_tiles: List[TileIndex] = []
    edges: set[Tuple[int, int]] = set()

    # Every tile runs its intra-tile handshake in parallel (one request round,
    # one ack round), so the whole phase costs two synchronous rounds.
    for tile, tile_leaders in leaders.items():
        if rep_region not in tile_leaders:
            continue
        rep = tile_leaders[rep_region]
        _, present_relays = tile_goodness(spec, tile_leaders, elections[tile].n_members, cap)
        for relay in present_relays.values():
            if relay != rep:
                network.send(Message(rep, relay, "connect-request", {"tile": tile}))
    network.deliver_round()
    for tile, tile_leaders in leaders.items():
        if rep_region not in tile_leaders:
            continue
        rep = tile_leaders[rep_region]
        _, present_relays = tile_goodness(spec, tile_leaders, elections[tile].n_members, cap)
        for relay in present_relays.values():
            if relay != rep:
                network.send(Message(relay, rep, "connect-ack", {"tile": tile}))
    network.deliver_round()

    for tile, tile_leaders in leaders.items():
        is_good, present_relays = tile_goodness(
            spec, tile_leaders, elections[tile].n_members, cap
        )
        if not is_good:
            continue
        rep = tile_leaders[rep_region]
        good_tiles.append(tile)
        representatives[tile] = rep
        relays[tile] = dict(present_relays)
        # Goodness announcement to the relays (1 message each).
        for relay in present_relays.values():
            if relay != rep:
                network.send(Message(rep, relay, "tile-good", {"tile": tile}))
    network.deliver_round()

    # -- Step 4b: cross-tile handshakes between good neighbours ----------------------
    good_set = set(good_tiles)
    for tile in good_tiles:
        neighbours = tiling.neighbours(tile)
        for direction in ("right", "top"):
            neighbour = neighbours.get(direction)
            if neighbour is None or neighbour not in good_set:
                continue
            pair_edges, (a, b) = cross_tile_edges(
                spec,
                direction,
                representatives[tile],
                relays[tile],
                representatives[neighbour],
                relays[neighbour],
            )
            # Border handshake between the two outermost relays (2 messages).
            if a != b:
                network.send(Message(a, b, "border-request", {"tile": tile, "direction": direction}))
                network.send(Message(b, a, "border-ack", {"tile": neighbour}))
            edges.update(pair_edges)
    network.deliver_round()

    edge_array = (
        np.asarray(sorted(edges), dtype=np.int64) if edges else np.zeros((0, 2), dtype=np.int64)
    )
    return DistributedBuildResult(
        edges=edge_array,
        representatives=representatives,
        relays=relays,
        good_tiles=good_tiles,
        stats=network.stats,
    )
