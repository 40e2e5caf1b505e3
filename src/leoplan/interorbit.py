"""Inter-orbit routing: rate-reciprocal weights, shortest paths built per
destination on request, and iterative selection of edge-disjoint paths
between two orbits.

Paths deleted from the graph after selection cannot be reused, so the
returned set is pairwise edge-disjoint and the payload can be striped
across the paths in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constellation import LinkKind, SatelliteId, TopologySnapshot
from .graph import Digraph, dijkstra, node_key, path_to, pivot_columns, replay_column

ISL_KINDS = (LinkKind.INTRA_ORBIT_ISL, LinkKind.INTER_ORBIT_ISL, LinkKind.CROSS_SEAM_ISL)


@dataclass(frozen=True)
class EdgeAttr:
    weight: float
    capacity_bps: float
    propagation_s: float


class WeightedDigraph(Digraph):
    """Directed graph with weight = 1/capacity per edge."""

    def add_edge(self, u, v, capacity_bps: float, propagation_s: float = 0.0) -> None:
        if not math.isfinite(capacity_bps) or capacity_bps <= 0:
            raise ValueError("capacity must be positive and finite")
        self._set_edge(u, v, EdgeAttr(1.0 / capacity_bps, capacity_bps, propagation_s))

    def weight(self, u, v) -> float:
        return self.edges[(u, v)].weight


def build_weighted_graph(snapshot: TopologySnapshot, include_ground: bool = False) -> WeightedDigraph:
    """One pair of directed edges per available link, weighted by 1/rate.

    By default only ISLs enter the graph; include_ground adds SGL and ground
    dedicated links so paths may run down to stations and the cloud.
    """
    g = WeightedDigraph()
    for sat in sorted(snapshot.positions, key=node_key):
        g.add_node(sat)
    kinds = ISL_KINDS + ((LinkKind.SGL, LinkKind.GROUND_DEDICATED) if include_ground else ())
    for link in snapshot.links:
        if not link.available or link.kind not in kinds:
            continue
        a, b = link.endpoints
        g.add_edge(a, b, link.rate_bps, link.propagation_delay_s)
        g.add_edge(b, a, link.rate_bps, link.propagation_delay_s)
    return g


class ShortestPaths:
    """Shortest routes into each destination, built on first request.

    graph.pivot_columns over the 1/rate weights, nodes indexed in sorted
    order; ``column(j)`` replays destination j's column of the Floyd-Warshall
    matrix once and caches it (see leoplan.graph for why that is exact and
    for the tie-break it keeps). ``path`` follows that column's next hops.
    """

    def __init__(self, graph: WeightedDigraph):
        self.graph = graph
        self.nodes = graph.sorted_nodes()
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self._pivots = pivot_columns(graph, self.index)
        self._columns: dict = {}
        self._metrics: dict = {}

    def column(self, j: int):
        """(dist, next_hop) vectors of the routes into the node at index j:
        entry i is the i -> j distance and the index of the node after i on
        the kept path (i itself when i == j, -1 when j is unreachable)."""
        if j not in self._columns:
            self._columns[j] = replay_column(*self._pivots, j)
        return self._columns[j]

    def distance(self, u, v) -> float:
        return float(self.column(self.index[v])[0][self.index[u]])

    def path(self, u, v) -> list | None:
        i, j = self.index[u], self.index[v]
        hop = self.column(j)[1]
        if hop[i] < 0:
            return None
        hops = [i]
        while hops[-1] != j:
            hops.append(int(hop[hops[-1]]))
        return [self.nodes[h] for h in hops]

    def path_metrics(self, u, v):
        """(bottleneck_rate_bps, propagation_s) along the reconstructed path,
        or None when v is unreachable from u. Same node -> (inf, 0)."""
        path = self.path(u, v)
        if path is None:
            return None
        if len(path) == 1:
            return (float("inf"), 0.0)
        bottleneck = float("inf")
        prop = 0.0
        for a, b in zip(path, path[1:]):
            attr = self.graph.edges[(a, b)]
            bottleneck = min(bottleneck, attr.capacity_bps)
            prop += attr.propagation_s
        return (bottleneck, prop)

    def transfer_seconds(self, u, v, bits: float) -> float:
        """bits / bottleneck + propagation along the kept u->v path; 0.0 when
        u == v."""
        if u == v:
            return 0.0
        return self.transfer_at(self.index[u], self.index[v], bits)

    def transfer_at(self, i: int, j: int, bits: float) -> float:
        """transfer_seconds between the nodes at indices i and j, with the
        path's metrics cached per index pair."""
        if i == j:
            return 0.0
        key = (i, j)
        if key not in self._metrics:
            self._metrics[key] = self.path_metrics(self.nodes[i], self.nodes[j])
        m = self._metrics[key]
        if m is None:
            raise ValueError(f"no route from {self.nodes[i]} to {self.nodes[j]}: "
                             "hosts not connected in the snapshot")
        return bits / m[0] + m[1]


def all_pairs_shortest(graph: WeightedDigraph) -> ShortestPaths:
    """Floyd-Warshall routes over 1/rate weights; nodes iterated in sorted order.

    Runs the pivot pass now and finishes each destination on its first
    request. A pair's route changes only on a strictly shorter path through
    the next node in that order; see ShortestPaths for the kept tie-break
    and the next-hop reconstruction.
    """
    return ShortestPaths(graph)


@dataclass(frozen=True)
class PathSet:
    paths: tuple
    bottlenecks: tuple

    def __len__(self) -> int:
        return len(self.paths)


def select_disjoint_paths(
    graph: WeightedDigraph,
    source_orbit: int,
    dest_orbit: int,
    max_paths: int | None = None,
) -> PathSet:
    """Iteratively pick min-weight orbit-to-orbit paths, deleting used edges.

    Every satellite of source_orbit is a valid origin and every satellite of
    dest_orbit a valid destination. Selection stops when the orbits are
    disconnected or max_paths is reached.
    """
    if source_orbit == dest_orbit:
        raise ValueError("source and destination orbits must differ")
    sources = [n for n in graph.sorted_nodes()
               if isinstance(n, SatelliteId) and n.orbit_index == source_orbit]
    targets = {n for n in graph.nodes
               if isinstance(n, SatelliteId) and n.orbit_index == dest_orbit}
    adj = graph.weighted_adjacency()

    paths, bottlenecks = [], []
    while max_paths is None or len(paths) < max_paths:
        _, prev, reached = dijkstra(adj, sources, targets)
        if reached is None:
            break
        path = path_to(prev, reached)
        bottleneck = min(graph.edges[e].capacity_bps for e in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            del adj[a][b]
        paths.append(tuple(path))
        bottlenecks.append(bottleneck)
    return PathSet(tuple(paths), tuple(bottlenecks))


def parallel_transfer_time(paths: PathSet, payload_bits: float) -> float:
    """Time to move payload_bits striped proportionally across disjoint paths."""
    if payload_bits < 0:
        raise ValueError("payload_bits must be nonnegative")
    if len(paths) == 0:
        raise ValueError("no paths available: orbits unreachable")
    return payload_bits / sum(paths.bottlenecks)
