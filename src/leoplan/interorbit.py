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

    graph.pivot_columns over the graph's weights, nodes indexed in sorted
    order; ``column(j)`` replays destination j's column of the Floyd-Warshall
    matrix once and caches it (see leoplan.graph for the tie-break it keeps).
    ``path`` follows that column's next hops.
    """

    def __init__(self, graph: Digraph):
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

    def path(self, u, v) -> list | None:
        i, j = self.index[u], self.index[v]
        hop = self.column(j)[1]
        if hop[i] < 0:
            return None
        hops = [i]
        while hops[-1] != j:
            hops.append(int(hop[hops[-1]]))
        return [self.nodes[h] for h in hops]

    def transfer_at(self, i: int, j: int, bits: float) -> float:
        """bits / bottleneck rate + propagation along the kept path from the
        node at index i to the node at index j; 0.0 when i == j. The path's
        (bottleneck, propagation) is cached per index pair."""
        if i == j:
            return 0.0
        if (i, j) not in self._metrics:
            path = self.path(self.nodes[i], self.nodes[j])
            if path is None:
                raise ValueError(f"no route from {self.nodes[i]} to {self.nodes[j]}: "
                                 "hosts not connected in the snapshot")
            bottleneck, prop = float("inf"), 0.0
            for a, b in zip(path, path[1:]):
                attr = self.graph.edges[(a, b)]
                bottleneck = min(bottleneck, attr.capacity_bps)
                prop += attr.propagation_s
            self._metrics[(i, j)] = (bottleneck, prop)
        bottleneck, prop = self._metrics[(i, j)]
        return bits / bottleneck + prop


def all_pairs_shortest(graph: WeightedDigraph) -> ShortestPaths:
    """Floyd-Warshall routes over 1/rate weights, each destination finished
    on its first request (see ShortestPaths)."""
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
