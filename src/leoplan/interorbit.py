"""Inter-orbit routing: rate-reciprocal weights, all-pairs shortest paths,
and iterative selection of edge-disjoint paths between two orbits.

Paths deleted from the graph after selection cannot be reused, so the
returned set is pairwise edge-disjoint and the payload can be striped
across the paths in parallel.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .constellation import LinkKind, SatelliteId, TopologySnapshot

_ISL_KINDS = (LinkKind.INTRA_ORBIT_ISL, LinkKind.INTER_ORBIT_ISL, LinkKind.CROSS_SEAM_ISL)

# Rows of the distance matrix relaxed per step of the all-pairs loop. It
# bounds the scratch buffers, so one step's working set stays in cache at
# shell sizes instead of streaming whole n x n temporaries.
_ROW_BLOCK = 128


def _node_key(node):
    """Stable sort key across satellite ids and string nodes."""
    if isinstance(node, SatelliteId):
        return (0, node.orbit_index, node.slot_index)
    return (1, str(node))


@dataclass(frozen=True)
class EdgeAttr:
    weight: float
    capacity_bps: float
    propagation_s: float


class WeightedDigraph:
    """Directed graph with weight = 1/capacity per edge."""

    def __init__(self):
        self.nodes: list = []
        self._node_set: set = set()
        self.edges: dict = {}
        self.adjacency: dict = {}

    def add_node(self, node) -> None:
        if node not in self._node_set:
            self._node_set.add(node)
            self.nodes.append(node)
            self.adjacency[node] = []

    def add_edge(self, u, v, capacity_bps: float, propagation_s: float = 0.0) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.add_node(u)
        self.add_node(v)
        attr = EdgeAttr(1.0 / capacity_bps, capacity_bps, propagation_s)
        if (u, v) not in self.edges:
            self.adjacency[u].append(v)
        self.edges[(u, v)] = attr

    def sorted_nodes(self) -> list:
        return sorted(self.nodes, key=_node_key)


def build_weighted_graph(snapshot: TopologySnapshot, include_ground: bool = False) -> WeightedDigraph:
    """One pair of directed edges per available link, weighted by 1/rate.

    By default only ISLs enter the graph; include_ground adds SGL and ground
    dedicated links so paths may run down to stations and the cloud.
    """
    g = WeightedDigraph()
    for sat in sorted(snapshot.positions, key=_node_key):
        g.add_node(sat)
    kinds = _ISL_KINDS + ((LinkKind.SGL, LinkKind.GROUND_DEDICATED) if include_ground else ())
    for link in snapshot.links:
        if not link.available or link.kind not in kinds:
            continue
        a, b = link.endpoints
        g.add_edge(a, b, link.rate_bps, link.propagation_delay_s)
        g.add_edge(b, a, link.rate_bps, link.propagation_delay_s)
    return g


class ShortestPaths:
    """All-pairs shortest path distances with next-hop reconstruction.

    Floyd-Warshall over the graph's 1/rate weights. Nodes are indexed in
    sorted order and the intermediate node k runs over that order; a pair's
    distance and next hop are replaced only when the path through k is
    strictly shorter (``<``), so among equal-weight paths the one found
    first in this order is kept. ``next_hop[i, j]`` is the index of the node
    after i on the kept i->j path (i itself when i == j, -1 when j is
    unreachable), and ``path`` follows it hop by hop.
    """

    def __init__(self, graph: WeightedDigraph):
        self.graph = graph
        self.nodes = graph.sorted_nodes()
        self.index = {n: i for i, n in enumerate(self.nodes)}
        n = len(self.nodes)
        dist = np.full((n, n), np.inf)
        nxt = np.full((n, n), -1, dtype=np.int32)
        np.fill_diagonal(dist, 0.0)
        np.fill_diagonal(nxt, np.arange(n))
        for (u, v), attr in graph.edges.items():
            i, j = self.index[u], self.index[v]
            if attr.weight < dist[i, j]:
                dist[i, j] = attr.weight
                nxt[i, j] = j
        # Updating in place, one block of rows at a time, gives exactly the
        # result of building a fresh matrix per k: row k and column k cannot
        # change in iteration k, because dist[k, k] == 0 and x + 0.0 == x, so
        # every block reads the same dist[k] and dist[:, k] values the whole
        # iteration started from. The strict < and the order of k are as
        # before, so ties break the same way.
        alt = np.empty((min(n, _ROW_BLOCK), n))
        better = np.empty(alt.shape, dtype=bool)
        for k in range(n):
            via_k = dist[k]
            for r in range(0, n, _ROW_BLOCK):
                d = dist[r:r + _ROW_BLOCK]
                h = nxt[r:r + _ROW_BLOCK]
                a, b = alt[:len(d)], better[:len(d)]
                np.add(d[:, k, None], via_k, out=a)
                np.less(a, d, out=b)
                np.copyto(d, a, where=b)
                np.copyto(h, h[:, k, None], where=b)
        self.dist = dist
        self.next_hop = nxt

    def distance(self, u, v) -> float:
        return float(self.dist[self.index[u], self.index[v]])

    def path(self, u, v) -> list | None:
        i, j = self.index[u], self.index[v]
        if self.next_hop[i, j] < 0:
            return None
        hops = [i]
        while hops[-1] != j:
            hops.append(int(self.next_hop[hops[-1], j]))
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


def all_pairs_shortest(graph: WeightedDigraph) -> ShortestPaths:
    """Floyd-Warshall over 1/rate weights; nodes iterated in sorted order.

    A pair's route changes only on a strictly shorter path through the next
    node in that order; see ShortestPaths for the kept tie-break and the
    next-hop reconstruction.
    """
    return ShortestPaths(graph)


@dataclass(frozen=True)
class PathSet:
    paths: tuple
    bottlenecks: tuple

    def __len__(self) -> int:
        return len(self.paths)


def _multi_source_dijkstra(adj: dict, sources: list, targets: set):
    """Cheapest path from any source to any target; deterministic tie-breaks."""
    dist = {s: 0.0 for s in sources}
    prev: dict = {}
    heap = [(0.0, _node_key(s), s) for s in sorted(sources, key=_node_key)]
    heapq.heapify(heap)
    settled = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in targets:
            path = [u]
            while path[-1] in prev:
                path.append(prev[path[-1]])
            return path[::-1]
        for v, attr in sorted(adj.get(u, {}).items(), key=lambda kv: _node_key(kv[0])):
            nd = d + attr.weight
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, _node_key(v), v))
    return None


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
    adj = {u: {v: graph.edges[(u, v)] for v in vs} for u, vs in graph.adjacency.items()}

    paths, bottlenecks = [], []
    while max_paths is None or len(paths) < max_paths:
        path = _multi_source_dijkstra(adj, sources, targets)
        if path is None:
            break
        bottleneck = min(adj[a][b].capacity_bps for a, b in zip(path, path[1:]))
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
