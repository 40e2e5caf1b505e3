"""Inter-orbit routing: rate-reciprocal weights, shortest paths into
declared destinations, and iterative selection of edge-disjoint paths
between two orbits.

A route table (ShortestPaths) holds n x n entries only while it is
constructed: the Floyd-Warshall pivot pass's distances, and its next hops in
the narrowest signed integer type that holds -1 and n - 1. It keeps the rows
of its destinations, |destinations| x n entries, and drops the rest.

Paths deleted from the graph after selection cannot be reused, so the
returned set is pairwise edge-disjoint and the payload can be striped
across the paths in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constellation import SatelliteId, TopologySnapshot
from .graph import (Topology, _require_finite, _total, dijkstra, path_edges, pivot_columns,
                    replay_columns)


def build_weighted_graph(snapshot: TopologySnapshot) -> Topology:
    """One pair of directed edges per ISL, weighted by 1/rate, over the
    snapshot's shared CSR structure. snapshot() has checked every rate
    positive and finite (LinkConfig.validate), so no weight is NaN, which
    Floyd-Warshall would drop and Dijkstra keep."""
    csr = snapshot.csr
    rates, delays = snapshot.numbered[1][:, 2:].repeat(2, axis=0)[csr.pick].T
    return Topology.over(csr, (1.0 / rates).tolist(), rates.tolist(), delays.tolist())


class ShortestPaths:
    """Shortest routes into each destination, built whole when constructed.

    The constructor runs graph.pivot_columns over the graph's weights and
    graph.replay_columns once over the destinations (every node when
    destinations is None; see leoplan.graph for the tie-break), then keeps
    only their |destinations| x n rows. ``column(j)`` looks destination j's
    column up; ``hops`` follows its next hops. Every planner reads its
    Floyd-Warshall routes through this class. A request for an undeclared
    destination, and a node index outside 0 .. n-1 wherever one is given,
    raise ValueError.
    """

    def __init__(self, graph: Topology, destinations=None):
        self.graph = graph
        self.nodes = graph.nodes
        self.index = graph.index
        if destinations is None:
            destinations = range(len(self.nodes))
        destinations = sorted(set(destinations))
        self._check(*destinations)
        # replay_columns starts at destinations[0], so an empty set builds nothing.
        rows = replay_columns(*pivot_columns(graph), destinations) if destinations else ()
        self._columns = dict(zip(destinations, zip(*rows)))
        self._metrics: dict = {}

    def _check(self, *indices) -> None:
        """ValueError naming the first index outside 0 .. n-1."""
        for i in indices:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"node index {i} outside 0..{len(self.nodes) - 1}")

    def column(self, j: int):
        """(dist, next_hop) vectors of the routes into the node at index j:
        entry i is the i -> j distance and the index of the node after i on
        the kept path (i itself when i == j, -1 when j is unreachable)."""
        if j not in self._columns:
            self._check(j)
            raise ValueError(f"destination {j} ({self.nodes[j]}) was not declared "
                             "to this route table")
        return self._columns[j]

    def hops(self, i: int, j: int) -> list | None:
        """Node indices of the kept path from i to j, both included; None
        when j is unreachable from i."""
        self._check(i)
        hop = self.column(j)[1]
        if hop[i] < 0:
            return None
        hops = [i]
        while hops[-1] != j:
            hops.append(int(hop[hops[-1]]))
        return hops

    def transfer_at(self, i: int, j: int, bits: float) -> float:
        """bits / bottleneck rate + propagation along the kept path from the
        node at index i to the node at index j; 0.0 when i == j. The path's
        (bottleneck, propagation) is cached per index pair."""
        if i == j:
            if not 0 <= i < len(self.nodes):
                self._check(i)
            return 0.0
        if (i, j) not in self._metrics:
            hops = self.hops(i, j)
            if hops is None:
                raise ValueError(f"no route from {self.nodes[i]} to {self.nodes[j]}: "
                                 "hosts not connected in the snapshot")
            g = self.graph
            edges = [g.edge(a, b) for a, b in zip(hops, hops[1:])]
            self._metrics[(i, j)] = (min(g.capacities[e] for e in edges),
                                     _total(g.propagation[e] for e in edges))
        bottleneck, prop = self._metrics[(i, j)]
        return bits / bottleneck + prop


def all_pairs_shortest(graph: Topology, destinations=None) -> ShortestPaths:
    """Floyd-Warshall routes over 1/rate weights into the declared
    destinations, every node when None (see ShortestPaths)."""
    return ShortestPaths(graph, destinations)


@dataclass(frozen=True)
class PathSet:
    paths: tuple
    bottlenecks: tuple

    def __len__(self) -> int:
        return len(self.paths)


def select_disjoint_paths(
    graph: Topology,
    source_orbit: int,
    dest_orbit: int,
    max_paths: int | None = None,
) -> PathSet:
    """Iteratively pick min-weight orbit-to-orbit paths, deleting used edges.

    Every satellite of source_orbit is a valid origin and every satellite of
    dest_orbit a valid destination. Selection stops when the orbits are
    disconnected or max_paths is reached. A used edge gets an infinite weight.
    An orbit with no satellite in the graph and a max_paths below 1 are
    rejected.
    """
    if source_orbit == dest_orbit:
        raise ValueError("source and destination orbits must differ")
    if max_paths is not None and max_paths < 1:
        raise ValueError("max_paths must be at least 1")
    orbit = [v.orbit_index if isinstance(v, SatelliteId) else None for v in graph.nodes]
    sources = [i for i, o in enumerate(orbit) if o == source_orbit]
    targets = [o == dest_orbit for o in orbit]
    for o, found in ((source_orbit, sources), (dest_orbit, any(targets))):
        if not found:
            raise ValueError(f"orbit {o} has no satellite in the graph")
    weights = list(graph.weights)

    paths, bottlenecks = [], []
    while max_paths is None or len(paths) < max_paths:
        _, prev, reached = dijkstra(graph, sources, targets, weights)
        if reached is None:
            break
        edges = path_edges(graph, prev, reached)
        bottlenecks.append(min(graph.capacities[e] for e in edges))
        for e in edges:
            weights[e] = math.inf
        paths.append(tuple(graph.nodes[graph.tails[e]] for e in edges) + (graph.nodes[reached],))
    return PathSet(tuple(paths), tuple(bottlenecks))


def parallel_transfer_time(paths: PathSet, payload_bits: float) -> float:
    """Time to move payload_bits striped proportionally across disjoint paths."""
    _require_finite("nonnegative and finite", payload_bits=payload_bits)
    if len(paths) == 0:
        raise ValueError("no paths available: orbits unreachable")
    return payload_bits / _total(paths.bottlenecks)
