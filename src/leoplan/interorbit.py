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

import numpy as np

from .constellation import SatelliteId, TopologySnapshot
from .graph import (Topology, _require_finite, _total, dijkstra, path_edges, pivot_columns,
                    replay_columns)


def build_weighted_graph(snapshot: TopologySnapshot) -> Topology:
    """One pair of directed edges per ISL, weighted by 1/rate, over the
    snapshot's shared CSR structure."""
    csr, table = snapshot.csr, snapshot.numbered[1]
    if not np.all((table[:, 2] > 0) & (table[:, 2] < np.inf)):
        raise ValueError("capacity must be positive and finite")
    rates, delays = table[:, 2:].repeat(2, axis=0)[csr.pick].T
    return Topology.over(csr, (1.0 / rates).tolist(), rates.tolist(), delays.tolist())


class ShortestPaths:
    """Shortest routes into each destination, built on first request.

    graph.pivot_columns over the graph's weights; ``column(j)`` replays
    destination j's Floyd-Warshall column once, all the given destinations
    together on the first request for one (see leoplan.graph for the
    tie-break). ``hops`` follows a column's next hops. Every planner reads
    its Floyd-Warshall routes through this class.
    """

    def __init__(self, graph: Topology, destinations=()):
        self.graph = graph
        self.nodes = graph.nodes
        self.index = graph.index
        self._pivots = pivot_columns(graph)
        self._due = sorted(set(destinations))
        self._columns: dict = {}
        self._metrics: dict = {}

    def column(self, j: int):
        """(dist, next_hop) vectors of the routes into the node at index j:
        entry i is the i -> j distance and the index of the node after i on
        the kept path (i itself when i == j, -1 when j is unreachable)."""
        if j not in self._columns:
            js = self._due if j in self._due else [j]
            self._columns.update(zip(js, zip(*replay_columns(*self._pivots, js))))
            self._due = [] if js is self._due else self._due
        return self._columns[j]

    def hops(self, i: int, j: int) -> list | None:
        """Node indices of the kept path from i to j, both included; None
        when j is unreachable from i."""
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


def all_pairs_shortest(graph: Topology, destinations=()) -> ShortestPaths:
    """Floyd-Warshall routes over 1/rate weights, each destination finished
    on its first request (see ShortestPaths)."""
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
