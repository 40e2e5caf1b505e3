"""The graph algorithms every planner shares: one digraph, Dijkstra,
Floyd-Warshall, a topological order and reachability.

Results are deterministic, and the tie-break rules below are part of the
outputs (placement, routes and trees all follow the chosen paths):

* Nodes sort by node_key: satellites by (orbit, slot), before every other
  node, which sorts by its string.
* dijkstra pops the least (distance, node_key) entry and replaces a
  tentative distance only on a strictly smaller one (``<``), so among
  equal-weight paths the one through the first-settled predecessor stays.
  The order in which one node's neighbours are relaxed cannot change
  anything: each relaxation touches only its own neighbour, and the heap
  orders its entries by (distance, node_key), not by push order.
* floyd_warshall lets the intermediate node k run over the given node order
  and replaces a pair's route only on a strictly shorter path through k.
* topological_order is the lexicographically smallest order: of all nodes
  whose predecessors are done, the least comes next.
"""

from __future__ import annotations

import heapq

import numpy as np

from .constellation import SatelliteId

# Rows of the distance matrix relaxed per step of the all-pairs loop. It
# bounds the scratch buffers, so one step's working set stays in cache at
# shell sizes instead of streaming whole n x n temporaries.
_ROW_BLOCK = 128


def node_key(node):
    """Stable sort key across satellite ids and string nodes."""
    if isinstance(node, SatelliteId):
        return (0, node.orbit_index, node.slot_index)
    return (1, str(node))


class Digraph:
    """Directed graph with one value per edge; nodes and each node's
    out-neighbours keep their insertion order.

    Subclasses validate and build the edge value in add_edge and read the
    path weight out of it in weight().
    """

    def __init__(self):
        self.nodes: list = []
        self.edges: dict = {}
        self.adjacency: dict = {}

    def add_node(self, node) -> None:
        if node not in self.adjacency:
            self.nodes.append(node)
            self.adjacency[node] = []

    def _set_edge(self, u, v, value) -> None:
        self.add_node(u)
        self.add_node(v)
        if (u, v) not in self.edges:
            self.adjacency[u].append(v)
        self.edges[(u, v)] = value

    def weight(self, u, v) -> float:
        return self.edges[(u, v)]

    def sorted_nodes(self) -> list:
        return sorted(self.nodes, key=node_key)

    def weighted_adjacency(self) -> dict:
        """{u: {v: weight}} over every node, the input dijkstra takes."""
        return {u: {v: self.weight(u, v) for v in vs} for u, vs in self.adjacency.items()}


def dijkstra(adj: dict, sources, targets=()):
    """Shortest paths from a set of sources over {u: {v: weight}}.

    Stops once a node of targets is settled; without targets it settles
    every reachable node. Returns (dist, prev, reached): tentative and final
    distances, the predecessor of every node reached by an edge, and the
    settled target (None when there is none).
    """
    dist = {s: 0.0 for s in sources}
    prev: dict = {}
    heap = [(0.0, node_key(s), s) for s in sources]
    heapq.heapify(heap)
    settled = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in targets:
            return dist, prev, u
        for v, w in adj.get(u, {}).items():
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, node_key(v), v))
    return dist, prev, None


def path_to(prev: dict, node) -> list:
    """Nodes from the search's source to node, following dijkstra's prev."""
    path = [node]
    while path[-1] in prev:
        path.append(prev[path[-1]])
    return path[::-1]


def floyd_warshall(graph: Digraph, index: dict):
    """All-pairs (dist, next_hop) arrays over the nodes of index, in its order.

    ``next_hop[i, j]`` is the index of the node after i on the kept i->j
    path (i itself when i == j, -1 when j is unreachable).
    """
    n = len(index)
    dist = np.full((n, n), np.inf)
    nxt = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(nxt, np.arange(n))
    for (u, v) in graph.edges:
        i, j = index[u], index[v]
        w = graph.weight(u, v)
        if w < dist[i, j]:
            dist[i, j] = w
            nxt[i, j] = j
    # Updating in place, one block of rows at a time, gives exactly the
    # result of building a fresh matrix per k: row k and column k cannot
    # change in iteration k, because dist[k, k] == 0 and x + 0.0 == x, so
    # every block reads the same dist[k] and dist[:, k] values the whole
    # iteration started from. The strict < and the order of k are those of
    # the fresh-matrix form, so ties break the same way.
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
    return dist, nxt


def topological_order(nodes, edges) -> list:
    """Lexicographically smallest topological order (Kahn with a min-heap).

    edges are (u, v) pairs, repeats allowed. Nodes on or behind a cycle
    never become ready and are left out, so a short order means a cycle.
    """
    indeg = dict.fromkeys(nodes, 0)
    succ: dict = {}
    for (u, v) in edges:
        indeg[v] += 1
        succ.setdefault(u, []).append(v)
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def reachable(succ: dict, seeds) -> set:
    """Every node reachable from seeds (seeds included) over {u: [v, ...]}."""
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        u = frontier.pop()
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen
