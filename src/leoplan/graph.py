"""The graph algorithms every planner shares: one digraph, Dijkstra,
Floyd-Warshall by pivot columns and per-destination replay, a topological
order and reachability.

Results are deterministic, and the tie-break rules below are part of the
outputs (placement, routes and trees all follow the chosen paths):

* Nodes sort by node_key: satellites by (orbit, slot), before every other
  node, which sorts by its string.
* dijkstra pops the least (distance, node_key) entry and replaces a
  tentative distance only on a strictly smaller one (``<``), so among
  equal-weight paths the one through the first-settled predecessor stays.
  The order in which one node's neighbours are relaxed changes nothing
  (test_select_disjoint_paths_matches_reference_loop).
* Floyd-Warshall lets the intermediate node k run over the given node order
  and replaces a pair's route only on a strictly shorter path through k.
* topological_order is the lexicographically smallest order: of all nodes
  whose predecessors are done, the least comes next.

Floyd-Warshall is run destination-major: row j of its arrays holds column j
of the distance matrix. pivot_columns runs iterations k = 0 .. n-1 in place
on the destinations after k, over the finite span of row k and column k only
(inf + x is never < d); each destination column evolves on its own given the
pivot columns, so replay_column finishes column j with iterations
k = j+1 .. n-1. Together they equal the textbook whole-matrix algorithm bit
for bit, tie-breaks included (test_all_pairs_matches_whole_matrix_reference).
"""

from __future__ import annotations

import heapq

import numpy as np

from .constellation import SatelliteId

# Destination rows relaxed per step of the Floyd-Warshall loop. It bounds
# the scratch buffers, so one step's working set stays in cache at shell
# sizes instead of streaming whole n x n temporaries.
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


def _initial(graph: Digraph, index: dict):
    """Destination-major (dist, next_hop) of the direct edges over index.

    Row j holds column j of the distance matrix: entry [j, i] is for the
    pair i -> j, and next_hop[j, i] is the node after i on the kept path
    (i itself when i == j, -1 while j is unreachable from i).
    """
    n = len(index)
    dist = np.full((n, n), np.inf)
    nxt = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(nxt, np.arange(n))
    for (u, v) in graph.edges:
        i, j = index[u], index[v]
        w = graph.weight(u, v)
        if w < dist[j, i]:
            dist[j, i] = w
            nxt[j, i] = j
    return dist, nxt


def _finite_span(values):
    """(first, stop) of the finite entries of a vector; (0, 0) when none."""
    # bytes.find/rfind scan in C at a fraction of argmax's call overhead,
    # which dominates on desk-size graphs.
    finite = (values != np.inf).tobytes()
    first = finite.find(1)
    return (first, finite.rfind(1) + 1) if first >= 0 else (0, 0)


def pivot_columns(graph: Digraph, index: dict):
    """Destination-major (dist, next_hop) whose row j is column j of the
    distance matrix as Floyd-Warshall iteration j reads it; replay_column
    finishes any one of them.

    Runs iterations k = 0 .. n-1 in place over the finite spans, relaxing
    only the destinations after k (see the module docstring).
    """
    dist, nxt = _initial(graph, index)
    n = len(dist)
    buf = np.empty(min(n, _ROW_BLOCK) * n)
    mask = np.empty(buf.shape, dtype=bool)
    for k in range(n):
        lo = k + 1
        first, stop = _finite_span(dist[lo:, k])
        if first == stop:
            continue
        c0, c1 = _finite_span(dist[k])
        via_k = dist[k, c0:c1]
        hop_k = nxt[k, c0:c1]
        for r in range(lo + first, lo + stop, _ROW_BLOCK):
            r1 = min(r + _ROW_BLOCK, lo + stop)
            d = dist[r:r1, c0:c1]
            a = buf[:d.size].reshape(d.shape)
            b = mask[:d.size].reshape(d.shape)
            np.add(dist[r:r1, k, None], via_k, out=a)
            np.less(a, d, out=b)
            np.copyto(d, a, where=b)
            np.copyto(nxt[r:r1, c0:c1], hop_k, where=b)
    return dist, nxt


def replay_column(dist, nxt, j: int):
    """Final (dist, next_hop) vectors of destination j from the pivot arrays:
    entry i is the i -> j distance and the node after i on the kept path.

    Applies iterations k = j+1 .. n-1 to row j; iteration j itself changes
    nothing, and a k with no route from k to j cannot relax anything.
    """
    col, hop = dist[j].copy(), nxt[j].copy()
    alt = np.empty(len(col))
    better = np.empty(len(col), dtype=bool)
    for k in range(j + 1, len(col)):
        via = col[k]
        if via == np.inf:
            continue
        np.add(dist[k], via, out=alt)
        np.less(alt, col, out=better)
        np.copyto(col, alt, where=better)
        np.copyto(hop, nxt[k], where=better)
    return col, hop


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
