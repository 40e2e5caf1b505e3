"""The graph algorithms every planner shares, on one integer form.

A Topology numbers its nodes once, in node_key order (on a Walker shell a
satellite's index is orbit * S + slot; the string nodes of a hand-made graph
follow by their string) and keeps its edges in CSR lists; planners map back
to labels only at output. The edge structure (CsrEdges: the sorted CSR, the
permutation that dedupes it, and a per-node adjacency list of (head, edge)
pairs in CSR order) is built once per edge set, and every Topology is one
such structure plus per-edge vectors in its CSR order: a snapshot is the
edge table constellation.snapshot() builds (TopologySnapshot.numbered), the
snapshot builds one CsrEdges from it, and its weighted graph and every
energy graph over it are weight vectors over that one structure.

Results are deterministic, and the tie-break rules below are part of the
outputs (placement, routes and trees all follow the chosen paths):

* dijkstra pops the least (distance, index) entry, which is the least
  (distance, node_key) entry, and replaces a tentative distance only on a
  strictly smaller one (``<``), so among equal-weight paths the one through
  the first-settled predecessor stays; the order in which one node's
  neighbours are relaxed changes nothing. Searches, disjoint paths and trees
  equal the label-keyed loops they replaced
  (test_integer_planners_match_the_label_references).
* Floyd-Warshall lets the intermediate node k run over the index order and
  replaces a pair's route only on a strictly shorter path through k.
* topological_order is the lexicographically smallest order: of all nodes
  whose predecessors are done, the least comes next.

Floyd-Warshall is run destination-major: row j of its arrays holds column j
of the distance matrix. pivot_columns runs iterations k = 0 .. n-1 in place
on the destinations after k, over the finite span of row k and column k only
(inf + x is never < d); each destination column evolves on its own given the
pivot columns, so replay_columns finishes column j with iterations
k = j+1 .. n-1. Together they equal the textbook whole-matrix algorithm bit
for bit, tie-breaks included (test_all_pairs_matches_whole_matrix_reference).
The pivot pass holds n x n entries: distances in float64, next hops in the
narrowest signed integer type that holds -1 and n - 1 (_hop_dtype: int8 up
to 128 nodes, int16 up to 32,768). replay_columns copies out only the rows
it is asked for: interorbit.ShortestPaths keeps its destinations' rows and
drops the pivot arrays, so it holds |destinations| x n entries.

_total is the one float sum of every total that reaches an output, and
_require_finite the one check of a scalar input against a finite-number rule.
"""

from __future__ import annotations

import bisect
import heapq
import math
from functools import cached_property

import numpy as np


class CsrEdges:
    """The edge structure of a directed graph numbered once: node i is
    nodes[i] (given in node_key order), and CSR edge e runs tails[e] ->
    heads[e]. Edges sort by (tail, head), so node u's out-edges are offsets[u]
    .. offsets[u + 1] - 1; an edge given twice keeps its last entry, and
    pick[e] is the given edge that CSR edge e keeps. Graphs over the same
    edges share one structure and differ only in their per-edge vectors.
    pick and head_array (the heads) are numpy arrays, for gathering per-edge
    vectors; the rest are plain lists, which the search loops index fastest.
    """

    def __init__(self, nodes, tails, heads):
        n = len(nodes)
        key = np.asarray(tails, dtype=np.intp) * n + np.asarray(heads, dtype=np.intp)
        # On the reversed keys, np.unique's first index is an edge's last entry.
        unique, first = np.unique(key[::-1], return_index=True)
        self.pick = len(key) - 1 - first
        tails, self.head_array = np.divmod(unique, max(n, 1))
        self.nodes = list(nodes)
        self.offsets = np.searchsorted(tails, np.arange(n + 1)).tolist()
        self.tails, self.heads = tails.tolist(), self.head_array.tolist()

    @cached_property
    def adjacency(self) -> list:
        """Per node u, its out-edges as (head, edge) pairs in CSR order."""
        pairs = list(zip(self.heads, range(len(self.heads))))
        offsets = self.offsets
        return [pairs[offsets[u]:offsets[u + 1]] for u in range(len(self.nodes))]

    @cached_property
    def index(self) -> dict:
        """Node label -> index."""
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def edges(self) -> dict:
        """(tail label, head label) -> edge index."""
        nodes = self.nodes
        return {(nodes[u], nodes[v]): e for e, (u, v) in enumerate(zip(self.tails, self.heads))}


class Topology:
    """A directed graph over a CsrEdges structure, with weight, capacity
    (bits/s) and propagation (s) at CSR edge e, each a list in CSR order; an
    energy graph has no capacities and delays (None). Graphs over one edge
    set share its structure.
    """

    def __init__(self, csr: CsrEdges, weights: list, capacities=None, propagation=None):
        self.csr = csr
        self.nodes, self.offsets, self.tails, self.heads = (
            csr.nodes, csr.offsets, csr.tails, csr.heads)
        self.weights, self.capacities, self.propagation = weights, capacities, propagation

    @property
    def index(self) -> dict:
        """Node label -> index."""
        return self.csr.index

    @property
    def edges(self) -> dict:
        """(tail label, head label) -> edge index."""
        return self.csr.edges

    def edge(self, u: int, v: int) -> int:
        """Index of the edge u -> v; ValueError naming the pair when there is
        no such edge."""
        lo, hi = (self.offsets[u], self.offsets[u + 1]) if 0 <= u < len(self.nodes) else (0, 0)
        e = bisect.bisect_left(self.heads, v, lo, hi)
        if e == hi or self.heads[e] != v:
            raise ValueError(f"no edge from node {u} to node {v}")
        return e


def dijkstra(graph: Topology, sources, targets=None, weights=None):
    """Shortest paths from source indices over weights (graph.weights by
    default; an infinite weight takes an edge out), stopping once a node i
    with targets[i] true is settled. Returns (dist, prev, reached): distances
    (inf where unreached), the edge into each node reached by one (else -1),
    and the settled target or None. Each settled node's out-edges are relaxed
    from the structure's adjacency list, in CSR order."""
    adjacency = graph.csr.adjacency
    weights = graph.weights if weights is None else weights
    n = len(graph.nodes)
    dist, prev, settled = [math.inf] * n, [-1] * n, [False] * n
    for s in sources:
        dist[s] = 0.0
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if targets is not None and targets[u]:
            return dist, prev, u
        for v, e in adjacency[u]:
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = e
                push(heap, (nd, v))
    return dist, prev, None


def path_edges(graph: Topology, prev: list, node: int) -> list:
    """Edges from the search's source to node, following dijkstra's prev."""
    path = []
    while prev[node] >= 0:
        path.append(prev[node])
        node = graph.tails[prev[node]]
    return path[::-1]


def _hop_dtype(n: int):
    """The narrowest signed integer type that holds -1 and n - 1: the type of
    an n-node graph's next hops."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if n - 1 <= np.iinfo(t).max)


def _initial(graph: Topology):
    """Destination-major (dist, next_hop) of the direct edges: entry [j, i]
    is for the pair i -> j, and next_hop[j, i] the node after i on the kept
    path (i itself when i == j, -1 while j is unreachable from i), in
    _hop_dtype(n)."""
    n = len(graph.nodes)
    dist = np.full((n, n), np.inf)
    nxt = np.full((n, n), -1, dtype=_hop_dtype(n))
    weights = np.array(graph.weights, dtype=float)
    live = weights < np.inf
    heads = np.array(graph.heads, dtype=np.intp)[live]
    tails = np.array(graph.tails, dtype=np.intp)[live]
    dist[heads, tails] = weights[live]
    nxt[heads, tails] = heads
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(nxt, np.arange(n))
    return dist, nxt


def _finite_span(values):
    """(first, stop) of the finite entries of a vector; (0, 0) when none."""
    # bytes.find/rfind scan in C at a fraction of argmax's call overhead,
    # which dominates on desk-size graphs.
    finite = (values != np.inf).tobytes()
    first = finite.find(1)
    return (first, finite.rfind(1) + 1) if first >= 0 else (0, 0)


def pivot_columns(graph: Topology):
    """Destination-major (dist, next_hop) whose row j is column j of the
    distance matrix as Floyd-Warshall iteration j reads it: iterations
    k = 0 .. n-1 in place over the finite spans, relaxing only the
    destinations after k (see the module docstring)."""
    dist, nxt = _initial(graph)
    for k in range(len(dist)):
        r0, r1 = _finite_span(dist[k + 1:, k])
        if r0 == r1:
            continue
        r0, r1 = r0 + k + 1, r1 + k + 1
        c0, c1 = _finite_span(dist[k])
        d = dist[r0:r1, c0:c1]
        via = dist[r0:r1, k, None] + dist[k, c0:c1]
        better = via < d
        np.copyto(d, via, where=better)
        np.copyto(nxt[r0:r1, c0:c1], nxt[k, c0:c1], where=better)
        del via, better  # else the next block is allocated beside this one
    return dist, nxt


def replay_columns(dist, nxt, js):
    """Final (dist, next_hop) rows of the ascending destinations js from the
    pivot arrays: entry [r, i] is the i -> js[r] distance and the node after
    i on the kept path. Iterations k = j+1 .. n-1 run for every j in one pass
    over k (iteration j changes nothing); the rows due at k are the prefix
    with j < k, and a row infinitely far from k keeps every entry."""
    cols, hops = dist[js], nxt[js]
    for k in range(js[0] + 1, dist.shape[1]):
        c = cols[:bisect.bisect_left(js, k)]
        via = dist[k] + c[:, k, None]
        better = via < c
        np.copyto(c, via, where=better)
        np.copyto(hops[:len(c)], nxt[k], where=better)
        del via, better  # else the next block is allocated beside this one
    return cols, hops


def _total(values) -> float:
    """Float sum of values from left to right. Every float total that reaches
    an output goes through it: builtin sum() compensates float sums from
    Python 3.12 on, so it would give other bits on other interpreters."""
    total = 0.0
    for value in values:
        total += value
    return total


# rule -> (the least value a finite input is compared with, whether it passes)
_FINITE_RULES = {"positive and finite": (0.0, False), "nonnegative and finite": (0.0, True),
                 "finite": (-math.inf, False)}


def _require_finite(rule: str, **values) -> None:
    """Raise ValueError("<name> must be <rule>") for the first of values, in
    the order given, that breaks rule: "positive and finite", "nonnegative
    and finite" or "finite". A name may be any text, passed as **{name: v}."""
    least, inclusive = _FINITE_RULES[rule]
    for name, value in values.items():
        if not (math.isfinite(value) and (value > least or inclusive and value == least)):
            raise ValueError(f"{name} must be {rule}")


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
