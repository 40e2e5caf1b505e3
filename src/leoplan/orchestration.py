"""Routing one task's dataflow to its hosting satellites at minimum energy.

The snapshot is recast as a digraph whose edge weights are joules: radio
energy for pushing the hop payload both ways plus, on edges entering a
hosting satellite, the compute energy of the stages it runs. Reaching every
host (and the egress gateway) from the request's ingress satellite is then a
minimum directed Steiner tree problem, solved two ways: a shortest-path-tree
heuristic and an exact dynamic program over terminal subsets for small
instances. Both run on the shared graph core (leoplan.graph), whose
tie-break rules pick the tree among equal-energy ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import TopologySnapshot, node_key
from .graph import Topology, _require_finite, _total, dijkstra, path_edges, reachable
from .interorbit import ShortestPaths
from .msdag import ServiceDag

EXACT_MAX_TERMINALS = 6
EXACT_MAX_NODES = 12


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit radio energy and per-flop compute energy."""

    e_tx_j_per_bit: float = 1e-9
    e_rx_j_per_bit: float = 1e-9
    e_flop_j: float = 1e-12

    def validate(self) -> None:
        _require_finite("nonnegative and finite", e_tx_j_per_bit=self.e_tx_j_per_bit,
                        e_rx_j_per_bit=self.e_rx_j_per_bit, e_flop_j=self.e_flop_j)


@dataclass(frozen=True)
class SteinerInstance:
    root: object
    terminals: frozenset

    def validate(self) -> None:
        if not self.terminals:
            raise ValueError("terminal set must be nonempty")


@dataclass(frozen=True)
class SteinerTree:
    edges: frozenset
    total_energy: float

    @property
    def nodes(self) -> set:
        return {node for edge in self.edges for node in edge}


def build_augmented_graph(
    snapshot: TopologySnapshot,
    assignment,
    dag: ServiceDag,
    energy_model: EnergyModel,
    root,
    gateway=None,
    hop_payload_bits: float | None = None,
):
    """Energy-weighted digraph plus the Steiner instance for one request.

    Every satellite of the snapshot is a node (non-hosting satellites relay);
    a root, gateway or host it lacks is rejected by name. Edge energy is
    (e_tx + e_rx) * hop payload, plus e_flop * flops of the stages hosted at
    the edge's head; in any tree each host has exactly one inbound edge, so
    compute energy is charged once per host. The default hop payload is the
    largest inter-stage payload of the DAG.

    Returns:
        (Topology over the satellites and ISLs, SteinerInstance) with
        terminals = hosting satellites plus the gateway when given.
    """
    energy_model.validate()
    for sid in dag.service_ids():
        if sid not in assignment:
            raise ValueError(f"microservice {sid} is not placed")
    if hop_payload_bits is None:
        hop_payload_bits = max((bits for (_, _, bits) in dag.edges), default=0.0)

    hosting: dict = {}
    for sid in dag.topological_order():
        hosting.setdefault(assignment[sid], []).append(sid)

    csr = snapshot.csr
    index = csr.index
    for sat in [root] + ([] if gateway is None else [gateway]) + list(hosting):
        if sat not in index:
            raise ValueError(f"satellite {sat} not in the snapshot")
    radio = (energy_model.e_tx_j_per_bit + energy_model.e_rx_j_per_bit) * hop_payload_bits
    energy = np.full(len(csr.nodes), radio)
    for host, sids in hosting.items():
        e = radio
        for sid in sids:
            e += energy_model.e_flop_j * dag.service(sid).flops
        energy[index[host]] = e
    energy = energy[csr.head_array]
    if not np.all((energy >= 0) & (energy < np.inf)):
        raise ValueError("edge energy must be nonnegative and finite")
    g = Topology.over(csr, energy.tolist())

    terminals = set(hosting)
    if gateway is not None:
        terminals.add(gateway)
    instance = SteinerInstance(root, frozenset(terminals))
    instance.validate()
    return g, instance


def _tree_edges(graph: Topology, prev: list, ends) -> tuple:
    """(label pair set, label pair -> edge) of the search's paths to ends."""
    edges: set = set()
    index: dict = {}
    for i in ends:
        for e in path_edges(graph, prev, i):
            pair = graph.nodes[graph.tails[e]], graph.nodes[graph.heads[e]]
            edges.add(pair)
            index[pair] = e
    return edges, index


def dst_heuristic(graph: Topology, instance: SteinerInstance) -> SteinerTree:
    """Shortest-path tree heuristic: route each terminal along the Dijkstra
    tree from the root and merge the paths; shared prefixes are counted once."""
    instance.validate()
    index = graph.index
    root = index.get(instance.root)
    dist, prev, _ = dijkstra(graph, [] if root is None else [root])
    ends = []
    for t in sorted(instance.terminals, key=node_key):
        i = index.get(t)
        if t != instance.root and (i is None or dist[i] == math.inf):
            raise ValueError(f"terminal {t} unreachable from root {instance.root}")
        ends += [] if i is None else [i]
    edges, pick = _tree_edges(graph, prev, ends)
    # Summed over the label set, in its iteration order.
    return SteinerTree(frozenset(edges), _total(graph.weights[pick[e]] for e in edges))


def dst_exact(graph: Topology, instance: SteinerInstance) -> SteinerTree:
    """Minimum directed Steiner tree by dynamic programming over terminal subsets.

    Size-guarded (EXACT_MAX_NODES nodes, EXACT_MAX_TERMINALS terminals besides
    the root): intended for desk-scale verification, not production graphs.

    Raises:
        ValueError: when bounds are exceeded or a terminal is unreachable.
    """
    instance.validate()
    nodes = graph.nodes
    if len(nodes) > EXACT_MAX_NODES:
        raise ValueError(f"size bound exceeded: {len(nodes)} nodes > {EXACT_MAX_NODES}")
    terms = sorted(instance.terminals - {instance.root}, key=node_key)
    if len(terms) > EXACT_MAX_TERMINALS:
        raise ValueError(f"size bound exceeded: {len(terms)} terminals > {EXACT_MAX_TERMINALS}")
    if not terms:
        return SteinerTree(frozenset(), 0.0)

    n, index = len(nodes), graph.index
    routes = ShortestPaths(graph)
    dist = [routes.column(j)[0].tolist() for j in range(n)]  # dist[j][i]: i -> j

    for t in terms:
        if dist[index[t]][index[instance.root]] == math.inf:
            raise ValueError(f"terminal {t} unreachable from root {instance.root}")

    k = len(terms)
    full = (1 << k) - 1
    # f[mask][v] = cheapest arborescence rooted at v covering the masked terminals.
    f = [[math.inf] * n for _ in range(full + 1)]
    choice: dict = {}
    for ti, t in enumerate(terms):
        f[1 << ti] = list(dist[index[t]])

    masks = sorted(range(1, full + 1), key=lambda m: bin(m).count("1"))
    for mask in masks:
        if bin(mask).count("1") < 2:
            continue
        g_row = [math.inf] * n
        g_choice = [None] * n
        low = mask & (-mask)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # pivot stays in one side to halve the enumeration
                rest = mask ^ sub
                for v in range(n):
                    cand = f[sub][v] + f[rest][v]
                    if cand < g_row[v]:
                        g_row[v] = cand
                        g_choice[v] = (sub, rest)
            sub = (sub - 1) & mask
        for v in range(n):
            best, arg = math.inf, None
            for u in range(n):
                if g_row[u] == math.inf or dist[u][v] == math.inf:
                    continue
                cand = dist[u][v] + g_row[u]
                if cand < best:
                    best, arg = cand, u
            f[mask][v] = best
            if arg is not None:
                choice[(mask, v)] = (arg, g_choice[arg])

    root_i = index[instance.root]
    total = f[full][root_i]

    # Rebuild the edge set by unwinding the DP, then prune duplicates into a tree.
    edges: set = set()

    def expand_path(i: int, j: int) -> None:
        hops = routes.hops(i, j)
        edges.update((nodes[a], nodes[b]) for a, b in zip(hops, hops[1:]))

    def unwind(mask: int, v: int) -> None:
        if bin(mask).count("1") == 1:
            ti = mask.bit_length() - 1
            expand_path(v, index[terms[ti]])
            return
        u, (sub, rest) = choice[(mask, v)]
        expand_path(v, u)
        unwind(sub, u)
        unwind(rest, u)

    unwind(full, root_i)
    tree_edges = _prune_to_tree(graph, edges, instance)
    pruned_total = _total(graph.weights[graph.edges[e]] for e in tree_edges)
    if pruned_total > total + 1e-9:
        raise AssertionError("reconstruction produced a costlier tree than the DP value")
    # Pruning duplicates can only tie the optimum; report the edge-consistent sum.
    return SteinerTree(frozenset(tree_edges), pruned_total)


def _prune_to_tree(graph: Topology, edges: set, instance: SteinerInstance) -> set:
    """Within the chosen edges, keep one cheapest path per terminal."""
    weights = [math.inf] * len(graph.weights)
    for pair in edges:
        e = graph.edges[pair]
        weights[e] = graph.weights[e]
    _, prev, _ = dijkstra(graph, [graph.index[instance.root]], weights=weights)
    return _tree_edges(graph, prev, [graph.index[t] for t in instance.terminals])[0]


def stage_host_order(dag: ServiceDag, assignment) -> list:
    """(stage, host) pairs in dependency order; the CLI reports this."""
    return [(sid, assignment[sid]) for sid in dag.topological_order()]


def validate_tree(graph: Topology, instance: SteinerInstance,
                  tree: SteinerTree) -> None:
    """Raise ValueError unless tree is a root-arborescence reaching all terminals."""
    if not tree.edges:
        if instance.terminals - {instance.root}:
            raise ValueError("empty tree cannot reach terminals")
        return
    heads = [v for (_, v) in tree.edges]
    if len(set(heads)) != len(heads):
        raise ValueError("a node has two parents")
    if instance.root in heads:
        raise ValueError("root must not have a parent")
    succ: dict = {}
    for (u, v) in tree.edges:
        succ.setdefault(u, []).append(v)
    seen = reachable(succ, [instance.root])
    if len(seen) != len(tree.nodes | {instance.root}):
        raise ValueError("tree has edges not reachable from the root")
    missing = instance.terminals - seen
    if missing:
        raise ValueError(f"terminals not covered: {sorted(missing, key=node_key)}")
    if len(tree.edges) != len(tree.nodes | {instance.root}) - 1:
        raise ValueError("edge count does not match a tree")
