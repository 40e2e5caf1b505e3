import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoplan import (SatelliteId, SteinerInstance, all_pairs_shortest, dst_heuristic,
                     select_disjoint_paths)
from leoplan.deployment import _merged_topological_order
from leoplan.graph import dijkstra, path_edges, topological_order

from oracles import (
    adjacency,
    floyd_warshall,
    index_dijkstra,
    label_dijkstra,
    label_graph,
    label_path,
    merged_topological_order,
    next_hop_path,
    reference_disjoint_paths,
    reference_dst_heuristic,
    routing_graphs,
    shortest_path,
    task_unions,
)

REPO = Path(__file__).resolve().parents[1]


def test_topology_sorts_edges_into_rows_and_keeps_last_edge_value():
    # a -> b is given twice; the last of its entries stays.
    g = label_graph([("a", "b", 0.5, 5.0), ("c", "a", 0.25, 6.0), ("a", "b", 2.0, 7.0),
                     ("a", "c", 4.0, 8.0)])
    assert (g.offsets, g.tails, g.heads) == ([0, 2, 2, 3], [0, 0, 2], [1, 2, 0])
    assert (g.weights, g.capacities, g.propagation) == (
        [0.5, 0.25, 4.0], [2.0, 4.0, 0.25], [7.0, 8.0, 6.0])
    joules = label_graph([("a", "b", 1.0), ("c", "a", 2.0), ("a", "b", 3.0), ("a", "c", 4.0)],
                         energy=True)
    assert (joules.weights, joules.capacities, joules.propagation) == ([3.0, 4.0, 2.0], None, None)
    assert g.edges == {("a", "b"): 0, ("a", "c"): 1, ("c", "a"): 2}
    assert g.index == {"a": 0, "b": 1, "c": 2}
    assert [g.edge(0, 1), g.edge(0, 2), g.edge(2, 0)] == [0, 1, 2]
    empty = label_graph([], nodes=["x"])
    assert (empty.offsets, empty.edges) == ([0, 0], {})


def test_edge_rejects_a_pair_that_is_not_an_edge():
    # On a -> b and b -> c, a bisect position alone named b -> c for a -> c
    # and a position past the last edge for c -> a.
    g = label_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    assert [g.edge(0, 1), g.edge(1, 2)] == [0, 1]
    for u, v in ((0, 2), (2, 0), (1, 0), (0, 0), (-1, 0), (3, 1)):
        with pytest.raises(ValueError, match=f"^no edge from node {u} to node {v}$"):
            g.edge(u, v)


@st.composite
def tied_graphs(draw):
    """(Topology, sources, targets or None, weights or None) on up to 8
    nodes: edges given in any order and often twice, weights from a few tied
    values and inf, and an optional override with more infinite weights."""
    n = draw(st.integers(1, 8))
    weight = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, math.inf])
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                          max_size=30))
    names = [f"n{i}" for i in range(n)]  # index order: n <= 8, so one digit each
    g = label_graph([(names[u], names[v], w) for u, v, w in edges], names, energy=True)
    sources = draw(st.lists(st.integers(0, n - 1), max_size=3))
    targets = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    weights = draw(st.none() | st.lists(weight, min_size=len(g.heads), max_size=len(g.heads)))
    return g, sources, targets, weights


@settings(max_examples=300, deadline=None)
@given(case=tied_graphs())
def test_adjacency_dijkstra_matches_the_index_loop(case):
    """dijkstra over the adjacency list settles, ties and stops as the loop
    over each node's CSR range did: the same distances, predecessor edges
    and reached target, on repeated edges, infinite weights and ties."""
    g, sources, targets, weights = case
    assert dijkstra(g, sources, targets, weights) == index_dijkstra(g, sources, targets, weights)


def test_dijkstra_keeps_first_of_tied_paths_and_stops_at_first_target():
    # s->a->t and s->b->t weigh the same; a has the lower index, so it is
    # settled first and t keeps a, whatever order s lists its neighbours in.
    g = label_graph([("s", "b", 1.0), ("s", "a", 1.0), ("a", "t", 1.0), ("b", "t", 1.0),
                     ("b", "u", 0.5)], energy=True)
    a, b, s, t, u = (g.index[v] for v in "abstu")

    def labels(prev, node):
        edges = path_edges(g, prev, node)
        return [g.nodes[g.tails[e]] for e in edges] + [g.nodes[node]]

    dist, prev, reached = dijkstra(g, [s])
    assert reached is None
    assert labels(prev, t) == ["s", "a", "t"]
    assert dist == [1.0, 1.0, 0.0, 2.0, 1.5]
    dist, prev, reached = dijkstra(g, [s], targets=[v in (t, u) for v in range(5)])
    assert reached == u and labels(prev, u) == ["s", "b", "u"]
    assert dist[t] == 2.0  # tentative, not settled
    assert dijkstra(g, [s], targets=[False] * 5)[2] is None
    # An infinite weight takes the edge out.
    cut = [math.inf if e == g.edges[("b", "u")] else w for e, w in enumerate(g.weights)]
    dist, _, _ = dijkstra(g, [s], weights=cut)
    assert dist[u] == math.inf


def test_topological_order_is_lexicographically_smallest_and_drops_cycles():
    order = topological_order("dcba", [("d", "a"), ("c", "b"), ("c", "b")])
    assert order == ["c", "b", "d", "a"]
    assert topological_order("abc", [("a", "b"), ("b", "a")]) == ["c"]


@settings(max_examples=200, deadline=None)
@given(tasks=task_unions())
def test_merged_order_matches_list_kahn(tasks):
    try:
        want = merged_topological_order(tasks)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _merged_topological_order(tasks)
        assert str(info.value) == str(exc)
        return
    assert _merged_topological_order(tasks) == want
    for dag in tasks:
        assert dag.topological_order() == merged_topological_order([dag])


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(graph=routing_graphs(), data=st.data())
def test_integer_planners_match_the_label_references(graph, data):
    """On shells (with and without ground nodes) and tied digraphs, every
    integer search equals its label-keyed reference: dijkstra's distances
    (by .hex()) and paths, select_disjoint_paths' paths and bottlenecks,
    dst_heuristic's tree and energy, and ShortestPaths' distances and paths
    against the whole-matrix Floyd-Warshall."""
    hexed = lambda values: [v.hex() for v in values]
    nodes, index = graph.nodes, graph.index
    source = data.draw(st.sampled_from(nodes))
    dist, prev, _ = dijkstra(graph, [index[source]])
    want, want_prev, _ = label_dijkstra(adjacency(graph), [source])
    assert hexed(dist) == hexed(want.get(v, math.inf) for v in nodes)
    for i, v in enumerate(nodes):
        if v in want:
            edges = path_edges(graph, prev, i)
            assert [nodes[graph.tails[e]] for e in edges] + [v] == label_path(want_prev, v)

    orbits = sorted({v.orbit_index for v in nodes if isinstance(v, SatelliteId)})
    if len(orbits) >= 2:
        src, dst = data.draw(st.permutations(orbits))[:2]
        max_paths = data.draw(st.one_of(st.none(), st.integers(1, 3)))
        got = select_disjoint_paths(graph, src, dst, max_paths)
        paths, bottlenecks = reference_disjoint_paths(graph, src, dst, max_paths)
        assert got.paths == paths and hexed(got.bottlenecks) == hexed(bottlenecks)

    terminals = frozenset(data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4)))
    inst = SteinerInstance(source, terminals)
    tree, ref = outcome(dst_heuristic, graph, inst), outcome(reference_dst_heuristic, graph, inst)
    assert tree == ref
    if not isinstance(tree, str):
        assert tree.total_energy.hex() == ref.total_energy.hex()

    sp = all_pairs_shortest(graph)
    fw, nxt = floyd_warshall(graph)
    j = index[data.draw(st.sampled_from(nodes))]
    assert sp.column(j)[0].tobytes() == fw[:, j].tobytes()
    for i, u in enumerate(nodes):
        assert shortest_path(sp, u, nodes[j]) == next_hop_path(nodes, nxt, i, j)


def test_import_leoplan_leaves_networkx_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, leoplan; print('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
