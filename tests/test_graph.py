import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoplan import AugmentedGraph, SatelliteId, select_disjoint_paths
from leoplan.deployment import _merged_topological_order
from leoplan.graph import dijkstra, path_to, topological_order

from oracles import (
    merged_topological_order,
    reference_disjoint_paths,
    task_unions,
    tied_orbit_digraphs,
)

REPO = Path(__file__).resolve().parents[1]


def test_digraph_keeps_insertion_order_and_last_edge_value():
    g = AugmentedGraph()
    g.add_node("c")
    g.add_edge("a", "b", 1.0)
    g.add_edge("c", "a", 2.0)
    g.add_edge("a", "b", 3.0)
    g.add_edge("a", "c", 4.0)
    assert g.nodes == ["c", "a", "b"]
    assert g.adjacency == {"c": ["a"], "a": ["b", "c"], "b": []}
    assert g.weighted_adjacency() == {"c": {"a": 2.0}, "a": {"b": 3.0, "c": 4.0}, "b": {}}
    assert g.sorted_nodes() == ["a", "b", "c"]


def test_dijkstra_keeps_first_of_tied_paths_and_stops_at_first_target():
    # s->a->t and s->b->t weigh the same; a sorts before b, so it is settled
    # first and t keeps a, whatever order s lists its neighbours in.
    adj = {"s": {"b": 1.0, "a": 1.0}, "a": {"t": 1.0}, "b": {"t": 1.0, "u": 0.5}}
    dist, prev, reached = dijkstra(adj, ["s"])
    assert reached is None
    assert path_to(prev, "t") == ["s", "a", "t"]
    assert dist == {"s": 0.0, "a": 1.0, "b": 1.0, "t": 2.0, "u": 1.5}
    dist, prev, reached = dijkstra(adj, ["s"], targets={"t", "u"})
    assert reached == "u" and path_to(prev, "u") == ["s", "b", "u"]
    assert "t" in dist  # tentative, not settled
    assert dijkstra(adj, ["s"], targets={"zz"})[2] is None


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


@settings(max_examples=200, deadline=None)
@given(graph=tied_orbit_digraphs(), max_paths=st.one_of(st.none(), st.integers(1, 3)),
       data=st.data())
def test_select_disjoint_paths_matches_reference_loop(graph, max_paths, data):
    orbits = sorted({n.orbit_index for n in graph.nodes if isinstance(n, SatelliteId)})
    src, dst = data.draw(st.permutations(orbits))[:2]
    got = select_disjoint_paths(graph, src, dst, max_paths)
    assert (got.paths, got.bottlenecks) == reference_disjoint_paths(graph, src, dst, max_paths)


def test_import_leoplan_leaves_networkx_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, leoplan; print('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
