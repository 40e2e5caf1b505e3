import math

import numpy as np
import pytest

from leoplan import (
    EnergyModel,
    Microservice,
    ServiceDag,
    SteinerInstance,
    SteinerTree,
    build_augmented_graph,
    dst_exact,
    dst_heuristic,
    validate_tree,
)
from leoplan.orchestration import stage_host_order

from oracles import (
    full_hosting_reduction_check,
    label_graph,
    random_steiner_instance,
    sat,
    shortest_path_sum,
    steiner_bruteforce,
    toy_snapshot,
)


def line_graph(weights):
    """Chain v0 -> v1 -> ... with the given forward weights."""
    return label_graph([(f"v{i}", f"v{i+1}", w) for i, w in enumerate(weights)], energy=True)


def energy(g, u, v):
    return g.weights[g.edges[(u, v)]]


def test_energy_model_validate():
    EnergyModel().validate()
    with pytest.raises(ValueError, match="nonnegative"):
        EnergyModel(e_tx_j_per_bit=-1.0).validate()


def test_augmented_graph_rejects_negative_or_infinite_energy():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    dag = ServiceDag("t", (Microservice("m", 0.0, 1.0, 0.0),), (), ("m",), "m")
    for bits in (-1.0, math.inf):
        with pytest.raises(ValueError, match="edge energy must be nonnegative and finite"):
            build_augmented_graph(snap, {"m": sat("o0s1")}, dag, EnergyModel(), sat("o0s0"),
                                  hop_payload_bits=bits)


def test_build_augmented_graph_energies():
    # Line o0s0 - o0s1 - o0s2; m1 on o0s1 (5e9 flops), m2 and m3 on o0s2
    # (3e9 + 1e9 flops); hop payload fixed at 8e6 bits.
    snap = toy_snapshot([("o0s0", "o0s1", 1e9), ("o0s1", "o0s2", 1e9)])
    dag = ServiceDag(
        "t",
        (Microservice("m1", 5e9, 1.0, 0.0), Microservice("m2", 3e9, 1.0, 0.0),
         Microservice("m3", 1e9, 1.0, 0.0)),
        (("m1", "m2", 1e6), ("m2", "m3", 2e6)),
        ("m1",),
        "m3",
    )
    assignment = {"m1": sat("o0s1"), "m2": sat("o0s2"), "m3": sat("o0s2")}
    model = EnergyModel(1e-9, 1e-9, 1e-12)
    g, inst = build_augmented_graph(snap, assignment, dag, model, sat("o0s0"),
                                    hop_payload_bits=8e6)
    assert inst.root == sat("o0s0")
    assert inst.terminals == frozenset({sat("o0s1"), sat("o0s2")})
    radio = 2e-9 * 8e6  # 0.016 J per hop
    assert abs(energy(g, sat("o0s0"), sat("o0s1")) - (radio + 5e9 * 1e-12)) < 1e-15
    assert abs(energy(g, sat("o0s1"), sat("o0s2")) - (radio + 4e9 * 1e-12)) < 1e-15
    assert abs(energy(g, sat("o0s1"), sat("o0s0")) - radio) < 1e-15
    tree = dst_exact(g, inst)
    assert abs(tree.total_energy - (0.021 + 0.020)) < 1e-12
    assert tree.edges == frozenset({(sat("o0s0"), sat("o0s1")),
                                    (sat("o0s1"), sat("o0s2"))})
    validate_tree(g, inst, tree)


def test_build_augmented_graph_default_hop_payload():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    dag = ServiceDag("t", (Microservice("m", 0.0, 1.0, 0.0),), (), ("m",), "m")
    assignment = {"m": sat("o0s1")}
    g, _ = build_augmented_graph(snap, assignment, dag, EnergyModel(1e-9, 1e-9, 0.0),
                                 sat("o0s0"))
    # No DAG edges: default hop payload is 0, so edges cost only compute.
    assert energy(g, sat("o0s0"), sat("o0s1")) == 0.0

    dag2 = ServiceDag("t", (Microservice("m", 0.0, 1.0, 0.0),
                            Microservice("n", 0.0, 1.0, 0.0)),
                      (("m", "n", 5e6),), ("m",), "n")
    g2, _ = build_augmented_graph(snap, {"m": sat("o0s1"), "n": sat("o0s1")}, dag2,
                                  EnergyModel(1e-9, 1e-9, 0.0), sat("o0s0"))
    assert abs(energy(g2, sat("o0s0"), sat("o0s1")) - 2e-9 * 5e6) < 1e-15


def test_build_augmented_graph_unplaced_error():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    dag = ServiceDag("t", (Microservice("m", 0.0, 1.0, 0.0),), (), ("m",), "m")
    with pytest.raises(ValueError, match="microservice m is not placed"):
        build_augmented_graph(snap, {}, dag, EnergyModel(), sat("o0s0"))


def test_build_augmented_graph_gateway_terminal():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9), ("o0s1", "o0s2", 1e9)])
    dag = ServiceDag("t", (Microservice("m", 0.0, 1.0, 0.0),), (), ("m",), "m")
    g, inst = build_augmented_graph(snap, {"m": sat("o0s1")}, dag, EnergyModel(),
                                    sat("o0s0"), gateway=sat("o0s2"))
    assert inst.terminals == frozenset({sat("o0s1"), sat("o0s2")})


@pytest.mark.parametrize("root, gateway, host", [
    ("o9s9", None, "o0s1"), ("o0s0", "o9s9", "o0s1"), ("o0s0", "o0s2", "o9s9")])
def test_build_augmented_graph_rejects_a_satellite_outside_the_snapshot(root, gateway, host):
    """A root, gateway or host the snapshot lacks would give a tree with no
    edges and no energy; it is rejected by name."""
    snap = toy_snapshot([("o0s0", "o0s1", 1e9), ("o0s1", "o0s2", 1e9)])
    dag = ServiceDag("t", (Microservice("m", 1e9, 1.0, 0.0),), (), ("m",), "m")
    with pytest.raises(ValueError, match="satellite o9s9 not in the snapshot"):
        build_augmented_graph(snap, {"m": sat(host)}, dag, EnergyModel(), sat(root),
                              gateway=None if gateway is None else sat(gateway))


def test_dst_exact_beats_heuristic_when_sharing_pays():
    # Hub v1 reaches both terminals for 1 apiece; direct edges cost 1.9 each.
    # Dijkstra sends each terminal down its cheaper direct path (3.8 total),
    # the optimum shares the hub (3.0).
    g = label_graph([("root", "v1", 1.0), ("v1", "t1", 1.0), ("v1", "t2", 1.0),
                     ("root", "t1", 1.9), ("root", "t2", 1.9)], energy=True)
    inst = SteinerInstance("root", frozenset({"t1", "t2"}))
    heur = dst_heuristic(g, inst)
    exact = dst_exact(g, inst)
    assert abs(heur.total_energy - 3.8) < 1e-12
    assert abs(exact.total_energy - 3.0) < 1e-12
    assert exact.edges == frozenset({("root", "v1"), ("v1", "t1"), ("v1", "t2")})
    validate_tree(g, inst, heur)
    validate_tree(g, inst, exact)


def test_dst_chain():
    g = line_graph([0.5, 0.25, 0.125])
    inst = SteinerInstance("v0", frozenset({"v3"}))
    assert dst_exact(g, inst).total_energy == 0.875
    assert dst_heuristic(g, inst).total_energy == 0.875
    assert shortest_path_sum(g, inst) == 0.875


def test_dst_root_is_terminal():
    # Both solvers report the edgeless tree's energy as the float 0.0.
    g = line_graph([1.0])
    inst = SteinerInstance("v0", frozenset({"v0"}))
    tree = dst_exact(g, inst)
    assert tree.total_energy == 0.0 and tree.edges == frozenset()
    validate_tree(g, inst, tree)
    heur = dst_heuristic(g, inst)
    assert heur.edges == frozenset()
    assert type(heur.total_energy) is type(tree.total_energy) is float
    assert heur.total_energy.hex() == tree.total_energy.hex()


def test_dst_exact_size_bounds():
    g = line_graph([1.0] * 14)
    with pytest.raises(ValueError, match="size bound exceeded: 15 nodes > 12"):
        dst_exact(g, SteinerInstance("v0", frozenset({"v1"})))
    g2 = label_graph([("r", f"t{i}", 1.0) for i in range(8)], energy=True)
    with pytest.raises(ValueError, match="size bound exceeded: 7 terminals > 6"):
        dst_exact(g2, SteinerInstance("r", frozenset(f"t{i}" for i in range(7))))


def test_dst_unreachable_terminal():
    g = label_graph([("r", "a", 1.0)], nodes=("b",), energy=True)
    inst = SteinerInstance("r", frozenset({"b"}))
    with pytest.raises(ValueError, match="terminal b unreachable from root r"):
        dst_exact(g, inst)
    with pytest.raises(ValueError, match="terminal b unreachable from root r"):
        dst_heuristic(g, inst)
    with pytest.raises(ValueError, match="terminal b unreachable from root r"):
        shortest_path_sum(g, inst)
    # A terminal, or the root, that is not in the graph is unreachable too.
    for root, terminal in (("r", "c"), ("x", "a")):
        inst = SteinerInstance(root, frozenset({terminal}))
        for solver in (dst_exact, dst_heuristic):
            with pytest.raises(ValueError,
                               match=f"terminal {terminal} unreachable from root {root}"):
                solver(g, inst)
    with pytest.raises(ValueError, match="terminal set must be nonempty"):
        SteinerInstance("r", frozenset()).validate()


def test_dst_exact_matches_bruteforce():
    # The last 60 instances make about 40% of their edges free (0.0), as a
    # hop with zero payload into a host with zero flops weighs, so paths tie
    # and zero-weight cycles enter the all-pairs matrix.
    rng = np.random.default_rng(77)
    for k in range(120):
        g, inst = random_steiner_instance(rng, max_nodes=6, max_terminals=3,
                                          extra_p=0.3, free_p=0.4 if k >= 60 else 0.0)
        exact = dst_exact(g, inst)
        heur = dst_heuristic(g, inst)
        want = steiner_bruteforce(g, inst)
        assert abs(exact.total_energy - want) < 1e-9
        assert heur.total_energy >= exact.total_energy - 1e-12
        assert heur.total_energy <= shortest_path_sum(g, inst) + 1e-12
        validate_tree(g, inst, exact)
        validate_tree(g, inst, heur)


def test_validate_tree_errors():
    g = label_graph([("r", "a", 1.0), ("a", "b", 1.0), ("b", "a", 1.0), ("b", "r", 1.0)],
                    energy=True)
    inst = SteinerInstance("r", frozenset({"b"}))
    with pytest.raises(ValueError, match="empty tree cannot reach terminals"):
        validate_tree(g, inst, SteinerTree(frozenset(), 0.0))
    with pytest.raises(ValueError, match="a node has two parents"):
        validate_tree(g, inst, SteinerTree(frozenset({("r", "a"), ("b", "a"),
                                                      ("a", "b")}), 3.0))
    with pytest.raises(ValueError, match="root must not have a parent"):
        validate_tree(g, inst, SteinerTree(frozenset({("r", "a"), ("a", "b"),
                                                      ("b", "r")}), 3.0))
    with pytest.raises(ValueError, match="terminals not covered"):
        validate_tree(g, inst, SteinerTree(frozenset({("r", "a")}), 1.0))
    with pytest.raises(ValueError, match="not reachable from the root"):
        validate_tree(g, SteinerInstance("r", frozenset({"b"})),
                      SteinerTree(frozenset({("a", "b")}), 1.0))


def test_full_hosting_reduction():
    # All nodes are terminals: the exact Steiner tree must weigh the same as
    # the minimum spanning arborescence.
    rng = np.random.default_rng(1234)
    for _ in range(15):
        g, _ = random_steiner_instance(rng, max_nodes=6, extra_p=0.4)
        nodes = g.nodes
        inst = SteinerInstance(nodes[0], frozenset(nodes))
        if len(inst.terminals - {inst.root}) > 6:
            continue
        report = full_hosting_reduction_check(g, inst)
        assert report.equal_within_tol, (report.dst_energy, report.arborescence_energy)
        assert abs(report.dst_energy - report.arborescence_energy) < 1e-9


def test_stage_host_order():
    dag = ServiceDag(
        "t",
        (Microservice("b", 1.0, 1.0, 0.0), Microservice("a", 1.0, 1.0, 0.0)),
        (("a", "b", 1.0),),
        ("a",),
        "b",
    )
    assert stage_host_order(dag, {"a": "h1", "b": "h2"}) == [("a", "h1"), ("b", "h2")]
