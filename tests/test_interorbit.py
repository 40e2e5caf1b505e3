import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leoplan import (
    ConstellationSpec,
    EnergyModel,
    LinkConfig,
    Microservice,
    PathSet,
    SatelliteId,
    ServiceDag,
    all_pairs_shortest,
    build_augmented_graph,
    build_walker,
    parse_scenario,
    build_weighted_graph,
    parallel_transfer_time,
    select_disjoint_paths,
    node_key,
    snapshot,
)
from leoplan import constellation, graph
from leoplan.constellation import LinkKind
from leoplan.graph import pivot_columns

import numpy as np

from oracles import (
    brute_route_metrics,
    dijkstra_distances,
    edge_values,
    floyd_warshall,
    graph_hex,
    label_graph,
    links_graph,
    next_hop_path,
    perfbench_module,
    reference_disjoint_paths,
    random_rate_digraph,
    random_sparse_digraph,
    reference_node_energy,
    shortest_path,
    toy_snapshot,
    walker_specs,
)


def distance(sp, u, v) -> float:
    """The u -> v distance, read off v's destination column."""
    return float(sp.column(sp.index[v])[0][sp.index[u]])


def test_repeated_link_keeps_its_last_values_once():
    g = build_weighted_graph(toy_snapshot([("o0s0", "o0s1", 1e6), ("o0s0", "o0s1", 2e6, 0.5)]))
    a, b = SatelliteId.parse("o0s0"), SatelliteId.parse("o0s1")
    assert g.edges == {(a, b): 0, (b, a): 1}
    assert (g.capacities, g.propagation) == ([2e6, 2e6], [0.5, 0.5])


def test_build_graph_is_bidirectional():
    snap = toy_snapshot([("o0s0", "o0s1", 4e6, 0.01)])
    g = build_weighted_graph(snap)
    a, b = SatelliteId.parse("o0s0"), SatelliteId.parse("o0s1")
    assert g.weights[g.edges[(a, b)]] == 1.0 / 4e6
    assert g.propagation[g.edges[(b, a)]] == 0.01


def test_isolated_satellites_still_nodes():
    # Satellites with no links must appear so queries return unreachable, not KeyError.
    snap = toy_snapshot([("o0s0", "o0s1", 1e6)], extra_sats=("o5s0",))
    g = build_weighted_graph(snap)
    assert len(g.nodes) == 3
    sp = all_pairs_shortest(g)
    a, c = SatelliteId.parse("o0s0"), SatelliteId.parse("o5s0")
    assert distance(sp, a, c) == math.inf
    assert shortest_path(sp, a, c) is None
    with pytest.raises(ValueError, match="no route from o0s0 to o5s0"):
        sp.transfer_at(sp.index[a], sp.index[c], 1.0)


def test_shortest_path_hand_case():
    # Two hops at 1e6 (total weight 2e-6) beat the direct 4e5 edge (2.5e-6).
    snap = toy_snapshot([("o0s0", "o0s1", 1e6), ("o0s1", "o0s2", 1e6),
                         ("o0s0", "o0s2", 4e5)])
    g = build_weighted_graph(snap)
    sp = all_pairs_shortest(g)
    a, b, c = (SatelliteId.parse(x) for x in ("o0s0", "o0s1", "o0s2"))
    assert abs(distance(sp, a, c) - 2e-6) < 1e-18
    assert shortest_path(sp, a, c) == [a, b, c]
    i, j = sp.index[a], sp.index[c]
    assert sp.transfer_at(i, j, 3e6) == 3e6 / 1e6 + 0.0  # bottleneck 1e6, no propagation
    assert sp.transfer_at(i, i, 3e6) == 0.0
    assert distance(sp, a, a) == 0.0


def route_metrics(g):
    """The weight, capacity and propagation dicts brute_route_metrics reads."""
    return edge_values(g), edge_values(g, g.capacities), edge_values(g, g.propagation)


def test_transfer_by_node_and_by_index_agree():
    snap = toy_snapshot([("o0s0", "o0s1", 1e6, 0.02), ("o0s1", "o0s2", 4e5, 0.01)],
                        extra_sats=("o5s0",))
    g = build_weighted_graph(snap)
    sp = all_pairs_shortest(g)
    a, c, d = (SatelliteId.parse(x) for x in ("o0s0", "o0s2", "o5s0"))
    i, j = sp.index[a], sp.index[c]
    bottleneck, prop = brute_route_metrics(*route_metrics(g), a, c)
    assert sp.transfer_at(i, j, 2e6) == 2e6 / bottleneck + prop == 2e6 / 4e5 + 0.03
    assert sp.transfer_at(sp.index[d], sp.index[d], 1.0) == 0.0
    assert brute_route_metrics(*route_metrics(g), a, d) is None
    with pytest.raises(ValueError, match="no route from o0s0 to o5s0: hosts not connected"):
        sp.transfer_at(i, sp.index[d], 1.0)


def test_all_pairs_matches_dijkstra_exactly():
    # Power-of-two rates make every path weight an exact dyadic sum, so the
    # two algorithms must agree bit for bit.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g, weights = random_rate_digraph(rng)
        sp = all_pairs_shortest(g)
        for src in g.nodes:
            ref = dijkstra_distances(weights, src)
            for dst in g.nodes:
                got = distance(sp, src, dst)
                want = ref.get(dst, math.inf)
                assert got == want, (src, dst, got, want)


def test_path_metrics_match_bruteforce():
    """transfer_at books bits over the bottleneck plus the propagation of the
    min-weight path that enumerating every simple path finds. Generic rates
    and delays make that path unique, so both sum the same delays in order."""
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(60):
        names = [f"n{i}" for i in range(int(rng.integers(2, 8)))]
        edges = []
        for u in names:
            for v in names:
                if u != v and rng.random() < 0.35:
                    edges.append((u, v, float(rng.uniform(1e6, 1e9)),
                                  float(rng.uniform(0.0, 0.02))))
        g = label_graph(edges, names)
        sp = all_pairs_shortest(g)
        for i, u in enumerate(sp.nodes):
            for j, v in enumerate(sp.nodes):
                want = brute_route_metrics(*route_metrics(g), u, v)
                if want is None:
                    with pytest.raises(ValueError, match=f"no route from {u} to {v}"):
                        sp.transfer_at(i, j, 1e6)
                    continue
                assert sp.transfer_at(i, j, 1e6) == 1e6 / want[0] + want[1]
                checked += 1
    assert checked > 500


def assert_same_routes(g, sources):
    """Every destination column of ShortestPaths equals the whole-matrix
    reference bit for bit, and its path() lists from the given source
    indices equal the reference's. Any Topology works: the columns are the
    pivot pass plus replay that dst_exact also reads."""
    sp = all_pairs_shortest(g)
    dist, nxt = floyd_warshall(g)
    assert sp.nodes == sorted(g.nodes, key=node_key)
    for j in range(len(sp.nodes)):
        col, hop = sp.column(j)
        assert col.dtype == dist.dtype and col.tobytes() == dist[:, j].tobytes()
        assert np.array_equal(hop, nxt[:, j])
    for i in sources:
        for j, dst in enumerate(sp.nodes):
            assert shortest_path(sp, sp.nodes[i], dst) == next_hop_path(sp.nodes, nxt, i, j)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 261])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), out_degree=st.floats(0.5, 4.0),
       isolated_share=st.sampled_from([0.0, 0.1, 0.5]),
       weights=st.sampled_from(["rate", "tied", "energy"]))
@example(seed=12, out_degree=3.0, isolated_share=0.1, weights="energy")
def test_all_pairs_matches_whole_matrix_reference(n, seed, out_degree, isolated_share, weights):
    """Sizes run from one node to 261, so a pivot's finite spans range from
    empty to hundreds of rows and columns. Energy weights include free (0.0)
    edges, as Steiner graphs have them."""
    rng = np.random.default_rng(seed)
    g = random_sparse_digraph(rng, n, out_degree, isolated_share, weights)
    assert_same_routes(g, sources=range(n))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 261])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), out_degree=st.floats(0.5, 4.0),
       isolated_share=st.sampled_from([0.0, 0.1, 0.5]),
       weights=st.sampled_from(["rate", "tied", "energy"]),
       declared_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_declared_destinations_match_whole_matrix_reference(n, seed, out_degree, isolated_share,
                                                            weights, declared_share):
    """A table given its destinations keeps exactly their columns, each with
    the distance bytes and next hops of the whole-matrix reference, and
    every other destination raises. Destinations may come in any order and
    repeat."""
    rng = np.random.default_rng(seed)
    g = random_sparse_digraph(rng, n, out_degree, isolated_share, weights)
    declared = np.flatnonzero(rng.random(n) < declared_share).tolist()
    table = all_pairs_shortest(g, declared[::-1] + declared[:1])
    dist, nxt = floyd_warshall(g)
    assert sorted(table._columns) == declared
    for j in declared:
        col, hop = table.column(j)
        assert col.tobytes() == dist[:, j].tobytes()
        assert hop.dtype == graph._hop_dtype(n) and np.array_equal(hop, nxt[:, j])
    for j in sorted(set(range(n)) - set(declared))[:3]:
        message = f"destination {j} \\({table.nodes[j]}\\) was not declared"
        with pytest.raises(ValueError, match=message):
            table.column(j)
        with pytest.raises(ValueError, match=message):
            table.hops(0, j)


def test_a_table_with_no_destinations_builds_and_serves_none(monkeypatch):
    """A zero-node graph and an empty declared set build a table without a
    pivot pass (the replay starts at the first destination), and each
    request raises its error."""
    from leoplan import interorbit

    def unexpected(*args):
        raise AssertionError("an empty route table ran a Floyd-Warshall pass")

    monkeypatch.setattr(interorbit, "pivot_columns", unexpected)
    monkeypatch.setattr(interorbit, "replay_columns", unexpected)
    empty = all_pairs_shortest(label_graph([]))
    assert empty.nodes == [] and empty._columns == {}
    for call in (lambda: empty.column(0), lambda: empty.hops(0, 0),
                 lambda: empty.transfer_at(0, 0, 1e6)):
        with pytest.raises(ValueError, match="^node index 0 outside 0..-1$"):
            call()
    g = build_weighted_graph(toy_snapshot([("o0s0", "o0s1", 1e6), ("o0s1", "o0s2", 1e6)]))
    table = all_pairs_shortest(g, [])
    assert table._columns == {}
    for j, node in enumerate(table.nodes):
        message = f"^destination {j} \\({node}\\) was not declared to this route table$"
        for call in (lambda: table.column(j), lambda: table.hops(0, j),
                     lambda: table.transfer_at((j + 1) % 3, j, 1e6)):
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize("n, dtype", [(0, np.int8), (1, np.int8), (128, np.int8),
                                      (129, np.int16), (32768, np.int16), (32769, np.int32)])
def test_next_hops_take_the_narrowest_signed_type(n, dtype):
    # Checked on the rule alone: an n x n table at 32,769 nodes would take
    # gigabytes.
    assert graph._hop_dtype(n) == dtype
    assert np.iinfo(dtype).min <= -1 and n - 1 <= np.iinfo(dtype).max


def test_route_table_rejects_a_node_index_outside_the_graph():
    # A negative index used to alias a node counted from the end:
    # transfer_at(0, -1, ...) reported a missing route to o2s3.
    walker = build_walker(ConstellationSpec(3, 4, 550.0, 53.0, phasing_factor=1))
    g = build_weighted_graph(snapshot(walker, 0.0, LinkConfig()))
    n = len(g.nodes)
    for bad in (-1, n):
        with pytest.raises(ValueError, match=f"node index {bad} outside 0..{n - 1}$"):
            all_pairs_shortest(g, [0, bad])
    for sp in (all_pairs_shortest(g), all_pairs_shortest(g, [0, n // 2])):
        for bad in (-1, n):
            for call in (lambda: sp.column(bad), lambda: sp.hops(bad, 0),
                         lambda: sp.hops(0, bad), lambda: sp.transfer_at(0, bad, 1e6),
                         lambda: sp.transfer_at(bad, 0, 1e6),
                         lambda: sp.transfer_at(bad, bad, 1e6)):
                with pytest.raises(ValueError, match=f"node index {bad} outside 0..{n - 1}$"):
                    call()
        assert -1 not in sp._columns and n not in sp._columns


def shell_graph(cross_seam_policy="disabled"):
    walker = build_walker(ConstellationSpec(12, 22, 550.0, 53.0, phasing_factor=1))
    g = build_weighted_graph(snapshot(walker, 0.0,
                                      LinkConfig(cross_seam_policy=cross_seam_policy)))
    assert len(g.nodes) == 264
    return g


def test_all_pairs_matches_reference_on_a_shell_snapshot():
    assert_same_routes(shell_graph(), sources=(0, 131, 263))


def test_all_pairs_matches_reference_on_a_cross_seam_shell():
    g = shell_graph("enabled")
    # The seam links give o0s0 neighbours in the last orbit, so the finite
    # span of its pivot row already runs into the last orbit.
    dist, _ = pivot_columns(g)
    assert np.flatnonzero(np.isfinite(dist[0]))[-1] >= 264 - 22
    assert_same_routes(g, sources=(0, 131, 263))


def test_unconnected_pair_keeps_its_error_and_matches_reference():
    # Two rings with no link between them: replays skip every pivot of the
    # other ring, and a transfer across still raises the no-route error.
    ring = [("o0s0", "o0s1", 1e9), ("o0s1", "o0s2", 2e9), ("o0s2", "o0s0", 1e9)]
    other = [("o1s0", "o1s1", 1e9), ("o1s1", "o1s2", 1e9), ("o1s2", "o1s0", 4e9)]
    g = build_weighted_graph(toy_snapshot(ring + other))
    assert_same_routes(g, sources=range(6))
    sp = all_pairs_shortest(g)
    a, b = SatelliteId.parse("o0s1"), SatelliteId.parse("o1s2")
    assert distance(sp, a, b) == math.inf and shortest_path(sp, a, b) is None
    with pytest.raises(ValueError, match="no route from o0s1 to o1s2: hosts not connected "
                                         "in the snapshot"):
        sp.transfer_at(sp.index[a], sp.index[b], 1.0)


def test_disjoint_paths_rectangle():
    # Two orbits, two slots, all four edges equal: two fully disjoint paths.
    links = [("o0s0", "o0s1", 10e9), ("o1s0", "o1s1", 10e9),
             ("o0s0", "o1s0", 2e9), ("o0s1", "o1s1", 2e9)]
    snap = toy_snapshot(links)
    g = build_weighted_graph(snap)
    ps = select_disjoint_paths(g, 0, 1)
    assert len(ps) == 2
    assert ps.bottlenecks == (2e9, 2e9)
    assert {p[0].orbit_index for p in ps.paths} == {0}
    assert {p[-1].orbit_index for p in ps.paths} == {1}
    used = set()
    for p in ps.paths:
        for e in zip(p, p[1:]):
            assert e not in used
            used.add(e)


def test_disjoint_paths_shared_bridge():
    # Only one inter-orbit edge exists; a second path cannot reuse it.
    links = [("o0s0", "o0s1", 10e9), ("o1s0", "o1s1", 10e9),
             ("o0s0", "o1s0", 2e9)]
    snap = toy_snapshot(links)
    g = build_weighted_graph(snap)
    ps = select_disjoint_paths(g, 0, 1)
    assert len(ps) == 1
    assert [s.label for s in ps.paths[0]] == ["o0s0", "o1s0"]
    assert ps.bottlenecks == (2e9,)


def test_disjoint_paths_prefer_low_weight():
    # A fast 2-hop detour beats a slow direct edge on 1/rate weight.
    links = [("o0s0", "o2s0", 1e6), ("o0s0", "o1s0", 1e9), ("o1s0", "o2s0", 1e9)]
    snap = toy_snapshot(links)
    g = build_weighted_graph(snap)
    ps = select_disjoint_paths(g, 0, 2)
    assert [s.label for s in ps.paths[0]] == ["o0s0", "o1s0", "o2s0"]
    assert len(ps) == 2  # the slow direct edge still gives a second path
    assert ps.bottlenecks == (1e9, 1e6)


def test_disjoint_paths_max_paths_and_same_orbit():
    links = [("o0s0", "o1s0", 2e9), ("o0s1", "o1s1", 2e9),
             ("o0s0", "o0s1", 10e9), ("o1s0", "o1s1", 10e9)]
    g = build_weighted_graph(toy_snapshot(links))
    assert len(select_disjoint_paths(g, 0, 1, max_paths=1)) == 1
    with pytest.raises(ValueError, match="orbits must differ"):
        select_disjoint_paths(g, 1, 1)


@pytest.mark.parametrize("src, dst, max_paths, message", [
    (2, 1, None, "orbit 2 has no satellite in the graph"),
    (-1, 1, None, "orbit -1 has no satellite in the graph"),
    (0, 42, None, "orbit 42 has no satellite in the graph"),
    (0, 1, 0, "max_paths must be at least 1"),
    (0, 1, -3, "max_paths must be at least 1"),
])
def test_disjoint_paths_reject_missing_orbit_and_bad_path_count(src, dst, max_paths, message):
    links = [("o0s0", "o1s0", 2e9), ("o0s0", "o0s1", 10e9)]
    g = build_weighted_graph(toy_snapshot(links))
    with pytest.raises(ValueError, match=message):
        select_disjoint_paths(g, src, dst, max_paths)


def test_disjoint_paths_of_a_disconnected_orbit_pair_are_empty():
    # Both orbits have satellites, so no path is a valid answer, not an error.
    g = build_weighted_graph(toy_snapshot([("o0s0", "o0s1", 10e9), ("o1s0", "o1s1", 10e9)]))
    assert select_disjoint_paths(g, 0, 1) == PathSet((), ())


def test_disjoint_paths_deterministic():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g, _ = random_rate_digraph(rng)
        # random_rate_digraph uses string nodes; build an orbit-labelled copy
        labels = {n: SatelliteId(i % 2, i // 2) for i, n in enumerate(g.nodes)}
        g2 = label_graph([(labels[u], labels[v], g.capacities[e], g.propagation[e])
                          for (u, v), e in g.edges.items()], labels.values())
        a = select_disjoint_paths(g2, 0, 1)
        b = select_disjoint_paths(g2, 0, 1)
        assert a == b


def test_parallel_transfer_time():
    links = [("o0s0", "o1s0", 2e9), ("o0s1", "o1s1", 3e9),
             ("o0s0", "o0s1", 10e9), ("o1s0", "o1s1", 10e9)]
    g = build_weighted_graph(toy_snapshot(links))
    ps = select_disjoint_paths(g, 0, 1)
    assert sum(ps.bottlenecks) == 5e9
    assert abs(parallel_transfer_time(ps, 1e9) - 0.2) < 1e-15
    assert parallel_transfer_time(ps, 0.0) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        parallel_transfer_time(ps, -1.0)


@pytest.mark.parametrize("bits", [math.nan, math.inf])
def test_parallel_transfer_rejects_a_non_finite_payload(bits):
    links = [("o0s0", "o1s0", 2e9)]
    ps = select_disjoint_paths(build_weighted_graph(toy_snapshot(links)), 0, 1)
    with pytest.raises(ValueError, match="payload_bits must be nonnegative and finite"):
        parallel_transfer_time(ps, bits)


def test_parallel_transfer_no_paths():
    with pytest.raises(ValueError, match="orbits unreachable"):
        parallel_transfer_time(PathSet((), ()), 1e6)


def test_demo_shell_routes_exist():
    walker = build_walker(ConstellationSpec(6, 11, 550.0, 53.0, phasing_factor=1))
    snap = snapshot(walker, 0.0, LinkConfig())
    g = build_weighted_graph(snap)
    sp = all_pairs_shortest(g)
    src, dst = SatelliteId(0, 0), SatelliteId(3, 5)
    assert distance(sp, src, dst) < math.inf
    path = shortest_path(sp, src, dst)
    assert path[0] == src and path[-1] == dst
    for a, b in zip(path, path[1:]):
        assert (a, b) in g.edges


def test_disjoint_paths_on_a_72x22_shell_match_the_reference():
    """The benchmark's shell_plan request on a 1,584-satellite shell: the
    integer selection returns the label-keyed reference's paths and
    bottlenecks (a correctness check; nothing is timed)."""
    inp = perfbench_module("workloads").shell_plan_input(0, 1, orbits=72, slots=22)
    scn, req = parse_scenario(inp["scenario"]), inp["request"]
    g = build_weighted_graph(snapshot(build_walker(scn.constellation), req["time"],
                                      scn.link_config))
    assert len(g.nodes) == 1584
    got = select_disjoint_paths(g, req["source_orbit"], req["dest_orbit"])
    paths, bottlenecks = reference_disjoint_paths(g, req["source_orbit"], req["dest_orbit"])
    assert len(got) == len(paths) > 0
    assert got.paths == paths
    assert [b.hex() for b in got.bottlenecks] == [b.hex() for b in bottlenecks]


@st.composite
def snapshots(draw):
    """A walker_specs shell's snapshot at a drawn instant, or a hand-made one
    whose links over six satellites repeat, either way round."""
    if draw(st.booleans()):
        config = LinkConfig(max_isl_range_km=draw(st.sampled_from([1500.0, 5500.0, 15000.0])),
                            cross_seam_policy=draw(st.sampled_from(["disabled", "enabled"])))
        return snapshot(build_walker(draw(walker_specs())), draw(st.floats(0.0, 6000.0)), config)
    labels = [f"o{o}s{s}" for o in range(2) for s in range(3)]
    links = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels),
                                    st.sampled_from([1e6, 2e9, 3e9]), st.floats(0.0, 0.1)),
                          max_size=12).map(lambda ls: [l for l in ls if l[0] != l[1]]))
    return toy_snapshot(links, extra_sats=labels[:1])


@settings(max_examples=150, deadline=None)
@given(snap=snapshots(), data=st.data())
def test_graphs_over_one_snapshot_equal_fresh_builds(snap, data):
    """The weighted graph and an energy graph over one snapshot share its CSR
    structure, and each equals a fresh Topology built from the snapshot's
    Link objects (by .hex()), repeated links included."""
    weighted = build_weighted_graph(snap)
    assert weighted.csr is snap.csr
    assert graph_hex(weighted) == graph_hex(links_graph(snap))

    nodes = snap.numbered[0]
    count = data.draw(st.integers(1, 4))
    services = tuple(Microservice(f"m{k}", data.draw(st.floats(0.0, 1e12)), 1.0, 0.0)
                     for k in range(count))
    edges = tuple((f"m{k}", f"m{k + 1}", data.draw(st.floats(0.0, 1e7)))
                  for k in range(count - 1))
    dag = ServiceDag("t", services, edges, ("m0",), f"m{count - 1}")
    assignment = {svc.id: data.draw(st.sampled_from(nodes)) for svc in services}
    model = EnergyModel()
    energy, _ = build_augmented_graph(snap, assignment, dag, model, nodes[0])
    assert energy.csr is snap.csr
    joules = reference_node_energy(nodes, assignment, dag, model,
                                   max((bits for _, _, bits in edges), default=0.0))
    assert graph_hex(energy) == graph_hex(links_graph(snap, joules))


def test_a_shell_plan_op_builds_no_link_and_sorts_its_edges_once(monkeypatch):
    """The benchmark's shell_plan op reads its snapshot only as the edge
    table: it builds no Link object, and its weighted graph, the placement
    routes and every energy graph share the one CSR structure it sorts."""
    workloads = perfbench_module("workloads")
    made, sorts = [], []
    link, init = constellation.Link, graph.CsrEdges.__init__

    def counted(self, *args):
        sorts.append(args)
        init(self, *args)

    monkeypatch.setattr(constellation, "Link", lambda *a, **k: made.append(a) or link(*a, **k))
    monkeypatch.setattr(graph.CsrEdges, "__init__", counted)
    result = workloads.shell_plan_op(workloads.shell_plan_input(0, 0))
    assert workloads.shell_plan_check(result) == []
    assert made == [] and len(sorts) == 1
    csr = result["graph"].csr
    assert result["instance"]._routes.graph.csr is csr
    assert result["trees"] and all(e["graph"].csr is csr for e in result["trees"].values())
