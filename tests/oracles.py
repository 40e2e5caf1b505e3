"""Reference implementations and random instance builders for the test suite.

The reference algorithms are deliberately slow and obvious: exhaustive cut
enumeration, textbook Dijkstra over plain dicts, brute-force subset search.
They share no code with the library, so agreement between the two is
meaningful evidence rather than a tautology. The one exception is
run_length_windows, which takes the library's visibility samples so that
only the run detection under test differs. floyd_warshall and
reference_visibility keep the library's earlier whole-array formulations,
so the faster versions must reproduce them bit for bit (floyd_warshall is
the matrix that leoplan.graph's pivot pass plus per-destination replay
serves to routing and to dst_exact, over any Topology's weights); likewise
merged_topological_order, label_dijkstra, reference_dst_heuristic and
multi_source_dijkstra keep the label-keyed loops that leoplan.graph's
integer ones replaced, reference_dag_cycle the recursive search validate_dag
replaced, reference_objective the from-scratch placement objective (its
optimistic mode the exact solver's bound), reference_action_features,
reference_greedy and reference_solve_exact the placement code that
re-evaluated it for every candidate or child,
reference_train_policy_gradient the training loop that rebuilt every state's
features and drew with Generator.choice, and
reference_max_flow and reference_schedule_downlink the dict-keyed max-flow
and the scheduler that tested every window in every epoch and built each
epoch's network with build_flow_network, which copies the live windows,
sorts them and re-validates the state (it takes only _overlap and
FlowNetwork from the library).
reference_simulate_round is the federated round that validated its inputs
and planned both ring collectives every round, and
reference_simulate_fine_tuning chains it round by round.
compensated_sum is builtin sum() as CPython 3.12 computes it.
check_feasible is the dict-keyed flow check that max_flow's integer-slot
check must agree with. reference_station_frames rotates the stations as
_station_frames did before their geometry was built once per campaign, and
elevation_deg measures elevation one sample at a time.
rollout, policy_distribution and evaluate_policy play a linear softmax
policy step by step through DeploymentMdp, taking the softmax in numpy's
method-call form (reference_softmax) and drawing with Generator.choice,
and uniform_all_reduce_time is the ring all-reduce closed form.
full_hosting_reduction_check runs the library's dst_exact against networkx's
Edmonds arborescence. reference_snapshot builds snapshot's links one at a
time with a per-link np.linalg.norm, as snapshot did before its lengths were
vectorised. label_graph builds a Topology from labelled edges for the
hand-made and random graphs, and adjacency and edge_values read one back as
the label-keyed dicts the references take.
"""

from __future__ import annotations

import builtins
import heapq
import importlib.util
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from leoplan import (
    ConstellationSpec,
    ContactWindow,
    FlowNetwork,
    GroundStation,
    LatencyModel,
    Link,
    LinkConfig,
    LinkKind,
    Microservice,
    Router,
    SatelliteId,
    SatelliteNode,
    ServiceDag,
    SteinerInstance,
    SteinerTree,
    TopologySnapshot,
    Topology,
    build_walker,
    build_weighted_graph,
    contact_windows,
    dag_latency,
    dst_exact,
    parallel_transfer_time,
    parse_scenario,
    schedule_downlink,
    select_disjoint_paths,
    node_key,
    snapshot,
)
from leoplan.collective import RingSpec, plan_all_gather, plan_all_reduce
from leoplan.constellation import (_BLOCK_OFFSETS, _SIEVE_BLOCK, EARTH_ROTATION_RAD_S,
                                   LIGHT_SPEED_KM_S, _norms, _station_frames, _StationGeometry,
                                   _visible_samples)
from leoplan import deployment
from leoplan.deployment import (DEAD_END_REWARD, LEARNING_RATE, N_FEATURES, DeploymentPlan,
                                TrainingReport)
from leoplan.sgl_flow import (FLOW_TOL, SINK, SOURCE, DownlinkResult, DownlinkState, EpochFlow,
                              FlowAssignment, _overlap)
from leoplan.simkernel import PHASES, RoundTrace, RunAggregate


def sat(label):
    return SatelliteId.parse(label)


def toy_snapshot(edges, extra_sats=(), kind=LinkKind.INTER_ORBIT_ISL, time=0.0):
    """Snapshot over satellite labels; edges are (a, b, rate_bps[, prop_s])."""
    positions = {}
    links = []
    for e in edges:
        a, b, rate = e[0], e[1], e[2]
        prop = e[3] if len(e) > 3 else 0.0
        sa, sb = sat(a), sat(b)
        positions.setdefault(sa, np.zeros(3))
        positions.setdefault(sb, np.zeros(3))
        links.append(Link(kind, (sa, sb), rate, prop))
    for label in extra_sats:
        positions.setdefault(sat(label), np.zeros(3))
    return TopologySnapshot(time=time, links=tuple(links), positions=positions)


def reference_snapshot(constellation, t, link_config):
    """snapshot's links as the per-link loop built them: fresh SatelliteIds
    and one float(np.linalg.norm(...)) / LIGHT_SPEED_KM_S per link."""
    pos = constellation.positions_at(t)
    P, S = constellation.spec.num_orbits, constellation.spec.sats_per_orbit
    links = []

    def isl(kind, a, b, rate, ranged):
        dist = float(np.linalg.norm(pos[a[0] * S + a[1]] - pos[b[0] * S + b[1]]))
        if not ranged or dist <= link_config.max_isl_range_km:
            links.append(Link(kind, (SatelliteId(*a), SatelliteId(*b)), rate,
                              dist / LIGHT_SPEED_KM_S))

    for p in range(P):
        for s in range(1 if S == 2 else S if S >= 3 else 0):
            isl(LinkKind.INTRA_ORBIT_ISL, (p, s), (p, (s + 1) % S),
                link_config.intra_orbit_rate_bps, False)
    pairs = [(p, p + 1, LinkKind.INTER_ORBIT_ISL) for p in range(P - 1)]
    if P >= 3 and link_config.cross_seam_policy == "enabled":
        pairs.append((P - 1, 0, LinkKind.CROSS_SEAM_ISL))
    for pa, pb, kind in pairs:
        for s in range(S):
            isl(kind, (pa, s), (pb, s), link_config.inter_orbit_rate_bps, True)
    return links


def label_graph(edges, nodes=(), energy=False):
    """Topology over labelled edges, numbered in node_key order: edges are
    (u, v, capacity[, propagation]) with weight 1/capacity or, with energy,
    (u, v, joules). An edge listed twice keeps its last values."""
    labels = sorted({*nodes, *(x for e in edges for x in e[:2])}, key=node_key)
    index = {v: i for i, v in enumerate(labels)}
    tails = [index[e[0]] for e in edges]
    heads = [index[e[1]] for e in edges]
    if energy:
        return Topology(labels, tails, heads, [e[2] for e in edges])
    return Topology(labels, tails, heads, [1.0 / e[2] for e in edges], [e[2] for e in edges],
                    [e[3] if len(e) > 3 else 0.0 for e in edges])


def edge_values(graph, values=None):
    """{(u, v) labels: value} of every edge; values defaults to the weights."""
    values = graph.weights if values is None else values
    return {pair: values[e] for pair, e in graph.edges.items()}


def label_dijkstra(adj, sources, targets=()):
    """The label-keyed Dijkstra that leoplan.graph.dijkstra replaced: over
    {u: {v: weight}}, popping the least (distance, node_key, node) entry with
    a strict <, stopping at the first settled target. Returns (dist, prev,
    reached) with prev the predecessor label."""
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


def label_path(prev, node):
    """Labels from label_dijkstra's source to node."""
    path = [node]
    while path[-1] in prev:
        path.append(prev[path[-1]])
    return path[::-1]


def index_dijkstra(graph, sources, targets=None, weights=None):
    """leoplan.graph.dijkstra as it walked each settled node's CSR range by
    index (offsets[u] .. offsets[u + 1] - 1), before it read the adjacency
    list; the same arguments and returns."""
    offsets, heads = graph.offsets, graph.heads
    weights = graph.weights if weights is None else weights
    n = len(graph.nodes)
    dist, prev, settled = [math.inf] * n, [-1] * n, [False] * n
    for s in sources:
        dist[s] = 0.0
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if targets is not None and targets[u]:
            return dist, prev, u
        for e in range(offsets[u], offsets[u + 1]):
            nd = d + weights[e]
            v = heads[e]
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = e
                heapq.heappush(heap, (nd, v))
    return dist, prev, None


def links_graph(snap, energy=None):
    """A fresh Topology over a snapshot's Link objects, as graphs were built
    before a snapshot shared one CSR structure: satellites in node_key order,
    edges a -> b then b -> a per link, weighted 1/rate with capacities and
    delays, or, with energy ({satellite: joules}), by the head's joules."""
    nodes = sorted({*snap.positions, *(v for l in snap.links for v in l.endpoints)},
                   key=node_key)
    index = {v: i for i, v in enumerate(nodes)}
    tails, heads, rates, delays = [], [], [], []
    for link in snap.links:
        a, b = (index[v] for v in link.endpoints)
        tails += [a, b]
        heads += [b, a]
        rates += [link.rate_bps] * 2
        delays += [link.propagation_delay_s] * 2
    if energy is not None:
        return Topology(nodes, tails, heads, [energy[nodes[h]] for h in heads])
    return Topology(nodes, tails, heads, [1.0 / r for r in rates], rates, delays)


def reference_node_energy(nodes, assignment, dag, model, hop_payload_bits):
    """{satellite: joules} of an edge into it in build_augmented_graph: the
    radio energy of the hop payload, plus the compute energy of the stages it
    hosts, added in the DAG's topological order."""
    radio = (model.e_tx_j_per_bit + model.e_rx_j_per_bit) * hop_payload_bits
    energy = dict.fromkeys(nodes, radio)
    for sid in dag.topological_order():
        energy[assignment[sid]] += model.e_flop_j * dag.service(sid).flops
    return energy


def graph_hex(graph):
    """A Topology's structure and per-edge vectors, floats by .hex()."""
    hexed = lambda v: None if v is None else [x.hex() for x in v]
    return (graph.nodes, graph.offsets, graph.tails, graph.heads, hexed(graph.weights),
            hexed(graph.capacities), hexed(graph.propagation))


def adjacency(graph, values=None):
    """{u: {v: value}} over every node of a Topology (weights by default)."""
    values = graph.weights if values is None else values
    adj = {u: {} for u in graph.nodes}
    for (u, v), e in graph.edges.items():
        adj[u][v] = values[e]
    return adj


def reference_dst_heuristic(graph, instance):
    """dst_heuristic on label_dijkstra: each sorted terminal's path merged
    into one label set, whose weights are summed in set order."""
    dist, prev, _ = label_dijkstra(adjacency(graph), [instance.root])
    weights = edge_values(graph)
    edges = set()
    for t in sorted(instance.terminals, key=node_key):
        if t not in dist:
            raise ValueError(f"terminal {t} unreachable from root {instance.root}")
        path = label_path(prev, t)
        edges.update(zip(path, path[1:]))
    return SteinerTree(frozenset(edges), sum((weights[e] for e in edges), 0.0))


def dijkstra_distances(weights, source):
    """Single-source shortest distances over a plain {(u, v): weight} dict."""
    adj = {}
    for (u, v), w in weights.items():
        adj.setdefault(u, []).append((v, w))
    dist = {source: 0.0}
    counter = itertools.count()
    heap = [(0.0, next(counter), source)]
    settled = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in adj.get(u, []):
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, next(counter), v))
    return dist


def shortest_path_sum(graph, instance):
    """Energy of routing every terminal of a Steiner instance independently
    (no path sharing), an upper bound on every tree heuristic."""
    dist = dijkstra_distances(edge_values(graph), instance.root)
    total = 0.0
    for t in instance.terminals:
        if t not in dist:
            raise ValueError(f"terminal {t} unreachable from root {instance.root}")
        total += dist[t]
    return total


@dataclass(frozen=True)
class ReductionReport:
    """Exact Steiner result vs minimum spanning arborescence when every node hosts."""

    dst_energy: float
    arborescence_energy: float
    dst_edges: frozenset
    arborescence_edges: frozenset
    equal_within_tol: bool


def full_hosting_reduction_check(graph, instance, tol=1e-9):
    """Compare dst_exact against an Edmonds minimum spanning arborescence.

    Meaningful when the terminals cover every node (universal hosting); the
    report states both energies without asserting equality.
    """
    tree = dst_exact(graph, instance)

    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    weights = edge_values(graph)
    for (u, v), w in weights.items():
        if v == instance.root:
            continue  # forcing the arborescence root
        g.add_edge(u, v, weight=w)
    arb = nx.algorithms.tree.branchings.minimum_spanning_arborescence(
        g, attr="weight", preserve_attrs=True)
    arb_edges = frozenset(arb.edges())
    arb_energy = float(sum(weights[e] for e in arb_edges))
    return ReductionReport(tree.total_energy, arb_energy, tree.edges, arb_edges,
                           abs(tree.total_energy - arb_energy) <= tol)


def brute_route_metrics(weights, caps, props, u, v):
    """(bottleneck, propagation) of the min-weight simple path, found by
    enumerating every simple path. Assumes the minimizer is unique."""
    if u == v:
        return float("inf"), 0.0
    adj = {}
    for (a, b) in weights:
        adj.setdefault(a, []).append(b)
    best = [float("inf"), None]

    def dfs(node, seen, weight):
        if node == v:
            if weight < best[0]:
                best[0] = weight
                best[1] = tuple(seen)
            return
        for nxt in sorted(adj.get(node, []), key=str):
            if nxt not in seen and (node, nxt) in weights:
                seen.append(nxt)
                dfs(nxt, seen, weight + weights[(node, nxt)])
                seen.pop()

    dfs(u, [u], 0.0)
    if best[1] is None:
        return None
    path = best[1]
    bottleneck = min(caps[(a, b)] for a, b in zip(path, path[1:]))
    prop = sum(props[(a, b)] for a, b in zip(path, path[1:]))
    return bottleneck, prop


def exhaustive_min_cut(capacities, source, sink):
    """Minimum s-t cut value by enumerating every source-side vertex subset."""
    vertices = set()
    for (u, v) in capacities:
        vertices.add(u)
        vertices.add(v)
    others = sorted(v for v in vertices if v not in (source, sink))
    best = float("inf")
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {source, *combo}
            cut = sum(c for (u, v), c in capacities.items()
                      if u in side and v not in side)
            best = min(best, cut)
    return best


def random_layered_network(rng):
    """(FlowNetwork, capacity dict) for a random source->A->B->sink instance."""
    na = int(rng.integers(1, 5))
    nb = int(rng.integers(1, 5))
    a_names = [f"a{i}" for i in range(na)]
    b_names = [f"b{j}" for j in range(nb)]
    caps = {}
    for aname in a_names:
        caps[("s", aname)] = float(rng.uniform(0.2, 3.0))
        hit = False
        for bname in b_names:
            if rng.random() < 0.6:
                caps[(aname, bname)] = float(rng.uniform(0.2, 3.0))
                hit = True
        if not hit:
            caps[(aname, b_names[int(rng.integers(0, nb))])] = float(rng.uniform(0.2, 3.0))
    for bname in b_names:
        caps[(bname, "t")] = float(rng.uniform(0.2, 3.0))
    net = FlowNetwork()
    for (u, v), c in caps.items():
        net.add_edge(u, v, c)
    return net, caps


def floyd_warshall(graph):
    """(dist, next_hop) over graph.nodes, one fresh matrix per k.

    The same relaxation as ShortestPaths and dst_exact (strict <, k in
    node order), written as whole-matrix numpy expressions that never
    update in place, on the labelled edge weights of any Topology.
    """
    nodes = graph.nodes
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    nxt = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0.0)
    for i in range(n):
        nxt[i, i] = i
    for (u, v), w in edge_values(graph).items():
        i, j = index[u], index[v]
        if w < dist[i, j]:
            dist[i, j] = w
            nxt[i, j] = j
    for k in range(n):
        alt = dist[:, k, None] + dist[None, k, :]
        better = alt < dist
        dist = np.where(better, alt, dist)
        nxt = np.where(better, nxt[:, k, None], nxt)
    return dist, nxt


def next_hop_path(nodes, next_hop, i, j):
    """Node list from index i to j following next_hop, or None if unreachable."""
    if next_hop[i, j] < 0:
        return None
    hops = [i]
    while hops[-1] != j:
        hops.append(int(next_hop[hops[-1], j]))
    return [nodes[h] for h in hops]


def shortest_path(sp, u, v):
    """The nodes of ShortestPaths sp's kept path from u to v, both included;
    None when v is unreachable from u."""
    hops = sp.hops(sp.index[u], sp.index[v])
    return None if hops is None else [sp.nodes[h] for h in hops]


def random_sparse_digraph(rng, n, out_degree, isolated_share, weights):
    """A directed Topology on n nodes for all-pairs comparisons.

    Each non-isolated node gets about out_degree out-edges to random other
    non-isolated nodes, drawn independently per direction, so the graph is
    asymmetric. With weights "rate" it is a routing graph with capacities
    uniform in [1e6, 1e9], with "tied" capacities from {1e9, 2e9, 3e9} so that
    many paths weigh the same; either way the 1/capacity weights are not
    powers of two. With "energy" it is an energy graph of plain floats as a
    Steiner instance has them: 0.0 (a free hop, so zero-weight cycles and
    ties) for about a third of the edges, the rest tied from {1e-9, 2e-9,
    3e-9} or uniform in [0, 2).
    """
    names = [f"n{i:03d}" for i in range(n)]
    edges = []
    live = [i for i in range(n) if rng.random() >= isolated_share]
    if len(live) < 2:
        return label_graph(edges, names)
    for u in live:
        for _ in range(int(rng.poisson(out_degree))):
            v = live[int(rng.integers(0, len(live)))]
            if v == u:
                continue
            if weights == "energy":
                pick = rng.random()
                if pick < 0.3:
                    value = 0.0
                elif pick < 0.65:
                    value = float(rng.choice([1e-9, 2e-9, 3e-9]))
                else:
                    value = float(rng.uniform(0.0, 2.0))
            elif weights == "tied":
                value = float(rng.choice([1e9, 2e9, 3e9]))
            else:
                value = float(rng.uniform(1e6, 1e9))
            edges.append((names[u], names[v], value))
    return label_graph(edges, names, energy=weights == "energy")


def visibility_flags(constellation, station, times):
    """The library's visible samples for one station as flags, shape (len(times), n)."""
    visible = np.zeros((len(times), constellation.num_satellites), dtype=bool)
    keys = _visible_samples(constellation, _StationGeometry(constellation, (station,)), times)
    visible[keys & (2**32 - 1), keys >> 32] = True
    return visible


def reference_visible_samples(constellation, geometry, times):
    """Index arrays (s, i, t) of the samples where satellite i is above the
    mask of geometry.stations[s] at times[t], sorted by s, then i, then t:
    the library's sieve (see _visible_samples for the cone bounds) as it was
    before it returned one key per visible sample, kept as the reference
    those keys decode to."""
    count = len(times)
    epoch, r = constellation.spec.epoch, constellation.radius_km

    first = np.arange(0, count, _SIEVE_BLOCK)
    last = np.minimum(first + (_SIEVE_BLOCK - 1), count - 1)
    half = 0.5 * (times[last] - times[first])
    mid = times[first] + half
    rate = constellation.mean_motion + EARTH_ROTATION_RAD_S
    reach = max(abs(times[0] - epoch), abs(times[-1] - epoch))
    slack = rate * float(half.max()) + 1e-6 + 1e-12 * (4.0 * math.pi + rate * reach)
    outer = [r * math.cos(a + slack) if a + slack < math.pi else -math.inf
             for a in geometry.outer]
    inner = [r * math.cos(a - slack) if a - slack > 0.0 else math.inf for a in geometry.inner]
    # One frame over the samples, then the midpoints: both are elementwise in
    # time, so each sample's bits are those of a frame over the samples alone.
    st_pos, zen = _station_frames(geometry, np.concatenate((times, mid)), epoch)
    sat_mid = constellation._positions(mid[:, None], slice(None))  # (blocks, n, 3)
    p_mid = np.matmul(zen[:, count:].transpose(1, 0, 2), sat_mid.transpose(0, 2, 1))
    near = p_mid >= np.array(outer)[:, None]  # (blocks, stations, n)
    # Flat indices in (station, satellite, block) order, split back up.
    pair, b = np.divmod(near.transpose(1, 2, 0).ravel().nonzero()[0], len(first))
    s, i = np.divmod(pair, constellation.num_satellites)
    visible = p_mid[b, s, i] >= np.array(inner)[s]

    # Each kept (station, satellite, block) expands into its samples, in order.
    t = (first[b][:, None] + _BLOCK_OFFSETS).ravel()
    s = s.repeat(_SIEVE_BLOCK)
    i = i.repeat(_SIEVE_BLOCK)
    visible = visible.repeat(_SIEVE_BLOCK)
    if count % _SIEVE_BLOCK:
        inside = t < count
        s, i, t, visible = s[inside], i[inside], t[inside], visible[inside]
    rim = (~visible).nonzero()[0]
    sr, tr = s[rim], t[rim]
    sample = sr * (count + len(mid)) + tr
    d = constellation._positions(times[tr], i[rim])
    d -= st_pos.reshape(-1, 3).take(sample, axis=0)
    up = np.einsum("ck,ck->c", d, zen.reshape(-1, 3).take(sample, axis=0))
    visible[rim] = up / _norms(d) >= geometry.sin_mask[sr]
    return s[visible], i[visible], t[visible]


def reference_station_frames(stations, times, epoch):
    """_station_frames as it was before station geometry was built once:
    each station's ecef_km on every call, and np.linalg.norm for the zeniths."""
    theta = EARTH_ROTATION_RAD_S * (times - epoch)
    c, s = np.cos(theta), np.sin(theta)
    ecef = np.array([st.ecef_km() for st in stations]).reshape(-1, 3)
    ex, ey, ez = ecef[:, 0:1], ecef[:, 1:2], ecef[:, 2:3]
    pos = np.empty((len(stations), len(times), 3))
    pos[..., 0] = c * ex - s * ey
    pos[..., 1] = s * ex + c * ey
    pos[..., 2] = ez
    return pos, pos / np.linalg.norm(pos, axis=-1, keepdims=True)


def reference_visibility(constellation, station, times, sat_pos):
    """Above-mask flags, shape (len(times), n), from the sine of elevation
    evaluated at every sample: up-component over range, against the mask."""
    theta = EARTH_ROTATION_RAD_S * (times - constellation.spec.epoch)
    ex, ey, ez = station.ecef_km()
    st_pos = np.stack(
        [np.cos(theta) * ex - np.sin(theta) * ey,
         np.sin(theta) * ex + np.cos(theta) * ey,
         np.full_like(theta, ez)], axis=-1)
    zen = st_pos / np.linalg.norm(st_pos, axis=-1, keepdims=True)
    d = sat_pos - st_pos[:, None, :]
    sin_elev = np.einsum("tnk,tk->tn", d, zen) / np.linalg.norm(d, axis=-1)
    return sin_elev >= math.sin(math.radians(station.min_elevation_deg))


def elevation_deg(sat_pos_km, station_pos_km):
    """Elevation (degrees) of a satellite above the local horizon of a station position."""
    d = sat_pos_km - station_pos_km
    zen = station_pos_km / np.linalg.norm(station_pos_km)
    return math.degrees(math.asin(float(np.dot(d, zen) / np.linalg.norm(d))))


def uniform_all_reduce_time(node_count, payload_bits, rate_bps):
    """Closed form 2(N-1)/N * D/r for a uniform ring, ignoring block padding."""
    return 2.0 * (node_count - 1) / node_count * payload_bits / rate_bps


def random_rate_digraph(rng, max_nodes=12):
    """(routing Topology, weight dict) with power-of-two weights, so every
    path sum is exact in floating point and algorithms must agree bit for bit."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"n{i}" for i in range(n)]
    weights = {}
    for u in names:
        for v in names:
            if u != v and rng.random() < 0.35:
                weights[(u, v)] = float(2 ** int(rng.integers(0, 5)))
    return label_graph([(u, v, 1.0 / w) for (u, v), w in weights.items()], names), weights


def random_service_dag(rng, task_id, ids):
    """A valid DAG over the given service ids: one entry, all nodes reach exit."""
    order = list(ids)
    rng.shuffle(order)
    services = tuple(
        Microservice(i, float(rng.uniform(0.5e12, 3e12)), float(rng.uniform(1.0, 3.0)),
                     float(rng.uniform(1e5, 1e6)))
        for i in ids
    )
    edge_set = set()
    for k in range(1, len(order)):
        j = int(rng.integers(0, k))
        edge_set.add((order[j], order[k]))
    has_out = {u for (u, _) in edge_set}
    for node in order[:-1]:
        if node not in has_out:
            edge_set.add((node, order[-1]))
    rank = {name: i for i, name in enumerate(order)}
    edges = tuple((u, v, float(rng.uniform(1e5, 2e6)))
                  for (u, v) in sorted(edge_set, key=lambda e: (rank[e[0]], rank[e[1]])))
    return ServiceDag(task_id, services, edges, (order[0],), order[-1])


def _random_candidates(rng, max_sats):
    """(satellites, snapshot): 2..max_sats candidates on one ring of links."""
    n_sats = int(rng.integers(2, max_sats + 1))
    labels = [f"o0s{i}" for i in range(n_sats)]
    edges = []
    for i in range(n_sats if n_sats >= 3 else n_sats - 1):
        edges.append((labels[i], labels[(i + 1) % n_sats],
                      float(rng.uniform(0.5e9, 2e9))))
    snapshot_ = toy_snapshot(edges, kind=LinkKind.INTRA_ORBIT_ISL)
    satellites = [
        SatelliteNode(sat(lb), float(rng.uniform(0.5e12, 2e12)),
                      float(rng.uniform(5.0, 9.0)))
        for lb in labels
    ]
    return satellites, snapshot_


def random_deployment_instance(rng, max_sats=4, max_services=6):
    """(tasks, satellites, snapshot) small enough for full enumeration."""
    satellites, snapshot_ = _random_candidates(rng, max_sats)
    n_services = int(rng.integers(2, max_services + 1))
    ids = [f"svc{i}" for i in range(n_services)]
    if n_services >= 4 and rng.random() < 0.5:
        split = int(rng.integers(2, n_services - 1))
        groups = [ids[:split], ids[split:]]
    else:
        groups = [ids]
    tasks = [random_service_dag(rng, f"task{k}", group)
             for k, group in enumerate(groups)]
    return tasks, satellites, snapshot_


def random_sharing_instance(rng, max_sats=4, max_services=7, max_tasks=3):
    """(tasks, satellites, snapshot) with 2..max_tasks tasks over random
    subsets of one service table, so a service recurs across tasks with other
    neighbours and other payloads. Each task chains its members in one hidden
    order and adds random forward edges, so the union stays acyclic."""
    satellites, snapshot_ = _random_candidates(rng, max_sats)
    n = int(rng.integers(2, max_services + 1))
    order = [f"svc{i}" for i in rng.permutation(n)]
    table = {i: Microservice(i, float(rng.uniform(0.5e12, 3e12)), float(rng.uniform(1.0, 3.0)),
                             float(rng.uniform(1e5, 1e6)))
             for i in order}
    tasks = []
    for k in range(int(rng.integers(2, max_tasks + 1))):
        size = int(rng.integers(1, n + 1))
        members = [order[m] for m in sorted(rng.choice(n, size=size, replace=False))]
        edges = tuple((members[a], members[b], float(rng.uniform(1e5, 2e6)))
                      for b in range(1, size) for a in range(b)
                      if a == b - 1 or rng.random() < 0.3)
        tasks.append(ServiceDag(f"task{k}", tuple(table[i] for i in members), edges,
                                (members[0],), members[-1]))
    return tasks, satellites, snapshot_


def reference_objective(instance, placed, optimistic=False):
    """Summed longest-path latency over whichever services are placed,
    walking every task DAG from scratch through the public ServiceDag API: the
    evaluation deployment._place grows one service at a time.

    With optimistic=True unplaced services run on the fastest candidate with
    free transfers, which lower-bounds every completion of the placement.
    """
    throughput = {s.id: s.throughput_flops for s in instance.satellites}
    fastest = max(throughput.values())
    total = 0.0
    for dag in instance.tasks:
        finish: dict = {}
        best = 0.0
        for sid in dag.topological_order():
            hosted = sid in placed
            if not hosted and not optimistic:
                continue
            run = dag.service(sid).flops / (throughput[placed[sid]] if hosted else fastest)
            start = 0.0
            for (u, bits) in dag.predecessors(sid):
                if u not in finish:
                    continue
                if hosted and u in placed:
                    routes = instance._routes
                    arrival = finish[u] + routes.transfer_at(
                        routes.index[placed[u]], routes.index[placed[sid]], bits)
                else:
                    arrival = finish[u]
                start = max(start, arrival)
            finish[sid] = start + run
            best = max(best, finish[sid])
        total += best
    return total


def reference_fits(instance, sid, node, free):
    """Whether service sid fits a candidate with free memory left: its memory
    fits there, and its flops at instance.e_flop_j joules each fit the
    candidate's energy budget."""
    svc = instance.services[sid]
    return not (svc.memory_bytes > free or svc.flops * instance.e_flop_j > node.energy_budget_j)


def reference_solve_exact(instance):
    """deployment.solve_exact as it was before its shared prefix state: each
    child is an assignment dict whose bound is reference_objective(optimistic=
    True) from scratch, and the plan's objective is evaluated once more."""
    order = instance.order
    if not order:
        return DeploymentPlan({}, True, 0.0, "exact")
    counter = itertools.count()
    heap = [(0.0, next(counter), {}, tuple(s.memory_bytes for s in instance.satellites))]
    best_plan, best_obj = None, math.inf
    while heap:
        lb, _, placed, residuals = heapq.heappop(heap)
        if lb >= best_obj:
            continue
        if len(placed) == len(order):
            best_plan, best_obj = placed, lb
            continue
        sid = order[len(placed)]
        for i, node in enumerate(instance.satellites):
            if not reference_fits(instance, sid, node, residuals[i]):
                continue
            child = {**placed, sid: node.id}
            child_lb = reference_objective(instance, child, optimistic=True)
            if child_lb < best_obj:
                rest = list(residuals)
                rest[i] -= instance.services[sid].memory_bytes
                heapq.heappush(heap, (child_lb, next(counter), child, tuple(rest)))
    if best_plan is None:
        return DeploymentPlan({}, False, None, "exact")
    return DeploymentPlan(best_plan, True, reference_objective(instance, best_plan), "exact")


def reference_action_features(env, state, action):
    """deployment.action_features re-evaluating the whole objective for the
    candidate, with linear satellite searches and per-use assignment dicts."""
    sid, sat_id = action
    inst = env.instance
    compute_scale, obj_scale = env._scales
    svc = inst.services[sid]
    sat_index = next(i for i, s in enumerate(inst.satellites) if s.id == sat_id)
    run = svc.flops / inst.satellites[sat_index].throughput_flops / compute_scale

    placed = state.placed()
    placed[sid] = sat_id
    delta = (reference_objective(inst, placed) - state.objective) / obj_scale

    capacity = inst.satellites[sat_index].memory_bytes
    residual = (state.prefix.free[sat_index] - svc.memory_bytes) / capacity if capacity else 0.0

    preds = [u for dag in inst.tasks for (u, _) in dag.predecessors(sid)]
    hosted_preds = [u for u in preds if u in dict(state.assignment)]
    colocated = (sum(1 for u in hosted_preds if dict(state.assignment)[u] == sat_id)
                 / len(hosted_preds)) if hosted_preds else 0.0
    return np.array([1.0, run, delta, residual, colocated])


def reference_softmax(feats, theta):
    """Softmax of feats @ theta in numpy's method-call form: .max(), exp and
    .sum() on the score array."""
    scores = feats @ theta
    scores -= scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    return probs


def policy_distribution(env, state, theta):
    """(feasible actions, feature matrix, softmax probabilities) of a linear
    policy with weights theta in state."""
    actions = state.actions
    feats = np.array([deployment.action_features(env, state, a) for a in actions])
    return actions, feats, reference_softmax(feats, theta)


def rollout(env, choose, record=None):
    """Play one episode from reset; choose(state) -> action. Returns the
    episode return; record, when given, collects every (state, action)."""
    state = env.reset()
    total = 0.0
    while not state.done:
        if not state.actions:
            total += DEAD_END_REWARD  # nothing fits before the first placement
            break
        action = choose(state)
        if record is not None:
            record.append((state, action))
        tr = env.step(state, action)
        total += tr.reward
        state = tr.state
    return total


def evaluate_policy(env, policy, episodes, seed, greedy=False):
    """Mean episode return of a LinearPolicy on one environment, drawing each
    action with Generator.choice (or taking the most probable with greedy)."""
    rng = np.random.default_rng(seed)

    def choose(state):
        actions, _, probs = policy_distribution(env, state, policy.theta)
        if greedy:
            return actions[int(np.argmax(probs))]
        return actions[int(rng.choice(len(actions), p=probs))]

    return float(np.mean([rollout(env, choose) for _ in range(episodes)]))


def reference_train_policy_gradient(env, episodes, seed):
    """deployment.train_policy_gradient as it was before its per-run cache:
    every step rebuilds the state's features through the library's
    action_features, draws with Generator.choice, and every episode starts from
    a fresh reset. Returns (theta, TrainingReport)."""
    rng = np.random.default_rng(seed)
    theta = np.zeros(N_FEATURES)
    baseline, count = 0.0, 0
    returns = []
    for _ in range(episodes):
        state = env.reset()
        grads = np.zeros(N_FEATURES)
        total = 0.0
        while not state.done:
            if not state.actions:
                total += DEAD_END_REWARD
                break
            actions, feats, probs = policy_distribution(env, state, theta)
            choice = int(rng.choice(len(actions), p=probs))
            grads += feats[choice] - probs @ feats
            tr = env.step(state, actions[choice])
            total += tr.reward
            state = tr.state
        count += 1
        baseline += (total - baseline) / count
        theta = theta + LEARNING_RATE * (total - baseline) * grads
        returns.append(total)

    state = env.reset()
    greedy = 0.0
    while not state.done:
        if not state.actions:
            greedy += DEAD_END_REWARD
            break
        actions, _, probs = policy_distribution(env, state, theta)
        tr = env.step(state, actions[int(np.argmax(probs))])
        greedy += tr.reward
        state = tr.state
    report = TrainingReport(episodes, returns, float(np.mean(returns[-max(1, episodes // 4):])),
                            [greedy])
    return theta, report


def reference_greedy(instance):
    """solve_greedy re-evaluating the whole objective for every candidate."""
    placed: dict = {}
    residuals = {s.id: s.memory_bytes for s in instance.satellites}
    for sid in instance.order:
        best_sat = None
        best_obj = math.inf
        for node in instance.satellites:
            if not reference_fits(instance, sid, node, residuals[node.id]):
                continue
            placed[sid] = node.id
            obj = reference_objective(instance, placed)
            del placed[sid]
            if obj < best_obj:
                best_obj, best_sat = obj, node
        if best_sat is None:
            return DeploymentPlan({}, False, None, "greedy")
        placed[sid] = best_sat.id
        residuals[best_sat.id] -= instance.services[sid].memory_bytes
    return DeploymentPlan(placed, True, reference_objective(instance, placed), "greedy")


def enumerate_best_assignment(tasks, satellites, snapshot_):
    """Optimal summed latency by trying every memory-feasible assignment.

    Latency is evaluated through the DAG latency module, a separate code path
    from the solvers' internal objective.
    """
    router = Router(snapshot_)
    model = LatencyModel(
        default_throughput_flops=satellites[0].throughput_flops,
        throughput_overrides={s.id: s.throughput_flops for s in satellites})
    service_ids = []
    memory = {}
    for dag in tasks:
        for svc in dag.services:
            if svc.id not in memory:
                service_ids.append(svc.id)
                memory[svc.id] = svc.memory_bytes
    best_obj = float("inf")
    best_assignment = None
    feasible = 0
    for combo in itertools.product(satellites, repeat=len(service_ids)):
        used = {}
        ok = True
        for svc_id, node in zip(service_ids, combo):
            used[node.id] = used.get(node.id, 0.0) + memory[svc_id]
            if used[node.id] > node.memory_bytes:
                ok = False
                break
        if not ok:
            continue
        feasible += 1
        placement = {svc_id: node.id for svc_id, node in zip(service_ids, combo)}
        total = sum(dag_latency(dag, placement, router, model).total_seconds
                    for dag in tasks)
        if total < best_obj:
            best_obj = total
            best_assignment = placement
    return best_obj, best_assignment, feasible


def random_steiner_instance(rng, max_nodes=9, max_terminals=4, extra_p=0.25, free_p=0.0):
    """(energy Topology, SteinerInstance) with every node reachable from v0.
    Each edge is made free (0.0) with probability free_p."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    energy = {}
    for k in range(1, n):
        j = int(rng.integers(0, k))
        energy[(names[j], names[k])] = float(rng.uniform(0.1, 2.0))
    for u in names:
        for v in names:
            if u != v and (u, v) not in energy and rng.random() < extra_p:
                energy[(u, v)] = float(rng.uniform(0.1, 2.0))
    k_terms = int(rng.integers(1, min(max_terminals, n - 1) + 1))
    perm = list(names[1:])
    rng.shuffle(perm)
    for e in energy if free_p else ():
        if rng.random() < free_p:
            energy[e] = 0.0
    g = label_graph([(u, v, w) for (u, v), w in energy.items()], names, energy=True)
    return g, SteinerInstance(names[0], frozenset(perm[:k_terms]))


def steiner_bruteforce(graph, instance):
    """Minimum root-arborescence cost covering the terminals, by trying every
    edge subset. Only usable on very small graphs."""
    edge_items = list(edge_values(graph).items())
    needed = instance.terminals - {instance.root}
    if not needed:
        return 0.0
    best = float("inf")
    for r in range(1, len(edge_items) + 1):
        for combo in itertools.combinations(edge_items, r):
            cost = sum(w for (_, w) in combo)
            if cost >= best:
                continue
            heads = [v for ((_, v), _) in combo]
            if len(set(heads)) != len(heads) or instance.root in heads:
                continue
            adj = {}
            for ((u, v), _) in combo:
                adj.setdefault(u, []).append(v)
            seen = {instance.root}
            frontier = [instance.root]
            while frontier:
                x = frontier.pop()
                for y in adj.get(x, []):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if needed - seen:
                continue
            if any(u not in seen for ((u, _), _) in combo):
                continue
            best = cost
    return best


def random_window_timeline(rng):
    """Contact windows for 3 satellites across 2 orbits and 2 stations.

    Dedicated ground rates dwarf the SGL rates, so the stations never limit a
    single link and the coordinated flow can always use every link at once.
    """
    sats = [SatelliteId(0, 0), SatelliteId(0, 1), SatelliteId(1, 0)]
    stations = (GroundStation("gs-a", 10.0, 20.0, dedicated_rate_bps=1e9),
                GroundStation("gs-b", -30.0, 120.0, dedicated_rate_bps=1e9))
    windows = []
    for s in sats:
        for st in stations:
            for _ in range(int(rng.integers(0, 3))):
                start = float(rng.uniform(0.0, 360.0))
                windows.append(ContactWindow(s, st.id, start,
                                             start + float(rng.uniform(40.0, 200.0)),
                                             float(rng.uniform(2e6, 8e6))))
    return windows, stations


def check_feasible(network, assignment, source=SOURCE, sink=SINK, tol=FLOW_TOL):
    """Raise ValueError unless capacities and conservation hold within tol,
    with one dict of excesses keyed by vertex."""
    excess = {}
    for (u, v), f in assignment.flows.items():
        cap = network.capacity[(u, v)]
        if f < -tol or f > cap + tol:
            raise ValueError(f"edge {u}->{v}: flow {f} violates capacity {cap}")
        excess[u] = excess.get(u, 0.0) - f
        excess[v] = excess.get(v, 0.0) + f
    inflow = excess.get(sink, 0.0)
    excess.pop(source, None)
    excess.pop(sink, None)
    for node, e in excess.items():
        if abs(e) > tol:
            raise ValueError(f"node {node}: flow imbalance {e}")
    if abs(inflow - assignment.value) > max(tol, 1e-6 * abs(assignment.value)):
        raise ValueError("flow value does not match net inflow at sink")


def reference_max_flow(network, source=SOURCE, sink=SINK):
    """Shortest-augmenting-path max-flow on a residual dict keyed by vertex
    pairs; the formulation leoplan.sgl_flow.max_flow numbers into integers."""
    residual = dict(network.capacity)
    for (u, v) in network.capacity:
        residual.setdefault((v, u), 0.0)
    neighbors: dict = {u: list(vs) for u, vs in network.adjacency.items()}
    for (u, v) in network.capacity:
        if u not in neighbors.get(v, []):
            neighbors.setdefault(v, []).append(u)

    value = 0.0
    while True:
        prev = {source: None}
        queue = deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for v in neighbors.get(u, []):
                if v not in prev and residual.get((u, v), 0.0) > FLOW_TOL:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            break
        bottleneck = float("inf")
        v = sink
        while prev[v] is not None:
            u = prev[v]
            bottleneck = min(bottleneck, residual[(u, v)])
            v = u
        v = sink
        while prev[v] is not None:
            u = prev[v]
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
            v = u
        value += bottleneck

    flows = {}
    for (u, v), cap in network.capacity.items():
        f = cap - residual[(u, v)]
        flows[(u, v)] = f if f > FLOW_TOL else 0.0
    assignment = FlowAssignment(flows, value)
    check_feasible(network, assignment, source, sink)
    return assignment


def build_flow_network(windows, state, window_duration, model_bits, stations):
    """The layered network of one scheduling epoch, from the windows active in
    it (rates already scaled to their share of the epoch); the builder that
    schedule_downlink replaced by a network built in its fixed edge order.

    Edge capacities are fractions of model_bits, so a unit of flow equals one
    full model copy delivered.
    """
    if not math.isfinite(window_duration) or window_duration <= 0:
        raise ValueError("window_duration must be positive and finite")
    if not math.isfinite(model_bits) or model_bits <= 0:
        raise ValueError("model_bits must be positive and finite")
    for orbit, frac in state.remaining.items():
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"orbit {orbit}: remaining fraction {frac} outside [0, 1]")
    by_station = {st.id: st for st in stations}

    net = FlowNetwork()
    sats = sorted({w.satellite for w in windows},
                  key=lambda s: (s.orbit_index, s.slot_index))
    for sat in sats:
        if sat.orbit_index not in state.remaining:
            raise ValueError(f"window references orbit {sat.orbit_index} with no tracked model")
        net.add_edge(SOURCE, sat, state.remaining[sat.orbit_index])
    for w in sorted(windows, key=lambda w: (w.satellite.orbit_index,
                                            w.satellite.slot_index, w.ground_station)):
        net.add_edge(w.satellite, w.ground_station,
                     w.rate_bps * window_duration / model_bits)
    for gs_id in sorted({w.ground_station for w in windows}):
        if gs_id not in by_station:
            raise ValueError(f"window references unknown station {gs_id!r}")
        st = by_station[gs_id]
        net.add_edge(gs_id, SINK, st.dedicated_rate_bps * window_duration / model_bits)
    return net


def reference_schedule_downlink(windows, model_bits, stations, horizon, epoch_seconds,
                                orbits, start_time=0.0):
    """schedule_downlink from full models, testing every window against every
    epoch and running reference_max_flow; the scan the scheduler replaced by
    per-window epoch spans."""
    state = DownlinkState(remaining={int(o): 1.0 for o in orbits})
    epochs = []
    for e in range(int(horizon // epoch_seconds)):
        if state.done():
            break
        t0 = start_time + e * epoch_seconds
        t1 = t0 + epoch_seconds
        active = []
        for w in windows:
            if w.satellite.orbit_index not in state.remaining:
                continue
            ov = _overlap(w.start, w.end, t0, t1)
            if ov > 0:
                active.append(ContactWindow(w.satellite, w.ground_station, t0, t1,
                                            w.rate_bps * ov / epoch_seconds))
        delivered = {o: 0.0 for o in state.remaining}
        if active:
            net = build_flow_network(active, state, epoch_seconds, model_bits, stations)
            assignment = reference_max_flow(net)
            for (u, v), f in assignment.flows.items():
                if u == SOURCE and isinstance(v, SatelliteId):
                    delivered[v.orbit_index] += f
        else:
            assignment = FlowAssignment({}, 0.0)
        for o, f in delivered.items():
            state.remaining[o] = max(0.0, state.remaining[o] - f)
        epochs.append(EpochFlow(e, assignment, delivered))
    return DownlinkResult(epochs, state, state.done())


def random_flow_network(rng):
    """A FlowNetwork on s, t and up to eight inner vertices with any edge
    shape: anti-parallel pairs (half the edges get one), self-loops, repeated
    (merged) edges, edges into s and out of t, zero and tied capacities; s or
    t may be missing."""
    names = ["s", "t"] + [f"v{i}" for i in range(int(rng.integers(1, 9)))]

    def capacity():
        return float(rng.choice([0.0, 0.5, 1.0, 2.0, rng.uniform(0.0, 3.0)]))

    net = FlowNetwork()
    for _ in range(int(rng.integers(1, 31))):
        u, v = (str(x) for x in rng.choice(names, 2))
        net.add_edge(u, v, capacity())
        if rng.random() < 0.5:
            net.add_edge(v, u, capacity())
    return net


@st.composite
def downlink_timelines(draw):
    """Keyword arguments of schedule_downlink over a random window timeline.

    A nonzero start_time, horizons that end mid-epoch, and window ends drawn
    from anywhere around the horizon, from the scheduler's own epoch
    boundaries (start_time + k * epoch_seconds and that plus epoch_seconds),
    before start_time or past the horizon, and +-inf; some windows are empty
    or reversed. orbits may leave out an orbit that has windows.
    """
    epoch = draw(st.sampled_from([60.0, 7.5, 0.1, 13.37]))
    start_time = draw(st.one_of(st.just(0.0), st.floats(-1e5, 1e6)))
    count = draw(st.integers(1, 12))
    horizon = count * epoch + draw(st.sampled_from([0.0, 0.5 * epoch]))
    k = st.integers(-2, count + 2)
    instant = st.one_of(
        st.floats(start_time - 3 * epoch, start_time + horizon + 3 * epoch),
        k.map(lambda j: start_time + j * epoch),
        k.map(lambda j: start_time + j * epoch + epoch),
        st.sampled_from([-math.inf, math.inf]))
    sats = [SatelliteId(o, s) for o in range(3) for s in range(2)]
    stations = tuple(GroundStation(f"gs-{g}", 0.0, 0.0,
                                   dedicated_rate_bps=draw(st.floats(1e5, 1e8)))
                     for g in range(2))
    windows = []
    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(instant), draw(instant)
        if draw(st.booleans()):
            a, b = min(a, b), max(a, b)
        windows.append(ContactWindow(draw(st.sampled_from(sats)),
                                     draw(st.sampled_from(stations)).id, a, b,
                                     draw(st.floats(1e5, 1e7))))
    orbits = draw(st.sets(st.integers(0, 3), min_size=1))
    return {"windows": windows, "stations": stations, "start_time": start_time,
            "horizon": horizon, "epoch_seconds": epoch, "orbits": sorted(orbits),
            "model_bits": 1e7 * epoch * draw(st.floats(0.05, 4.0))}


def compensated_sum(iterable, start=0):
    """builtins.sum as CPython 3.12 computes it: exact on ints, and once the
    running total is an exact float, Neumaier-compensated over exact float
    items (a machine-size int is added plainly, anything else by +)."""
    it = iter(iterable)
    total = start
    if type(total) is not float:
        for item in it:
            total = total + item
            if type(item) not in (int, bool):
                break
        if type(total) is not float:
            return builtins.sum(it, total)
    f, c = total, 0.0
    for item in it:
        if type(item) in (int, bool) and abs(item) < 2**63:
            f += float(item)
        elif type(item) is float:
            t = f + item
            c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
            f = t
        else:
            return builtins.sum(it, f + c + item)
    return f + c if c and math.isfinite(c) else f


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(stem):
    """The benchmark's perfbench/<stem>.py, imported once from its file
    (perfbench is not a package). It is registered before it runs, as its
    dataclasses need."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def shell_plan_case(seed=0, op_index=0):
    """(walker, scenario, request time) of the benchmark's shell_plan op: a
    24x22 shell with 8 seeded stations, generated by perfbench/workloads.py."""
    inp = perfbench_module("workloads").shell_plan_input(seed, op_index)
    scn = parse_scenario(inp["scenario"])
    return build_walker(scn.constellation), scn, inp["request"]["time"]


def best_single_link_epochs(windows, model_bits, stations, horizon, epoch_seconds,
                            orbits, start_time=0.0):
    """Fewest epochs any one-link-at-a-time schedule needs, by exhaustive search.

    Mirrors the epoch framing of the coordinated scheduler: a window
    contributes capacity in proportion to its overlap with the epoch, the
    delivery is capped by the station's dedicated capacity and clamped by the
    orbit's remaining fraction. Returns (epochs_used, complete).
    """
    dedicated = {st.id: st.dedicated_rate_bps for st in stations}
    epoch_count = int(horizon // epoch_seconds)
    orbits = list(orbits)
    pos = {o: i for i, o in enumerate(orbits)}
    options = []
    for e in range(epoch_count):
        t0 = start_time + e * epoch_seconds
        t1 = t0 + epoch_seconds
        per_orbit = {}
        for w in windows:
            if w.satellite.orbit_index not in pos:
                continue
            ov = max(0.0, min(w.end, t1) - max(w.start, t0))
            if ov <= 0:
                continue
            frac = min(w.rate_bps * ov / model_bits,
                       dedicated[w.ground_station] * epoch_seconds / model_bits)
            o = w.satellite.orbit_index
            per_orbit[o] = max(per_orbit.get(o, 0.0), frac)
        options.append(per_orbit)

    tol = 1e-9
    best = [epoch_count + 1]
    visited = set()

    def search(e, rem):
        if all(f <= tol for f in rem):
            best[0] = min(best[0], e)
            return
        if e >= epoch_count or e >= best[0]:
            return
        key = (e, rem)
        if key in visited:
            return
        visited.add(key)
        progressed = False
        for orbit, frac in sorted(options[e].items()):
            idx = pos[orbit]
            if rem[idx] <= tol or frac <= 0:
                continue
            progressed = True
            new = list(rem)
            new[idx] = max(0.0, new[idx] - frac)
            search(e + 1, tuple(round(x, 12) for x in new))
        if not progressed:
            search(e + 1, rem)

    search(0, tuple(1.0 for _ in orbits))
    if best[0] <= epoch_count:
        return best[0], True
    return epoch_count, False


def run_length_windows(constellation, stations, horizon, step, sgl_rate_bps, start=0.0):
    """Contact windows by walking each satellite's visible samples one by one.

    Visibility comes from reference_visibility on the full position grid, not
    from the library's sieve. Same sampling grid and window rule as
    contact_windows: a run of visible samples becomes one window from its
    first sample to one step past its last; windows come ordered by station,
    then satellite, then time.
    """
    times = start + np.arange(0.0, horizon, step)
    if len(times) == 0:
        return []
    sat_pos = constellation.positions_at_times(times)
    windows = []
    for st in stations:
        visible = reference_visibility(constellation, st, times, sat_pos)
        for i, sid in enumerate(constellation.satellites):
            samples = np.flatnonzero(visible[:, i]).tolist()
            run_start = None
            for j, nxt in zip(samples, samples[1:] + [None]):
                if run_start is None:
                    run_start = j
                if nxt != j + 1:
                    windows.append(ContactWindow(sid, st.id, float(times[run_start]),
                                                 float(times[j] + step), sgl_rate_bps))
                    run_start = None
    return windows


@st.composite
def walker_specs(draw, max_orbits=4, max_sats=6):
    """Small Walker-delta shells at any inclination and phasing."""
    num_orbits = draw(st.integers(1, max_orbits))
    return ConstellationSpec(
        num_orbits=num_orbits,
        sats_per_orbit=draw(st.integers(1, max_sats)),
        altitude_km=draw(st.floats(350.0, 2000.0)),
        inclination_deg=draw(st.floats(0.0, 180.0)),
        phasing_factor=draw(st.integers(0, num_orbits - 1)),
        epoch=draw(st.floats(-500.0, 500.0)),
    )


@st.composite
def station_sets(draw, max_stations=3):
    """Up to max_stations stations with distinct ids, anywhere, with any mask."""
    count = draw(st.integers(0, max_stations))
    return tuple(
        GroundStation(f"gs-{i}", draw(st.floats(-90.0, 90.0)),
                      draw(st.floats(-180.0, 180.0)),
                      dedicated_rate_bps=draw(st.floats(1e2, 1e6)),
                      min_elevation_deg=draw(st.floats(0.0, 60.0)))
        for i in range(count))


@st.composite
def contact_window_timelines(draw):
    """Keyword arguments of schedule_downlink over the windows contact_windows
    finds for a random shell and station set, which come ordered by station
    rather than by satellite: a nonzero start, 1 to 200 epochs, and a model
    that one full-epoch link moves in 0.01 to 2 epochs."""
    spec = draw(walker_specs())
    stations = draw(station_sets(max_stations=4))
    start = draw(st.floats(-1e4, 1e5))
    epoch = draw(st.sampled_from([60.0, 300.0, 45.0]))
    horizon = draw(st.integers(1, 200)) * epoch
    rate = draw(st.floats(1e3, 1e7))
    windows = contact_windows(build_walker(spec), stations, horizon,
                              step=draw(st.sampled_from([10.0, 30.0, 120.0])),
                              link_config=LinkConfig(sgl_rate_bps=rate), start=start)
    return {"windows": windows, "stations": stations, "start_time": start,
            "horizon": horizon, "epoch_seconds": epoch, "orbits": range(spec.num_orbits),
            "model_bits": rate * epoch * draw(st.floats(0.01, 2.0))}


def merged_topological_order(tasks):
    """Dependency order over the union of task DAGs by a list-based Kahn
    loop: the least ready id comes next, found by re-sorting the ready list."""
    nodes: set = set()
    edges: set = set()
    for dag in tasks:
        nodes.update(dag.service_ids())
        edges.update((u, v) for (u, v, _) in dag.edges)
    indeg = {n: 0 for n in nodes}
    for (_, v) in edges:
        indeg[v] += 1
    ready = sorted(n for n in nodes if indeg[n] == 0)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        newly = []
        for (a, b) in edges:
            if a == u:
                indeg[b] -= 1
                if indeg[b] == 0:
                    newly.append(b)
        ready = sorted(ready + newly)
    if len(order) != len(nodes):
        raise ValueError("task union contains a dependency cycle")
    return order


def reference_dag_cycle(dag):
    """The dependency cycle validate_dag reports, by recursive depth-first
    search: roots in sorted order, successors in edge order; [] if acyclic."""
    ids = dag.service_ids()
    succ = {i: [] for i in ids}
    for (u, v, _) in dag.edges:
        succ[u].append(v)
    color = {i: 0 for i in ids}
    path: list = []

    def visit(u):
        color[u] = 1
        path.append(u)
        for v in succ[u]:
            if color[v] == 1:
                return path[path.index(v):] + [v]
            if color[v] == 0:
                found = visit(v)
                if found:
                    return found
        path.pop()
        color[u] = 2
        return None

    for i in sorted(ids):
        if color[i] == 0:
            found = visit(i)
            if found:
                return found
    return []


def _sat_first_key(node):
    if isinstance(node, SatelliteId):
        return (0, node.orbit_index, node.slot_index)
    return (1, str(node))


def multi_source_dijkstra(adj, sources, targets):
    """Cheapest path from any source to any target over {u: {v: (weight, capacity)}},
    popping the least (distance, node key) and relaxing neighbours in key
    order with a strict <; None when no target is reachable."""
    dist = {s: 0.0 for s in sources}
    prev = {}
    heap = [(0.0, _sat_first_key(s), s) for s in sorted(sources, key=_sat_first_key)]
    heapq.heapify(heap)
    settled = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in targets:
            path = [u]
            while path[-1] in prev:
                path.append(prev[path[-1]])
            return path[::-1]
        for v, attr in sorted(adj.get(u, {}).items(), key=lambda kv: _sat_first_key(kv[0])):
            nd = d + attr[0]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, _sat_first_key(v), v))
    return None


def reference_disjoint_paths(graph, source_orbit, dest_orbit, max_paths=None):
    """(paths, bottlenecks) picked one multi_source_dijkstra path at a time,
    deleting each picked path's edges before the next search."""
    sats = [n for n in graph.nodes if isinstance(n, SatelliteId)]
    sources = [n for n in sats if n.orbit_index == source_orbit]
    targets = {n for n in sats if n.orbit_index == dest_orbit}
    adj = adjacency(graph, list(zip(graph.weights, graph.capacities)))
    paths, bottlenecks = [], []
    while max_paths is None or len(paths) < max_paths:
        path = multi_source_dijkstra(adj, sources, targets)
        if path is None:
            break
        bottlenecks.append(min(adj[a][b][1] for a, b in zip(path, path[1:])))
        for a, b in zip(path, path[1:]):
            del adj[a][b]
        paths.append(tuple(path))
    return tuple(paths), tuple(bottlenecks)


@st.composite
def task_unions(draw, max_ids=7, max_tasks=3):
    """Task DAG lists over a shared id pool: ids recur across tasks and
    edges repeat within and across tasks. With acyclic=True every edge runs
    forward in one hidden rank, so the union is acyclic; otherwise edges
    (self-loops included) may close a cycle."""
    pool = draw(st.permutations([chr(ord("a") + i) for i in range(max_ids)]))
    rank = {name: i for i, name in enumerate(draw(st.permutations(pool)))}
    acyclic = draw(st.booleans())
    tasks = []
    for t in range(draw(st.integers(1, max_tasks))):
        ids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_ids,
                            unique=True))
        edges = []
        for _ in range(draw(st.integers(0, 2 * len(ids)))):
            u, v = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
            if acyclic:
                if u == v:
                    continue
                u, v = sorted((u, v), key=rank.get)
            edges.append((u, v, 1.0))
        services = tuple(Microservice(i, 1.0, 1.0, 1.0) for i in ids)
        tasks.append(ServiceDag(f"task{t}", services, tuple(edges), (ids[0],), ids[-1]))
    return tasks


@st.composite
def tied_orbit_digraphs(draw, max_orbits=4, max_slots=4, max_relays=2):
    """Routing Topology over a small shell plus string relay nodes, with
    rates from {1, 2, 4} Gb/s so that many paths tie on weight."""
    sats = [SatelliteId(o, s) for o in range(draw(st.integers(2, max_orbits)))
            for s in range(draw(st.integers(1, max_slots)))]
    relays = [f"gs-{i}" for i in range(draw(st.integers(0, max_relays)))]
    nodes = draw(st.permutations(sats + relays))
    edges = []
    for _ in range(draw(st.integers(0, 4 * len(nodes)))):
        u, v = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if u != v:
            edges.append((u, v, draw(st.sampled_from([1e9, 2e9, 4e9]))))
    return label_graph(edges, nodes)


@st.composite
def routing_graphs(draw):
    """A routing Topology of one of two kinds: a walker_specs shell's ISL
    graph at a drawn instant, or a tied_orbit_digraphs graph (with string
    relay nodes)."""
    if draw(st.booleans()):
        return draw(tied_orbit_digraphs())
    config = LinkConfig(max_isl_range_km=draw(st.sampled_from([1500.0, 5500.0, 15000.0])),
                        cross_seam_policy=draw(st.sampled_from(["disabled", "enabled"])))
    topo = snapshot(build_walker(draw(walker_specs())), draw(st.floats(0.0, 6000.0)), config)
    return build_weighted_graph(topo)


def reference_simulate_round(config, constellation, workload, setup, round_index=0,
                             start_time=0.0):
    """simkernel.simulate_round as it was before campaigns: every round
    validates its inputs and plans both ring collectives again, and the
    ground and decentralized branches each book the broadcast ring spread.
    Chained round by round, it is the reference for simulate_fine_tuning."""
    config.validate()
    workload.validate()
    setup.compute.validate()
    setup.energy.validate()
    spec = constellation.spec
    P, S = spec.num_orbits, spec.sats_per_orbit
    n_sats = P * S
    samples = workload.samples_per_satellite

    seconds = {p: 0.0 for p in PHASES}
    bits = {p: 0.0 for p in PHASES}
    flops = {p: 0.0 for p in PHASES}
    now = start_time

    def window_start():
        return spec.epoch if config.freeze_topology else now

    def flow_phase(phase, model_bits_per_orbit):
        nonlocal now
        if not setup.stations:
            seconds[phase] = config.horizon_seconds
            now += config.horizon_seconds
            return False
        horizon, step = config.horizon_seconds, config.window_step_seconds
        span = config.epoch_seconds
        while True:
            sampled = span + step
            if sampled >= horizon:
                span = sampled = horizon
            windows = contact_windows(
                constellation, setup.stations, sampled, step=step,
                link_config=setup.link_config, start=window_start())
            result = schedule_downlink(
                windows, model_bits_per_orbit, setup.stations, span,
                epoch_seconds=config.epoch_seconds, start_time=window_start(),
                orbits=range(P))
            if result.complete or span == horizon:
                break
            span *= 2
        elapsed = result.epochs_used * config.epoch_seconds
        delivered = sum(sum(e.delivered.values()) for e in result.epochs)
        seconds[phase] = elapsed if result.complete else config.horizon_seconds
        bits[phase] += delivered * model_bits_per_orbit
        now += seconds[phase]
        return result.complete

    def ring_spread():
        if S < 2:
            return 0.0
        chord_km = 2.0 * constellation.radius_km * math.sin(math.pi / S)
        hop = (workload.head_bits / setup.link_config.intra_orbit_rate_bps
               + chord_km / LIGHT_SPEED_KM_S)
        return (S - 1) * hop

    intra_ring = RingSpec.uniform(S, setup.link_config.intra_orbit_rate_bps) if S >= 2 else None

    def run_phases():
        nonlocal now
        embed_flops = 2.0 * workload.embedding_params * samples
        seconds["embedding_compute"] = embed_flops / setup.compute.satellite_flops_per_s
        flops["embedding_compute"] = embed_flops * n_sats
        now += seconds["embedding_compute"]
        if intra_ring is not None:
            gather = plan_all_gather(intra_ring, [workload.embedding_bits_per_satellite] * S)
            seconds["intra_orbit_gather"] = gather.completion_time
            bits["intra_orbit_gather"] = float(P * gather.total_bits_sent)
            now += gather.completion_time
        orbit_embedding_bits = float(S * workload.embedding_bits_per_satellite)
        if not flow_phase("sgl_down", orbit_embedding_bits):
            return False
        encode_flops = 2.0 * workload.encoder_params * samples * n_sats
        seconds["cloud_encode"] = encode_flops / setup.compute.cloud_flops_per_s
        flops["cloud_encode"] = encode_flops
        now += seconds["cloud_encode"]
        if not flow_phase("sgl_up", orbit_embedding_bits):
            return False
        train_flops = workload.flops_per_sample_head * samples * workload.local_epochs
        seconds["local_train"] = train_flops / setup.compute.satellite_flops_per_s
        flops["local_train"] = train_flops * n_sats
        now += seconds["local_train"]
        if intra_ring is not None and workload.head_bits > 0:
            reduce = plan_all_reduce(intra_ring, workload.head_bits)
            seconds["intra_orbit_aggregate"] = (config.intra_orbit_agg_rounds
                                                * reduce.completion_time)
            bits["intra_orbit_aggregate"] = float(
                P * config.intra_orbit_agg_rounds * reduce.total_bits_sent)
            now += seconds["intra_orbit_aggregate"]
        if workload.head_bits == 0:
            return True
        if config.aggregation_mode == "ground":
            if not flow_phase("inter_orbit_or_global_aggregate", float(workload.head_bits)):
                return False
            if not flow_phase("broadcast", float(workload.head_bits)):
                return False
            spread = ring_spread()
            seconds["broadcast"] += spread
            bits["broadcast"] += float(P * max(S - 1, 0) * workload.head_bits)
            now += spread
            return True
        agg = 0.0
        stages = ([(p, p + 1) for p in range(P - 1)]
                  + [(p, p - 1) for p in range(P - 1, 0, -1)])
        if stages:
            topo = snapshot(constellation, window_start(), setup.link_config)
            graph = build_weighted_graph(topo)
            for src, dst in stages:
                paths = select_disjoint_paths(graph, src, dst)
                if len(paths) == 0:
                    seconds["inter_orbit_or_global_aggregate"] = config.horizon_seconds
                    return False
                agg += parallel_transfer_time(paths, workload.head_bits)
                bits["inter_orbit_or_global_aggregate"] += float(workload.head_bits)
        seconds["inter_orbit_or_global_aggregate"] = agg
        now += agg
        seconds["broadcast"] = ring_spread()
        bits["broadcast"] = float(P * max(S - 1, 0) * workload.head_bits)
        now += seconds["broadcast"]
        return True

    complete = run_phases()
    per_bit = setup.energy.e_tx_j_per_bit + setup.energy.e_rx_j_per_bit
    energy = per_bit * sum(bits.values()) + setup.energy.e_flop_j * sum(flops.values())
    return RoundTrace(round_index, start_time, seconds, bits, flops, sum(seconds.values()),
                      energy, complete, bits["sgl_down"])


def reference_simulate_fine_tuning(config, constellation, workload, setup):
    """(traces, RunAggregate) of config.rounds reference_simulate_round calls,
    each starting where the one before ended, as simulate_fine_tuning chained
    its rounds before campaigns."""
    config.validate()
    traces = []
    t = constellation.spec.epoch
    for r in range(config.rounds):
        trace = reference_simulate_round(config, constellation, workload, setup,
                                         round_index=r, start_time=t)
        traces.append(trace)
        t = trace.start_time + trace.total_seconds
    phase_totals = {p: sum(tr.phase_seconds[p] for tr in traces) for p in PHASES}
    return traces, RunAggregate(
        rounds=len(traces),
        total_seconds=sum(tr.total_seconds for tr in traces),
        total_bits=sum(sum(tr.phase_bits.values()) for tr in traces),
        total_flops=sum(sum(tr.phase_flops.values()) for tr in traces),
        total_energy_joules=sum(tr.energy_joules for tr in traces),
        complete=all(tr.complete for tr in traces),
        phase_second_totals=phase_totals,
    )
