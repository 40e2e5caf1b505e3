"""Reference implementations and random instance builders for the test suite.

The reference algorithms are deliberately slow and obvious: exhaustive cut
enumeration, textbook Dijkstra over plain dicts, brute-force subset search.
They share no code with the library, so agreement between the two is
meaningful evidence rather than a tautology. The one exception is
run_length_windows, which takes the library's visibility samples so that
only the run detection under test differs. floyd_warshall and
reference_visibility keep the library's earlier whole-array formulations,
so the faster versions must reproduce them bit for bit; likewise
merged_topological_order and multi_source_dijkstra keep the loops that
leoplan.graph replaced, reference_dag_cycle the recursive search validate_dag
replaced, reference_action_features and reference_greedy the placement
code that re-evaluated the from-scratch objective for every candidate,
reference_train_policy_gradient the training loop that rebuilt every state's
features and drew with Generator.choice, and
reference_max_flow and reference_schedule_downlink the dict-keyed max-flow
and the scheduler that tested every window in every epoch (it builds each
epoch's network with the library's _overlap and build_flow_network, so only
the window scan and the max-flow differ).
full_hosting_reduction_check runs the library's dst_exact against networkx's
Edmonds arborescence.
"""

from __future__ import annotations

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
    AugmentedGraph,
    ConstellationSpec,
    ContactWindow,
    FlowNetwork,
    GroundStation,
    LatencyModel,
    Link,
    LinkKind,
    Microservice,
    Router,
    SatelliteId,
    SatelliteNode,
    ServiceDag,
    SteinerInstance,
    TopologySnapshot,
    WeightedDigraph,
    build_flow_network,
    build_walker,
    check_feasible,
    dag_latency,
    dst_exact,
    parse_scenario,
)
from leoplan.constellation import EARTH_ROTATION_RAD_S, _visible_samples
from leoplan import deployment
from leoplan.deployment import (N_FEATURES, DeploymentMdp, DeploymentPlan, TrainingReport,
                                _objective)
from leoplan.sgl_flow import (FLOW_TOL, SINK, SOURCE, DownlinkResult, DownlinkState, EpochFlow,
                              FlowAssignment, _overlap)


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
    dist = dijkstra_distances(graph.edges, instance.root)
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
    for (u, v), w in graph.edges.items():
        if v == instance.root:
            continue  # forcing the arborescence root
        g.add_edge(u, v, weight=w)
    arb = nx.algorithms.tree.branchings.minimum_spanning_arborescence(
        g, attr="weight", preserve_attrs=True)
    arb_edges = frozenset(arb.edges())
    arb_energy = float(sum(graph.edges[e] for e in arb_edges))
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
    """(dist, next_hop) over graph.sorted_nodes(), one fresh matrix per k.

    The same relaxation as ShortestPaths (strict <, k in sorted-node order),
    written as whole-matrix numpy expressions that never update in place.
    """
    nodes = graph.sorted_nodes()
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    dist = np.full((n, n), np.inf)
    nxt = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0.0)
    for i in range(n):
        nxt[i, i] = i
    for (u, v), attr in graph.edges.items():
        i, j = index[u], index[v]
        if attr.weight < dist[i, j]:
            dist[i, j] = attr.weight
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


def random_sparse_digraph(rng, n, out_degree, isolated_share, tied):
    """A directed WeightedDigraph on n nodes for all-pairs comparisons.

    Each non-isolated node gets about out_degree out-edges to random other
    non-isolated nodes, drawn independently per direction, so the graph is
    asymmetric. Capacities are uniform in [1e6, 1e9], or with tied=True drawn
    from {1e9, 2e9, 3e9} so that many paths weigh the same; either way the
    1/capacity weights are not powers of two.
    """
    names = [f"n{i:03d}" for i in range(n)]
    g = WeightedDigraph()
    for name in names:
        g.add_node(name)
    live = [i for i in range(n) if rng.random() >= isolated_share]
    if len(live) < 2:
        return g
    for u in live:
        for _ in range(int(rng.poisson(out_degree))):
            v = live[int(rng.integers(0, len(live)))]
            if v == u:
                continue
            if tied:
                cap = float(rng.choice([1e9, 2e9, 3e9]))
            else:
                cap = float(rng.uniform(1e6, 1e9))
            g.add_edge(names[u], names[v], cap)
    return g


def visibility_flags(constellation, station, times):
    """The library's visible samples for one station as flags, shape (len(times), n)."""
    visible = np.zeros((len(times), constellation.num_satellites), dtype=bool)
    _, i, t = _visible_samples(constellation, (station,), times)
    visible[t, i] = True
    return visible


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


def random_rate_digraph(rng, max_nodes=12):
    """(WeightedDigraph, weight dict) with power-of-two weights, so every path
    sum is exact in floating point and algorithms must agree bit for bit."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"n{i}" for i in range(n)]
    g = WeightedDigraph()
    for name in names:
        g.add_node(name)
    weights = {}
    for u in names:
        for v in names:
            if u != v and rng.random() < 0.35:
                w = float(2 ** int(rng.integers(0, 5)))
                g.add_edge(u, v, 1.0 / w)
                weights[(u, v)] = w
    return g, weights


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


def reference_action_features(env, state, action):
    """deployment.action_features re-evaluating the whole objective for the
    candidate, with linear satellite searches and per-use assignment dicts."""
    sid, sat_id = action
    inst = env.instance
    compute_scale, obj_scale = env._scales
    svc = inst.services[sid]
    run = svc.flops / inst.throughput(sat_id) / compute_scale

    placed = state.placed()
    placed[sid] = sat_id
    delta = (_objective(inst, placed) - state.objective) / obj_scale

    sat_index = next(i for i, s in enumerate(inst.satellites) if s.id == sat_id)
    capacity = inst.satellites[sat_index].memory_bytes
    residual = (state.residual_memory[sat_index] - svc.memory_bytes) / capacity if capacity else 0.0

    preds = [u for t in range(len(inst.tasks))
             for (u, _) in inst._task_preds[t].get(sid, [])]
    hosted_preds = [u for u in preds if u in dict(state.assignment)]
    colocated = (sum(1 for u in hosted_preds if dict(state.assignment)[u] == sat_id)
                 / len(hosted_preds)) if hosted_preds else 0.0
    return np.array([1.0, run, delta, residual, colocated])


def reference_train_policy_gradient(envs, episodes, seed, lr=0.15, optima=None):
    """deployment.train_policy_gradient as it was before its per-run cache:
    every step rebuilds the state's features through the library's
    action_features, draws with Generator.choice, and every episode starts from
    a fresh reset. Returns (theta, TrainingReport)."""
    if isinstance(envs, DeploymentMdp):
        envs = [envs]
    envs = list(envs)
    rng = np.random.default_rng(seed)
    theta = np.zeros(N_FEATURES)

    def distribution(env, state):
        actions = env.feasible_actions(state)
        feats = np.array([deployment.action_features(env, state, a) for a in actions])
        scores = feats @ theta
        scores -= scores.max()
        probs = np.exp(scores)
        probs /= probs.sum()
        return actions, feats, probs

    baselines = [0.0] * len(envs)
    counts = [0] * len(envs)
    returns = []
    for ep in range(episodes):
        idx = ep % len(envs)
        env = envs[idx]
        state = env.reset()
        grads = np.zeros(N_FEATURES)
        total = 0.0
        while not state.done:
            if not env.feasible_actions(state):
                total += env.dead_end_reward
                break
            actions, feats, probs = distribution(env, state)
            choice = int(rng.choice(len(actions), p=probs))
            grads += feats[choice] - probs @ feats
            tr = env.step(state, actions[choice])
            total += tr.reward
            state = tr.state
        counts[idx] += 1
        baselines[idx] += (total - baselines[idx]) / counts[idx]
        theta = theta + lr * (total - baselines[idx]) * grads
        returns.append(total)

    greedy_returns = []
    for env in envs:
        state = env.reset()
        total = 0.0
        while not state.done:
            if not env.feasible_actions(state):
                total += env.dead_end_reward
                break
            actions, _, probs = distribution(env, state)
            tr = env.step(state, actions[int(np.argmax(probs))])
            total += tr.reward
            state = tr.state
        greedy_returns.append(total)
    mean_gap = None
    if optima is not None:
        mean_gap = float(np.mean([(-g) - opt for g, opt in zip(greedy_returns, optima)]))
    report = TrainingReport(episodes, returns, float(np.mean(returns[-max(1, episodes // 4):])),
                            greedy_returns, mean_gap)
    return theta, report


def reference_greedy(instance):
    """solve_greedy re-evaluating the whole objective for every candidate."""
    placed: dict = {}
    residuals = {s.id: s.memory_bytes for s in instance.satellites}
    for sid in instance.order:
        best_sat = None
        best_obj = math.inf
        for node in instance.satellites:
            if not instance.service_fits(sid, node, residuals[node.id]):
                continue
            placed[sid] = node.id
            obj = _objective(instance, placed)
            del placed[sid]
            if obj < best_obj:
                best_obj, best_sat = obj, node
        if best_sat is None:
            return DeploymentPlan({}, False, None, "greedy")
        placed[sid] = best_sat.id
        residuals[best_sat.id] -= instance.services[sid].memory_bytes
    return DeploymentPlan(placed, True, _objective(instance, placed), "greedy")


def enumerate_best_assignment(tasks, satellites, snapshot_):
    """Optimal summed latency by trying every memory-feasible assignment.

    Latency is evaluated through the DAG latency module, a separate code path
    from the solvers' internal objective.
    """
    router = Router(snapshot_, include_ground=False)
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


def random_steiner_instance(rng, max_nodes=9, max_terminals=4, extra_p=0.25):
    """(AugmentedGraph, SteinerInstance) with every node reachable from v0."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    g = AugmentedGraph()
    for name in names:
        g.add_node(name)
    for k in range(1, n):
        j = int(rng.integers(0, k))
        g.add_edge(names[j], names[k], float(rng.uniform(0.1, 2.0)))
    for u in names:
        for v in names:
            if u != v and (u, v) not in g.edges and rng.random() < extra_p:
                g.add_edge(u, v, float(rng.uniform(0.1, 2.0)))
    k_terms = int(rng.integers(1, min(max_terminals, n - 1) + 1))
    perm = list(names[1:])
    rng.shuffle(perm)
    return g, SteinerInstance(names[0], frozenset(perm[:k_terms]))


def steiner_bruteforce(graph, instance):
    """Minimum root-arborescence cost covering the terminals, by trying every
    edge subset. Only usable on very small graphs."""
    edge_items = list(graph.edges.items())
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


def reference_schedule_downlink(windows, model_bits, stations, horizon, epoch_seconds,
                                orbits, start_time=0.0, tol=FLOW_TOL):
    """schedule_downlink from full models, testing every window against every
    epoch and running reference_max_flow; the scan the scheduler replaced by
    per-window epoch spans."""
    state = DownlinkState(remaining={int(o): 1.0 for o in orbits})
    epochs = []
    for e in range(int(horizon // epoch_seconds)):
        if state.done(tol):
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
        state.elapsed_windows += 1
        epochs.append(EpochFlow(e, assignment, delivered))
    return DownlinkResult(epochs, state, state.done(tol))


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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_workloads():
    """The benchmark's perfbench/workloads.py, imported once from its file
    (perfbench is not a package)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def shell_plan_case(seed=0, op_index=0):
    """(walker, scenario, request time) of the benchmark's shell_plan op: a
    24x22 shell with 8 seeded stations, generated by perfbench/workloads.py."""
    inp = perfbench_workloads().shell_plan_input(seed, op_index)
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
    """Cheapest path from any source to any target over {u: {v: EdgeAttr}},
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
            nd = d + attr.weight
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
    adj = {u: {v: graph.edges[(u, v)] for v in vs} for u, vs in graph.adjacency.items()}
    paths, bottlenecks = [], []
    while max_paths is None or len(paths) < max_paths:
        path = multi_source_dijkstra(adj, sources, targets)
        if path is None:
            break
        bottlenecks.append(min(adj[a][b].capacity_bps for a, b in zip(path, path[1:])))
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
    """WeightedDigraph over a small shell plus string relay nodes, with rates
    from {1, 2, 4} Gb/s so that many paths tie on weight."""
    sats = [SatelliteId(o, s) for o in range(draw(st.integers(2, max_orbits)))
            for s in range(draw(st.integers(1, max_slots)))]
    relays = [f"gs-{i}" for i in range(draw(st.integers(0, max_relays)))]
    nodes = draw(st.permutations(sats + relays))
    g = WeightedDigraph()
    for node in nodes:
        g.add_node(node)
    for _ in range(draw(st.integers(0, 4 * len(nodes)))):
        u, v = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if u != v:
            g.add_edge(u, v, draw(st.sampled_from([1e9, 2e9, 4e9])))
    return g
