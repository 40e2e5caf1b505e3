"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see every line as it prints;
without -s pytest still shows the lines of failing checks. Each check times
its own computation and fails if it blows its time budget.
"""

import math
import time
from pathlib import Path

import numpy as np

from leoplan import (
    DeploymentInstance,
    LinearPolicy,
    Microservice,
    RingSpec,
    SatelliteNode,
    ServiceDag,
    all_pairs_shortest,
    build_walker,
    execute,
    head_fraction,
    max_flow,
    parse_scenario,
    payload_bits,
    plan_all_reduce,
    schedule_downlink,
    simulate_fine_tuning,
    solve_exact,
    solve_greedy,
    train_policy_gradient,
)
from leoplan.deployment import DeploymentMdp, N_FEATURES
from leoplan.orchestration import dst_exact, dst_heuristic, validate_tree
from leoplan.simkernel import SimulationSetup

from oracles import (
    best_single_link_epochs,
    dijkstra_distances,
    enumerate_best_assignment,
    evaluate_policy,
    exhaustive_min_cut,
    random_deployment_instance,
    random_layered_network,
    random_rate_digraph,
    random_steiner_instance,
    random_window_timeline,
    sat,
    shortest_path_sum,
    toy_snapshot,
)

REPO = Path(__file__).resolve().parents[1]


def report(num, ok, detail):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_embedding_payload():
    t0 = time.perf_counter()
    bits = payload_bits(512, 786432, 32)
    elapsed = time.perf_counter() - t0
    ok = (bits == 12_884_901_888 and bits % 8 == 0
          and bits // 8 == 1_610_612_736 and elapsed < 1e-3)
    report(1, ok, f"payload_bits(512, 786432, 32) = {bits} bits "
                  f"({bits // 8} bytes) in {elapsed * 1e6:.1f} us")


def test_criterion_02_head_fraction():
    t0 = time.perf_counter()
    frac = head_fraction(62_000, 50_000, 86_000_000)
    elapsed = time.perf_counter() - t0
    ok = 0.00125 <= frac <= 0.00135 and elapsed < 1e-3
    report(2, ok, f"trainable satellite share {frac:.6f} of all parameters "
                  f"(bounds [0.00125, 0.00135]) in {elapsed * 1e6:.1f} us")


def test_criterion_03_ring_all_reduce():
    t0 = time.perf_counter()
    worst_rel = 0.0
    payload, rate = 1e9, 1e9
    for n in (2, 4, 8, 16, 32, 64):
        res = plan_all_reduce(RingSpec.uniform(n, rate), payload)
        closed = 2.0 * (n - 1) / n * payload / rate
        worst_rel = max(worst_rel, abs(res.completion_time - closed) / closed)
    sums_ok = True
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 8, 16, 32):
        res = plan_all_reduce(RingSpec.uniform(n, 1e6), 1000 * n)
        values = rng.integers(0, 1000, size=(n, n))
        initial = [{b: int(values[i, b]) for b in range(n)} for i in range(n)]
        final, elapsed_s = execute(res.schedule, initial)
        col = values.sum(axis=0)
        sums_ok &= all(node[b] == col[b] for node in final for b in range(n))
        sums_ok &= abs(elapsed_s - res.completion_time) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.01 and sums_ok and elapsed < 5.0
    report(3, ok, f"completion within {worst_rel * 100:.4f}% of 2(N-1)/N * D/r for "
                  f"N in 2..64; executed schedules reduce to exact elementwise sums; "
                  f"{elapsed:.2f} s")


def test_criterion_04_max_flow():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    count, worst = 0, 0.0
    for _ in range(120):
        net, caps = random_layered_network(rng)
        got = max_flow(net, "s", "t").value
        want = exhaustive_min_cut(caps, "s", "t")
        worst = max(worst, abs(got - want))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count >= 100 and worst < 1e-9 and elapsed < 10.0
    report(4, ok, f"{count} random layered networks: max-flow equals exhaustive "
                  f"min-cut, worst gap {worst:.2e}; {elapsed:.2f} s")


def test_criterion_05_all_pairs_routing():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    graphs, mismatches = 0, 0
    for _ in range(200):
        g, weights = random_rate_digraph(rng)
        sp = all_pairs_shortest(g)
        for src in g.nodes:
            ref = dijkstra_distances(weights, src)
            for dst in g.nodes:
                if sp.column(sp.index[dst])[0][sp.index[src]] != ref.get(dst, math.inf):
                    mismatches += 1
        graphs += 1
    elapsed = time.perf_counter() - t0
    ok = graphs == 200 and mismatches == 0 and elapsed < 5.0
    report(5, ok, f"{graphs} random digraphs: matrix shortest paths equal "
                  f"per-source Dijkstra bit for bit ({mismatches} mismatches); "
                  f"{elapsed:.2f} s")


def test_criterion_06_deployment_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst, ratios = 0.0, []
    for _ in range(50):
        tasks, sats_, snap = random_deployment_instance(rng)
        inst = DeploymentInstance(tasks, sats_, snap)
        plan = solve_exact(inst)
        want_obj, _, feasible_count = enumerate_best_assignment(tasks, sats_, snap)
        assert feasible_count > 0 and plan.feasible
        worst = max(worst, abs(plan.objective - want_obj))
        greedy = solve_greedy(inst)
        assert greedy.feasible and greedy.objective >= plan.objective - 1e-12
        ratios.append(greedy.objective / plan.objective)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    report(6, ok, f"50 random placement instances: branch-and-bound equals "
                  f"full enumeration (worst gap {worst:.2e}); greedy/optimal "
                  f"mean ratio {np.mean(ratios):.4f}, max {max(ratios):.4f}; "
                  f"{elapsed:.2f} s")


def test_criterion_07_steiner_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    count = 0
    ok = True
    for _ in range(100):
        g, inst = random_steiner_instance(rng)
        exact = dst_exact(g, inst)
        heur = dst_heuristic(g, inst)
        upper = shortest_path_sum(g, inst)
        validate_tree(g, inst, exact)
        validate_tree(g, inst, heur)
        ok &= exact.total_energy <= heur.total_energy + 1e-12
        ok &= heur.total_energy <= upper + 1e-12
        count += 1
    elapsed = time.perf_counter() - t0
    ok = ok and count == 100 and elapsed < 60.0
    report(7, ok, f"{count} random digraphs: optimal tree <= 2-stage heuristic "
                  f"<= summed per-terminal shortest paths; {elapsed:.2f} s")


def test_criterion_08_coordinated_downlink():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    compared, ok = 0, True
    horizon, epoch, model = 600.0, 60.0, 4e8
    for _ in range(50):
        windows, stations = random_window_timeline(rng)
        if not windows:
            continue
        orbits = sorted({w.satellite.orbit_index for w in windows})
        res = schedule_downlink(windows, model, stations, horizon=horizon,
                                epoch_seconds=epoch, orbits=orbits)
        single_epochs, single_complete = best_single_link_epochs(
            windows, model, stations, horizon, epoch, orbits)
        if single_complete:
            ok &= res.complete and res.epochs_used <= single_epochs
            compared += 1
    elapsed = time.perf_counter() - t0
    ok = ok and compared >= 10 and elapsed < 10.0
    report(8, ok, f"coordinated multi-link schedule needed no more epochs than "
                  f"the best single-link schedule on {compared} feasible random "
                  f"timelines; {elapsed:.2f} s")


def test_criterion_09_bundled_demo_run():
    t0 = time.perf_counter()
    scn = parse_scenario(REPO / "scenarios" / "demo_walker6.json")
    constellation = build_walker(scn.constellation)
    setup = SimulationSetup(stations=scn.ground_stations, link_config=scn.link_config,
                            compute=scn.compute, energy=scn.energy)
    runs = [simulate_fine_tuning(scn.federation, constellation, scn.workload,
                                 setup, seed=scn.seed or 0) for _ in range(2)]
    elapsed = time.perf_counter() - t0

    (traces_a, agg_a), (traces_b, agg_b) = runs
    deterministic = traces_a == traces_b and agg_a == agg_b
    worst = 0.0
    for tr in traces_a:
        worst = max(worst, abs(sum(tr.phase_seconds.values()) - tr.total_seconds))
    for phase, total in agg_a.phase_second_totals.items():
        worst = max(worst, abs(total - sum(tr.phase_seconds[phase] for tr in traces_a)))
    worst = max(worst, abs(agg_a.total_seconds
                           - sum(tr.total_seconds for tr in traces_a)))
    ok = (agg_a.rounds == 10 and agg_a.complete and deterministic
          and worst <= 1e-9 and elapsed < 60.0)
    report(9, ok, f"bundled 6x11 demo: {agg_a.rounds} rounds complete, "
                  f"{agg_a.total_seconds:.1f} simulated seconds, two runs "
                  f"identical, per-phase sums reconcile to {worst:.2e}; "
                  f"{elapsed:.2f} s wall")


def test_criterion_10_policy_training():
    print("criterion 10 note: model accuracy and learning-curve numbers depend "
          "on data and training stacks outside this library and are not "
          "reproduced here; timing, communication, and energy quantities are "
          "covered by criteria 1-9. Placement-policy quality is instead "
          "checked against a uniform-random baseline on pinned seeds.")
    t0 = time.perf_counter()
    labels = ["o0s0", "o0s1", "o0s2"]
    snap = toy_snapshot([(labels[i], labels[(i + 1) % 3], 1e8) for i in range(3)])
    thr = {"o0s0": 2e12, "o0s1": 1e12, "o0s2": 0.5e12}
    sats = [SatelliteNode(sat(lb), thr[lb], 50.0) for lb in labels]
    ids = [f"svc{i}" for i in range(5)]
    services = tuple(Microservice(i, 1e12, 1.0, 1e6) for i in ids)
    edges = tuple((a, b, 1e6) for a, b in zip(ids, ids[1:]))
    task = ServiceDag("t", services, edges, (ids[0],), ids[-1])
    env = DeploymentMdp(DeploymentInstance([task], sats, snap))

    policy, _ = train_policy_gradient(env, episodes=300, seed=0)
    uniform = LinearPolicy(np.zeros(N_FEATURES))
    margins = []
    ok = True
    for eval_seed in (101, 202):
        trained = evaluate_policy(env, policy, episodes=50, seed=eval_seed)
        base = evaluate_policy(env, uniform, episodes=50, seed=eval_seed)
        ok &= trained > base
        margins.append(trained - base)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(10, ok, f"trained placement policy beats the uniform baseline mean "
                   f"return on both pinned evaluation seeds (margins "
                   f"{margins[0]:.4f}, {margins[1]:.4f}); {elapsed:.2f} s")
