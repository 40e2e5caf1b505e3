import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoplan import (
    DeploymentInstance,
    DeploymentMdp,
    LinearPolicy,
    Microservice,
    SatelliteNode,
    ServiceDag,
    plan_from_policy,
    solve_exact,
    solve_greedy,
    train_policy_gradient,
)
from leoplan import deployment
from leoplan.deployment import DEAD_END_REWARD, MAX_EPISODES, N_FEATURES, action_features

from oracles import (
    enumerate_best_assignment,
    evaluate_policy,
    policy_distribution,
    random_deployment_instance,
    random_sharing_instance,
    reference_action_features,
    reference_fits,
    reference_greedy,
    reference_objective,
    reference_softmax,
    reference_solve_exact,
    reference_train_policy_gradient,
    rollout,
    sat,
    toy_snapshot,
)


def ms(sid, flops=1e12, mem=1.0, out=1e6):
    return Microservice(sid, flops, mem, out)


def chain_task(ids, flops=1e12, mem=1.0, payload=1e6, task_id="t"):
    services = tuple(ms(i, flops=flops, mem=mem) for i in ids)
    edges = tuple((a, b, payload) for a, b in zip(ids, ids[1:]))
    return ServiceDag(task_id, services, edges, (ids[0],), ids[-1])


def two_sat_instance(thr0=1e12, thr1=2e12, mem=10.0, rate=1e9, **kw):
    snap = toy_snapshot([("o0s0", "o0s1", rate)])
    sats = [SatelliteNode(sat("o0s0"), thr0, mem),
            SatelliteNode(sat("o0s1"), thr1, mem)]
    return DeploymentInstance(kw.pop("tasks", [chain_task(["a", "b"])]), sats, snap, **kw)


def test_instance_validation():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    sats = [SatelliteNode(sat("o0s0"), 1e12, 1.0)]
    with pytest.raises(ValueError, match="at least one task"):
        DeploymentInstance([], sats, snap)
    with pytest.raises(ValueError, match="at least one satellite"):
        DeploymentInstance([chain_task(["a"])], [], snap)
    for bad, message in [((0.0, 1.0), "throughput must be positive"),
                         ((np.nan, 1.0), "throughput must be positive"),
                         # an infinite one gave every service zero compute time
                         ((np.inf, 1.0), "throughput must be positive and finite"),
                         ((1e12, np.nan), "memory must be nonnegative"),
                         ((1e12, 1.0, -1.0), "energy budget must be nonnegative"),
                         ((1e12, 1.0, np.nan), "energy budget must be nonnegative")]:
        with pytest.raises(ValueError, match=f"o0s0: {message}"):
            DeploymentInstance([chain_task(["a"])], [SatelliteNode(sat("o0s0"), *bad)], snap)
    t1 = chain_task(["a", "b"], task_id="t1")
    t2 = ServiceDag("t2", (ms("a", flops=9e9),), (), ("a",), "a")
    with pytest.raises(ValueError, match="microservice a redefined across tasks"):
        DeploymentInstance([t1, t2], sats, snap)


@pytest.mark.parametrize("e_flop_j", [math.nan, -1.0, math.inf, -math.inf])
def test_instance_rejects_a_bad_energy_per_flop(e_flop_j):
    """NaN passed every energy budget test and inf failed every one."""
    with pytest.raises(ValueError, match="e_flop_j must be nonnegative and finite"):
        two_sat_instance(e_flop_j=e_flop_j)
    assert two_sat_instance(e_flop_j=0.0).e_flop_j == 0.0


def test_instance_satellites_sorted():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    sats = [SatelliteNode(sat("o0s1"), 1e12, 1.0), SatelliteNode(sat("o0s0"), 1e12, 1.0)]
    inst = DeploymentInstance([chain_task(["a"])], sats, snap)
    assert [s.id.label for s in inst.satellites] == ["o0s0", "o0s1"]


def test_merged_order_respects_dependencies():
    t1 = chain_task(["a", "c"], task_id="t1")
    t2 = chain_task(["b", "c2"], task_id="t2")
    inst = two_sat_instance(tasks=[t1, t2])
    order = inst.order
    assert set(order) == {"a", "b", "c", "c2"}
    assert order.index("a") < order.index("c")
    assert order.index("b") < order.index("c2")


def test_transfer_seconds():
    # a -> b carries 1e6 bits: nothing on one host, 1e6 / 1e6 + 0.02 s across
    # the link, between two 1 s runs.
    snap = toy_snapshot([("o0s0", "o0s1", 1e6, 0.02)], extra_sats=("o0s2",))
    sats = [SatelliteNode(sat(f"o0s{i}"), 1e12, 10.0) for i in range(3)]
    env = DeploymentMdp(DeploymentInstance([chain_task(["a", "b"])], sats, snap))
    first = env.step(env.reset(), ("a", sat("o0s0"))).state
    assert env.step(first, ("b", sat("o0s0"))).state.objective == 2.0
    assert abs(env.step(first, ("b", sat("o0s1"))).state.objective - 3.02) < 1e-12
    with pytest.raises(ValueError, match="not connected in the snapshot"):
        env.step(first, ("b", sat("o0s2")))


def test_candidate_outside_the_snapshot_is_rejected():
    snap = toy_snapshot([("o0s0", "o0s1", 1e6, 0.02)])
    sats = [SatelliteNode(sat(f"o0s{i}"), 1e12, 10.0) for i in range(3)]
    with pytest.raises(ValueError, match="satellite o0s2 not in the snapshot"):
        DeploymentInstance([chain_task(["a"])], sats, snap)


def test_exact_picks_faster_host():
    inst = two_sat_instance(tasks=[chain_task(["solo"])])
    plan = solve_exact(inst)
    assert plan.feasible
    assert plan.assignment == {"solo": sat("o0s1")}
    assert abs(plan.objective - 0.5) < 1e-12


def test_exact_colocates_over_slow_link():
    # Splitting the chain across the 1e3 bps link costs 1000 s of transfer,
    # so both services belong on the fast satellite: 0.5 + 0.5 = 1.0.
    inst = two_sat_instance(thr0=2e12, thr1=1e12, rate=1e3)
    plan = solve_exact(inst)
    assert plan.assignment == {"a": sat("o0s0"), "b": sat("o0s0")}
    assert abs(plan.objective - 1.0) < 1e-12


def test_memory_forces_split():
    inst = two_sat_instance(thr0=2e12, thr1=1e12, mem=1.0, rate=1e9,
                            tasks=[chain_task(["a", "b"], mem=1.0)])
    plan = solve_exact(inst)
    assert plan.feasible
    hosts = set(plan.assignment.values())
    assert hosts == {sat("o0s0"), sat("o0s1")}
    #  a on the fast host, then 1e6/1e9 transfer, then b on the slow host
    assert abs(plan.objective - (0.5 + 1e-3 + 1.0)) < 1e-12


def test_exact_infeasible_instance():
    inst = two_sat_instance(tasks=[chain_task(["a", "b"], mem=99.0)])
    plan = solve_exact(inst)
    assert not plan.feasible
    assert plan.assignment == {} and plan.objective is None
    greedy = solve_greedy(inst)
    assert not greedy.feasible
    assert greedy.assignment == {} and greedy.solver == "greedy"


def test_exact_size_bound():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    sats = [SatelliteNode(sat("o0s0"), 1e12, 100.0), SatelliteNode(sat("o0s1"), 1e12, 100.0)]
    big = chain_task([f"s{i}" for i in range(9)])
    inst = DeploymentInstance([big], sats, snap)
    with pytest.raises(ValueError, match="size bound exceeded: exact solver accepts "
                                         "at most 6 satellites and 8 microservices "
                                         r"\(got 2 and 9\)"):
        solve_exact(inst)


def test_empty_task_trivial_plan():
    inst = two_sat_instance(tasks=[ServiceDag("t", (), (), (), None)])
    plan = solve_exact(inst)
    assert plan.feasible and plan.assignment == {} and plan.objective == 0.0
    env = DeploymentMdp(inst)
    assert env.reset().done


def test_energy_budget_filter():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    sats = [SatelliteNode(sat("o0s0"), 2e12, 10.0, energy_budget_j=0.5),
            SatelliteNode(sat("o0s1"), 1e12, 10.0)]
    task = chain_task(["a"], flops=1e12)  # 1 J at 1e-12 J/flop
    strict = DeploymentInstance([task], sats, snap)
    assert solve_exact(strict).assignment == {"a": sat("o0s1")}
    assert solve_greedy(strict).assignment == {"a": sat("o0s1")}
    env = DeploymentMdp(strict)
    assert env.reset().actions == (("a", sat("o0s1")),)
    # At 1e-13 J/flop the service draws 0.1 J, within the faster host's budget.
    cheap = DeploymentInstance([task], sats, snap, e_flop_j=1e-13)
    assert solve_exact(cheap).assignment == {"a": sat("o0s0")}
    unbudgeted = [SatelliteNode(s.id, s.throughput_flops, s.memory_bytes) for s in sats]
    assert solve_exact(DeploymentInstance([task], unbudgeted, snap)).assignment == {
        "a": sat("o0s0")}


def test_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(606)
    harder = 0
    for _ in range(45):
        tasks, sats_, snap = random_deployment_instance(rng)
        inst = DeploymentInstance(tasks, sats_, snap)
        plan = solve_exact(inst)
        want_obj, _, feasible_count = enumerate_best_assignment(tasks, sats_, snap)
        assert feasible_count > 0
        assert plan.feasible
        assert abs(plan.objective - want_obj) < 1e-9
        greedy = solve_greedy(inst)
        assert greedy.feasible
        assert greedy.objective >= plan.objective - 1e-12
        if greedy.objective > plan.objective + 1e-9:
            harder += 1
    del harder  # greedy may or may not hit the optimum; both cases are fine


def test_mdp_reset_and_feasible_actions():
    inst = two_sat_instance()
    env = DeploymentMdp(inst)
    state = env.reset()
    assert state.prefix.hosts == () and not state.done
    assert state.prefix.free == (10.0, 10.0)
    assert state.actions == (("a", sat("o0s0")), ("a", sat("o0s1")))


def test_mdp_rewards_telescope_to_objective():
    rng = np.random.default_rng(33)
    for _ in range(10):
        tasks, sats_, snap = random_deployment_instance(rng)
        inst = DeploymentInstance(tasks, sats_, snap)
        plan = solve_exact(inst)
        env = DeploymentMdp(inst)
        state = env.reset()
        total = 0.0
        for sid in inst.order:
            tr = env.step(state, (sid, plan.assignment[sid]))
            total += tr.reward
            state = tr.state
        assert state.done and not state.dead_end
        assert abs(total + plan.objective) < 1e-9
        assert state.placed() == plan.assignment


def test_mdp_states_read_their_actions_off_the_prefix():
    """A state's placed actions and next index come from its prefix; equality
    tells apart states that place different actions, and two walks to the
    same placement give equal states."""
    inst = two_sat_instance()
    env = DeploymentMdp(inst)
    start = env.reset()
    left, right = (env.step(start, action).state for action in start.actions)
    assert (len(left.prefix.hosts), left.assignment) == (1, (("a", sat("o0s0")),))
    assert right.assignment == (("a", sat("o0s1")),)
    assert left != right and left != start
    assert left == env.step(env.reset(), start.actions[0]).state
    assert hash(left) == hash(env.step(env.reset(), start.actions[0]).state)
    assert left.assignment[0] is start.actions[0]  # the env's pair, not a copy


def test_mdp_step_errors():
    inst = two_sat_instance(tasks=[chain_task(["a", "b"], mem=4.0)])
    env = DeploymentMdp(inst)
    state = env.reset()
    with pytest.raises(ValueError, match=r"not feasible; feasible: \[\('a', "):
        env.step(state, ("b", sat("o0s0")))
    done = env.step(env.step(state, ("a", sat("o0s0"))).state, ("b", sat("o0s0"))).state
    assert done.done
    with pytest.raises(ValueError, match="episode is over"):
        env.step(done, ("a", sat("o0s0")))


def test_mdp_dead_end():
    # One satellite with room for the first service but not the second.
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)], extra_sats=())
    sats = [SatelliteNode(sat("o0s0"), 1e12, 3.0)]
    inst = DeploymentInstance([chain_task(["a", "b"], mem=2.0)], sats, snap)
    env = DeploymentMdp(inst)
    tr = env.step(env.reset(), ("a", sat("o0s0")))
    assert tr.done and tr.state.dead_end
    assert tr.reward <= DEAD_END_REWARD
    assert rollout(env, lambda s: s.actions[0]) <= DEAD_END_REWARD


def test_rollout_dead_on_arrival():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    sats = [SatelliteNode(sat("o0s0"), 1e12, 1.0)]
    inst = DeploymentInstance([chain_task(["a"], mem=5.0)], sats, snap)
    env = DeploymentMdp(inst)
    assert env.reset().actions == ()
    assert rollout(env, lambda s: None) == DEAD_END_REWARD


def benchmark_env():
    labels = ["o0s0", "o0s1", "o0s2"]
    snap = toy_snapshot([(labels[i], labels[(i + 1) % 3], 1e8) for i in range(3)])
    thr = {"o0s0": 2e12, "o0s1": 1e12, "o0s2": 0.5e12}
    sats = [SatelliteNode(sat(lb), thr[lb], 50.0) for lb in labels]
    task = chain_task([f"svc{i}" for i in range(5)], flops=1e12, payload=1e6)
    return DeploymentMdp(DeploymentInstance([task], sats, snap))


def test_uniform_policy_is_uniform():
    env = benchmark_env()
    uniform = LinearPolicy(np.zeros(N_FEATURES))
    plan_from_policy(env, uniform)  # warms the feature scales
    actions, feats, probs = policy_distribution(env, env.reset(), uniform.theta)
    assert len(actions) == 3
    assert feats.shape == (3, N_FEATURES)
    assert np.allclose(probs, 1.0 / 3.0)


def test_training_is_deterministic():
    p1, r1 = train_policy_gradient(benchmark_env(), episodes=40, seed=9)
    p2, r2 = train_policy_gradient(benchmark_env(), episodes=40, seed=9)
    assert np.array_equal(p1.theta, p2.theta)
    assert r1.returns == r2.returns
    assert r1.episodes == 40
    assert len(r1.greedy_returns) == 1


def test_trained_policy_beats_uniform():
    env = benchmark_env()
    policy, report = train_policy_gradient(env, episodes=300, seed=0)
    uniform = LinearPolicy(np.zeros(N_FEATURES))
    for eval_seed in (101, 202):
        trained = evaluate_policy(env, policy, episodes=50, seed=eval_seed)
        base = evaluate_policy(env, uniform, episodes=50, seed=eval_seed)
        assert trained > base
    plan = plan_from_policy(env, policy)
    assert plan.feasible
    # -mean_return is an average objective; greedy decode must not be worse
    # than the optimum by more than the uniform policy's slack.
    exact = solve_exact(env.instance)
    assert plan.objective >= exact.objective - 1e-12


def test_training_report_gap():
    # The greedy decode's return is minus its objective, never below the optimum.
    env = benchmark_env()
    exact = solve_exact(env.instance)
    _, report = train_policy_gradient(env, episodes=200, seed=3)
    assert -report.greedy_returns[0] - exact.objective >= -1e-9


def sharing_env():
    """Three tasks over seven services, five of them in every task."""
    tasks, sats_, snap = random_sharing_instance(np.random.default_rng(10))
    shared = set.intersection(*(set(dag.service_ids()) for dag in tasks))
    assert len(tasks) == 3 and len(shared) == 5
    return DeploymentMdp(DeploymentInstance(tasks, sats_, snap))


def test_repeated_candidate_rejected():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    sats = [SatelliteNode(sat("o0s1"), 1e12, 1.0), SatelliteNode(sat("o0s0"), 1e12, 1.0),
            SatelliteNode(sat("o0s1"), 2e12, 1.0)]
    with pytest.raises(ValueError, match="satellite o0s1 listed twice"):
        DeploymentInstance([chain_task(["a"])], sats, snap)


def test_unconnected_hosts_raise_only_when_a_transfer_needs_them():
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)], extra_sats=("o0s2",))
    roomy = [SatelliteNode(sat("o0s0"), 1e12, 10.0), SatelliteNode(sat("o0s2"), 1e12, 10.0)]
    env = DeploymentMdp(DeploymentInstance([chain_task(["a", "b"])], roomy, snap))
    state = env.reset()
    for sid in ("a", "b"):
        state = env.step(state, (sid, sat("o0s0"))).state
    assert state.done and state.objective == 2.0

    # Room for one service per satellite: b must follow a across the gap.
    tight = [SatelliteNode(sat("o0s0"), 1e12, 1.0), SatelliteNode(sat("o0s2"), 1e12, 1.0)]
    inst = DeploymentInstance([chain_task(["a", "b"])], tight, snap)
    message = "no route from o0s0 to o0s2: hosts not connected in the snapshot"
    with pytest.raises(ValueError, match=message):
        solve_greedy(inst)
    env = DeploymentMdp(inst)
    state = env.step(env.reset(), ("a", sat("o0s0"))).state
    with pytest.raises(ValueError, match=message):
        action_features(env, state, ("b", sat("o0s2")))
    with pytest.raises(ValueError, match=message):
        env.step(state, ("b", sat("o0s2")))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sharing=st.booleans())
def test_incremental_objective_and_features_match_from_scratch(seed, sharing):
    """Along a random feasible rollout, every state's objective equals the
    from-scratch one and every action's features equal the reference ones,
    bit for bit."""
    rng = np.random.default_rng(seed)
    build = random_sharing_instance if sharing else random_deployment_instance
    inst = DeploymentInstance(*build(rng))
    env = DeploymentMdp(inst)
    state = env.reset()
    while True:
        assert state.objective.hex() == reference_objective(inst, state.placed()).hex()
        actions = state.actions
        if not actions:
            break
        for action in actions:
            want = reference_action_features(env, state, action)
            assert np.array_equal(action_features(env, state, action), want)
        state = env.step(state, actions[int(rng.integers(len(actions)))]).state


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sharing=st.booleans())
def test_greedy_matches_reference(seed, sharing):
    rng = np.random.default_rng(seed)
    build = random_sharing_instance if sharing else random_deployment_instance
    inst = DeploymentInstance(*build(rng))
    got, want = solve_greedy(inst), reference_greedy(inst)
    assert got.feasible == want.feasible
    assert got.assignment == want.assignment
    if want.objective is None:
        assert got.objective is None
    else:
        assert got.objective.hex() == want.objective.hex()


@pytest.mark.parametrize("make_env", [benchmark_env, sharing_env])
def test_training_draws_match_reference_features(make_env, monkeypatch):
    """The same policy-gradient run, feature for feature and draw for draw,
    with the reference features looked up in place of the incremental ones."""
    policy, report = train_policy_gradient(make_env(), episodes=40, seed=9)
    monkeypatch.setattr(deployment, "action_features", reference_action_features)
    ref_policy, ref_report = train_policy_gradient(make_env(), episodes=40, seed=9)
    assert np.array_equal(policy.theta, ref_policy.theta)
    assert report.returns == ref_report.returns
    assert report.greedy_returns == ref_report.greedy_returns


def squeezed_instance(rng, sharing, budgets=False):
    """A random instance whose candidates keep a random 15-100% of their
    memory, so that episodes often dead-end, some before the first step. With
    budgets, each candidate may also get an energy budget between 0.5 and
    3.5 J, around the 0.5-3 J one service draws."""
    build = random_sharing_instance if sharing else random_deployment_instance
    tasks, sats, snap = build(rng)
    squeeze = float(rng.uniform(0.15, 1.0))
    sats = [SatelliteNode(s.id, s.throughput_flops, s.memory_bytes * squeeze,
                          float(rng.uniform(0.5, 3.5)) if budgets and rng.random() < 0.5
                          else math.inf)
            for s in sats]
    return DeploymentInstance(tasks, sats, snap)


def squeezed_env(rng, sharing):
    return DeploymentMdp(squeezed_instance(rng, sharing))


def assert_memory_within_capacity(inst, plan, prefix):
    """Each host's services fit its memory, and capacity less their memory,
    taken in placement order, is the host's free memory in prefix."""
    for j, node in enumerate(inst.satellites):
        hosted = [inst.services[sid].memory_bytes for sid in inst.order
                  if plan.assignment[sid] == node.id]
        assert math.fsum(hosted) <= node.memory_bytes * (1 + 1e-12)
        free = node.memory_bytes
        for memory in hosted:
            free -= memory
        assert 0.0 <= free == prefix.free[j]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sharing=st.booleans(), episodes=st.integers(1, 60))
def test_training_matches_the_reference_loop(seed, sharing, episodes):
    """The cached training run against the loop that rebuilds every state and
    draws with Generator.choice: the same theta and returns, bit for bit."""
    env = squeezed_env(np.random.default_rng(seed), sharing)
    policy, report = train_policy_gradient(env, episodes=episodes, seed=seed)
    theta, want = reference_train_policy_gradient(env, episodes, seed)
    assert policy.theta.tobytes() == theta.tobytes()
    assert [r.hex() for r in report.returns] == [r.hex() for r in want.returns]
    assert [g.hex() for g in report.greedy_returns] == [g.hex() for g in want.greedy_returns]
    assert report.mean_return.hex() == want.mean_return.hex()


@settings(max_examples=240, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sharing=st.booleans(), budgets=st.booleans())
def test_exact_matches_the_reference_solver(seed, sharing, budgets):
    """solve_exact against the solver that bounds every child assignment from
    scratch: the same hosts, feasibility and objective bits, and every child
    bound equal to the from-scratch optimistic objective of its placement, on
    squeezed instances (often infeasible) with and without energy budgets."""
    inst = squeezed_instance(np.random.default_rng(seed), sharing, budgets)
    bounds = []
    bound = deployment._bound

    def recorded(instance, prefix):
        bounds.append((prefix.hosts, bound(instance, prefix)))
        return bounds[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deployment, "_bound", recorded)
        got = solve_exact(inst)
    want = reference_solve_exact(inst)
    assert (got.feasible, got.assignment, got.solver) == (want.feasible, want.assignment, "exact")
    assert list(got.assignment) == list(want.assignment)
    if want.objective is None:
        assert got.objective is None
    else:
        assert got.objective.hex() == want.objective.hex()
    for hosts, value in bounds:
        placed = {sid: inst.satellites[j].id for sid, j in zip(inst.order, hosts)}
        assert value.hex() == reference_objective(inst, placed, optimistic=True).hex()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sharing=st.booleans())
def test_plan_from_policy_is_the_stepwise_greedy_decode(seed, sharing):
    """plan_from_policy equals stepping the most probable action of the
    policy's distribution until the episode ends: the same hosts and
    objective, or infeasible on a dead end, some before the first step.
    Every state's feasible actions are the fitting candidates in order, and
    every feasible plan of the three solvers keeps its hosts' memory."""
    rng = np.random.default_rng(seed)
    env = squeezed_env(rng, sharing)
    inst = env.instance
    theta = rng.normal(size=N_FEATURES) * 10.0 ** rng.uniform(-2.0, 2.0)
    state = env.reset()
    while True:
        actions = state.actions
        if not state.done:
            sid = inst.order[len(state.prefix.hosts)]
            assert actions == tuple((sid, s.id) for s, res in zip(inst.satellites,
                                                                 state.prefix.free)
                                    if reference_fits(inst, sid, s, res))
        if state.done or not actions:
            break
        actions, _, probs = policy_distribution(env, state, theta)
        state = env.step(state, actions[int(np.argmax(probs))]).state
    plan = plan_from_policy(env, LinearPolicy(theta))
    assert plan.solver == "pg"
    if state.done and not state.dead_end:
        assert plan.feasible and plan.assignment == state.placed()
        assert plan.objective.hex() == state.objective.hex()
        assert_memory_within_capacity(inst, plan, state.prefix)
    else:
        assert not plan.feasible and plan.assignment == {} and plan.objective is None
    for solved in (solve_exact(inst), solve_greedy(inst)):
        if solved.feasible:
            prefix = inst._empty_prefix
            for sid in inst.order:
                prefix = deployment._place(inst, prefix, inst.sat_index[solved.assignment[sid]])
            assert_memory_within_capacity(inst, solved, prefix)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), spread=st.floats(-2.0, 3.0))
def test_draw_matches_generator_choice(seed, n, spread):
    """_draw picks Generator.choice's index and leaves the generator where
    choice leaves it, on softmax outputs from near-uniform to one-hot. It
    never picks a zero probability, which the widest spreads give by
    underflow."""
    src = np.random.default_rng(seed)
    feats = src.normal(size=(n, N_FEATURES)) * 10.0 ** spread
    probs = deployment._softmax(feats, src.normal(size=N_FEATURES))
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        index = deployment._draw(probs, ours)
        assert index == int(ref.choice(n, p=probs))
        assert probs[index] > 0.0
    assert ours.random() == ref.random()


class FixedDraw:
    """A generator stand-in whose random() returns one chosen value and
    counts its calls."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


@pytest.mark.parametrize("probs, u, index", [
    ([0.25, 0.25, 0.5], 0.25, 1),  # a draw on a boundary goes right, as in Generator.choice
    ([0.1] * 10, np.nextafter(1.0, 0.0), 9),  # sums to 1 - 2**-53: the cdf is normalised
    ([0.5, 0.0, 0.5], 0.5, 2),  # u on the cdf value goes right past the zero entry too
    ([0.0, 1.0], 0.0, 1),  # a leading zero entry is passed over even at u = 0
    ([0.5, 0.5, 0.0], np.nextafter(1.0, 0.0), 1),  # a trailing one is never reached
    # The cdf sums to 1 - 2**-53 and is divided by its last value, not
    # multiplied by its reciprocal, which would put this u below cdf[1].
    ([0.5655737704918031, 0.31967213114754095, 0.11475409836065573], 0.8852459016393442, 2),
    ([1.0], 0.5, 0),  # a single action still takes one draw, as in Generator.choice
])
def test_draw_boundaries(probs, u, index):
    rng = FixedDraw(u)
    assert deployment._draw(np.array(probs), rng) == index
    assert rng.calls == 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), spread=st.floats(-2.0, 3.0),
       ties=st.integers(0, 3))
def test_softmax_matches_the_method_call_form(seed, n, spread, ties):
    """_softmax equals the oracle's .max()/.sum() form byte for byte, on
    feature spreads from 1e-2 to 1e3 with the top-scoring row copied to up
    to three random positions; the copies get the same probability, and
    argmax, the greedy decode's choice, takes the first of them."""
    src = np.random.default_rng(seed)
    feats = src.normal(size=(n, N_FEATURES)) * 10.0 ** spread
    theta = src.normal(size=N_FEATURES)
    top = feats[int(np.argmax(feats @ theta))]
    for _ in range(ties):
        feats = np.insert(feats, int(src.integers(len(feats) + 1)), top, axis=0)
    probs = deployment._softmax(feats, theta)
    assert probs.tobytes() == reference_softmax(feats, theta).tobytes()
    copies = [i for i, row in enumerate(feats) if np.array_equal(row, top)]
    values = probs.tolist()
    tied = [i for i, v in enumerate(values) if v == max(values)]
    assert set(copies) <= set(tied)
    assert int(np.argmax(probs)) == tied[0]


def test_draw_rejects_nan_like_generator_choice():
    probs = np.array([np.nan, 1.0])
    with pytest.raises(ValueError, match="Probabilities contain NaN"):
        np.random.default_rng(0).choice(2, p=probs)
    with pytest.raises(ValueError, match="Probabilities contain NaN"):
        deployment._draw(probs, np.random.default_rng(0))


@pytest.mark.parametrize("make_env", [benchmark_env, sharing_env])
def test_training_builds_each_action_features_once(make_env, monkeypatch):
    # A run revisits its states hundreds of times; each (state, action) pair's
    # features are built on the first visit only, greedy decode included.
    keys = []
    features = deployment.action_features

    def counted(env, state, action):
        keys.append((state.assignment, action))
        return features(env, state, action)

    monkeypatch.setattr(deployment, "action_features", counted)
    env = make_env()
    policy, _ = train_policy_gradient(env, episodes=300, seed=0)
    assert keys and len(keys) == len(set(keys))

    # The environment keeps the table, so decoding the trained policy on it
    # walks the nodes that training's greedy decode built and builds none.
    built = len(keys)
    plan = plan_from_policy(env, policy)
    assert len(keys) == built
    fresh = plan_from_policy(make_env(), policy)
    assert (plan, plan.assignment) == (fresh, fresh.assignment)


@pytest.mark.parametrize("episodes", [0, -5])
def test_training_needs_an_episode(episodes):
    with pytest.raises(ValueError, match=f"needs episodes >= 1, got {episodes}"):
        train_policy_gradient(benchmark_env(), episodes=episodes, seed=0)


def test_training_bounds_the_episode_count():
    assert MAX_EPISODES == 10**6
    with pytest.raises(ValueError, match=r"needs episodes <= 1000000, got 1000001"):
        train_policy_gradient(benchmark_env(), episodes=MAX_EPISODES + 1, seed=0)


def test_no_solver_reevaluates_the_objective(monkeypatch):
    # No library module keeps a from-scratch objective, and solve_exact grows
    # each child that fits through exactly one _place call.
    import importlib
    import pkgutil

    import leoplan

    for info in pkgutil.iter_modules(leoplan.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"leoplan.{info.name}")
            assert not hasattr(module, "_objective"), info.name

    inst = sharing_env().instance
    fits, places = [], []
    fit, place = deployment._fits, deployment._place

    def counted_fits(*args):
        fits.append(fit(*args))
        return fits[-1]

    def counted_place(*args):
        places.append(args)
        return place(*args)

    monkeypatch.setattr(deployment, "_fits", counted_fits)
    monkeypatch.setattr(deployment, "_place", counted_place)
    assert solve_exact(inst).feasible
    assert places and len(places) == sum(fits) < len(fits)


def shell_instance():
    """12 candidates of a 528-node (24x22) shell, two tasks sharing a0 and a1."""
    from leoplan import ConstellationSpec, LinkConfig, build_walker, snapshot

    walker = build_walker(ConstellationSpec(24, 22, 550.0, 53.0, phasing_factor=1))
    snap = snapshot(walker, 0.0, LinkConfig())
    sats = [SatelliteNode(sat(f"o{2 * k}s{(7 * k) % 22}"), 1e12 * (1 + k % 3), 3.0)
            for k in range(12)]
    tasks = [chain_task([f"a{i}" for i in range(6)], task_id="ta"),
             chain_task(["a0", "a1"] + [f"b{i}" for i in range(5)], task_id="tb")]
    return DeploymentInstance(tasks, sats, snap)


def test_shell_instance_replays_only_candidate_columns(monkeypatch):
    # Placement asks for routes between 12 candidates of a 528-node shell: no
    # full all-pairs matrix may be built, and the candidates' destination
    # columns are replayed once, together, when the instance is built.
    from leoplan import interorbit

    replayed = []
    replay = interorbit.replay_columns

    def counted(dist, nxt, js):
        replayed.append(list(js))
        return replay(dist, nxt, js)

    monkeypatch.setattr(interorbit, "replay_columns", counted)
    inst = shell_instance()
    assert replayed == [sorted(inst._route_of)]
    plan = solve_greedy(inst)
    assert plan.feasible
    assert len(set(plan.assignment.values())) > 1  # routes were asked for
    assert replayed == [sorted(inst._route_of)]
    assert sorted(inst._routes._columns) == replayed[0]


def test_shell_instance_keeps_no_pivot_arrays_after_solving():
    # The two 528 x 528 pivot arrays (float64 distances, int16 next hops)
    # take 2.8 MB; after the first route the table keeps only the 12
    # candidates' columns and the weighted graph it routes over.
    import gc
    import tracemalloc

    tracemalloc.start()
    try:
        inst = shell_instance()
        assert solve_greedy(inst).feasible
        assert not hasattr(inst._routes, "_pivots")
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del inst._routes
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held < 0.5e6
