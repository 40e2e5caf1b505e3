"""Placing microservices onto satellites.

Three routes to a plan, all minimizing the summed end-to-end latency of the
instance's tasks under per-satellite memory limits and energy budgets:

* solve_exact: best-first branch and bound with an admissible lower bound;
  guaranteed optimal but guarded by a size bound.
* solve_greedy: one pass in dependency order, cheapest feasible host each time.
* DeploymentMdp + train_policy_gradient: the same decision process wrapped as
  a Markov decision process with a linear softmax policy trained by REINFORCE.
  This is a deliberately small learned baseline, not a deep-RL replica.

All three place a prefix of instance.order, a topological order of the task
union, and grow it one service at a time through _place. A _Prefix holds the
candidate index of each placed position, the finish time of each placed
(service, task) slot, every task's latest finish (0.0 for a task with nothing
placed), their sum (the objective) and every candidate's free memory. The
next service fits candidate j (_fits) when it fits j's free memory and its
flops at e_flop_j joules each fit j's energy budget. A joining service has every
predecessor placed and no successor, so only its own finish times are new;
_place makes the float operations of a from-scratch longest-path evaluation
and equals it bit for bit
(test_incremental_objective_and_features_match_from_scratch).

solve_exact bounds a prefix by running every unplaced service on the fastest
candidate with free inputs (_bound); no completion finishes a task earlier
(test_exact_matches_enumeration_oracle).

A DeploymentMdp keeps a node table: each visited assignment's feasible
actions, their feature matrix and each drawn action's transition. The MDP
is deterministic and the features never depend on the policy weights, so
training and plan_from_policy on one environment share the table, and a
decode after training finds the nodes its greedy rollout built.

Each policy step splits its arithmetic by whose bits it must keep. numpy
does the two matrix-vector products (feats @ theta and probs @ feats), exp
and the sum reduction, since the reference loop takes those bits from
numpy. _draw does the cumulative sum, the normalisation and the search in
Python floats, as the same exact IEEE steps numpy's Generator.choice(n,
p=probs) takes for one sample. Training therefore equals a run that
rebuilds every state and calls choice, bit for bit
(test_training_matches_the_reference_loop).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constellation import SatelliteId, TopologySnapshot
from .graph import _require_finite, _total, topological_order
from .interorbit import all_pairs_shortest, build_weighted_graph

EXACT_MAX_SATELLITES = 6
EXACT_MAX_SERVICES = 8
DEAD_END_REWARD = -1e6
LEARNING_RATE = 0.15
MAX_EPISODES = 10**6


@dataclass(frozen=True)
class SatelliteNode:
    """A candidate host: compute throughput, memory, and the energy one
    hosted service may draw (inf: no budget)."""

    id: SatelliteId
    throughput_flops: float
    memory_bytes: float
    energy_budget_j: float = math.inf

    def validate(self) -> None:
        _require_finite("positive and finite", **{f"{self.id}: throughput": self.throughput_flops})
        if not self.memory_bytes >= 0:
            raise ValueError(f"{self.id}: memory must be nonnegative")
        if not self.energy_budget_j >= 0:
            raise ValueError(f"{self.id}: energy budget must be nonnegative")


class DeploymentInstance:
    """Tasks to place, candidate satellites, and the snapshot used for routing."""

    def __init__(self, tasks, satellites, snapshot: TopologySnapshot,
                 e_flop_j: float = 1e-12):
        self.tasks = tuple(tasks)
        self.satellites = tuple(sorted(satellites, key=lambda s: s.id))
        self.snapshot = snapshot
        self.e_flop_j = e_flop_j
        _require_finite("nonnegative and finite", e_flop_j=e_flop_j)
        if not self.tasks:
            raise ValueError("instance needs at least one task")
        if not self.satellites:
            raise ValueError("instance needs at least one satellite")
        for sat in self.satellites:
            sat.validate()

        self.services: dict = {}
        for dag in self.tasks:
            for svc in dag.services:
                seen = self.services.get(svc.id)
                if seen is not None and seen != svc:
                    raise ValueError(f"microservice {svc.id} redefined across tasks")
                self.services[svc.id] = svc

        self.order = _merged_topological_order(self.tasks)
        # Per position in order, one (task index, predecessors) row per task
        # that holds the service; a predecessor is (its finish slot, its
        # position, payload bits). Slots number the (service, task) pairs
        # position-major, so a prefix's finish times fill a prefix of them.
        position = {sid: p for p, sid in enumerate(self.order)}
        members = [set(dag.service_ids()) for dag in self.tasks]
        slot: dict = {}
        self._rows = []
        for sid in self.order:
            held = [t for t, ids in enumerate(members) if sid in ids]
            self._rows.append(tuple(
                (t, tuple((slot[u, t], position[u], bits)
                          for u, bits in self.tasks[t].predecessors(sid)))
                for t in held))
            for t in held:
                slot[sid, t] = len(slot)
        self.sat_index = {sat.id: i for i, sat in enumerate(self.satellites)}
        if len(self.sat_index) != len(self.satellites):
            twice = next(a.id for a, b in zip(self.satellites, self.satellites[1:])
                         if a.id == b.id)
            raise ValueError(f"satellite {twice} listed twice")
        graph = build_weighted_graph(snapshot)
        # Candidate index -> node index in self._routes.
        self._route_of = [graph.index.get(sat.id) for sat in self.satellites]
        if None in self._route_of:
            missing = self.satellites[self._route_of.index(None)].id
            raise ValueError(f"satellite {missing} not in the snapshot")
        self._routes = all_pairs_shortest(graph, self._route_of)
        self.max_throughput = max(s.throughput_flops for s in self.satellites)
        self._empty_prefix = _Prefix((), (), (0.0,) * len(self.tasks), 0.0,
                                     tuple(s.memory_bytes for s in self.satellites))


def _merged_topological_order(tasks) -> list:
    """Dependency-respecting order over the union of all task DAGs."""
    nodes = {sid for dag in tasks for sid in dag.service_ids()}
    order = topological_order(nodes, [(u, v) for dag in tasks for (u, v, _) in dag.edges])
    if len(order) != len(nodes):
        raise ValueError("task union contains a dependency cycle")
    return order


class _Prefix(NamedTuple):
    """A placed prefix of instance.order (see the module docstring)."""

    hosts: tuple
    finishes: tuple
    bests: tuple
    objective: float
    free: tuple


def _fits(instance: DeploymentInstance, prefix: _Prefix, j: int) -> bool:
    """Whether the next service of instance.order fits candidate j."""
    svc = instance.services[instance.order[len(prefix.hosts)]]
    if svc.memory_bytes > prefix.free[j]:
        return False
    return not svc.flops * instance.e_flop_j > instance.satellites[j].energy_budget_j


def _place(instance: DeploymentInstance, prefix: _Prefix, j: int) -> _Prefix:
    """prefix grown by hosting the next service of instance.order on candidate j."""
    hosts, finishes, bests, _, free = prefix
    p = len(hosts)
    svc = instance.services[instance.order[p]]
    run = svc.flops / instance.satellites[j].throughput_flops
    transfer = instance._routes.transfer_at
    route_of = instance._route_of
    to = route_of[j]
    bests = list(bests)
    for t, preds in instance._rows[p]:
        start = 0.0
        for slot, q, bits in preds:
            start = max(start, finishes[slot] + transfer(route_of[hosts[q]], to, bits))
        finishes += (start + run,)
        bests[t] = max(bests[t], finishes[-1])
    free = list(free)
    free[j] -= svc.memory_bytes
    return _Prefix(hosts + (j,), finishes, tuple(bests), _total(bests), tuple(free))


def _bound(instance: DeploymentInstance, prefix: _Prefix) -> float:
    """The objective with every unplaced service on the fastest candidate and
    free transfers into it: a lower bound on every completion of prefix."""
    finishes, bests = list(prefix.finishes), list(prefix.bests)
    for p in range(len(prefix.hosts), len(instance.order)):
        run = instance.services[instance.order[p]].flops / instance.max_throughput
        for t, preds in instance._rows[p]:
            start = 0.0
            for slot, _, _ in preds:
                start = max(start, finishes[slot])
            finishes.append(start + run)
            bests[t] = max(bests[t], finishes[-1])
    return _total(bests)


def _assignment(instance: DeploymentInstance, hosts: tuple) -> dict:
    return {sid: instance.satellites[j].id for sid, j in zip(instance.order, hosts)}


@dataclass(frozen=True)
class DeploymentPlan:
    assignment: dict = field(compare=False)
    feasible: bool = True
    objective: float | None = None
    solver: str = ""


def solve_exact(instance: DeploymentInstance) -> DeploymentPlan:
    """Optimal plan by best-first branch and bound.

    Raises:
        ValueError: when the instance has more than EXACT_MAX_SATELLITES
            candidates or EXACT_MAX_SERVICES microservices; the exact solver
            is meant for desk-scale instances only.
    """
    order = instance.order
    if len(instance.satellites) > EXACT_MAX_SATELLITES or len(order) > EXACT_MAX_SERVICES:
        raise ValueError(
            f"size bound exceeded: exact solver accepts at most {EXACT_MAX_SATELLITES} "
            f"satellites and {EXACT_MAX_SERVICES} microservices "
            f"(got {len(instance.satellites)} and {len(order)})")
    if not order:
        return DeploymentPlan({}, True, 0.0, "exact")
    counter = itertools.count()
    heap = [(0.0, next(counter), instance._empty_prefix)]
    best = None
    best_obj = math.inf

    while heap:
        lb, _, prefix = heapq.heappop(heap)
        if lb >= best_obj:
            continue
        if len(prefix.hosts) == len(order):
            best, best_obj = prefix, lb
            continue
        for j in range(len(instance.satellites)):
            if not _fits(instance, prefix, j):
                continue
            child = _place(instance, prefix, j)
            child_lb = _bound(instance, child)
            if child_lb < best_obj:
                heapq.heappush(heap, (child_lb, next(counter), child))

    if best is None:
        return DeploymentPlan({}, False, None, "exact")
    return DeploymentPlan(_assignment(instance, best.hosts), True, best.objective, "exact")


def solve_greedy(instance: DeploymentInstance) -> DeploymentPlan:
    """Place services in dependency order on the host that grows latency least.

    Ties go to the lowest satellite id. Returns an infeasible plan with an
    empty assignment if some service fits nowhere.
    """
    prefix = instance._empty_prefix
    for _ in instance.order:
        best, best_obj = None, math.inf
        for j in range(len(instance.satellites)):
            if _fits(instance, prefix, j):
                grown = _place(instance, prefix, j)
                if grown.objective < best_obj:
                    best, best_obj = grown, grown.objective
        if best is None:
            return DeploymentPlan({}, False, None, "greedy")
        prefix = best
    return DeploymentPlan(_assignment(instance, prefix.hosts), True, prefix.objective, "greedy")


@dataclass(frozen=True)
class MdpState:
    """A placed prefix of instance.order, with its feasible next actions.

    table is the environment's action table, shared by all its states: per
    position of instance.order, the (service, satellite id) action of every
    candidate. The placed actions are read off the prefix through it. The
    feasible actions follow from the prefix, so they take no part in
    equality.
    """

    prefix: _Prefix = field(repr=False)
    done: bool
    dead_end: bool
    actions: tuple = field(compare=False, repr=False)
    table: tuple = field(repr=False)

    @property
    def assignment(self) -> tuple:
        """The placed (service, satellite id) actions, in placement order."""
        return tuple(self.table[p][j] for p, j in enumerate(self.prefix.hosts))

    @property
    def objective(self) -> float:
        return self.prefix.objective

    def placed(self) -> dict:
        return dict(self.assignment)


@dataclass(frozen=True)
class MdpTransition:
    state: MdpState
    reward: float
    done: bool


class DeploymentMdp:
    """Sequential placement as an MDP: one service per step, reward is the
    negative latency increment, dead ends cost DEAD_END_REWARD."""

    def __init__(self, instance: DeploymentInstance):
        self.instance = instance
        self._scales = _feature_scales(instance)
        # Per position in instance.order, the (service, satellite) action of
        # every candidate; feasible action tuples and every state's placed
        # actions share these pairs.
        self._actions = tuple(tuple((sid, sat.id) for sat in instance.satellites)
                              for sid in instance.order)
        # Assignment (prefix hosts) -> (feasible actions, their feature
        # matrix, each action's transition or None until stepped), filled
        # by _cached_episode.
        self._nodes: dict = {}

    def reset(self) -> MdpState:
        prefix = self.instance._empty_prefix
        done = len(self.instance.order) == 0
        return MdpState(prefix, done, False, self._feasible(prefix, done), self._actions)

    def _feasible(self, prefix: _Prefix, done: bool) -> tuple:
        if done:
            return ()
        return tuple(action for j, action in enumerate(self._actions[len(prefix.hosts)])
                     if _fits(self.instance, prefix, j))

    def step(self, state: MdpState, action) -> MdpTransition:
        if state.done:
            raise ValueError("episode is over")
        if action not in state.actions:
            raise ValueError(f"action {action} is not feasible; feasible: {list(state.actions)}")
        inst = self.instance
        prefix = _place(inst, state.prefix, inst.sat_index[action[1]])
        reward = -(prefix.objective - state.prefix.objective)
        done = len(prefix.hosts) == len(inst.order)
        actions = self._feasible(prefix, done)
        dead_end = not done and not actions
        if dead_end:
            reward += DEAD_END_REWARD
        next_state = MdpState(prefix, done or dead_end, dead_end, actions, self._actions)
        return MdpTransition(next_state, reward, next_state.done)


def _feature_scales(inst: DeploymentInstance):
    """(compute, objective) divisors that bring action features to order one."""
    min_thr = min(s.throughput_flops for s in inst.satellites)
    compute = max((svc.flops for svc in inst.services.values()), default=1.0) / min_thr
    total = _total(svc.flops for svc in inst.services.values()) / min_thr
    return max(compute, 1e-12), max(total, 1e-12)


def action_features(env: DeploymentMdp, state: MdpState, action) -> np.ndarray:
    """Hand-crafted linear features for one (state, action) pair."""
    sid, sat_id = action
    inst = env.instance
    compute_scale, obj_scale = env._scales
    svc = inst.services[sid]
    j = inst.sat_index[sat_id]
    sat = inst.satellites[j]
    run = svc.flops / sat.throughput_flops / compute_scale

    grown = _place(inst, state.prefix, j)
    delta = (grown.objective - state.prefix.objective) / obj_scale

    capacity = sat.memory_bytes
    residual = grown.free[j] / capacity if capacity else 0.0

    hosts = state.prefix.hosts
    preds = [q for _, row in inst._rows[len(hosts)] for _, q, _ in row]
    colocated = sum(1 for q in preds if hosts[q] == j) / len(preds) if preds else 0.0
    return np.array([1.0, run, delta, residual, colocated])


N_FEATURES = 5


def _softmax(feats: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Action probabilities of a linear softmax policy over a feature matrix.

    numpy does the product, exp and both reductions, whose bits the
    reference loop takes from numpy too; np.maximum.reduce and
    np.add.reduce are the ufuncs that .max() and .sum() call, so the bits
    are those of the method-call form
    (test_softmax_matches_the_method_call_form)."""
    scores = feats @ theta
    scores -= np.maximum.reduce(scores)
    probs = np.exp(scores)
    probs /= np.add.reduce(probs)
    return probs


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn as rng.choice(len(probs), p=probs) draws it: the same
    index and the same use of rng's stream.

    choice's cumsum, its division by the last sum and its right-side
    searchsorted are done in Python floats: accumulate adds left to right as
    cumsum does, each division rounds correctly as numpy's does, and
    bisect_right is searchsorted(side="right")
    (test_draw_matches_generator_choice,
    test_training_matches_the_reference_loop)."""
    cdf = list(itertools.accumulate(probs.tolist()))
    total = cdf[-1]
    if not total > 0.0:
        raise ValueError("Probabilities contain NaN")
    return bisect.bisect_right([c / total for c in cdf], rng.random())


@dataclass
class LinearPolicy:
    """Softmax over feasible actions with a linear score per action."""

    theta: np.ndarray


@dataclass
class TrainingReport:
    episodes: int
    returns: list
    mean_return: float
    greedy_returns: list


def _cached_episode(env: DeploymentMdp, state: MdpState, theta: np.ndarray,
                    rng: np.random.Generator | None):
    """One episode from state through env's node table (see the module
    docstring). rng draws each action; with rng None the most probable
    action is taken and no gradient is summed.

    Returns (episode return, summed score-function gradient, final state).
    """
    grads = np.zeros(N_FEATURES)
    total = 0.0
    nodes = env._nodes
    lookup = nodes.get
    while not state.done:
        hosts = state.prefix.hosts
        node = lookup(hosts)
        if node is None:
            actions = state.actions
            feats = np.array([action_features(env, state, a) for a in actions])
            node = nodes[hosts] = (actions, feats, [None] * len(actions))
        actions, feats, slots = node
        if not actions:
            total += DEAD_END_REWARD  # nothing fits before the first placement
            break
        probs = _softmax(feats, theta)
        if rng is None:
            choice = int(np.argmax(probs))
        else:
            choice = _draw(probs, rng)
            grads += feats[choice] - probs @ feats
        tr = slots[choice]
        if tr is None:
            tr = slots[choice] = env.step(state, actions[choice])
        total += tr.reward
        state = tr.state
    return total, grads, state


def train_policy_gradient(env: DeploymentMdp, episodes: int, seed: int):
    """REINFORCE with a running-mean baseline on one environment, stepping
    the linear policy weights by LEARNING_RATE.

    Args:
        env: the DeploymentMdp to train on.
        episodes: number of sampled episodes, from 1 to MAX_EPISODES.
        seed: RNG seed; identical seeds give identical training runs.

    Returns:
        (LinearPolicy, TrainingReport); its greedy_returns holds the one
        greedy rollout's return.

    Raises:
        ValueError: on fewer than one episode or more than MAX_EPISODES; the
            report keeps one return per episode.
    """
    if episodes < 1:
        raise ValueError(f"policy-gradient training needs episodes >= 1, got {episodes}")
    if episodes > MAX_EPISODES:
        raise ValueError(f"policy-gradient training needs episodes <= {MAX_EPISODES}, "
                         f"got {episodes}")
    rng = np.random.default_rng(seed)
    policy = LinearPolicy(np.zeros(N_FEATURES))
    baseline = 0.0
    returns = []
    start = env.reset()

    for count in range(1, episodes + 1):
        total, grads, _ = _cached_episode(env, start, policy.theta, rng)
        baseline += (total - baseline) / count
        policy.theta = policy.theta + LEARNING_RATE * (total - baseline) * grads
        returns.append(total)

    greedy = _cached_episode(env, start, policy.theta, None)[0]
    report = TrainingReport(episodes, returns, float(np.mean(returns[-max(1, episodes // 4):])),
                            [greedy])
    return policy, report


def plan_from_policy(env: DeploymentMdp, policy: LinearPolicy) -> DeploymentPlan:
    """Deterministic greedy rollout of a trained policy into a plan: the most
    probable action at every step, as the greedy decode of training takes it.
    It walks env's node table, so after training on env it builds no node."""
    _, _, state = _cached_episode(env, env.reset(), policy.theta, None)
    if not state.done or state.dead_end:
        return DeploymentPlan({}, False, None, "pg")
    return DeploymentPlan(state.placed(), True, state.objective, "pg")
