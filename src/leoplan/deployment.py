"""Placing microservices onto satellites.

Three routes to a plan, all minimizing the summed end-to-end latency of the
instance's tasks under per-satellite memory limits:

* solve_exact: best-first branch and bound with an admissible compute-only
  lower bound; guaranteed optimal but guarded by a size bound.
* solve_greedy: one pass in dependency order, cheapest feasible host each time.
* DeploymentMdp + train_policy_gradient: the same decision process wrapped as
  a Markov decision process with a linear softmax policy trained by REINFORCE.
  This is a deliberately small learned baseline, not a deep-RL replica.

The greedy solver and the MDP grow the objective one service at a time
(_place) instead of re-evaluating it. That is exact because both always place
a prefix of instance.order, a topological order of the task union: when a
service joins, every predecessor of it is placed and no successor is, so in
each task that holds it only its own finish time is new, and each task's
latest finish grows to the max of the old value and that finish. _place
computes the new finish with the same float operations, in the same order, as
the from-scratch _objective, and sums the per-task latest finishes in task
order as _objective does, so the values are bit-identical. _objective now
serves only the exact solver: its optimistic lower bound and its final plan
value.

train_policy_gradient does each state's work once per run. The MDP is
deterministic and a state follows from its assignment, while an action's
features depend on the state and never on the policy weights. So one call
keeps, per environment, a dict from assignment to the feasible actions, their
feature matrix (built on the first visit, through action_features) and each
action's transition (filled when that action is first drawn); a repeat visit
runs only the softmax, the draw and the gradient, on the same arrays as the
first, and the greedy decode that ends the run walks the same dicts. The draw
(_draw) is what Generator.choice(n, p=probs) does for one sample: the same
cumulative sum, normalised by its last entry, searched with one rng.random()
from the same stream. Indices, theta and every return are therefore
bit-identical to a run that rebuilds each state and calls choice. The dicts
live only for the call; plan_from_policy runs the same greedy decode on a
fresh dict.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import SatelliteId, TopologySnapshot
from .graph import topological_order
from .interorbit import all_pairs_shortest, build_weighted_graph
from .msdag import ServiceDag

EXACT_MAX_SATELLITES = 6
EXACT_MAX_SERVICES = 8
DEAD_END_REWARD = -1e6


@dataclass(frozen=True)
class SatelliteNode:
    """A candidate host: compute throughput, memory, and an energy allowance."""

    id: SatelliteId
    throughput_flops: float
    memory_bytes: float
    energy_budget_j: float = math.inf

    def validate(self) -> None:
        if self.throughput_flops <= 0:
            raise ValueError(f"{self.id}: throughput must be positive")
        if self.memory_bytes < 0:
            raise ValueError(f"{self.id}: memory must be nonnegative")


class DeploymentInstance:
    """Tasks to place, candidate satellites, and the snapshot used for routing."""

    def __init__(self, tasks, satellites, snapshot: TopologySnapshot,
                 enforce_energy_budget: bool = False, e_flop_j: float = 1e-12):
        self.tasks = tuple(tasks)
        self.satellites = tuple(sorted(satellites, key=lambda s: s.id))
        self.snapshot = snapshot
        self.enforce_energy_budget = enforce_energy_budget
        self.e_flop_j = e_flop_j
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
        self._task_preds = [
            {sid: dag.predecessors(sid) for sid in dag.service_ids()} for dag in self.tasks
        ]
        self._task_topos = [dag.topological_order() for dag in self.tasks]
        # Per service: the indices of the tasks that hold it, and its
        # predecessors over all of them (repeats kept).
        self._tasks_of = {sid: tuple(t for t, preds in enumerate(self._task_preds)
                                     if sid in preds)
                          for sid in self.services}
        self._preds_of = {sid: [u for t in self._tasks_of[sid]
                                for (u, _) in self._task_preds[t][sid]]
                          for sid in self.services}
        self.sat_index = {sat.id: i for i, sat in enumerate(self.satellites)}
        if len(self.sat_index) != len(self.satellites):
            twice = next(a.id for a, b in zip(self.satellites, self.satellites[1:])
                         if a.id == b.id)
            raise ValueError(f"satellite {twice} listed twice")
        self._routes = all_pairs_shortest(build_weighted_graph(snapshot))
        self.transfer_seconds = self._routes.transfer_seconds
        # Candidate index -> node index in self._routes.
        self._route_of = [self._routes.index.get(sat.id) for sat in self.satellites]
        if None in self._route_of:
            missing = self.satellites[self._route_of.index(None)].id
            raise ValueError(f"satellite {missing} not in the snapshot")
        self.max_throughput = max(s.throughput_flops for s in self.satellites)

    def throughput(self, sat_id: SatelliteId) -> float:
        return self.satellites[self.sat_index[sat_id]].throughput_flops

    def service_fits(self, service_id: str, sat: SatelliteNode, residual_memory: float) -> bool:
        svc = self.services[service_id]
        if svc.memory_bytes > residual_memory:
            return False
        if self.enforce_energy_budget and svc.flops * self.e_flop_j > sat.energy_budget_j:
            return False
        return True


def _merged_topological_order(tasks) -> list:
    """Dependency-respecting order over the union of all task DAGs."""
    nodes = {sid for dag in tasks for sid in dag.service_ids()}
    order = topological_order(nodes, [(u, v) for dag in tasks for (u, v, _) in dag.edges])
    if len(order) != len(nodes):
        raise ValueError("task union contains a dependency cycle")
    return order


def _objective(instance: DeploymentInstance, placed: dict, optimistic: bool = False) -> float:
    """Summed longest-path latency over whichever nodes are placed.

    With optimistic=True unplaced nodes run on the fastest satellite for free
    transfers, which lower-bounds every completion of the partial assignment.
    """
    total = 0.0
    for t, dag in enumerate(instance.tasks):
        finish: dict = {}
        best = 0.0
        for sid in instance._task_topos[t]:
            hosted = sid in placed
            if not hosted and not optimistic:
                continue
            svc = instance.services[sid]
            run = svc.flops / (instance.throughput(placed[sid]) if hosted
                               else instance.max_throughput)
            start = 0.0
            for (u, bits) in instance._task_preds[t][sid]:
                if u not in finish:
                    continue
                if hosted and u in placed:
                    arrival = finish[u] + instance.transfer_seconds(placed[u], placed[sid], bits)
                else:
                    arrival = finish[u]
                start = max(start, arrival)
            finish[sid] = start + run
            best = max(best, finish[sid])
        total += best
    return total


def _place(instance: DeploymentInstance, hosts: dict, finishes: dict, bests: tuple,
           sid: str, j: int):
    """The objective after hosting sid on candidate j, grown from a placed prefix.

    hosts maps each service of the prefix of instance.order before sid to its
    candidate index, finishes maps it to {task index: finish time}, and bests
    holds every task's latest finish (0.0 for a task with nothing placed).
    Returns (own, bests, objective) with sid placed, own being sid's
    {task index: finish time}; the arguments are not changed.
    """
    run = instance.services[sid].flops / instance.satellites[j].throughput_flops
    transfer = instance._routes.transfer_at
    route_of = instance._route_of
    to = route_of[j]
    own = {}
    bests = list(bests)
    for t in instance._tasks_of[sid]:
        start = 0.0
        for (u, bits) in instance._task_preds[t][sid]:
            arrival = finishes[u][t] + transfer(route_of[hosts[u]], to, bits)
            start = max(start, arrival)
        own[t] = start + run
        bests[t] = max(bests[t], own[t])
    total = 0.0
    for best in bests:  # as _objective adds them; sum() compensates from Python 3.12
        total += best
    return own, tuple(bests), total


@dataclass(frozen=True)
class DeploymentPlan:
    assignment: dict = field(compare=False)
    feasible: bool = True
    objective: float | None = None
    solver: str = ""


def _residuals_after(instance, residuals: tuple, sat_index: int, service_id: str) -> tuple:
    lst = list(residuals)
    lst[sat_index] -= instance.services[service_id].memory_bytes
    return tuple(lst)


def solve_exact(instance: DeploymentInstance,
                max_satellites: int = EXACT_MAX_SATELLITES,
                max_services: int = EXACT_MAX_SERVICES) -> DeploymentPlan:
    """Optimal plan by best-first branch and bound.

    Raises:
        ValueError: when the instance exceeds the size bound; the exact solver
            is meant for desk-scale instances only.
    """
    if len(instance.satellites) > max_satellites or len(instance.order) > max_services:
        raise ValueError(
            f"size bound exceeded: exact solver accepts at most {max_satellites} "
            f"satellites and {max_services} microservices "
            f"(got {len(instance.satellites)} and {len(instance.order)})")

    order = instance.order
    if not order:
        return DeploymentPlan({}, True, 0.0, "exact")
    start_res = tuple(s.memory_bytes for s in instance.satellites)
    counter = itertools.count()
    heap = [(0.0, next(counter), {}, start_res)]
    best_plan: dict | None = None
    best_obj = math.inf

    while heap:
        lb, _, placed, residuals = heapq.heappop(heap)
        if lb >= best_obj:
            continue
        depth = len(placed)
        if depth == len(order):
            if lb < best_obj:
                best_obj = lb
                best_plan = placed
            continue
        sid = order[depth]
        for i, sat in enumerate(instance.satellites):
            if not instance.service_fits(sid, sat, residuals[i]):
                continue
            child = dict(placed)
            child[sid] = sat.id
            child_lb = _objective(instance, child, optimistic=True)
            if child_lb < best_obj:
                heapq.heappush(heap, (child_lb, next(counter), child,
                                      _residuals_after(instance, residuals, i, sid)))

    if best_plan is None:
        return DeploymentPlan({}, False, None, "exact")
    return DeploymentPlan(best_plan, True, _objective(instance, best_plan), "exact")


def solve_greedy(instance: DeploymentInstance) -> DeploymentPlan:
    """Place services in dependency order on the host that grows latency least.

    Ties go to the lowest satellite id. Returns an infeasible plan with an
    empty assignment if some service fits nowhere.
    """
    hosts: dict = {}
    finishes: dict = {}
    bests = (0.0,) * len(instance.tasks)
    objective = 0.0
    residuals = [sat.memory_bytes for sat in instance.satellites]
    for sid in instance.order:
        best_j = None
        best_obj = math.inf
        for j, sat in enumerate(instance.satellites):
            if not instance.service_fits(sid, sat, residuals[j]):
                continue
            grown = _place(instance, hosts, finishes, bests, sid, j)
            if grown[2] < best_obj:
                best_obj, best_j, best_grown = grown[2], j, grown
        if best_j is None:
            return DeploymentPlan({}, False, None, "greedy")
        hosts[sid] = best_j
        finishes[sid], bests, objective = best_grown
        residuals[best_j] -= instance.services[sid].memory_bytes
    placed = {sid: instance.satellites[j].id for sid, j in hosts.items()}
    return DeploymentPlan(placed, True, objective, "greedy")


@dataclass(frozen=True)
class MdpState:
    next_index: int
    assignment: tuple
    residual_memory: tuple
    objective: float
    done: bool
    dead_end: bool = False
    # (hosts, finishes, bests, feasible actions): what _place needs to grow
    # the objective, and the actions. It follows from the fields above, so it
    # takes no part in equality; None on a state built by hand.
    progress: tuple | None = field(default=None, compare=False, repr=False)

    def placed(self) -> dict:
        return dict(self.assignment)


def _progress(instance: DeploymentInstance, state: MdpState):
    """(hosts, finishes, bests) of a state; a state built by hand instead of
    by reset or step has none, so they are replayed from its assignment."""
    if state.progress is not None:
        hosts, finishes, bests, _ = state.progress
        return hosts, finishes, bests
    hosts, finishes, bests = {}, {}, (0.0,) * len(instance.tasks)
    for sid, sat_id in state.assignment:
        j = instance.sat_index[sat_id]
        finishes[sid], bests, _ = _place(instance, hosts, finishes, bests, sid, j)
        hosts[sid] = j
    return hosts, finishes, bests


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
        # every candidate; feasible action tuples share these pairs.
        self._actions = [tuple((sid, sat.id) for sat in instance.satellites)
                         for sid in instance.order]

    def reset(self) -> MdpState:
        res = tuple(s.memory_bytes for s in self.instance.satellites)
        done = len(self.instance.order) == 0
        bests = (0.0,) * len(self.instance.tasks)
        return MdpState(0, (), res, 0.0, done,
                        progress=({}, {}, bests, self._feasible(0, res, done)))

    def _feasible(self, next_index: int, residuals: tuple, done: bool) -> tuple:
        if done:
            return ()
        inst = self.instance
        sid = inst.order[next_index]
        return tuple(action for action, sat, residual
                     in zip(self._actions[next_index], inst.satellites, residuals)
                     if inst.service_fits(sid, sat, residual))

    def feasible_actions(self, state: MdpState) -> tuple:
        if state.progress is None:
            return self._feasible(state.next_index, state.residual_memory, state.done)
        return state.progress[3]

    def step(self, state: MdpState, action) -> MdpTransition:
        if state.done:
            raise ValueError("episode is over")
        sid, sat_id = action
        feasible = self.feasible_actions(state)
        if action not in feasible:
            raise ValueError(f"action {action} is not feasible; feasible: {list(feasible)}")
        inst = self.instance
        j = inst.sat_index[sat_id]
        hosts, finishes, bests = _progress(inst, state)
        own, bests, objective = _place(inst, hosts, finishes, bests, sid, j)
        reward = -(objective - state.objective)
        next_index = state.next_index + 1
        residuals = _residuals_after(inst, state.residual_memory, j, sid)
        done = next_index == len(inst.order)
        actions = self._feasible(next_index, residuals, done)
        dead_end = not done and not actions
        if dead_end:
            reward += DEAD_END_REWARD
        next_state = MdpState(next_index, state.assignment + ((sid, sat_id),), residuals,
                              objective, done or dead_end, dead_end,
                              ({**hosts, sid: j}, {**finishes, sid: own}, bests, actions))
        return MdpTransition(next_state, reward, next_state.done)


def _feature_scales(inst: DeploymentInstance):
    """(compute, objective) divisors that bring action features to order one."""
    min_thr = min(s.throughput_flops for s in inst.satellites)
    compute = max((svc.flops for svc in inst.services.values()), default=1.0) / min_thr
    total = sum(svc.flops for svc in inst.services.values()) / min_thr
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

    hosts, finishes, bests = _progress(inst, state)
    _, _, objective = _place(inst, hosts, finishes, bests, sid, j)
    delta = (objective - state.objective) / obj_scale

    capacity = sat.memory_bytes
    residual = (state.residual_memory[j] - svc.memory_bytes) / capacity if capacity else 0.0

    preds = inst._preds_of[sid]  # all placed: the state is a prefix of instance.order
    colocated = sum(1 for u in preds if hosts[u] == j) / len(preds) if preds else 0.0
    return np.array([1.0, run, delta, residual, colocated])


N_FEATURES = 5


def _feature_matrix(env: DeploymentMdp, state: MdpState, actions) -> np.ndarray:
    """One row of action_features per action."""
    return np.array([action_features(env, state, a) for a in actions])


def _softmax(feats: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Action probabilities of a linear softmax policy over a feature matrix."""
    scores = feats @ theta
    scores -= scores.max()
    probs = np.exp(scores)
    probs /= probs.sum()
    return probs


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn as rng.choice(len(probs), p=probs) draws it: the same
    index and the same use of rng's stream."""
    cdf = probs.cumsum()
    if not cdf[-1] > 0.0:
        raise ValueError("Probabilities contain NaN")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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
    mean_gap: float | None = None


def _cached_episode(env: DeploymentMdp, cache: dict, state: MdpState, theta: np.ndarray,
                    rng: np.random.Generator | None):
    """One episode from state through a training run's cache of env (see the
    module docstring). rng draws each action; with rng None the most probable
    action is taken and no gradient is summed.

    Returns (episode return, summed score-function gradient, final state).
    """
    grads = np.zeros(N_FEATURES)
    total = 0.0
    while not state.done:
        node = cache.get(state.assignment)
        if node is None:
            actions = env.feasible_actions(state)
            node = (actions, _feature_matrix(env, state, actions), [None] * len(actions))
            cache[state.assignment] = node
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


def train_policy_gradient(envs, episodes: int, seed: int, lr: float = 0.15,
                          optima=None):
    """REINFORCE with a running-mean baseline over one or more environments.

    Args:
        envs: a DeploymentMdp or a sequence of them; training cycles through.
        episodes: number of sampled episodes, at least 1.
        seed: RNG seed; identical seeds give identical training runs.
        lr: step size on the linear policy weights.
        optima: optional per-env optimal objectives; enables mean_gap in the
            report (mean of greedy-policy objective minus optimum).

    Returns:
        (LinearPolicy, TrainingReport)

    Raises:
        ValueError: on no environment or fewer than one episode.
    """
    if isinstance(envs, DeploymentMdp):
        envs = [envs]
    envs = list(envs)
    if not envs:
        raise ValueError("policy-gradient training needs at least one environment")
    if episodes < 1:
        raise ValueError(f"policy-gradient training needs episodes >= 1, got {episodes}")
    rng = np.random.default_rng(seed)
    policy = LinearPolicy(np.zeros(N_FEATURES))
    baselines = [0.0] * len(envs)
    counts = [0] * len(envs)
    returns = []
    caches = [{} for _ in envs]
    starts = [env.reset() for env in envs]

    for ep in range(episodes):
        idx = ep % len(envs)
        total, grads, _ = _cached_episode(envs[idx], caches[idx], starts[idx], policy.theta, rng)
        counts[idx] += 1
        baselines[idx] += (total - baselines[idx]) / counts[idx]
        policy.theta = policy.theta + lr * (total - baselines[idx]) * grads
        returns.append(total)

    greedy_returns = [_cached_episode(env, cache, start, policy.theta, None)[0]
                      for env, cache, start in zip(envs, caches, starts)]
    mean_gap = None
    if optima is not None:
        gaps = [(-g) - opt for g, opt in zip(greedy_returns, optima)]
        mean_gap = float(np.mean(gaps))
    report = TrainingReport(episodes, returns, float(np.mean(returns[-max(1, episodes // 4):])),
                            greedy_returns, mean_gap)
    return policy, report


def plan_from_policy(env: DeploymentMdp, policy: LinearPolicy) -> DeploymentPlan:
    """Deterministic greedy rollout of a trained policy into a plan: the most
    probable action at every step, as the greedy decode of training takes it."""
    _, _, state = _cached_episode(env, {}, env.reset(), policy.theta, None)
    if not state.done or state.dead_end:
        return DeploymentPlan({}, False, None, "pg")
    return DeploymentPlan(state.placed(), True, state.objective, "pg")
