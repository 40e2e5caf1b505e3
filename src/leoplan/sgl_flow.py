"""Coordinated satellite-ground transmission as a max-flow problem.

Each scheduling epoch builds a four-layer network: a virtual source feeds
every visible satellite with capacity equal to its orbit's remaining model
fraction, satellite-to-station edges carry the fraction their link can move
within the epoch, and stations drain into a virtual sink through their
dedicated ground links. A deterministic shortest-augmenting-path max-flow
decides how much of each orbit's model lands per epoch.

schedule_downlink fixes the edge order once per call, and every epoch's
network follows it: source edges by satellite, satellite-to-station edges by
(orbit, slot, station, timeline index), station-to-sink edges by station id.
Edge order is search order, so it decides ties between augmenting paths.
Windows join the epoch sweep in start order once they start before the
epoch ends, and leave once they end by its start or their orbit has
finished; epoch bounds never decrease and remaining fractions never grow, so
every epoch tests exactly the windows that can still deliver in it. A
finished orbit's source edge has no residual capacity, so leaving it out
changes no augmenting path: delivered fractions and flow values are those of
the full per-epoch network, bit for bit, and an epoch's flows list only the
edges of the network it solved (test_schedule_downlink_matches_full_scan).
An epoch with no live window gets an empty assignment and no max-flow call.

A caller that schedules over longer and longer horizons passes the last
result back as _resume: the live list at an epoch depends only on the
windows, the epoch and the remaining fractions, so scheduling from the
result's next epoch with its remaining fractions gives the epochs of one
call over the longer horizon, and no epoch runs max_flow twice
(test_resumed_schedule_matches_one_schedule).

A schedule covers at most _MAX_EPOCHS epochs (horizon / epoch_seconds):
every epoch is a Python step and a kept EpochFlow, about 0.6 kB each.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .constellation import TIME_BOUND_S
from .graph import _require_finite


class _Terminal(Enum):
    """The virtual source and sink. Without a str mixin they equal no station
    id, so a station named "source" or "sink" stays a station. No output
    follows their hash, so it is object's, in C, not Enum's, in Python."""

    SOURCE = "source"
    SINK = "sink"
    __hash__ = object.__hash__


SOURCE, SINK = _Terminal.SOURCE, _Terminal.SINK
FLOW_TOL = 1e-9
_MAX_EPOCHS = 10**5


def _check_capacity(capacity: float) -> None:
    if not 0 <= capacity < math.inf:
        raise ValueError(f"capacity must be nonnegative and finite, got {capacity}")


class FlowNetwork:
    """Capacitated digraph; insertion order of edges fixes the search order."""

    def __init__(self):
        self.capacity: dict = {}
        self.adjacency: dict = {}

    def add_edge(self, u, v, capacity: float) -> None:
        _check_capacity(capacity)
        if (u, v) in self.capacity:
            self.capacity[(u, v)] += capacity
            return
        self.capacity[(u, v)] = capacity
        self.adjacency.setdefault(u, []).append(v)
        self.adjacency.setdefault(v, [])


@dataclass(frozen=True)
class FlowAssignment:
    flows: dict = field(compare=False)
    value: float = 0.0


@dataclass
class DownlinkState:
    """Per-orbit fraction of the model still waiting on the ground transfer."""

    remaining: dict

    def done(self) -> bool:
        return all(f <= FLOW_TOL for f in self.remaining.values())


def max_flow(network: FlowNetwork, source=SOURCE, sink=SINK) -> FlowAssignment:
    """Ford-Fulkerson with BFS augmenting paths (shortest first), deterministic.

    Runs on integer residual slots, one per ordered pair with an edge either
    way; each vertex scans its out-edges in insertion order, then the tails
    of its other in-edges, as a residual dict keyed by vertex pairs does
    (test_max_flow_matches_dict_keyed_reference). Returns the flow on every
    forward edge plus the total value, checked by _check_slots.
    """
    index = {u: k for k, u in enumerate(network.adjacency)}
    pairs = [(index[u], index[v]) for u, v in network.capacity]
    residual = list(network.capacity.values())
    slot = {pair: k for k, pair in enumerate(pairs)}
    neighbors: list = [[] for _ in index]
    for k, (i, j) in enumerate(pairs):
        neighbors[i].append((j, k))
    for i, j in pairs[:len(network.capacity)]:
        if (j, i) not in slot:
            slot[(j, i)] = len(pairs)
            pairs.append((j, i))
            residual.append(0.0)
            neighbors[j].append((i, slot[(j, i)]))
    reverse = [slot[(j, i)] for i, j in pairs]

    value = 0.0
    s, t = index.get(source), index.get(sink)
    while s is not None and t is not None and s != t:
        via = [-1] * len(index)  # residual slot each vertex was reached by
        via[s] = len(pairs)  # reached, by no slot
        queue = deque([s])
        while queue and via[t] < 0:
            u = queue.popleft()
            for v, k in neighbors[u]:
                if via[v] < 0 and residual[k] > FLOW_TOL:
                    via[v] = k
                    queue.append(v)
        if via[t] < 0:
            break
        bottleneck = float("inf")
        v = t
        while v != s:
            bottleneck = min(bottleneck, residual[via[v]])
            v = pairs[via[v]][0]
        v = t
        while v != s:
            k = via[v]
            residual[k] -= bottleneck
            residual[reverse[k]] += bottleneck
            v = pairs[k][0]
        value += bottleneck

    flows = []
    for cap, left in zip(network.capacity.values(), residual):
        f = cap - left
        flows.append(f if f > FLOW_TOL else 0.0)
    _check_slots(list(index), pairs, list(network.capacity.values()), flows, value, s, t)
    return FlowAssignment(dict(zip(network.capacity, flows)), value)


def _check_slots(vertices: list, pairs: list, capacities: list, flows: list,
                 value: float, s, t) -> None:
    """Raise ValueError unless capacities and conservation hold within
    FLOW_TOL, on max_flow's integer numbering.

    Edge k runs from vertices[pairs[k][0]] to vertices[pairs[k][1]] with
    capacities[k] and flows[k]; s and t are the source and sink indices, or
    None. It accepts what the dict-keyed check does
    (test_slot_check_agrees_with_check_feasible).
    """
    excess = [0.0] * len(vertices)
    for (i, j), cap, f in zip(pairs, capacities, flows):
        if f < -FLOW_TOL or f > cap + FLOW_TOL:
            raise ValueError(f"edge {vertices[i]}->{vertices[j]}: flow {f} violates capacity {cap}")
        excess[i] -= f
        excess[j] += f
    inflow = 0.0 if t is None else excess[t]
    for k, e in enumerate(excess):
        if k != s and k != t and abs(e) > FLOW_TOL:
            raise ValueError(f"node {vertices[k]}: flow imbalance {e}")
    if abs(inflow - value) > max(FLOW_TOL, 1e-6 * abs(value)):
        raise ValueError("flow value does not match net inflow at sink")


@dataclass(frozen=True)
class EpochFlow:
    epoch_index: int
    assignment: FlowAssignment
    delivered: dict = field(compare=False)


@dataclass
class DownlinkResult:
    epochs: list
    state: DownlinkState
    complete: bool

    @property
    def epochs_used(self) -> int:
        return len(self.epochs)


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def schedule_downlink(
    windows,
    model_bits: float,
    stations,
    horizon: float,
    epoch_seconds: float = 60.0,
    start_time: float = 0.0,
    *,
    orbits,
    _resume: DownlinkResult | None = None,
) -> DownlinkResult:
    """Drive per-epoch max-flow rounds until every orbit's full model is down.

    Args:
        windows: the contact window timeline.
        model_bits: one orbit's model size in bits, the same for every orbit.
        stations: stations referenced by the windows.
        horizon: scheduling stops start_time + horizon seconds in, complete or
            not; |start_time| + horizon must be at most 2e9 s.
        epoch_seconds: epoch granularity; a window contributes capacity in
            proportion to its overlap with each epoch.
        orbits: orbits holding a model, each with one to deliver; an orbit
            that never sees a station keeps the transfer incomplete.
        _resume: the result of an earlier call with the same model_bits,
            stations, epoch_seconds, start_time and orbits over a shorter
            horizon, whose windows gave its epochs what these windows give
            them (windows sampled one step past its horizon do). Scheduling
            continues from its next epoch with its remaining fractions, and
            the result starts with its epochs.

    Returns:
        DownlinkResult with one EpochFlow per elapsed epoch (epochs with no
        visibility contribute an empty entry), the final state, and whether
        every orbit finished inside the horizon.
    """
    _require_finite("positive and finite", epoch_seconds=epoch_seconds, horizon=horizon,
                    model_bits=model_bits)
    _require_finite("finite", start_time=start_time)
    if horizon / epoch_seconds > _MAX_EPOCHS:
        raise ValueError(f"horizon / epoch_seconds exceeds {_MAX_EPOCHS} epochs")
    # The constellation's time range, with the epoch within 1e9 s of 0.
    if not abs(start_time) + horizon <= 2 * TIME_BOUND_S:
        raise ValueError(f"start_time must keep |start_time| + horizon within 2e9 s, "
                         f"got {start_time!r}")
    if _resume is not None:
        state = DownlinkState(remaining=dict(_resume.state.remaining))
        epochs = list(_resume.epochs)
    else:
        state = DownlinkState(remaining={int(o): 1.0 for o in orbits})
        epochs = []
    for st in stations:
        _check_capacity(st.dedicated_rate_bps)
    by_id = sorted(stations, key=lambda st: st.id)
    if twice := [a.id for a, b in zip(by_id, by_id[1:]) if a.id == b.id]:
        raise ValueError(f"station id {twice[0]!r} listed twice")
    # Edge capacities are fractions of model_bits, so a unit of flow is one
    # full model delivered.
    sink_capacity = {st.id: st.dedicated_rate_bps * epoch_seconds / model_bits for st in by_id}

    # Windows by start, popped from the end; an empty, reversed or NaN
    # window, or one over before the first epoch to run, overlaps no epoch.
    first = len(epochs)
    t_first = start_time + first * epoch_seconds
    pending = []
    for k, w in enumerate(windows):
        if w.ground_station not in sink_capacity:
            raise ValueError(f"window references unknown station {w.ground_station!r}")
        _check_capacity(w.rate_bps)
        sat = w.satellite
        if sat.orbit_index in state.remaining and w.start < w.end and w.end > t_first:
            pending.append((w.start, (sat.orbit_index, sat.slot_index, w.ground_station, k), w))
    pending.sort(reverse=True)
    live: list = []  # (edge key, window) of unfinished orbits, in edge key order
    for e in range(first, int(horizon // epoch_seconds)):
        if state.done():
            break
        t0 = start_time + e * epoch_seconds
        t1 = t0 + epoch_seconds
        while pending and pending[-1][0] < t1:
            bisect.insort(live, pending.pop()[1:])
        live = [entry for entry in live
                if entry[1].end > t0 and state.remaining[entry[0][0]] > FLOW_TOL]
        active = [(w, ov) for _, w in live if (ov := _overlap(w.start, w.end, t0, t1)) > 0]
        delivered = {o: 0.0 for o in state.remaining}
        if active:
            net = FlowNetwork()
            for w, _ in active:
                if w.satellite not in net.adjacency:
                    net.add_edge(SOURCE, w.satellite, state.remaining[w.satellite.orbit_index])
            for w, ov in active:
                # The link's rate scaled to its share of the epoch, times the
                # epoch: rate * ov / model_bits would round differently.
                net.add_edge(w.satellite, w.ground_station,
                             w.rate_bps * ov / epoch_seconds * epoch_seconds / model_bits)
            present = {w.ground_station for w, _ in active}
            for gs, cap in sink_capacity.items():
                if gs in present:
                    net.add_edge(gs, SINK, cap)
            assignment = max_flow(net)
            for sat in net.adjacency[SOURCE]:
                delivered[sat.orbit_index] += assignment.flows[(SOURCE, sat)]
        else:
            assignment = FlowAssignment({}, 0.0)
        for o, f in delivered.items():
            state.remaining[o] = max(0.0, state.remaining[o] - f)
        epochs.append(EpochFlow(e, assignment, delivered))

    return DownlinkResult(epochs, state, state.done())
