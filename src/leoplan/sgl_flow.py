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
Each epoch builds max_flow's input directly: vertices [SOURCE, satellites in
(orbit, slot) order, stations by id, SINK], edges as (tail, head) index
pairs, and one capacity per edge; windows of one (satellite, station) pair
are one edge, their capacities summed in edge order. max_flow gives edge k
the reverse residual slot k + m (m edges), and each vertex scans its
out-edges, then the reverse slots of its in-edges, both in edge order. A
layered network has no anti-parallel edge: every edge runs from one layer to
the next, so no two edges join the same two vertices both ways, and the
scan order is that of a residual dict keyed by vertex pairs
(test_max_flow_matches_dict_keyed_reference).
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


def max_flow(vertices: list, edges: list, capacities: list) -> tuple:
    """Ford-Fulkerson with BFS augmenting paths (shortest first), deterministic.

    The source is vertices[0] and the sink vertices[-1]; edge k runs from
    vertex edges[k][0] to vertex edges[k][1] with capacities[k], each checked
    nonnegative and finite. Edge order is search order: each vertex scans its
    out-edges, then the reverse slots of its in-edges, both in edge order.
    Edge k's reverse slot is m + k (m edges), apart from any edge running the
    other way, so flow may circulate on an anti-parallel pair; the value is
    still maximum. Returns (the flow on each edge, in edge order; the total
    value), checked by _check_slots.
    """
    for cap in capacities:
        _check_capacity(cap)
    m = len(edges)
    tails = [i for i, _ in edges] + [j for _, j in edges]  # slot m + k reverses edge k
    neighbors: list = [[] for _ in vertices]
    for k, (i, j) in enumerate(edges):
        neighbors[i].append((j, k))
    for k, (i, j) in enumerate(edges):
        neighbors[j].append((i, m + k))
    residual = list(capacities) + [0.0] * m

    value = 0.0
    s, t = 0, len(vertices) - 1
    while s < t:
        via = [-1] * len(vertices)  # residual slot each vertex was reached by
        via[s] = 2 * m  # reached, by no slot
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
            v = tails[via[v]]
        v = t
        while v != s:
            k = via[v]
            residual[k] -= bottleneck
            residual[k - m if k >= m else k + m] += bottleneck
            v = tails[k]
        value += bottleneck

    flows = [f if (f := cap - left) > FLOW_TOL else 0.0 for cap, left in zip(capacities, residual)]
    _check_slots(vertices, edges, capacities, flows, value)
    return flows, value


def _check_slots(vertices: list, edges: list, capacities: list, flows: list,
                 value: float) -> None:
    """Raise ValueError unless capacities and conservation hold within
    FLOW_TOL, on max_flow's integer numbering.

    Edge k runs from vertices[edges[k][0]] to vertices[edges[k][1]] with
    capacities[k] and flows[k]; the source is vertices[0] and the sink
    vertices[-1]. It accepts what the dict-keyed check does
    (test_slot_check_agrees_with_check_feasible).
    """
    excess = [0.0] * len(vertices)
    for (i, j), cap, f in zip(edges, capacities, flows):
        if f < -FLOW_TOL or f > cap + FLOW_TOL:
            raise ValueError(f"edge {vertices[i]}->{vertices[j]}: flow {f} violates capacity {cap}")
        excess[i] -= f
        excess[j] += f
    for k, e in enumerate(excess[1:-1], 1):
        if abs(e) > FLOW_TOL:
            raise ValueError(f"node {vertices[k]}: flow imbalance {e}")
    if abs(excess[-1] - value) > max(FLOW_TOL, 1e-6 * abs(value)):
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
            sats = list(dict.fromkeys(w.satellite for w, _ in active))
            present = {w.ground_station for w, _ in active}
            gss = [gs for gs in sink_capacity if gs in present]
            vertices = [SOURCE, *sats, *gss, SINK]
            index = {v: k for k, v in enumerate(vertices[1:-1], 1)}
            edges = [(0, k) for k in range(1, len(sats) + 1)]
            caps = [state.remaining[sat.orbit_index] for sat in sats]
            for w, ov in active:
                edge = (index[w.satellite], index[w.ground_station])
                # The link's rate scaled to its share of the epoch, times the
                # epoch: rate * ov / model_bits would round differently.
                cap = w.rate_bps * ov / epoch_seconds * epoch_seconds / model_bits
                if edge == edges[-1]:  # a repeated pair adds its capacity
                    caps[-1] += cap
                else:
                    edges.append(edge)
                    caps.append(cap)
            edges += [(index[gs], len(vertices) - 1) for gs in gss]
            caps += [sink_capacity[gs] for gs in gss]
            flows, value = max_flow(vertices, edges, caps)
            for sat, f in zip(sats, flows):
                delivered[sat.orbit_index] += f
            assignment = FlowAssignment(
                {(vertices[i], vertices[j]): f for (i, j), f in zip(edges, flows)}, value)
        else:
            assignment = FlowAssignment({}, 0.0)
        for o, f in delivered.items():
            state.remaining[o] = max(0.0, state.remaining[o] - f)
        epochs.append(EpochFlow(e, assignment, delivered))

    return DownlinkResult(epochs, state, state.done())
