"""Coordinated satellite-ground transmission as a max-flow problem.

Each scheduling epoch builds a four-layer network: a virtual source feeds
every visible satellite with capacity equal to its orbit's remaining model
fraction, satellite-to-station edges carry the fraction their link can move
within the epoch, and stations drain into a virtual sink through their
dedicated ground links. A deterministic shortest-augmenting-path max-flow
decides how much of each orbit's model lands per epoch.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field

from .constellation import ContactWindow, GroundStation, SatelliteId

SOURCE = "source"
SINK = "sink"
FLOW_TOL = 1e-9


class FlowNetwork:
    """Capacitated digraph; insertion order of edges fixes the search order."""

    def __init__(self):
        self.capacity: dict = {}
        self.adjacency: dict = {}

    def add_edge(self, u, v, capacity: float) -> None:
        if not capacity >= 0:
            raise ValueError(f"capacity must be nonnegative, got {capacity}")
        if (u, v) in self.capacity:
            self.capacity[(u, v)] += capacity
            return
        self.capacity[(u, v)] = capacity
        self.adjacency.setdefault(u, []).append(v)
        self.adjacency.setdefault(v, [])

    def vertices(self) -> list:
        return list(self.adjacency)


@dataclass(frozen=True)
class FlowAssignment:
    flows: dict = field(compare=False)
    value: float = 0.0


@dataclass
class DownlinkState:
    """Per-orbit fraction of the model still waiting on the ground transfer."""

    remaining: dict
    elapsed_windows: int = 0

    def validate(self) -> None:
        for orbit, frac in self.remaining.items():
            if not 0.0 <= frac <= 1.0:
                raise ValueError(f"orbit {orbit}: remaining fraction {frac} outside [0, 1]")

    def done(self, tol: float = FLOW_TOL) -> bool:
        return all(f <= tol for f in self.remaining.values())


def build_flow_network(
    windows,
    state: DownlinkState,
    window_duration: float,
    model_bits: float,
    stations,
) -> FlowNetwork:
    """Assemble the layered network for one scheduling epoch.

    Args:
        windows: contact windows active in the epoch; rates already scaled to
            the usable fraction of the epoch.
        state: remaining model fraction per orbit.
        window_duration: epoch length in seconds.
        model_bits: size of one orbit's model; all orbits share this size.
        stations: GroundStation objects (or any objects with id and
            dedicated_rate_bps) for the stations appearing in windows.

    Edge capacities are fractions of model_bits, so a unit of flow equals one
    full model copy delivered.
    """
    if not math.isfinite(window_duration) or window_duration <= 0:
        raise ValueError("window_duration must be positive and finite")
    if not math.isfinite(model_bits) or model_bits <= 0:
        raise ValueError("model_bits must be positive and finite")
    state.validate()
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


def max_flow(network: FlowNetwork, source=SOURCE, sink=SINK) -> FlowAssignment:
    """Ford-Fulkerson with BFS augmenting paths (shortest first), deterministic.

    Vertices are numbered in insertion order, and every ordered pair with an
    edge either way gets one residual slot, so the search runs on integers.
    Each vertex scans its out-edges in insertion order, then the tails of its
    in-edges that are not also heads; ties, paths and every float operation
    are those of a residual dict keyed by vertex pairs. Returns the flow on
    every forward edge plus the total value; the result always satisfies
    capacity and conservation, checked on the integer slots before returning
    (_check_slots, which accepts exactly what check_feasible accepts).
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
                 value: float, s, t, tol: float = FLOW_TOL) -> None:
    """check_feasible on max_flow's integer numbering.

    Edge k runs from vertices[pairs[k][0]] to vertices[pairs[k][1]] with
    capacities[k] and flows[k]; s and t are the source and sink indices, or
    None when absent. The excess of each vertex is summed in the same edge
    order as check_feasible's dict, so both accept and reject the same
    assignments; a capacity or value error has the same message.
    """
    excess = [0.0] * len(vertices)
    for (i, j), cap, f in zip(pairs, capacities, flows):
        if f < -tol or f > cap + tol:
            raise ValueError(f"edge {vertices[i]}->{vertices[j]}: flow {f} violates capacity {cap}")
        excess[i] -= f
        excess[j] += f
    inflow = 0.0 if t is None else excess[t]
    for k, e in enumerate(excess):
        if k != s and k != t and abs(e) > tol:
            raise ValueError(f"node {vertices[k]}: flow imbalance {e}")
    if abs(inflow - value) > max(tol, 1e-6 * abs(value)):
        raise ValueError("flow value does not match net inflow at sink")


def check_feasible(network: FlowNetwork, assignment: FlowAssignment,
                   source=SOURCE, sink=SINK, tol: float = FLOW_TOL) -> None:
    """Raise ValueError unless capacities and conservation hold within tol."""
    excess: dict = {}
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


def _epoch_span(start: float, end: float, start_time: float, epoch_seconds: float,
                count: int) -> tuple:
    """Epochs [lo, hi) among the first count whose [t0, t0 + epoch_seconds),
    t0 = start_time + e * epoch_seconds, the window [start, end) can overlap.

    _overlap is positive only where t0 < end and t0 + epoch_seconds > start.
    Both sides are the scheduler's own float expressions and never decrease
    with e, so walking from the rounded estimate finds the exact bounds; a
    window that is empty, reversed or NaN overlaps no epoch.
    """
    if not start < end:
        return 0, 0

    def t0(e: int) -> float:
        return start_time + e * epoch_seconds

    def estimate(x: float) -> int:
        return int(min(max((x - start_time) / epoch_seconds, 0.0), count))

    lo = estimate(start)
    while lo > 0 and t0(lo - 1) + epoch_seconds > start:
        lo -= 1
    while lo < count and t0(lo) + epoch_seconds <= start:
        lo += 1
    hi = estimate(end)
    while hi > 0 and t0(hi - 1) >= end:
        hi -= 1
    while hi < count and t0(hi) < end:
        hi += 1
    return lo, hi


def schedule_downlink(
    windows,
    model_bits,
    stations,
    horizon: float,
    epoch_seconds: float = 60.0,
    initial_state: DownlinkState | None = None,
    start_time: float = 0.0,
    orbits=None,
    tol: float = FLOW_TOL,
) -> DownlinkResult:
    """Drive per-epoch max-flow rounds until every orbit's model is down.

    Args:
        windows: the contact window timeline.
        model_bits: one orbit's model size in bits; a per-orbit mapping is
            accepted but its values must be identical (fraction bookkeeping
            needs a single normalizer).
        stations: stations referenced by the windows.
        horizon: scheduling stops start_time + horizon seconds in, complete or not.
        epoch_seconds: epoch granularity; a window contributes capacity in
            proportion to its overlap with each epoch.
        initial_state: resume from a partial state instead of full models.
        orbits: orbits holding a model; defaults to the orbits seen in windows.

    Returns:
        DownlinkResult with one EpochFlow per elapsed epoch (epochs with no
        visibility contribute an empty entry), the final state, and whether
        every orbit finished inside the horizon.
    """
    if not math.isfinite(epoch_seconds) or epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive and finite")
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError("horizon must be positive and finite")
    if isinstance(model_bits, dict):
        sizes = set(model_bits.values())
        if len(sizes) > 1:
            raise ValueError("per-orbit model sizes must be uniform")
        if orbits is None:
            orbits = sorted(model_bits)
        model_bits = sizes.pop() if sizes else 0.0
    if not math.isfinite(model_bits) or model_bits <= 0:
        raise ValueError("model_bits must be positive and finite")
    if not math.isfinite(start_time):
        raise ValueError("start_time must be finite")
    if orbits is None:
        orbits = sorted({w.satellite.orbit_index for w in windows})

    state = initial_state if initial_state is not None else DownlinkState(
        remaining={int(o): 1.0 for o in orbits})
    state.validate()

    epochs: list[EpochFlow] = []
    epoch_count = int(horizon // epoch_seconds)
    # Each window joins the scan at the first epoch it can overlap and leaves
    # after its last (_epoch_span), so an epoch tests only those windows, in
    # timeline order, where a full scan would test every window.
    pending = []
    for k, w in enumerate(windows):
        if w.satellite.orbit_index in state.remaining:
            lo, hi = _epoch_span(w.start, w.end, start_time, epoch_seconds, epoch_count)
            if lo < hi:
                pending.append((lo, k, hi, w))
    pending.sort(reverse=True)
    live: list = []  # (timeline index, end epoch, window), in timeline order
    for e in range(epoch_count):
        if state.done(tol):
            break
        t0 = start_time + e * epoch_seconds
        t1 = t0 + epoch_seconds
        while pending and pending[-1][0] == e:
            bisect.insort(live, pending.pop()[1:])
        live = [entry for entry in live if entry[1] > e]
        active = []
        for _, _, w in live:
            ov = _overlap(w.start, w.end, t0, t1)
            if ov > 0:
                active.append(ContactWindow(w.satellite, w.ground_station, t0, t1,
                                            w.rate_bps * ov / epoch_seconds))
        delivered = {o: 0.0 for o in state.remaining}
        if active:
            net = build_flow_network(active, state, epoch_seconds, model_bits, stations)
            assignment = max_flow(net)
            for (u, v), f in assignment.flows.items():
                if isinstance(v, SatelliteId) and u == SOURCE:
                    delivered[v.orbit_index] += f
        else:
            assignment = FlowAssignment({}, 0.0)
        for o, f in delivered.items():
            state.remaining[o] = max(0.0, state.remaining[o] - f)
        state.elapsed_windows += 1
        epochs.append(EpochFlow(e, assignment, delivered))

    return DownlinkResult(epochs, state, state.done(tol))
