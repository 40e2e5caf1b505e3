"""Coordinated satellite-ground transmission as a max-flow problem.

Each scheduling epoch builds a four-layer network: a virtual source feeds
every visible satellite with capacity equal to its orbit's remaining model
fraction, satellite-to-station edges carry the fraction their link can move
within the epoch, and stations drain into a virtual sink through their
dedicated ground links. A deterministic shortest-augmenting-path max-flow
decides how much of each orbit's model lands per epoch.
"""

from __future__ import annotations

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
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
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
    if window_duration <= 0:
        raise ValueError("window_duration must be positive")
    if model_bits <= 0:
        raise ValueError("model_bits must be positive")
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

    Returns the flow on every forward edge plus the total value; the result
    always satisfies capacity and conservation, checked before returning.
    """
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
    for node, e in excess.items():
        if node in (source, sink):
            continue
        if abs(e) > tol:
            raise ValueError(f"node {node}: flow imbalance {e}")
    if abs(excess.get(sink, 0.0) - assignment.value) > max(tol, 1e-6 * abs(assignment.value)):
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
    if model_bits <= 0:
        raise ValueError("model_bits must be positive")
    if orbits is None:
        orbits = sorted({w.satellite.orbit_index for w in windows})

    state = initial_state if initial_state is not None else DownlinkState(
        remaining={int(o): 1.0 for o in orbits})
    state.validate()

    epochs: list[EpochFlow] = []
    epoch_count = int(horizon // epoch_seconds)
    for e in range(epoch_count):
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
            assignment = max_flow(net)
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
