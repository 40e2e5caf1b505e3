import math

import numpy as np
import pytest
from hypothesis import given, settings

from leoplan import (
    ContactWindow,
    GroundStation,
    SatelliteId,
    contact_windows,
    max_flow,
    schedule_downlink,
)
from leoplan import sgl_flow
from leoplan.sgl_flow import FLOW_TOL, SINK, SOURCE, FlowAssignment

from oracles import (
    FlowNetwork,
    check_feasible,
    contact_window_timelines,
    downlink_timelines,
    exhaustive_min_cut,
    random_flow_network,
    random_layered_network,
    random_window_timeline,
    reference_max_flow,
    reference_schedule_downlink,
    shell_plan_case,
    solve_flow_network,
)


def test_add_edge_accumulates_parallel_capacity():
    net = FlowNetwork()
    net.add_edge("a", "b", 1.0)
    net.add_edge("a", "b", 0.5)
    assert net.capacity[("a", "b")] == 1.5
    assert net.adjacency["a"] == ["b"]
    with pytest.raises(ValueError, match="nonnegative"):
        net.add_edge("a", "c", -1.0)
    with pytest.raises(ValueError, match="capacity must be nonnegative and finite, got nan"):
        net.add_edge("a", "c", math.nan)
    with pytest.raises(ValueError, match="capacity must be nonnegative and finite, got inf"):
        net.add_edge("a", "c", math.inf)
    assert net.capacity == {("a", "b"): 1.5}


def test_max_flow_chain():
    net = FlowNetwork()
    net.add_edge(SOURCE, "m", 1.0)
    net.add_edge("m", SINK, 0.4)
    res = solve_flow_network(net)
    assert abs(res.value - 0.4) < 1e-12
    assert abs(res.flows[(SOURCE, "m")] - 0.4) < 1e-12


def test_max_flow_diamond():
    # Min cut is the sink side {a->t, b->t} = 0.9; the cross edge carries
    # a's surplus 0.1 over to b.
    net = FlowNetwork()
    net.add_edge(SOURCE, "a", 0.5)
    net.add_edge(SOURCE, "b", 0.5)
    net.add_edge("a", SINK, 0.3)
    net.add_edge("b", SINK, 0.6)
    net.add_edge("a", "b", 1.0)
    res = solve_flow_network(net)
    assert abs(res.value - 0.9) < 1e-12
    assert abs(res.flows[("a", "b")] - 0.1) < 1e-12


def test_max_flow_needs_residual_pushback():
    # The first (shortest) augmenting path runs s-u-v-t, but the optimum
    # routes around u->v entirely; reaching 2.0 requires cancelling that
    # flow through the reverse edge.
    net = FlowNetwork()
    net.add_edge(SOURCE, "u", 1.0)
    net.add_edge("u", "v", 1.0)
    net.add_edge("v", SINK, 1.0)
    net.add_edge(SOURCE, "x", 1.0)
    net.add_edge("x", "v", 1.0)
    net.add_edge("u", "y", 1.0)
    net.add_edge("y", SINK, 1.0)
    res = solve_flow_network(net)
    assert abs(res.value - 2.0) < 1e-12
    assert res.flows[("u", "v")] == 0.0


def test_max_flow_anti_parallel_edges_give_a_maximum_flow():
    # The first path runs s-v0-v4-t; the second goes s-v3-v4-v0-v5-t through
    # v4->v0, whose own slot is separate from v0->v4's reverse slot, so one
    # unit circulates on v0<->v4. The flow is still feasible and maximum.
    net = FlowNetwork()
    for u, v in [("s", "v0"), ("s", "v3"), ("v0", "v4"), ("v4", "v0"), ("v3", "v4"),
                 ("v4", "t"), ("v0", "v5"), ("v5", "t")]:
        net.add_edge(u, v, 1.0)
    res = solve_flow_network(net, "s", "t")
    assert res.value == exhaustive_min_cut(net.capacity, "s", "t") == 2.0
    check_feasible(net, res, "s", "t")


def test_max_flow_disconnected():
    net = FlowNetwork()
    net.add_edge(SOURCE, "a", 1.0)
    net.add_edge("b", SINK, 1.0)
    res = solve_flow_network(net)
    assert res.value == 0.0
    assert res.flows[(SOURCE, "a")] == 0.0


def test_max_flow_matches_exhaustive_min_cut():
    rng = np.random.default_rng(314)
    for _ in range(120):
        net, caps = random_layered_network(rng)
        res = solve_flow_network(net, "s", "t")
        want = exhaustive_min_cut(caps, "s", "t")
        assert abs(res.value - want) < 1e-9


def test_max_flow_deterministic():
    rng = np.random.default_rng(7)
    net, _ = random_layered_network(rng)
    a = solve_flow_network(net, "s", "t")
    b = solve_flow_network(net, "s", "t")
    assert a.flows == b.flows and a.value == b.value


def test_check_feasible_rejects_bad_flows():
    net = FlowNetwork()
    net.add_edge(SOURCE, "a", 1.0)
    net.add_edge("a", SINK, 1.0)
    from leoplan import FlowAssignment

    with pytest.raises(ValueError, match="violates capacity"):
        check_feasible(net, FlowAssignment({(SOURCE, "a"): 2.0, ("a", SINK): 2.0}, 2.0))
    with pytest.raises(ValueError, match="imbalance"):
        check_feasible(net, FlowAssignment({(SOURCE, "a"): 1.0, ("a", SINK): 0.2}, 1.0))
    with pytest.raises(ValueError, match="does not match net inflow"):
        check_feasible(net, FlowAssignment({(SOURCE, "a"): 0.5, ("a", SINK): 0.5}, 0.9))


def test_schedule_downlink_network_layering(monkeypatch):
    """The epoch network follows the call's fixed edge order, whatever the
    timeline order: source edges by satellite, satellite-to-station edges by
    (orbit, slot, station) with a repeated pair adding its capacity, then
    station-to-sink edges by station id."""
    s00, s01, s10 = SatelliteId(0, 0), SatelliteId(0, 1), SatelliteId(1, 0)
    windows = [
        ContactWindow(s10, "gs-b", 0.0, 60.0, 4e6),
        ContactWindow(s01, "gs-a", 0.0, 60.0, 2e6),
        ContactWindow(s00, "gs-b", 0.0, 60.0, 1e6),
        ContactWindow(s00, "gs-a", 0.0, 30.0, 1e6),
        ContactWindow(s00, "gs-a", 30.0, 60.0, 3e6),
    ]
    stations = (GroundStation("gs-b", 0.0, 90.0, dedicated_rate_bps=8e6),
                GroundStation("gs-a", 0.0, 0.0, dedicated_rate_bps=8e6))
    model = 2.4e8
    nets = []

    def recorded(vertices, edges, capacities):
        nets.append((vertices, edges, capacities))
        return max_flow(vertices, edges, capacities)

    monkeypatch.setattr(sgl_flow, "max_flow", recorded)
    schedule_downlink(windows, model, stations, horizon=60.0, orbits=[0, 1])
    ((vertices, edges, caps),) = nets
    assert vertices == [SOURCE, s00, s01, s10, "gs-a", "gs-b", SINK]
    capacity = {(vertices[i], vertices[j]): c for (i, j), c in zip(edges, caps)}
    assert len(capacity) == len(edges)
    assert list(capacity) == [
        (SOURCE, s00), (SOURCE, s01), (SOURCE, s10),
        (s00, "gs-a"), (s00, "gs-b"), (s01, "gs-a"), (s10, "gs-b"),
        ("gs-a", SINK), ("gs-b", SINK)]
    # The orbit's remaining fraction caps each satellite's source edge.
    assert capacity[(SOURCE, s00)] == capacity[(SOURCE, s01)] == 1.0
    assert abs(capacity[(s00, "gs-a")] - (1e6 + 3e6) * 30 / model) < 1e-15
    assert capacity[(s10, "gs-b")] == 4e6 * 60 / model
    assert capacity[("gs-a", SINK)] == capacity[("gs-b", SINK)] == 2.0


def test_schedule_downlink_unknown_station():
    windows = [ContactWindow(SatelliteId(2, 0), "gs-x", 0.0, 60.0, 1e6)]
    with pytest.raises(ValueError, match="window references unknown station 'gs-x'"):
        schedule_downlink(windows, 1e8, (GroundStation("gs", 0.0, 0.0),), horizon=60.0,
                          orbits=[2])


@pytest.mark.parametrize("stray", [
    ContactWindow(SatelliteId(0, 0), "gs-x", 300.0, 360.0, 1e6),  # after the transfer ends
    ContactWindow(SatelliteId(1, 0), "gs-x", 0.0, 60.0, 1e6),  # orbit 1 holds no model
    ContactWindow(SatelliteId(0, 0), "gs-x", 0.0, 60.0, 1e6),  # live in the first epoch
])
def test_schedule_downlink_checks_every_window_station(stray):
    # The gs window alone moves the whole model in the first epoch.
    windows = [ContactWindow(SatelliteId(0, 0), "gs", 0.0, 60.0, 1e6), stray]
    with pytest.raises(ValueError, match="window references unknown station 'gs-x'"):
        schedule_downlink(windows, 1e7, (GroundStation("gs", 0.0, 0.0),), horizon=600.0,
                          orbits=[0])


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("field", ["rate_bps", "dedicated_rate_bps"])
def test_schedule_downlink_rejects_bad_capacity(field, bad):
    """An infinite rate would make max_flow book inf - inf = NaN on its edge
    and then report a false imbalance; every bad rate is named as a
    capacity."""
    rate = bad if field == "rate_bps" else 1e7
    dedicated = bad if field == "dedicated_rate_bps" else 1e9
    windows = [ContactWindow(SatelliteId(0, 0), "gs", 0.0, 600.0, rate)]
    stations = (GroundStation("gs", 0.0, 0.0, dedicated_rate_bps=dedicated),)
    with pytest.raises(ValueError, match="capacity must be nonnegative and finite, got"):
        schedule_downlink(windows, 1.2e9, stations, horizon=600.0, orbits=[0])
    # The same rate on a window, or on the station of a window, that goes live
    # only after its orbit has finished; orbit 1 keeps the sweep running.
    windows = [ContactWindow(SatelliteId(0, 0), "gs", 0.0, 60.0, 1e9),
               ContactWindow(SatelliteId(0, 1), "gs-late", 120.0, 180.0, rate)]
    stations = (GroundStation("gs", 0.0, 0.0, dedicated_rate_bps=1e9),
                GroundStation("gs-late", 0.0, 90.0, dedicated_rate_bps=dedicated))
    with pytest.raises(ValueError, match="capacity must be nonnegative and finite, got"):
        schedule_downlink(windows, 1.2e9, stations, horizon=600.0, orbits=[0, 1])


@pytest.mark.parametrize("starts", [(0.0,), (0.0, 30.0)])
def test_schedule_downlink_rejects_an_overflowing_pair_capacity(starts):
    """One 60 s window at 1e300 b/s, or two 30 s windows of one (satellite,
    station) pair in one epoch, each finite, overflow the pair's edge
    capacity to inf; it is named as a capacity, not found later as a flow
    imbalance."""
    windows = [ContactWindow(SatelliteId(0, 0), "gs", t, t + 60.0 / len(starts), 1e300)
               for t in starts]
    stations = (GroundStation("gs", 0.0, 0.0, dedicated_rate_bps=1e9),)
    with pytest.raises(ValueError, match="capacity must be nonnegative and finite, got inf"):
        schedule_downlink(windows, 3.3e-7, stations, horizon=60.0, orbits=[0])


def test_schedule_downlink_rejects_a_station_listed_twice():
    """Listed twice, a station's dedicated link would count twice."""
    windows = [ContactWindow(SatelliteId(0, 0), "gs", 0.0, 60.0, 1e6)]
    gs = GroundStation("gs", 0.0, 0.0)
    with pytest.raises(ValueError, match="station id 'gs' listed twice"):
        schedule_downlink(windows, 1e8, (gs, GroundStation("gs-b", 1.0, 1.0), gs),
                          horizon=60.0, orbits=[0])


@pytest.mark.parametrize("station", ["source", "sink"])
def test_stations_named_like_the_virtual_terminals_stay_stations(station):
    """A station id equal to the name of the flow network's source or sink is
    an ordinary station: its dedicated link caps each epoch at 0.5 model, as
    it does under any other id."""
    def delivered(gs):
        windows = [ContactWindow(SatelliteId(0, 0), gs, 0.0, 60.0, 1e6)]
        stations = (GroundStation(gs, 0.0, 0.0, dedicated_rate_bps=1e3),)
        res = schedule_downlink(windows, 1.2e5, stations, horizon=60.0, orbits=[0])
        return res.epochs[0].delivered, res.state.remaining

    assert delivered(station) == delivered("gs") == ({0: 0.5}, {0: 0.5})


def test_schedule_downlink_two_epochs():
    # One satellite, rate 1e7, model 1.2e9: each 60 s epoch moves half the model.
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0, dedicated_rate_bps=1e9),)
    res = schedule_downlink(windows, 1.2e9, stations, horizon=600.0, orbits=[0])
    assert res.complete
    assert res.epochs_used == 2
    assert abs(res.epochs[0].delivered[0] - 0.5) < 1e-12
    assert abs(res.epochs[1].delivered[0] - 0.5) < 1e-12
    assert res.state.remaining[0] == 0.0
    # Orbit 1 holds a model but has no windows, so it never finishes.
    res = schedule_downlink(windows, 1.2e9, stations, horizon=600.0, orbits=[0, 1])
    assert not res.complete
    assert res.epochs_used == 10
    assert res.state.remaining == {0: 0.0, 1: 1.0}


def test_schedule_downlink_partial_window_overlap():
    # Window covers only 30 s of the first epoch, so it delivers half as much.
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 30.0, 60.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    res = schedule_downlink(windows, 1.2e9, stations, horizon=60.0, orbits=[0])
    assert not res.complete
    assert abs(res.epochs[0].delivered[0] - 0.25) < 1e-12


def test_schedule_downlink_counts_idle_epochs():
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 120.0, 240.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    res = schedule_downlink(windows, 6e8, stations, horizon=600.0, orbits=[0])
    assert res.complete
    assert res.epochs_used == 3  # epochs 0-1 idle, epoch 2 finishes at t=180
    assert res.epochs[0].delivered == {0: 0.0}
    assert res.epochs[0].assignment.value == 0.0


def test_schedule_downlink_dedicated_bottleneck():
    # Two satellites share one station whose ground link caps each epoch at
    # 0.6 model; SGL edges allow 0.5 apiece, so per-epoch splits are 0.5/0.1.
    s0, s1 = SatelliteId(0, 0), SatelliteId(1, 0)
    windows = [ContactWindow(s0, "gs", 0.0, 600.0, 1e7),
               ContactWindow(s1, "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0, dedicated_rate_bps=1.2e7),)
    res = schedule_downlink(windows, 1.2e9, stations, horizon=600.0, orbits=[0, 1])
    assert abs(sum(res.epochs[0].delivered.values()) - 0.6) < 1e-12
    assert res.complete
    assert res.epochs_used == 4
    total = sum(sum(e.delivered.values()) for e in res.epochs)
    assert abs(total - 2.0) < 1e-9


def test_schedule_downlink_orbit_cap_is_per_satellite():
    # The remaining fraction caps each satellite's source edge separately, so
    # two visible satellites of one orbit can deliver up to 2.0 in an epoch;
    # the remaining fraction still clamps at zero.
    s0, s1 = SatelliteId(0, 0), SatelliteId(0, 1)
    windows = [ContactWindow(s0, "gs-a", 0.0, 600.0, 1e9),
               ContactWindow(s1, "gs-b", 0.0, 600.0, 1e9)]
    stations = (GroundStation("gs-a", 0.0, 0.0, dedicated_rate_bps=10e9),
                GroundStation("gs-b", 0.0, 90.0, dedicated_rate_bps=10e9))
    res = schedule_downlink(windows, 1.2e9, stations, horizon=600.0, orbits=[0])
    assert res.complete
    assert res.epochs_used == 1
    assert abs(res.epochs[0].delivered[0] - 2.0) < 1e-9
    assert res.state.remaining[0] == 0.0


def test_schedule_downlink_argument_errors():
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    with pytest.raises(ValueError, match="epoch_seconds"):
        schedule_downlink(windows, 1e9, stations, horizon=600.0, epoch_seconds=0.0,
                          orbits=[0])
    with pytest.raises(ValueError, match="horizon"):
        schedule_downlink(windows, 1e9, stations, horizon=0.0, orbits=[0])
    with pytest.raises(ValueError, match="model_bits"):
        schedule_downlink(windows, 0.0, stations, horizon=600.0, orbits=[0])
    # A NaN start_time would make every window overlap every epoch in full.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="start_time must be finite"):
            schedule_downlink(windows, 1e9, stations, horizon=600.0, start_time=bad,
                              orbits=[0])


def test_schedule_downlink_rejects_too_many_epochs():
    """Its own horizon / epoch_seconds may not pass 100,000 epochs, checked
    before the first epoch."""
    windows = [ContactWindow(SatelliteId(0, 0), "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    res = schedule_downlink(windows, 1e9, stations, horizon=1e5, epoch_seconds=1.0,
                            orbits=[0])
    assert res.complete and res.epochs_used == 100
    for epoch in (math.nextafter(1.0, 0.0), 1e-300):
        with pytest.raises(ValueError, match="horizon / epoch_seconds exceeds 100000 epochs"):
            schedule_downlink(windows, 1e9, stations, horizon=1e5, epoch_seconds=epoch,
                              orbits=[0])


def test_schedule_downlink_is_held_to_the_time_range():
    """A span ending 2e9 s from 0, as far as a span within 1e9 s of an epoch
    within 1e9 s of 0 reaches, is scheduled on either side; one ulp further
    is rejected."""
    stations = (GroundStation("gs", 0.0, 0.0),)
    for start in (2e9 - 600.0, 600.0 - 2e9):
        windows = [ContactWindow(SatelliteId(0, 0), "gs", start, start + 600.0, 1e7)]
        res = schedule_downlink(windows, 1e9, stations, horizon=600.0, start_time=start,
                                orbits=[0])
        assert res.complete and res.epochs_used == 2
        with pytest.raises(ValueError, match=r"start_time must keep \|start_time\| \+ horizon "
                                             r"within 2e9 s, got "):
            schedule_downlink(windows, 1e9, stations, horizon=600.0,
                              start_time=math.nextafter(start, math.copysign(math.inf, start)),
                              orbits=[0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["horizon", "epoch_seconds", "model_bits"])
def test_schedule_downlink_rejects_non_finite(name, value):
    # A NaN or inf model_bits would schedule nothing and report the transfer
    # incomplete.
    windows = [ContactWindow(SatelliteId(0, 0), "gs", 0.0, 600.0, 1e7)]
    args = {"model_bits": 1e9, "horizon": 600.0, "epoch_seconds": 60.0, "orbits": [0],
            name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        schedule_downlink(windows, stations=(GroundStation("gs", 0.0, 0.0),), **args)


def _flow_key(assignment):
    return ([(k, f.hex()) for k, f in assignment.flows.items()], assignment.value.hex())


def test_max_flow_matches_dict_keyed_reference():
    """Integer-addressed residuals give the reference's flows bit for bit,
    on layered networks and on this seed's networks of any edge shape. On an
    anti-parallel pair the two can part (a reverse slot is not shared with
    the opposite edge, see test_max_flow_anti_parallel_edges_give_a_maximum_flow);
    on none of these networks do they."""
    rng = np.random.default_rng(1618)
    nets = [random_layered_network(rng)[0] for _ in range(200)]
    nets += [random_flow_network(rng) for _ in range(400)]
    for net in nets:
        assert (_flow_key(solve_flow_network(net, "s", "t"))
                == _flow_key(reference_max_flow(net, "s", "t")))


def test_slot_check_agrees_with_check_feasible():
    """max_flow's own check on integer slots accepts and rejects the same
    assignments as the dict-keyed check_feasible: max-flow results, and results
    with one flow pushed past its capacity or below zero, one flow nudged off
    balance, or the value moved off the inflow at the sink. The check numbers
    s first and t last, present or not: an absent terminal has no excess."""
    rng = np.random.default_rng(2718)
    seen = set()
    for _ in range(600):
        net = random_flow_network(rng)
        base = solve_flow_network(net, "s", "t")
        flows, value = list(base.flows.values()), base.value
        k = int(rng.integers(len(flows)))
        cap = list(net.capacity.values())[k]
        kind = int(rng.integers(5))
        if kind == 1:
            flows[k] = cap + float(rng.choice([0.5e-9, 2e-9, 0.5]))
        elif kind == 2:
            flows[k] = -float(rng.choice([0.5e-9, 2e-9, 0.5]))
        elif kind == 3:
            flows[k] += float(rng.choice([0.5e-9, 2e-9, 0.25]))
        elif kind == 4:
            value += float(rng.choice([0.5e-9, 2e-9, 0.25]))
        vertices = ["s", *(v for v in net.adjacency if v not in ("s", "t")), "t"]
        index = {u: j for j, u in enumerate(vertices)}
        edges = [(index[u], index[v]) for u, v in net.capacity]

        def verdict(check):
            try:
                check()
            except ValueError as exc:
                return str(exc).split()[0]
            return "ok"

        want = verdict(lambda: check_feasible(
            net, FlowAssignment(dict(zip(net.capacity, flows)), value), "s", "t"))
        got = verdict(lambda: sgl_flow._check_slots(
            vertices, edges, list(net.capacity.values()), flows, value))
        assert got == want
        seen.add((kind, want))
    assert {want for _, want in seen} == {"ok", "edge", "node", "flow"}
    assert (0, "ok") in seen


def _hexes(fractions):
    return [(o, f.hex()) for o, f in fractions.items()]


def _assert_schedules_agree(got, want):
    """got books what the unpruned reference want books, bit for bit: the
    same completion, remaining fractions, and per-epoch delivered fractions
    and flow values. got's flows are an in-order sub-sequence of want's; each
    edge it leaves out carries exactly 0.0 and belongs to an orbit already
    finished before the epoch, or is a station's sink edge that only such
    orbits reach."""
    assert got.complete == want.complete
    assert _hexes(got.state.remaining) == _hexes(want.state.remaining)
    assert [ep.epoch_index for ep in got.epochs] == [ep.epoch_index for ep in want.epochs]
    remaining = {o: 1.0 for o in want.state.remaining}
    for g, w in zip(got.epochs, want.epochs):
        assert _hexes(g.delivered) == _hexes(w.delivered)
        assert g.assignment.value.hex() == w.assignment.value.hex()
        finished = {o for o, f in remaining.items() if f <= FLOW_TOL}
        live_stations = {v for (u, v) in w.assignment.flows
                         if isinstance(u, SatelliteId) and u.orbit_index not in finished}
        kept = list(g.assignment.flows.items())
        k = 0
        for (u, v), f in w.assignment.flows.items():
            if k < len(kept) and kept[k][0] == (u, v):
                assert kept[k][1].hex() == f.hex(), (u, v)
                k += 1
                continue
            assert f == 0.0, (u, v)
            if v == SINK:
                assert u not in live_stations, (u, v)
            else:
                assert (v if u == SOURCE else u).orbit_index in finished, (u, v)
        assert k == len(kept)
        for o, f in w.delivered.items():
            remaining[o] = max(0.0, remaining[o] - f)


@settings(max_examples=300, deadline=None)
@given(case=downlink_timelines())
def test_schedule_downlink_matches_full_scan(case):
    """Scanning only the epochs each window can overlap, and only the windows
    of unfinished orbits, books exactly what testing every window in every
    epoch books: delivered, flow values and the final remaining fractions, bit
    for bit, with flows left out only where they are zero."""
    _assert_schedules_agree(schedule_downlink(**case), reference_schedule_downlink(**case))


@settings(max_examples=200, deadline=None)
@given(case=contact_window_timelines())
def test_schedule_downlink_matches_full_scan_on_contact_windows(case):
    """On real visibility the scheduler books what the per-epoch builder and
    reference max-flow book, bit for bit; contact_windows lists windows by
    station first, so this fails unless live windows are put in edge order."""
    _assert_schedules_agree(schedule_downlink(**case), reference_schedule_downlink(**case))


def _shell_plan_downlink():
    """The benchmark's 24x22 shell_plan contact timeline and the
    schedule_downlink keyword arguments of its downlink."""
    walker, scn, at = shell_plan_case()
    fed = scn.federation
    windows = contact_windows(walker, scn.ground_stations, fed.horizon_seconds,
                              step=fed.window_step_seconds, link_config=scn.link_config,
                              start=at)
    model_bits = float(scn.constellation.sats_per_orbit
                       * scn.workload.embedding_bits_per_satellite)
    return windows, dict(model_bits=model_bits, stations=scn.ground_stations,
                         horizon=fed.horizon_seconds, epoch_seconds=fed.epoch_seconds,
                         start_time=at, orbits=range(scn.constellation.num_orbits))


def test_schedule_downlink_builds_one_network_per_live_epoch(monkeypatch):
    """On the benchmark's 24x22 shell_plan timeline, each epoch in which an
    unfinished orbit has a window builds exactly one network and hands it to
    one max_flow call, made through the module binding the layer trace wraps.
    The network holds exactly that epoch's satellites of unfinished orbits:
    none of an orbit whose model is already down."""
    windows, kwargs = _shell_plan_downlink()
    calls = []

    def counted(vertices, edges, capacities):
        calls.append(vertices)
        return max_flow(vertices, edges, capacities)

    monkeypatch.setattr(sgl_flow, "max_flow", counted)
    res = schedule_downlink(windows, **kwargs)
    remaining = {o: 1.0 for o in res.state.remaining}
    want, finished_seen = [], 0
    for ep in res.epochs:
        t0 = kwargs["start_time"] + ep.epoch_index * kwargs["epoch_seconds"]
        t1 = t0 + kwargs["epoch_seconds"]
        seen = {w.satellite for w in windows if min(w.end, t1) > max(w.start, t0)}
        unfinished = {sat for sat in seen if remaining[sat.orbit_index] > FLOW_TOL}
        if unfinished:
            want.append(unfinished)
        finished_seen += len(seen - unfinished)
        for o, f in ep.delivered.items():
            remaining[o] = max(0.0, remaining[o] - f)
    assert finished_seen > 0 and len(want) > 10
    assert len(calls) == len(want)
    assert [{v for v in vertices if isinstance(v, SatelliteId)} for vertices in calls] == want


def test_schedule_downlink_tests_each_window_only_near_its_epochs(monkeypatch):
    """On the benchmark's 24x22 shell_plan timeline, the overlap test runs at
    most once per epoch a window can touch, not once per window per epoch."""
    windows, kwargs = _shell_plan_downlink()
    calls = []
    overlap = sgl_flow._overlap

    def counted(*args):
        calls.append(args)
        return overlap(*args)

    monkeypatch.setattr(sgl_flow, "_overlap", counted)
    res = schedule_downlink(windows, **kwargs)
    assert res.epochs_used > 10 and len(windows) > 500
    reach = sum(int(w.duration // kwargs["epoch_seconds"]) + 2 for w in windows)
    assert 0 < len(calls) <= reach
    assert len(calls) * 5 < res.epochs_used * len(windows)


def test_coordinated_never_slower_than_single_link():
    from oracles import best_single_link_epochs

    rng = np.random.default_rng(11)
    horizon, epoch = 600.0, 60.0
    for _ in range(30):
        windows, stations = random_window_timeline(rng)
        if not windows:
            continue
        orbits = sorted({w.satellite.orbit_index for w in windows})
        model = 4e8
        res = schedule_downlink(windows, model, stations, horizon=horizon,
                                epoch_seconds=epoch, orbits=orbits)
        single_epochs, single_complete = best_single_link_epochs(
            windows, model, stations, horizon, epoch, orbits)
        if single_complete:
            assert res.complete
            assert res.epochs_used <= single_epochs
