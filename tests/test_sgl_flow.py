import math

import numpy as np
import pytest
from hypothesis import given, settings

from leoplan import (
    ContactWindow,
    DownlinkState,
    FlowNetwork,
    GroundStation,
    SatelliteId,
    build_flow_network,
    check_feasible,
    contact_windows,
    max_flow,
    schedule_downlink,
)
from leoplan import sgl_flow
from leoplan.sgl_flow import SINK, SOURCE, FlowAssignment

from oracles import (
    downlink_timelines,
    exhaustive_min_cut,
    random_flow_network,
    random_layered_network,
    random_window_timeline,
    reference_max_flow,
    reference_schedule_downlink,
    shell_plan_case,
)


def test_add_edge_accumulates_parallel_capacity():
    net = FlowNetwork()
    net.add_edge("a", "b", 1.0)
    net.add_edge("a", "b", 0.5)
    assert net.capacity[("a", "b")] == 1.5
    assert net.adjacency["a"] == ["b"]
    with pytest.raises(ValueError, match="nonnegative"):
        net.add_edge("a", "c", -1.0)
    with pytest.raises(ValueError, match="capacity must be nonnegative, got nan"):
        net.add_edge("a", "c", math.nan)
    assert net.capacity == {("a", "b"): 1.5}


def test_max_flow_chain():
    net = FlowNetwork()
    net.add_edge(SOURCE, "m", 1.0)
    net.add_edge("m", SINK, 0.4)
    res = max_flow(net)
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
    res = max_flow(net)
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
    res = max_flow(net)
    assert abs(res.value - 2.0) < 1e-12
    assert res.flows[("u", "v")] == 0.0


def test_max_flow_anti_parallel_edges_share_residuals():
    # The first path runs s-v0-v4-t; the second goes s-v3-v4-v0-v5-t through
    # v4->v0, whose residual (its capacity plus the push-back from v0->v4) is
    # the one slot of the pair (v4, v0), so both edges end with no flow.
    net = FlowNetwork()
    for u, v in [("s", "v0"), ("s", "v3"), ("v0", "v4"), ("v4", "v0"), ("v3", "v4"),
                 ("v4", "t"), ("v0", "v5"), ("v5", "t")]:
        net.add_edge(u, v, 1.0)
    res = max_flow(net, "s", "t")
    assert res.value == 2.0
    assert res.flows[("v0", "v4")] == 0.0 and res.flows[("v4", "v0")] == 0.0
    assert _flow_key(res) == _flow_key(reference_max_flow(net, "s", "t"))


def test_max_flow_disconnected():
    net = FlowNetwork()
    net.add_edge(SOURCE, "a", 1.0)
    net.add_edge("b", SINK, 1.0)
    res = max_flow(net)
    assert res.value == 0.0
    assert res.flows[(SOURCE, "a")] == 0.0


def test_max_flow_matches_exhaustive_min_cut():
    rng = np.random.default_rng(314)
    for _ in range(120):
        net, caps = random_layered_network(rng)
        res = max_flow(net, "s", "t")
        want = exhaustive_min_cut(caps, "s", "t")
        assert abs(res.value - want) < 1e-9


def test_max_flow_deterministic():
    rng = np.random.default_rng(7)
    net, _ = random_layered_network(rng)
    a = max_flow(net, "s", "t")
    b = max_flow(net, "s", "t")
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


def test_build_flow_network_layering():
    s00, s01, s10 = SatelliteId(0, 0), SatelliteId(0, 1), SatelliteId(1, 0)
    windows = [
        ContactWindow(s00, "gs-a", 0.0, 60.0, 1e6),
        ContactWindow(s01, "gs-a", 0.0, 60.0, 2e6),
        ContactWindow(s10, "gs-b", 0.0, 60.0, 4e6),
    ]
    stations = (GroundStation("gs-a", 0.0, 0.0, dedicated_rate_bps=8e6),
                GroundStation("gs-b", 0.0, 90.0, dedicated_rate_bps=8e6))
    state = DownlinkState({0: 1.0, 1: 0.25})
    model = 2.4e8
    net = build_flow_network(windows, state, 60.0, model, stations)
    # Orbit cap is applied per satellite edge, not shared across the orbit.
    assert net.capacity[(SOURCE, s00)] == 1.0
    assert net.capacity[(SOURCE, s01)] == 1.0
    assert net.capacity[(SOURCE, s10)] == 0.25
    assert abs(net.capacity[(s00, "gs-a")] - 1e6 * 60 / model) < 1e-15
    assert abs(net.capacity[("gs-a", SINK)] - 8e6 * 60 / model) < 1e-15
    assert abs(net.capacity[("gs-b", SINK)] - 2.0) < 1e-15


def test_build_flow_network_errors():
    s = SatelliteId(2, 0)
    w = [ContactWindow(s, "gs", 0.0, 60.0, 1e6)]
    st = (GroundStation("gs", 0.0, 0.0),)
    with pytest.raises(ValueError, match="orbit 2 with no tracked model"):
        build_flow_network(w, DownlinkState({0: 1.0}), 60.0, 1e8, st)
    with pytest.raises(ValueError, match="unknown station 'gs-x'"):
        build_flow_network([ContactWindow(s, "gs-x", 0.0, 60.0, 1e6)],
                           DownlinkState({2: 1.0}), 60.0, 1e8, st)
    with pytest.raises(ValueError, match="window_duration"):
        build_flow_network(w, DownlinkState({2: 1.0}), 0.0, 1e8, st)
    with pytest.raises(ValueError, match="model_bits"):
        build_flow_network(w, DownlinkState({2: 1.0}), 60.0, 0.0, st)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="window_duration must be positive and finite"):
            build_flow_network(w, DownlinkState({2: 1.0}), bad, 1e8, st)
        with pytest.raises(ValueError, match="model_bits must be positive and finite"):
            build_flow_network(w, DownlinkState({2: 1.0}), 60.0, bad, st)
    with pytest.raises(ValueError, match="outside"):
        DownlinkState({0: 1.5}).validate()


def test_schedule_downlink_two_epochs():
    # One satellite, rate 1e7, model 1.2e9: each 60 s epoch moves half the model.
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0, dedicated_rate_bps=1e9),)
    res = schedule_downlink(windows, 1.2e9, stations, horizon=600.0)
    assert res.complete
    assert res.epochs_used == 2
    assert abs(res.epochs[0].delivered[0] - 0.5) < 1e-12
    assert abs(res.epochs[1].delivered[0] - 0.5) < 1e-12
    assert res.state.remaining[0] == 0.0


def test_schedule_downlink_partial_window_overlap():
    # Window covers only 30 s of the first epoch, so it delivers half as much.
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 30.0, 60.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    res = schedule_downlink(windows, 1.2e9, stations, horizon=60.0)
    assert not res.complete
    assert abs(res.epochs[0].delivered[0] - 0.25) < 1e-12


def test_schedule_downlink_counts_idle_epochs():
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 120.0, 240.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    res = schedule_downlink(windows, 6e8, stations, horizon=600.0)
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
    res = schedule_downlink(windows, 1.2e9, stations, horizon=600.0)
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
    res = schedule_downlink(windows, 1.2e9, stations, horizon=600.0)
    assert res.complete
    assert res.epochs_used == 1
    assert abs(res.epochs[0].delivered[0] - 2.0) < 1e-9
    assert res.state.remaining[0] == 0.0


def test_schedule_downlink_per_orbit_dict():
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    res = schedule_downlink(windows, {0: 1.2e9, 1: 1.2e9}, stations, horizon=600.0)
    # Orbit 1 has no windows, so it can never finish.
    assert not res.complete
    assert res.state.remaining[0] == 0.0
    assert res.state.remaining[1] == 1.0
    with pytest.raises(ValueError, match="must be uniform"):
        schedule_downlink(windows, {0: 1.2e9, 1: 2.4e9}, stations, horizon=600.0)


def test_schedule_downlink_resume_state():
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    first = schedule_downlink(windows, 1.2e9, stations, horizon=60.0)
    assert not first.complete
    assert abs(first.state.remaining[0] - 0.5) < 1e-12
    second = schedule_downlink(windows, 1.2e9, stations, horizon=600.0,
                               initial_state=first.state, start_time=60.0)
    assert second.complete
    assert second.epochs_used == 1
    assert second.state.elapsed_windows == 2


def test_schedule_downlink_argument_errors():
    s = SatelliteId(0, 0)
    windows = [ContactWindow(s, "gs", 0.0, 600.0, 1e7)]
    stations = (GroundStation("gs", 0.0, 0.0),)
    with pytest.raises(ValueError, match="epoch_seconds"):
        schedule_downlink(windows, 1e9, stations, horizon=600.0, epoch_seconds=0.0)
    with pytest.raises(ValueError, match="horizon"):
        schedule_downlink(windows, 1e9, stations, horizon=0.0)
    with pytest.raises(ValueError, match="model_bits"):
        schedule_downlink(windows, 0.0, stations, horizon=600.0)
    # A NaN start_time would make every window overlap every epoch in full.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="start_time must be finite"):
            schedule_downlink(windows, 1e9, stations, horizon=600.0, start_time=bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["horizon", "epoch_seconds", "model_bits"])
def test_schedule_downlink_rejects_non_finite(name, value):
    # A NaN or inf model_bits would schedule nothing and report the transfer
    # incomplete.
    windows = [ContactWindow(SatelliteId(0, 0), "gs", 0.0, 600.0, 1e7)]
    args = {"model_bits": 1e9, "horizon": 600.0, "epoch_seconds": 60.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        schedule_downlink(windows, stations=(GroundStation("gs", 0.0, 0.0),), **args)


def _flow_key(assignment):
    return ([(k, f.hex()) for k, f in assignment.flows.items()], assignment.value.hex())


def test_max_flow_matches_dict_keyed_reference():
    """Integer-addressed residuals give the reference's flows bit for bit,
    on layered networks and on networks of any edge shape."""
    rng = np.random.default_rng(1618)
    nets = [random_layered_network(rng)[0] for _ in range(200)]
    nets += [random_flow_network(rng) for _ in range(400)]
    for net in nets:
        assert _flow_key(max_flow(net, "s", "t")) == _flow_key(reference_max_flow(net, "s", "t"))


def test_slot_check_agrees_with_check_feasible():
    """max_flow's own check on integer slots accepts and rejects the same
    assignments as the public check_feasible: max-flow results, and results
    with one flow pushed past its capacity or below zero, one flow nudged off
    balance, or the value moved off the inflow at the sink."""
    rng = np.random.default_rng(2718)
    seen = set()
    for _ in range(600):
        net = random_flow_network(rng)
        base = max_flow(net, "s", "t")
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
        index = {u: j for j, u in enumerate(net.adjacency)}
        pairs = [(index[u], index[v]) for u, v in net.capacity]

        def verdict(check):
            try:
                check()
            except ValueError as exc:
                return str(exc).split()[0]
            return "ok"

        want = verdict(lambda: check_feasible(
            net, FlowAssignment(dict(zip(net.capacity, flows)), value), "s", "t"))
        got = verdict(lambda: sgl_flow._check_slots(
            list(index), pairs, list(net.capacity.values()), flows, value,
            index.get("s"), index.get("t")))
        assert got == want
        seen.add((kind, want))
    assert {want for _, want in seen} == {"ok", "edge", "node", "flow"}
    assert (0, "ok") in seen


def _schedule_key(result):
    return (result.complete, result.state.elapsed_windows,
            [(o, f.hex()) for o, f in result.state.remaining.items()],
            [(ep.epoch_index, [(o, f.hex()) for o, f in ep.delivered.items()],
              _flow_key(ep.assignment)) for ep in result.epochs])


@settings(max_examples=300, deadline=None)
@given(case=downlink_timelines())
def test_schedule_downlink_matches_full_scan(case):
    """Scanning only the epochs each window can overlap books exactly what
    testing every window in every epoch books: delivered, flows and the
    final remaining fractions, bit for bit."""
    got = schedule_downlink(**case)
    want = reference_schedule_downlink(**case)
    assert _schedule_key(got) == _schedule_key(want)


def test_schedule_downlink_tests_each_window_only_near_its_epochs(monkeypatch):
    """On the benchmark's 24x22 shell_plan timeline, the overlap test runs at
    most once per epoch a window can touch, not once per window per epoch."""
    walker, scn, at = shell_plan_case()
    fed = scn.federation
    windows = contact_windows(walker, scn.ground_stations, fed.horizon_seconds,
                              step=fed.window_step_seconds, link_config=scn.link_config,
                              start=at)
    calls = []
    overlap = sgl_flow._overlap

    def counted(*args):
        calls.append(args)
        return overlap(*args)

    monkeypatch.setattr(sgl_flow, "_overlap", counted)
    model_bits = float(scn.constellation.sats_per_orbit
                       * scn.workload.embedding_bits_per_satellite)
    res = schedule_downlink(windows, model_bits, scn.ground_stations, fed.horizon_seconds,
                            epoch_seconds=fed.epoch_seconds, start_time=at,
                            orbits=range(scn.constellation.num_orbits))
    assert res.epochs_used > 10 and len(windows) > 500
    reach = sum(int(w.duration // fed.epoch_seconds) + 2 for w in windows)
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
