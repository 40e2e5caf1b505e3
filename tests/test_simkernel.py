import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoplan import (
    ComputeModel,
    ConstellationSpec,
    FederationConfig,
    GroundStation,
    LinkConfig,
    SimulationSetup,
    WorkloadSpec,
    build_walker,
    contact_windows,
    head_fraction,
    parse_scenario,
    payload_bits,
    schedule_downlink,
    simulate_fine_tuning,
    simulate_round,
)
from leoplan import constellation, sgl_flow, simkernel
from leoplan.constellation import LIGHT_SPEED_KM_S
from leoplan.simkernel import PHASES

from oracles import reference_simulate_fine_tuning, station_sets, walker_specs

REPO = Path(__file__).resolve().parents[1]


def small_workload(**kw):
    base = dict(samples_per_satellite=10, batch_size=10, embedding_dim=16,
                precision_bits=32, head_params=100, embedding_params=1000,
                encoder_params=1_000_000, local_epochs=1, flops_per_sample_head=1e6)
    base.update(kw)
    return WorkloadSpec(**base)


def zenith_setup(**link_kw):
    return SimulationSetup(stations=(GroundStation("gs", 0.0, 0.0),),
                           link_config=LinkConfig(**link_kw))


def test_payload_bits():
    assert payload_bits(512, 786432, 32) == 12_884_901_888
    assert payload_bits(512, 786432, 32) // 8 == 1_610_612_736
    assert payload_bits(1, 1, 16) == 16
    for bad in ((0, 1, 32), (1, -1, 32), (1, 1, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            payload_bits(*bad)


def test_head_fraction():
    got = head_fraction(62_000, 50_000, 86_000_000)
    assert abs(got - 112_000 / 86_000_000) < 1e-18
    assert 0.00125 <= got <= 0.00135
    with pytest.raises(ValueError, match="total_params must be positive"):
        head_fraction(1, 1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        head_fraction(-1, 1, 10)
    with pytest.raises(ValueError, match="exceed the total"):
        head_fraction(6, 5, 10)


def test_workload_properties_and_validation():
    w = small_workload(samples_per_satellite=64, embedding_dim=256)
    assert w.embedding_bits_per_satellite == 64 * 256 * 32
    assert w.head_bits == 100 * 32
    with pytest.raises(ValueError, match="precision_bits must be 16, 32, or 64"):
        small_workload(precision_bits=8).validate()
    with pytest.raises(ValueError, match="samples_per_satellite"):
        small_workload(samples_per_satellite=0).validate()
    with pytest.raises(ValueError, match="local_epochs"):
        small_workload(local_epochs=0).validate()


def test_config_validation():
    FederationConfig().validate()
    with pytest.raises(ValueError, match="rounds must be positive"):
        FederationConfig(rounds=0).validate()
    with pytest.raises(ValueError, match="aggregation_mode"):
        FederationConfig(aggregation_mode="mesh").validate()
    with pytest.raises(ValueError, match="window_step_seconds"):
        FederationConfig(window_step_seconds=0.0).validate()
    with pytest.raises(ValueError, match="satellite_flops_per_s must be positive and finite"):
        ComputeModel(satellite_flops_per_s=0.0).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["epoch_seconds", "horizon_seconds", "window_step_seconds"])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        FederationConfig(**{name: value}).validate()


def test_config_rejects_a_window_step_below_the_floor():
    """The sampling step floor of contact_windows holds at parse time: 1e-9 s
    and 1e-6 s less one ulp are rejected, 1e-6 s is taken."""
    for step in (1e-9, math.nextafter(1e-6, 0.0)):
        with pytest.raises(ValueError, match=r"^window_step_seconds must be at least 1e-6 s$"):
            FederationConfig(window_step_seconds=step).validate()
    FederationConfig(window_step_seconds=1e-6).validate()


def test_single_satellite_ground_round_closed_form():
    # One equatorial satellite starting at zenith of the only station: every
    # coordinated transfer finishes in exactly one 60 s epoch.
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    workload = small_workload()
    config = FederationConfig(horizon_seconds=7200.0)
    trace = simulate_round(config, walker, workload, zenith_setup())

    assert trace.complete
    ps = trace.phase_seconds
    embed = 2.0 * 1000 * 10 / 1e12
    encode = 2.0 * 1_000_000 * 10 * 1 / 100e12
    train = 1e6 * 10 * 1 / 1e12
    assert abs(ps["embedding_compute"] - embed) < 1e-18
    assert ps["intra_orbit_gather"] == 0.0  # single-satellite orbit has no ring
    assert ps["sgl_down"] == 60.0
    assert abs(ps["cloud_encode"] - encode) < 1e-18
    assert ps["sgl_up"] == 60.0
    assert abs(ps["local_train"] - train) < 1e-18
    assert ps["intra_orbit_aggregate"] == 0.0
    assert ps["inter_orbit_or_global_aggregate"] == 60.0
    assert ps["broadcast"] == 60.0  # ring spread is zero for S=1
    assert abs(trace.total_seconds - sum(ps.values())) < 1e-12

    emb_bits = workload.embedding_bits_per_satellite
    pb = trace.phase_bits
    assert abs(pb["sgl_down"] - emb_bits) < 1e-9
    assert abs(pb["sgl_up"] - emb_bits) < 1e-9
    assert abs(pb["inter_orbit_or_global_aggregate"] - workload.head_bits) < 1e-9
    assert abs(pb["broadcast"] - workload.head_bits) < 1e-9
    assert trace.ground_delivered_bits == pb["sgl_down"]

    pf = trace.phase_flops
    assert pf["embedding_compute"] == 2.0 * 1000 * 10
    assert pf["cloud_encode"] == 2.0 * 1_000_000 * 10
    assert pf["local_train"] == 1e6 * 10

    want_energy = 2e-9 * sum(pb.values()) + 1e-12 * sum(pf.values())
    assert abs(trace.energy_joules - want_energy) < 1e-12


def test_a_round_is_held_to_the_time_range():
    """A round may start where |start_time - epoch| + horizon_seconds is
    1e9 s (its topology frozen at the epoch, so no later phase samples past
    the bound), and not one ulp further; the check at a round's start is an
    early reject, and an unfrozen phase that samples past the range raises
    where it samples."""
    walker = build_walker(ConstellationSpec(2, 3, 550.0, 53.0, epoch=1e9))
    config = FederationConfig(horizon_seconds=600.0, freeze_topology=True)
    trace = simulate_round(config, walker, small_workload(), zenith_setup(),
                           start_time=2e9 - 600.0)
    assert trace.start_time == 2e9 - 600.0
    with pytest.raises(ValueError, match=r"start_time must keep \|start_time - epoch\| \+ "
                                         r"horizon within 1e9 s, got 1999999400\.0000002"):
        simulate_round(config, walker, small_workload(), zenith_setup(),
                       start_time=math.nextafter(2e9 - 600.0, math.inf))
    # Unfrozen, a round that passes the check at its start is still held to
    # the range where its downlink samples, once its embedding time is booked.
    walker = build_walker(ConstellationSpec(2, 3, 550.0, 53.0))
    with pytest.raises(ValueError, match=r"start must keep \|start - epoch\| \+ horizon "
                                         r"within 1e9 s"):
        simulate_round(FederationConfig(horizon_seconds=600.0), walker, small_workload(),
                       zenith_setup(), start_time=1e9 - 600.0)


def test_no_stations_truncates_round():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    config = FederationConfig(horizon_seconds=600.0)
    trace = simulate_round(config, walker, small_workload(), SimulationSetup())
    assert not trace.complete
    assert trace.phase_seconds["sgl_down"] == 600.0
    assert trace.phase_seconds["cloud_encode"] == 0.0
    assert trace.phase_seconds["local_train"] == 0.0
    assert trace.ground_delivered_bits == 0.0


def test_two_orbit_decentralized_closed_form():
    # P=2, S=2, inclination 0, F=0: four satellites on one equatorial circle,
    # every ISL spans the diameter 2r; o0s0 and o1s1 sit at zenith of the
    # station, so both orbits downlink in one epoch.
    spec = ConstellationSpec(2, 2, 550.0, 0.0, phasing_factor=0)
    walker = build_walker(spec)
    workload = small_workload(samples_per_satellite=64, embedding_dim=256,
                              head_params=1000, embedding_params=50_000,
                              encoder_params=80_000_000,
                              flops_per_sample_head=1e7, local_epochs=2)
    config = FederationConfig(aggregation_mode="decentralized",
                              freeze_topology=True, horizon_seconds=7200.0)
    setup = zenith_setup(max_isl_range_km=15000.0)
    trace = simulate_round(config, walker, workload, setup)

    assert trace.complete
    emb_bits = workload.embedding_bits_per_satellite  # 64*256*32 = 524288
    head = workload.head_bits  # 32000
    ps = trace.phase_seconds
    assert abs(ps["embedding_compute"] - 2.0 * 50_000 * 64 / 1e12) < 1e-18
    assert abs(ps["intra_orbit_gather"] - emb_bits / 10e9) < 1e-15
    assert ps["sgl_down"] == 60.0
    assert abs(ps["cloud_encode"] - 2.0 * 80e6 * 64 * 4 / 100e12) < 1e-15
    assert ps["sgl_up"] == 60.0
    assert abs(ps["local_train"] - 1e7 * 64 * 2 / 1e12) < 1e-15
    # all-reduce over a 2-ring: 2 steps of (head/2)/1e10
    assert abs(ps["intra_orbit_aggregate"] - head / 10e9) < 1e-15
    # forward sweep 0->1 and back sweep 1->0, each striped over 2 disjoint
    # inter-orbit paths of 2e9 bps
    assert abs(ps["inter_orbit_or_global_aggregate"] - 2 * head / 4e9) < 1e-15
    chord = 2.0 * walker.radius_km
    spread = head / 10e9 + chord / LIGHT_SPEED_KM_S
    assert abs(ps["broadcast"] - spread) < 1e-12

    pb = trace.phase_bits
    assert pb["intra_orbit_gather"] == 2 * 2 * emb_bits  # P rings, 2 blocks each
    assert abs(pb["sgl_down"] - 2 * (2 * emb_bits)) < 1e-9  # both orbit models
    assert pb["intra_orbit_aggregate"] == 2 * 2 * head
    assert pb["inter_orbit_or_global_aggregate"] == 2 * head
    assert pb["broadcast"] == 2 * head


def test_decentralized_unreachable_orbits_truncate():
    spec = ConstellationSpec(2, 2, 550.0, 0.0)
    walker = build_walker(spec)
    config = FederationConfig(aggregation_mode="decentralized",
                              freeze_topology=True, horizon_seconds=900.0)
    # ISL range too short for any inter-orbit link.
    setup = zenith_setup(max_isl_range_km=1.0)
    trace = simulate_round(config, walker, small_workload(), setup)
    assert not trace.complete
    assert trace.phase_seconds["inter_orbit_or_global_aggregate"] == 900.0
    assert trace.phase_seconds["broadcast"] == 0.0


def test_flow_epochs_scale_with_model_size():
    # 115200 embedding bits over a 1e3 bps SGL move 60000 bits per epoch:
    # 52% per epoch needs 2 epochs; doubling the embedding needs 4.
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    setup = zenith_setup(sgl_rate_bps=1e3)
    config = FederationConfig(horizon_seconds=7200.0)
    w1 = small_workload(samples_per_satellite=72, embedding_dim=50)
    t1 = simulate_round(config, walker, w1, setup)
    assert t1.phase_seconds["sgl_down"] == 120.0
    assert t1.phase_seconds["sgl_up"] == 120.0
    assert t1.complete
    w2 = small_workload(samples_per_satellite=72, embedding_dim=100)
    t2 = simulate_round(config, walker, w2, setup)
    assert t2.phase_seconds["sgl_down"] == 240.0


def test_freeze_topology_reuses_epoch_visibility():
    # A 400 s local training step pushes the unfrozen schedule past the pass,
    # so later transfers wait most of an orbit; freezing pins every transfer
    # to the epoch-time visibility instead.
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    workload = small_workload(flops_per_sample_head=4e13)  # 400 s of training
    frozen = simulate_round(FederationConfig(freeze_topology=True,
                                             horizon_seconds=7200.0),
                            walker, workload, zenith_setup())
    live = simulate_round(FederationConfig(horizon_seconds=7200.0),
                          walker, workload, zenith_setup())
    assert frozen.complete
    assert frozen.phase_seconds["inter_orbit_or_global_aggregate"] == 60.0
    assert frozen.phase_seconds["broadcast"] == 60.0
    assert live.complete
    assert live.phase_seconds["inter_orbit_or_global_aggregate"] > 1000.0


def test_simulate_fine_tuning_chains_rounds():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    config = FederationConfig(rounds=2, freeze_topology=True,
                              horizon_seconds=7200.0)
    traces, agg = simulate_fine_tuning(config, walker, small_workload(),
                                       zenith_setup())
    assert len(traces) == 2
    assert traces[0].start_time == 0.0
    assert traces[1].start_time == traces[0].total_seconds
    assert agg.rounds == 2
    assert agg.complete
    assert abs(agg.total_seconds - sum(t.total_seconds for t in traces)) < 1e-12
    for p in PHASES:
        want = sum(t.phase_seconds[p] for t in traces)
        assert abs(agg.phase_second_totals[p] - want) < 1e-12
    assert abs(sum(agg.phase_second_totals.values()) - agg.total_seconds) < 1e-9
    assert abs(agg.total_energy_joules - sum(t.energy_joules for t in traces)) < 1e-12
    # identical rounds under frozen topology
    assert traces[0].phase_seconds == traces[1].phase_seconds


def test_simulate_round_deterministic():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    a = simulate_round(FederationConfig(), walker, small_workload(), zenith_setup())
    b = simulate_round(FederationConfig(), walker, small_workload(), zenith_setup())
    assert a.phase_seconds == b.phase_seconds
    assert a.energy_joules == b.energy_joules


def epoch_rows(result):
    return [(e.epoch_index, e.assignment.flows, e.assignment.value, e.delivered)
            for e in result.epochs]


@settings(max_examples=50, deadline=None)
@given(spec=walker_specs(), stations=station_sets(), start=st.floats(-1e4, 1e5),
       step=st.floats(0.5, 200.0), epoch_seconds=st.floats(20.0, 120.0),
       epochs=st.integers(1, 8), sgl_rate=st.floats(1e2, 1e5),
       model_bits=st.floats(1e3, 1e6))
def test_bounded_sampling_schedules_the_full_horizon_prefix(
        spec, stations, start, step, epoch_seconds, epochs, sgl_rate, model_bits):
    """Windows sampled one step past E epochs schedule those E epochs exactly as
    windows sampled over a longer horizon do."""
    walker = build_walker(spec)
    cfg = LinkConfig(sgl_rate_bps=sgl_rate)
    span = epochs * epoch_seconds
    full_horizon = span + 3 * epoch_seconds + 2 * step
    orbits = range(spec.num_orbits)

    def schedule(sampled, horizon):
        windows = contact_windows(walker, stations, sampled, step=step, link_config=cfg,
                                  start=start)
        return schedule_downlink(windows, model_bits, stations, horizon,
                                 epoch_seconds=epoch_seconds, start_time=start,
                                 orbits=orbits)

    bounded = schedule(span + step, span)
    full = schedule(full_horizon, full_horizon)
    assert epoch_rows(bounded) == epoch_rows(full)[:int(span // epoch_seconds)]


@settings(max_examples=50, deadline=None)
@given(spec=walker_specs(), stations=station_sets(), start=st.floats(-1e4, 1e5),
       step=st.floats(0.5, 200.0), epoch_seconds=st.floats(20.0, 120.0),
       doublings=st.integers(0, 5), sgl_rate=st.floats(1e2, 1e5),
       model_bits=st.floats(1e3, 1e6))
def test_resumed_schedule_matches_one_schedule(spec, stations, start, step, epoch_seconds,
                                               doublings, sgl_rate, model_bits):
    """Doubling a span on one station geometry, sieving each grid from the
    sample before the last at or before the first unscheduled epoch and
    resuming each schedule from the last gives, at every span, the epochs of
    one from-scratch sampling and schedule of that span, by .hex()."""
    walker = build_walker(spec)
    cfg = LinkConfig(sgl_rate_bps=sgl_rate)
    orbits = range(spec.num_orbits)

    def schedule(span, geometry=None, resume=None):
        done = 0 if resume is None else len(resume.epochs)
        first = max(0, int(done * epoch_seconds // step) - 1)
        windows = contact_windows(walker, stations, span + step, step=step, link_config=cfg,
                                  start=start, _geometry=geometry, _first=first)
        return schedule_downlink(windows, model_bits, stations, span,
                                 epoch_seconds=epoch_seconds, start_time=start, orbits=orbits,
                                 _resume=resume)

    geometry = constellation._StationGeometry(walker, stations)
    resumed = None
    for k in range(doublings + 1):
        span = epoch_seconds * 2 ** k
        resumed = schedule(span, geometry, resumed)
        want = schedule(span)
        assert hexed(epoch_rows(resumed)) == hexed(epoch_rows(want))
        assert hexed(resumed.state.remaining) == hexed(want.state.remaining)
        assert resumed.complete == want.complete


def full_horizon_round(mp, config, *args, **kwargs):
    """simulate_round with every ground phase sampled and scheduled over the
    whole horizon from scratch, as one contact_windows and one
    schedule_downlink call per phase would: the campaign's station geometry,
    the first sample a resumed phase sieves from and the schedule it resumes
    are dropped."""
    real_windows, real_schedule = simkernel.contact_windows, simkernel.schedule_downlink
    mp.setattr(simkernel, "contact_windows",
               lambda walker, stations, horizon, _geometry=None, _first=0, **kw:
               real_windows(walker, stations, config.horizon_seconds, **kw))
    mp.setattr(simkernel, "schedule_downlink",
               lambda windows, bits, stations, horizon, _resume=None, **kw:
               real_schedule(windows, bits, stations, config.horizon_seconds, **kw))
    return simulate_round(config, *args, **kwargs)


@settings(max_examples=30, deadline=None)
@given(spec=walker_specs(max_orbits=3, max_sats=4), stations=station_sets(),
       freeze=st.booleans(), step=st.floats(1.0, 100.0),
       epoch_seconds=st.floats(30.0, 120.0), horizon=st.floats(100.0, 4000.0),
       sgl_rate=st.floats(1e2, 1e5), samples=st.integers(1, 50),
       start=st.floats(0.0, 1e4))
def test_round_matches_full_horizon_sampling(spec, stations, freeze, step, epoch_seconds,
                                             horizon, sgl_rate, samples, start):
    walker = build_walker(spec)
    config = FederationConfig(epoch_seconds=epoch_seconds, horizon_seconds=horizon,
                              window_step_seconds=step, freeze_topology=freeze)
    setup = SimulationSetup(stations=stations, link_config=LinkConfig(sgl_rate_bps=sgl_rate))
    args = (walker, small_workload(samples_per_satellite=samples), setup)
    got = simulate_round(config, *args, start_time=start)
    with pytest.MonkeyPatch.context() as mp:
        want = full_horizon_round(mp, config, *args, start_time=start)
    assert got == want


def test_unreachable_station_ends_on_the_full_horizon(monkeypatch):
    # An equatorial shell never rises 10 degrees above a station at 80 N, so
    # each phase doubles its span until the last call covers the horizon.
    walker = build_walker(ConstellationSpec(1, 2, 550.0, 0.0))
    config = FederationConfig(epoch_seconds=60.0, horizon_seconds=1000.0,
                              window_step_seconds=5.0)
    setup = SimulationSetup(stations=(GroundStation("gs", 80.0, 0.0),))
    sampled = []
    real = simkernel.contact_windows

    def recording(walker_, stations, horizon, **kw):
        sampled.append(horizon)
        return real(walker_, stations, horizon, **kw)

    monkeypatch.setattr(simkernel, "contact_windows", recording)
    got = simulate_round(config, walker, small_workload(), setup)
    assert sampled == [65.0, 125.0, 245.0, 485.0, 965.0, 1000.0]
    assert not got.complete
    assert got.phase_seconds["sgl_down"] == 1000.0
    assert got.phase_bits["sgl_down"] == 0.0
    with pytest.MonkeyPatch.context() as mp:
        assert got == full_horizon_round(mp, config, walker, small_workload(), setup)


def test_demo_samples_a_tenth_of_the_full_horizon(monkeypatch):
    """Guard: the demo's 40 ground-link phases must not go back to sampling
    the whole horizon each."""
    scn = parse_scenario(REPO / "scenarios" / "demo_walker6.json")
    setup = SimulationSetup(stations=scn.ground_stations, link_config=scn.link_config,
                            compute=scn.compute, energy=scn.energy)
    sampled = []
    real = simkernel.contact_windows

    def recording(walker, stations, horizon, **kw):
        sampled.append(horizon)
        return real(walker, stations, horizon, **kw)

    monkeypatch.setattr(simkernel, "contact_windows", recording)
    _, agg = simulate_fine_tuning(scn.federation, build_walker(scn.constellation),
                                  scn.workload, setup)
    assert agg.complete
    assert len(sampled) >= 40
    assert sum(sampled) < 40 * scn.federation.horizon_seconds / 10


def test_demo_phases_sieve_from_the_first_unscheduled_epoch_and_schedule_each_epoch_once(
        monkeypatch):
    """Guard: the demo campaign passes one station geometry to every
    ground-link phase; each call sieves its grid once, a phase's first call
    the whole grid and each resumed call grid[first:] with grid[first] at or
    before its first unscheduled epoch; the campaign sieves a pinned sample
    count, below that of its whole grids; within a phase no epoch reaches
    max_flow twice; the campaign runs max_flow once per non-empty epoch of
    the phases' final schedules."""
    scn = parse_scenario(REPO / "scenarios" / "demo_walker6.json")
    setup = SimulationSetup(stations=scn.ground_stations, link_config=scn.link_config,
                            compute=scn.compute, energy=scn.energy)
    phases = []  # per phase: its schedules
    sieved = []  # sample times sieved by the current contact_windows call
    grids = []  # per contact_windows call: its whole grid and its first sample index
    geometries = set()
    flows = [0]
    real_sieve, real_flow = constellation._visible_samples, sgl_flow.max_flow
    real_windows, real_schedule = simkernel.contact_windows, simkernel.schedule_downlink

    def sieve(walker, geometry, times):
        sieved.append(times)
        return real_sieve(walker, geometry, times)

    def windows(*args, _geometry, _first, **kw):
        geometries.add(_geometry)
        sieved.clear()
        result = real_windows(*args, _geometry=_geometry, _first=_first, **kw)
        grid = kw["start"] + np.arange(0.0, args[2], kw["step"])
        assert len(sieved) == 1
        assert np.array_equal(sieved[0], grid[_first:])
        grids.append((grid, _first))
        return result

    def max_flow(vertices, edges, capacities):
        flows[0] += 1
        return real_flow(vertices, edges, capacities)

    def schedule(*args, _resume, **kw):
        grid, first = grids[-1]
        if _resume is None:
            assert first == 0
        else:
            assert grid[first] <= kw["start_time"] + len(_resume.epochs) * kw["epoch_seconds"]
        before = flows[0]
        result = real_schedule(*args, _resume=_resume, **kw)
        done = [] if _resume is None else _resume.epochs
        new = result.epochs[len(done):]
        assert all(a is b for a, b in zip(result.epochs, done))  # kept, not redone
        assert [e.epoch_index for e in new] == list(range(len(done), len(result.epochs)))
        assert flows[0] - before == sum(1 for e in new if e.assignment.flows)
        if _resume is None:
            phases.append([])
        phases[-1].append(result)
        return result

    monkeypatch.setattr(constellation, "_visible_samples", sieve)
    monkeypatch.setattr(sgl_flow, "max_flow", max_flow)
    monkeypatch.setattr(simkernel, "contact_windows", windows)
    monkeypatch.setattr(simkernel, "schedule_downlink", schedule)
    _, agg = simulate_fine_tuning(scn.federation, build_walker(scn.constellation),
                                  scn.workload, setup)
    assert agg.complete
    assert len(geometries) == 1
    assert len(phases) == 4 * scn.federation.rounds
    assert sum(len(p) > 1 for p in phases) > 0  # some phase extends its span
    assert sum(len(grid) - first for grid, first in grids) == 884
    assert sum(len(grid) for grid, _ in grids) == 1188
    assert flows[0] == sum(1 for p in phases for e in p[-1].epochs if e.assignment.flows)


def test_frozen_demo_campaign_sieves_the_epoch_grid_on_each_call(monkeypatch):
    """Guard: every ground-link call of a frozen-topology campaign samples the
    epoch's grid, and sieves all of it: the demo campaign's calls each sieve
    its 13 samples."""
    scn = parse_scenario(REPO / "scenarios" / "demo_walker6.json")
    setup = SimulationSetup(stations=scn.ground_stations, link_config=scn.link_config,
                            compute=scn.compute, energy=scn.energy)
    config = dataclasses.replace(scn.federation, freeze_topology=True)
    sieved, calls = [], []
    real_sieve, real_windows = constellation._visible_samples, simkernel.contact_windows

    def sieve(walker, geometry, times):
        sieved.append(times)
        return real_sieve(walker, geometry, times)

    def windows(*args, **kw):
        calls.append(args[2])
        return real_windows(*args, **kw)

    monkeypatch.setattr(constellation, "_visible_samples", sieve)
    monkeypatch.setattr(simkernel, "contact_windows", windows)
    _, agg = simulate_fine_tuning(config, build_walker(scn.constellation), scn.workload, setup)
    assert agg.complete
    assert len(calls) >= 4 * config.rounds
    assert len(sieved) == len(calls)
    grid = scn.constellation.epoch + np.arange(0.0, 65.0, 5.0)
    assert all(np.array_equal(times, grid) for times in sieved)


def demo_campaign(stations=None):
    scn = parse_scenario(REPO / "scenarios" / "demo_walker6.json")
    setup = SimulationSetup(stations=scn.ground_stations if stations is None else stations,
                            link_config=scn.link_config, compute=scn.compute, energy=scn.energy)
    return simulate_fine_tuning(scn.federation, build_walker(scn.constellation),
                                scn.workload, setup)


def test_demo_campaign_turns_each_station_into_ecef_once(monkeypatch):
    """Guard: a campaign builds its station geometry once for all its
    ground-link phases, instead of once per contact_windows call (about 300
    ecef_km calls per demo campaign)."""
    calls = []
    real = GroundStation.ecef_km

    def ecef_km(station):
        calls.append(station.id)
        return real(station)

    monkeypatch.setattr(GroundStation, "ecef_km", ecef_km)
    _, agg = demo_campaign()
    assert agg.complete
    stations = parse_scenario(REPO / "scenarios" / "demo_walker6.json").ground_stations
    assert calls == [st.id for st in stations]


def test_a_campaign_rejects_a_station_listed_twice():
    stations = parse_scenario(REPO / "scenarios" / "demo_walker6.json").ground_stations
    with pytest.raises(ValueError, match=f"station id {stations[0].id!r} listed twice"):
        demo_campaign(stations + stations[:1])


def hexed(value):
    """value with every float replaced by its .hex(), recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


@settings(max_examples=120, deadline=None)
@given(spec=walker_specs(), stations=station_sets(),
       mode=st.sampled_from(["ground", "decentralized"]), freeze=st.booleans(),
       rounds=st.integers(1, 4), epoch_seconds=st.floats(20.0, 120.0),
       horizon=st.floats(50.0, 20000.0), step=st.floats(5.0, 60.0),
       sgl_rate=st.floats(1e3, 1e7), isl_range=st.sampled_from([1.0, 5500.0, 15000.0]),
       head_params=st.sampled_from([0, 1, 7, 100]), samples=st.integers(1, 50),
       agg_rounds=st.integers(1, 3))
def test_campaign_matches_the_per_round_reference(spec, stations, mode, freeze, rounds,
                                                  epoch_seconds, horizon, step, sgl_rate,
                                                  isl_range, head_params, samples, agg_rounds):
    """simulate_fine_tuning equals the reference rounds chained one by one,
    every float bit for bit; short horizons truncate rounds."""
    walker = build_walker(spec)
    config = FederationConfig(rounds=rounds, intra_orbit_agg_rounds=agg_rounds,
                              aggregation_mode=mode, epoch_seconds=epoch_seconds,
                              horizon_seconds=horizon, window_step_seconds=step,
                              freeze_topology=freeze)
    workload = small_workload(samples_per_satellite=samples, precision_bits=16,
                              head_params=head_params)
    setup = SimulationSetup(stations=stations,
                            link_config=LinkConfig(sgl_rate_bps=sgl_rate,
                                                   max_isl_range_km=isl_range))

    def outcome(run):
        traces, agg = run(config, walker, workload, setup)
        return hexed([dataclasses.asdict(t) for t in traces] + [dataclasses.asdict(agg)])

    assert outcome(simulate_fine_tuning) == outcome(reference_simulate_fine_tuning)


def test_campaign_plans_each_ring_collective_once(monkeypatch):
    calls = {"gather": 0, "reduce": 0}
    real_gather, real_reduce = simkernel.plan_all_gather, simkernel.plan_all_reduce

    def gather(*args, **kwargs):
        calls["gather"] += 1
        return real_gather(*args, **kwargs)

    def reduce(*args, **kwargs):
        calls["reduce"] += 1
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(simkernel, "plan_all_gather", gather)
    monkeypatch.setattr(simkernel, "plan_all_reduce", reduce)
    walker = build_walker(ConstellationSpec(2, 3, 550.0, 0.0))
    config = FederationConfig(rounds=5, freeze_topology=True, horizon_seconds=7200.0)
    traces, agg = simulate_fine_tuning(config, walker, small_workload(), zenith_setup())
    assert len(traces) == 5 and agg.complete  # every round reached both ring phases
    assert calls == {"gather": 1, "reduce": 1}


def test_campaign_rejects_a_head_smaller_than_the_ring_before_the_first_round():
    # Without stations every round truncates at sgl_down, before the head is
    # aggregated; the all-reduce is still planned, and rejected, up front.
    walker = build_walker(ConstellationSpec(1, 22, 550.0, 53.0))
    workload = small_workload(head_params=1, precision_bits=16)  # 16 bits < 22 nodes
    with pytest.raises(ValueError, match="payload_bits must be at least node_count"):
        simulate_fine_tuning(FederationConfig(), walker, workload, SimulationSetup())
