import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leoplan import (
    EARTH_RADIUS_KM,
    LIGHT_SPEED_KM_S,
    ConstellationSpec,
    GroundStation,
    LinkConfig,
    LinkKind,
    SatelliteId,
    WalkerConstellation,
    build_walker,
    contact_windows,
    snapshot,
)

from oracles import (
    elevation_deg,
    reference_snapshot,
    reference_visibility,
    run_length_windows,
    shell_plan_case,
    station_position,
    station_sets,
    visibility_flags,
    walker_specs,
)

EARTH_ROTATION_RAD_S = 7.2921159e-5


def test_satellite_id_labels():
    s = SatelliteId(3, 12)
    assert s.label == "o3s12"
    assert SatelliteId.parse("o3s12") == s
    for bad in ("o3", "s12", "o3s", "3s12", "o-1s2"):
        with pytest.raises(ValueError):
            SatelliteId.parse(bad)


def test_spec_validation():
    good = ConstellationSpec(6, 11, 550.0, 53.0, phasing_factor=1)
    good.validate()
    with pytest.raises(ValueError):
        ConstellationSpec(0, 11, 550.0, 53.0).validate()
    with pytest.raises(ValueError):
        ConstellationSpec(6, 0, 550.0, 53.0).validate()
    with pytest.raises(ValueError):
        ConstellationSpec(6, 11, -5.0, 53.0).validate()
    with pytest.raises(ValueError):
        ConstellationSpec(6, 11, 550.0, 200.0).validate()
    with pytest.raises(ValueError):
        ConstellationSpec(6, 11, 550.0, 53.0, phasing_factor=6).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_non_finite_altitude(value):
    with pytest.raises(ValueError, match="altitude_km must be positive and finite"):
        ConstellationSpec(6, 11, value, 53.0).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["intra_orbit_rate_bps", "inter_orbit_rate_bps",
                                  "sgl_rate_bps", "ground_dedicated_rate_bps",
                                  "max_isl_range_km"])
def test_link_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        LinkConfig(**{name: value}).validate()


def test_link_config_validation():
    LinkConfig().validate()
    with pytest.raises(ValueError):
        LinkConfig(sgl_rate_bps=0.0).validate()
    with pytest.raises(ValueError):
        LinkConfig(max_isl_range_km=-1.0).validate()
    with pytest.raises(ValueError):
        LinkConfig(cross_seam_policy="wrap").validate()


def test_period_at_550km():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 53.0))
    assert abs(walker.period - 5730.127089334606) < 1e-6
    assert 5600.0 < walker.period < 5800.0
    assert walker.radius_km == EARTH_RADIUS_KM + 550.0


def test_positions_on_shell_and_in_plane():
    spec = ConstellationSpec(3, 5, 780.0, 37.0, phasing_factor=2)
    walker = build_walker(spec)
    incl = math.radians(37.0)
    for t in (0.0, 137.5, 4000.0):
        pos = walker.positions_at(t)
        assert np.allclose(np.linalg.norm(pos, axis=1), walker.radius_km, rtol=1e-12)
        for i, s in enumerate(walker.satellites):
            raan = 2.0 * math.pi * s.orbit_index / spec.num_orbits
            normal = np.array([math.sin(incl) * math.sin(raan),
                               -math.sin(incl) * math.cos(raan),
                               math.cos(incl)])
            assert abs(float(np.dot(pos[i], normal))) < 1e-6


def test_walker_phase_offsets():
    # P=2, S=4, F=1: o1s0 sits at in-plane angle pi/4 in the plane with RAAN pi.
    spec = ConstellationSpec(2, 4, 550.0, 53.0, phasing_factor=1)
    walker = build_walker(spec)
    r = walker.radius_km
    u = 2.0 * math.pi * 1 / (2 * 4)
    incl = math.radians(53.0)
    xo = r * math.cos(u)
    yo = r * math.sin(u) * math.cos(incl)
    zo = r * math.sin(u) * math.sin(incl)
    raan = math.pi
    expected = np.array([xo * math.cos(raan) - yo * math.sin(raan),
                         xo * math.sin(raan) + yo * math.cos(raan),
                         zo])
    got = walker.positions_at(0.0)[walker.satellites.index(SatelliteId.parse("o1s0"))]
    assert np.allclose(got, expected, atol=1e-9)


def test_positions_periodic():
    walker = build_walker(ConstellationSpec(4, 7, 1200.0, 86.0, phasing_factor=3))
    a = walker.positions_at(321.0)
    b = walker.positions_at(321.0 + walker.period)
    assert np.allclose(a, b, atol=1e-6)


def test_single_satellite_has_no_isls():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    for t in (0.0, 900.0):
        snap = snapshot(walker, t, LinkConfig())
        assert snap.links == ()
        assert len(snap.positions) == 1


def test_intra_orbit_ring_shapes():
    cfg = LinkConfig(max_isl_range_km=1.0)  # kill every inter-orbit pairing
    two = snapshot(build_walker(ConstellationSpec(2, 2, 550.0, 53.0)), 0.0, cfg)
    intra = two.links_of_kind(LinkKind.INTRA_ORBIT_ISL)
    assert len(intra) == 2  # one link per 2-satellite orbit, not a double edge

    four = snapshot(build_walker(ConstellationSpec(1, 4, 550.0, 53.0)), 0.0, cfg)
    pairs = {tuple(s.slot_index for s in l.endpoints)
             for l in four.links_of_kind(LinkKind.INTRA_ORBIT_ISL)}
    assert pairs == {(0, 1), (1, 2), (2, 3), (3, 0)}
    for l in four.links:
        assert l.rate_bps == 10e9
        assert l.available


def test_inter_orbit_same_slot_pairing():
    cfg = LinkConfig(max_isl_range_km=1e9)
    snap = snapshot(build_walker(ConstellationSpec(2, 5, 550.0, 53.0)), 0.0, cfg)
    inter = snap.links_of_kind(LinkKind.INTER_ORBIT_ISL)
    assert len(inter) == 5
    for l in inter:
        a, b = l.endpoints
        assert (a.orbit_index, b.orbit_index) == (0, 1)
        assert a.slot_index == b.slot_index
        assert l.rate_bps == 2e9


def test_inter_orbit_range_filter():
    # P=2, S=1: the two satellites sit diametrically opposite, 2r apart.
    walker = build_walker(ConstellationSpec(2, 1, 550.0, 0.0))
    dist = 2.0 * walker.radius_km
    near = snapshot(walker, 0.0, LinkConfig(max_isl_range_km=dist - 1.0))
    assert near.links_of_kind(LinkKind.INTER_ORBIT_ISL) == []
    far = snapshot(walker, 0.0, LinkConfig(max_isl_range_km=dist + 1.0))
    inter = far.links_of_kind(LinkKind.INTER_ORBIT_ISL)
    assert len(inter) == 1
    assert abs(inter[0].propagation_delay_s - dist / LIGHT_SPEED_KM_S) < 1e-12


def test_cross_seam_policy():
    cfg_off = LinkConfig(max_isl_range_km=1e9)
    walker = build_walker(ConstellationSpec(3, 4, 550.0, 53.0))
    off = snapshot(walker, 0.0, cfg_off)
    assert off.links_of_kind(LinkKind.CROSS_SEAM_ISL) == []
    assert len(off.links_of_kind(LinkKind.INTER_ORBIT_ISL)) == 8

    on = snapshot(walker, 0.0, LinkConfig(max_isl_range_km=1e9,
                                          cross_seam_policy="enabled"))
    seam = on.links_of_kind(LinkKind.CROSS_SEAM_ISL)
    assert len(seam) == 4
    for l in seam:
        a, b = l.endpoints
        assert (a.orbit_index, b.orbit_index) == (2, 0)

    # A 2-plane shell has no seam distinct from its only plane pair.
    two = snapshot(build_walker(ConstellationSpec(2, 4, 550.0, 53.0)), 0.0,
                   LinkConfig(max_isl_range_km=1e9, cross_seam_policy="enabled"))
    assert two.links_of_kind(LinkKind.CROSS_SEAM_ISL) == []


def test_demo_shell_link_counts():
    walker = build_walker(ConstellationSpec(6, 11, 550.0, 53.0, phasing_factor=1))
    snap = snapshot(walker, 0.0, LinkConfig())
    assert len(snap.links_of_kind(LinkKind.INTRA_ORBIT_ISL)) == 66
    # 18 of the 55 same-slot adjacent-plane pairs are within 5500 km at t=0
    # (independent check: next-nearest pair distance is 5595.6 km).
    assert len(snap.links_of_kind(LinkKind.INTER_ORBIT_ISL)) == 18


def test_snapshot_deterministic():
    walker = build_walker(ConstellationSpec(3, 4, 550.0, 53.0, phasing_factor=1))
    st = GroundStation("gs", 10.0, 20.0)
    a = snapshot(walker, 500.0, LinkConfig(), stations=(st,))
    b = snapshot(walker, 500.0, LinkConfig(), stations=(st,))
    assert a.links == b.links
    for sid in a.positions:
        assert np.array_equal(a.positions[sid], b.positions[sid])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_snapshot_rejects_non_finite_time(t):
    walker = build_walker(ConstellationSpec(3, 4, 550.0, 53.0, phasing_factor=1))
    with pytest.raises(ValueError, match="t must be finite"):
        snapshot(walker, t, LinkConfig(), stations=(GroundStation("gs", 10.0, 20.0),))


def test_ground_station_validation():
    GroundStation("ok", 47.0, -122.3).validate()
    with pytest.raises(ValueError):
        GroundStation("bad", 95.0, 0.0).validate()
    with pytest.raises(ValueError):
        GroundStation("bad", 0.0, 300.0).validate()
    with pytest.raises(ValueError):
        GroundStation("bad", 0.0, 0.0, dedicated_rate_bps=0.0).validate()
    # A 90 degree mask would make every pass empty; the upper bound is open.
    with pytest.raises(ValueError):
        GroundStation("bad", 0.0, 0.0, min_elevation_deg=90.0).validate()
    GroundStation("ok", 0.0, 0.0, min_elevation_deg=0.0).validate()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_ground_station_rejects_non_finite_rate(value):
    with pytest.raises(ValueError, match="dedicated_rate_bps must be positive and finite"):
        GroundStation("bad", 0.0, 0.0, dedicated_rate_bps=value).validate()


def test_elevation_against_triangle_formula():
    rng = np.random.default_rng(5)
    r = EARTH_RADIUS_KM + 550.0
    for _ in range(50):
        v = rng.normal(size=3)
        zenith = v / np.linalg.norm(v)
        t = rng.normal(size=3)
        t -= np.dot(t, zenith) * zenith
        t /= np.linalg.norm(t)
        psi = float(rng.uniform(0.01, 1.0))
        sat_pos = r * (math.cos(psi) * zenith + math.sin(psi) * t)
        got = elevation_deg(sat_pos, EARTH_RADIUS_KM * zenith)
        want = math.degrees(math.atan2(math.cos(psi) - EARTH_RADIUS_KM / r,
                                       math.sin(psi)))
        assert abs(got - want) < 1e-9


def test_zenith_pass_window():
    # Equatorial single satellite starting directly above an equatorial station.
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    st = GroundStation("gs", 0.0, 0.0)
    sat_pos = walker.positions_at(0.0)[0]
    assert abs(elevation_deg(sat_pos, st.ecef_km()) - 90.0) < 1e-9

    windows = contact_windows(walker, (st,), horizon=600.0, step=1.0)
    assert len(windows) == 1
    w = windows[0]
    assert w.ground_station == "gs"
    assert w.start == 0.0
    assert 240.0 <= w.end <= 280.0  # 10 deg mask at 550 km: ~15 deg half-angle
    assert w.rate_bps == 1e9
    assert w.duration == w.end - w.start


def test_far_side_station_sees_nothing():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    st = GroundStation("gs", 0.0, 180.0)
    assert contact_windows(walker, (st,), horizon=600.0, step=1.0) == []


def test_windows_disjoint_and_positive():
    walker = build_walker(ConstellationSpec(2, 4, 550.0, 53.0, phasing_factor=1))
    stations = (GroundStation("gs-a", 40.0, -3.7), GroundStation("gs-b", -33.9, 18.4))
    horizon, step = 7200.0, 5.0
    windows = contact_windows(walker, stations, horizon=horizon, step=step)
    assert windows
    grouped = {}
    for w in windows:
        assert w.duration > 0
        assert 0.0 <= w.start < horizon
        assert w.end <= horizon + step
        grouped.setdefault((w.satellite, w.ground_station), []).append(w)
    for ws in grouped.values():
        ws.sort(key=lambda w: w.start)
        for a, b in zip(ws, ws[1:]):
            assert a.end < b.start


def test_windows_respect_start_offset():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    st = GroundStation("gs", 0.0, 0.0)
    base = contact_windows(walker, (st,), horizon=600.0, step=1.0)
    shifted = contact_windows(walker, (st,), horizon=600.0, step=1.0, start=100.0)
    assert shifted[0].start == 100.0
    assert abs(shifted[0].end - base[0].end) < 1.5


def test_contact_windows_bad_arguments():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    st = GroundStation("gs", 0.0, 0.0)
    with pytest.raises(ValueError):
        contact_windows(walker, (st,), horizon=0.0)
    with pytest.raises(ValueError):
        contact_windows(walker, (st,), horizon=100.0, step=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["horizon", "step", "start"])
def test_contact_windows_rejects_non_finite(name, value):
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    args = {"horizon": 100.0, "step": 1.0, "start": 0.0, name: value}
    message = "start must be finite" if name == "start" else f"{name} must be positive and finite"
    with pytest.raises(ValueError, match=message):
        contact_windows(walker, (GroundStation("gs", 0.0, 0.0),), **args)


def window_key(windows):
    return [(w.ground_station, w.satellite, w.start.hex(), w.end.hex(), w.rate_bps)
            for w in windows]


# Draws shared by the two sieve properties below: any altitude from a grazing
# 1 m shell to beyond geostationary, pole stations, the horizon and
# near-zenith masks, and steps long enough that the block slack of
# _visible_samples passes pi, so that every block is kept.
altitudes = st.one_of(st.none(), st.floats(1e-3, 40000.0), st.sampled_from([1e-3, 35786.0]))
latitudes = st.one_of(st.sampled_from([0.0, -90.0, 90.0]), st.floats(-90.0, 90.0))
masks = st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True), st.just(89.9))
steps_s = st.one_of(st.floats(0.5, 200.0), st.floats(200.0, 3000.0))
# Sample counts: up to 33 blocks of _SIEVE_BLOCK = 12, often with a partial last block.
sample_counts = st.one_of(st.integers(1, 400), st.sampled_from([11, 12, 13, 25, 36, 37, 121]))


@settings(max_examples=100, deadline=None)
@given(spec=walker_specs(), stations=station_sets(), altitude=altitudes,
       lat=latitudes, mask=masks, start=st.floats(-1e4, 1e5), step=steps_s,
       steps=sample_counts)
@example(spec=ConstellationSpec(3, 4, 35786.0, 0.0), stations=(), altitude=None, lat=90.0,
         mask=89.9, start=0.0, step=3000.0, steps=37)
@example(spec=ConstellationSpec(2, 5, 550.0, 53.0), stations=(), altitude=1e-3, lat=-90.0,
         mask=0.0, start=-250.0, step=2000.0, steps=25)
# The edges of the inside certificate of _visible_samples: no inside at GEO
# under an 89.9 deg mask, a block slack past the inside cone, a 1 m shell, the
# one-sample grid of snapshot, and passes through the zenith of a pole.
@example(spec=ConstellationSpec(4, 3, 35786.0, 0.0), stations=(), altitude=None, lat=0.0,
         mask=89.9, start=0.0, step=60.0, steps=121)
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), stations=(), altitude=None, lat=40.0,
         mask=10.0, start=0.0, step=100.0, steps=121)
@example(spec=ConstellationSpec(4, 6, 550.0, 0.0), stations=(), altitude=1e-3, lat=0.0,
         mask=0.0, start=0.0, step=5.0, steps=400)
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), stations=(), altitude=None, lat=0.0,
         mask=10.0, start=0.0, step=5.0, steps=1)
@example(spec=ConstellationSpec(4, 6, 550.0, 90.0), stations=(), altitude=None, lat=90.0,
         mask=10.0, start=0.0, step=5.0, steps=400)
def test_edge_detection_matches_run_length_oracle(spec, stations, altitude, lat, mask, start,
                                                  step, steps):
    """Same windows as a sample-by-sample walk over the dense reference
    visibility: same order, same float bits.

    Steps run past a 60 s epoch, and the horizon can end mid-step or inside a
    pass, so runs touching either end of the grid are covered.
    """
    if altitude is not None:
        spec = dataclasses.replace(spec, altitude_km=altitude)
    walker = build_walker(spec)
    stations = stations + (GroundStation("gs-x", lat, 10.0, min_elevation_deg=mask),)
    horizon = steps * step * 0.999
    cfg = LinkConfig(sgl_rate_bps=3e6)
    got = contact_windows(walker, stations, horizon, step=step, link_config=cfg,
                          start=start)
    want = run_length_windows(walker, stations, horizon, step, 3e6, start=start)
    assert window_key(got) == window_key(want)
    assert all(type(w.start) is float and type(w.end) is float for w in got)


@settings(max_examples=100, deadline=None)
@given(spec=walker_specs(),
       altitude=altitudes, lat=latitudes, lon=st.one_of(st.just(0.0), st.floats(-180.0, 180.0)),
       mask=masks, start=st.floats(-1e4, 1e5), step=steps_s, steps=sample_counts)
# The edges of the inside certificate, as for the run-length property above.
@example(spec=ConstellationSpec(4, 3, 35786.0, 0.0), altitude=None, lat=0.0, lon=0.0,
         mask=89.9, start=0.0, step=60.0, steps=121)
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), altitude=None, lat=40.0, lon=10.0,
         mask=10.0, start=0.0, step=100.0, steps=121)
@example(spec=ConstellationSpec(4, 6, 550.0, 0.0), altitude=1e-3, lat=0.0, lon=10.0,
         mask=0.0, start=0.0, step=5.0, steps=400)
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), altitude=None, lat=0.0, lon=0.0,
         mask=10.0, start=0.0, step=5.0, steps=1)
@example(spec=ConstellationSpec(4, 6, 550.0, 90.0), altitude=None, lat=90.0, lon=0.0,
         mask=10.0, start=0.0, step=5.0, steps=400)
def test_visibility_matches_full_evaluation(spec, altitude, lat, lon, mask, start, step, steps):
    """Running the elevation formula only on the sieved blocks changes no
    flag, at any altitude, with the horizon and near-zenith masks and at the
    poles."""
    if altitude is not None:
        spec = dataclasses.replace(spec, altitude_km=altitude)
    walker = build_walker(spec)
    station = GroundStation("gs", lat, lon, min_elevation_deg=mask)
    station.validate()
    times = start + np.arange(0.0, steps * step, step)
    got = visibility_flags(walker, station, times)
    want = reference_visibility(walker, station, times, walker.positions_at_times(times))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_shell_plan_windows_match_dense_oracle_in_bounded_memory():
    """On the benchmark's shell_plan grid (1,080 samples x 528 satellites x 8
    stations) the windows equal the dense oracle's, and one call peaks below
    16 MB, well under the 27.4 MB of two (T, n, 3) position grids: the sieve
    never builds one, and blocks inside a station's cone get no exact
    positions (sending every kept block through the formula peaked at 18.1 MB)."""
    walker, scn, at = shell_plan_case()
    fed = scn.federation
    args = (walker, scn.ground_stations, fed.horizon_seconds)
    tracemalloc.start()
    try:
        got = contact_windows(*args, step=fed.window_step_seconds, start=at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = run_length_windows(*args, fed.window_step_seconds, LinkConfig().sgl_rate_bps, start=at)
    assert {w.ground_station for w in got} == {gs.id for gs in scn.ground_stations}
    assert window_key(got) == window_key(want)
    assert peak < 16e6


def test_shell_plan_windows_compute_exact_positions_only_on_cone_rims(monkeypatch):
    """One contact_windows call on the shell_plan grid computes at most
    100,000 satellite positions: blocks certified inside a station's cone get
    none. Sending every kept block through the formula computes 142,896."""
    walker, scn, at = shell_plan_case()
    computed = []
    positions = WalkerConstellation._positions

    def counted(self, times, sats):
        out = positions(self, times, sats)
        computed.append(out.size // 3)
        return out

    monkeypatch.setattr(WalkerConstellation, "_positions", counted)
    fed = scn.federation
    contact_windows(walker, scn.ground_stations, fed.horizon_seconds,
                    step=fed.window_step_seconds, start=at)
    assert 0 < sum(computed) <= 100_000


@settings(max_examples=60, deadline=None)
@given(spec=walker_specs(), stations=station_sets(),
       lat=st.sampled_from([-90.0, 0.0, 45.0, 90.0]), mask=st.sampled_from([0.0, 10.0, 89.9]),
       start=st.integers(-10000, 100000), step=st.sampled_from([0.5, 1.0, 5.0, 30.0]),
       steps=st.integers(1, 200))
def test_snapshot_sgl_set_matches_contact_windows(spec, stations, lat, mask, start, step, steps):
    """A snapshot at a sample instant has an SGL for exactly the pairs whose
    contact window covers that sample. Integer starts and binary steps keep
    every sample time exact, so window membership is a plain comparison.
    Each SGL's delay is the range to the station rotated one instant at a
    time with scalar math, and the satellite is above the station's mask."""
    walker = build_walker(spec)
    stations = stations + (GroundStation("gs-x", lat, 10.0, min_elevation_deg=mask),)
    by_id = {gs.id: gs for gs in stations}
    windows = contact_windows(walker, stations, steps * step, step=step, start=float(start))
    times = float(start) + np.arange(0.0, steps * step, step)
    for t in times[::max(1, steps // 7)].tolist():
        snap = snapshot(walker, t, LinkConfig(), stations=stations)
        sgls = snap.links_of_kind(LinkKind.SGL)
        got = [l.endpoints for l in sgls]
        want = [(w.satellite, w.ground_station) for w in windows if w.start <= t < w.end]
        assert got == want
        for link in sgls:
            sid, gs = link.endpoints
            st_pos = station_position(by_id[gs], t, spec.epoch)
            dist = float(np.linalg.norm(snap.positions[sid] - st_pos))
            assert math.isclose(link.propagation_delay_s, dist / LIGHT_SPEED_KM_S,
                                rel_tol=1e-12)
            assert elevation_deg(snap.positions[sid], st_pos) >= by_id[gs].min_elevation_deg - 1e-6


@settings(max_examples=200, deadline=None)
@given(spec=walker_specs(max_orbits=8, max_sats=12), stations=station_sets(),
       t=st.floats(-1e4, 1e5), seam=st.sampled_from(["disabled", "enabled"]),
       ulps=st.sampled_from([-1, 0, 1]), data=st.data())
def test_snapshot_lengths_match_per_link_norms(spec, stations, t, seam, ulps, data):
    """snapshot's vectorised lengths give every link, delay (by .hex()) and
    range decision of the per-link norm loop, with max_isl_range_km on one
    actual plane-pair length or one ulp either side of it; its satellite
    endpoints are the constellation's own SatelliteId objects."""
    walker = build_walker(spec)
    P, S = spec.num_orbits, spec.sats_per_orbit
    pos = walker.positions_at(t)
    lengths = [float(np.linalg.norm(pos[p * S + s] - pos[(p + 1) % P * S + s]))
               for p in range(P) for s in range(S) if P >= 2]
    cut = data.draw(st.sampled_from(lengths)) if lengths else 5500.0
    cut = float(np.nextafter(cut, ulps * math.inf)) if ulps else cut
    config = LinkConfig(max_isl_range_km=max(cut, 1e-9), cross_seam_policy=seam)
    links = snapshot(walker, t, config, stations).links
    rows = lambda ls: [(l.kind, l.endpoints, l.rate_bps, l.propagation_delay_s.hex()) for l in ls]
    assert rows(links) == rows(reference_snapshot(walker, t, config, stations))
    for link in links:
        for end in link.endpoints:
            assert not isinstance(end, SatelliteId) or \
                end is walker.satellites[end.orbit_index * S + end.slot_index]


def test_sgl_links_in_snapshot():
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    st = GroundStation("gs", 0.0, 0.0, dedicated_rate_bps=7e9)
    snap = snapshot(walker, 0.0, LinkConfig(), stations=(st,))
    sgl = snap.links_of_kind(LinkKind.SGL)
    assert len(sgl) == 1
    assert sgl[0].endpoints == (SatelliteId(0, 0), "gs")
    assert abs(sgl[0].propagation_delay_s - 550.0 / LIGHT_SPEED_KM_S) < 1e-12
    ded = snap.links_of_kind(LinkKind.GROUND_DEDICATED)
    assert len(ded) == 1
    assert ded[0].endpoints == ("gs", "cloud")
    assert ded[0].rate_bps == 7e9
