import dataclasses
import math
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leoplan import (
    EARTH_RADIUS_KM,
    LIGHT_SPEED_KM_S,
    ConstellationSpec,
    ContactWindow,
    GroundStation,
    LinkConfig,
    LinkKind,
    SatelliteId,
    WalkerConstellation,
    build_walker,
    contact_windows,
    parse_scenario,
    snapshot,
)
from leoplan import constellation

from oracles import (
    elevation_deg,
    reference_snapshot,
    reference_station_frames,
    reference_visibility,
    reference_visible_samples,
    run_length_windows,
    shell_plan_case,
    station_sets,
    visibility_flags,
    walker_specs,
)

EARTH_ROTATION_RAD_S = 7.2921159e-5
REPO = Path(__file__).resolve().parents[1]


def test_satellite_id_labels():
    s = SatelliteId(3, 12)
    assert s.label == "o3s12"
    assert SatelliteId.parse("o3s12") == s
    for bad in ("o3", "s12", "o3s", "3s12", "o-1s2"):
        with pytest.raises(ValueError):
            SatelliteId.parse(bad)


@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=30))
def test_satellite_id_hashes_and_sorts_as_its_tuple(pairs):
    """Set and dict orders, and so every output that follows one (such as
    the float bits of dst_heuristic's energy sum over a set of id pairs),
    rest on a SatelliteId hashing as its (orbit, slot) tuple."""
    ids = [SatelliteId(o, s) for o, s in pairs]
    assert [hash(i) for i in ids] == [hash(p) for p in pairs]
    assert [(i.orbit_index, i.slot_index) for i in sorted(ids)] == sorted(pairs)
    assert [i.label for i in set(ids)] == [f"o{o}s{s}" for o, s in set(pairs)]


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


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["intra_orbit_rate_bps", "inter_orbit_rate_bps",
                                  "sgl_rate_bps", "ground_dedicated_rate_bps",
                                  "max_isl_range_km"])
def test_link_config_rejects_non_finite(name, value):
    """A rate or range that is not positive and finite is rejected, naming
    its field, also by snapshot, so no such rate reaches a graph's weights."""
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        LinkConfig(**{name: value}).validate()
    walker = build_walker(ConstellationSpec(3, 4, 550.0, 53.0))
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        snapshot(walker, 0.0, LinkConfig(**{name: value}))


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
    a = snapshot(walker, 500.0, LinkConfig())
    b = snapshot(walker, 500.0, LinkConfig())
    assert a.links == b.links
    for sid in a.positions:
        assert np.array_equal(a.positions[sid], b.positions[sid])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_snapshot_rejects_non_finite_time(t):
    walker = build_walker(ConstellationSpec(3, 4, 550.0, 53.0, phasing_factor=1))
    with pytest.raises(ValueError, match="t must be finite"):
        snapshot(walker, t, LinkConfig())


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
    # A window is a tuple of its five fields, in this order, and cannot change.
    assert ContactWindow._fields == ("satellite", "ground_station", "start", "end", "rate_bps")
    assert ContactWindow(*w) == w == ContactWindow(
        satellite=w.satellite, ground_station="gs", start=w.start, end=w.end, rate_bps=1e9)
    with pytest.raises(AttributeError):
        w.end = 0.0


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


def test_a_geometry_serves_every_grid_of_its_own_constellation_and_stations():
    """Another step, another start or a shorter horizon gives the windows of
    a fresh call; another constellation or other stations are rejected."""
    walker = build_walker(ConstellationSpec(4, 6, 550.0, 53.0))
    station = (GroundStation("gs", 40.0, 10.0),)
    geometry = constellation._StationGeometry(walker, station)
    for horizon, kw in ((6000.0, dict(step=5.0)), (9000.0, dict(step=4.0)),
                        (9000.0, dict(step=4.0, start=1.0)), (3000.0, dict(step=4.0, start=1.0)),
                        (6000.0, dict(step=5.0))):
        want = contact_windows(walker, station, horizon, **kw)
        assert want
        assert window_key(contact_windows(walker, station, horizon, _geometry=geometry,
                                          **kw)) == window_key(want)
    other_walker = build_walker(ConstellationSpec(4, 6, 550.0, 53.0))
    for args in ((other_walker, station, 120.0),
                 (walker, (GroundStation("gs", 40.0, 11.0),), 120.0)):
        with pytest.raises(ValueError, match="another constellation or other stations"):
            contact_windows(*args, step=5.0, _geometry=geometry)


@settings(max_examples=100, deadline=None)
@given(spec=walker_specs(), stations=station_sets(), altitude=altitudes, lat=latitudes,
       mask=masks, start=st.floats(-1e4, 1e5), step=steps_s, steps=sample_counts)
# No inside at GEO under an 89.9 deg mask, every block kept, a pole station
# on a polar shell, and snapshot's one-sample grid.
@example(spec=ConstellationSpec(4, 3, 35786.0, 0.0), stations=(), altitude=None, lat=0.0,
         mask=89.9, start=0.0, step=60.0, steps=121)
@example(spec=ConstellationSpec(2, 5, 550.0, 53.0), stations=(), altitude=1e-3, lat=-90.0,
         mask=0.0, start=-250.0, step=2000.0, steps=25)
@example(spec=ConstellationSpec(4, 6, 550.0, 90.0), stations=(), altitude=None, lat=90.0,
         mask=10.0, start=0.0, step=5.0, steps=400)
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), stations=(), altitude=None, lat=0.0,
         mask=10.0, start=0.0, step=5.0, steps=1)
def test_sieve_keys_decode_to_the_reference_samples(spec, stations, altitude, lat, mask, start,
                                                    step, steps):
    """The sieve's keys, sorted and int64, decode to exactly the (s, i, t)
    index arrays of the sieve that returned them."""
    if altitude is not None:
        spec = dataclasses.replace(spec, altitude_km=altitude)
    walker = build_walker(spec)
    stations = stations + (GroundStation("gs-x", lat, 10.0, min_elevation_deg=mask),)
    geometry = constellation._StationGeometry(walker, stations)
    times = start + np.arange(0.0, steps * step * 0.999, step)
    keys = constellation._visible_samples(walker, geometry, times)
    assert keys.dtype == np.int64 and np.all(keys[1:] > keys[:-1])
    s, i = np.divmod(keys >> 32, walker.num_satellites)
    want = reference_visible_samples(walker, geometry, times)
    for got, ref in zip((s, i, keys & (2**32 - 1)), want):
        assert got.tolist() == ref.tolist()


@settings(max_examples=50, deadline=None)
@given(spec=walker_specs(), stations=station_sets(), lat=latitudes, mask=masks,
       calls=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 150)), min_size=1,
                      max_size=6))
# A pass lasts several 100 s steps: longer, shorter, another grid, then back.
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), stations=(), lat=40.0, mask=10.0,
         calls=[(0, 40), (0, 121), (0, 7), (1, 60), (0, 121), (0, 130), (2, 13)])
def test_a_geometry_across_grids_gives_fresh_windows(spec, stations, lat, mask, calls):
    """One station geometry driven through longer, shorter and other-grid
    spans, in any order, gives after every call the windows of a fresh call,
    by .hex()."""
    walker = build_walker(spec)
    stations = stations + (GroundStation("gs-x", lat, 10.0, min_elevation_deg=mask),)
    grids = ((0.0, 100.0), (0.0, 37.5), (-1234.5, 100.0))  # (start, step)
    geometry = constellation._StationGeometry(walker, stations)
    for grid, count in calls:
        start, step = grids[grid]
        kw = dict(step=step, start=start, link_config=LinkConfig(sgl_rate_bps=3e6))
        got = contact_windows(walker, stations, count * step * 0.999, _geometry=geometry, **kw)
        assert window_key(got) == window_key(contact_windows(walker, stations,
                                                             count * step * 0.999, **kw))


def test_a_geometry_holds_no_grid_state():
    """Calls over a longer, a shorter and another grid leave the station
    geometry as built: no attribute is rebound."""
    walker = build_walker(ConstellationSpec(4, 6, 550.0, 53.0))
    stations = (GroundStation("gs", 40.0, 10.0),)
    geometry = constellation._StationGeometry(walker, stations)
    built = {k: id(v) for k, v in vars(geometry).items()}
    for horizon, kw in ((3000.0, dict(step=5.0)), (9000.0, dict(step=5.0)),
                        (1000.0, dict(step=5.0)), (6000.0, dict(step=4.0, start=1.0))):
        contact_windows(walker, stations, horizon, _geometry=geometry, **kw)
        assert {k: id(v) for k, v in vars(geometry).items()} == built


@settings(max_examples=100, deadline=None)
@given(spec=walker_specs(), stations=station_sets(), lat=latitudes, mask=masks,
       start=st.floats(-1e4, 1e5), step=steps_s, steps=sample_counts,
       where=st.sampled_from(["first", "mid-block", "last", "past"]),
       pick=st.integers(0, 40))
# A pass lasts several 100 s steps, so some window is cut at times[k].
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), stations=(), lat=40.0, mask=10.0,
         start=0.0, step=100.0, steps=121, where="mid-block", pick=5)
def test_a_clipped_grid_gives_the_clipped_windows(spec, stations, lat, mask, start, step,
                                                  steps, where, pick):
    """contact_windows(..., _first=k) gives the whole grid's windows that
    reach past times[k], each start raised to times[k], by .hex(): from the
    first sample, from inside a sieve block, from the last sample, and from
    past the grid, which gives none."""
    walker = build_walker(spec)
    stations = stations + (GroundStation("gs-x", lat, 10.0, min_elevation_deg=mask),)
    horizon = steps * step * 0.999
    times = start + np.arange(0.0, horizon, step)
    n, block = len(times), constellation._SIEVE_BLOCK
    k = {"first": 0, "last": n - 1, "past": n + pick % 4,
         "mid-block": min(n - 1, pick % ((n - 1) // block + 1) * block + block // 2)}[where]
    kw = dict(step=step, start=start, link_config=LinkConfig(sgl_rate_bps=3e6))
    got = contact_windows(walker, stations, horizon, _first=k, **kw)
    if k >= n:
        assert got == []
        return
    t = times[k]
    # A window ends one step past its last sample, so an end past t + step / 2
    # means a sample at or after times[k], however the end rounds.
    want = [w._replace(start=max(w.start, t))
            for w in contact_windows(walker, stations, horizon, **kw) if w.end > t + step / 2]
    assert window_key(got) == window_key(want)


def sieve_chunks(pairs, blocks):
    """A patch of _SIEVE_CHUNK to `blocks` sieve blocks of `pairs` pairs."""
    return mock.patch.object(constellation, "_SIEVE_CHUNK",
                             pairs * constellation._SIEVE_BLOCK * blocks)


@settings(max_examples=100, deadline=None)
@given(spec=walker_specs(), stations=station_sets(), lat=latitudes, mask=masks,
       start=st.floats(-1e4, 1e5), step=steps_s, steps=sample_counts,
       blocks=st.integers(1, 4), pick=st.integers(0, 400))
# A pass lasts several 5 s steps, so runs cross every one-block chunk edge.
@example(spec=ConstellationSpec(4, 6, 550.0, 53.0), stations=(), lat=40.0, mask=10.0,
         start=0.0, step=5.0, steps=400, blocks=1, pick=7)
def test_any_sieve_chunk_gives_the_same_windows(spec, stations, lat, mask, start, step, steps,
                                                blocks, pick):
    """Chunks of one block, of a few blocks and of 2**20
    station-satellite-samples give the same windows by .hex(), over the
    whole grid and from a later sample (_first)."""
    walker = build_walker(spec)
    stations = stations + (GroundStation("gs-x", lat, 10.0, min_elevation_deg=mask),)
    horizon = steps * step * 0.999
    kw = dict(step=step, start=start, link_config=LinkConfig(sgl_rate_bps=3e6))
    pairs = len(stations) * walker.num_satellites
    for first in (0, pick % steps):
        want = window_key(contact_windows(walker, stations, horizon, _first=first, **kw))
        for blocks_per_chunk in (1, blocks):
            with sieve_chunks(pairs, blocks_per_chunk):
                got = contact_windows(walker, stations, horizon, _first=first, **kw)
            assert window_key(got) == want


def test_runs_join_across_chunk_edges_and_end_on_the_last_sample():
    """On the demo's shell and stations over 100 samples at 5 s, sieved from
    sample 7 in one-block chunks: runs cross chunk edges, 8 runs end on the
    last sample, and the windows are those of one chunk, by .hex()."""
    scn = parse_scenario(REPO / "scenarios" / "demo_walker6.json")
    walker, stations = build_walker(scn.constellation), scn.ground_stations
    start, first = scn.constellation.epoch, 7
    times = start + np.arange(0.0, 500.0, 5.0)
    want = contact_windows(walker, stations, 500.0, step=5.0, start=start, _first=first)
    with sieve_chunks(len(stations) * walker.num_satellites, 1):
        got = contact_windows(walker, stations, 500.0, step=5.0, start=start, _first=first)
    assert window_key(got) == window_key(want)
    edges = range(first + constellation._SIEVE_BLOCK, len(times), constellation._SIEVE_BLOCK)
    # A run crosses the edge before sample k when it holds samples k - 1 and k.
    assert any(w.start <= times[k - 1] and times[k] + 5.0 <= w.end for w in got for k in edges)
    assert sum(w.end == times[-1] + 5.0 for w in got) == 8


@st.composite
def grids(draw):
    """(start, horizon, step) of grids of up to 3,000 samples inside the
    time range of an epoch at 0, near zero and far from it, with horizons
    that end mid-step or underflow horizon / step, and steps from the step
    floor up."""
    step = draw(st.one_of(st.floats(1e-3, 1e4), st.floats(constellation.STEP_FLOOR_S, 1e5)))
    horizon = step * draw(st.one_of(st.floats(1e-3, 3000.0), st.floats(5e-324, 1.0),
                                    st.integers(1, 3000).map(float)))
    start = draw(st.one_of(st.just(0.0), st.floats(-1e4, 1e5), st.floats(-1e9, 1e9)))
    assume(0.0 < horizon and abs(start) + horizon <= 1e9)
    return start, horizon, step


@settings(max_examples=300, deadline=None)
@given(grid=grids(), blocks=st.integers(1, 4), pick=st.integers(0, 3000))
@example(grid=(0.0, 5e-324, 1e300), blocks=1, pick=0)
@example(grid=(1e9 - 600.0, 600.0, 0.1), blocks=1, pick=7)
def test_chunk_instants_are_the_whole_grid_samples(grid, blocks, pick):
    """The instants contact_windows sieves, chunk by chunk from any first
    sample, equal start + np.arange(0.0, horizon, step) from that sample bit
    for bit, every window starts on one of them, and the length rule gives
    the grid's length, one sample when horizon / step underflows."""
    start, horizon, step = grid
    whole = start + np.arange(0.0, horizon, step)
    assert constellation._grid_length(horizon, step) == len(whole)
    walker = build_walker(ConstellationSpec(1, 1, 550.0, 0.0))
    sieved, real = [], constellation._visible_samples

    def sieve(walker, geometry, times):
        sieved.append(times)
        return real(walker, geometry, times)

    first = pick % len(whole)
    with sieve_chunks(1, blocks), mock.patch.object(constellation, "_visible_samples", sieve):
        got = contact_windows(walker, (GroundStation("gs", 0.0, 0.0, min_elevation_deg=0.0),),
                              horizon, step=step, start=start, _first=first)
    assert np.concatenate(sieved).tobytes() == whole[first:].tobytes()
    assert {w.start for w in got} <= set(whole.tolist())


def test_a_long_demo_grid_stays_below_its_memory_pin():
    """One contact_windows call over 300,000 samples of the demo (66
    satellites, 5 stations, 1 s step) peaks below 8 MB under tracemalloc, so
    a call's memory grows with its windows, not its samples. Sieving the
    whole grid at once peaked at 186.6 MB here, the chunked sieve at 2.1 MB
    (numpy 2.4)."""
    scn = parse_scenario(REPO / "scenarios" / "demo_walker6.json")
    walker = build_walker(scn.constellation)
    tracemalloc.start()
    try:
        windows = contact_windows(walker, scn.ground_stations, 300_000.0, step=1.0,
                                  start=scn.constellation.epoch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 5902
    assert peak < 8e6


@settings(max_examples=200, deadline=None)
@given(epoch=st.one_of(st.just(0.0), st.sampled_from([-1e9, 1e9]), st.floats(-1e9, 1e9)),
       step=st.floats(1e-3, 1e4), steps=st.integers(1, 300),
       side=st.sampled_from([-1.0, 1.0]), inside=st.floats(0.0, 1.0))
def test_grids_inside_the_time_range_keep_their_step(epoch, step, steps, side, inside):
    """Up to the last start the time range admits, |start - epoch| +
    horizon <= 1e9 s, on either side of any epoch within 1e9 s of 0, the
    sample grid increases strictly with every spacing within 4e-7 s of step;
    the next float past that start is rejected."""
    walker = build_walker(ConstellationSpec(2, 3, 550.0, 53.0, epoch=epoch))
    horizon = steps * step

    def admitted(t):
        return abs(t - epoch) + horizon <= 1e9

    # Bisect for the last admitted start on this side: edge is admitted and
    # the next float outward, past, is not.
    edge, past = epoch, epoch + side * 1.5e9
    while (mid := 0.5 * (edge + past)) not in (edge, past):
        edge, past = (mid, past) if admitted(mid) else (edge, mid)
    assert past == math.nextafter(edge, side * math.inf)
    for start in (edge, epoch + inside * (edge - epoch)):
        if not admitted(start):
            continue
        assert contact_windows(walker, (), horizon, step=step, start=start) == []
        count = constellation._grid_length(horizon, step)
        gaps = np.diff(constellation._grid(start, step, np.arange(count)))
        assert np.all(gaps > 0.0) and np.all(np.abs(gaps - step) <= 4e-7)
    with pytest.raises(ValueError, match=r"start must keep \|start - epoch\| \+ horizon "
                                         r"within 1e9 s"):
        contact_windows(walker, (), horizon, step=step, start=past)


def test_a_step_below_the_floor_is_rejected():
    """A step below 1e-6 s would put samples of one grid on one instant:
    1,000 samples 1e-9 s apart just below 1e9 s hold only 9 distinct
    instants. Such a step, and the floor less one ulp, are rejected before
    any array is built; the floor itself is taken."""
    walker = build_walker(ConstellationSpec(6, 11, 550.0, 53.0))
    station = (GroundStation("g", 40, 0),)
    assert len(np.unique(constellation._grid(1e9 - 1.0, 1e-9, np.arange(1000.0)))) == 9
    for step in (1e-9, math.nextafter(constellation.STEP_FLOOR_S, 0.0)):
        with pytest.raises(ValueError, match=r"^step must be at least 1e-6 s$"):
            contact_windows(walker, station, 1e-6, step=step, start=1e9 - 1.0)
    contact_windows(walker, station, 1e-3, step=constellation.STEP_FLOOR_S, start=1e9 - 1.0)


def test_snapshot_and_epoch_are_held_to_the_time_range():
    """An instant 1e9 s from the epoch and an epoch 1e9 s from 0 are taken;
    one ulp further, each is rejected. Inside, a grid near the bound still
    gives windows."""
    far = math.nextafter(1e9, math.inf)
    for epoch in (-1e9, 1e9):
        walker = build_walker(ConstellationSpec(2, 3, 550.0, 53.0, epoch=epoch))
        snapshot(walker, 0.0, LinkConfig())
        with pytest.raises(ValueError, match=r"t must keep \|t - epoch\| \+ horizon within "
                                             r"1e9 s, got "):
            snapshot(walker, -epoch / 1e9 * (far - 1e9), LinkConfig())
        with pytest.raises(ValueError, match="epoch must be within 1e9 s of 0"):
            ConstellationSpec(2, 3, 550.0, 53.0, epoch=epoch / 1e9 * far).validate()
    walker = build_walker(ConstellationSpec(4, 6, 550.0, 53.0))
    station = (GroundStation("gs", 40.0, 10.0),)
    assert contact_windows(walker, station, 6000.0, step=5.0, start=1e9 - 6000.0)
    with pytest.raises(ValueError, match="start must keep"):
        contact_windows(walker, station, 6000.0, step=5.0,
                        start=math.nextafter(1e9 - 6000.0, math.inf))


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


@settings(max_examples=100, deadline=None)
@given(stations=station_sets(max_stations=4),
       lat=st.one_of(st.sampled_from([-90.0, -0.0, 0.0, 90.0]), st.floats(-90.0, 90.0)),
       lon=st.one_of(st.sampled_from([-180.0, -0.0, 0.0, 180.0]), st.floats(-180.0, 180.0)),
       epoch=st.floats(-1e6, 1e6), start=st.one_of(st.floats(-1e4, 1e5), st.floats(-1e9, 1e9)),
       step=st.floats(0.5, 3000.0), steps=st.integers(1, 40))
def test_station_frames_and_norms_match_the_per_call_form(stations, lat, lon, epoch, start,
                                                          step, steps):
    """The frames of a station geometry built once, and the sieve's norms,
    equal by their bytes the frames rebuilt from each station's ecef_km on
    every call and np.linalg.norm: at the poles, at -0 and +-180 degrees,
    and far from the epoch."""
    walker = build_walker(ConstellationSpec(2, 3, 550.0, 53.0, epoch=epoch))
    stations = stations + (GroundStation("gs-x", lat, lon),)
    times = start + np.arange(steps) * step
    got = constellation._station_frames(constellation._StationGeometry(walker, stations),
                                        times, epoch)
    want = reference_station_frames(stations, times, epoch)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    diffs = walker.positions_at_times(times)[None] - got[0][:, :, None, :]
    for x in (got[0], diffs, diffs.reshape(-1, 3)[::5]):
        assert constellation._norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()


def test_a_station_listed_twice_is_rejected():
    """Passed twice, a station would see, and carry, every window twice."""
    walker = build_walker(ConstellationSpec(2, 3, 550.0, 53.0))
    gs = GroundStation("gs", 10.0, 10.0)
    twice = (gs, GroundStation("gs-b", 0.0, 0.0), dataclasses.replace(gs, latitude_deg=20.0))
    with pytest.raises(ValueError, match="station id 'gs' listed twice"):
        contact_windows(walker, twice, 600.0)


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


def test_one_cold_shell_call_stays_below_its_memory_pin():
    """One contact_windows call on a 24x22 shell with 8 fixed stations over
    5,400 s at a 5 s step peaks below 3 MB under tracemalloc. The sieve that
    returned three index arrays (s, i, t) and held its midpoint arrays through
    the exact test peaked at 14.1 MB here, the key sieve over the whole grid
    at 5.3 MB; sieved in five chunks of 240 samples whose keys become runs at
    once, the call peaks at 1.2 MB (numpy 2.4)."""
    sites = [(-4.6323, 175.7868), (42.7633, 142.4084), (-11.4759, -39.567),
             (50.3027, 108.7441), (-29.4408, -161.8942), (30.3212, -23.7257),
             (-22.3627, 27.6316), (50.5392, 91.6324)]
    stations = tuple(GroundStation(f"gs-{k}", lat, lon) for k, (lat, lon) in enumerate(sites))
    walker = build_walker(ConstellationSpec(24, 22, 550.0, 53.0, phasing_factor=1))
    tracemalloc.start()
    try:
        windows = contact_windows(walker, stations, 5400.0, step=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 1236
    assert peak < 3e6


def test_an_oversized_grid_is_rejected_before_any_array(monkeypatch):
    """A grid of more than 2**32 - 1 samples cannot be keyed: it is rejected
    before the grid exists (1e15 samples would take 7.11 PiB). The bound is
    exact: at a lowered limit, a grid of the limit's length passes and one
    sample more is rejected."""
    walker = build_walker(ConstellationSpec(6, 11, 550.0, 53.0))
    stations = (GroundStation("gs", 40.0, 10.0),)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="horizon / step exceeds 4294967295 samples"):
            contact_windows(walker, stations, 1e12, step=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    monkeypatch.setattr(constellation, "_MAX_SAMPLES", 100)
    for horizon in (499.9, 500.0):  # 100 samples at a 5 s step
        assert len(np.arange(0.0, horizon, 5.0)) == 100
        contact_windows(walker, stations, horizon, step=5.0)
    with pytest.raises(ValueError, match="horizon / step exceeds 100 samples"):
        contact_windows(walker, stations, 500.001, step=5.0)


def test_too_many_station_satellite_pairs_are_rejected():
    """A key holds station * num_satellites + satellite in 31 bits, so
    stations x satellites of 2**31 or more is rejected before any array; a
    stand-in shell of that many satellites is never built."""
    station = GroundStation("gs", 40.0, 10.0)
    two = (station, dataclasses.replace(station, id="gs-b"))

    def shell(n):
        return types.SimpleNamespace(num_satellites=n, radius_km=6921.0)

    constellation._StationGeometry(shell(2**31 - 1), (station,))
    constellation._StationGeometry(shell(2**30 - 1), two)
    for n, stations in ((2**31, (station,)), (2**30, two)):
        with pytest.raises(ValueError, match=r"stations x satellites must be below 2\*\*31"):
            constellation._StationGeometry(shell(n), stations)


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


def range_cut_config(walker, t, seam, ulps, data):
    """A LinkConfig with the seam policy and max_isl_range_km on one actual
    plane-pair length at t, or one ulp either side of it."""
    P, S = walker.spec.num_orbits, walker.spec.sats_per_orbit
    pos = walker.positions_at(t)
    lengths = [float(np.linalg.norm(pos[p * S + s] - pos[(p + 1) % P * S + s]))
               for p in range(P) for s in range(S) if P >= 2]
    cut = data.draw(st.sampled_from(lengths)) if lengths else 5500.0
    cut = float(np.nextafter(cut, ulps * math.inf)) if ulps else cut
    return LinkConfig(max_isl_range_km=max(cut, 1e-9), cross_seam_policy=seam)


snapshot_cases = dict(spec=walker_specs(max_orbits=8, max_sats=12), t=st.floats(-1e4, 1e5),
                      seam=st.sampled_from(["disabled", "enabled"]),
                      ulps=st.sampled_from([-1, 0, 1]), data=st.data())


@settings(max_examples=200, deadline=None)
@given(**snapshot_cases)
def test_snapshot_table_matches_the_table_of_its_links(spec, t, seam, ulps, data):
    """snapshot's edge table, built from arrays, holds per link of the
    per-link reference, in its order, the row (end index, end index, rate,
    delay), bit for bit; its links, built when read, are the reference's,
    and its positions those of the arrays."""
    walker = build_walker(spec)
    config = range_cut_config(walker, t, seam, ulps, data)
    snap = snapshot(walker, t, config)
    nodes, table = snap.numbered
    reference = reference_snapshot(walker, t, config)
    index = {v: i for i, v in enumerate(walker.satellites)}
    rows = [(index[a], index[b], l.rate_bps, l.propagation_delay_s)
            for l in reference for a, b in [l.endpoints]]
    assert nodes == walker.satellites
    assert table.tobytes() == np.array(rows, dtype=float).reshape(-1, 4).tobytes()
    assert snap.links == tuple(reference)
    positions = dict(zip(walker.satellites, walker.positions_at(t)))
    assert list(snap.positions) == walker.satellites
    assert all(np.array_equal(snap.positions[v], x) for v, x in positions.items())


@settings(max_examples=200, deadline=None)
@given(**snapshot_cases)
def test_snapshot_lengths_match_per_link_norms(spec, t, seam, ulps, data):
    """snapshot's vectorised lengths give every link, delay (by .hex()) and
    range decision of the per-link norm loop, with max_isl_range_km on one
    actual plane-pair length or one ulp either side of it; its satellite
    endpoints are the constellation's own SatelliteId objects."""
    walker = build_walker(spec)
    config = range_cut_config(walker, t, seam, ulps, data)
    links = snapshot(walker, t, config).links
    rows = lambda ls: [(l.kind, l.endpoints, l.rate_bps, l.propagation_delay_s.hex()) for l in ls]
    assert rows(links) == rows(reference_snapshot(walker, t, config))
    for link in links:
        for end in link.endpoints:
            assert end is walker.satellites[end.orbit_index * spec.sats_per_orbit
                                            + end.slot_index]
