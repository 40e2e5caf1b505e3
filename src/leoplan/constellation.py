"""Walker-delta constellation geometry, link topology, and ground contact windows.

The model is deliberately small: circular orbits around a spherical Earth,
no perturbations, stations fixed to the rotating surface. Everything is a
pure function of the constellation definition and a time instant, so two
calls with the same arguments return identical results.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

EARTH_RADIUS_KM = 6371.0
EARTH_MU_KM3_S2 = 398600.4418
EARTH_ROTATION_RAD_S = 7.2921159e-5
LIGHT_SPEED_KM_S = 299792.458


class LinkKind(str, Enum):
    INTRA_ORBIT_ISL = "intra_orbit_isl"
    INTER_ORBIT_ISL = "inter_orbit_isl"
    CROSS_SEAM_ISL = "cross_seam_isl"
    SGL = "sgl"
    GROUND_DEDICATED = "ground_dedicated"


_SAT_LABEL = re.compile(r"^o(\d+)s(\d+)$")


@dataclass(frozen=True, order=True)
class SatelliteId:
    """Identifies a satellite by its orbit (plane) and slot within the plane."""

    orbit_index: int
    slot_index: int

    def __post_init__(self) -> None:
        # The planners key dicts and sets by satellite, so the dataclass hash,
        # hash((orbit_index, slot_index)), is computed once and kept.
        object.__setattr__(self, "_hash", hash((self.orbit_index, self.slot_index)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return f"o{self.orbit_index}s{self.slot_index}"

    def __str__(self) -> str:
        return self.label

    @classmethod
    def parse(cls, text: str) -> "SatelliteId":
        m = _SAT_LABEL.match(text)
        if m is None:
            raise ValueError(f"not a satellite label: {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))


@dataclass(frozen=True)
class ConstellationSpec:
    """Walker-delta shell definition.

    Attributes:
        num_orbits: number of orbital planes, >= 1.
        sats_per_orbit: satellites per plane, >= 1.
        altitude_km: shell altitude above the spherical Earth, > 0.
        inclination_deg: plane inclination in degrees, in [0, 180].
        phasing_factor: Walker phasing factor F, 0 <= F < num_orbits.
        epoch: reference time in seconds; phases below are defined at this instant.
    """

    num_orbits: int
    sats_per_orbit: int
    altitude_km: float
    inclination_deg: float
    phasing_factor: int = 0
    epoch: float = 0.0

    def validate(self) -> None:
        if self.num_orbits < 1:
            raise ValueError("num_orbits must be >= 1")
        if self.sats_per_orbit < 1:
            raise ValueError("sats_per_orbit must be >= 1")
        if not math.isfinite(self.altitude_km) or self.altitude_km <= 0:
            raise ValueError("altitude_km must be positive and finite")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg must be in [0, 180]")
        if not 0 <= self.phasing_factor < max(self.num_orbits, 1):
            raise ValueError("phasing_factor must satisfy 0 <= F < num_orbits")
        if not math.isfinite(self.epoch):
            raise ValueError("epoch must be finite")


@dataclass(frozen=True)
class LinkConfig:
    """Data rates and ISL pairing policy; every field can be overridden per scenario."""

    intra_orbit_rate_bps: float = 10e9
    inter_orbit_rate_bps: float = 2e9
    sgl_rate_bps: float = 1e9
    ground_dedicated_rate_bps: float = 10e9
    max_isl_range_km: float = 5500.0
    cross_seam_policy: str = "disabled"

    def validate(self) -> None:
        for name in ("intra_orbit_rate_bps", "inter_orbit_rate_bps",
                     "sgl_rate_bps", "ground_dedicated_rate_bps"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.max_isl_range_km) or self.max_isl_range_km <= 0:
            raise ValueError("max_isl_range_km must be positive and finite")
        if self.cross_seam_policy not in ("disabled", "enabled"):
            raise ValueError("cross_seam_policy must be 'disabled' or 'enabled'")


@dataclass(frozen=True)
class Link:
    """An undirected point-to-point link live at a snapshot instant."""

    kind: LinkKind
    endpoints: tuple
    rate_bps: float
    propagation_delay_s: float
    available: bool = True


@dataclass(frozen=True)
class TopologySnapshot:
    """Positions and live links of the network at one instant."""

    time: float
    links: tuple
    positions: dict = field(compare=False)

    def links_of_kind(self, *kinds: LinkKind) -> list:
        return [l for l in self.links if l.kind in kinds]


@dataclass(frozen=True)
class GroundStation:
    """A ground station with a dedicated terrestrial uplink to the cloud."""

    id: str
    latitude_deg: float
    longitude_deg: float
    dedicated_rate_bps: float = 10e9
    min_elevation_deg: float = 10.0

    def validate(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError("latitude_deg must be in [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError("longitude_deg must be in [-180, 180]")
        if not math.isfinite(self.dedicated_rate_bps) or self.dedicated_rate_bps <= 0:
            raise ValueError("dedicated_rate_bps must be positive and finite")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ValueError("min_elevation_deg must be in [0, 90)")

    def ecef_km(self) -> np.ndarray:
        lat = math.radians(self.latitude_deg)
        lon = math.radians(self.longitude_deg)
        return EARTH_RADIUS_KM * np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )


@dataclass(frozen=True)
class ContactWindow:
    """A maximal interval during which a satellite sees a station above its mask."""

    satellite: SatelliteId
    ground_station: str
    start: float
    end: float
    rate_bps: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class WalkerConstellation:
    """Positions for every satellite of a Walker-delta shell as functions of time."""

    def __init__(self, spec: ConstellationSpec):
        spec.validate()
        self.spec = spec
        self.radius_km = EARTH_RADIUS_KM + spec.altitude_km
        self.period = 2.0 * math.pi * math.sqrt(self.radius_km**3 / EARTH_MU_KM3_S2)
        self.mean_motion = 2.0 * math.pi / self.period

        p = np.arange(spec.num_orbits)
        s = np.arange(spec.sats_per_orbit)
        pp, ss = np.meshgrid(p, s, indexing="ij")
        pp = pp.ravel()
        ss = ss.ravel()
        # RAAN spread over the full 360 deg (delta pattern) plus Walker phase offset.
        self._raan = 2.0 * math.pi * pp / spec.num_orbits
        self._phase0 = (
            2.0 * math.pi * ss / spec.sats_per_orbit
            + 2.0 * math.pi * spec.phasing_factor * pp / (spec.num_orbits * spec.sats_per_orbit)
        )
        self._incl = math.radians(spec.inclination_deg)
        self._cos_raan, self._sin_raan = np.cos(self._raan), np.sin(self._raan)
        self.satellites = [SatelliteId(int(a), int(b)) for a, b in zip(pp, ss)]
        self._index = {sat: i for i, sat in enumerate(self.satellites)}

    @property
    def num_satellites(self) -> int:
        return len(self.satellites)

    def positions_at(self, t: float) -> np.ndarray:
        """Earth-centered inertial positions (km), shape (num_satellites, 3)."""
        return self.positions_at_times(np.array([t]))[0]

    def positions_at_times(self, times: np.ndarray) -> np.ndarray:
        """Positions for many instants at once, shape (len(times), num_satellites, 3)."""
        return self._positions(np.asarray(times, dtype=float)[:, None], slice(None))

    def _positions(self, times: np.ndarray, sats) -> np.ndarray:
        """Positions (km) of the satellites indexed by sats (an index array or
        a slice) at times, broadcast together; shape broadcast + (3,).

        The one place the orbit is written down: a position has the same bits
        whether it comes from a full grid or from gathered (t, i) pairs.
        """
        dt = times - self.spec.epoch
        u = self._phase0[sats] + self.mean_motion * dt
        ci, si = math.cos(self._incl), math.sin(self._incl)
        # In-plane coordinates rotated by inclination, then by RAAN about z,
        # written straight into the result.
        out = np.empty(u.shape + (3,))
        xo = self.radius_km * np.cos(u)
        r_sin_u = self.radius_km * np.sin(u)
        np.multiply(r_sin_u, si, out=out[..., 2])
        yo = r_sin_u * ci
        co, so = self._cos_raan[sats], self._sin_raan[sats]
        np.subtract(xo * co, yo * so, out=out[..., 0])
        np.add(xo * so, yo * co, out=out[..., 1])
        return out

    def position_of(self, sat: SatelliteId, t: float) -> np.ndarray:
        return self.positions_at(t)[self._index[sat]]

    def index_of(self, sat: SatelliteId) -> int:
        return self._index[sat]


def build_walker(spec: ConstellationSpec) -> WalkerConstellation:
    """Validate the shell parameters and construct the constellation."""
    return WalkerConstellation(spec)


def station_eci_km(station: GroundStation, t: float, epoch: float = 0.0) -> np.ndarray:
    """Inertial position of a station fixed to the rotating Earth."""
    theta = EARTH_ROTATION_RAD_S * (t - epoch)
    c, s = math.cos(theta), math.sin(theta)
    ex, ey, ez = station.ecef_km()
    return np.array([c * ex - s * ey, s * ex + c * ey, ez])


def elevation_deg(sat_pos_km: np.ndarray, station_pos_km: np.ndarray) -> float:
    """Elevation of a satellite above the local horizon of a station position."""
    d = sat_pos_km - station_pos_km
    zen = station_pos_km / np.linalg.norm(station_pos_km)
    return math.degrees(math.asin(float(np.dot(d, zen) / np.linalg.norm(d))))


def snapshot(
    constellation: WalkerConstellation,
    t: float,
    link_config: LinkConfig,
    stations: tuple = (),
) -> TopologySnapshot:
    """Topology at instant t.

    Emits the intra-orbit rings, the same-slot inter-orbit ISLs of adjacent
    planes that are within range (the wrap-around plane pair counts as the
    seam and follows the cross-seam policy), and, when stations are given,
    the currently visible SGLs plus each station's dedicated ground link. A
    satellite gets an SGL exactly when contact_windows would count the
    instant t as a visible sample.
    """
    link_config.validate()
    spec = constellation.spec
    pos = constellation.positions_at(t)
    positions = {sat: pos[i] for i, sat in enumerate(constellation.satellites)}
    links: list[Link] = []

    def isl(kind: LinkKind, a: SatelliteId, b: SatelliteId, rate: float) -> Link:
        dist = float(np.linalg.norm(positions[a] - positions[b]))
        return Link(kind, (a, b), rate, dist / LIGHT_SPEED_KM_S)

    P, S = spec.num_orbits, spec.sats_per_orbit
    for p in range(P):
        if S == 2:
            links.append(isl(LinkKind.INTRA_ORBIT_ISL, SatelliteId(p, 0), SatelliteId(p, 1),
                             link_config.intra_orbit_rate_bps))
        elif S >= 3:
            for s in range(S):
                links.append(isl(LinkKind.INTRA_ORBIT_ISL, SatelliteId(p, s),
                                 SatelliteId(p, (s + 1) % S),
                                 link_config.intra_orbit_rate_bps))

    def pair_planes(pa: int, pb: int, kind: LinkKind) -> None:
        for s in range(S):
            a, b = SatelliteId(pa, s), SatelliteId(pb, s)
            dist = float(np.linalg.norm(positions[a] - positions[b]))
            if dist <= link_config.max_isl_range_km:
                links.append(Link(kind, (a, b), link_config.inter_orbit_rate_bps,
                                  dist / LIGHT_SPEED_KM_S))

    for p in range(P - 1):
        pair_planes(p, p + 1, LinkKind.INTER_ORBIT_ISL)
    if P >= 3 and link_config.cross_seam_policy == "enabled":
        pair_planes(P - 1, 0, LinkKind.CROSS_SEAM_ISL)

    stations = tuple(stations)
    for st in stations:
        st.validate()
    if stations:
        s, visible, _ = _visible_samples(constellation, stations, np.array([t], dtype=float))
        # s is sorted, so station k's satellites are visible[bounds[k]:bounds[k + 1]].
        bounds = np.searchsorted(s, np.arange(len(stations) + 1)).tolist()
    for k, st in enumerate(stations):
        st_pos = station_eci_km(st, t, spec.epoch)
        for i in visible[bounds[k]:bounds[k + 1]].tolist():
            dist = float(np.linalg.norm(pos[i] - st_pos))
            links.append(Link(LinkKind.SGL, (constellation.satellites[i], st.id),
                              link_config.sgl_rate_bps, dist / LIGHT_SPEED_KM_S))
        links.append(Link(LinkKind.GROUND_DEDICATED, (st.id, "cloud"),
                          st.dedicated_rate_bps, 0.0))

    return TopologySnapshot(time=t, links=tuple(links), positions=positions)


# Margin below the exact cone bound p* in _visible_samples, in km; its
# docstring shows rounding moves the crossing of the mask by about 1e-12 km.
_CONE_MARGIN_KM = 1.0

# Samples per sieve block in _visible_samples. Every sample of a block lies
# within (_SIEVE_BLOCK - 1) / 2 steps of the block's midpoint, so the cone is
# widened by (mean motion + Earth rotation) * 5.5 steps: 0.03 rad at a 5 s
# step in LEO, against a cone half-angle of about 0.3 rad. Any value >= 1
# gives the same flags; a larger block tests fewer midpoints but keeps more
# samples for the exact test.
_SIEVE_BLOCK = 12


def _station_frames(stations: tuple, times: np.ndarray, epoch: float) -> tuple:
    """Inertial positions (km) and unit zeniths of stations at times, each
    shape (len(stations), len(times), 3)."""
    theta = EARTH_ROTATION_RAD_S * (times - epoch)
    c, s = np.cos(theta), np.sin(theta)
    ecef = np.array([st.ecef_km() for st in stations]).reshape(-1, 3)
    ex, ey, ez = ecef[:, 0:1], ecef[:, 1:2], ecef[:, 2:3]
    pos = np.empty((len(stations), len(times), 3))
    pos[..., 0] = c * ex - s * ey
    pos[..., 1] = s * ex + c * ey
    pos[..., 2] = ez
    return pos, pos / np.linalg.norm(pos, axis=-1, keepdims=True)


def _visible_samples(constellation: WalkerConstellation, stations: tuple,
                     times: np.ndarray) -> tuple:
    """Index arrays (s, i, t) of the samples where satellite i is above the
    mask of stations[s] at times[t], sorted by s, then i, then t. This is the
    one visibility test: contact_windows and snapshot both use it. times must
    be nondecreasing.

    A sample is visible when the sine of elevation, up / |d| with d = sat - st
    and up = d . zen, is at least sin(mask). With the satellite at radius r,
    the station at R and p = sat . zen, up = p - R and |d|^2 = r^2 + R^2 - 2 R p,
    so the sine is (p - R) / sqrt(r^2 + R^2 - 2 R p). Its derivative in p is
    (r^2 - R p) / |d|^3 > 0 (p <= r and R < r), so a mask m >= 0 holds exactly
    when p >= p* = R cos^2 m + sin m sqrt(r^2 - R^2 cos^2 m), and p* >= R. For
    p >= R, |d|^2 <= r^2 - R p, so an absolute error e in up or |d| moves the p
    at which the computed sine crosses the mask by at most about e. Those
    errors, and the rounding of p, r and R, are about 1e-12 km, so every
    sample the formula flags has p >= p* - _CONE_MARGIN_KM: its angle psi from
    the zenith is at most psi* = acos((p* - _CONE_MARGIN_KM) / r).

    The samples are cut into blocks of _SIEVE_BLOCK, and positions are first
    computed only at each block's midpoint. A satellite's direction turns at
    the mean motion and a zenith at most at Earth's rotation rate, so psi
    changes no faster than their sum, and a sample within `half` seconds of
    its midpoint can have psi <= psi* only if psi <= psi* + rate * half at the
    midpoint. Blocks whose midpoint p falls below r cos(psi* + rate * half +
    eps) are dropped for that station and satellite, with one matmul for all
    stations; eps covers the rounding of times, angles and p, which grows
    with |t - epoch|. Where the widened angle reaches pi every block is kept.
    The kept blocks' samples get exact positions from the same formula as
    positions_at_times and go through the sine formula elementwise, so the
    flags are bit-identical to evaluating it at every sample; no
    (len(times), n) array is built.
    """
    count = len(times)
    epoch, r = constellation.spec.epoch, constellation.radius_km
    sin_mask = np.array([math.sin(math.radians(st.min_elevation_deg)) for st in stations])

    first = np.arange(0, count, _SIEVE_BLOCK)
    last = np.minimum(first + (_SIEVE_BLOCK - 1), count - 1)
    half = 0.5 * (times[last] - times[first])
    mid = times[first] + half
    rate = constellation.mean_motion + EARTH_ROTATION_RAD_S
    reach = max(abs(times[0] - epoch), abs(times[-1] - epoch))
    slack = rate * float(half.max()) + 1e-6 + 1e-12 * (4.0 * math.pi + rate * reach)
    bound = []
    for sm in sin_mask.tolist():
        cos2 = 1.0 - sm * sm
        p_star = EARTH_RADIUS_KM * cos2 + sm * math.sqrt(r * r - EARTH_RADIUS_KM**2 * cos2)
        angle = math.acos(min(1.0, (p_star - _CONE_MARGIN_KM) / r)) + slack
        bound.append(r * math.cos(angle) if angle < math.pi else -math.inf)
    _, zen_mid = _station_frames(stations, mid, epoch)
    sat_mid = constellation._positions(mid[:, None], slice(None))  # (blocks, n, 3)
    p_mid = np.matmul(zen_mid.transpose(1, 0, 2), sat_mid.transpose(0, 2, 1))
    near = p_mid >= np.array(bound)[:, None]  # (blocks, stations, n)
    # Flat indices in (station, satellite, block) order, split back up.
    pair, b = np.divmod(np.flatnonzero(near.transpose(1, 2, 0)), len(first))
    s, i = np.divmod(pair, constellation.num_satellites)

    # Each kept (station, satellite, block) expands into its samples, in order.
    t = (first[b][:, None] + np.arange(_SIEVE_BLOCK)).ravel()
    s = np.repeat(s, _SIEVE_BLOCK)
    i = np.repeat(i, _SIEVE_BLOCK)
    if count % _SIEVE_BLOCK:
        inside = t < count
        s, i, t = s[inside], i[inside], t[inside]
    st_pos, zen = _station_frames(stations, times, epoch)
    sample = s * count + t
    d = constellation._positions(times[t], i)
    d -= np.take(st_pos.reshape(-1, 3), sample, axis=0)
    up = np.einsum("ck,ck->c", d, np.take(zen.reshape(-1, 3), sample, axis=0))
    sin_elev = up / np.linalg.norm(d, axis=-1)
    keep = sin_elev >= sin_mask[s]
    return s[keep], i[keep], t[keep]


def contact_windows(
    constellation: WalkerConstellation,
    stations: tuple,
    horizon: float,
    step: float = 1.0,
    link_config: LinkConfig | None = None,
    start: float = 0.0,
) -> list:
    """Sampled visibility windows for every (satellite, station) pair.

    The interval [start, start+horizon) is sampled every `step` seconds; runs
    of consecutive visible samples become one window reaching one step past
    the last visible sample, so windows for a pair never overlap and always
    have positive duration. Windows are ordered by station, then satellite,
    then time.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError("horizon must be positive and finite")
    if not math.isfinite(step) or step <= 0:
        raise ValueError("step must be positive and finite")
    if not math.isfinite(start):
        raise ValueError("start must be finite")
    cfg = link_config if link_config is not None else LinkConfig()
    cfg.validate()

    times = start + np.arange(0.0, horizon, step)
    stations = tuple(stations)
    if len(times) == 0 or not stations:
        return []
    for st in stations:
        st.validate()
    s, i, t = _visible_samples(constellation, stations, times)
    if len(t) == 0:
        return []
    # A run is a stretch of consecutive keys; the gap of len(times) + 1 per
    # (station, satellite) keeps runs of two pairs apart.
    key = (s * constellation.num_satellites + i) * (len(times) + 1) + t
    breaks = np.flatnonzero(np.diff(key) != 1) + 1
    first = np.concatenate(([0], breaks))
    last = np.concatenate((breaks, [len(key)])) - 1
    starts = times[t[first]].tolist()
    ends = (times[t[last]] + step).tolist()
    sats = constellation.satellites
    return [ContactWindow(sats[k], stations[j].id, t0, t1, cfg.sgl_rate_bps)
            for j, k, t0, t1 in zip(s[first].tolist(), i[first].tolist(), starts, ends)]
