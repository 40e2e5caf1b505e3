"""Walker-delta constellation geometry, link topology, and ground contact windows.

The model is deliberately small: circular orbits around a spherical Earth,
no perturbations, stations fixed to the rotating surface. Everything is a
pure function of the constellation definition and a time instant, so two
calls with the same arguments return identical results.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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


ISL_KINDS = (LinkKind.INTRA_ORBIT_ISL, LinkKind.INTER_ORBIT_ISL, LinkKind.CROSS_SEAM_ISL)

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


def node_key(node):
    """The order graphs number their nodes in: satellites by (orbit, slot),
    then every other node by its string."""
    if isinstance(node, SatelliteId):
        return (0, node.orbit_index, node.slot_index)
    return (1, str(node))


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

    @cached_property
    def numbered(self) -> tuple:
        """(nodes, satellites, table), read by every graph over the snapshot:
        each node once in node_key order, the first `satellites` of them the
        satellites, and per available link, in link order, the row (end
        index, end index, 1.0 for an ISL else 0.0, rate, delay)."""
        live = [l for l in self.links if l.available]
        nodes = sorted({*self.positions, *(v for l in live for v in l.endpoints)}, key=node_key)
        index = {v: i for i, v in enumerate(nodes)}
        rows = [(index[a], index[b], l.kind in ISL_KINDS, l.rate_bps, l.propagation_delay_s)
                for l in live for a, b in [l.endpoints]]
        table = np.fromiter(itertools.chain.from_iterable(rows), float, 5 * len(rows))
        return nodes, sum(isinstance(v, SatelliteId) for v in nodes), table.reshape(-1, 5)


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


def build_walker(spec: ConstellationSpec) -> WalkerConstellation:
    """Validate the shell parameters and construct the constellation."""
    return WalkerConstellation(spec)


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

    Links join the constellation's own SatelliteId objects. Every length is
    sqrt(vecdot(d, d)), the dot product np.linalg.norm takes, so delays and
    range decisions equal a per-link norm bit for bit
    (test_snapshot_lengths_match_per_link_norms).
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    link_config.validate()
    stations = tuple(stations)
    for st in stations:
        st.validate()
    spec, sats = constellation.spec, constellation.satellites
    P, S = spec.num_orbits, spec.sats_per_orbit
    pos = constellation.positions_at(t)
    # ISL ends as satellite indices (orbit * S + slot), with their ISL_KINDS
    # index: the rings (one link for a pair of slots), the adjacent plane
    # pairs, then the seam.
    ring = np.arange(P * S)[::2 if S == 2 else 1] if S >= 2 else np.arange(0)
    pair = np.arange((P - 1) * S)
    seam = np.arange(S) if P >= 3 and link_config.cross_seam_policy == "enabled" else pair[:0]
    a = np.concatenate((ring, pair, seam + (P - 1) * S))
    b = np.concatenate((ring - ring % S + (ring + 1) % S, pair + S, seam))
    kind = np.repeat(np.arange(3), (len(ring), len(pair), len(seam)))
    d = pos[a] - pos[b]
    length = np.sqrt(np.vecdot(d, d))
    keep = (kind == 0) | (length <= link_config.max_isl_range_km)
    rate = (link_config.intra_orbit_rate_bps,) + (link_config.inter_orbit_rate_bps,) * 2
    links = [Link(ISL_KINDS[k], (sats[i], sats[j]), rate[k], x / LIGHT_SPEED_KM_S)
             for k, i, j, x in zip(*(v[keep].tolist() for v in (kind, a, b, length)))]
    if stations:
        at = np.array([t], dtype=float)
        s, i, _ = _visible_samples(constellation, stations, at)
        st_pos, _ = _station_frames(stations, at, spec.epoch)
        d = pos[i] - st_pos[s, 0]
        delay = (np.sqrt(np.vecdot(d, d)) / LIGHT_SPEED_KM_S).tolist()
        # s is sorted, so station k's SGLs are rows bounds[k]:bounds[k + 1].
        bounds = np.searchsorted(s, np.arange(len(stations) + 1)).tolist()
        for k, st in enumerate(stations):
            links += [Link(LinkKind.SGL, (sats[j], st.id), link_config.sgl_rate_bps, delay[r])
                      for r, j in enumerate(i[bounds[k]:bounds[k + 1]].tolist(), bounds[k])]
            links.append(Link(LinkKind.GROUND_DEDICATED, (st.id, "cloud"),
                              st.dedicated_rate_bps, 0.0))
    return TopologySnapshot(time=t, links=tuple(links), positions=dict(zip(sats, pos)))


# Margin below the exact cone bound p* in _visible_samples, in km; rounding
# moves the mask crossing by about 1e-12 km.
_CONE_MARGIN_KM = 1.0

# Samples per sieve block in _visible_samples. Any value >= 1 gives the same
# flags; a larger block tests fewer midpoints but keeps more samples for the
# exact test (at a 5 s LEO step the cone widens by 0.03 of its ~0.3 rad).
_SIEVE_BLOCK = 12


def _station_frames(stations: tuple, times: np.ndarray, epoch: float) -> tuple:
    """Inertial positions (km) and unit zeniths of stations at times, each
    shape (len(stations), len(times), 3).

    The one place a station's turn with the Earth is written down: the
    visibility test and snapshot's SGL delays both read it.
    """
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

    The sine of elevation, (p - R) / |sat - st| with p = sat . zenith, rises
    with p, so a mask m holds exactly where p >= p* = R cos^2 m + sin m
    sqrt(r^2 - R^2 cos^2 m). Positions are first found at the midpoint of each
    block of _SIEVE_BLOCK samples; in half a block the satellite and the
    zenith turn apart by at most `slack`, how far both can turn plus rounding.
    Outside: every flagged sample lies within psi* = acos((p* -
    _CONE_MARGIN_KM) / r) of the zenith, so a (station, satellite, block)
    whose midpoint lies outside psi* + slack is dropped. Inside: a midpoint
    within psi_in = acos((p* + _CONE_MARGIN_KM) / r) - slack puts every
    sample of its block at p >= p* + _CONE_MARGIN_KM, where the sine is above
    the mask by more than 2e-5 at any altitude up to GEO, far above its
    rounding, so the whole block is flagged without the formula. There is no
    inside when (p* + _CONE_MARGIN_KM) / r >= 1 or psi_in <= 0. Only the
    samples of the remaining rim blocks get exact positions and the sine
    formula, elementwise, so the flags equal evaluating it at every sample
    (test_visibility_matches_full_evaluation); no (len(times), n) array is built.
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
    outer, inner = [], []
    for sm in sin_mask.tolist():
        cos2 = 1.0 - sm * sm
        p_star = EARTH_RADIUS_KM * cos2 + sm * math.sqrt(r * r - EARTH_RADIUS_KM**2 * cos2)
        angle = math.acos(min(1.0, (p_star - _CONE_MARGIN_KM) / r)) + slack
        outer.append(r * math.cos(angle) if angle < math.pi else -math.inf)
        ratio = (p_star + _CONE_MARGIN_KM) / r
        angle = math.acos(ratio) - slack if ratio < 1.0 else 0.0
        inner.append(r * math.cos(angle) if angle > 0.0 else math.inf)
    # One frame over the samples, then the midpoints: both are elementwise in
    # time, so each sample's bits are those of a frame over the samples alone.
    st_pos, zen = _station_frames(stations, np.concatenate((times, mid)), epoch)
    sat_mid = constellation._positions(mid[:, None], slice(None))  # (blocks, n, 3)
    p_mid = np.matmul(zen[:, count:].transpose(1, 0, 2), sat_mid.transpose(0, 2, 1))
    near = p_mid >= np.array(outer)[:, None]  # (blocks, stations, n)
    # Flat indices in (station, satellite, block) order, split back up.
    pair, b = np.divmod(np.flatnonzero(near.transpose(1, 2, 0)), len(first))
    s, i = np.divmod(pair, constellation.num_satellites)
    visible = p_mid[b, s, i] >= np.array(inner)[s]

    # Each kept (station, satellite, block) expands into its samples, in order.
    t = (first[b][:, None] + np.arange(_SIEVE_BLOCK)).ravel()
    s = np.repeat(s, _SIEVE_BLOCK)
    i = np.repeat(i, _SIEVE_BLOCK)
    visible = np.repeat(visible, _SIEVE_BLOCK)
    if count % _SIEVE_BLOCK:
        inside = t < count
        s, i, t, visible = s[inside], i[inside], t[inside], visible[inside]
    rim = np.flatnonzero(~visible)
    sr, tr = s[rim], t[rim]
    sample = sr * (count + len(mid)) + tr
    d = constellation._positions(times[tr], i[rim])
    d -= np.take(st_pos.reshape(-1, 3), sample, axis=0)
    up = np.einsum("ck,ck->c", d, np.take(zen.reshape(-1, 3), sample, axis=0))
    visible[rim] = up / np.linalg.norm(d, axis=-1) >= sin_mask[sr]
    return s[visible], i[visible], t[visible]


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
