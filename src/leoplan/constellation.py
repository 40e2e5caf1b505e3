"""Walker-delta constellation geometry, link topology, and ground contact windows.

The model is deliberately small: circular orbits around a spherical Earth,
no perturbations, stations fixed to the rotating surface. Everything is a
pure function of the constellation definition and a time instant, so two
calls with the same arguments return identical results.

Time range. Every instant t the model samples, over a span of length
horizon (0 for one instant), keeps |t - epoch| + horizon <= 1e9 s
(TIME_BOUND_S), and the epoch keeps |epoch| <= 1e9 s. The float spacing
of an offset from the epoch is then at most 1.2e-7 s, and that of an
instant, within 2e9 s of zero, at most 2.4e-7 s, so a sample grid
start + k * step increases strictly with every spacing within 4e-7 s of
step for any step above that (test_grids_inside_the_time_range_keep_their_step).
snapshot, contact_windows and the simulator's campaign check the first rule,
ConstellationSpec the second, and schedule_downlink, which knows no epoch,
what the two imply: |start_time| + horizon <= 2e9 s.

Memory. contact_windows sieves its grid in chunks of whole sieve blocks of
at most _SIEVE_CHUNK station-satellite-samples each, and turns each chunk's
visible samples into runs at once, so one call holds one chunk's stage
arrays, max(2**20, 12 x stations x satellites) station-satellite-samples,
plus 16 B per run and its windows: it grows with windows, not samples.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graph import _require_finite

EARTH_RADIUS_KM = 6371.0
EARTH_MU_KM3_S2 = 398600.4418
EARTH_ROTATION_RAD_S = 7.2921159e-5
LIGHT_SPEED_KM_S = 299792.458

# The time range and the largest ring of the model (see the module docstring).
TIME_BOUND_S = 1e9
MAX_SATS_PER_ORBIT = 1000


def _require_near_epoch(name: str, t: float, epoch: float, horizon: float = 0.0) -> None:
    """Raise ValueError unless the instant t, over a span of length horizon,
    keeps |t - epoch| + horizon <= TIME_BOUND_S; name is t's name."""
    if not abs(t - epoch) + horizon <= TIME_BOUND_S:
        raise ValueError(f"{name} must keep |{name} - epoch| + horizon within 1e9 s, "
                         f"got {t!r}")


class LinkKind(str, Enum):
    INTRA_ORBIT_ISL = "intra_orbit_isl"
    INTER_ORBIT_ISL = "inter_orbit_isl"
    CROSS_SEAM_ISL = "cross_seam_isl"

_SAT_LABEL = re.compile(r"^o(\d+)s(\d+)$")


class SatelliteId(NamedTuple):
    """Identifies a satellite by its orbit (plane) and slot within the plane.

    A tuple, so ids sort by (orbit, slot), equal the plain tuple (orbit, slot)
    and hash as hash((orbit, slot)) in C. Outputs depend on that hash: set
    and dict orders follow it, and dst_heuristic sums its energy over a set
    of id pairs, so its bits do too.
    """

    orbit_index: int
    slot_index: int

    @property
    def label(self) -> str:
        return f"o{self.orbit_index}s{self.slot_index}"

    def __str__(self) -> str:
        return self.label

    @classmethod
    def parse(cls, text: str) -> "SatelliteId":
        m = _SAT_LABEL.match(text) if isinstance(text, str) else None
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
        for name in ("num_orbits", "sats_per_orbit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # A ring all-reduce over one plane plans 2N(N - 1) steps.
        if self.sats_per_orbit > MAX_SATS_PER_ORBIT:
            raise ValueError(f"sats_per_orbit must be at most {MAX_SATS_PER_ORBIT}")
        _require_finite("positive and finite", altitude_km=self.altitude_km)
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg must be in [0, 180]")
        if not 0 <= self.phasing_factor < max(self.num_orbits, 1):
            raise ValueError("phasing_factor must satisfy 0 <= F < num_orbits")
        _require_finite("finite", epoch=self.epoch)
        if abs(self.epoch) > TIME_BOUND_S:
            raise ValueError("epoch must be within 1e9 s of 0")


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
        _require_finite("positive and finite", intra_orbit_rate_bps=self.intra_orbit_rate_bps,
                        inter_orbit_rate_bps=self.inter_orbit_rate_bps,
                        sgl_rate_bps=self.sgl_rate_bps,
                        ground_dedicated_rate_bps=self.ground_dedicated_rate_bps,
                        max_isl_range_km=self.max_isl_range_km)
        if self.cross_seam_policy not in ("disabled", "enabled"):
            raise ValueError("cross_seam_policy must be 'disabled' or 'enabled'")


@dataclass(frozen=True)
class Link:
    """An undirected point-to-point link live at a snapshot instant."""

    kind: LinkKind
    endpoints: tuple
    rate_bps: float
    propagation_delay_s: float


@dataclass(frozen=True)
class TopologySnapshot:
    """Positions and live ISLs of the constellation at one instant."""

    time: float
    links: tuple
    positions: dict = field(compare=False)

    def links_of_kind(self, *kinds: LinkKind) -> list:
        return [l for l in self.links if l.kind in kinds]

    @cached_property
    def numbered(self) -> tuple:
        """(nodes, table), read by every graph over the snapshot: each
        satellite once in node_key order, and per link, in link order, the row
        (end index, end index, rate, delay). A node that is not a satellite,
        such as a link end given by a string, is rejected."""
        nodes = sorted({*self.positions, *(v for l in self.links for v in l.endpoints)},
                       key=node_key)
        # node_key sorts every other node after the satellites.
        if nodes and not isinstance(nodes[-1], SatelliteId):
            raise ValueError(f"snapshot node {nodes[-1]!r} is not a satellite")
        index = {v: i for i, v in enumerate(nodes)}
        rows = [(index[a], index[b], l.rate_bps, l.propagation_delay_s)
                for l in self.links for a, b in [l.endpoints]]
        table = np.fromiter(itertools.chain.from_iterable(rows), float, 4 * len(rows))
        return nodes, table.reshape(-1, 4)


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
        _require_finite("positive and finite", dedicated_rate_bps=self.dedicated_rate_bps)
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ValueError("min_elevation_deg must be in [0, 90)")

    def ecef_km(self) -> np.ndarray:
        lat = math.radians(self.latitude_deg)
        lon = math.radians(self.longitude_deg)
        return EARTH_RADIUS_KM * np.array(
            [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
        )


class ContactWindow(NamedTuple):
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
        incl = math.radians(spec.inclination_deg)
        self._cos_incl, self._sin_incl = math.cos(incl), math.sin(incl)
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
        u = self._phase0[sats] + self.mean_motion * (times - self.spec.epoch)
        # In-plane coordinates rotated by inclination, then by RAAN about z,
        # written straight into the result; u, then xo, is reused as a buffer.
        out = np.empty(u.shape + (3,))
        xo = self.radius_km * np.cos(u)
        yo = np.multiply(self.radius_km, np.sin(u, out=u), out=u)
        np.multiply(yo, self._sin_incl, out=out[..., 2])
        yo *= self._cos_incl
        co, so = self._cos_raan[sats], self._sin_raan[sats]
        np.multiply(xo, co, out=out[..., 0])
        np.multiply(xo, so, out=out[..., 1])
        out[..., 0] -= np.multiply(yo, so, out=xo)
        out[..., 1] += np.multiply(yo, co, out=yo)
        return out


def build_walker(spec: ConstellationSpec) -> WalkerConstellation:
    """Validate the shell parameters and construct the constellation."""
    return WalkerConstellation(spec)


def snapshot(constellation: WalkerConstellation, t: float,
             link_config: LinkConfig) -> TopologySnapshot:
    """ISL topology at instant t.

    Emits the intra-orbit rings and the same-slot inter-orbit ISLs of
    adjacent planes that are within range (the wrap-around plane pair counts
    as the seam and follows the cross-seam policy). Ground links are not
    instant links: contact_windows samples them over an interval.

    Links join the constellation's own SatelliteId objects. Every length is
    sqrt(vecdot(d, d)), the dot product np.linalg.norm takes, so delays and
    range decisions equal a per-link norm bit for bit
    (test_snapshot_lengths_match_per_link_norms).
    """
    _require_finite("finite", t=t)
    _require_near_epoch("t", t, constellation.spec.epoch)
    link_config.validate()
    spec, sats = constellation.spec, constellation.satellites
    P, S = spec.num_orbits, spec.sats_per_orbit
    pos = constellation.positions_at(t)
    # ISL ends as satellite indices (orbit * S + slot), with their LinkKind
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
    kinds = tuple(LinkKind)
    links = [Link(kinds[k], (sats[i], sats[j]), rate[k], x / LIGHT_SPEED_KM_S)
             for k, i, j, x in zip(*(v[keep].tolist() for v in (kind, a, b, length)))]
    return TopologySnapshot(time=t, links=tuple(links), positions=dict(zip(sats, pos)))


# Margin below the exact cone bound p* in _visible_samples, in km; rounding
# moves the mask crossing by about 1e-12 km.
_CONE_MARGIN_KM = 1.0

# The sample field of a visible sample's key, and the longest grid (see _visible_samples).
_SAMPLE_MASK = _MAX_SAMPLES = 2**32 - 1

# Samples per sieve block in _visible_samples. Any value >= 1 gives the same
# flags; a larger block tests fewer midpoints but keeps more samples for the
# exact test (at a 5 s LEO step the cone widens by 0.03 of its ~0.3 rad).
_SIEVE_BLOCK = 12
_BLOCK_OFFSETS = np.arange(_SIEVE_BLOCK)

# Station-satellite-samples per sieve chunk in contact_windows: a chunk is the
# most whole blocks that fit, and at least one. Any value gives the same
# windows; it bounds the memory of one call.
_SIEVE_CHUNK = 2**20


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1), computed as it computes it, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


class _StationGeometry:
    """What visibility from one (constellation, stations) pair needs, built
    once and never changed: the stations, validated, with distinct ids (one
    listed twice would carry every window twice) and stations x satellites
    below 2**31 (for the keys); each station's rotation basis (its frame at
    angle theta is cos*(ex, ey, 0) + sin*(-ey, ex, 0) + (0, 0, ez)), mask
    sine, and outer and inner cone angles of _visible_samples before the
    block slack (an inner 0.0 means no inside)."""

    def __init__(self, constellation: WalkerConstellation, stations) -> None:
        self.constellation, self.stations = constellation, tuple(stations)
        if len(self.stations) * constellation.num_satellites >= 2**31:
            raise ValueError("stations x satellites must be below 2**31")
        ids = [st.id for st in self.stations]
        for k, st in enumerate(self.stations):
            st.validate()
            if st.id in ids[:k]:
                raise ValueError(f"station id {st.id!r} listed twice")
        ecef = np.array([st.ecef_km() for st in self.stations]).reshape(-1, 3, 1)
        self.ex, self.ey, self.ez = ecef.transpose(1, 0, 2)  # each (len(stations), 1)
        sin_mask = [math.sin(math.radians(st.min_elevation_deg)) for st in self.stations]
        self.sin_mask = np.array(sin_mask)
        r = constellation.radius_km
        self.outer, self.inner = [], []
        for sm in sin_mask:
            cos2 = 1.0 - sm * sm
            p_star = EARTH_RADIUS_KM * cos2 + sm * math.sqrt(r * r - EARTH_RADIUS_KM**2 * cos2)
            self.outer.append(math.acos(min(1.0, (p_star - _CONE_MARGIN_KM) / r)))
            ratio = (p_star + _CONE_MARGIN_KM) / r
            self.inner.append(math.acos(ratio) if ratio < 1.0 else 0.0)


def _station_frames(geometry: _StationGeometry, times: np.ndarray, epoch: float) -> tuple:
    """Inertial positions (km) and unit zeniths of the geometry's stations at
    times, each shape (len(stations), len(times), 3).

    The one place a station's turn with the Earth is written down, read by
    the visibility test.
    """
    theta = EARTH_ROTATION_RAD_S * (times - epoch)
    c, s = np.cos(theta), np.sin(theta)
    ex, ey = geometry.ex, geometry.ey
    pos = np.empty((len(ex), len(times), 3))
    pos[..., 0] = c * ex - s * ey
    pos[..., 1] = s * ex + c * ey
    pos[..., 2] = geometry.ez
    return pos, pos / _norms(pos)[..., None]


def _kept_blocks(constellation: WalkerConstellation, geometry: _StationGeometry,
                 mid: np.ndarray, zen: np.ndarray, slack: float) -> tuple:
    """The midpoint stage of _visible_samples, apart so that its arrays are
    freed before any per-sample one exists: index arrays (pair, block) of each
    (station * num_satellites + satellite, block) whose midpoint (zeniths zen)
    lies in the outer cone, in that order, and whether it lies in the inner one."""
    r = constellation.radius_km
    outer = [r * math.cos(a + slack) if a + slack < math.pi else -math.inf
             for a in geometry.outer]
    inner = [r * math.cos(a - slack) if a - slack > 0.0 else math.inf for a in geometry.inner]
    p_mid = np.matmul(zen.transpose(1, 0, 2),
                      constellation._positions(mid[:, None], slice(None)).transpose(0, 2, 1))
    # The (blocks, stations, n) flags as (pair, block) rows.
    near = (p_mid >= np.array(outer)[:, None]).transpose(1, 2, 0).reshape(-1, len(mid))
    inside = (p_mid >= np.array(inner)[:, None]).transpose(1, 2, 0).reshape(-1, len(mid))
    pair, block = near.nonzero()
    return pair, block, inside[pair, block]


def _visible_samples(constellation: WalkerConstellation, geometry: _StationGeometry,
                     times: np.ndarray) -> np.ndarray:
    """Sorted int64 keys ((s * num_satellites + i) << 32) | t of the samples
    where satellite i is above the mask of geometry.stations[s] at times[t].
    This is the one visibility test; contact_windows reads it. times must be
    nondecreasing, with fewer than 2**32 samples, and geometry is the
    constellation's (whose stations x satellites is below 2**31, so a key
    fits in int64).

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
    inside when (p* + _CONE_MARGIN_KM) / r >= 1 or psi_in <= 0; a call only
    adds its slack to the geometry's angles. Each kept block expands straight
    into the keys of its samples; only the keys of the rim blocks left are
    decoded, for exact positions and the sine formula, elementwise, so the
    flags equal evaluating it at every sample
    (test_visibility_matches_full_evaluation); no (len(times), n) array is built.
    """
    count = len(times)
    epoch = constellation.spec.epoch
    first = np.arange(0, count, _SIEVE_BLOCK)
    half = 0.5 * (times[np.minimum(first + (_SIEVE_BLOCK - 1), count - 1)] - times[first])
    mid = times[first] + half
    rate = constellation.mean_motion + EARTH_ROTATION_RAD_S
    reach = max(abs(times[0] - epoch), abs(times[-1] - epoch))
    slack = rate * float(half.max()) + 1e-6 + 1e-12 * (4.0 * math.pi + rate * reach)
    # One frame over the samples, then the midpoints: both are elementwise in
    # time, so each sample's bits are those of a frame over the samples alone.
    st_pos, zen = _station_frames(geometry, np.concatenate((times, mid)), epoch)
    pair, block, inside = _kept_blocks(constellation, geometry, mid, zen[:, count:], slack)

    # Each kept (station, satellite, block) expands into its samples' keys, in order.
    keys = (((pair << 32) + block * _SIEVE_BLOCK)[:, None] + _BLOCK_OFFSETS).ravel()
    visible = inside.repeat(_SIEVE_BLOCK)
    del pair, block, inside
    if count % _SIEVE_BLOCK:
        kept = (keys & _SAMPLE_MASK) < count
        keys, visible = keys[kept], visible[kept]
    rim = ~visible
    t = keys[rim]
    s, i = np.divmod(t >> 32, constellation.num_satellites)
    t &= _SAMPLE_MASK
    d = constellation._positions(times[t], i)
    del i
    t += s * (count + len(mid))  # each rim sample's row in the frames
    d -= st_pos.reshape(-1, 3).take(t, axis=0)
    up = np.einsum("ck,ck->c", d, zen.reshape(-1, 3).take(t, axis=0))
    visible[rim] = up / _norms(d) >= geometry.sin_mask[s]
    return keys[visible]


def _grid(start: float, step: float, k: np.ndarray) -> np.ndarray:
    """Samples k (whole numbers) of the grid start + k * step. np.arange(0.0,
    horizon, step) fills its sample k with the product k * step, so these
    equal (start + np.arange(0.0, horizon, step))[k] bit for bit; a chunk
    cut as (start + k0 * step) + np.arange(k1 - k0) * step would not."""
    return start + k * step


def _runs(keys: np.ndarray) -> tuple:
    """The first and the last key of each run of consecutive keys in sorted
    keys, each run one window."""
    if not len(keys):
        return keys, keys
    edge = keys[1:] - keys[:-1] != 1
    return keys[np.concatenate(([True], edge))], keys[np.concatenate((edge, [True]))]


def _grid_length(horizon: float, step: float) -> int:
    """len(np.arange(0.0, horizon, step)) for a positive horizon and step:
    ceil(horizon / step), and one sample when that quotient underflows."""
    return max(1, math.ceil(horizon / step))


def contact_windows(
    constellation: WalkerConstellation,
    stations: tuple,
    horizon: float,
    step: float = 1.0,
    link_config: LinkConfig | None = None,
    start: float = 0.0,
    *,
    _geometry: _StationGeometry | None = None,
    _first: int = 0,
) -> list:
    """Sampled visibility windows for every (satellite, station) pair.

    The interval [start, start+horizon) is sampled every `step` seconds; runs
    of consecutive visible samples become one window reaching one step past
    the last visible sample, so windows for a pair never overlap and always
    have positive duration. Windows are ordered by station, then satellite,
    then time: a window is a run of consecutive keys ((station *
    num_satellites + satellite) << 32) | sample; only its end keys are
    decoded. A grid of at most 2**32 - 1 samples (horizon / step) keeps runs
    of two pairs apart, and stations x satellites below 2**31 keeps keys in
    int64; each limit, and |start - epoch| + horizon <= 1e9 s, is checked
    before any array is built.

    The grid is sieved in chunks of whole _SIEVE_BLOCKs, each of at most
    _SIEVE_CHUNK station-satellite-samples (and at least one block), and no
    whole time grid is built: a chunk's keys become runs at once, offset by
    its first sample, and when the grid takes more than one chunk, a run
    ending on a chunk's last sample joins the pair's run from the next
    chunk's first. The sieve's
    flags are those of full evaluation on any grid and positions are
    elementwise in time, so the windows are those of one whole-grid sieve,
    and one call holds one chunk's stage arrays plus 16 B per run and its
    windows.

    Station ids must be distinct. _geometry, the _StationGeometry of these
    constellation and stations built once by a caller, saves rebuilding it.
    _first, when positive, sieves only the grid's samples from index _first
    on, with the bits they have in the whole grid: the windows are those of
    the whole grid that reach past sample _first, each starting no earlier
    than it (test_a_clipped_grid_gives_the_clipped_windows).
    """
    _require_finite("positive and finite", horizon=horizon, step=step)
    _require_finite("finite", start=start)
    if horizon / step > _MAX_SAMPLES:
        raise ValueError(f"horizon / step exceeds {_MAX_SAMPLES} samples")
    _require_near_epoch("start", start, constellation.spec.epoch, horizon)
    cfg = link_config if link_config is not None else LinkConfig()
    cfg.validate()

    count = _grid_length(horizon, step)
    stations = tuple(stations)
    if count <= _first or not stations:
        return []
    if _geometry is None:
        _geometry = _StationGeometry(constellation, stations)
    elif _geometry.constellation is not constellation or _geometry.stations != stations:
        raise ValueError("the station geometry is of another constellation or other stations")
    pairs = len(stations) * constellation.num_satellites
    width = max(1, _SIEVE_CHUNK // pairs // _SIEVE_BLOCK) * _SIEVE_BLOCK
    firsts, lasts = [], []
    for k0 in range(_first, count, width):
        # The chunk's keys are freed once _runs returns.
        f, l = _runs(_visible_samples(constellation, _geometry, _grid(
            start, step, np.arange(k0, min(k0 + width, count), dtype=float))))
        firsts.append(f + k0)
        lasts.append(l + k0)
    first, last = np.concatenate(firsts), np.concatenate(lasts)
    if len(firsts) > 1:
        # Runs are disjoint key ranges, so sorting starts and ends apart
        # keeps them paired; a pair's runs are then adjacent in time order.
        first.sort()
        last.sort()
        # A run that ends on a chunk's last sample goes on in the next chunk.
        join = last[:-1] + 1 == first[1:]
        first = np.concatenate((first[:1], first[1:][~join]))
        last = np.concatenate((last[:-1][~join], last[-1:]))
    del firsts, lasts
    starts = _grid(start, step, first & _SAMPLE_MASK)
    ends = _grid(start, step, last & _SAMPLE_MASK) + step
    s, i = np.divmod(first >> 32, constellation.num_satellites)
    sats = constellation.satellites
    return [ContactWindow(sats[k], stations[j].id, t0, t1, cfg.sgl_rate_bps)
            for j, k, t0, t1 in zip(s.tolist(), i.tolist(), starts.tolist(), ends.tolist())]
