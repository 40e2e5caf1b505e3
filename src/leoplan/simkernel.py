"""Deterministic round-level simulation of split federated fine-tuning.

Each round walks a fixed phase sequence: satellites embed their local
samples, each orbit gathers the embeddings over its ring, the concatenated
features go down to the cloud encoder and come back, satellites train their
small head locally, orbits aggregate heads over their rings, and the global
model is combined either through the ground (coordinated max-flow downlink
and uplink) or fully in space over disjoint inter-orbit paths, then spread
back around each ring. Latency, bits over radio links, compute, and energy
are accounted per phase; a round that cannot finish a transfer inside the
horizon is flagged incomplete and truncated. Every phase books its seconds,
bits and flops through one ledger helper, which also moves the round clock
by the booked seconds.

A campaign validates its inputs, plans both ring collectives and builds its
station geometry once; the inputs never change between its rounds. Each
ground-link phase samples visibility from the phase's start only as far as
its schedule reaches, with the result of sampling the whole horizon: each
doubling of its span sieves its grid only from just before its first
unscheduled epoch, and the schedule resumes after its last epoch, so no
epoch is scheduled twice. A phase's grid holds at most 2**32 - 1 samples,
stations x satellites stays below 2**31, horizon_seconds /
epoch_seconds is at most sgl_flow._MAX_EPOCHS. Each round must start at a
start_time with |start_time - epoch| + horizon_seconds <= 1e9 s, the
constellation module's time range, so that its clock keeps its seconds;
this is an early reject only. A later phase samples from the round clock,
past start_time, and is held to the range where it samples (contact_windows,
snapshot, schedule_downlink), so an unfrozen round can still be rejected
mid-round (test_a_round_is_held_to_the_time_range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .collective import RingSpec, plan_all_gather, plan_all_reduce
from .constellation import (LIGHT_SPEED_KM_S, LinkConfig, WalkerConstellation, _StationGeometry,
                            _require_near_epoch, contact_windows, snapshot)
from .graph import _require_finite, _total
from .interorbit import build_weighted_graph, parallel_transfer_time, select_disjoint_paths
from .orchestration import EnergyModel
from .sgl_flow import _MAX_EPOCHS, schedule_downlink

GROUND = "ground"
DECENTRALIZED = "decentralized"

PHASES = (
    "embedding_compute",
    "intra_orbit_gather",
    "sgl_down",
    "cloud_encode",
    "sgl_up",
    "local_train",
    "intra_orbit_aggregate",
    "inter_orbit_or_global_aggregate",
    "broadcast",
)


def payload_bits(batch_size: int, embedding_dim: int, precision_bits: int) -> int:
    """Size of one batch of output embeddings, in bits."""
    if batch_size <= 0 or embedding_dim <= 0 or precision_bits <= 0:
        raise ValueError("batch_size, embedding_dim, and precision_bits must be positive")
    return int(batch_size) * int(embedding_dim) * int(precision_bits)


def head_fraction(head_params: int, embedding_params: int, total_params: int) -> float:
    """Fraction of the full model that lives (and trains) on the satellites."""
    if total_params <= 0:
        raise ValueError("total_params must be positive")
    if head_params < 0 or embedding_params < 0:
        raise ValueError("parameter counts must be nonnegative")
    if head_params + embedding_params > total_params:
        raise ValueError("satellite-side parameters exceed the total")
    return (head_params + embedding_params) / total_params


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes of the split model and the per-round training workload."""

    samples_per_satellite: int
    batch_size: int
    embedding_dim: int
    precision_bits: int
    head_params: int
    embedding_params: int
    encoder_params: int
    local_epochs: int = 1
    flops_per_sample_head: float = 1e6

    def validate(self) -> None:
        for name in ("samples_per_satellite", "batch_size", "embedding_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.precision_bits not in (16, 32, 64):
            raise ValueError("precision_bits must be 16, 32, or 64")
        for name in ("head_params", "embedding_params", "encoder_params"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        _require_finite("nonnegative and finite", flops_per_sample_head=self.flops_per_sample_head)

    @property
    def embedding_bits_per_satellite(self) -> int:
        return self.samples_per_satellite * self.embedding_dim * self.precision_bits

    @property
    def head_bits(self) -> int:
        return self.head_params * self.precision_bits


@dataclass(frozen=True)
class FederationConfig:
    rounds: int = 1
    intra_orbit_agg_rounds: int = 1
    aggregation_mode: str = GROUND
    epoch_seconds: float = 60.0
    horizon_seconds: float = 7200.0
    window_step_seconds: float = 1.0
    freeze_topology: bool = False

    def validate(self) -> None:
        for name in ("rounds", "intra_orbit_agg_rounds"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.aggregation_mode not in (GROUND, DECENTRALIZED):
            raise ValueError(f"aggregation_mode must be '{GROUND}' or '{DECENTRALIZED}'")
        _require_finite("positive and finite", epoch_seconds=self.epoch_seconds,
                        horizon_seconds=self.horizon_seconds,
                        window_step_seconds=self.window_step_seconds)
        if self.horizon_seconds / self.epoch_seconds > _MAX_EPOCHS:
            raise ValueError(f"epoch_seconds must leave at most {_MAX_EPOCHS} epochs in "
                             "horizon_seconds")


@dataclass(frozen=True)
class ComputeModel:
    satellite_flops_per_s: float = 1e12
    cloud_flops_per_s: float = 100e12

    def validate(self) -> None:
        _require_finite("positive and finite", satellite_flops_per_s=self.satellite_flops_per_s,
                        cloud_flops_per_s=self.cloud_flops_per_s)


@dataclass(frozen=True)
class SimulationSetup:
    """Everything around the constellation: stations, rates, compute, energy."""

    stations: tuple = ()
    link_config: LinkConfig = field(default_factory=LinkConfig)
    compute: ComputeModel = field(default_factory=ComputeModel)
    energy: EnergyModel = field(default_factory=EnergyModel)


@dataclass
class RoundTrace:
    round_index: int
    start_time: float
    phase_seconds: dict
    phase_bits: dict
    phase_flops: dict
    total_seconds: float
    energy_joules: float
    complete: bool
    ground_delivered_bits: float


@dataclass
class RunAggregate:
    rounds: int
    total_seconds: float
    total_bits: float
    total_flops: float
    total_energy_joules: float
    complete: bool
    phase_second_totals: dict


def _ring_spread_seconds(workload: WorkloadSpec, constellation: WalkerConstellation,
                         link_config: LinkConfig) -> float:
    """Store-and-forward circulation of the head around one ring."""
    s = constellation.spec.sats_per_orbit
    if s < 2:
        return 0.0
    chord_km = 2.0 * constellation.radius_km * math.sin(math.pi / s)
    hop = workload.head_bits / link_config.intra_orbit_rate_bps + chord_km / LIGHT_SPEED_KM_S
    return (s - 1) * hop


def _campaign(config: FederationConfig, constellation: WalkerConstellation,
              workload: WorkloadSpec, setup: SimulationSetup, rounds: int,
              round_index: int, start_time: float) -> list:
    """`rounds` federated rounds back to back, numbered from round_index: the
    first starts at start_time and each later one where the one before ended.

    The inputs are validated, both ring collectives planned and the station
    geometry built once, before the first round; each round runs its phases.
    """
    config.validate()
    workload.validate()
    setup.compute.validate()
    setup.energy.validate()
    geometry = _StationGeometry(constellation, setup.stations)
    spec = constellation.spec
    P, S = spec.num_orbits, spec.sats_per_orbit
    n_sats = P * S
    samples = workload.samples_per_satellite
    gather = reduce = None
    if S >= 2:
        ring = RingSpec.uniform(S, setup.link_config.intra_orbit_rate_bps)
        gather = plan_all_gather(ring, [workload.embedding_bits_per_satellite] * S)
        if workload.head_bits > 0:
            reduce = plan_all_reduce(ring, workload.head_bits)
    spread = _ring_spread_seconds(workload, constellation, setup.link_config)

    def window_start() -> float:
        return spec.epoch if config.freeze_topology else now

    def book(phase: str, secs: float, moved: float = 0.0, work: float = 0.0) -> None:
        """The round's one ledger entry: adds secs, bits moved and flops of
        work to the phase and moves the round clock by secs."""
        nonlocal now
        seconds[phase] += secs
        bits[phase] += moved
        flops[phase] += work
        now += secs

    def flow_phase(phase: str, model_bits_per_orbit: float) -> bool:
        """Run a coordinated SGL transfer; returns False when it misses the horizon.

        Samples visibility one step past the scheduled span, one epoch first,
        then twice the span, until the transfer completes or the span reaches
        the horizon. Each doubling sieves its grid with the campaign's
        geometry from the sample one before the last at or before its first
        unscheduled epoch, and resumes the schedule there with the orbits'
        remaining fractions: a window cut at that sample overlaps every later
        epoch as the whole one does, and a window left out ends a step or more
        before that epoch. Each scheduled epoch sees the windows that full-horizon
        sampling gives it (test_round_matches_full_horizon_sampling).
        """
        horizon, step = config.horizon_seconds, config.window_step_seconds
        span = config.epoch_seconds
        result = None
        while True:
            sampled = span + step
            if sampled >= horizon:
                span = sampled = horizon
            done = 0 if result is None else len(result.epochs)
            first = max(0, int(done * config.epoch_seconds // step) - 1)
            windows = contact_windows(
                constellation, setup.stations, sampled, step=step,
                link_config=setup.link_config, start=window_start(), _geometry=geometry,
                _first=first)
            result = schedule_downlink(
                windows, model_bits_per_orbit, setup.stations, span,
                epoch_seconds=config.epoch_seconds, start_time=window_start(),
                orbits=range(P), _resume=result)
            if result.complete or span == horizon:
                break
            span *= 2
        delivered = _total(_total(e.delivered.values()) for e in result.epochs)
        book(phase, result.epochs_used * config.epoch_seconds if result.complete else horizon,
             delivered * model_bits_per_orbit)
        return result.complete

    def run_phases() -> bool:
        """Walk the phase sequence; returns False once a transfer truncates the round."""
        # Embedding computation on every satellite in parallel.
        embed_flops = 2.0 * workload.embedding_params * samples
        book("embedding_compute", embed_flops / setup.compute.satellite_flops_per_s,
             work=embed_flops * n_sats)
        if gather is not None:  # each orbit concatenates its embeddings over the ring
            book("intra_orbit_gather", gather.completion_time, float(P * gather.total_bits_sent))
        orbit_embedding_bits = float(S * workload.embedding_bits_per_satellite)
        if not flow_phase("sgl_down", orbit_embedding_bits):
            return False
        encode_flops = 2.0 * workload.encoder_params * samples * n_sats
        book("cloud_encode", encode_flops / setup.compute.cloud_flops_per_s, work=encode_flops)
        if not flow_phase("sgl_up", orbit_embedding_bits):
            return False
        train_flops = workload.flops_per_sample_head * samples * workload.local_epochs
        book("local_train", train_flops / setup.compute.satellite_flops_per_s,
             work=train_flops * n_sats)
        if reduce is not None:
            k = config.intra_orbit_agg_rounds
            book("intra_orbit_aggregate", k * reduce.completion_time,
                 float(P * k * reduce.total_bits_sent))

        if workload.head_bits == 0:
            return True  # no head to aggregate or broadcast, as reduce is skipped
        phase, head = "inter_orbit_or_global_aggregate", float(workload.head_bits)
        if config.aggregation_mode == GROUND:
            if not (flow_phase(phase, head) and flow_phase("broadcast", head)):
                return False
        else:
            # Sweep the accumulating head forward across orbits, then back.
            agg = 0.0
            stages = ([(p, p + 1) for p in range(P - 1)]
                      + [(p, p - 1) for p in range(P - 1, 0, -1)])
            if stages:
                topo = snapshot(constellation, window_start(), setup.link_config)
                graph = build_weighted_graph(topo)
                for src, dst in stages:
                    paths = select_disjoint_paths(graph, src, dst)
                    if len(paths) == 0:
                        book(phase, config.horizon_seconds)
                        return False
                    agg += parallel_transfer_time(paths, workload.head_bits)
                    book(phase, 0.0, head)
            book(phase, agg)
        book("broadcast", spread, float(P * max(S - 1, 0) * workload.head_bits))
        return True

    per_bit = setup.energy.e_tx_j_per_bit + setup.energy.e_rx_j_per_bit
    traces = []
    for r in range(round_index, round_index + rounds):
        # An early reject: later phases are checked where they sample.
        _require_near_epoch("start_time", start_time, spec.epoch, config.horizon_seconds)
        seconds = {p: 0.0 for p in PHASES}
        bits = {p: 0.0 for p in PHASES}
        flops = {p: 0.0 for p in PHASES}
        now = start_time
        complete = run_phases()
        energy = per_bit * _total(bits.values()) + setup.energy.e_flop_j * _total(flops.values())
        # Every exit comes after the downlink, so its bits are the ground delivery.
        traces.append(RoundTrace(r, start_time, seconds, bits, flops, _total(seconds.values()),
                                 energy, complete, bits["sgl_down"]))
        start_time = start_time + traces[-1].total_seconds
    return traces


def simulate_round(
    config: FederationConfig,
    constellation: WalkerConstellation,
    workload: WorkloadSpec,
    setup: SimulationSetup,
    round_index: int = 0,
    start_time: float = 0.0,
) -> RoundTrace:
    """The first round of a campaign that starts at start_time.

    Every phase is deterministic, so identical arguments always produce
    identical traces.
    """
    return _campaign(config, constellation, workload, setup, 1, round_index, start_time)[0]


def simulate_fine_tuning(
    config: FederationConfig,
    constellation: WalkerConstellation,
    workload: WorkloadSpec,
    setup: SimulationSetup,
    seed: int = 0,
):
    """Run config.rounds federated rounds back to back from the constellation epoch.

    Returns (traces, RunAggregate); the simulated clock of round k+1 starts
    where round k ended. The rounds are deterministic and draw no random
    numbers, so seed changes nothing; it stays in the signature because the
    CLI and perfbench pass the scenario's seed.
    """
    traces = _campaign(config, constellation, workload, setup, config.rounds, 0,
                       constellation.spec.epoch)
    phase_totals = {p: _total(tr.phase_seconds[p] for tr in traces) for p in PHASES}
    agg = RunAggregate(
        rounds=len(traces),
        total_seconds=_total(tr.total_seconds for tr in traces),
        total_bits=_total(_total(tr.phase_bits.values()) for tr in traces),
        total_flops=_total(_total(tr.phase_flops.values()) for tr in traces),
        total_energy_joules=_total(tr.energy_joules for tr in traces),
        complete=all(tr.complete for tr in traces),
        phase_second_totals=phase_totals,
    )
    return traces, agg
