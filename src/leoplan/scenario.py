"""Scenario files: strict JSON in, validated objects out.

Unknown fields are rejected with their path, missing required fields are
listed, and parse/serialize round-trips are lossless, so a scenario digest
is stable no matter how many times it is re-serialized.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .constellation import ConstellationSpec, GroundStation, LinkConfig, SatelliteId
from .msdag import Microservice, ServiceDag, validate_dag
from .orchestration import EnergyModel
from .simkernel import ComputeModel, FederationConfig, WorkloadSpec


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the field(s)."""


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    return obj


def _check_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    allowed = set(required) | set(optional)
    unknown = sorted(k for k in obj if k not in allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s): " + ", ".join(
            f"{path}.{k}" for k in unknown))
    missing = sorted(k for k in required if k not in obj)
    if missing:
        raise ScenarioError(f"{path}: missing required field(s): " + ", ".join(
            f"{path}.{k}" for k in missing))


def _validate(section, path: str) -> None:
    """Run section.validate(), re-raising its failure as a ScenarioError at path."""
    try:
        section.validate()
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _num(obj: dict, key: str, path: str, default=None) -> float:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number")
    return float(v)


def _int(obj: dict, key: str, path: str, default=None) -> int:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer")
    return v


def _str(obj: dict, key: str, path: str, default=None) -> str:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise ScenarioError(f"{path}.{key}: expected a string")
    return v


def _sat(obj: dict, key: str, path: str) -> SatelliteId:
    label = _str(obj, key, path)
    try:
        return SatelliteId.parse(label)
    except ValueError as exc:
        raise ScenarioError(f"{path}.{key}: {exc}") from exc


def _bool(obj: dict, key: str, path: str, default=None) -> bool:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        raise ScenarioError(f"{path}.{key}: expected a boolean")
    return v


@dataclass(frozen=True)
class Scenario:
    constellation: ConstellationSpec
    link_config: LinkConfig
    ground_stations: tuple
    workload: WorkloadSpec
    federation: FederationConfig
    compute: ComputeModel
    energy: EnergyModel
    tasks: dict = field(compare=False, default_factory=dict)
    task_order: tuple = ()
    active_tasks: tuple = ()
    deployment_satellites: tuple | None = None
    satellite_memory_bytes: float = 8e9
    satellite_energy_budget_j: float = float("inf")
    seed: int | None = None

    def active_dags(self) -> list:
        return [self.tasks[tid] for tid in self.active_tasks]


def parse_scenario(source) -> Scenario:
    """Parse and validate a scenario from a path, JSON text, or parsed dict."""
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    elif isinstance(source, str):
        obj = json.loads(source)
    else:
        obj = source
    root = _require_mapping(obj, "scenario")
    _check_keys(root, "scenario",
                required=("constellation", "workload"),
                optional=("seed", "links", "ground_stations", "federation", "compute",
                          "energy", "tasks", "deployment"))

    c = _require_mapping(root["constellation"], "constellation")
    _check_keys(c, "constellation",
                required=("num_orbits", "sats_per_orbit", "altitude_km", "inclination_deg"),
                optional=("phasing_factor", "epoch"))
    constellation = ConstellationSpec(
        num_orbits=_int(c, "num_orbits", "constellation"),
        sats_per_orbit=_int(c, "sats_per_orbit", "constellation"),
        altitude_km=_num(c, "altitude_km", "constellation"),
        inclination_deg=_num(c, "inclination_deg", "constellation"),
        phasing_factor=_int(c, "phasing_factor", "constellation", 0),
        epoch=_num(c, "epoch", "constellation", 0.0),
    )
    _validate(constellation, "constellation")

    links = _require_mapping(root.get("links", {}), "links")
    _check_keys(links, "links", required=(),
                optional=("intra_orbit_rate_bps", "inter_orbit_rate_bps", "sgl_rate_bps",
                          "ground_dedicated_rate_bps", "max_isl_range_km",
                          "cross_seam_policy"))
    defaults = LinkConfig()
    link_config = LinkConfig(
        intra_orbit_rate_bps=_num(links, "intra_orbit_rate_bps", "links",
                                  defaults.intra_orbit_rate_bps),
        inter_orbit_rate_bps=_num(links, "inter_orbit_rate_bps", "links",
                                  defaults.inter_orbit_rate_bps),
        sgl_rate_bps=_num(links, "sgl_rate_bps", "links", defaults.sgl_rate_bps),
        ground_dedicated_rate_bps=_num(links, "ground_dedicated_rate_bps", "links",
                                       defaults.ground_dedicated_rate_bps),
        max_isl_range_km=_num(links, "max_isl_range_km", "links", defaults.max_isl_range_km),
        cross_seam_policy=_str(links, "cross_seam_policy", "links",
                               defaults.cross_seam_policy),
    )
    _validate(link_config, "links")

    stations = []
    raw_stations = root.get("ground_stations", [])
    if not isinstance(raw_stations, list):
        raise ScenarioError("ground_stations: expected a list")
    for i, entry in enumerate(raw_stations):
        path = f"ground_stations[{i}]"
        st = _require_mapping(entry, path)
        _check_keys(st, path, required=("id", "latitude_deg", "longitude_deg"),
                    optional=("dedicated_rate_bps", "min_elevation_deg"))
        station = GroundStation(
            id=_str(st, "id", path),
            latitude_deg=_num(st, "latitude_deg", path),
            longitude_deg=_num(st, "longitude_deg", path),
            dedicated_rate_bps=_num(st, "dedicated_rate_bps", path, 10e9),
            min_elevation_deg=_num(st, "min_elevation_deg", path, 10.0),
        )
        _validate(station, path)
        stations.append(station)
    if len({s.id for s in stations}) != len(stations):
        raise ScenarioError("ground_stations: duplicate station ids")

    w = _require_mapping(root["workload"], "workload")
    _check_keys(w, "workload",
                required=("samples_per_satellite", "batch_size", "embedding_dim",
                          "precision_bits", "head_params", "embedding_params",
                          "encoder_params"),
                optional=("local_epochs", "flops_per_sample_head"))
    workload = WorkloadSpec(
        samples_per_satellite=_int(w, "samples_per_satellite", "workload"),
        batch_size=_int(w, "batch_size", "workload"),
        embedding_dim=_int(w, "embedding_dim", "workload"),
        precision_bits=_int(w, "precision_bits", "workload"),
        head_params=_int(w, "head_params", "workload"),
        embedding_params=_int(w, "embedding_params", "workload"),
        encoder_params=_int(w, "encoder_params", "workload"),
        local_epochs=_int(w, "local_epochs", "workload", 1),
        flops_per_sample_head=_num(w, "flops_per_sample_head", "workload", 1e6),
    )
    _validate(workload, "workload")

    f = _require_mapping(root.get("federation", {}), "federation")
    _check_keys(f, "federation", required=(),
                optional=("rounds", "intra_orbit_agg_rounds", "aggregation_mode",
                          "epoch_seconds", "horizon_seconds", "window_step_seconds",
                          "freeze_topology"))
    fdefaults = FederationConfig()
    federation = FederationConfig(
        rounds=_int(f, "rounds", "federation", fdefaults.rounds),
        intra_orbit_agg_rounds=_int(f, "intra_orbit_agg_rounds", "federation",
                                    fdefaults.intra_orbit_agg_rounds),
        aggregation_mode=_str(f, "aggregation_mode", "federation",
                              fdefaults.aggregation_mode),
        epoch_seconds=_num(f, "epoch_seconds", "federation", fdefaults.epoch_seconds),
        horizon_seconds=_num(f, "horizon_seconds", "federation", fdefaults.horizon_seconds),
        window_step_seconds=_num(f, "window_step_seconds", "federation",
                                 fdefaults.window_step_seconds),
        freeze_topology=_bool(f, "freeze_topology", "federation", fdefaults.freeze_topology),
    )
    _validate(federation, "federation")

    comp = _require_mapping(root.get("compute", {}), "compute")
    _check_keys(comp, "compute", required=(),
                optional=("satellite_flops_per_s", "cloud_flops_per_s",
                          "satellite_memory_bytes", "satellite_energy_budget_j"))
    cdefaults = ComputeModel()
    compute = ComputeModel(
        satellite_flops_per_s=_num(comp, "satellite_flops_per_s", "compute",
                                   cdefaults.satellite_flops_per_s),
        cloud_flops_per_s=_num(comp, "cloud_flops_per_s", "compute",
                               cdefaults.cloud_flops_per_s),
    )
    _validate(compute, "compute")
    memory = _num(comp, "satellite_memory_bytes", "compute", 8e9)
    budget = _num(comp, "satellite_energy_budget_j", "compute", float("inf"))
    if not (math.isfinite(memory) and memory >= 0):
        raise ScenarioError("compute.satellite_memory_bytes: must be nonnegative and finite")
    if not budget >= 0:  # inf, the default, means no budget
        raise ScenarioError("compute.satellite_energy_budget_j: must be nonnegative")

    en = _require_mapping(root.get("energy", {}), "energy")
    _check_keys(en, "energy", required=(),
                optional=("e_tx_j_per_bit", "e_rx_j_per_bit", "e_flop_j"))
    edefaults = EnergyModel()
    energy = EnergyModel(
        e_tx_j_per_bit=_num(en, "e_tx_j_per_bit", "energy", edefaults.e_tx_j_per_bit),
        e_rx_j_per_bit=_num(en, "e_rx_j_per_bit", "energy", edefaults.e_rx_j_per_bit),
        e_flop_j=_num(en, "e_flop_j", "energy", edefaults.e_flop_j),
    )
    _validate(energy, "energy")

    tasks: dict = {}
    active: tuple = ()
    t = _require_mapping(root.get("tasks", {}), "tasks")
    _check_keys(t, "tasks", required=(), optional=("library", "active"))
    library = t.get("library", [])
    if not isinstance(library, list):
        raise ScenarioError("tasks.library: expected a list")
    for i, entry in enumerate(library):
        path = f"tasks.library[{i}]"
        dag = _parse_task(_require_mapping(entry, path), path)
        if dag.task_id in tasks:
            raise ScenarioError(f"{path}: duplicate task id {dag.task_id!r}")
        report = validate_dag(dag)
        if not report.ok:
            raise ScenarioError(f"{path} ({dag.task_id}): " + "; ".join(report.messages))
        tasks[dag.task_id] = dag
    raw_active = t.get("active", list(tasks))
    if not isinstance(raw_active, list) or not all(isinstance(x, str) for x in raw_active):
        raise ScenarioError("tasks.active: expected a list of task ids")
    for tid in raw_active:
        if tid not in tasks:
            raise ScenarioError(f"tasks.active: dangling task id {tid!r}")
    active = tuple(raw_active)

    dep = _require_mapping(root.get("deployment", {}), "deployment")
    _check_keys(dep, "deployment", required=(), optional=("satellites",))
    dep_sats = None
    if "satellites" in dep:
        raw = dep["satellites"]
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise ScenarioError("deployment.satellites: expected a list of satellite labels")
        parsed = []
        for label in raw:
            try:
                sat = SatelliteId.parse(label)
            except ValueError as exc:
                raise ScenarioError(f"deployment.satellites: {exc}") from exc
            if (sat.orbit_index >= constellation.num_orbits
                    or sat.slot_index >= constellation.sats_per_orbit):
                raise ScenarioError(
                    f"deployment.satellites: {label} outside the constellation")
            parsed.append(sat)
        if len(set(parsed)) != len(parsed):
            twice = next(s for i, s in enumerate(parsed) if s in parsed[:i])
            raise ScenarioError(f"deployment.satellites: {twice} listed twice")
        dep_sats = tuple(parsed)

    seed = _int(root, "seed", "scenario", None)

    return Scenario(
        constellation=constellation,
        link_config=link_config,
        ground_stations=tuple(stations),
        workload=workload,
        federation=federation,
        compute=compute,
        energy=energy,
        tasks=tasks,
        task_order=tuple(tasks),
        active_tasks=active,
        deployment_satellites=dep_sats,
        satellite_memory_bytes=memory,
        satellite_energy_budget_j=budget,
        seed=seed,
    )


def _parse_task(obj: dict, path: str) -> ServiceDag:
    _check_keys(obj, path, required=("id", "services", "edges", "exit"),
                optional=("entries",))
    services = []
    raw_services = obj["services"]
    if not isinstance(raw_services, list):
        raise ScenarioError(f"{path}.services: expected a list")
    for j, s in enumerate(raw_services):
        spath = f"{path}.services[{j}]"
        sv = _require_mapping(s, spath)
        _check_keys(sv, spath, required=("id", "flops", "memory_bytes", "output_bits"),
                    optional=())
        services.append(Microservice(
            id=_str(sv, "id", spath),
            flops=_num(sv, "flops", spath),
            memory_bytes=_num(sv, "memory_bytes", spath),
            output_bits=_num(sv, "output_bits", spath),
        ))
    edges = []
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise ScenarioError(f"{path}.edges: expected a list")
    for j, e in enumerate(raw_edges):
        epath = f"{path}.edges[{j}]"
        ev = _require_mapping(e, epath)
        _check_keys(ev, epath, required=("from", "to", "payload_bits"), optional=())
        edges.append((_str(ev, "from", epath), _str(ev, "to", epath),
                      _num(ev, "payload_bits", epath)))
    known = {s.id for s in services}
    if "entries" in obj:
        raw_entries = obj["entries"]
        if not isinstance(raw_entries, list) or not all(isinstance(x, str) for x in raw_entries):
            raise ScenarioError(f"{path}.entries: expected a list of service ids")
        entries = tuple(raw_entries)
    else:
        with_preds = {v for (_, v, _) in edges}
        entries = tuple(s.id for s in services if s.id not in with_preds)
    del known
    return ServiceDag(
        task_id=_str(obj, "id", path),
        services=tuple(services),
        edges=tuple(edges),
        entries=entries,
        exit_node=_str(obj, "exit", path),
    )


def serialize_scenario(scenario: Scenario) -> dict:
    """Explicit JSON form; parse(serialize(s)) == s."""
    c = scenario.constellation
    out = {
        "constellation": {
            "num_orbits": c.num_orbits,
            "sats_per_orbit": c.sats_per_orbit,
            "altitude_km": c.altitude_km,
            "inclination_deg": c.inclination_deg,
            "phasing_factor": c.phasing_factor,
            "epoch": c.epoch,
        },
        "links": {
            "intra_orbit_rate_bps": scenario.link_config.intra_orbit_rate_bps,
            "inter_orbit_rate_bps": scenario.link_config.inter_orbit_rate_bps,
            "sgl_rate_bps": scenario.link_config.sgl_rate_bps,
            "ground_dedicated_rate_bps": scenario.link_config.ground_dedicated_rate_bps,
            "max_isl_range_km": scenario.link_config.max_isl_range_km,
            "cross_seam_policy": scenario.link_config.cross_seam_policy,
        },
        "ground_stations": [
            {
                "id": s.id,
                "latitude_deg": s.latitude_deg,
                "longitude_deg": s.longitude_deg,
                "dedicated_rate_bps": s.dedicated_rate_bps,
                "min_elevation_deg": s.min_elevation_deg,
            }
            for s in scenario.ground_stations
        ],
        "workload": {
            "samples_per_satellite": scenario.workload.samples_per_satellite,
            "batch_size": scenario.workload.batch_size,
            "embedding_dim": scenario.workload.embedding_dim,
            "precision_bits": scenario.workload.precision_bits,
            "head_params": scenario.workload.head_params,
            "embedding_params": scenario.workload.embedding_params,
            "encoder_params": scenario.workload.encoder_params,
            "local_epochs": scenario.workload.local_epochs,
            "flops_per_sample_head": scenario.workload.flops_per_sample_head,
        },
        "federation": {
            "rounds": scenario.federation.rounds,
            "intra_orbit_agg_rounds": scenario.federation.intra_orbit_agg_rounds,
            "aggregation_mode": scenario.federation.aggregation_mode,
            "epoch_seconds": scenario.federation.epoch_seconds,
            "horizon_seconds": scenario.federation.horizon_seconds,
            "window_step_seconds": scenario.federation.window_step_seconds,
            "freeze_topology": scenario.federation.freeze_topology,
        },
        "compute": {
            "satellite_flops_per_s": scenario.compute.satellite_flops_per_s,
            "cloud_flops_per_s": scenario.compute.cloud_flops_per_s,
            "satellite_memory_bytes": scenario.satellite_memory_bytes,
        },
        "energy": {
            "e_tx_j_per_bit": scenario.energy.e_tx_j_per_bit,
            "e_rx_j_per_bit": scenario.energy.e_rx_j_per_bit,
            "e_flop_j": scenario.energy.e_flop_j,
        },
        "tasks": {
            "library": [_serialize_task(scenario.tasks[tid]) for tid in scenario.task_order],
            "active": list(scenario.active_tasks),
        },
    }
    if scenario.satellite_energy_budget_j != float("inf"):
        out["compute"]["satellite_energy_budget_j"] = scenario.satellite_energy_budget_j
    if scenario.deployment_satellites is not None:
        out["deployment"] = {
            "satellites": [s.label for s in scenario.deployment_satellites]}
    if scenario.seed is not None:
        out["seed"] = scenario.seed
    return out


def _serialize_task(dag: ServiceDag) -> dict:
    return {
        "id": dag.task_id,
        "services": [
            {"id": s.id, "flops": s.flops, "memory_bytes": s.memory_bytes,
             "output_bits": s.output_bits}
            for s in dag.services
        ],
        "edges": [
            {"from": u, "to": v, "payload_bits": bits} for (u, v, bits) in dag.edges
        ],
        "entries": list(dag.entries),
        "exit": dag.exit_node,
    }


def scenario_digest(scenario: Scenario) -> str:
    """sha256 over the canonical serialized form; stable across re-serialization."""
    canonical = json.dumps(serialize_scenario(scenario), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_request(source) -> dict:
    """Parse an orchestration request file.

    Schema: {"task_id": str, "source": "oPsS", "gateway": "oPsS" | null,
             "hop_payload_bits": number (optional)}.
    """
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    elif isinstance(source, str):
        obj = json.loads(source)
    else:
        obj = source
    req = _require_mapping(obj, "request")
    _check_keys(req, "request", required=("task_id", "source"),
                optional=("gateway", "hop_payload_bits"))
    out = {
        "task_id": _str(req, "task_id", "request"),
        "source": _sat(req, "source", "request"),
        "gateway": None,
        "hop_payload_bits": _num(req, "hop_payload_bits", "request", None),
    }
    if req.get("gateway") is not None:
        out["gateway"] = _sat(req, "gateway", "request")
    return out
