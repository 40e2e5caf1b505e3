"""Scenario files: strict JSON in, validated objects out.

A scenario or request source is a file path (str or Path), opened and read
as JSON whatever its name, or an object already parsed from JSON.

Unknown fields are rejected with their path, missing required fields are
listed, and parse/serialize round-trips are lossless, so a scenario digest
is stable no matter how many times it is re-serialized.

Each flat section is parsed through one codec whose field table, a
``(name, kind, default)`` row per field, is read from the section's own
dataclass: the annotation gives the kind and a field without a default is
required. Range rules stay in each dataclass's ``validate()``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .constellation import ConstellationSpec, GroundStation, LinkConfig, SatelliteId
from .msdag import Microservice, ServiceDag, validate_dag
from .orchestration import EnergyModel
from .simkernel import ComputeModel, FederationConfig, WorkloadSpec

_REQUIRED = dataclasses.MISSING

# kind -> (the JSON value types it takes, what an error says was expected).
# bool is a subclass of int, so only the bool kind takes true and false.
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "a boolean"),
}


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the field(s)."""


def _load(source):
    """The JSON value in the file at a str or Path; any other source is an
    already parsed object and passes through."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return source


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    return obj


def _require_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise ScenarioError(f"{path}: expected a list")
    return obj


def _check_keys(obj: dict, path: str, names, required) -> None:
    unknown = [k for k in obj if k not in names]
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s): " + ", ".join(
            f"{path}.{k}" for k in sorted(unknown)))
    missing = sorted(k for k in required if k not in obj)
    if missing:
        raise ScenarioError(f"{path}: missing required field(s): " + ", ".join(
            f"{path}.{k}" for k in missing))


def _value(v, kind: str, path: str, name: str):
    types, expected = _KINDS[kind]
    if not isinstance(v, types) or isinstance(v, bool) != (kind == "bool"):
        raise ScenarioError(f"{path}.{name}: expected {expected}")
    if kind not in ("float", "int"):
        return v
    try:
        as_float = float(v)
    except OverflowError:  # a JSON integer beyond the float range
        raise ScenarioError(f"{path}.{name}: must be finite") from None
    return as_float if kind == "float" else v


@functools.cache
def _rows(cls) -> tuple:
    """The (name, kind, default) row of every field of a flat dataclass.

    The section modules postpone annotations, so a field's type is its
    annotation text, which is the kind: "int", "float", "str" or "bool".
    """
    return tuple((f.name, f.type, f.default) for f in dataclasses.fields(cls))


@functools.cache
def _keys(rows) -> tuple:
    """The field names of rows, and the names of the required ones."""
    return (frozenset(name for name, _, _ in rows),
            tuple(name for name, _, default in rows if default is _REQUIRED))


def _decode(obj, path: str, rows) -> dict:
    """Check obj against rows; every row's value, defaults filled in."""
    obj = _require_mapping(obj, path)
    _check_keys(obj, path, *_keys(rows))
    return {name: _value(obj[name], kind, path, name) if name in obj else default
            for name, kind, default in rows}


def _validate(section, path: str) -> None:
    """Run section.validate(), re-raising its failure as a ScenarioError at
    path.field when the message opens with a field's name, else at path."""
    try:
        section.validate()
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name in _keys(_rows(type(section)))[0]:
            raise ScenarioError(f"{path}.{name}: {rest}") from exc
        raise ScenarioError(f"{path}: {exc}") from exc


def _section(cls, obj, path: str):
    """Parse and validate one flat scenario section into cls."""
    section = cls(**_decode(obj, path, _rows(cls)))
    _validate(section, path)
    return section


def _sat(label: str, path: str) -> SatelliteId:
    try:
        return SatelliteId.parse(label)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


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


# Rows for the shapes that are not one dataclass: the host figures that the
# compute section carries for Scenario, DAG edges, and the request file.
_HOST = tuple(row for row in _rows(Scenario)
              if row[0] in ("satellite_memory_bytes", "satellite_energy_budget_j"))
_COMPUTE = _rows(ComputeModel) + _HOST
_EDGE = (("from", "str", _REQUIRED), ("to", "str", _REQUIRED),
         ("payload_bits", "float", _REQUIRED))
_REQUEST = (("task_id", "str", _REQUIRED), ("source", "str", _REQUIRED),
            ("gateway", "str", None), ("hop_payload_bits", "float", None))
_ROOT = ("seed", "constellation", "links", "ground_stations", "workload", "federation",
         "compute", "energy", "tasks", "deployment")


def parse_scenario(source) -> Scenario:
    """Parse and validate a scenario from a file path or a parsed dict."""
    root = _require_mapping(_load(source), "scenario")
    _check_keys(root, "scenario", _ROOT, ("constellation", "workload"))

    constellation = _section(ConstellationSpec, root["constellation"], "constellation")
    link_config = _section(LinkConfig, root.get("links", {}), "links")

    # A station's own dedicated rate wins over the links-level one.
    rate = {"dedicated_rate_bps": link_config.ground_dedicated_rate_bps}
    raw_stations = _require_list(root.get("ground_stations", []), "ground_stations")
    stations = tuple(_section(GroundStation, {**rate, **_require_mapping(entry, path)}, path)
                     for i, entry in enumerate(raw_stations) for path in [f"ground_stations[{i}]"])
    if len({s.id for s in stations}) != len(stations):
        raise ScenarioError("ground_stations: duplicate station ids")

    workload = _section(WorkloadSpec, root["workload"], "workload")
    federation = _section(FederationConfig, root.get("federation", {}), "federation")

    values = _decode(root.get("compute", {}), "compute", _COMPUTE)
    memory = values.pop("satellite_memory_bytes")
    budget = values.pop("satellite_energy_budget_j")
    compute = ComputeModel(**values)
    _validate(compute, "compute")
    if not (math.isfinite(memory) and memory >= 0):
        raise ScenarioError("compute.satellite_memory_bytes: must be nonnegative and finite")
    if not budget >= 0:  # inf, the default, means no budget
        raise ScenarioError("compute.satellite_energy_budget_j: must be nonnegative")

    energy = _section(EnergyModel, root.get("energy", {}), "energy")

    tasks: dict = {}
    t = _require_mapping(root.get("tasks", {}), "tasks")
    _check_keys(t, "tasks", ("library", "active"), ())
    for i, entry in enumerate(_require_list(t.get("library", []), "tasks.library")):
        path = f"tasks.library[{i}]"
        dag = _parse_task(_require_mapping(entry, path), path)
        if dag.task_id in tasks:
            raise ScenarioError(f"{path}: duplicate task id {dag.task_id!r}")
        report = validate_dag(dag)
        if not report.ok:
            raise ScenarioError(f"{path} ({dag.task_id}): " + "; ".join(report.messages))
        tasks[dag.task_id] = dag
    active = t.get("active", list(tasks))
    if not isinstance(active, list) or not all(isinstance(x, str) for x in active):
        raise ScenarioError("tasks.active: expected a list of task ids")
    for tid in active:
        if tid not in tasks:
            raise ScenarioError(f"tasks.active: dangling task id {tid!r}")

    dep = _require_mapping(root.get("deployment", {}), "deployment")
    _check_keys(dep, "deployment", ("satellites",), ())
    dep_sats = None
    if "satellites" in dep:
        raw = dep["satellites"]
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise ScenarioError("deployment.satellites: expected a list of satellite labels")
        parsed = []
        for label in raw:
            sat = _sat(label, "deployment.satellites")
            if (sat.orbit_index >= constellation.num_orbits
                    or sat.slot_index >= constellation.sats_per_orbit):
                raise ScenarioError(
                    f"deployment.satellites: {label} outside the constellation")
            if sat in parsed:
                raise ScenarioError(f"deployment.satellites: {sat} listed twice")
            parsed.append(sat)
        dep_sats = tuple(parsed)

    seed = _value(root["seed"], "int", "scenario", "seed") if "seed" in root else None
    if seed is not None and seed < 0:
        raise ScenarioError("scenario.seed: must be nonnegative")

    return Scenario(
        constellation=constellation,
        link_config=link_config,
        ground_stations=stations,
        workload=workload,
        federation=federation,
        compute=compute,
        energy=energy,
        tasks=tasks,
        task_order=tuple(tasks),
        active_tasks=tuple(active),
        deployment_satellites=dep_sats,
        satellite_memory_bytes=memory,
        satellite_energy_budget_j=budget,
        seed=seed,
    )


def _parse_task(obj: dict, path: str) -> ServiceDag:
    _check_keys(obj, path, ("id", "services", "edges", "exit", "entries"),
                ("id", "services", "edges", "exit"))
    raw_services = _require_list(obj["services"], f"{path}.services")
    services = tuple(Microservice(**_decode(s, f"{path}.services[{j}]", _rows(Microservice)))
                     for j, s in enumerate(raw_services))
    raw_edges = _require_list(obj["edges"], f"{path}.edges")
    edges = tuple(tuple(_decode(e, f"{path}.edges[{j}]", _EDGE).values())
                  for j, e in enumerate(raw_edges))
    if "entries" in obj:
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(x, str) for x in entries):
            raise ScenarioError(f"{path}.entries: expected a list of service ids")
    else:
        with_preds = {v for (_, v, _) in edges}
        entries = [s.id for s in services if s.id not in with_preds]
    return ServiceDag(
        task_id=_value(obj["id"], "str", path, "id"),
        services=services,
        edges=edges,
        entries=tuple(entries),
        exit_node=_value(obj["exit"], "str", path, "exit"),
    )


def serialize_scenario(scenario: Scenario) -> dict:
    """Explicit JSON form; parse(serialize(s)) == s."""
    compute = asdict(scenario.compute)
    compute["satellite_memory_bytes"] = scenario.satellite_memory_bytes
    if scenario.satellite_energy_budget_j != math.inf:
        compute["satellite_energy_budget_j"] = scenario.satellite_energy_budget_j
    out = {
        "constellation": asdict(scenario.constellation),
        "links": asdict(scenario.link_config),
        "ground_stations": [asdict(s) for s in scenario.ground_stations],
        "workload": asdict(scenario.workload),
        "federation": asdict(scenario.federation),
        "compute": compute,
        "energy": asdict(scenario.energy),
        "tasks": {
            "library": [_serialize_task(scenario.tasks[tid]) for tid in scenario.task_order],
            "active": list(scenario.active_tasks),
        },
    }
    if scenario.deployment_satellites is not None:
        out["deployment"] = {
            "satellites": [s.label for s in scenario.deployment_satellites]}
    if scenario.seed is not None:
        out["seed"] = scenario.seed
    return out


def _serialize_task(dag: ServiceDag) -> dict:
    return {
        "id": dag.task_id,
        "services": [asdict(s) for s in dag.services],
        "edges": [{name: v for (name, _, _), v in zip(_EDGE, edge)} for edge in dag.edges],
        "entries": list(dag.entries),
        "exit": dag.exit_node,
    }


def scenario_digest(scenario: Scenario) -> str:
    """sha256 over the canonical serialized form; stable across re-serialization."""
    canonical = json.dumps(serialize_scenario(scenario), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_request(source) -> dict:
    """Parse an orchestration request from a file path or a parsed dict.

    Schema: {"task_id": str, "source": "oPsS", "gateway": "oPsS" | null,
             "hop_payload_bits": number (optional)}.
    """
    req = _require_mapping(_load(source), "request")
    if "gateway" in req and req["gateway"] is None:  # an explicit null means no gateway
        req = {k: v for k, v in req.items() if k != "gateway"}
    out = _decode(req, "request", _REQUEST)
    out["source"] = _sat(out["source"], "request.source")
    if out["gateway"] is not None:
        out["gateway"] = _sat(out["gateway"], "request.gateway")
    bits = out["hop_payload_bits"]
    if bits is not None and not (math.isfinite(bits) and bits >= 0):
        raise ScenarioError("request.hop_payload_bits: must be nonnegative and finite")
    return out
