import copy
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoplan import (
    ComputeModel,
    ConstellationSpec,
    EnergyModel,
    FederationConfig,
    GroundStation,
    LinkConfig,
    Microservice,
    SatelliteId,
    ScenarioError,
    WorkloadSpec,
    build_walker,
    contact_windows,
    parse_request,
    parse_scenario,
    scenario_digest,
    schedule_downlink,
    serialize_scenario,
)
from leoplan.constellation import MAX_ALTITUDE_KM
from leoplan.simkernel import MAX_ROUNDS


def minimal():
    return {
        "constellation": {"num_orbits": 1, "sats_per_orbit": 1,
                          "altitude_km": 550.0, "inclination_deg": 0.0},
        "workload": {"samples_per_satellite": 10, "batch_size": 10,
                     "embedding_dim": 16, "precision_bits": 32,
                     "head_params": 100, "embedding_params": 1000,
                     "encoder_params": 100000},
    }


def full():
    obj = minimal()
    obj["constellation"].update(num_orbits=2, sats_per_orbit=3,
                                inclination_deg=53.0, phasing_factor=1)
    obj["seed"] = 7
    obj["links"] = {"sgl_rate_bps": 2e9, "cross_seam_policy": "enabled"}
    obj["ground_stations"] = [
        {"id": "gs-a", "latitude_deg": 10.0, "longitude_deg": 20.0},
        {"id": "gs-b", "latitude_deg": -30.0, "longitude_deg": 40.0,
         "dedicated_rate_bps": 5e9, "min_elevation_deg": 15.0},
    ]
    obj["federation"] = {"rounds": 3, "aggregation_mode": "decentralized",
                         "freeze_topology": True}
    obj["compute"] = {"satellite_flops_per_s": 2e12,
                      "satellite_memory_bytes": 4e9,
                      "satellite_energy_budget_j": 50.0}
    obj["energy"] = {"e_tx_j_per_bit": 2e-9}
    obj["tasks"] = {
        "library": [
            {"id": "t1",
             "services": [
                 {"id": "a", "flops": 1e9, "memory_bytes": 1e6, "output_bits": 1e5},
                 {"id": "b", "flops": 2e9, "memory_bytes": 2e6, "output_bits": 0.0},
             ],
             "edges": [{"from": "a", "to": "b", "payload_bits": 8e5}],
             "exit": "b"},
        ],
        "active": ["t1"],
    }
    obj["deployment"] = {"satellites": ["o0s0", "o1s2"]}
    return obj


def test_minimal_scenario_defaults():
    s = parse_scenario(minimal())
    assert s.constellation.num_orbits == 1
    assert s.link_config == LinkConfig()
    assert s.ground_stations == ()
    assert s.federation == FederationConfig()
    assert s.compute == ComputeModel()
    assert s.energy == EnergyModel()
    assert s.workload.local_epochs == WorkloadSpec.local_epochs
    assert s.workload.flops_per_sample_head == WorkloadSpec.flops_per_sample_head
    assert s.satellite_memory_bytes == 8e9
    assert s.satellite_energy_budget_j == float("inf")
    assert s.seed is None
    assert s.tasks == {}
    assert s.active_tasks == ()
    assert s.deployment_satellites is None


def test_full_scenario_fields():
    s = parse_scenario(full())
    assert s.seed == 7
    assert s.link_config.sgl_rate_bps == 2e9
    assert s.link_config.cross_seam_policy == "enabled"
    assert [g.id for g in s.ground_stations] == ["gs-a", "gs-b"]
    assert s.ground_stations[1].min_elevation_deg == 15.0
    assert s.ground_stations[0] == GroundStation("gs-a", 10.0, 20.0)
    assert s.federation.rounds == 3
    assert s.federation.aggregation_mode == "decentralized"
    assert s.satellite_energy_budget_j == 50.0
    assert s.satellite_memory_bytes == 4e9
    assert s.task_order == ("t1",)
    assert s.active_tasks == ("t1",)
    assert s.deployment_satellites == (SatelliteId(0, 0), SatelliteId(1, 2))
    dag = s.tasks["t1"]
    assert dag.entries == ("a",)
    assert dag.exit_node == "b"
    assert [m.id for m in dag.services] == ["a", "b"]
    assert s.active_dags() == [dag]


def test_negative_seed_is_rejected_at_its_path():
    obj = minimal()
    obj["seed"] = -1
    with pytest.raises(ScenarioError) as info:
        parse_scenario(obj)
    assert str(info.value) == "scenario.seed: must be nonnegative"
    obj["seed"] = 0
    assert parse_scenario(obj).seed == 0


def test_parse_accepts_dict_and_path(tmp_path, monkeypatch):
    """A str or Path source is a file path, even one whose name opens with
    "{" (once taken for JSON text); any other source is a parsed object."""
    obj = full()
    from_dict = parse_scenario(obj)
    (tmp_path / "{scn}.json").write_text(json.dumps(obj), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    from_path = parse_scenario(Path("{scn}.json"))
    assert from_dict == from_path == parse_scenario("{scn}.json")
    assert scenario_digest(from_dict) == scenario_digest(from_path)
    (tmp_path / "{req}.json").write_text('{"task_id": "t1", "source": "o0s0"}',
                                         encoding="utf-8")
    assert parse_request("{req}.json") == parse_request({"task_id": "t1", "source": "o0s0"})
    with pytest.raises(FileNotFoundError):
        parse_scenario('{"constellation": {}}')


def test_round_trip_is_lossless():
    s = parse_scenario(full())
    again = parse_scenario(serialize_scenario(s))
    assert again == s
    assert again.tasks["t1"] == s.tasks["t1"]
    assert scenario_digest(again) == scenario_digest(s)
    assert len(scenario_digest(s)) == 64
    # a changed field changes the digest
    mutated = full()
    mutated["workload"]["batch_size"] = 20
    assert scenario_digest(parse_scenario(mutated)) != scenario_digest(s)


def test_unknown_and_missing_fields():
    obj = minimal()
    obj["extra"] = 1
    with pytest.raises(ScenarioError, match=r"scenario: unknown field\(s\): scenario.extra"):
        parse_scenario(obj)
    obj = minimal()
    del obj["workload"]
    with pytest.raises(ScenarioError,
                       match=r"scenario: missing required field\(s\): scenario.workload"):
        parse_scenario(obj)
    obj = minimal()
    obj["constellation"]["foo"] = 1
    with pytest.raises(ScenarioError, match=r"constellation: unknown field\(s\): constellation.foo"):
        parse_scenario(obj)


def test_type_errors():
    obj = minimal()
    obj["constellation"]["num_orbits"] = 1.5
    with pytest.raises(ScenarioError, match="constellation.num_orbits: expected an integer"):
        parse_scenario(obj)
    obj = minimal()
    obj["constellation"]["num_orbits"] = True
    with pytest.raises(ScenarioError, match="constellation.num_orbits: expected an integer"):
        parse_scenario(obj)
    obj = minimal()
    obj["links"] = {"sgl_rate_bps": "fast"}
    with pytest.raises(ScenarioError, match="links.sgl_rate_bps: expected a number"):
        parse_scenario(obj)
    obj = minimal()
    obj["federation"] = {"freeze_topology": 1}
    with pytest.raises(ScenarioError, match="federation.freeze_topology: expected a boolean"):
        parse_scenario(obj)
    obj = minimal()
    obj["constellation"] = []
    with pytest.raises(ScenarioError, match="constellation: expected an object"):
        parse_scenario(obj)
    obj = minimal()
    obj["constellation"]["altitude_km"] = 10**400
    with pytest.raises(ScenarioError, match="constellation.altitude_km: must be finite"):
        parse_scenario(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("section, name", [("constellation", "num_orbits"),
                                           ("workload", "head_params")])
def test_int_beyond_float_range_is_rejected(section, name):
    # Int fields meet float arithmetic downstream, so they must fit a float.
    obj = minimal()
    obj[section][name] = 10**400
    with pytest.raises(ScenarioError, match=f"{section}.{name}: must be finite"):
        parse_scenario(json.loads(json.dumps(obj)))


def test_station_errors():
    obj = minimal()
    obj["ground_stations"] = {"id": "gs"}
    with pytest.raises(ScenarioError, match="ground_stations: expected a list"):
        parse_scenario(obj)
    obj["ground_stations"] = [{"id": "gs", "longitude_deg": 0.0}]
    with pytest.raises(ScenarioError,
                       match=r"ground_stations\[0\]: missing required field\(s\): "
                             r"ground_stations\[0\].latitude_deg"):
        parse_scenario(obj)
    obj["ground_stations"] = [
        {"id": "gs", "latitude_deg": 0.0, "longitude_deg": 0.0},
        {"id": "gs", "latitude_deg": 1.0, "longitude_deg": 1.0},
    ]
    with pytest.raises(ScenarioError, match="ground_stations: duplicate station ids"):
        parse_scenario(obj)


@pytest.mark.parametrize("section, key, value, message", [
    ("constellation", "num_orbits", 0, "constellation.num_orbits: must be >= 1"),
    ("links", "sgl_rate_bps", -1.0, "links.sgl_rate_bps: must be positive and finite"),
    ("workload", "precision_bits", 8, "workload.precision_bits: must be 16, 32, or 64"),
    ("federation", "rounds", 0, "federation.rounds: must be positive"),
    ("compute", "satellite_flops_per_s", 0.0,
     "compute.satellite_flops_per_s: must be positive and finite"),
    ("energy", "e_tx_j_per_bit", -1.0, "energy.e_tx_j_per_bit: must be nonnegative and finite"),
])
def test_semantic_errors_name_their_section(section, key, value, message):
    obj = minimal()
    obj.setdefault(section, {})[key] = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(obj)
    assert str(info.value) == message


def test_epoch_count_is_bounded():
    """horizon_seconds / epoch_seconds may reach 100,000 epochs and not pass it."""
    obj = minimal()
    obj["federation"] = {"horizon_seconds": 1e5, "epoch_seconds": 1.0}
    assert parse_scenario(obj).federation.epoch_seconds == 1.0
    for epoch in (math.nextafter(1.0, 0.0), 1e-300):
        obj["federation"]["epoch_seconds"] = epoch
        with pytest.raises(ScenarioError) as info:
            parse_scenario(obj)
        assert str(info.value) == ("federation.epoch_seconds: must leave at most 100000 "
                                   "epochs in horizon_seconds")


@pytest.mark.parametrize("slots", [1000, 1001])
def test_ring_size_is_bounded(slots):
    """constellation.sats_per_orbit may reach 1,000, a ring whose all-reduce
    plans about 2e6 steps, and not pass it."""
    obj = minimal()
    obj["constellation"]["sats_per_orbit"] = slots
    if slots <= 1000:
        assert parse_scenario(obj).constellation.sats_per_orbit == slots
        return
    with pytest.raises(ScenarioError) as info:
        parse_scenario(obj)
    assert str(info.value) == "constellation.sats_per_orbit: must be at most 1000"


@pytest.mark.parametrize("rounds", [MAX_ROUNDS, MAX_ROUNDS + 1])
def test_round_count_is_bounded(rounds):
    """federation.rounds may reach MAX_ROUNDS (10,000), which `leoplan
    simulate` runs in about 18 s and 80 MB on the demo shell, and not pass
    it; checked at parse time, before any round runs."""
    obj = minimal()
    obj["federation"] = {"rounds": rounds}
    if rounds <= MAX_ROUNDS:
        assert parse_scenario(obj).federation.rounds == rounds
        return
    with pytest.raises(ScenarioError) as info:
        parse_scenario(obj)
    assert str(info.value) == "federation.rounds: must be at most 10000"


@pytest.mark.parametrize("altitude", [MAX_ALTITUDE_KM, math.nextafter(MAX_ALTITUDE_KM, math.inf),
                                      1e120])
def test_altitude_is_bounded(altitude):
    """constellation.altitude_km may reach MAX_ALTITUDE_KM (40,000 km), the
    highest shell the visibility sieve's margin is argued for, and not pass
    it."""
    obj = minimal()
    obj["constellation"]["altitude_km"] = altitude
    if altitude <= MAX_ALTITUDE_KM:
        assert parse_scenario(obj).constellation.altitude_km == altitude
        return
    with pytest.raises(ScenarioError) as info:
        parse_scenario(obj)
    assert str(info.value) == "constellation.altitude_km: must be at most 40000 km"


def test_epoch_is_bounded():
    """constellation.epoch may lie 1e9 s from 0 on either side, and no further."""
    obj = minimal()
    for epoch in (-1e9, 1e9):
        obj["constellation"]["epoch"] = epoch
        assert parse_scenario(obj).constellation.epoch == epoch
        obj["constellation"]["epoch"] = math.nextafter(epoch, math.copysign(math.inf, epoch))
        with pytest.raises(ScenarioError) as info:
            parse_scenario(obj)
        assert str(info.value) == "constellation.epoch: must be within 1e9 s of 0"


def test_semantic_station_error_names_its_index():
    obj = minimal()
    obj["ground_stations"] = [
        {"id": "gs-a", "latitude_deg": 0.0, "longitude_deg": 0.0},
        {"id": "gs-b", "latitude_deg": 0.0, "longitude_deg": 0.0, "min_elevation_deg": 90.0},
        {"id": "gs-c", "latitude_deg": 91.0, "longitude_deg": 0.0},
    ]
    with pytest.raises(ScenarioError) as info:
        parse_scenario(obj)
    assert str(info.value) == "ground_stations[1].min_elevation_deg: must be in [0, 90)"


def test_task_errors():
    obj = full()
    obj["tasks"]["library"].append(copy.deepcopy(obj["tasks"]["library"][0]))
    with pytest.raises(ScenarioError, match=r"tasks.library\[1\]: duplicate task id 't1'"):
        parse_scenario(obj)
    obj = full()
    obj["tasks"]["active"] = ["nope"]
    with pytest.raises(ScenarioError, match="tasks.active: dangling task id 'nope'"):
        parse_scenario(obj)
    obj = full()
    # cyclic dag fails structural validation with the task named in the path
    obj["tasks"]["library"][0]["edges"].append(
        {"from": "b", "to": "a", "payload_bits": 1.0})
    with pytest.raises(ScenarioError, match=r"tasks.library\[0\] \(t1\): "):
        parse_scenario(obj)
    obj = full()
    del obj["tasks"]["active"]
    assert parse_scenario(obj).active_tasks == ("t1",)


def test_deployment_errors():
    obj = full()
    obj["deployment"]["satellites"] = ["x1"]
    with pytest.raises(ScenarioError, match="deployment.satellites: not a satellite label"):
        parse_scenario(obj)
    obj["deployment"]["satellites"] = ["o5s0"]
    with pytest.raises(ScenarioError,
                       match="deployment.satellites: o5s0 outside the constellation"):
        parse_scenario(obj)
    obj["deployment"]["satellites"] = "o0s0"
    with pytest.raises(ScenarioError,
                       match="deployment.satellites: expected a list of satellite labels"):
        parse_scenario(obj)


def test_repeated_deployment_satellite_rejected():
    obj = full()
    obj["deployment"]["satellites"] = ["o0s1", "o1s0", "o0s1"]
    with pytest.raises(ScenarioError, match="deployment.satellites: o0s1 listed twice"):
        parse_scenario(obj)


def test_bundled_scenarios_parse():
    demo = parse_scenario("scenarios/demo_walker6.json")
    assert demo.constellation.num_orbits == 6
    assert demo.constellation.sats_per_orbit == 11
    assert len(demo.ground_stations) == 5
    assert demo.federation.rounds == 10
    assert scenario_digest(parse_scenario(serialize_scenario(demo))) == scenario_digest(demo)

    shared = parse_scenario("scenarios/two_task_sharing.json")
    assert len(shared.active_tasks) == 2
    assert shared.deployment_satellites is not None
    assert scenario_digest(parse_scenario(serialize_scenario(shared))) == scenario_digest(shared)


def _head_downlink_epochs(scn) -> int:
    """Epochs the head payload takes to reach the ground, as `leoplan downlink`
    schedules it."""
    fed, start = scn.federation, scn.constellation.epoch
    windows = contact_windows(build_walker(scn.constellation), scn.ground_stations,
                              fed.horizon_seconds, step=fed.window_step_seconds,
                              link_config=scn.link_config, start=start)
    result = schedule_downlink(windows, float(scn.workload.head_bits), scn.ground_stations,
                               fed.horizon_seconds, epoch_seconds=fed.epoch_seconds,
                               start_time=start, orbits=range(scn.constellation.num_orbits))
    assert result.complete
    return result.epochs_used


def test_links_dedicated_rate_is_every_station_default():
    with open("scenarios/demo_walker6.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    assert _head_downlink_epochs(parse_scenario(obj)) == 1
    obj["links"]["ground_dedicated_rate_bps"] = 1e4
    slow = parse_scenario(obj)
    assert {g.dedicated_rate_bps for g in slow.ground_stations} == {1e4}
    assert _head_downlink_epochs(slow) == 8
    assert parse_scenario(serialize_scenario(slow)) == slow

    obj["ground_stations"][1]["dedicated_rate_bps"] = 5e9
    own = parse_scenario(obj)
    assert [g.dedicated_rate_bps for g in own.ground_stations] == [1e4, 5e9, 1e4, 1e4, 1e4]
    assert GroundStation("gs", 0.0, 0.0).dedicated_rate_bps == 10e9


def test_parse_request():
    req = parse_request({"task_id": "t1", "source": "o0s0"})
    assert req == {"task_id": "t1", "source": SatelliteId(0, 0),
                   "gateway": None, "hop_payload_bits": None}
    req = parse_request({"task_id": "t1", "source": "o0s0",
                         "gateway": "o1s2", "hop_payload_bits": 4e6})
    assert req["gateway"] == SatelliteId(1, 2)
    assert req["hop_payload_bits"] == 4e6
    assert parse_request({"task_id": "t", "source": "o0s0", "gateway": None})["gateway"] is None
    with pytest.raises(ScenarioError, match=r"request: missing required field\(s\): request.source"):
        parse_request({"task_id": "t"})
    with pytest.raises(ScenarioError, match=r"request: unknown field\(s\): request.foo"):
        parse_request({"task_id": "t", "source": "o0s0", "foo": 1})
    with pytest.raises(ValueError, match="not a satellite label"):
        parse_request({"task_id": "t", "source": "sat-3"})


@pytest.mark.parametrize("key", ["source", "gateway"])
def test_request_bad_satellite_label_names_its_field(key):
    req = {"task_id": "t", "source": "o0s0", key: "x9"}
    with pytest.raises(ScenarioError) as info:
        parse_request(req)
    assert str(info.value) == f"request.{key}: not a satellite label: 'x9'"


@pytest.mark.parametrize("key, value, message", [
    ("satellite_memory_bytes", float("nan"), "must be nonnegative and finite"),
    ("satellite_memory_bytes", float("inf"), "must be nonnegative and finite"),
    ("satellite_memory_bytes", -1.0, "must be nonnegative and finite"),
    ("satellite_energy_budget_j", float("nan"), "must be nonnegative"),
    ("satellite_energy_budget_j", -5.0, "must be nonnegative"),
    ("satellite_energy_budget_j", float("-inf"), "must be nonnegative"),
])
def test_compute_host_figures_are_checked(key, value, message):
    obj = minimal()
    obj["compute"] = {key: value}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.loads(json.dumps(obj)))
    assert str(info.value) == f"compute.{key}: {message}"


def test_compute_infinite_energy_budget_means_none():
    obj = minimal()
    obj["compute"] = {"satellite_energy_budget_j": float("inf")}
    assert parse_scenario(json.loads(json.dumps(obj))).satellite_energy_budget_j == float("inf")


@pytest.mark.parametrize("value", [-3.0, float("nan"), float("inf")])
def test_request_hop_payload_bits_is_checked(value):
    with pytest.raises(ScenarioError) as info:
        parse_request({"task_id": "t", "source": "o0s0", "hop_payload_bits": value})
    assert str(info.value) == "request.hop_payload_bits: must be nonnegative and finite"


_FLAT = {"constellation": ConstellationSpec, "links": LinkConfig,
         "ground_stations[0]": GroundStation, "workload": WorkloadSpec,
         "federation": FederationConfig, "compute": ComputeModel, "energy": EnergyModel}
# (where, field, kind) of every field of a flat section, the compute
# section's host figures included.
_FLAT_FIELDS = [(where, f.name, f.type) for where, cls in _FLAT.items()
                for f in dataclasses.fields(cls)] + [
    ("compute", "satellite_memory_bytes", "float"),
    ("compute", "satellite_energy_budget_j", "float")]


def _non_finite_cases():
    """(where, field, value) for NaN, inf and -inf in every float field a
    scenario file can set; an infinite energy budget is valid (no budget)."""
    fields = [(where, name) for where, name, kind in _FLAT_FIELDS if kind == "float"]
    fields += [("tasks.library[0].services[0]", f.name)
               for f in dataclasses.fields(Microservice) if f.type == "float"]
    fields += [("tasks.library[0].edges[0]", "payload_bits")]
    return [(where, name, value) for where, name in fields
            for value in (math.nan, math.inf, -math.inf)
            if (name, value) != ("satellite_energy_budget_j", math.inf)]


def _at(obj: dict, where: str) -> dict:
    """The dict inside obj at a path such as tasks.library[0].edges[0]."""
    for part in where.split("."):
        key, _, index = part.partition("[")
        obj = obj[key]
        if index:
            obj = obj[int(index.rstrip("]"))]
    return obj


@pytest.mark.parametrize("where, name, value", _non_finite_cases())
def test_non_finite_numbers_are_rejected_with_their_field(where, name, value):
    obj = full()
    _at(obj, where)[name] = value
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.loads(json.dumps(obj)))
    message = str(info.value)
    # a task's errors are reported at the task, naming the service or edge
    section = "tasks.library[0]" if where.startswith("tasks") else where
    assert message.startswith(section), message
    assert re.search(rf"\b{name}\b", message), message


# The impossible-looking values that are valid: an epoch, latitude or
# longitude of -1, and an infinite energy budget (no budget).
_VALID_ODD = {("epoch", -1.0), ("latitude_deg", -1.0), ("longitude_deg", -1.0),
              ("satellite_energy_budget_j", math.inf)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("where, name", [(where, name) for where, name, kind in _FLAT_FIELDS
                                         if kind == "float"] + [
    ("tasks.library[0].services[0]", f.name)
    for f in dataclasses.fields(Microservice) if f.type == "float"])
def test_every_float_field_rejects_bad_values_at_its_path(where, name, value):
    """NaN, +-inf and -1 in a float field fail with a message that opens with
    the field's path (a microservice's: its task's path, then the service
    and field), unless the value is valid there."""
    obj = full()
    _at(obj, where)[name] = value
    if (name, value) in _VALID_ODD:
        parse_scenario(json.loads(json.dumps(obj)))
        return
    with pytest.raises(ScenarioError) as info:
        parse_scenario(json.loads(json.dumps(obj)))
    prefix = (f"tasks.library[0] (t1): microservice a: {name} must be "
              if where.startswith("tasks") else f"{where}.{name}: ")
    assert str(info.value).startswith(prefix), str(info.value)


# Per kind, values of any other JSON type.
_WRONG_TYPE = {"int": ["1", 1.5, True, None, [1], {"x": 1}],
               "float": ["1.5", True, None, [1.5], {"x": 1.5}],
               "str": [1, 1.5, True, None, ["a"], {"x": "a"}],
               "bool": ["true", 0, 1.5, None, [True], {"x": True}]}


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(_FLAT_FIELDS), data=st.data(),
       negative=st.one_of(st.integers(max_value=-1),
                          st.floats(max_value=-5e-324, allow_nan=False, allow_infinity=False)))
def test_flat_field_errors_start_with_their_field_path(field, data, negative):
    """A value of the wrong type and a negative number, in any field of a
    flat section, each parse or fail at that field's path."""
    where, name, kind = field
    for value in (data.draw(st.sampled_from(_WRONG_TYPE[kind])), negative):
        obj = full()
        _at(obj, where)[name] = value
        try:
            parse_scenario(json.loads(json.dumps(obj)))
        except ScenarioError as exc:
            assert str(exc).startswith(f"{where}.{name}: "), str(exc)


def _num(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def scenarios(draw):
    """Valid scenario dicts, each optional field present or left to its default."""
    def some(**fields):
        return draw(st.fixed_dictionaries({}, optional=fields))

    orbits = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 4))
    obj = {
        "constellation": {
            "num_orbits": orbits, "sats_per_orbit": slots,
            "altitude_km": draw(_num(200.0, 2000.0) | st.integers(200, 2000)),
            "inclination_deg": draw(_num(0.0, 180.0)),
            **some(phasing_factor=st.integers(0, orbits - 1), epoch=_num(-1e6, 1e6))},
        "links": some(intra_orbit_rate_bps=_num(1.0, 1e12), inter_orbit_rate_bps=_num(1.0, 1e12),
                      sgl_rate_bps=_num(1.0, 1e12), ground_dedicated_rate_bps=_num(1.0, 1e12),
                      max_isl_range_km=_num(1.0, 1e5),
                      cross_seam_policy=st.sampled_from(["disabled", "enabled"])),
        "ground_stations": [
            {"id": f"gs{i}", "latitude_deg": draw(_num(-90.0, 90.0)),
             "longitude_deg": draw(_num(-180.0, 180.0)),
             **some(dedicated_rate_bps=_num(1.0, 1e12),
                    min_elevation_deg=_num(0.0, 90.0, exclude_max=True))}
            for i in range(draw(st.integers(0, 3)))],
        "workload": {
            "samples_per_satellite": draw(st.integers(1, 1000)),
            "batch_size": draw(st.integers(1, 1000)),
            "embedding_dim": draw(st.integers(1, 1000)),
            "precision_bits": draw(st.sampled_from([16, 32, 64])),
            "head_params": draw(st.integers(0, 10**9)),
            "embedding_params": draw(st.integers(0, 10**9)),
            "encoder_params": draw(st.integers(0, 10**9)),
            **some(local_epochs=st.integers(1, 5), flops_per_sample_head=_num(0.0, 1e12))},
        "federation": some(rounds=st.integers(1, 5), intra_orbit_agg_rounds=st.integers(1, 5),
                           aggregation_mode=st.sampled_from(["ground", "decentralized"]),
                           epoch_seconds=_num(1.0, 1e4), horizon_seconds=_num(1e-3, 1e5),
                           window_step_seconds=_num(1e-3, 1e3), freeze_topology=st.booleans()),
        "compute": some(satellite_flops_per_s=_num(1.0, 1e15), cloud_flops_per_s=_num(1.0, 1e15),
                        satellite_memory_bytes=_num(0.0, 1e12),
                        satellite_energy_budget_j=_num(0.0, 1e6) | st.just(math.inf)),
        "energy": some(e_tx_j_per_bit=_num(0.0, 1.0), e_rx_j_per_bit=_num(0.0, 1.0),
                       e_flop_j=_num(0.0, 1.0)),
    }
    n = draw(st.integers(0, 4))
    if n:
        ids = [f"m{i}" for i in range(n)]
        obj["tasks"] = {"library": [{
            "id": "t",
            "services": [{"id": sid, "flops": draw(_num(0.0, 1e12)),
                          "memory_bytes": draw(_num(0.0, 1e10)),
                          "output_bits": draw(_num(0.0, 1e9))} for sid in ids],
            "edges": [{"from": u, "to": v, "payload_bits": draw(_num(0.0, 1e9))}
                      for u, v in zip(ids, ids[1:])],
            "exit": ids[-1]}]}
    labels = [f"o{p}s{s}" for p in range(orbits) for s in range(slots)]
    if draw(st.booleans()):
        obj["deployment"] = {"satellites": draw(st.lists(st.sampled_from(labels),
                                                         unique=True))}
    if draw(st.booleans()):
        obj["seed"] = draw(st.integers(0, 2**31))
    return obj


@settings(max_examples=60, deadline=None)
@given(obj=scenarios())
def test_serialize_parse_serialize_is_a_fixed_point(obj):
    parsed = parse_scenario(obj)
    once = serialize_scenario(parsed)
    again = parse_scenario(json.loads(json.dumps(once)))
    assert again == parsed
    assert serialize_scenario(again) == once
    assert scenario_digest(again) == scenario_digest(parsed)
