"""Seeded inputs, the timed operation, output checks and canonical output of
each benchmark workload.

An op's input is a scenario dict plus the request parameters a CLI user
passes as flags. The op feeds the dict through ``scenario.parse_scenario``,
the path a scenario file takes, so the generator never hands leoplan a
prebuilt object. Every leoplan call goes through a module attribute
(``constellation.contact_windows(...)``, never a bare imported name) so the
layer trace in ``layers.py`` can wrap it from outside.

The same (workload, seed, op index) always yields the same input, and every
op index yields a different one, so memoising across calls cannot pass for a
speed-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from leoplan import (constellation, deployment, interorbit, msdag, orchestration, scenario,
                     sgl_flow, simkernel)

ROOT = Path(__file__).resolve().parents[1]
DEMO_SCENARIO = ROOT / "scenarios" / "demo_walker6.json"

# Relative tolerance for identities that hold exactly on today's code but sum
# floats in an order a later refactor may legitimately change.
REL_TOL = 1e-9

# Base sizes (flops, memory bytes, output bits) of the microservices of the
# bundled two_task_sharing scenario; generated tasks scale them per op.
_SERVICE_BASE = {
    "precode_mask": (2e9, 1.5e9, 8e6),
    "denoise": (6e9, 2e9, 8e6),
    "projection": (4e9, 1e9, 2e6),
    "classify": (1e9, 5e8, 1e5),
    "track_update": (1.5e9, 5e8, 2e5),
}
_TASK_CHAINS = {
    "imaging": ("precode_mask", "denoise", "projection", "classify"),
    "tracking": ("precode_mask", "projection", "track_update"),
}
_DESK_WORKLOAD = {
    "samples_per_satellite": 32, "batch_size": 32, "embedding_dim": 128,
    "precision_bits": 32, "head_params": 62000, "embedding_params": 50000,
    "encoder_params": 80000000,
}


def _rng(tag: int, seed: int, op_index: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed, op_index])


def _label(orbit: int, slot: int) -> str:
    return f"o{orbit}s{slot}"


def _task_library(rng: np.random.Generator) -> dict:
    """Two tasks sharing precode_mask and projection, with seeded sizes.

    Memory scales stay below 1.5x so every service fits a 4 GB satellite and
    no solver can reach a dead end.
    """
    services = {}
    for sid, (flops, mem, out) in _SERVICE_BASE.items():
        services[sid] = {
            "id": sid,
            "flops": float(round(flops * rng.uniform(0.5, 2.0))),
            "memory_bytes": float(round(mem * rng.uniform(0.5, 1.5))),
            "output_bits": float(round(out * rng.uniform(0.5, 2.0))),
        }
    library = []
    for task_id, chain in _TASK_CHAINS.items():
        library.append({
            "id": task_id,
            "services": [services[sid] for sid in chain],
            "edges": [{"from": a, "to": b, "payload_bits": services[a]["output_bits"]}
                      for a, b in zip(chain, chain[1:])],
            "entries": [chain[0]],
            "exit": chain[-1],
        })
    return {"library": library, "active": list(_TASK_CHAINS)}


def _plan_body(plan) -> dict:
    return {
        "feasible": plan.feasible,
        "objective": plan.objective,
        "assignment": {sid: sat.label for sid, sat in sorted(plan.assignment.items())},
    }


def _tree_body(tree) -> dict:
    return {"edges": sorted([u.label, v.label] for (u, v) in tree.edges),
            "energy": tree.total_energy}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _tree_problems(what: str, graph, instance, tree) -> list:
    try:
        orchestration.validate_tree(graph, instance, tree)
    except ValueError as exc:
        return [f"{what}: validate_tree: {exc}"]
    return []


# --------------------------------------------------------------------- fed_ground

FED_GROUND_TAG = 1


def fed_ground_input(seed: int, op_index: int) -> dict:
    """The bundled demo; seed 0 op 0 is the file unchanged, later ops move the stations."""
    obj = json.loads(DEMO_SCENARIO.read_text(encoding="utf-8"))
    if seed == 0 and op_index == 0:
        return {"scenario": obj}
    rng = _rng(FED_GROUND_TAG, seed, op_index)
    for st in obj["ground_stations"]:
        lat = min(80.0, max(-80.0, st["latitude_deg"] + rng.uniform(-10.0, 10.0)))
        lon = (st["longitude_deg"] + rng.uniform(-10.0, 10.0) + 180.0) % 360.0 - 180.0
        st["latitude_deg"] = round(lat, 4)
        st["longitude_deg"] = round(lon, 4)
    return {"scenario": obj}


def fed_ground_op(inp: dict) -> dict:
    scn = scenario.parse_scenario(inp["scenario"])
    walker = constellation.build_walker(scn.constellation)
    setup = simkernel.SimulationSetup(stations=scn.ground_stations,
                                      link_config=scn.link_config,
                                      compute=scn.compute, energy=scn.energy)
    traces, agg = simkernel.simulate_fine_tuning(scn.federation, walker, scn.workload,
                                                 setup, seed=scn.seed or 0)
    return {"scenario": scn, "traces": traces, "aggregate": agg}


def fed_ground_check(result: dict) -> list:
    energy = result["scenario"].energy
    per_bit = energy.e_tx_j_per_bit + energy.e_rx_j_per_bit
    problems = []
    for tr in result["traces"]:
        if not _close(sum(tr.phase_seconds.values()), tr.total_seconds):
            problems.append(f"round {tr.round_index}: phase seconds do not sum to the total")
        expected = (per_bit * sum(tr.phase_bits.values())
                    + energy.e_flop_j * sum(tr.phase_flops.values()))
        if not _close(expected, tr.energy_joules):
            problems.append(f"round {tr.round_index}: energy {tr.energy_joules} != "
                            f"(e_tx+e_rx)*bits + e_flop*flops = {expected}")
    return problems


def fed_ground_canonical(result: dict) -> dict:
    return {
        "rounds": [dataclasses.asdict(tr) for tr in result["traces"]],
        "aggregate": dataclasses.asdict(result["aggregate"]),
    }


def fed_ground_quality(result: dict) -> dict:
    """Simulated seconds, and sgl_down bits over the orbits' embedding payload.

    The ratio exceeds 1 while the downlink over-counts orbits that see
    stations through two satellites in one epoch.
    """
    scn = result["scenario"]
    payload = (scn.constellation.num_orbits * scn.constellation.sats_per_orbit
               * scn.workload.embedding_bits_per_satellite)
    ratios = [tr.phase_bits["sgl_down"] / payload for tr in result["traces"]]
    return {"sim_seconds": result["aggregate"].total_seconds,
            "simkernel.sgl_down_bits_ratio": float(np.mean(ratios))}


# --------------------------------------------------------------------- shell_plan

SHELL_PLAN_TAG = 2
SHELL_ORBITS, SHELL_SLOTS = 24, 22
SHELL_STATIONS = 8
SHELL_CANDIDATES = 12


def shell_plan_input(seed: int, op_index: int, orbits: int = SHELL_ORBITS,
                     slots: int = SHELL_SLOTS) -> dict:
    """A 24x22 shell with 8 seeded stations, 12 candidates and a seeded request.

    Tests pass a smaller orbits x slots shape.
    """
    rng = _rng(SHELL_PLAN_TAG, seed, op_index)
    n = orbits * slots
    labels = [_label(p, s) for p in range(orbits) for s in range(slots)]
    stations = [{"id": f"gs-{k}",
                 "latitude_deg": round(float(rng.uniform(-55.0, 55.0)), 4),
                 "longitude_deg": round(float(rng.uniform(-180.0, 180.0)), 4)}
                for k in range(SHELL_STATIONS)]
    tasks = _task_library(rng)
    candidates = sorted(int(i) for i in rng.choice(n, size=SHELL_CANDIDATES, replace=False))
    src_orbit, dst_orbit = (int(o) for o in rng.choice(orbits, size=2, replace=False))
    root, gateway = (labels[int(i)] for i in rng.choice(n, size=2, replace=False))
    obj = {
        "seed": seed,
        "constellation": {"num_orbits": orbits, "sats_per_orbit": slots,
                          "altitude_km": 550.0, "inclination_deg": 53.0,
                          "phasing_factor": 1},
        "ground_stations": stations,
        # One orbit's embeddings come to 22 * 2^33 bits, about 3.1 times what
        # one 1 Gb/s link moves in a 60 s epoch, so an orbit needs several
        # link-epochs to get its payload down.
        "workload": {"samples_per_satellite": 262144, "batch_size": 64,
                     "embedding_dim": 1024, "precision_bits": 32, "head_params": 62000,
                     "embedding_params": 50000, "encoder_params": 80000000},
        "federation": {"epoch_seconds": 60.0, "horizon_seconds": 5400.0,
                       "window_step_seconds": 5.0},
        "compute": {"satellite_memory_bytes": 4e9},
        "tasks": tasks,
        "deployment": {"satellites": [labels[i] for i in candidates]},
    }
    request = {"time": round(float(rng.uniform(0.0, 5400.0)), 3),
               "source_orbit": src_orbit, "dest_orbit": dst_orbit,
               "root": root, "gateway": gateway}
    return {"scenario": obj, "request": request}


def _candidate_nodes(scn) -> list:
    return [deployment.SatelliteNode(sid, scn.compute.satellite_flops_per_s,
                                     scn.satellite_memory_bytes,
                                     scn.satellite_energy_budget_j)
            for sid in scn.deployment_satellites]


def _orchestrate(topo, plan, scn, request, exact: bool) -> dict:
    """Route every active task from the request's root; returns task -> trees."""
    root = constellation.SatelliteId.parse(request["root"])
    gateway = constellation.SatelliteId.parse(request["gateway"])
    trees = {}
    for dag in scn.active_dags():
        graph, inst = orchestration.build_augmented_graph(
            topo, plan.assignment, dag, scn.energy, root, gateway=gateway)
        entry = {"graph": graph, "instance": inst,
                 "heuristic": orchestration.dst_heuristic(graph, inst)}
        if exact:
            entry["exact"] = orchestration.dst_exact(graph, inst)
        trees[dag.task_id] = entry
    return trees


def shell_plan_op(inp: dict) -> dict:
    req = inp["request"]
    scn = scenario.parse_scenario(inp["scenario"])
    walker = constellation.build_walker(scn.constellation)
    at = req["time"]
    topo = constellation.snapshot(walker, at, scn.link_config)
    graph = interorbit.build_weighted_graph(topo)
    paths = interorbit.select_disjoint_paths(graph, req["source_orbit"], req["dest_orbit"])
    instance = deployment.DeploymentInstance(scn.active_dags(), _candidate_nodes(scn), topo)
    plan = deployment.solve_greedy(instance)
    trees = _orchestrate(topo, plan, scn, req, exact=False)
    fed = scn.federation
    model_bits = float(scn.constellation.sats_per_orbit
                       * scn.workload.embedding_bits_per_satellite)
    windows = constellation.contact_windows(walker, scn.ground_stations, fed.horizon_seconds,
                                            step=fed.window_step_seconds,
                                            link_config=scn.link_config, start=at)
    downlink = sgl_flow.schedule_downlink(windows, model_bits, scn.ground_stations,
                                          fed.horizon_seconds, epoch_seconds=fed.epoch_seconds,
                                          start_time=at,
                                          orbits=range(scn.constellation.num_orbits))
    return {"scenario": scn, "request": req, "graph": graph, "paths": paths,
            "instance": instance, "plan": plan, "trees": trees, "downlink": downlink}


def shell_plan_check(result: dict) -> list:
    problems = []
    req, graph, paths = result["request"], result["graph"], result["paths"]
    if len(paths) == 0:
        problems.append("no path between the requested orbits")
    used: set = set()
    for k, path in enumerate(paths.paths):
        if path[0].orbit_index != req["source_orbit"]:
            problems.append(f"path {k} starts outside the source orbit")
        if path[-1].orbit_index != req["dest_orbit"]:
            problems.append(f"path {k} ends outside the destination orbit")
        for edge in zip(path, path[1:]):
            if edge not in graph.edges:
                problems.append(f"path {k} uses {edge[0]}->{edge[1]}, not a graph edge")
            if edge in used:
                problems.append(f"path {k} reuses edge {edge[0]}->{edge[1]}")
            used.add(edge)
    problems += _plan_problems("greedy", result["instance"], result["plan"])
    for task_id, entry in sorted(result["trees"].items()):
        problems += _tree_problems(f"{task_id} heuristic tree", entry["graph"],
                                   entry["instance"], entry["heuristic"])
    # An orbit may deliver more than it had left (the known over-count): that
    # is reported by the trace, not checked here.
    orbits = set(range(result["scenario"].constellation.num_orbits))
    for ep in result["downlink"].epochs:
        if set(ep.delivered) != orbits:
            problems.append(f"epoch {ep.epoch_index} books orbits {sorted(ep.delivered)}, "
                            f"not the requested {sorted(orbits)}")
        for orbit, f in sorted(ep.delivered.items()):
            if f < 0.0:
                problems.append(f"epoch {ep.epoch_index}: orbit {orbit} delivers {f} < 0")
        total = sum(ep.delivered.values())
        if not math.isclose(total, ep.assignment.value, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"epoch {ep.epoch_index}: delivered fractions sum to {total}, "
                            f"the max-flow value is {ep.assignment.value}")
    return problems


def _plan_problems(name: str, instance, plan) -> list:
    """Feasible, every service placed on a candidate, and memory respected."""
    if not plan.feasible:
        return [f"{name} plan is infeasible"]
    if set(plan.assignment) != set(instance.services):
        return [f"{name} plan does not place every service exactly once"]
    problems = []
    used: dict = {}
    for sid, sat_id in plan.assignment.items():
        used[sat_id] = used.get(sat_id, 0.0) + instance.services[sid].memory_bytes
    capacity = {sat.id: sat.memory_bytes for sat in instance.satellites}
    for sat_id, mem in sorted(used.items()):
        if sat_id not in capacity:
            problems.append(f"{name} plan uses {sat_id}, not a candidate")
        elif mem > capacity[sat_id]:
            problems.append(f"{name} plan overfills {sat_id}: {mem} > {capacity[sat_id]}")
    return problems


def shell_plan_canonical(result: dict) -> dict:
    downlink = result["downlink"]
    return {
        "paths": [[sat.label for sat in p] for p in result["paths"].paths],
        "bottlenecks_bps": list(result["paths"].bottlenecks),
        "greedy": _plan_body(result["plan"]),
        "trees": {tid: _tree_body(e["heuristic"]) for tid, e in sorted(result["trees"].items())},
        "downlink": {
            "epochs": [{str(o): f for o, f in sorted(ep.delivered.items())}
                       for ep in downlink.epochs],
            "remaining": {str(o): f for o, f in sorted(downlink.state.remaining.items())},
            "complete": downlink.complete,
        },
    }


# --------------------------------------------------------------------- desk_solvers

DESK_SOLVERS_TAG = 3
DESK_ORBITS, DESK_SLOTS = 3, 4
DESK_CANDIDATES = 6
PG_EPISODES = 300  # the CLI default of `leoplan deploy --solver pg`


def desk_solvers_input(seed: int, op_index: int) -> dict:
    """A seeded 3x4 shell, the two sharing tasks and 6 of the 12 satellites as candidates."""
    rng = _rng(DESK_SOLVERS_TAG, seed, op_index)
    n = DESK_ORBITS * DESK_SLOTS
    labels = [_label(p, s) for p in range(DESK_ORBITS) for s in range(DESK_SLOTS)]
    altitude = round(float(rng.uniform(500.0, 600.0)), 3)
    tasks = _task_library(rng)
    candidates = sorted(int(i) for i in rng.choice(n, size=DESK_CANDIDATES, replace=False))
    root, gateway = (labels[int(i)] for i in rng.choice(n, size=2, replace=False))
    obj = {
        "seed": int(rng.integers(0, 2**31)),
        "constellation": {"num_orbits": DESK_ORBITS, "sats_per_orbit": DESK_SLOTS,
                          "altitude_km": altitude,
                          "inclination_deg": round(float(rng.uniform(45.0, 65.0)), 3),
                          "phasing_factor": int(rng.integers(0, DESK_ORBITS))},
        # Longer than any chord of the shell, so every same-slot pair of
        # adjacent planes is linked at every instant and no op meets a
        # disconnected topology.
        "links": {"max_isl_range_km": 14000.0},
        "workload": dict(_DESK_WORKLOAD),
        "compute": {"satellite_flops_per_s": 1e12, "satellite_memory_bytes": 4e9},
        "tasks": tasks,
        "deployment": {"satellites": [labels[i] for i in candidates]},
    }
    request = {"time": round(float(rng.uniform(0.0, 5400.0)), 3),
               "root": root, "gateway": gateway}
    return {"scenario": obj, "request": request}


def desk_solvers_op(inp: dict) -> dict:
    req = inp["request"]
    scn = scenario.parse_scenario(inp["scenario"])
    walker = constellation.build_walker(scn.constellation)
    topo = constellation.snapshot(walker, req["time"], scn.link_config)
    instance = deployment.DeploymentInstance(scn.active_dags(), _candidate_nodes(scn), topo)
    exact = deployment.solve_exact(instance)
    greedy = deployment.solve_greedy(instance)
    env = deployment.DeploymentMdp(instance)
    policy, report = deployment.train_policy_gradient(env, episodes=PG_EPISODES, seed=scn.seed)
    pg = deployment.plan_from_policy(env, policy)
    plans = {"exact": exact, "greedy": greedy, "pg": pg}

    router = msdag.Router(topo)
    model = msdag.LatencyModel(default_throughput_flops=scn.compute.satellite_flops_per_s)
    latencies = {name: {dag.task_id: msdag.dag_latency(dag, plan.assignment, router, model)
                        for dag in scn.active_dags()}
                 for name, plan in plans.items() if plan.feasible}
    trees = _orchestrate(topo, exact, scn, req, exact=True)
    return {"scenario": scn, "instance": instance, "plans": plans, "training": report,
            "latencies": latencies, "trees": trees}


def desk_solvers_check(result: dict) -> list:
    problems = []
    plans = result["plans"]
    for name, plan in plans.items():
        problems += _plan_problems(name, result["instance"], plan)
    if problems:
        return problems
    best = plans["exact"].objective
    for name in ("greedy", "pg"):
        if best > plans[name].objective * (1.0 + REL_TOL):
            problems.append(f"exact objective {best} exceeds the {name} objective "
                            f"{plans[name].objective}")
    for name, per_task in sorted(result["latencies"].items()):
        total = sum(per_task[dag.task_id].total_seconds for dag in result["scenario"].active_dags())
        if not _close(total, plans[name].objective):
            problems.append(f"{name}: msdag latencies sum to {total}, "
                            f"the plan objective is {plans[name].objective}")
    for task_id, entry in sorted(result["trees"].items()):
        for kind in ("exact", "heuristic"):
            problems += _tree_problems(f"{task_id} {kind} tree", entry["graph"],
                                       entry["instance"], entry[kind])
        exact_e, heur_e = entry["exact"].total_energy, entry["heuristic"].total_energy
        if exact_e > heur_e * (1.0 + REL_TOL):
            problems.append(f"{task_id}: dst_exact energy {exact_e} exceeds "
                            f"dst_heuristic energy {heur_e}")
    return problems


def desk_solvers_canonical(result: dict) -> dict:
    report = result["training"]
    return {
        "plans": {name: _plan_body(plan) for name, plan in sorted(result["plans"].items())},
        "training": {"mean_return": report.mean_return,
                     "greedy_returns": list(report.greedy_returns)},
        "latencies": {name: {tid: {"seconds": lat.total_seconds,
                                   "critical_path": list(lat.critical_path)}
                             for tid, lat in sorted(per_task.items())}
                      for name, per_task in sorted(result["latencies"].items())},
        "trees": {tid: {kind: _tree_body(e[kind]) for kind in ("exact", "heuristic")}
                  for tid, e in sorted(result["trees"].items())},
    }


def desk_solvers_quality(result: dict) -> dict:
    """Each solver's objective, and each heuristic tree's energy, over the exact one."""
    plans = result["plans"]
    best = plans["exact"].objective
    excess = [e["heuristic"].total_energy / e["exact"].total_energy
              for e in result["trees"].values() if e["exact"].total_energy > 0]
    quality = {"deployment.greedy_gap": plans["greedy"].objective / best,
               "deployment.pg_gap": plans["pg"].objective / best}
    if excess:
        quality["orchestration.heuristic_excess"] = float(np.mean(excess))
    return quality


# --------------------------------------------------------------------- registry

@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make_input: object
    run: object
    check: object
    canonical: object
    quality: object = None


WORKLOADS = {
    "fed_ground": Workload("fed_ground", fed_ground_input, fed_ground_op, fed_ground_check,
                           fed_ground_canonical, fed_ground_quality),
    "shell_plan": Workload("shell_plan", shell_plan_input, shell_plan_op, shell_plan_check,
                           shell_plan_canonical),
    "desk_solvers": Workload("desk_solvers", desk_solvers_input, desk_solvers_op,
                             desk_solvers_check, desk_solvers_canonical,
                             desk_solvers_quality),
}


def input_bytes(inp: dict) -> bytes:
    """Canonical bytes of a generated input; equal seeds give equal bytes."""
    return json.dumps(inp, sort_keys=True, separators=(",", ":")).encode("utf-8")


def output_digest(workload: Workload, result: dict) -> str:
    """sha256 of an op's canonical output (floats at full repr precision)."""
    text = json.dumps(workload.canonical(result), sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
