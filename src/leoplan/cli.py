"""Command line front end.

Subcommands: simulate, downlink, allreduce, routes, deploy, orchestrate.
Every run reads one scenario JSON, writes its outputs atomically under
--out-dir, and prints a run report (scenario digest, output paths, runtime)
to stdout. Output files contain no wall-clock data, so identical scenario
and seed produce byte-identical files. Errors exit nonzero with a one-line
JSON description on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import deployment, orchestration
from .constellation import SatelliteId, build_walker, contact_windows, snapshot
from .graph import _require_finite
from .interorbit import build_weighted_graph, parallel_transfer_time, select_disjoint_paths
from .collective import RingSpec, plan_all_reduce
from .msdag import shared_modules
from .scenario import ScenarioError, parse_request, parse_scenario, scenario_digest
from .sgl_flow import schedule_downlink
from .simkernel import SimulationSetup, PHASES, simulate_fine_tuning


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(c) for c in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _setup_from(scn) -> SimulationSetup:
    return SimulationSetup(stations=scn.ground_stations, link_config=scn.link_config,
                           compute=scn.compute, energy=scn.energy)


def _deployment_instance(scn, at_time: float) -> deployment.DeploymentInstance:
    dags = scn.active_dags()
    if not dags:
        raise ValueError("scenario defines no active tasks to deploy")
    constellation = build_walker(scn.constellation)
    sat_ids = (scn.deployment_satellites if scn.deployment_satellites is not None
               else tuple(constellation.satellites))
    sats = [deployment.SatelliteNode(sid, scn.compute.satellite_flops_per_s,
                                     scn.satellite_memory_bytes,
                                     scn.satellite_energy_budget_j)
            for sid in sat_ids]
    topo = snapshot(constellation, at_time, scn.link_config)
    return deployment.DeploymentInstance(dags, sats, topo, e_flop_j=scn.energy.e_flop_j)


def _cmd_simulate(scn, args, out: Path) -> list:
    config = scn.federation
    if args.mode is not None:
        config = dataclasses.replace(config, aggregation_mode=args.mode)
    constellation = build_walker(scn.constellation)
    traces, agg = simulate_fine_tuning(config, constellation, scn.workload,
                                       _setup_from(scn), seed=scn.seed or 0)

    rounds_csv = out / "rounds.csv"
    header = ["round", "start_time"] + list(PHASES) + ["total_seconds", "energy_joules",
                                                       "complete"]
    rows = [[tr.round_index, tr.start_time] + [tr.phase_seconds[p] for p in PHASES]
            + [tr.total_seconds, tr.energy_joules, tr.complete] for tr in traces]
    _write_csv(rounds_csv, header, rows)

    agg_json = out / "aggregate.json"
    _write_json(agg_json, {
        "mode": config.aggregation_mode,
        "rounds": agg.rounds,
        "total_seconds": agg.total_seconds,
        "total_bits": agg.total_bits,
        "total_flops": agg.total_flops,
        "total_energy_joules": agg.total_energy_joules,
        "complete": agg.complete,
        "phase_second_totals": agg.phase_second_totals,
    })
    outputs = [rounds_csv, agg_json]

    if args.emit_plot_data:
        plot_csv = out / "plot_data.csv"
        tidy = [[tr.round_index, phase, tr.phase_seconds[phase]]
                for tr in traces for phase in PHASES]
        _write_csv(plot_csv, ["round", "phase", "seconds"], tidy)
        outputs.append(plot_csv)
    return outputs


def _cmd_downlink(scn, args, out: Path) -> list:
    constellation = build_walker(scn.constellation)
    fed = scn.federation
    start = scn.constellation.epoch if args.start is None else args.start
    if args.payload == "head":
        model_bits = float(scn.workload.head_bits)
    else:
        model_bits = float(scn.constellation.sats_per_orbit
                           * scn.workload.embedding_bits_per_satellite)
    if model_bits <= 0:
        raise ValueError("selected payload has zero size")
    windows = contact_windows(constellation, scn.ground_stations, fed.horizon_seconds,
                              step=fed.window_step_seconds, link_config=scn.link_config,
                              start=start)
    result = schedule_downlink(windows, model_bits, scn.ground_stations,
                               fed.horizon_seconds, epoch_seconds=fed.epoch_seconds,
                               start_time=start,
                               orbits=range(scn.constellation.num_orbits))

    epochs_csv = out / "epochs.csv"
    rows = [[ep.epoch_index, orbit, ep.delivered[orbit], ep.assignment.value]
            for ep in result.epochs for orbit in sorted(ep.delivered)]
    _write_csv(epochs_csv, ["epoch", "orbit", "delivered_fraction", "flow_value"], rows)

    summary_json = out / "downlink.json"
    _write_json(summary_json, {
        "payload": args.payload,
        "model_bits_per_orbit": model_bits,
        "epochs_used": result.epochs_used,
        "complete": result.complete,
        "remaining": {str(o): f for o, f in sorted(result.state.remaining.items())},
    })
    return [epochs_csv, summary_json]


def _cmd_allreduce(scn, args, out: Path) -> list:
    if not 0 <= args.orbit < scn.constellation.num_orbits:
        raise ValueError(f"orbit {args.orbit} outside the constellation")
    n = scn.constellation.sats_per_orbit
    payload = args.payload_bits if args.payload_bits is not None else scn.workload.head_bits
    ring = RingSpec.uniform(n, scn.link_config.intra_orbit_rate_bps)
    result = plan_all_reduce(ring, payload)

    schedule_json = out / "allreduce.json"
    _write_json(schedule_json, {
        "orbit": args.orbit,
        "node_count": n,
        "link_rates_bps": list(ring.link_rates),
        "payload_bits": int(payload),
        "completion_seconds": result.completion_time,
        "bits_sent_per_node": list(result.bits_sent_per_node),
        "steps": [
            {"step": st.step_index, "phase": st.phase.value, "sender": st.sender,
             "receiver": st.receiver, "block": st.block_id, "bits": st.block_bits}
            for st in result.schedule.steps
        ],
    })
    return [schedule_json]


def _cmd_routes(scn, args, out: Path) -> list:
    constellation = build_walker(scn.constellation)
    at_time = scn.constellation.epoch if args.time is None else args.time
    dest = args.dest_orbit if args.dest_orbit is not None else scn.constellation.num_orbits - 1
    payload = args.payload_bits if args.payload_bits is not None else scn.workload.head_bits
    # Checked before routing: with no path, parallel_transfer_time never sees it.
    _require_finite("nonnegative and finite", payload_bits=payload)
    topo = snapshot(constellation, at_time, scn.link_config)
    graph = build_weighted_graph(topo)
    paths = select_disjoint_paths(graph, args.source_orbit, dest, max_paths=args.max_paths)

    routes_json = out / "routes.json"
    _write_json(routes_json, {
        "time": at_time,
        "source_orbit": args.source_orbit,
        "dest_orbit": dest,
        "paths": [[sat.label for sat in p] for p in paths.paths],
        "bottlenecks_bps": list(paths.bottlenecks),
        "payload_bits": int(payload),
        "parallel_transfer_seconds": parallel_transfer_time(paths, payload) if len(paths) else None,
    })
    return [routes_json]


def _cmd_deploy(scn, args, out: Path) -> list:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    at_time = scn.constellation.epoch if args.time is None else args.time
    instance = _deployment_instance(scn, at_time)
    body: dict = {"solver": args.solver, "time": at_time}

    if args.solver == "exact":
        plan = deployment.solve_exact(instance)
    elif args.solver == "greedy":
        plan = deployment.solve_greedy(instance)
    else:
        seed = args.seed if args.seed is not None else scn.seed
        if seed is None:
            raise ValueError("policy-gradient solver needs a seed "
                             "(scenario 'seed' or --seed)")
        env = deployment.DeploymentMdp(instance)
        policy, report = deployment.train_policy_gradient(env, episodes=args.episodes,
                                                          seed=seed)
        plan = deployment.plan_from_policy(env, policy)
        body["training"] = {
            "episodes": report.episodes,
            "seed": seed,
            "mean_return_last_quarter": report.mean_return,
            "greedy_return": report.greedy_returns[0],
        }

    body["feasible"] = plan.feasible
    body["objective_seconds"] = plan.objective
    body["assignment"] = {sid: sat.label for sid, sat in sorted(plan.assignment.items())}
    if len(scn.active_tasks) >= 2:
        shared, stats = shared_modules(scn.active_dags())
        body["shared_modules"] = sorted(shared)
        body["invocations_saved_per_epoch"] = stats.saved_per_epoch

    plan_json = out / "plan.json"
    _write_json(plan_json, body)
    return [plan_json]


def _cmd_orchestrate(scn, args, out: Path) -> list:
    request = parse_request(args.request)
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan_body = json.load(fh)
    if not isinstance(plan_body, dict) or "assignment" not in plan_body:
        raise ValueError("plan file has no 'assignment' object")
    if not isinstance(plan_body["assignment"], dict):
        raise ValueError("plan.assignment: must be an object")
    assignment = {}
    for sid, label in plan_body["assignment"].items():
        try:
            assignment[sid] = SatelliteId.parse(label)
        except ValueError as exc:
            raise ValueError(f"plan.assignment.{sid}: {exc}") from None
    if request["task_id"] not in scn.tasks:
        raise ValueError(f"request names unknown task {request['task_id']!r}")
    dag = scn.tasks[request["task_id"]]

    constellation = build_walker(scn.constellation)
    at_time = scn.constellation.epoch if args.time is None else args.time
    topo = snapshot(constellation, at_time, scn.link_config)
    graph, instance = orchestration.build_augmented_graph(
        topo, assignment, dag, scn.energy, request["source"],
        gateway=request["gateway"], hop_payload_bits=request["hop_payload_bits"])

    heuristic = orchestration.dst_heuristic(graph, instance)
    exact = None
    if (len(graph.nodes) <= orchestration.EXACT_MAX_NODES
            and len(instance.terminals - {instance.root}) <= orchestration.EXACT_MAX_TERMINALS):
        exact = orchestration.dst_exact(graph, instance)

    def tree_body(tree):
        return {
            "edges": sorted([[u.label, v.label] for (u, v) in tree.edges]),
            "total_energy_joules": tree.total_energy,
        }

    tree_json = out / "tree.json"
    _write_json(tree_json, {
        "task_id": dag.task_id,
        "root": request["source"].label,
        "terminals": sorted(t.label for t in instance.terminals),
        "stage_hosts": [[sid, sat.label]
                        for sid, sat in orchestration.stage_host_order(dag, assignment)],
        "heuristic": tree_body(heuristic),
        "exact": tree_body(exact) if exact is not None else None,
    })
    return [tree_json]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "downlink": _cmd_downlink,
    "allreduce": _cmd_allreduce,
    "routes": _cmd_routes,
    "deploy": _cmd_deploy,
    "orchestrate": _cmd_orchestrate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leoplan",
        description="Planning and simulation tools for LEO edge-AI constellations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out-dir", default="out", help="directory for output files")

    p = sub.add_parser("simulate", help="run federated fine-tuning rounds")
    common(p)
    p.add_argument("--mode", choices=["ground", "decentralized"], default=None)
    p.add_argument("--emit-plot-data", action="store_true")

    p = sub.add_parser("downlink", help="schedule coordinated satellite-ground transfer")
    common(p)
    p.add_argument("--payload", choices=["head", "embeddings"], default="head")
    p.add_argument("--start", type=float, default=None)

    p = sub.add_parser("allreduce", help="plan a ring all-reduce for one orbit")
    common(p)
    p.add_argument("--orbit", type=int, default=0)
    p.add_argument("--payload-bits", type=int, default=None)

    p = sub.add_parser("routes", help="select disjoint inter-orbit paths")
    common(p)
    p.add_argument("--source-orbit", type=int, default=0)
    p.add_argument("--dest-orbit", type=int, default=None)
    p.add_argument("--time", type=float, default=None)
    p.add_argument("--max-paths", type=int, default=None)
    p.add_argument("--payload-bits", type=int, default=None)

    p = sub.add_parser("deploy", help="place microservices on satellites")
    common(p)
    p.add_argument("--solver", choices=["exact", "greedy", "pg"], default="greedy")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--episodes", type=int, default=300)
    p.add_argument("--time", type=float, default=None)

    p = sub.add_parser("orchestrate", help="route a placed task at minimum energy")
    common(p)
    p.add_argument("--plan", required=True, help="plan JSON from the deploy subcommand")
    p.add_argument("--request", required=True, help="request JSON file")
    p.add_argument("--time", type=float, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        scn = parse_scenario(args.scenario)
        out = Path(args.out_dir)
        outputs = _COMMANDS[args.command](scn, args, out)
    except ScenarioError as exc:
        _emit_error(args.command, exc)
        return 2
    except (ValueError, KeyError, OSError, OverflowError, MemoryError) as exc:
        _emit_error(args.command, exc)
        return 1
    report = {
        "subcommand": args.command,
        "scenario_digest": scenario_digest(scn),
        "outputs": [str(p) for p in outputs],
        "runtime_seconds": time.perf_counter() - started,
    }
    print(json.dumps(report))
    return 0


def _emit_error(command: str, exc: Exception) -> None:
    body = {"error": {"subcommand": command, "type": type(exc).__name__,
                      "message": str(exc)}}
    print(json.dumps(body), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
