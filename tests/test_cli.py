import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from leoplan import cli
from leoplan.cli import main

REPO = Path(__file__).resolve().parents[1]
TWO_TASK = str(REPO / "scenarios" / "two_task_sharing.json")


def sim_scenario(tmp_path, **fed_kw):
    fed = {"rounds": 2, "horizon_seconds": 600.0, "freeze_topology": True}
    fed.update(fed_kw)
    obj = {
        "constellation": {"num_orbits": 1, "sats_per_orbit": 1,
                          "altitude_km": 550.0, "inclination_deg": 0.0},
        "ground_stations": [{"id": "gs", "latitude_deg": 0.0, "longitude_deg": 0.0}],
        "workload": {"samples_per_satellite": 10, "batch_size": 10,
                     "embedding_dim": 16, "precision_bits": 32,
                     "head_params": 100, "embedding_params": 1000,
                     "encoder_params": 1000000},
        "federation": fed,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_report(out_text):
    report = json.loads(out_text)
    assert set(report) == {"subcommand", "scenario_digest", "outputs", "runtime_seconds"}
    assert len(report["scenario_digest"]) == 64
    assert report["runtime_seconds"] >= 0.0
    for p in report["outputs"]:
        assert Path(p).exists()
    return report


def test_simulate_outputs(tmp_path, capsys):
    scn = sim_scenario(tmp_path)
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "simulate", scn, "--out-dir", str(out),
                              "--emit-plot-data")
    assert code == 0
    report = read_report(stdout)
    assert report["subcommand"] == "simulate"
    assert sorted(Path(p).name for p in report["outputs"]) == [
        "aggregate.json", "plot_data.csv", "rounds.csv"]

    lines = (out / "rounds.csv").read_text().splitlines()
    assert lines[0].startswith("round,start_time,embedding_compute,")
    assert lines[0].endswith("total_seconds,energy_joules,complete")
    assert len(lines) == 3
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[-1] == "true"
        assert 240.0 < float(cells[-3]) < 241.0

    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["mode"] == "ground"
    assert agg["rounds"] == 2
    assert agg["complete"] is True
    assert len(agg["phase_second_totals"]) == 9
    assert 480.0 < agg["total_seconds"] < 482.0

    plot = (out / "plot_data.csv").read_text().splitlines()
    assert plot[0] == "round,phase,seconds"
    assert len(plot) == 1 + 2 * 9


def test_simulate_mode_override_and_determinism(tmp_path, capsys):
    scn = sim_scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code, _, _ = run_cli(capsys, "simulate", scn, "--out-dir", str(out_a))
    assert code == 0
    code, _, _ = run_cli(capsys, "simulate", scn, "--out-dir", str(out_b))
    assert code == 0
    # byte-identical outputs: no wall-clock data inside the files
    assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
    assert (out_a / "aggregate.json").read_bytes() == (out_b / "aggregate.json").read_bytes()

    out_c = tmp_path / "c"
    code, _, _ = run_cli(capsys, "simulate", scn, "--out-dir", str(out_c),
                         "--mode", "decentralized")
    assert code == 0
    agg = json.loads((out_c / "aggregate.json").read_text())
    assert agg["mode"] == "decentralized"


@pytest.mark.parametrize("mode", ["ground", "decentralized"])
def test_simulate_a_zero_head_books_no_aggregate_or_broadcast(tmp_path, capsys, mode):
    # A zero head passes the scenario checks; with nothing to aggregate, the
    # global-aggregate and broadcast phases book 0 s in either mode.
    obj = json.loads((REPO / "scenarios" / "demo_walker6.json").read_text(encoding="utf-8"))
    obj["workload"]["head_params"] = 0
    path = tmp_path / "zero_head.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "simulate", str(path), "--out-dir", str(out), "--mode", mode)
    assert code == 0, err
    lines = (out / "rounds.csv").read_text().splitlines()
    header = lines[0].split(",")
    for row in lines[1:]:
        cells = dict(zip(header, row.split(",")))
        assert cells["inter_orbit_or_global_aggregate"] == cells["broadcast"] == "0"
        assert cells["intra_orbit_aggregate"] == "0"


def test_downlink_outputs(tmp_path, capsys):
    scn = sim_scenario(tmp_path)
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "downlink", scn, "--out-dir", str(out))
    assert code == 0
    read_report(stdout)

    summary = json.loads((out / "downlink.json").read_text())
    assert summary["payload"] == "head"
    assert summary["model_bits_per_orbit"] == 100 * 32
    assert summary["epochs_used"] == 1
    assert summary["complete"] is True
    assert summary["remaining"] == {"0": 0.0}

    lines = (out / "epochs.csv").read_text().splitlines()
    assert lines[0] == "epoch,orbit,delivered_fraction,flow_value"
    assert lines[1].split(",")[:3] == ["0", "0", "1"]


def child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def assert_one_error_line(tmp_path, command, scenario, *argv, message, error="ValueError"):
    """Runs the CLI in a child process, so stderr is exactly what a user
    sees: exit 1, no stdout, and one JSON error line with no numpy warning."""
    proc = subprocess.run([sys.executable, "-m", "leoplan.cli", command, scenario, *argv,
                           "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert [json.loads(line) for line in proc.stderr.splitlines()] == [
        {"error": {"subcommand": command, "type": error, "message": message}}]


@pytest.mark.parametrize("start", ["inf", "nan"])
def test_downlink_non_finite_start_prints_one_error_line(tmp_path, start):
    """Rejected before any sampling."""
    assert_one_error_line(tmp_path, "downlink", sim_scenario(tmp_path), "--start", start,
                          message="start must be finite")


def test_downlink_start_outside_the_time_range_prints_one_error_line(tmp_path):
    """A start 1e300 s from the epoch, where floats are 1e284 s apart, is
    rejected before any sampling, not scheduled as 90 empty epochs."""
    assert_one_error_line(tmp_path, "downlink", str(REPO / "scenarios" / "demo_walker6.json"),
                          "--start", "1e300",
                          message="start must keep |start - epoch| + horizon within 1e9 s, "
                                  "got 1e+300")
    assert not (tmp_path / "out").exists()


def test_downlink_oversized_grid_prints_one_error_line(tmp_path):
    """A horizon of 1e12 s at a 1e-3 s step is 1e15 samples, more than a
    key's 32-bit sample field holds: exit 1 with one JSON line, before the
    7.11 PiB grid is asked for, not a MemoryError traceback. Epochs of 1e7 s
    keep the epoch count within its own bound."""
    obj = json.loads((REPO / "scenarios" / "demo_walker6.json").read_text(encoding="utf-8"))
    obj["federation"].update(horizon_seconds=1e12, window_step_seconds=1e-3,
                             epoch_seconds=1e7)
    path = tmp_path / "huge_grid.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert_one_error_line(tmp_path, "downlink", str(path),
                          message="horizon / step exceeds 4294967295 samples")


def test_downlink_with_too_many_epochs_exits_2(tmp_path, capsys):
    """1e-300 s epochs over the demo's 5,400 s horizon are rejected at parse
    time with their field path, not walked one epoch at a time."""
    obj = json.loads((REPO / "scenarios" / "demo_walker6.json").read_text(encoding="utf-8"))
    obj["federation"]["epoch_seconds"] = 1e-300
    path = tmp_path / "tiny_epochs.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, stdout, err = run_cli(capsys, "downlink", str(path), "--out-dir",
                                str(tmp_path / "out"))
    assert (code, stdout) == (2, "")
    assert json.loads(err)["error"] == {
        "subcommand": "downlink", "type": "ScenarioError",
        "message": "federation.epoch_seconds: must leave at most 100000 epochs in "
                   "horizon_seconds"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["routes", "deploy"])
def test_non_finite_time_prints_one_error_line(tmp_path, command):
    """A NaN snapshot time is rejected before any geometry, not reported as
    a disconnected snapshot or written into the output."""
    assert_one_error_line(tmp_path, command, TWO_TASK, "--time", "nan",
                          message="t must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["routes", "deploy"])
def test_time_outside_the_time_range_prints_one_error_line(tmp_path, command):
    """A snapshot time 1e300 s from the epoch is rejected before any
    geometry."""
    assert_one_error_line(tmp_path, command, TWO_TASK, "--time", "1e300",
                          message="t must keep |t - epoch| + horizon within 1e9 s, got 1e+300")
    assert not (tmp_path / "out").exists()


def test_allreduce_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "allreduce", TWO_TASK, "--out-dir", str(out),
                              "--orbit", "1")
    assert code == 0
    read_report(stdout)
    body = json.loads((out / "allreduce.json").read_text())
    assert body["orbit"] == 1
    assert body["node_count"] == 4
    assert body["payload_bits"] == 62000 * 32
    assert body["link_rates_bps"] == [10e9] * 4
    # 2(n-1) step rounds, n transfers each
    assert len(body["steps"]) == 2 * 3 * 4
    block = 62000 * 32 / 4
    want = sum(block / 10e9 for _ in range(6))
    assert abs(body["completion_seconds"] - want) < 1e-15
    assert body["bits_sent_per_node"] == [2 * 3 * block] * 4

    code, _, err = run_cli(capsys, "allreduce", TWO_TASK, "--out-dir", str(out),
                           "--orbit", "7")
    assert code == 1
    assert json.loads(err)["error"]["message"] == "orbit 7 outside the constellation"


def test_routes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "routes", TWO_TASK, "--out-dir", str(out),
                              "--source-orbit", "0")
    assert code == 0
    read_report(stdout)
    body = json.loads((out / "routes.json").read_text())
    assert body["source_orbit"] == 0
    assert body["dest_orbit"] == 2
    assert body["payload_bits"] == 62000 * 32
    assert len(body["paths"]) >= 1
    assert len(body["bottlenecks_bps"]) == len(body["paths"])
    for path in body["paths"]:
        assert path[0].startswith("o0")
        assert path[-1].startswith("o2")
    assert body["parallel_transfer_seconds"] > 0.0

    # max_paths caps the answer
    code, _, _ = run_cli(capsys, "routes", TWO_TASK, "--out-dir", str(out),
                         "--max-paths", "1")
    assert code == 0
    body = json.loads((out / "routes.json").read_text())
    assert len(body["paths"]) == 1


@pytest.mark.parametrize("args, message", [
    (["--source-orbit", "99"], "orbit 99 has no satellite in the graph"),
    (["--source-orbit", "-1"], "orbit -1 has no satellite in the graph"),
    (["--dest-orbit", "42"], "orbit 42 has no satellite in the graph"),
    (["--max-paths", "0"], "max_paths must be at least 1"),
    (["--max-paths", "-3"], "max_paths must be at least 1"),
])
def test_routes_bad_orbit_or_path_count_exits_1(tmp_path, capsys, args, message):
    code, stdout, err = run_cli(capsys, "routes", TWO_TASK, "--out-dir",
                                str(tmp_path / "out"), *args)
    assert code == 1
    assert stdout == ""
    assert json.loads(err)["error"]["message"] == message


def test_deploy_exact_and_shared_modules(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                              "--solver", "exact")
    assert code == 0
    read_report(stdout)
    body = json.loads((out / "plan.json").read_text())
    assert body["solver"] == "exact"
    assert body["feasible"] is True
    assert abs(body["objective_seconds"] - 0.08739698665857826) < 1e-9
    assert sorted(body["assignment"]) == [
        "classify", "denoise", "precode_mask", "projection", "track_update"]
    for label in body["assignment"].values():
        assert label in {"o0s0", "o0s1", "o1s0", "o1s1", "o2s0", "o2s1"}
    assert body["shared_modules"] == ["precode_mask", "projection"]
    assert body["invocations_saved_per_epoch"] == 2


def test_deploy_pg(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                              "--solver", "pg", "--episodes", "5")
    assert code == 0
    read_report(stdout)
    body = json.loads((out / "plan.json").read_text())
    assert body["training"]["episodes"] == 5
    assert body["training"]["seed"] == 11
    assert body["feasible"] is True

    # scenario without a seed refuses to train
    obj = json.loads(Path(TWO_TASK).read_text())
    del obj["seed"]
    unseeded = tmp_path / "unseeded.json"
    unseeded.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run_cli(capsys, "deploy", str(unseeded), "--out-dir", str(out),
                           "--solver", "pg")
    assert code == 1
    assert "needs a seed" in json.loads(err)["error"]["message"]



@pytest.mark.parametrize("episodes", ["0", "-5"])
def test_deploy_pg_without_episodes_exits_1(tmp_path, capsys, episodes):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                                "--solver", "pg", "--episodes", episodes)
    assert (code, stdout) == (1, "")
    assert json.loads(err)["error"] == {
        "subcommand": "deploy", "type": "ValueError",
        "message": f"policy-gradient training needs episodes >= 1, got {episodes}"}
    assert not (out / "plan.json").exists()


def test_deploy_pg_with_too_many_episodes_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                                "--solver", "pg", "--episodes", "1000001")
    assert (code, stdout) == (1, "")
    assert json.loads(err)["error"] == {
        "subcommand": "deploy", "type": "ValueError",
        "message": "policy-gradient training needs episodes <= 1000000, got 1000001"}
    assert not (out / "plan.json").exists()


def test_deploy_negative_scenario_seed_exits_2(tmp_path, capsys):
    obj = json.loads(Path(TWO_TASK).read_text(encoding="utf-8"))
    obj["seed"] = -1
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, stdout, err = run_cli(capsys, "deploy", str(path), "--out-dir", str(tmp_path / "out"),
                                "--solver", "pg", "--episodes", "5")
    assert (code, stdout) == (2, "")
    assert json.loads(err)["error"] == {"subcommand": "deploy", "type": "ScenarioError",
                                        "message": "scenario.seed: must be nonnegative"}


def test_deploy_negative_seed_flag_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                                "--solver", "pg", "--episodes", "5", "--seed", "-1")
    assert (code, stdout) == (1, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == {"subcommand": "deploy", "type": "ValueError",
                                        "message": "--seed must be nonnegative, got -1"}
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("solver", ["exact", "greedy", "pg"])
def test_deploy_applies_the_energy_budget(tmp_path, capsys, solver):
    # Every service draws at least 1e9 flops x energy.e_flop_j (1e-12 J by
    # default), far above a 1e-30 J budget; at 1e-40 J/flop all of them fit.
    obj = json.loads(Path(TWO_TASK).read_text())
    obj["compute"]["satellite_energy_budget_j"] = 1e-30
    bodies = []
    for e_flop_j in (None, 1e-40):
        if e_flop_j is not None:
            obj["energy"] = {"e_flop_j": e_flop_j}
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "deploy", str(path), "--out-dir", str(out),
                             "--solver", solver, "--episodes", "5")
        assert code == 0
        bodies.append(json.loads((out / "plan.json").read_text()))
    assert bodies[0]["feasible"] is False
    assert bodies[0]["assignment"] == {} and bodies[0]["objective_seconds"] is None
    code, _, _ = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(tmp_path / "free"),
                         "--solver", solver, "--episodes", "5")
    assert code == 0
    assert bodies[1] == json.loads((tmp_path / "free" / "plan.json").read_text())


def test_deploy_without_tasks(tmp_path, capsys):
    scn = sim_scenario(tmp_path)
    code, _, err = run_cli(capsys, "deploy", scn, "--out-dir", str(tmp_path / "o"))
    assert code == 1
    assert json.loads(err)["error"]["message"] == "scenario defines no active tasks to deploy"


def test_orchestrate_chain(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                         "--solver", "exact")
    assert code == 0
    assignment = json.loads((out / "plan.json").read_text())["assignment"]

    req = tmp_path / "req.json"
    req.write_text(json.dumps({"task_id": "imaging", "source": "o2s3"}),
                   encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "orchestrate", TWO_TASK, "--out-dir", str(out),
                              "--plan", str(out / "plan.json"), "--request", str(req))
    assert code == 0
    read_report(stdout)
    body = json.loads((out / "tree.json").read_text())
    assert body["task_id"] == "imaging"
    assert body["root"] == "o2s3"
    imaging_stages = ["precode_mask", "denoise", "projection", "classify"]
    assert [sid for sid, _ in body["stage_hosts"]] == imaging_stages
    hosts = {assignment[sid] for sid in imaging_stages}
    assert set(body["terminals"]) == hosts
    assert body["heuristic"]["total_energy_joules"] > 0.0
    assert len(body["heuristic"]["edges"]) >= 1
    assert body["exact"] is not None
    assert (body["exact"]["total_energy_joules"]
            <= body["heuristic"]["total_energy_joules"] + 1e-12)

    # gateway becomes an extra delivery terminal
    req.write_text(json.dumps({"task_id": "imaging", "source": "o2s3",
                               "gateway": "o0s3"}), encoding="utf-8")
    code, _, _ = run_cli(capsys, "orchestrate", TWO_TASK, "--out-dir", str(out),
                         "--plan", str(out / "plan.json"), "--request", str(req))
    assert code == 0
    body = json.loads((out / "tree.json").read_text())
    assert "o0s3" in body["terminals"]


def test_orchestrate_errors(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                         "--solver", "greedy")
    assert code == 0
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"task_id": "nope", "source": "o0s0"}), encoding="utf-8")
    code, _, err = run_cli(capsys, "orchestrate", TWO_TASK, "--out-dir", str(out),
                           "--plan", str(out / "plan.json"), "--request", str(req))
    assert code == 1
    assert json.loads(err)["error"]["message"] == "request names unknown task 'nope'"

    bad_plan = tmp_path / "bad_plan.json"
    bad_plan.write_text(json.dumps({"solver": "exact"}), encoding="utf-8")
    req.write_text(json.dumps({"task_id": "imaging", "source": "o0s0"}), encoding="utf-8")
    code, _, err = run_cli(capsys, "orchestrate", TWO_TASK, "--out-dir", str(out),
                           "--plan", str(bad_plan), "--request", str(req))
    assert code == 1
    assert json.loads(err)["error"]["message"] == "plan file has no 'assignment' object"


@pytest.mark.parametrize("plan, message", [
    ([1, 2], "plan file has no 'assignment' object"),
    ({"assignment": [1, 2]}, "plan.assignment: must be an object"),
    ({"assignment": {"precode_mask": 7}}, "plan.assignment.precode_mask: not a satellite label: 7"),
    ({"assignment": {"denoise": None}}, "plan.assignment.denoise: not a satellite label: None"),
    ({"assignment": {"denoise": "x9"}}, "plan.assignment.denoise: not a satellite label: 'x9'"),
])
def test_orchestrate_misshapen_plan_prints_one_error_line(tmp_path, plan, message):
    """A plan whose assignment is not an object of labels exits 1 with one
    JSON line naming the field, not a traceback."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"task_id": "imaging", "source": "o2s3"}), encoding="utf-8")
    assert_one_error_line(tmp_path, "orchestrate", TWO_TASK, "--plan", str(plan_path),
                          "--request", str(req), message=message)


def test_orchestrate_satellite_outside_the_shell_prints_one_error_line(tmp_path):
    """A 3x4 shell has no o9s9: a request and plan that name it exit 1
    instead of writing trees with no edges and no energy."""
    plan_path = tmp_path / "plan.json"
    stages = ["precode_mask", "denoise", "projection", "classify"]
    plan_path.write_text(json.dumps({"assignment": {sid: "o9s9" for sid in stages}}),
                         encoding="utf-8")
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"task_id": "imaging", "source": "o9s9"}), encoding="utf-8")
    assert_one_error_line(tmp_path, "orchestrate", TWO_TASK, "--plan", str(plan_path),
                          "--request", str(req), message="satellite o9s9 not in the snapshot")
    assert not (tmp_path / "out").exists()


def test_orchestrate_bad_source_label_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                         "--solver", "greedy")
    assert code == 0
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"task_id": "imaging", "source": "x9"}), encoding="utf-8")
    code, stdout, err = run_cli(capsys, "orchestrate", TWO_TASK, "--out-dir", str(out),
                                "--plan", str(out / "plan.json"), "--request", str(req))
    assert code == 2
    assert stdout == ""
    body = json.loads(err)["error"]
    assert body["type"] == "ScenarioError"
    assert body["message"] == "request.source: not a satellite label: 'x9'"


def test_error_exit_codes(tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "simulate", str(tmp_path / "missing.json"))
    assert code == 1
    assert stdout == ""
    body = json.loads(err)["error"]
    assert body["subcommand"] == "simulate"
    assert body["type"] == "FileNotFoundError"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"constellation": {}, "workload": {}, "bogus": 1}),
                   encoding="utf-8")
    code, stdout, err = run_cli(capsys, "simulate", str(bad))
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"]["type"] == "ScenarioError"


def test_input_too_large_to_allocate_exits_1(tmp_path, capsys, monkeypatch):
    """A command that runs out of memory (a shell too large to route, say)
    ends with exit 1 and one JSON line, not a traceback."""
    def routes(scn, args, out):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "routes", routes)
    code, stdout, err = run_cli(capsys, "routes", TWO_TASK, "--out-dir", str(tmp_path))
    assert (code, stdout) == (1, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == {"subcommand": "routes", "type": "MemoryError",
                                        "message": "Unable to allocate 7.28 TiB for an array"}


@pytest.mark.parametrize("section, key, value, message", [
    ("constellation", "num_orbits", 0, "constellation.num_orbits: must be >= 1"),
    ("constellation", "epoch", 1e300, "constellation.epoch: must be within 1e9 s of 0"),
    ("federation", "window_step_seconds", 1e-9,
     "federation.window_step_seconds: must be at least 1e-6 s"),
    ("workload", "precision_bits", 8, "workload.precision_bits: must be 16, 32, or 64"),
    ("federation", "rounds", 10**12, "federation.rounds: must be at most 10000"),
    ("constellation", "altitude_km", 1e120,
     "constellation.altitude_km: must be at most 40000 km"),
])
def test_semantic_scenario_errors_exit_2(tmp_path, capsys, section, key, value, message):
    path = Path(sim_scenario(tmp_path))
    obj = json.loads(path.read_text(encoding="utf-8"))
    obj[section][key] = value
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, stdout, err = run_cli(capsys, "simulate", str(path), "--out-dir",
                                str(tmp_path / "out"))
    assert code == 2
    assert stdout == ""
    body = json.loads(err)["error"]
    assert body["type"] == "ScenarioError"
    assert body["message"] == message
    assert not (tmp_path / "out").exists()


def test_int_beyond_float_range_exits_2(tmp_path, capsys):
    obj = json.loads(Path(TWO_TASK).read_text(encoding="utf-8"))
    obj["workload"]["head_params"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, stdout, err = run_cli(capsys, "allreduce", str(path), "--out-dir",
                                str(tmp_path / "out"))
    assert code == 2
    assert stdout == ""
    body = json.loads(err)["error"]
    assert body["type"] == "ScenarioError"
    assert body["message"] == "workload.head_params: must be finite"


@pytest.mark.parametrize("command, argv", [("simulate", []),
                                           ("downlink", ["--payload", "embeddings"])])
def test_workload_beyond_float_range_prints_one_error_line(tmp_path, command, argv):
    """Integer sizes each within range whose product is not: exit 1 with one
    JSON line, not a traceback."""
    obj = json.loads(Path(TWO_TASK).read_text(encoding="utf-8"))
    obj["workload"].update(samples_per_satellite=10**300, embedding_dim=10**10)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert_one_error_line(tmp_path, command, str(path), *argv, error="OverflowError",
                          message="int too large to convert to float")


@pytest.mark.parametrize("command", ["allreduce", "routes"])
def test_payload_bits_beyond_float_range_print_one_error_line(tmp_path, command):
    assert_one_error_line(tmp_path, command, TWO_TASK, "--payload-bits", str(10**400),
                          error="OverflowError", message="int too large to convert to float")


@pytest.mark.parametrize("range_km", [5500.0, 100.0])
def test_routes_negative_payload_prints_one_error_line(tmp_path, range_km):
    """Rejected before routing: at 100 km no ISL joins two orbits, so no
    path exists and the payload was once written out unchecked."""
    obj = json.loads((REPO / "scenarios" / "demo_walker6.json").read_text(encoding="utf-8"))
    obj["links"]["max_isl_range_km"] = range_km
    path = tmp_path / "walker6.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert_one_error_line(tmp_path, "routes", str(path), "--source-orbit", "0",
                          "--payload-bits", "-5",
                          message="payload_bits must be nonnegative and finite")
    assert not (tmp_path / "out" / "routes.json").exists()


def test_scenario_argument_is_a_path_whatever_its_name(tmp_path, capsys, monkeypatch):
    """A scenario file named like JSON text ("{demo}.json") is read as a
    file; it once exited 1 with a JSONDecodeError."""
    shutil.copy(REPO / "scenarios" / "demo_walker6.json", tmp_path / "{demo}.json")
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(capsys, "routes", "{demo}.json", "--source-orbit", "0",
                              "--dest-orbit", "3", "--out-dir", "out")
    assert code == 0
    assert read_report(stdout)["subcommand"] == "routes"


def test_python_dash_m_leoplan(tmp_path):
    """`python -m leoplan` runs the CLI through the package's __main__: exit
    0 and one JSON report line."""
    proc = subprocess.run([sys.executable, "-m", "leoplan", "allreduce", TWO_TASK,
                           "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert read_report(lines[0])["subcommand"] == "allreduce"


def test_console_script(tmp_path):
    exe = shutil.which("leoplan")
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "leoplan.cli"]
    proc = subprocess.run(cmd + ["allreduce", TWO_TASK, "--out-dir",
                                 str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["subcommand"] == "allreduce"


@pytest.mark.parametrize("bits", [-3.0, float("nan")])
def test_orchestrate_bad_hop_payload_bits_exits_2(tmp_path, capsys, bits):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, "deploy", TWO_TASK, "--out-dir", str(out),
                         "--solver", "greedy")
    assert code == 0
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"task_id": "imaging", "source": "o2s3",
                               "hop_payload_bits": bits}), encoding="utf-8")
    code, stdout, err = run_cli(capsys, "orchestrate", TWO_TASK, "--out-dir", str(out),
                                "--plan", str(out / "plan.json"), "--request", str(req))
    assert code == 2
    assert stdout == ""
    body = json.loads(err)["error"]
    assert body["type"] == "ScenarioError"
    assert body["message"] == "request.hop_payload_bits: must be nonnegative and finite"
