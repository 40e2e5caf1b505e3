"""Tests of the benchmark's own parts: seeded generators, the layer trace and
its self-time arithmetic, the tail statistic, the output checks (each must
reject a tampered result), and BENCHMARK.json agreeing with what a run prints."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Span  # noqa: E402


# ------------------------------------------------------------------ generators

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_distinct_per_op(name):
    make = workloads.WORKLOADS[name].make_input
    first = workloads.input_bytes(make(3, 0))
    assert workloads.input_bytes(make(3, 0)) == first
    others = {workloads.input_bytes(make(3, i)) for i in range(1, 4)}
    others.add(workloads.input_bytes(make(4, 0)))
    assert first not in others and len(others) == 4


def test_fed_ground_seed0_op0_is_the_bundled_demo():
    bundled = json.loads(workloads.DEMO_SCENARIO.read_text(encoding="utf-8"))
    assert workloads.fed_ground_input(0, 0)["scenario"] == bundled
    moved = workloads.fed_ground_input(0, 1)["scenario"]
    assert moved["ground_stations"] != bundled["ground_stations"]
    assert {k: v for k, v in moved.items() if k != "ground_stations"} == \
        {k: v for k, v in bundled.items() if k != "ground_stations"}


# ------------------------------------------------------------------ self time

def _span(i, parent, start, end, name="x", op=0, counts=None):
    return Span(op, i, parent, name, start, end, counts or {})


def test_self_time_subtracts_children_not_grandchildren():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 3.0),
             _span(3, 0, 5.0, 6.0)]
    assert layers.self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 7.0),
             _span(3, 0, 9.0, 12.0)]
    # Children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds.
    assert layers.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_values_aggregate_per_op_and_per_call():
    cw = "constellation.contact_windows"
    sd = "sgl_flow.schedule_downlink"
    spans = [
        _span(0, None, 0.0, 4.0, cw, op=1, counts={"samples": 10, "windows": 2}),
        _span(1, None, 4.0, 5.0, cw, op=1, counts={"samples": 30, "windows": 4}),
        _span(2, None, 0.0, 2.0, sd, op=1,
              counts={"epochs": 3, "window_epochs": 1, "over_delivery": 2}),
        _span(3, 2, 0.5, 1.0, "sgl_flow.max_flow", op=1),
        _span(4, None, 0.0, 1.0, cw, op=3, counts={"samples": 20, "windows": 0}),
    ]
    v = layers.layer_values(spans, layers.count_calls(spans), [1, 3])
    assert v[f"{cw}.calls"] == 1.5
    assert v[f"{cw}.self_s"] == pytest.approx(3.0)  # median of 5.0 and 1.0
    assert v[f"{cw}.samples"] == 20.0
    assert v[f"{cw}.windows"] == 2.0
    assert v[f"{sd}.self_s"] == pytest.approx(0.75)  # median of 1.5 and 0
    assert v["sgl_flow.max_flow.calls"] == 0.5
    assert v["sgl_flow.over_delivery"] == 1.0
    assert v["interorbit.all_pairs_shortest.calls"] == 0.0


def test_tracer_wraps_every_binding_and_restores_it():
    import leoplan
    from leoplan import deployment, interorbit, msdag

    original = interorbit.all_pairs_shortest
    inp = workloads.desk_solvers_input(0, 0)
    scn = leoplan.parse_scenario(inp["scenario"])
    topo = leoplan.snapshot(leoplan.build_walker(scn.constellation), 0.0, scn.link_config)
    tracer = layers.Tracer()
    tracer.op = 7
    tracer.install()
    try:
        assert deployment.all_pairs_shortest is msdag.all_pairs_shortest
        assert deployment.all_pairs_shortest is not original
        deployment.DeploymentInstance(scn.active_dags(), workloads._candidate_nodes(scn), topo)
    finally:
        tracer.uninstall()
    assert deployment.all_pairs_shortest is original
    assert leoplan.all_pairs_shortest is original
    assert "__wrapped__" not in vars(deployment.DeploymentInstance.__init__)
    by_name = {s.name: s for s in tracer.spans}
    root = by_name["deployment.DeploymentInstance"]
    assert root.parent is None and root.op == 7
    assert by_name["interorbit.all_pairs_shortest"].parent == root.id
    assert by_name["interorbit.build_weighted_graph"].parent == root.id
    assert by_name["interorbit.all_pairs_shortest"].counts == {"nodes": 12}
    assert tracer.calls == layers.count_calls(tracer.spans)


def test_count_only_layer_records_calls_but_no_span():
    import leoplan
    from leoplan import deployment

    inp = workloads.desk_solvers_input(0, 0)
    scn = leoplan.parse_scenario(inp["scenario"])
    topo = leoplan.snapshot(leoplan.build_walker(scn.constellation), 0.0, scn.link_config)
    instance = deployment.DeploymentInstance(scn.active_dags(),
                                             workloads._candidate_nodes(scn), topo)
    tracer = layers.Tracer()
    tracer.op = 2
    tracer.install()
    try:
        deployment.train_policy_gradient(deployment.DeploymentMdp(instance), episodes=2, seed=0)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["deployment.train_policy_gradient"]
    assert tracer.calls[("deployment.action_features", 2)] > 0


# ------------------------------------------------------------------ speed

def test_speed_sampler_scales_to_nominal_and_restores_the_handler():
    import signal

    import speed

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    sampler.start()
    sum(i * i for i in range(200_000))
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 2

    # Kernel at twice its nominal time: the op ran at half speed.
    nominal = speed.NOMINAL_S
    sampler.samples = [(0.0, 2 * nominal), (1.0, 2 * nominal), (5.0, 2 * nominal)]
    assert sampler.busy(0.5, 4.0) == pytest.approx(2 * nominal)
    assert sampler.nominal(0.5, 4.0) == pytest.approx((3.5 - 2 * nominal) / 2)


# ------------------------------------------------------------------ tail

def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    times = [float(i) for i in range(30)]
    assert run.tail(times) == (19.0, pytest.approx(100.0 * 20 / 30), 10)


def test_tail_falls_back_to_the_slowest_op_on_short_runs():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(15)]) == (14.0, 100.0, 0)


# ------------------------------------------------------------------ output checks

@pytest.fixture(scope="module")
def fed_result():
    inp = workloads.fed_ground_input(0, 1)
    obj = inp["scenario"]
    obj["constellation"].update(num_orbits=2, sats_per_orbit=3)
    obj["federation"].update(rounds=2, window_step_seconds=30.0)
    return workloads.fed_ground_op(inp)


@pytest.fixture(scope="module")
def shell_result():
    return workloads.shell_plan_op(workloads.shell_plan_input(0, 0, orbits=6, slots=8))


@pytest.fixture(scope="module")
def desk_result():
    return workloads.desk_solvers_op(workloads.desk_solvers_input(0, 0))


def _copy_traces(result):
    traces = [dataclasses.replace(tr, phase_seconds=dict(tr.phase_seconds))
              for tr in result["traces"]]
    return dict(result, traces=traces)


def test_fed_ground_check(fed_result):
    assert workloads.fed_ground_check(fed_result) == []
    bad = _copy_traces(fed_result)
    bad["traces"][0].phase_seconds["sgl_down"] += 1.0
    assert any("phase seconds" in p for p in workloads.fed_ground_check(bad))
    bad = _copy_traces(fed_result)
    bad["traces"][1].energy_joules *= 1.001
    assert any("energy" in p for p in workloads.fed_ground_check(bad))


def test_shell_plan_check(shell_result):
    r = shell_result
    assert workloads.shell_plan_check(r) == []
    assert len(r["paths"]) >= 2
    p = r["paths"]
    reused = dataclasses.replace(p, paths=(p.paths[0],) + p.paths[1:] + (p.paths[0],))
    assert any("reuses edge" in m for m in workloads.shell_plan_check(dict(r, paths=reused)))
    flipped = dataclasses.replace(p, paths=(tuple(reversed(p.paths[0])),) + p.paths[1:])
    assert any("starts outside" in m for m in workloads.shell_plan_check(dict(r, paths=flipped)))

    host = r["instance"].satellites[0].id
    crowded = dataclasses.replace(r["plan"], assignment={sid: host for sid in r["plan"].assignment})
    assert any("overfills" in m for m in workloads.shell_plan_check(dict(r, plan=crowded)))

    task, entry = sorted(r["trees"].items())[0]
    tree = entry["heuristic"]
    cut = dataclasses.replace(tree, edges=frozenset(sorted(tree.edges)[1:]))
    trees = dict(r["trees"], **{task: dict(entry, heuristic=cut)})
    assert any("validate_tree" in m for m in workloads.shell_plan_check(dict(r, trees=trees)))

    epochs = r["downlink"].epochs
    k = next(k for k, ep in enumerate(epochs) if ep.assignment.value > 0)
    orbit = sorted(epochs[k].delivered)[0]
    dropped = {o: f for o, f in epochs[k].delivered.items() if o != orbit}
    for delivered, message in (({**epochs[k].delivered, orbit: -0.25}, "< 0"),
                               ({**epochs[k].delivered, orbit: epochs[k].delivered[orbit] + 0.25},
                                "sum to"),
                               (dropped, "books orbits")):
        tampered = epochs[:k] + [dataclasses.replace(epochs[k], delivered=delivered)] + epochs[k + 1:]
        downlink = dataclasses.replace(r["downlink"], epochs=tampered)
        assert any(message in m for m in workloads.shell_plan_check(dict(r, downlink=downlink)))


def test_desk_solvers_check(desk_result):
    r = desk_result
    assert workloads.desk_solvers_check(r) == []
    plans = r["plans"]
    cheap = dataclasses.replace(plans["greedy"], objective=plans["exact"].objective * 0.5)
    problems = workloads.desk_solvers_check(dict(r, plans=dict(plans, greedy=cheap)))
    assert any("exceeds the greedy objective" in m for m in problems)
    assert any("msdag latencies sum" in m for m in problems)

    task, entry = sorted(r["trees"].items())[0]
    costly = dataclasses.replace(entry["exact"],
                                 total_energy=entry["heuristic"].total_energy * 2.0)
    trees = dict(r["trees"], **{task: dict(entry, exact=costly)})
    assert any("dst_exact energy" in m for m in workloads.desk_solvers_check(dict(r, trees=trees)))
    cut = dataclasses.replace(entry["exact"], edges=frozenset())
    trees = dict(r["trees"], **{task: dict(entry, exact=cut)})
    assert any("validate_tree" in m for m in workloads.desk_solvers_check(dict(r, trees=trees)))


def test_output_digest_tracks_the_output(desk_result):
    wl = workloads.WORKLOADS["desk_solvers"]
    digest = workloads.output_digest(wl, desk_result)
    assert workloads.output_digest(wl, desk_result) == digest
    plans = desk_result["plans"]
    moved = dataclasses.replace(plans["pg"], objective=plans["pg"].objective + 1e-15)
    assert workloads.output_digest(wl, dict(desk_result, plans=dict(plans, pg=moved))) != digest


# ------------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_matches_what_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == layers.per_layer_specs()
    records = [{"host_s": 1.0, "nominal_s": 1.0, "ok": True}]
    metrics, _ = run.end_to_end(records, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert set(layers.EXPECTED_LAYERS) == set(workloads.WORKLOADS)
