import math

import numpy as np
import pytest
from hypothesis import given, settings

from leoplan import (
    DeploymentInstance,
    LatencyModel,
    Microservice,
    Router,
    SatelliteId,
    SatelliteNode,
    ServiceDag,
    dag_latency,
    parse_scenario,
    shared_modules,
    validate_dag,
)

from oracles import random_service_dag, reference_dag_cycle, sat, task_unions, toy_snapshot


def ms(sid, flops=1e9, mem=1.0, out=1e6):
    return Microservice(sid, flops, mem, out)


def chain_dag(task_id="t", payload=1e6):
    return ServiceDag(
        task_id,
        (ms("a"), ms("b"), ms("c")),
        (("a", "b", payload), ("b", "c", payload)),
        ("a",),
        "c",
    )


def test_validate_ok():
    report = validate_dag(chain_dag())
    assert report.ok
    assert report.messages == []
    assert report.cycle == []


def test_validate_duplicate_ids():
    dag = ServiceDag("t", (ms("a"), ms("a")), (), ("a",), "a")
    report = validate_dag(dag)
    assert not report.ok
    assert "duplicate microservice ids" in report.messages


def test_validate_unknown_edge_endpoint():
    dag = ServiceDag("t", (ms("a"),), (("a", "ghost", 1.0),), ("a",), "a")
    report = validate_dag(dag)
    assert not report.ok
    assert "edge a->ghost references unknown microservice" in report.messages


def test_validate_entry_and_exit():
    dag = ServiceDag("t", (ms("a"),), (), ("zz",), "a")
    assert "entry zz is not a microservice of the task" in validate_dag(dag).messages
    dag = ServiceDag("t", (ms("a"),), (), ("a",), "zz")
    assert "exit node is not a microservice of the task" in validate_dag(dag).messages
    dag = ServiceDag("t", (ms("a"),), (), (), "a")
    assert "task has no entry nodes" in validate_dag(dag).messages


def test_validate_cycle():
    dag = ServiceDag("t", (ms("a"), ms("b")),
                     (("a", "b", 1.0), ("b", "a", 1.0)), ("a",), "b")
    report = validate_dag(dag)
    assert not report.ok
    assert report.cycle == ["a", "b", "a"]
    assert "dependency cycle: a -> b -> a" in report.messages


def test_validate_connectivity():
    dag = ServiceDag("t", (ms("a"), ms("b"), ms("c")),
                     (("a", "b", 1.0),), ("a",), "b")
    report = validate_dag(dag)
    assert not report.ok
    assert report.unreachable_from_entry == ["c"]
    assert report.cannot_reach_exit == ["c"]
    assert "unreachable from entries: c" in report.messages


def test_validate_negative_payload_and_resources():
    dag = ServiceDag("t", (ms("a"), Microservice("b", -1.0, 1.0, 1.0)),
                     (("a", "b", -5.0),), ("a",), "b")
    report = validate_dag(dag)
    assert not report.ok
    assert "edge a->b: payload_bits must be nonnegative and finite" in report.messages
    assert "microservice b: flops must be nonnegative and finite" in report.messages


def test_validate_empty_task():
    assert validate_dag(ServiceDag("t", (), (), (), None)).ok


def test_random_dags_validate():
    rng = np.random.default_rng(12)
    for k in range(50):
        dag = random_service_dag(rng, f"t{k}", [f"s{i}" for i in range(6)])
        assert validate_dag(dag).ok


@settings(max_examples=200, deadline=None)
@given(tasks=task_unions())
def test_validate_reports_the_recursive_search_cycle(tasks):
    for dag in tasks:
        report = validate_dag(dag)
        want = reference_dag_cycle(dag)
        assert report.cycle == want
        if want:
            assert report.messages == ["dependency cycle: " + " -> ".join(want)]


def test_long_chain_validates():
    """Deeper than the interpreter's recursion limit, directly and as a
    scenario's task library entry."""
    ids = [f"s{i}" for i in range(5000)]
    dag = ServiceDag("long", tuple(ms(i) for i in ids),
                     tuple((u, v, 1.0) for u, v in zip(ids, ids[1:])), (ids[0],), ids[-1])
    assert validate_dag(dag).ok
    scenario = {
        "constellation": {"num_orbits": 1, "sats_per_orbit": 1,
                          "altitude_km": 550.0, "inclination_deg": 0.0},
        "workload": {"samples_per_satellite": 10, "batch_size": 10, "embedding_dim": 16,
                     "precision_bits": 32, "head_params": 100, "embedding_params": 1000,
                     "encoder_params": 100000},
        "tasks": {"library": [{
            "id": "long",
            "services": [{"id": i, "flops": 1e9, "memory_bytes": 1.0, "output_bits": 1e6}
                         for i in ids],
            "edges": [{"from": u, "to": v, "payload_bits": 1.0} for u, v in zip(ids, ids[1:])],
            "exit": ids[-1]}]},
    }
    assert parse_scenario(scenario).tasks["long"].topological_order() == ids


def test_topological_order():
    dag = chain_dag()
    assert dag.topological_order() == ["a", "b", "c"]
    cyc = ServiceDag("t", (ms("a"), ms("b")),
                     (("a", "b", 1.0), ("b", "a", 1.0)), ("a",), "b")
    with pytest.raises(ValueError, match="dependency cycle"):
        cyc.topological_order()


def test_shared_modules():
    t1 = ServiceDag("t1", (ms("pre"), ms("cls")), (("pre", "cls", 1.0),), ("pre",), "cls")
    t2 = ServiceDag("t2", (ms("pre"), ms("trk")), (("pre", "trk", 1.0),), ("pre",), "trk")
    shared, stats = shared_modules([t1, t2])
    assert shared == {"pre"}
    assert stats.invocations_without_sharing == 4
    assert stats.invocations_with_sharing == 3
    assert stats.saved_per_epoch == 1
    with pytest.raises(ValueError, match="at least two tasks"):
        shared_modules([t1])


def test_shared_modules_counts_each_task_once():
    # A task that lists a module twice still counts once toward sharing.
    t1 = ServiceDag("t1", (ms("x"), ms("y")), (("x", "y", 1.0),), ("x",), "y")
    t2 = ServiceDag("t2", (ms("z"),), (), ("z",), "z")
    shared, stats = shared_modules([t1, t2])
    assert shared == set()
    assert stats.saved_per_epoch == 0


def test_dag_latency_single_host():
    # Everything on one satellite: pure compute, no transfer terms.
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    router = Router(snap)
    dag = chain_dag()
    placement = {s: sat("o0s0") for s in "abc"}
    out = dag_latency(dag, placement, router, LatencyModel(1e9))
    assert abs(out.total_seconds - 3.0) < 1e-12
    assert out.critical_path == ("a", "b", "c")


def test_dag_latency_with_transfers():
    snap = toy_snapshot([("o0s0", "o0s1", 1e6, 0.01)])
    router = Router(snap)
    dag = chain_dag(payload=2e6)
    placement = {"a": sat("o0s0"), "b": sat("o0s1"), "c": sat("o0s1")}
    out = dag_latency(dag, placement, router, LatencyModel(1e9))
    # a runs 1 s, a->b moves 2e6/1e6 + 0.01, b runs 1 s, b->c colocated, c runs 1 s.
    assert abs(out.total_seconds - (3.0 + 2.0 + 0.01)) < 1e-12


def test_dag_latency_join_takes_slower_branch():
    dag = ServiceDag(
        "t",
        (ms("src", flops=0.0), ms("fast", flops=1e6), ms("slow", flops=5e9), ms("join")),
        (("src", "fast", 0.0), ("src", "slow", 0.0),
         ("fast", "join", 0.0), ("slow", "join", 0.0)),
        ("src",),
        "join",
    )
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    router = Router(snap)
    placement = {s: sat("o0s0") for s in ("src", "fast", "slow", "join")}
    out = dag_latency(dag, placement, router, LatencyModel(1e9))
    assert abs(out.total_seconds - 6.0) < 1e-12
    assert out.critical_path == ("src", "slow", "join")


def test_dag_latency_multihop_bottleneck():
    # Route o0s0 -> o0s2 passes two hops; payload over min rate plus both props.
    snap = toy_snapshot([("o0s0", "o0s1", 4e6, 0.01), ("o0s1", "o0s2", 2e6, 0.02)])
    router = Router(snap)
    dag = ServiceDag("t", (ms("u", flops=0.0), ms("v", flops=0.0)),
                     (("u", "v", 1e6),), ("u",), "v")
    placement = {"u": sat("o0s0"), "v": sat("o0s2")}
    out = dag_latency(dag, placement, router, LatencyModel(1e9))
    assert abs(out.total_seconds - (1e6 / 2e6 + 0.03)) < 1e-12


def test_dag_latency_missing_host():
    snap = toy_snapshot([("o0s0", "o0s1", 1e6)])
    router = Router(snap)
    with pytest.raises(ValueError, match="microservice b has no host"):
        dag_latency(chain_dag(), {"a": sat("o0s0"), "c": sat("o0s0")},
                    router, LatencyModel())


def test_dag_latency_unrouteable_hosts():
    snap = toy_snapshot([("o0s0", "o0s1", 1e6)], extra_sats=("o9s0",))
    router = Router(snap)
    dag = ServiceDag("t", (ms("u"), ms("v")), (("u", "v", 1.0),), ("u",), "v")
    with pytest.raises(ValueError, match="no route"):
        dag_latency(dag, {"u": sat("o0s0"), "v": sat("o9s0")}, router, LatencyModel())
    with pytest.raises(ValueError, match="satellite o7s7 not in the snapshot"):
        dag_latency(dag, {"u": sat("o0s0"), "v": sat("o7s7")}, router, LatencyModel())


def test_dag_latency_rejects_a_shared_host_outside_the_snapshot():
    """Two services on one host need no transfer, but a host the snapshot
    lacks is still rejected, as DeploymentInstance rejects it."""
    snap = toy_snapshot([("o0s0", "o0s1", 1e6)])
    dag = ServiceDag("t", (ms("u"), ms("v")), (("u", "v", 1.0),), ("u",), "v")
    placement = {"u": sat("o9s9"), "v": sat("o9s9")}
    with pytest.raises(ValueError, match="satellite o9s9 not in the snapshot"):
        dag_latency(dag, placement, Router(snap), LatencyModel(1e9))
    with pytest.raises(ValueError, match="satellite o9s9 not in the snapshot"):
        DeploymentInstance([dag], [SatelliteNode(sat("o9s9"), 1e12, 1e12)], snap)


def test_transfer_seconds_rejects_a_satellite_outside_the_snapshot():
    """Either end, and both when they are one host, with dag_latency's
    message: an unknown end once raised a bare KeyError, and an unknown
    host paired with itself cost 0.0."""
    router = Router(toy_snapshot([("o0s0", "o0s1", 1e6, 0.5)]))
    a, x = sat("o0s0"), sat("o9s9")
    for u, v, unknown in ((a, x, "o9s9"), (x, a, "o9s9"), (x, x, "o9s9"), ("x", "x", "x")):
        with pytest.raises(ValueError, match=f"^satellite {unknown} not in the snapshot$"):
            router.transfer_seconds(u, v, 1e6)
    assert router.transfer_seconds(a, a, 1e6) == 0.0
    assert router.transfer_seconds(a, sat("o0s1"), 1e6) == 1.0 + 0.5


def test_empty_dag_latency_zero():
    snap = toy_snapshot([("o0s0", "o0s1", 1e6)])
    router = Router(snap)
    out = dag_latency(ServiceDag("t", (), (), (), None), {}, router, LatencyModel())
    assert out.total_seconds == 0.0
    assert out.critical_path == ()


def test_latency_model_overrides():
    model = LatencyModel(1e12, {sat("o0s0"): 5e11})
    assert model.throughput(sat("o0s0")) == 5e11
    assert model.throughput(sat("o0s1")) == 1e12


@pytest.mark.parametrize("value", [-1e9, -5.0, 0.0, math.inf, math.nan])
@pytest.mark.parametrize("where", ["default", "override"])
def test_latency_model_rejects_impossible_throughputs(value, where):
    """A throughput must be positive and finite: a negative one gave a
    negative latency, inf a free stage and 0.0 a ZeroDivisionError."""
    if where == "default":
        model, name = LatencyModel(value), "default_throughput_flops"
    else:
        model, name = LatencyModel(1e9, {sat("o0s0"): value}), "throughput override of o0s0"
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        model.validate()
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        dag_latency(chain_dag(), {s: sat("o0s0") for s in "abc"}, Router(snap), model)


class _CountingTuple(tuple):
    """A tuple that counts how often it is iterated."""

    def __iter__(self):
        self.iterations = getattr(self, "iterations", 0) + 1
        return super().__iter__()


def test_long_chain_lookups_are_indexed():
    # A 2,000-service chain on one host: building a placement instance and
    # one dag_latency must walk the services and edges a bounded number of
    # times, not once per service.
    n = 2000
    ids = [f"s{i}" for i in range(n)]
    services = _CountingTuple(Microservice(sid, 1e9 + i, 1.0, 1e6) for i, sid in enumerate(ids))
    edges = _CountingTuple((u, v, 1e6 + i) for i, (u, v) in enumerate(zip(ids, ids[1:])))
    dag = ServiceDag("chain", services, edges, (ids[0],), ids[-1])
    host = sat("o0s0")
    snap = toy_snapshot([("o0s0", "o0s1", 1e9)])
    DeploymentInstance([dag], [SatelliteNode(host, 1e12, 1e12)], snap)
    result = dag_latency(dag, {sid: host for sid in ids}, Router(snap), LatencyModel())
    assert services.iterations <= 10
    assert edges.iterations <= 10

    expected = 0.0
    for i in range(n):
        expected += (1e9 + i) / 1e12
    assert result.total_seconds == expected
    assert result.critical_path == tuple(ids)
