"""Microservice DAG modeling: validation, shared-module detection, and
end-to-end latency of a placed task over a topology snapshot.

A task is a DAG of microservices; several tasks may reference the same
microservice id, in which case the module is shared and runs once per epoch
no matter how many tasks call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .constellation import TopologySnapshot
from .graph import _require_finite, reachable, topological_order
from .interorbit import ShortestPaths, all_pairs_shortest, build_weighted_graph


@dataclass(frozen=True)
class Microservice:
    id: str
    flops: float
    memory_bytes: float
    output_bits: float

    def validate(self) -> None:
        if not self.id:
            raise ValueError("microservice id must be nonempty")
        _require_finite("nonnegative and finite", **{
            f"microservice {self.id}: {name}": getattr(self, name)
            for name in ("flops", "memory_bytes", "output_bits")})


@dataclass(frozen=True)
class ServiceDag:
    """One task decomposed into microservices with dataflow edges.

    edges are (producer_id, consumer_id, payload_bits) triples. A DAG with no
    services is the empty task; exit_node is then None.
    """

    task_id: str
    services: tuple
    edges: tuple
    entries: tuple
    exit_node: str | None

    @cached_property
    def _by_id(self) -> dict:
        # reversed, so the first of repeated ids wins
        return {s.id: s for s in reversed(self.services)}

    @cached_property
    def _preds(self) -> dict:
        preds: dict = {}
        for (u, v, bits) in self.edges:
            preds.setdefault(v, []).append((u, bits))
        return preds

    def service(self, service_id: str) -> Microservice:
        return self._by_id[service_id]

    def service_ids(self) -> list:
        return [s.id for s in self.services]

    def predecessors(self, node: str) -> list:
        return list(self._preds.get(node, ()))

    def topological_order(self) -> list:
        ids = self.service_ids()
        order = topological_order(ids, [(u, v) for (u, v, _) in self.edges])
        if len(order) != len(ids):
            raise ValueError(f"task {self.task_id}: dependency cycle")
        return order


@dataclass
class ValidationReport:
    cycle: list = field(default_factory=list)
    unreachable_from_entry: list = field(default_factory=list)
    cannot_reach_exit: list = field(default_factory=list)
    messages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """A DAG passes when no check left a message."""
        return not self.messages


def validate_dag(dag: ServiceDag) -> ValidationReport:
    """Structural checks: unique ids, known endpoints, acyclicity, connectivity."""
    report = ValidationReport()

    ids = dag.service_ids()
    if len(set(ids)) != len(ids):
        report.messages.append("duplicate microservice ids")
    for s in dag.services:
        try:
            s.validate()
        except ValueError as exc:
            report.messages.append(str(exc))
    known = set(ids)
    for (u, v, bits) in dag.edges:
        if u not in known or v not in known:
            report.messages.append(f"edge {u}->{v} references unknown microservice")
        if not (math.isfinite(bits) and bits >= 0):
            report.messages.append(f"edge {u}->{v}: payload_bits must be nonnegative and finite")
    for e in dag.entries:
        if e not in known:
            report.messages.append(f"entry {e} is not a microservice of the task")
    if dag.services and dag.exit_node not in known:
        report.messages.append("exit node is not a microservice of the task")
    if dag.services and not dag.entries:
        report.messages.append("task has no entry nodes")
    if not report.ok or not dag.services:
        return report

    succ = {i: [] for i in ids}
    pred = {i: [] for i in ids}
    for (u, v, _) in dag.edges:
        succ[u].append(v)
        pred[v].append(u)

    # Depth-first cycle detection on an explicit stack (roots sorted,
    # successors in edge order); pending[k] holds stack_path[k]'s untried ones.
    color = {i: 0 for i in ids}
    for root in sorted(ids):
        if color[root] != 0:
            continue
        color[root] = 1
        stack_path = [root]
        pending = [iter(succ[root])]
        while pending:
            for v in pending[-1]:
                if color[v] == 1:
                    cyc = stack_path[stack_path.index(v):] + [v]
                    report.cycle = cyc
                    report.messages.append("dependency cycle: " + " -> ".join(cyc))
                    return report
                if color[v] == 0:
                    color[v] = 1
                    stack_path.append(v)
                    pending.append(iter(succ[v]))
                    break
            else:
                color[stack_path.pop()] = 2
                pending.pop()

    from_entry = reachable(succ, dag.entries)
    to_exit = reachable(pred, [dag.exit_node])
    report.unreachable_from_entry = sorted(set(ids) - from_entry)
    report.cannot_reach_exit = sorted(set(ids) - to_exit)
    if report.unreachable_from_entry:
        report.messages.append(
            "unreachable from entries: " + ", ".join(report.unreachable_from_entry))
    if report.cannot_reach_exit:
        report.messages.append(
            "cannot reach exit: " + ", ".join(report.cannot_reach_exit))
    return report


@dataclass(frozen=True)
class DedupStats:
    invocations_without_sharing: int
    invocations_with_sharing: int

    @property
    def saved_per_epoch(self) -> int:
        return self.invocations_without_sharing - self.invocations_with_sharing


def shared_modules(tasks):
    """Microservice ids used by two or more tasks, plus dedup statistics.

    Returns (shared_ids, DedupStats): without sharing every task runs its own
    copy each epoch; with sharing each distinct id runs once per epoch.
    """
    tasks = list(tasks)
    if len(tasks) < 2:
        raise ValueError("shared-module analysis needs at least two tasks")
    usage: dict = {}
    for task in tasks:
        for sid in set(task.service_ids()):
            usage[sid] = usage.get(sid, 0) + 1
    shared = {sid for sid, count in usage.items() if count >= 2}
    without = sum(usage.values())
    return shared, DedupStats(without, len(usage))


@dataclass(frozen=True)
class LatencyModel:
    """Compute throughput per host, with per-host overrides of the default."""

    default_throughput_flops: float = 1e12
    throughput_overrides: dict = field(default_factory=dict, compare=False)

    def validate(self) -> None:
        _require_finite("positive and finite",
                        default_throughput_flops=self.default_throughput_flops,
                        **{f"throughput override of {host}": value
                           for host, value in self.throughput_overrides.items()})

    def throughput(self, host) -> float:
        return self.throughput_overrides.get(host, self.default_throughput_flops)


@dataclass(frozen=True)
class LatencyBreakdown:
    total_seconds: float
    critical_path: tuple


class Router:
    """ISL routes over a snapshot for repeated latency queries.

    The route table covers every node of the snapshot and is built whole
    when the Router is: every column is replayed up front, about one more
    pivot pass than replaying only the columns a DAG reads.
    """

    def __init__(self, snapshot: TopologySnapshot):
        self._paths: ShortestPaths = all_pairs_shortest(build_weighted_graph(snapshot))
        self.index = self._paths.index

    def transfer_seconds(self, u, v, payload_bits: float) -> float:
        """Payload time along the routed u->v path between two satellites of
        the snapshot; 0.0 when both ends are the same host. An end outside
        the snapshot raises ValueError."""
        for host in (u, v):
            if host not in self.index:
                raise ValueError(f"satellite {host} not in the snapshot")
        return self._paths.transfer_at(self.index[u], self.index[v], payload_bits)


def dag_latency(dag: ServiceDag, placement, router: Router,
                model: LatencyModel) -> LatencyBreakdown:
    """Longest entry-to-exit path of a placed DAG.

    A node starts when all inbound payloads have arrived and runs
    flops/throughput on its host; an edge costs payload/bottleneck plus
    propagation along the snapshot's min-weight route between the hosts.
    Every host must be a satellite of the router's snapshot.
    """
    model.validate()
    if not dag.services:
        return LatencyBreakdown(0.0, ())
    for sid in dag.service_ids():
        if sid not in placement:
            raise ValueError(f"microservice {sid} has no host in the placement")
        if placement[sid] not in router.index:
            raise ValueError(f"satellite {placement[sid]} not in the snapshot")

    finish: dict = {}
    via: dict = {}
    for sid in dag.topological_order():
        host = placement[sid]
        run = dag.service(sid).flops / model.throughput(host)
        preds = dag.predecessors(sid)
        if preds:
            arrivals = [(finish[u] + router.transfer_seconds(placement[u], host, bits), u)
                        for (u, bits) in preds]
            start, via[sid] = max(arrivals, key=lambda a: (a[0], a[1]))
        else:
            start = 0.0
            via[sid] = None
        finish[sid] = start + run

    path = [dag.exit_node]
    while via[path[-1]] is not None:
        path.append(via[path[-1]])
    path.reverse()
    return LatencyBreakdown(finish[dag.exit_node], tuple(path))
