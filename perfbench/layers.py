"""Outside-in layer trace: wrap leoplan's public functions at the module
attributes their callers look up, record one span per call, and reduce the
spans to per-layer metrics.

Nothing under ``src/`` knows about the trace. ``Tracer.install`` replaces
every binding of a listed function in the ``leoplan`` package, so
``leoplan.simkernel.contact_windows`` and ``leoplan.constellation.contact_windows``
both record into ``constellation.contact_windows``; for a class the
constructor is wrapped. ``Tracer.uninstall`` puts the originals back, which
lets a run alternate traced and untraced ops and measure the trace overhead.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import statistics
import sys
import time

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _contact_counts(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    steps = len(np.arange(0.0, a["horizon"], a["step"]))
    return {"samples": steps * a["constellation"].num_satellites * len(a["stations"]),
            "windows": len(result)}


def _downlink_counts(fn, args, kwargs, result) -> dict:
    """Epochs run, epochs with a contact window, and orbit-epochs that delivered
    more than the orbit had left (the known over-count).

    Every caller starts from full models (no initial_state).
    """
    remaining = {o: 1.0 for o in result.state.remaining}
    over = 0
    for ep in result.epochs:
        for orbit, delivered in ep.delivered.items():
            if delivered > remaining[orbit] + 1e-9:
                over += 1
            remaining[orbit] = max(0.0, remaining[orbit] - delivered)
    return {"epochs": result.epochs_used,
            "window_epochs": sum(1 for ep in result.epochs if ep.assignment.flows),
            "over_delivery": over}


@dataclasses.dataclass(frozen=True)
class Layer:
    """A traced leoplan callable, named ``<module>.<attribute>``.

    counts(fn, args, kwargs, result) returns per-call counters. A layer with
    span=False only counts its calls: it runs thousands of times per op, and
    a span each would cost more memory and overhead than it tells.
    """

    name: str
    counts: object = None
    span: bool = True


LAYERS = (
    Layer("scenario.parse_scenario"),
    Layer("simkernel.simulate_fine_tuning"),
    Layer("constellation.contact_windows", _contact_counts),
    Layer("constellation.snapshot"),
    Layer("interorbit.build_weighted_graph"),
    Layer("interorbit.all_pairs_shortest", lambda fn, a, k, r: {"nodes": len(r.nodes)}),
    Layer("interorbit.select_disjoint_paths", lambda fn, a, k, r: {"paths": len(r)}),
    Layer("sgl_flow.schedule_downlink", _downlink_counts),
    Layer("sgl_flow.max_flow"),
    Layer("collective.plan_all_gather"),
    Layer("collective.plan_all_reduce"),
    Layer("deployment.DeploymentInstance"),
    Layer("deployment.solve_exact"),
    Layer("deployment.solve_greedy"),
    Layer("deployment.train_policy_gradient"),
    Layer("deployment.action_features", span=False),
    Layer("msdag.Router"),
    Layer("msdag.dag_latency"),
    Layer("orchestration.build_augmented_graph"),
    Layer("orchestration.dst_exact"),
    Layer("orchestration.dst_heuristic"),
)

# Layers each workload is known to call; a traced run in which one of them
# records no call fails, so a rename cannot silently drop a layer.
EXPECTED_LAYERS = {
    "fed_ground": ("scenario.parse_scenario", "simkernel.simulate_fine_tuning",
                   "constellation.contact_windows", "sgl_flow.schedule_downlink",
                   "sgl_flow.max_flow", "collective.plan_all_gather",
                   "collective.plan_all_reduce"),
    "shell_plan": ("scenario.parse_scenario", "constellation.snapshot",
                   "interorbit.build_weighted_graph", "interorbit.all_pairs_shortest",
                   "interorbit.select_disjoint_paths", "deployment.DeploymentInstance",
                   "deployment.solve_greedy", "orchestration.build_augmented_graph",
                   "orchestration.dst_heuristic", "constellation.contact_windows",
                   "sgl_flow.schedule_downlink", "sgl_flow.max_flow"),
    "desk_solvers": ("scenario.parse_scenario", "constellation.snapshot",
                     "interorbit.build_weighted_graph", "interorbit.all_pairs_shortest",
                     "deployment.DeploymentInstance", "deployment.solve_exact",
                     "deployment.solve_greedy", "deployment.train_policy_gradient",
                     "deployment.action_features", "msdag.Router", "msdag.dag_latency",
                     "orchestration.build_augmented_graph", "orchestration.dst_exact",
                     "orchestration.dst_heuristic"),
}


@dataclasses.dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict


class Tracer:
    """Keeps spans in memory; ``write`` saves them as JSON lines at the end."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict = {}  # (layer name, op) -> calls
        self.op = -1
        self._next_id = 0
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, layer: Layer, fn):
        tracer = self

        def counted(*args, **kwargs):
            key = (layer.name, tracer.op)
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        def traced(*args, **kwargs):
            key = (layer.name, tracer.op)
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            counts = layer.counts(fn, args, kwargs, result) if layer.counts else {}
            tracer.spans.append(Span(tracer.op, span_id, parent, layer.name, start, end, counts))
            return result

        wrapper = traced if layer.span else counted
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every layer in the package's loaded modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "leoplan" or name.startswith("leoplan."))]
        for layer in LAYERS:
            mod_name, attr = layer.name.split(".")
            owner = sys.modules[f"leoplan.{mod_name}"]
            original = getattr(owner, attr)  # AttributeError names a renamed layer
            if inspect.isclass(original):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(layer, init))
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        """One JSON line per span, then one per (layer, op) call count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span), sort_keys=True) + "\n")
            for (name, op), n in sorted(self.calls.items()):
                fh.write(json.dumps({"calls": n, "name": name, "op": op}, sort_keys=True) + "\n")

    def total_calls(self) -> dict:
        out: dict = {}
        for (name, _), n in self.calls.items():
            out[name] = out.get(name, 0) + n
        return out


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def count_calls(spans) -> dict:
    """(layer name, op) -> calls, as a Tracer counts them, from spans alone."""
    out: dict = {}
    for s in spans:
        out[(s.name, s.op)] = out.get((s.name, s.op), 0) + 1
    return out


# Per-layer metrics: (metric name, unit, better, layer, statistic). "calls" is
# the mean count per traced op, "self_s" the median over traced ops of the
# op's summed self time, "per_call:<c>" the mean of counter c over the
# layer's calls, and "per_op:<c>" the mean over traced ops of c summed in the op.
def _layer_metrics():
    stats = {
        "scenario.parse_scenario": ("calls", "self_s"),
        "simkernel.simulate_fine_tuning": ("self_s",),
        "constellation.contact_windows": ("calls", "self_s", "samples", "windows"),
        "constellation.snapshot": ("calls", "self_s"),
        "interorbit.build_weighted_graph": ("calls", "self_s"),
        "interorbit.all_pairs_shortest": ("calls", "self_s", "nodes"),
        "interorbit.select_disjoint_paths": ("calls", "self_s", "paths"),
        "sgl_flow.schedule_downlink": ("calls", "self_s", "epochs", "window_epochs"),
        "sgl_flow.max_flow": ("calls", "self_s"),
        "collective.plan_all_gather": ("calls", "self_s"),
        "collective.plan_all_reduce": ("calls", "self_s"),
        "deployment.DeploymentInstance": ("self_s",),
        "deployment.solve_exact": ("calls", "self_s"),
        "deployment.solve_greedy": ("calls", "self_s"),
        "deployment.train_policy_gradient": ("calls", "self_s"),
        "deployment.action_features": ("calls",),
        "msdag.Router": ("self_s",),
        "msdag.dag_latency": ("calls", "self_s"),
        "orchestration.build_augmented_graph": ("calls", "self_s"),
        "orchestration.dst_exact": ("calls", "self_s"),
        "orchestration.dst_heuristic": ("calls", "self_s"),
    }
    units = {"calls": "calls/op", "self_s": "s", "samples": "samples/call",
             "windows": "windows/call", "nodes": "nodes/call", "paths": "paths/call",
             "epochs": "epochs/call", "window_epochs": "epochs/call"}
    better = {"paths": "higher"}
    out = []
    for layer, names in stats.items():
        for stat in names:
            how = stat if stat in ("calls", "self_s") else f"per_call:{stat}"
            out.append((f"{layer}.{stat}", units[stat], better.get(stat, "lower"), layer, how))
    out.append(("sgl_flow.over_delivery", "count/op", "lower", "sgl_flow.schedule_downlink",
                "per_op:over_delivery"))
    return tuple(out)


LAYER_METRICS = _layer_metrics()

# Metrics read from op outputs, not spans: median over the run's ops. A
# metric of a layer that does not run on a workload reads 0.
QUALITY_METRICS = (
    ("deployment.greedy_gap", "ratio", "lower"),
    ("deployment.pg_gap", "ratio", "lower"),
    ("orchestration.heuristic_excess", "ratio", "lower"),
    ("simkernel.sim_s_per_host_s", "s/s", "higher"),
    ("simkernel.sgl_down_bits_ratio", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_specs() -> list:
    """Every per-layer metric as (name, unit, better), in output order."""
    return ([(name, unit, better) for name, unit, better, _, _ in LAYER_METRICS]
            + list(QUALITY_METRICS))


def layer_values(spans, calls, ops) -> dict:
    """Reduce the spans and call counts of the traced ops ``ops`` to LAYER_METRICS values."""
    ops = list(ops)
    selfs = self_times(spans)
    per_op_self: dict = {}
    per_op_count: dict = {}
    per_call: dict = {}
    for s in spans:
        per_op_self[(s.name, s.op)] = per_op_self.get((s.name, s.op), 0.0) + selfs[s.id]
        for key, value in s.counts.items():
            per_op_count[(s.name, key, s.op)] = per_op_count.get((s.name, key, s.op), 0) + value
            per_call.setdefault((s.name, key), []).append(value)
    out = {}
    for name, _, _, layer, how in LAYER_METRICS:
        if how == "calls":
            out[name] = (sum(calls.get((layer, op), 0) for op in ops) / len(ops)
                         if ops else 0.0)
        elif how == "self_s":
            out[name] = statistics.median(per_op_self.get((layer, op), 0.0) for op in ops) \
                if ops else 0.0
        elif how.startswith("per_call:"):
            values = per_call.get((layer, how.split(":")[1]), [])
            out[name] = float(np.mean(values)) if values else 0.0
        else:
            counter = how.split(":")[1]
            out[name] = (sum(per_op_count.get((layer, counter, op), 0) for op in ops) / len(ops)
                         if ops else 0.0)
    return out
