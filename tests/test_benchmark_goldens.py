"""The benchmark's recorded outputs, checked in Tier-1.

perfbench/goldens.json holds the sha256 of each op's canonical output for
every workload, seeds 0-9 and the first 3 ops, and perfbench/run.py compares
them only while it times a run. Here the same ops run through
perfbench/workloads.py and every digest is compared: desk_solvers (exact,
greedy and policy-gradient placement, per-task latencies, Steiner trees),
shell_plan (disjoint routes, greedy placement on a 24x22 shell, heuristic
trees, the downlink schedule) and fed_ground (a federated campaign). So a
change to any of those outputs fails in the test suite too. A traced op
of each workload must also reach every layer perfbench/layers.py expects of
it, as a --trace 1 run does. The perfbench files are only read.
"""

import json
import math
import sys

import numpy as np
import pytest

from oracles import PERFBENCH, compensated_sum, perfbench_module

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))
CASES = [(name, seed) for name in sorted(GOLDENS) for seed in sorted(GOLDENS[name], key=int)]


@pytest.mark.parametrize("name, seed", CASES)
def test_outputs_match_the_benchmark_goldens(name, seed):
    workloads = perfbench_module("workloads")
    workload = workloads.WORKLOADS[name]
    for op_index, want in enumerate(GOLDENS[name][seed]):
        result = workload.run(workload.make_input(int(seed), op_index))
        assert workload.check(result) == []
        assert workloads.output_digest(workload, result) == want, f"{name} seed {seed} op {op_index}"


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_a_traced_op_reaches_every_expected_layer(name):
    layers = perfbench_module("layers")
    workload = perfbench_module("workloads").WORKLOADS[name]
    inp = workload.make_input(0, 1)
    tracer = layers.Tracer()
    tracer.install()
    try:
        result = workload.run(inp)
    finally:
        tracer.uninstall()
    calls = tracer.total_calls()
    assert [layer for layer in layers.EXPECTED_LAYERS[name] if not calls.get(layer)] == []
    assert workload.check(result) == []


def test_outputs_hold_under_the_compensated_sum_of_python_3_12(monkeypatch):
    """From Python 3.12 builtin sum() compensates float sums, so every float
    total that reaches an output must add left to right on its own. With
    3.12's sum in every leoplan module, ops whose outputs hold such totals
    (a campaign's seconds and energy, ring and route times, placement and
    tree objectives) keep their recorded digests."""
    assert compensated_sum([0.1] * 10) == 1.0 and compensated_sum([2, 3]) == 5
    for name, module in list(sys.modules.items()):
        if name == "leoplan" or name.startswith("leoplan."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    workloads = perfbench_module("workloads")
    moved = []
    for name, op_index in [("fed_ground", 0), ("shell_plan", 0), ("desk_solvers", 2)]:
        workload = workloads.WORKLOADS[name]
        result = workload.run(workload.make_input(0, op_index))
        if workloads.output_digest(workload, result) != GOLDENS[name]["0"][op_index]:
            moved.append(name)
    assert moved == []


def test_policy_gradient_outputs_hold_under_libm_exp(monkeypatch):
    """deployment._softmax takes numpy's exp, whose SIMD loops can differ from
    libm's exp in the last bits, and which loop runs depends on the CPU. With
    a per-element math.exp in its place, the desk_solvers outputs (whose
    policy-gradient plans and returns pass through the softmax) keep their
    recorded digests, so they do not follow the host's exp."""
    from leoplan import deployment

    calls = []

    class LibmExp:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x):
            calls.append(len(x))
            return np.array([math.exp(v) for v in x.tolist()])

    monkeypatch.setattr(deployment, "np", LibmExp())
    workloads = perfbench_module("workloads")
    workload = workloads.WORKLOADS["desk_solvers"]
    for op_index, want in enumerate(GOLDENS["desk_solvers"]["0"]):
        result = workload.run(workload.make_input(0, op_index))
        assert workloads.output_digest(workload, result) == want, f"op {op_index}"
    assert calls
