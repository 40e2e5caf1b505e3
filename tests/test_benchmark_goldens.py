"""The benchmark's recorded desk_solvers outputs, checked in Tier-1.

perfbench/goldens.json holds the sha256 of each op's canonical output for
seeds 0-9 and the first 3 ops, and perfbench/run.py compares them only while
it times a run. Here the same 30 desk_solvers ops (exact, greedy and
policy-gradient placement, per-task latencies, Steiner trees) run through
perfbench/workloads.py and every digest is compared, so a change to a
placement output fails in the test suite too. Both files are only read.
"""

import json

import pytest

from oracles import PERFBENCH, perfbench_workloads

GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))["desk_solvers"]


@pytest.mark.parametrize("seed", sorted(GOLDENS, key=int))
def test_desk_solvers_outputs_match_the_benchmark_goldens(seed):
    workloads = perfbench_workloads()
    workload = workloads.WORKLOADS["desk_solvers"]
    for op_index, want in enumerate(GOLDENS[seed]):
        result = workload.run(workload.make_input(int(seed), op_index))
        assert workload.check(result) == []
        assert workloads.output_digest(workload, result) == want, f"seed {seed} op {op_index}"
