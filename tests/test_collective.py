import numpy as np
import pytest

from leoplan import (
    Phase,
    RingSpec,
    execute,
    plan_all_gather,
    plan_all_reduce,
)

from oracles import uniform_all_reduce_time


def test_ring_spec_validation():
    RingSpec.uniform(4, 1e9).validate()
    with pytest.raises(ValueError):
        RingSpec.uniform(1, 1e9).validate()
    with pytest.raises(ValueError):
        RingSpec(3, (1e9, 1e9)).validate()
    with pytest.raises(ValueError):
        RingSpec(2, (1e9, 0.0)).validate()


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_ring_rejects_a_non_finite_link_rate(rate):
    """A NaN rate lost every comparison of the schedule (this ring's
    all-reduce read 4e-07 s); an infinite one sends over its link in no time."""
    with pytest.raises(ValueError, match="link rate 0 must be positive and finite"):
        plan_all_reduce(RingSpec(3, (rate, 1e9, 1e9)), 300)


def test_two_node_all_reduce():
    # N=2, D=1e9, r=1e9: reduce-scatter one half, all-gather the other.
    res = plan_all_reduce(RingSpec.uniform(2, 1e9), 10**9)
    assert res.completion_time == 1.0
    # Each node sends one 5e8-bit block in each of the 2 steps.
    assert res.bits_sent_per_node == (10**9, 10**9)
    assert len(res.schedule.steps) == 4  # 2 steps x 2 transfers


def test_four_node_all_reduce_time():
    res = plan_all_reduce(RingSpec.uniform(4, 1e6), 8 * 10**6)
    # block = 2e6 bits, 6 steps of 2 s each
    assert res.completion_time == 12.0
    assert res.total_bits_sent == 4 * 6 * 2 * 10**6


def test_schedule_structure():
    n = 5
    res = plan_all_reduce(RingSpec.uniform(n, 1e6), 10**6)
    steps = res.schedule.steps
    assert len(steps) == 2 * (n - 1) * n
    block = -(-10**6 // n)
    for st in steps:
        assert st.receiver == (st.sender + 1) % n
        assert st.block_bits == block
    rs = [st for st in steps if st.phase is Phase.REDUCE_SCATTER]
    ag = [st for st in steps if st.phase is Phase.ALL_GATHER]
    assert len(rs) == len(ag) == (n - 1) * n
    # Step k of reduce-scatter moves block (i-k) mod n out of node i.
    for st in rs:
        assert st.block_id == (st.sender - st.step_index) % n
    for st in ag:
        k = st.step_index - (n - 1)
        assert st.block_id == (st.sender + 1 - k) % n


def test_slow_link_dominates_every_step():
    fast = plan_all_reduce(RingSpec.uniform(4, 2e9), 10**9)
    assert abs(fast.completion_time - 0.75) < 1e-12
    rates = (2e9, 2e9, 1e9, 2e9)
    slow = plan_all_reduce(RingSpec(4, rates), 10**9)
    # The slow link carries one transfer in each of the 6 steps.
    assert abs(slow.completion_time - 1.5) < 1e-12


def test_matches_uniform_closed_form():
    for n in (2, 3, 4, 8, 16):
        d = n * 10**6  # divisible, so block padding is exact
        res = plan_all_reduce(RingSpec.uniform(n, 1e9), d)
        want = uniform_all_reduce_time(n, d, 1e9)
        assert abs(res.completion_time - want) <= 1e-9 * want


def test_padding_rounds_block_up():
    res = plan_all_reduce(RingSpec.uniform(3, 1e6), 10)
    assert res.schedule.steps[0].block_bits == 4  # ceil(10/3)


def test_payload_too_small():
    with pytest.raises(ValueError, match="payload_bits must be at least node_count"):
        plan_all_reduce(RingSpec.uniform(8, 1e9), 7)


def test_execute_all_reduce_sums():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 8):
        res = plan_all_reduce(RingSpec.uniform(n, 1e6), 1000 * n)
        values = rng.integers(0, 1000, size=(n, n))
        initial = [{b: int(values[i, b]) for b in range(n)} for i in range(n)]
        final, elapsed = execute(res.schedule, initial)
        col_sums = values.sum(axis=0)
        for node in final:
            assert sorted(node) == list(range(n))
            for b in range(n):
                assert node[b] == col_sums[b]
        assert abs(elapsed - res.completion_time) < 1e-12


def test_execute_reduce_scatter_ownership():
    # After the reduce-scatter half, node i holds the full sum of block (i+1)%n.
    n = 4
    res = plan_all_reduce(RingSpec.uniform(n, 1e6), 1000 * n)
    rs_steps = tuple(st for st in res.schedule.steps if st.phase is Phase.REDUCE_SCATTER)
    half = res.schedule.__class__(n, res.schedule.link_rates, rs_steps)
    values = np.arange(n * n).reshape(n, n)
    initial = [{b: int(values[i, b]) for b in range(n)} for i in range(n)]
    final, _ = execute(half, initial)
    col_sums = values.sum(axis=0)
    for i in range(n):
        owned = (i + 1) % n
        assert final[i][owned] == col_sums[owned]


def test_all_gather_unequal_blocks():
    res = plan_all_gather(RingSpec.uniform(3, 1e6), (3 * 10**6, 10**6, 2 * 10**6))
    # Each of the 2 steps is dominated by the 3e6-bit block: 2 * 3 s.
    assert abs(res.completion_time - 6.0) < 1e-12
    initial = [{0: 7}, {1: 11}, {2: 13}]
    final, _ = execute(res.schedule, initial)
    assert final == [{0: 7, 1: 11, 2: 13}] * 3
    assert res.bits_sent_per_node == (5 * 10**6, 4 * 10**6, 3 * 10**6)


def test_all_gather_skips_empty_blocks():
    res = plan_all_gather(RingSpec.uniform(3, 1e6), (10**6, 0, 10**6))
    assert all(st.block_bits > 0 for st in res.schedule.steps)
    final, _ = execute(res.schedule, [{0: 1.0}, {1: 2.0}, {2: 3.0}])
    # Block 1 is empty and never moves; blocks 0 and 2 circulate normally.
    assert final[0] == {0: 1.0, 2: 3.0}
    assert final[1] == {0: 1.0, 1: 2.0, 2: 3.0}
    assert final[2] == {0: 1.0, 2: 3.0}


def test_all_gather_argument_errors():
    with pytest.raises(ValueError, match="one payload size per node"):
        plan_all_gather(RingSpec.uniform(3, 1e6), (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        plan_all_gather(RingSpec.uniform(2, 1e6), (1, -2))


def test_execute_rejects_malformed_schedules():
    from leoplan.collective import RingSchedule, TransferStep

    ok = TransferStep(0, 0, 1, 0, 100, Phase.ALL_GATHER)
    with pytest.raises(ValueError, match="transfer off the ring"):
        execute(RingSchedule(3, (1e6,) * 3, (TransferStep(0, 0, 2, 0, 100, Phase.ALL_GATHER),)),
                [{0: 1}, {}, {}])
    with pytest.raises(ValueError, match="node scheduled twice"):
        execute(RingSchedule(3, (1e6,) * 3,
                             (ok, TransferStep(0, 0, 1, 1, 100, Phase.ALL_GATHER))),
                [{0: 1, 1: 2}, {}, {}])
    with pytest.raises(ValueError, match="does not hold block"):
        execute(RingSchedule(3, (1e6,) * 3, (ok,)), [{}, {}, {}])
    with pytest.raises(ValueError, match="cannot reduce missing block"):
        execute(RingSchedule(3, (1e6,) * 3,
                             (TransferStep(0, 0, 1, 0, 100, Phase.REDUCE_SCATTER),)),
                [{0: 1}, {}, {}])
    with pytest.raises(ValueError, match="initial contents for every node"):
        execute(RingSchedule(3, (1e6,) * 3, (ok,)), [{0: 1}, {}])


def test_execute_same_step_snapshot_semantics():
    # In one all-gather step every node forwards its pre-step copy, so a value
    # moves exactly one hop per step even though all transfers share the step.
    res = plan_all_gather(RingSpec.uniform(4, 1e6), (10**6, 10**6, 10**6, 10**6))
    step0 = tuple(st for st in res.schedule.steps if st.step_index == 0)
    half = res.schedule.__class__(4, res.schedule.link_rates, step0)
    final, _ = execute(half, [{0: "a"}, {1: "b"}, {2: "c"}, {3: "d"}])
    assert final[1] == {1: "b", 0: "a"}
    assert final[2] == {2: "c", 1: "b"}


def test_execute_numpy_payloads():
    n = 4
    rng = np.random.default_rng(7)
    res = plan_all_reduce(RingSpec.uniform(n, 1e6), 1000 * n)
    blocks = rng.normal(size=(n, n, 3))
    initial = [{b: blocks[i, b].copy() for b in range(n)} for i in range(n)]
    final, _ = execute(res.schedule, initial)
    want = blocks.sum(axis=0)
    for node in final:
        for b in range(n):
            assert np.allclose(node[b], want[b], atol=1e-12)


@pytest.mark.parametrize("bits", [3.9, np.nan, np.inf, -np.inf])
def test_all_reduce_rejects_a_payload_that_is_not_whole(bits):
    """A fractional payload was truncated (3.9 bits planned 3), and NaN or
    inf failed inside int() without naming the payload."""
    with pytest.raises(ValueError, match="payload_bits must be a whole number of bits, got"):
        plan_all_reduce(RingSpec.uniform(3, 1e9), bits)


@pytest.mark.parametrize("sizes,name", [([1.5, 2.7, 0], "per_node_bits\\[0\\]"),
                                        ([1, 2.7, 0], "per_node_bits\\[1\\]"),
                                        ([1, 2, np.nan], "per_node_bits\\[2\\]")])
def test_all_gather_rejects_a_block_that_is_not_whole(sizes, name):
    """(1.5, 2.7, 0) bits were sent as blocks of 1 and 2 bits."""
    with pytest.raises(ValueError, match=f"{name} must be a whole number of bits, got"):
        plan_all_gather(RingSpec.uniform(3, 1e9), sizes)


def test_whole_float_and_numpy_payloads_plan_as_ints():
    ring = RingSpec.uniform(3, 1e9)
    assert plan_all_reduce(ring, 9.0) == plan_all_reduce(ring, np.int64(9)) \
        == plan_all_reduce(ring, 9)
    assert plan_all_gather(ring, [2.0, np.int64(1), 0]) == plan_all_gather(ring, [2, 1, 0])
