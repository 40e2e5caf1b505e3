"""Ring collectives over a unidirectional intra-orbit ring.

Plans are explicit transfer schedules: 2(N-1) barrier-synchronized steps for
all-reduce (reduce-scatter then all-gather), N-1 steps for plain all-gather.
A step ends when its slowest transfer ends; the next step starts after that.
Schedules can be executed on concrete block values to check the bookkeeping
independently of the closed-form timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .graph import _require_finite, _total


class Phase(str, Enum):
    REDUCE_SCATTER = "reduce_scatter"
    ALL_GATHER = "all_gather"


@dataclass(frozen=True)
class RingSpec:
    """A ring of node_count satellites; link i carries traffic from node i to i+1 mod N."""

    node_count: int
    link_rates: tuple

    def validate(self) -> None:
        if self.node_count < 2:
            raise ValueError("ring needs at least 2 nodes")
        if len(self.link_rates) != self.node_count:
            raise ValueError("need exactly one link rate per node")
        _require_finite("positive and finite",
                        **{f"link rate {i}": r for i, r in enumerate(self.link_rates)})

    @classmethod
    def uniform(cls, node_count: int, rate_bps: float) -> "RingSpec":
        return cls(node_count, tuple([rate_bps] * node_count))


@dataclass(frozen=True)
class TransferStep:
    step_index: int
    sender: int
    receiver: int
    block_id: int
    block_bits: int
    phase: Phase


@dataclass(frozen=True)
class RingSchedule:
    node_count: int
    link_rates: tuple
    steps: tuple


@dataclass(frozen=True)
class CollectiveResult:
    completion_time: float
    bits_sent_per_node: tuple
    schedule: RingSchedule

    @property
    def total_bits_sent(self) -> int:
        return sum(self.bits_sent_per_node)


def plan_all_reduce(ring: RingSpec, payload_bits: int) -> CollectiveResult:
    """Schedule a ring all-reduce of payload_bits per node.

    The payload, at least node_count bits, is split into N blocks of
    ceil(D/N) bits (the last block is padded up). Reduce-scatter leaves node
    i owning the full sum of block (i+1) mod N; all-gather then circulates
    the finished blocks.
    """
    ring.validate()
    n = ring.node_count
    d = _whole_bits("payload_bits", payload_bits)
    if d < n:
        raise ValueError("payload_bits must be at least node_count")
    block = -(-d // n)  # ceil

    steps = [TransferStep(k, i, (i + 1) % n, (i - k) % n, block, Phase.REDUCE_SCATTER)
             for k in range(n - 1) for i in range(n)]
    steps += [TransferStep(n - 1 + k, i, (i + 1) % n, (i + 1 - k) % n, block, Phase.ALL_GATHER)
              for k in range(n - 1) for i in range(n)]

    schedule = RingSchedule(n, ring.link_rates, tuple(steps))
    completion = _schedule_time(schedule)
    sent = tuple([2 * (n - 1) * block] * n)
    return CollectiveResult(completion, sent, schedule)


def plan_all_gather(ring: RingSpec, per_node_bits) -> CollectiveResult:
    """Schedule a ring all-gather of one (possibly empty) block per node.

    Block j originates at node j with per_node_bits[j] bits; at step k node i
    forwards block (i-k) mod N. Zero-size blocks produce no transfer.
    """
    ring.validate()
    n = ring.node_count
    sizes = [_whole_bits(f"per_node_bits[{j}]", b) for j, b in enumerate(per_node_bits)]
    if len(sizes) != n:
        raise ValueError("need one payload size per node")
    if any(b < 0 for b in sizes):
        raise ValueError("payload sizes must be nonnegative")

    steps = []
    for k in range(n - 1):
        for i in range(n):
            blk = (i - k) % n
            if sizes[blk] > 0:
                steps.append(TransferStep(k, i, (i + 1) % n, blk, sizes[blk],
                                          Phase.ALL_GATHER))

    schedule = RingSchedule(n, ring.link_rates, tuple(steps))
    completion = _schedule_time(schedule)
    sent = [0] * n
    for st in steps:
        sent[st.sender] += st.block_bits
    return CollectiveResult(completion, tuple(sent), schedule)


def _whole_bits(name: str, bits) -> int:
    """bits as an int; ValueError naming it unless it is a whole number."""
    if not (isinstance(bits, int) or math.isfinite(bits) and bits == math.floor(bits)):
        raise ValueError(f"{name} must be a whole number of bits, got {bits}")
    return int(bits)


def _schedule_time(schedule: RingSchedule) -> float:
    """Sum of per-step durations; a step lasts as long as its slowest transfer."""
    durations: dict[int, float] = {}
    for st in schedule.steps:
        t = st.block_bits / schedule.link_rates[st.sender]
        if t > durations.get(st.step_index, 0.0):
            durations[st.step_index] = t
    return _total(durations.values())


def execute(schedule: RingSchedule, initial_contents):
    """Run a schedule on one mapping block_id -> value per node; returns
    (final_contents, elapsed_seconds). Values need an elementwise `+`.

    Reduce-scatter transfers add into the receiver's copy of the block and
    all-gather transfers store it. Raises ValueError on a malformed schedule:
    a transfer off the ring, a sender without the block, or a node used
    twice as sender or receiver within one step.
    """
    n = schedule.node_count
    if len(initial_contents) != n:
        raise ValueError("need initial contents for every node")
    contents = [dict(c) for c in initial_contents]

    by_step: dict[int, list] = {}
    for st in schedule.steps:
        by_step.setdefault(st.step_index, []).append(st)

    elapsed = 0.0
    for step_index in sorted(by_step):
        group = by_step[step_index]
        senders = [st.sender for st in group]
        receivers = [st.receiver for st in group]
        if len(set(senders)) != len(senders) or len(set(receivers)) != len(receivers):
            raise ValueError(f"step {step_index}: node scheduled twice")
        payloads = []
        for st in group:
            if st.receiver != (st.sender + 1) % n:
                raise ValueError(f"step {step_index}: transfer off the ring")
            if st.block_id not in contents[st.sender]:
                raise ValueError(
                    f"step {step_index}: node {st.sender} does not hold block {st.block_id}")
            payloads.append((st, contents[st.sender][st.block_id]))
        # Apply after collecting so same-step transfers see pre-step state.
        for st, value in payloads:
            if st.phase is Phase.REDUCE_SCATTER:
                if st.block_id not in contents[st.receiver]:
                    raise ValueError(
                        f"step {step_index}: node {st.receiver} cannot reduce missing "
                        f"block {st.block_id}")
                contents[st.receiver][st.block_id] = contents[st.receiver][st.block_id] + value
            else:
                contents[st.receiver][st.block_id] = value
        elapsed += max(st.block_bits / schedule.link_rates[st.sender] for st, _ in payloads)
    return contents, elapsed

