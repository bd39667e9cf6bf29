"""Cross-cutting property-based tests on protocol invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import Placement, Transaction, TxnOutcome, WaveChannel, WaveOpts
from repro.ghost import GhostAgent, GhostKernel, GhostTask
from repro.hw import HwParams, Machine
from repro.sched import FifoPolicy, ShinjukuPolicy
from repro.sim import Environment


@settings(deadline=None, max_examples=15)
@given(st.lists(st.sampled_from([2_000.0, 10_000.0, 60_000.0]),
                min_size=1, max_size=25),
       st.sampled_from([Placement.HOST, Placement.NIC]),
       st.integers(min_value=1, max_value=4))
def test_every_task_completes_exactly_once(services, placement, cores):
    """Conservation: any burst of tasks, any placement, any core count:
    every task runs to completion exactly once and is never lost."""
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    channel = WaveChannel(machine, placement, WaveOpts.full(), name="p")
    kernel = GhostKernel(channel, core_ids=list(range(cores)),
                         rng=random.Random(0))
    agent = GhostAgent(channel, FifoPolicy(), kernel.core_ids)
    agent.start()
    kernel.start()
    tasks = [GhostTask(service_ns=s) for s in services]

    def feeder():
        for task in tasks:
            yield from kernel.submit(task)

    env.process(feeder())
    env.run(until=60_000_000)
    assert all(t.done for t in tasks)
    assert kernel.completed == len(tasks)
    # Total service conserved: no task ran twice or partially.
    total_run = sum(t.service_ns for t in tasks)
    busy = sum((t.completed_at - t.first_run_at) for t in tasks)
    # Preemption-free FIFO: each task's run covers its service time
    # (floating-point epsilon tolerated).
    assert busy >= total_run - 1e-6 * len(tasks)


@settings(deadline=None, max_examples=10)
@given(st.lists(st.sampled_from([5_000.0, 120_000.0]),
                min_size=2, max_size=20))
def test_shinjuku_conserves_service_under_preemption(services):
    """Preempted tasks accumulate exactly their service time across
    slices (no work lost, none duplicated)."""
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    channel = WaveChannel(machine, Placement.NIC, WaveOpts.full(), name="p")
    kernel = GhostKernel(channel, core_ids=[0, 1], rng=random.Random(0))
    agent = GhostAgent(channel, ShinjukuPolicy(30_000), kernel.core_ids)
    agent.start()
    kernel.start()
    tasks = [GhostTask(service_ns=s) for s in services]

    def feeder():
        for task in tasks:
            yield from kernel.submit(task)

    env.process(feeder())
    env.run(until=120_000_000)
    assert all(t.done for t in tasks)
    assert all(t.remaining_ns == 0 for t in tasks)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_txn_slot_never_yields_stale_decisions(operations):
    """Interleave stashes and takes arbitrarily: the host only ever
    receives the most recent stash, each at most once, and overwritten
    transactions are marked FAILED_STALE."""
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    channel = WaveChannel(machine, Placement.NIC, WaveOpts.full(), name="p")
    slot = channel.slot(0)
    stashed = []
    taken = []
    for is_stash in operations:
        if is_stash:
            txn = Transaction(target=0, payload=len(stashed))
            slot.stash(txn)
            stashed.append(txn)
        else:
            env.now += 10_000  # let any stash become visible
            txn, _ = slot.take()
            if txn is not None:
                taken.append(txn)
        env.now += 1_000
    # Each taken txn was the newest at its take, taken once.
    assert len(set(id(t) for t in taken)) == len(taken)
    for txn in taken:
        assert txn.outcome is not TxnOutcome.FAILED_STALE
    # Everything stashed is accounted: taken, stale, or still pending.
    for txn in stashed:
        assert (txn in taken
                or txn.outcome is TxnOutcome.FAILED_STALE
                or slot.peek_staged() is txn)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(min_value=0, max_value=1000),
                min_size=0, max_size=60),
       st.booleans())
def test_dma_queue_conservation(items, sync):
    """DMA queues deliver every produced item, once, in order."""
    from repro.hw import DmaEngine, Interconnect, PteType
    from repro.queues import DmaQueue

    env = Environment()
    params = HwParams.pcie()
    link = Interconnect(params)
    queue = DmaQueue(env, "q", DmaEngine(env, params),
                     link.host_local_path(), link.nic_path(PteType.WB),
                     sync=sync)
    got = []

    def producer():
        for item in items:
            cost, _ = queue.produce([item])
            yield env.timeout(cost)

    def consumer():
        while len(got) < len(items):
            yield queue.wait_nonempty()
            batch, cost = queue.consume()
            yield env.timeout(cost)
            got.extend(batch)

    env.process(producer())
    env.process(consumer())
    env.run(until=1e9)
    assert got == list(items)
