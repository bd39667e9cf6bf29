"""Tests for the ghOSt kernel class + agent protocol end to end."""

import random

import pytest

from repro.core import Placement, WaveChannel, WaveOpts
from repro.core.txn import TxnOutcome
from repro.ghost import GhostAgent, GhostKernel, GhostTask, SchedCosts, TaskState
from repro.hw import HwParams, Machine
from repro.obs import Telemetry
from repro.sched import FifoPolicy, ShinjukuPolicy
from repro.sim import Environment


def build(placement=Placement.NIC, opts=None, cores=2, policy=None,
          record=False):
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    channel = WaveChannel(machine, placement, opts or WaveOpts.full(),
                          name="t")
    kernel = GhostKernel(channel, core_ids=list(range(cores)),
                         record_switch_overhead=record)
    agent = GhostAgent(channel, policy or FifoPolicy(), kernel.core_ids)
    agent.start()
    kernel.start()
    return env, kernel, agent, channel


def feed(env, kernel, tasks):
    def feeder():
        for task in tasks:
            yield from kernel.submit(task)
    env.process(feeder())


def test_single_task_runs_to_completion():
    env, kernel, agent, _ = build(cores=1)
    task = GhostTask(service_ns=10_000)
    feed(env, kernel, [task])
    env.run(until=1_000_000)
    assert task.state is TaskState.DEAD
    assert task.completed_at is not None
    assert kernel.completed == 1


def test_all_tasks_complete_in_order_fifo():
    env, kernel, agent, _ = build(cores=1)
    tasks = [GhostTask(service_ns=5_000) for _ in range(20)]
    feed(env, kernel, tasks)
    env.run(until=10_000_000)
    assert all(t.done for t in tasks)
    starts = [t.first_run_at for t in tasks]
    assert starts == sorted(starts)


def test_tasks_spread_across_cores():
    env, kernel, agent, _ = build(cores=4)
    tasks = [GhostTask(service_ns=100_000) for _ in range(4)]
    feed(env, kernel, tasks)
    env.run(until=5_000_000)
    assert all(t.done for t in tasks)
    # With four long tasks and four cores, they must have overlapped.
    spans = [(t.first_run_at, t.completed_at) for t in tasks]
    overlaps = sum(1 for a in spans for b in spans
                   if a is not b and a[0] < b[1] and b[0] < a[1])
    assert overlaps > 0


def test_onhost_and_offloaded_complete_same_work():
    for placement in (Placement.HOST, Placement.NIC):
        env, kernel, agent, _ = build(placement=placement, cores=2)
        tasks = [GhostTask(service_ns=8_000) for _ in range(30)]
        feed(env, kernel, tasks)
        env.run(until=10_000_000)
        assert kernel.completed == 30, placement


def test_offloaded_latency_higher_than_onhost():
    latencies = {}
    for placement in (Placement.HOST, Placement.NIC):
        env, kernel, agent, _ = build(placement=placement, cores=1)
        task = GhostTask(service_ns=10_000)
        feed(env, kernel, [task])
        env.run(until=1_000_000)
        latencies[placement] = task.latency_ns
    assert latencies[Placement.NIC] > latencies[Placement.HOST]


def test_dead_task_decision_fails_race():
    env, kernel, agent, channel = build(cores=1)
    task = GhostTask(service_ns=10_000)
    feed(env, kernel, [task])

    def killer():
        # Kill the task after the agent committed the decision but
        # before the kernel can enforce it (the ghOSt race window).
        yield env.timeout(2_500)
        if task.state is TaskState.RUNNABLE:
            task.state = TaskState.DEAD

    env.process(killer())
    env.run(until=2_000_000)
    assert kernel.failed_txns >= 1
    assert kernel.completed == 0


# -- the kernel's task table (section 6 recovery state) ----------------------

def test_completed_tasks_leave_the_task_table():
    env, kernel, agent, _ = build(cores=2)
    tasks = [GhostTask(service_ns=50_000) for _ in range(8)]
    feed(env, kernel, tasks)
    env.run(until=120_000)
    assert 0 < sum(t.done for t in tasks) < len(tasks)
    assert list(kernel._live_tasks.values()) == [
        t for t in tasks if not t.done]
    env.run(until=5_000_000)
    assert kernel.completed == len(tasks)
    assert kernel._live_tasks == {}


def test_runnable_snapshot_in_submit_order():
    env, kernel, agent, _ = build(cores=1)
    tasks = [GhostTask(service_ns=20_000) for _ in range(6)]
    submitted = tasks[::-1]  # submit order differs from tid order
    feed(env, kernel, submitted)
    env.run(until=60_000)
    runnable = [t.tid for t in submitted if t.state is TaskState.RUNNABLE]
    assert any(t.done for t in tasks) and len(runnable) >= 2
    assert [t.tid for t in kernel.runnable_snapshot()] == runnable


def test_runnable_snapshot_drops_task_killed_outside_kernel():
    env, kernel, agent, channel = build(cores=1)
    task = GhostTask(service_ns=10_000)
    feed(env, kernel, [task])

    def killer():
        yield env.timeout(2_500)
        task.state = TaskState.DEAD

    env.process(killer())
    env.run(until=2_000_000)
    assert kernel.failed_txns >= 1
    # The kernel never completed it, so only the snapshot can purge it.
    assert list(kernel._live_tasks) == [task.tid]
    assert kernel.runnable_snapshot() == []
    assert kernel._live_tasks == {}


def test_shinjuku_preempts_long_task():
    env, kernel, agent, _ = build(cores=1, policy=ShinjukuPolicy(30_000))
    long_task = GhostTask(service_ns=500_000)
    short = [GhostTask(service_ns=5_000) for _ in range(3)]
    feed(env, kernel, [long_task] + short)
    env.run(until=5_000_000)
    assert long_task.done
    assert all(t.done for t in short)
    assert long_task.preemptions >= 1
    assert kernel.preempted >= 1
    # Short tasks did not wait for the full long task.
    assert min(t.completed_at for t in short) < long_task.completed_at


def test_preempted_task_total_service_preserved():
    env, kernel, agent, _ = build(cores=1, policy=ShinjukuPolicy(30_000))
    long_task = GhostTask(service_ns=200_000)
    short = [GhostTask(service_ns=5_000) for _ in range(5)]
    feed(env, kernel, [long_task] + short)
    env.run(until=5_000_000)
    assert long_task.done
    assert long_task.remaining_ns == 0


def test_fifo_never_preempts():
    env, kernel, agent, _ = build(cores=1, policy=FifoPolicy())
    tasks = [GhostTask(service_ns=100_000)] + \
        [GhostTask(service_ns=1_000) for _ in range(3)]
    feed(env, kernel, tasks)
    env.run(until=5_000_000)
    assert kernel.preempted == 0
    assert all(t.preemptions == 0 for t in tasks)


def test_kernel_emits_protocol_events():
    """The kernel's protocol edges reach its telemetry: one submit and
    one completion per task, a preemption, an idle park, and a
    submit-to-complete latency sample covering each task's life."""
    env = Environment()
    run = Telemetry().attach(env)
    machine = Machine(env, HwParams.pcie())
    channel = WaveChannel(machine, Placement.NIC, WaveOpts.full(), name="t")
    kernel = GhostKernel(channel, core_ids=[0], rng=random.Random(1))
    agent = GhostAgent(channel, ShinjukuPolicy(30_000), [0])
    agent.start()
    kernel.start()
    tasks = [GhostTask(service_ns=100_000)] + \
        [GhostTask(service_ns=5_000) for _ in range(3)]
    feed(env, kernel, tasks)
    env.run(until=5_000_000)
    metrics = run.metrics
    assert metrics.counter("sched_tasks", event="submit").value == 4
    assert metrics.counter("sched_tasks", event="complete").value == 4
    assert metrics.counter("sched_tasks", event="preempt").value >= 1
    assert run.spans.spans("core.park")
    latency = metrics.histogram("sched_task_latency_ns")
    assert latency.count == 4
    assert latency.vmin > 0


def test_switch_overhead_recorded():
    env, kernel, agent, _ = build(cores=1, record=True)
    feed(env, kernel, [GhostTask(service_ns=5_000) for _ in range(10)])
    env.run(until=5_000_000)
    assert kernel.switch_overhead.count == 9  # gaps between 10 tasks
    assert kernel.switch_overhead.min > 0


def test_prestage_cuts_switch_overhead():
    """With prestaging, the host takes decisions from the slot instead
    of waiting out an agent round trip per switch (section 5.4)."""
    medians = {}
    for label, opts in (("prestaged", WaveOpts.full()),
                        ("waiting", WaveOpts.wc_wt())):
        env, kernel, agent, _ = build(cores=1, opts=opts, record=True)
        feed(env, kernel, [GhostTask(service_ns=10_000) for _ in range(20)])
        env.run(until=10_000_000)
        assert kernel.completed == 20
        medians[label] = kernel.switch_overhead.p50
    assert medians["prestaged"] < medians["waiting"] * 0.7


def test_no_prestage_when_disabled():
    env, kernel, agent, _ = build(cores=1, opts=WaveOpts.nic_wb_only())
    feed(env, kernel, [GhostTask(service_ns=10_000) for _ in range(10)])
    env.run(until=10_000_000)
    assert agent.prestages == 0
    assert kernel.completed == 10


def test_cost_jitter_reproducible():
    a = SchedCosts().jittered(random.Random(7))
    b = SchedCosts().jittered(random.Random(7))
    c = SchedCosts().jittered(random.Random(8))
    assert a.kernel_exit == b.kernel_exit
    assert a.kernel_exit != c.kernel_exit


def test_costs_jitter_none_rng_identity():
    costs = SchedCosts()
    assert costs.jittered(None) is costs


def test_completion_callback_and_extra_cost():
    env, kernel, agent, _ = build(cores=1)
    done = []
    kernel.on_task_complete = lambda task: done.append(task.tid)
    kernel.completion_cost_ns = 1_000.0
    tasks = [GhostTask(service_ns=5_000) for _ in range(3)]
    feed(env, kernel, tasks)
    env.run(until=2_000_000)
    assert done == [t.tid for t in tasks]
