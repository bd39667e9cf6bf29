"""Tests for the scheduling policy state machines."""

import pytest
from hypothesis import given, strategies as st

from repro.ghost import GhostTask
from repro.ghost.task import TaskState
from repro.sched import (
    CfsLikePolicy,
    FifoPolicy,
    MultiQueueShinjukuPolicy,
    ShinjukuPolicy,
)
from repro.workloads import Request, RequestKind


def make_task(service=10_000.0, slo=None):
    request = Request(kind=RequestKind.GET, service_ns=service, slo_ns=slo)
    return GhostTask(service_ns=service, payload=request)


class TestFifo:
    def test_order(self):
        policy = FifoPolicy()
        tasks = [make_task() for _ in range(5)]
        for t in tasks:
            policy.enqueue(t)
        assert [policy.dequeue() for _ in range(5)] == tasks

    def test_empty_dequeue(self):
        assert FifoPolicy().dequeue() is None

    def test_skips_dead_tasks(self):
        policy = FifoPolicy()
        dead, alive = make_task(), make_task()
        dead.state = TaskState.DEAD
        policy.enqueue(dead)
        policy.enqueue(alive)
        assert policy.dequeue() is alive

    def test_no_time_slice(self):
        assert FifoPolicy().time_slice is None
        assert FifoPolicy().preemptions_due(1e9) == []


class TestShinjuku:
    def test_slice_value(self):
        assert ShinjukuPolicy().time_slice == 30_000.0

    def test_invalid_slice(self):
        with pytest.raises(ValueError):
            ShinjukuPolicy(time_slice_ns=0)

    def test_preemption_due_after_slice(self):
        policy = ShinjukuPolicy(30_000)
        running = make_task(500_000)
        policy.note_running(core=0, task=running, now=0.0)
        policy.enqueue(make_task())
        assert policy.preemptions_due(10_000) == []
        assert policy.preemptions_due(31_000) == [0]

    def test_no_preemption_without_waiting_work(self):
        policy = ShinjukuPolicy(30_000)
        policy.note_running(core=0, task=make_task(500_000), now=0.0)
        assert policy.preemptions_due(100_000) == []
        assert policy.next_deadline(100_000) is None

    def test_next_deadline(self):
        policy = ShinjukuPolicy(30_000)
        policy.note_running(core=0, task=make_task(), now=100.0)
        policy.note_running(core=1, task=make_task(), now=50.0)
        policy.enqueue(make_task())
        assert policy.next_deadline(0.0) == 50.0 + 30_000

    def test_round_robin_requeue(self):
        policy = ShinjukuPolicy()
        first, second = make_task(), make_task()
        policy.enqueue(first)
        policy.enqueue(second)
        got = policy.dequeue()
        policy.enqueue(got)  # preempted: back to the tail
        assert policy.dequeue() is second

    def test_note_stopped_clears(self):
        policy = ShinjukuPolicy()
        policy.note_running(0, make_task(), 0.0)
        policy.note_stopped(0)
        assert policy.running_on(0) is None


class TestMultiQueue:
    def test_tight_slo_first(self):
        policy = MultiQueueShinjukuPolicy()
        loose = make_task(slo=50_000_000.0)
        tight = make_task(slo=200_000.0)
        policy.enqueue(loose)
        policy.enqueue(tight)
        assert policy.dequeue() is tight
        assert policy.dequeue() is loose

    def test_fifo_within_class(self):
        policy = MultiQueueShinjukuPolicy()
        a, b = make_task(slo=200_000.0), make_task(slo=200_000.0)
        policy.enqueue(a)
        policy.enqueue(b)
        assert policy.dequeue() is a

    def test_preempts_only_for_tighter_or_equal_class(self):
        policy = MultiQueueShinjukuPolicy(30_000)
        loose_running = make_task(slo=50_000_000.0)
        policy.note_running(core=0, task=loose_running, now=0.0)
        # Only loose work waiting with a loose task running at slice end:
        policy.enqueue(make_task(slo=50_000_000.0))
        assert policy.preemptions_due(40_000) == [0]
        # A tight task running is NOT preempted for loose work.
        policy2 = MultiQueueShinjukuPolicy(30_000)
        policy2.note_running(core=0, task=make_task(slo=200_000.0), now=0.0)
        policy2.enqueue(make_task(slo=50_000_000.0))
        assert policy2.preemptions_due(40_000) == []

    def test_classes_stay_ordered_as_they_appear(self):
        policy = MultiQueueShinjukuPolicy(30_000)
        mid, loose, tight = (make_task(slo=slo)
                             for slo in (1e6, 5e7, 2e5))
        for task in (mid, loose, tight):
            policy.enqueue(task)
        for core, slo in enumerate((5e7, 1e6, 2e5)):
            policy.note_running(core=core, task=make_task(slo=slo), now=0.0)
        # Every core is past its slice and the tightest class waits.
        assert policy.preemptions_due(40_000) == [0, 1, 2]
        assert [policy.dequeue() for _ in range(3)] == [tight, mid, loose]
        assert policy.preemptions_due(40_000) == []
        # Emptied classes keep their place: mid is the tightest waiting.
        policy.enqueue(make_task(slo=1e6))
        assert policy.preemptions_due(40_000) == [0, 1]

    def test_default_slo(self):
        policy = MultiQueueShinjukuPolicy()
        task = make_task(slo=None)
        policy.enqueue(task)
        assert policy.dequeue() is task

    def test_runnable_count_across_classes(self):
        policy = MultiQueueShinjukuPolicy()
        policy.enqueue(make_task(slo=200_000.0))
        policy.enqueue(make_task(slo=50_000_000.0))
        assert policy.runnable_count() == 2


class TestCfs:
    def test_least_vruntime_first(self):
        policy = CfsLikePolicy()
        tasks = [make_task() for _ in range(3)]
        for t in tasks:
            policy.enqueue(t)
        assert policy.dequeue() in tasks

    def test_all_tasks_eventually_run(self):
        policy = CfsLikePolicy()
        tasks = [make_task() for _ in range(10)]
        for t in tasks:
            policy.enqueue(t)
        out = [policy.dequeue() for _ in range(10)]
        assert set(id(t) for t in out) == set(id(t) for t in tasks)

    def test_has_fairness_slice(self):
        assert CfsLikePolicy().time_slice is not None


@given(st.lists(st.sampled_from([200_000.0, 1_000_000.0, 50_000_000.0]),
                min_size=1, max_size=30))
def test_multiqueue_dequeue_is_slo_sorted(slos):
    """Property: dequeue order never serves a looser class while a
    tighter class has runnable work."""
    policy = MultiQueueShinjukuPolicy()
    for slo in slos:
        policy.enqueue(make_task(slo=slo))
    out = []
    while True:
        task = policy.dequeue()
        if task is None:
            break
        out.append(task.payload.slo_ns)
    assert out == sorted(out)
    assert len(out) == len(slos)


def test_queued_work_weighs_remaining_service():
    for policy in (FifoPolicy(), ShinjukuPolicy(),
                   MultiQueueShinjukuPolicy(), CfsLikePolicy()):
        policy.enqueue(make_task(service=10_000.0))
        policy.enqueue(make_task(service=10_000_000.0, slo=50_000_000.0))
        assert policy.queued_work_ns() == pytest.approx(10_010_000.0), \
            type(policy).__name__


def test_queued_work_excludes_dead_tasks():
    policy = FifoPolicy()
    dead = make_task(service=1_000_000.0)
    dead.state = TaskState.DEAD
    policy.enqueue(dead)
    policy.enqueue(make_task(service=5_000.0))
    assert policy.queued_work_ns() == pytest.approx(5_000.0)


@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=0,
                max_size=50))
def test_fifo_conservation(service_times):
    """Property: FIFO returns exactly the enqueued tasks, in order."""
    policy = FifoPolicy()
    tasks = [make_task(service=float(s)) for s in service_times]
    for t in tasks:
        policy.enqueue(t)
    out = []
    while policy.runnable_count():
        out.append(policy.dequeue())
    assert out == tasks
