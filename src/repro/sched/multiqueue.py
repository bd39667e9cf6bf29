"""Multi-queue SLO-aware Shinjuku (paper section 7.3.2).

Each RPC carries an SLO class in its payload; the RPC stack passes it to
the scheduler, which keeps one run queue per SLO class and serves the
tightest class first. This uses RPC-specific information that is only
cheaply available when the scheduler is co-located with the RPC stack
(on the SmartNIC) -- the point of Fig 6b.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.ghost.task import GhostTask, TaskState
from repro.sched.policy import SchedPolicy
from repro.sched.shinjuku import DEFAULT_TIME_SLICE_NS

#: SLO class of a task whose payload carries none.
DEFAULT_SLO_NS = 1_000_000.0


def task_slo(task: GhostTask) -> float:
    """The SLO class of ``task`` (ns), from its request payload."""
    slo = getattr(task.payload, "slo_ns", None)
    return DEFAULT_SLO_NS if slo is None else slo


class MultiQueueShinjukuPolicy(SchedPolicy):
    """Per-SLO-class run queues, strictest class first, preemptive."""

    def __init__(self, time_slice_ns: float = DEFAULT_TIME_SLICE_NS):
        super().__init__()
        if time_slice_ns <= 0:
            raise ValueError("time slice must be positive")
        self.time_slice = time_slice_ns
        self._queues: Dict[float, Deque[GhostTask]] = {}
        #: The SLO classes seen so far, tightest first; a class is added
        #: (in order) when its first task arrives.
        self._order: List[float] = []

    def enqueue(self, task: GhostTask) -> None:
        slo = task_slo(task)
        queue = self._queues.get(slo)
        if queue is None:
            queue = self._queues[slo] = deque()
            insort(self._order, slo)
        queue.append(task)
        self._enq_metric.incr()

    def dequeue(self) -> Optional[GhostTask]:
        queues = self._queues
        for slo in self._order:
            queue = queues[slo]
            while queue:
                task = queue.popleft()
                if task.state is TaskState.RUNNABLE:
                    self._deq_metric.incr()
                    return task
        return None

    def runnable_count(self) -> int:
        return sum(map(len, self._queues.values()))

    def _iter_queued(self):
        for queue in self._queues.values():
            yield from queue

    def preemptions_due(self, now: float):
        """Preempt a long-running task only when a *tighter-SLO* task is
        waiting -- per-class isolation rather than blind round-robin."""
        if not self._running:
            return []
        due = []
        waiting = None
        looked = False
        for core, (task, started) in self._running.items():
            if now - started < self.time_slice:
                continue
            if not looked:
                # The queues cannot change in this loop: one lookup.
                waiting = self._tightest_waiting_slo()
                looked = True
            if waiting is not None and waiting <= task_slo(task):
                due.append(core)
        return due

    def _tightest_waiting_slo(self) -> Optional[float]:
        queues = self._queues
        for slo in self._order:
            if queues[slo]:
                return slo
        return None
