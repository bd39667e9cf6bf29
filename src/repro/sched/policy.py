"""The scheduling policy interface agents delegate to."""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.ghost.task import GhostTask, TaskState
from repro.obs.metrics import NULL_METRIC

#: The start time of a ``_running`` entry ``(task, started)``.
_started = itemgetter(1)


class SchedPolicy:
    """Pure policy state machine: run queues + preemption bookkeeping.

    The agent feeds it task lifecycle events and asks it for decisions;
    it never touches the communication layer, which is what makes the
    same policy portable between host and SmartNIC placements.
    """

    #: Preemption time slice in ns, or None for run-to-completion.
    time_slice: Optional[float] = None

    #: Telemetry counters, bound by :meth:`attach_telemetry`; the null
    #: defaults make ``incr()`` free when telemetry is disabled.
    _enq_metric = NULL_METRIC
    _deq_metric = NULL_METRIC

    def __init__(self):
        self._running: Dict[int, Tuple[GhostTask, float]] = {}

    def attach_telemetry(self, registry, label: Optional[str] = None) -> None:
        """Bind per-policy enqueue/dequeue counters to ``registry``."""
        policy = label or type(self).__name__
        self._enq_metric = registry.counter(
            "sched_policy_ops", policy=policy, op="enqueue")
        self._deq_metric = registry.counter(
            "sched_policy_ops", policy=policy, op="dequeue")

    # -- run queue ---------------------------------------------------------

    def enqueue(self, task: GhostTask) -> None:
        """A task became runnable (new, woken, or preempted)."""
        raise NotImplementedError

    def dequeue(self) -> Optional[GhostTask]:
        """Pop the next task to run, or None if nothing is runnable."""
        raise NotImplementedError

    def runnable_count(self) -> int:
        raise NotImplementedError

    def queued_work_ns(self) -> float:
        """Total remaining service of queued runnable tasks.

        Used as a stability metric: a queue of 49 RANGEs is half a
        second of backlog while 49 GETs are noise, so saturation
        detection weighs work, not entries. Policies with a custom
        queue structure override this."""
        return sum(task.remaining_ns for task in self._iter_queued()
                   if task.state is not TaskState.DEAD)

    def _iter_queued(self):
        """Yield queued tasks (default: none; policies override)."""
        return iter(())

    # -- running-task bookkeeping (drives preemption) -----------------------

    def note_running(self, core: int, task: GhostTask, now: float) -> None:
        """The agent believes ``task`` started on ``core`` at ``now``."""
        self._running[core] = (task, now)

    def note_stopped(self, core: int) -> None:
        self._running.pop(core, None)

    def running_on(self, core: int) -> Optional[GhostTask]:
        entry = self._running.get(core)
        return entry[0] if entry else None

    def preemptions_due(self, now: float) -> List[int]:
        """Cores whose running task exceeded the slice and for which a
        replacement is available."""
        if self.time_slice is None:
            return []
        due = []
        budget = self.runnable_count()
        for core, (task, started) in self._running.items():
            if budget <= 0:
                break
            if now - started >= self.time_slice:
                due.append(core)
                budget -= 1
        return due

    def next_deadline(self, now: float) -> Optional[float]:
        """Earliest future time a preemption might become due."""
        if self.time_slice is None or not self._running:
            return None
        if self.runnable_count() == 0:
            return None
        return min(map(_started, self._running.values())) + self.time_slice
