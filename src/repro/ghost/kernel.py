"""The ghOSt kernel scheduling class on the host (paper section 4.1).

Each managed host core runs an acquire/enforce/run loop:

1. *acquire* -- (optionally prefetch and) take the core's transaction
   slot; if empty, tell the agent the core is idle (TASK_DEAD already
   implies it) and wait for an MSI-X / IPI, re-checking periodically.
2. *enforce* -- commit the decision atomically: if the decision's task
   is no longer runnable the transaction fails cleanly (ghOSt guarantee)
   and the outcome is reported back to the agent.
3. *run* -- context switch and run the task; an agent-initiated
   preemption (Shinjuku) interrupts the run, re-queues the task via a
   TASK_PREEMPT message, and loops back to acquire.

All communication costs come from the channel's memory paths, so the
same loop is the on-host ghOSt baseline and the Wave-offloaded system.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.api import WaveHostApi
from repro.core.channel import Placement, WaveChannel
from repro.core.messages import Message
from repro.core.txn import TxnOutcome
from repro.ghost.costs import SchedCosts
from repro.ghost.messages import TASK_DEAD, TASK_NEW, TASK_PREEMPT
from repro.ghost.task import GhostTask, TaskState
from repro.obs.spans import MetricHandles
from repro.sim import Event, Interrupt, LatencyStats, PollTimer

#: Core loop phases (for interrupt routing decisions).
_ACQUIRE, _WAITING, _RUNNING = "acquire", "waiting", "running"

#: The kernel's metric handles (:class:`MetricHandles`).
_KERNEL_METRICS = {
    "submitted": ("counter", "sched_tasks", {"event": "submit"}),
    "preempted": ("counter", "sched_tasks", {"event": "preempt"}),
    "completed": ("counter", "sched_tasks", {"event": "complete"}),
    "committed": ("counter", "sched_txns", {"outcome": "committed"}),
    "failed_race": ("counter", "sched_txns", {"outcome": "failed_race"}),
    "latency": ("histogram", "sched_task_latency_ns", {}),
}


class GhostKernel:
    """Host-side scheduling class driving ``core_ids`` worker cores."""

    #: Metric handles of the run last instrumented, built on first use.
    _tel_handles: Optional[MetricHandles] = None

    def __init__(self, channel: WaveChannel, core_ids: List[int],
                 costs: Optional[SchedCosts] = None,
                 rng: Optional[random.Random] = None,
                 record_switch_overhead: bool = False):
        self.channel = channel
        self.env = channel.env
        self.core_ids = list(core_ids)
        self.costs = (costs or SchedCosts()).jittered(rng)
        self.host_api = WaveHostApi(channel)
        self._phase: Dict[int, str] = {c: _ACQUIRE for c in self.core_ids}
        self._wait_events: Dict[int, Event] = {}
        self._run_procs: Dict[int, object] = {}
        self.record_switch_overhead = record_switch_overhead
        self.switch_overhead = LatencyStats("ctx-switch-overhead")
        self.latency = LatencyStats("task-latency")
        self.completed = 0
        self.preempted = 0
        self.failed_txns = 0
        self._prev_end: Dict[int, float] = {}
        #: Extra worker-core cost at task completion (e.g. writing an
        #: RPC response into an MMIO queue, section 7.3).
        self.completion_cost_ns = 0.0
        #: Optional completion callback (task) -> None, used by the RPC
        #: experiments to route responses back through the stack.
        self.on_task_complete = None
        #: The kernel is the source of truth for non-policy state
        #: (section 6): every live task, for agent crash recovery. A
        #: task leaves when it completes here; one killed from outside
        #: the kernel leaves at the next :meth:`runnable_snapshot`.
        self._live_tasks: Dict[int, GhostTask] = {}
        for core in self.core_ids:
            channel.register_interrupt_handler(core, self._on_interrupt)

    # -- entry points -------------------------------------------------------

    def start(self) -> None:
        """Spawn each managed core's scheduling loop."""
        for core in self.core_ids:
            self.env.process(self._core_loop(core), name=f"core{core}")

    def submit(self, task: GhostTask):
        """Inject a new task (runs on the submitting core's timeline:
        the kernel wakeup path plus the TASK_NEW message send)."""
        task.created_at = self.env.now
        self._live_tasks[task.tid] = task
        tel = self.env.telemetry
        message = Message(TASK_NEW, task)
        if tel is not None:
            # Continue the request's causal chain when the payload
            # carries one (RPC arrival); otherwise the submit is the
            # request root (bench-generated load).
            span = tel.span("sched.submit", "kernel",
                            ctx=getattr(task.payload, "ctx", None),
                            root=True, tid=task.tid)
            task.ctx = message.ctx = tel.ctx_after(span)
            handles = self._tel_handles
            if handles is None or handles.tel is not tel:
                handles = self._tel_handles = MetricHandles(
                    tel, _KERNEL_METRICS)
            handles.submitted.incr()
        yield self.env.timeout(self.costs.kernel_entry)
        yield from self.host_api.send_messages([message])

    def runnable_snapshot(self) -> List[GhostTask]:
        """Every live runnable task -- what a restarted agent (or the
        vanilla on-host fallback) pulls on launch instead of relying on
        checkpointed agent state (section 6)."""
        dead = [tid for tid, task in self._live_tasks.items() if task.done]
        for tid in dead:
            del self._live_tasks[tid]
        return [task for task in self._live_tasks.values()
                if task.state is TaskState.RUNNABLE]

    # -- interrupt routing ----------------------------------------------------

    def _on_interrupt(self, core: int) -> None:
        """MSI-X / IPI vector for ``core``: wake a waiting core or
        preempt a running task; no-op in any other phase (the decision
        waits in the slot for the next acquire)."""
        event = self._wait_events.get(core)
        if event is not None and not event.triggered:
            event.succeed("interrupt")
            return
        if self._phase.get(core) is _RUNNING:
            # Only honor the interrupt as a preemption when the staged
            # decision actually asks for one (a late wakeup MSI-X
            # landing mid-run must not preempt).
            staged = self.channel.slot(core).peek_staged()
            if staged is None or not staged.payload.preempt:
                return
            proc = self._run_procs.get(core)
            if proc is not None and proc.is_alive:
                proc.interrupt("preempt")

    # -- the core loop ---------------------------------------------------------

    def _core_loop(self, core: int):
        env = self.env
        costs = self.costs
        channel = self.channel
        slot = channel.slot(core)
        opts = channel.opts
        offloaded = channel.placement is Placement.NIC
        track = f"core{core}"
        # Idle-recheck polls almost always lose to the agent's kick;
        # coalesce them onto one re-armable timer per core.
        poll = PollTimer(env)

        just_preempted = False
        while True:
            tel = env.telemetry
            # ---- acquire a decision ----
            self._phase[core] = _ACQUIRE
            if opts.prestage:
                # Prestaged deployments pick decisions up from the slot.
                # After a preemption the host reads the decision
                # immediately upon the MSI-X, so the prefetch cannot be
                # overlapped with other kernel work (section 7.2.3).
                if opts.prefetch and not just_preempted:
                    yield env.timeout(slot.prefetch())
                yield env.timeout(costs.kernel_entry)
                txn, cost = slot.take()
                yield env.timeout(cost)
            else:
                # Without prestaging the kernel never self-serves: it
                # parks and waits for the agent's MSI-X/IPI (the ghOSt
                # baseline protocol).
                yield env.timeout(costs.kernel_entry)
                yield env.timeout(slot.park())
                txn = None
            just_preempted = False
            recheck = costs.idle_recheck
            park_span = None
            if tel is not None and txn is None:
                park_span = tel.begin("core.park", track)
            while txn is None:
                # Idle: the agent learned we're idle from TASK_DEAD and
                # will kick us; re-check periodically as a safety net,
                # backing off exponentially the longer we stay idle
                # (mirrors progressively deeper idle states; the MSI-X
                # wakeup path is unaffected).
                self._phase[core] = _WAITING
                event = env.event()
                self._wait_events[core] = event
                yield env.any_of([event, poll.arm(recheck)])
                recheck = min(recheck * 2, 1_000_000.0)
                self._wait_events.pop(core, None)
                self._phase[core] = _ACQUIRE
                if event.triggered:
                    yield env.timeout(costs.idle_wake_latency)
                    yield env.timeout(channel.notify_receive_cost())
                txn, cost = slot.take()
                yield env.timeout(cost)
            if park_span is not None:
                tel.end(park_span)

            # ---- enforce atomically ----
            dispatch_span = None
            if tel is not None:
                dispatch_span = tel.begin("core.dispatch", track,
                                          ctx=getattr(txn, "ctx", None))
                # Held for the rest of this iteration's `tel` branches.
                handles = self._tel_handles
                if handles is None or handles.tel is not tel:
                    handles = self._tel_handles = MetricHandles(
                        tel, _KERNEL_METRICS)
            if offloaded:
                yield env.timeout(costs.wave_txn_bookkeeping)
            task = txn.payload.task
            if task.state is not TaskState.RUNNABLE:
                txn.outcome = TxnOutcome.FAILED_RACE
                self.failed_txns += 1
                if tel is not None:
                    tel.end(dispatch_span, failed_race=True)
                    handles.failed_race.incr()
                yield from self.host_api.set_txns_outcomes([txn])
                continue
            txn.outcome = TxnOutcome.COMMITTED
            yield env.timeout(costs.ctx_mechanics)
            if tel is not None:
                tel.end(dispatch_span, tid=task.tid)
                handles.committed.incr()
                task.ctx = tel.ctx_after(dispatch_span) or task.ctx

            # ---- run ----
            task.state = TaskState.RUNNING
            if task.first_run_at is None:
                task.first_run_at = env.now
                if tel is not None:
                    tel.span("sched.queue", track,
                             start_ns=task.created_at,
                             dur_ns=env.now - task.created_at,
                             ctx=task.ctx, tid=task.tid)
            if self.record_switch_overhead and core in self._prev_end:
                self.switch_overhead.record(env.now - self._prev_end[core])
            self._phase[core] = _RUNNING
            self._run_procs[core] = env.active_process
            run_span = (tel.begin("task.run", track, ctx=task.ctx,
                                  tid=task.tid)
                        if tel is not None else None)
            if run_span is not None:
                task.ctx = tel.ctx_after(run_span)
            start = env.now
            try:
                yield env.timeout(task.remaining_ns)
            except Interrupt:
                self._run_procs.pop(core, None)
                self._phase[core] = _ACQUIRE
                ran = env.now - start
                task.remaining_ns = max(0.0, task.remaining_ns - ran)
                task.preemptions += 1
                task.state = TaskState.RUNNABLE
                self.preempted += 1
                if tel is not None:
                    tel.end(run_span, preempted=True)
                    handles.preempted.incr()
                # Pay the interrupt receive, save state, tell the agent.
                yield env.timeout(channel.notify_receive_cost())
                if offloaded:
                    yield env.timeout(costs.wave_preempt_extra)
                yield env.timeout(costs.kernel_exit)
                yield from self.host_api.send_messages(
                    [Message(TASK_PREEMPT, (task, core, task.remaining_ns),
                             ctx=task.ctx)])
                self._prev_end[core] = env.now
                just_preempted = True
                continue
            self._run_procs.pop(core, None)

            # ---- completed ----
            task.state = TaskState.DEAD
            # Bypass submit paths (NIC-created RPC tasks) never entered.
            self._live_tasks.pop(task.tid, None)
            task.remaining_ns = 0.0
            task.completed_at = env.now
            if tel is not None:
                tel.end(run_span)
                handles.completed.incr()
                handles.latency.record(task.latency_ns)
            if hasattr(task.payload, "completed_ns"):
                task.payload.completed_ns = env.now
            if tel is not None and hasattr(task.payload, "ctx"):
                # Hand the chain back to the request object so the RPC
                # response span continues it.
                task.payload.ctx = task.ctx
            self._prev_end[core] = env.now
            self.completed += 1
            self.latency.record(task.latency_ns)
            self._phase[core] = _ACQUIRE
            if self.completion_cost_ns:
                yield env.timeout(self.completion_cost_ns)
            if self.on_task_complete is not None:
                self.on_task_complete(task)
            yield env.timeout(costs.kernel_exit)
            yield from self.host_api.send_messages(
                [Message(TASK_DEAD, (task, core), ctx=task.ctx)])
