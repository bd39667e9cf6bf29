"""The ghOSt scheduling agent (paper sections 3.1, 4.1).

One global polling agent consumes task lifecycle messages, runs the
scheduling policy, and commits decisions:

- *dispatch*: a waiting (idle) core gets a decision plus an MSI-X/IPI.
- *prestage* (section 5.4): while a core is busy, the agent eagerly
  stashes its next decision in the core's slot so the host can take it
  without a PCIe round trip -- and skips the MSI-X entirely.
- *preempt* (Shinjuku): when a running task exceeds the slice and work
  is waiting, commit a preempting decision with an MSI-X.

The agent tracks what it staged per core; overwriting a still-staged
decision (rare races) recovers the displaced task by re-enqueueing it,
so no task is ever lost -- mirroring how ghOSt transactions fail cleanly
rather than corrupt state.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.agent import WaveAgent
from repro.core.channel import WaveChannel
from repro.core.messages import Message
from repro.core.txn import TxnOutcome
from repro.ghost.messages import TASK_DEAD, TASK_NEW, TASK_PREEMPT, SchedDecision
from repro.ghost.task import GhostTask
from repro.sim import Interrupt, PollTimer

#: Minimum re-check delay when a preemption deadline is already due,
#: guaranteeing forward progress of simulated time.
_MIN_TIMER_NS = 200.0

#: Agent-side channel metadata traffic, in 64-bit words through the
#: agent's local mapping (so UC vs WB NIC PTEs matter, section 5.3.1).
#: [fit: Table 3 "+ WB PTEs on SmartNIC" saves ~3.4us over baseline,
#: which pins the agent's total per-decision word count]
MSG_SYNC_WORDS = 2      #: queue head/tail sync per consumed message
COMMIT_SYNC_WORDS = 8   #: txn status machine + tail sync per commit


class GhostAgent(WaveAgent):
    """Global scheduling agent; runs any
    :class:`~repro.sched.policy.SchedPolicy`."""

    def __init__(self, channel: WaveChannel, policy,
                 core_ids: List[int], name: str = "ghost-agent",
                 policy_ns_per_message: float = 100.0):
        super().__init__(channel, name=name)
        self.policy = policy
        self.core_ids = list(core_ids)
        self.prestage_enabled = channel.opts.prestage
        self.policy_ns_per_message = policy_ns_per_message
        #: Cores idle with the host parked on an empty slot; every other
        #: core is busy, running (or about to run) a task.
        self._waiting: Set[int] = set(self.core_ids)
        #: Extra per-TASK_NEW cost, e.g. an on-host scheduler reading
        #: RPC headers from SmartNIC memory over MMIO (section 7.3's
        #: OnHost-Scheduler scenario).
        self.task_new_extra_ns = 0.0
        self.prestages = 0
        self.dispatches = 0
        self.preempts_issued = 0
        self._track = f"agent:{name}"
        tel = getattr(channel.env, "telemetry", None)
        if tel is not None:
            self.policy.attach_telemetry(tel.metrics)

    # -- main loop -----------------------------------------------------------

    def _run(self):
        env = self.env
        ring = self.channel.msg_ring
        # The preemption-deadline poll almost always loses the race to a
        # message arrival; a PollTimer re-arms the loser in place
        # instead of cancelling and scheduling a fresh timeout each
        # iteration (poll coalescing). Timing is identical.
        poll = PollTimer(env)
        try:
            # Serve anything already runnable (a restarted agent begins
            # with a recovered run queue, section 6).
            if self.policy.runnable_count():
                yield from self._dispatch(set(self.core_ids))
            while True:
                yield from self.fault_checkpoint()
                deadline = self.policy.next_deadline(env.now)
                wait_event = ring.wait_nonempty()
                if deadline is not None:
                    delay = max(_MIN_TIMER_NS, deadline - env.now)
                    yield env.any_of([wait_event, poll.arm(delay)])
                else:
                    yield wait_event
                messages, cost = ring.consume(max_batch=64)
                if not messages:
                    cost += ring.poll_cost()
                yield env.timeout(cost)
                tel = getattr(env, "telemetry", None)
                batch_span = (tel.begin("agent.loop", self._track)
                              if tel is not None and messages else None)
                touched: Set[int] = set()
                for message in messages:
                    yield from self._handle(message, touched)
                if self.policy.time_slice is not None:
                    yield from self._issue_preemptions()
                yield from self._dispatch(touched)
                yield from self._drain_outcomes()
                if batch_span is not None:
                    tel.end(batch_span, n=len(messages))
        except Interrupt as interrupt:
            self.killed = True
            yield from self.on_killed(interrupt.cause)

    # -- message handling ------------------------------------------------------

    def _handle(self, message: Message, touched: Set[int]):
        yield from self.compute(self.policy_ns_per_message)
        yield self.env.timeout(self.channel.agent_word_cost(MSG_SYNC_WORDS))
        kind = message.kind
        if kind == TASK_NEW:
            if self.task_new_extra_ns:
                yield self.env.timeout(self.task_new_extra_ns)
            if message.ctx is not None:
                # Continue the request chain from the ring-consume hop.
                message.payload.ctx = message.ctx
            self.policy.enqueue(message.payload)
            touched.update(self._waiting)
        elif kind == TASK_DEAD:
            task, core = message.payload
            self.policy.note_stopped(core)
            # The slot is in our local coherent DRAM: peek it to learn
            # whether a staged decision is (or will be) consumed.
            staged_txn = self._peek(core)
            if staged_txn is not None:
                self.policy.note_running(core, staged_txn.payload.task,
                                         self.env.now)
                self._waiting.discard(core)
            else:
                self._waiting.add(core)
            touched.add(core)
        elif kind == TASK_PREEMPT:
            task, core, remaining = message.payload
            if message.ctx is not None:
                task.ctx = message.ctx
            self.policy.enqueue(task)
            touched.update(self._waiting)

    # -- committing decisions ---------------------------------------------------

    def _peek(self, core: int):
        """Local coherent look at a slot (one local load; negligible,
        folded into the surrounding policy compute)."""
        return self.channel.slot(core).peek_staged()

    def _recover_overwritten(self, core: int) -> None:
        """Re-enqueue a decision still sitting in the slot before we
        overwrite it (the displaced txn fails FAILED_STALE)."""
        staged_txn = self._peek(core)
        if staged_txn is not None:
            self.policy.enqueue(staged_txn.payload.task)

    def _dispatch(self, touched: Set[int]):
        """Serve waiting cores first, then prestage for busy ones."""
        tel = getattr(self.env, "telemetry", None)
        waiting = self._waiting
        for core in sorted(touched):
            if core not in waiting:
                continue
            task = self.policy.dequeue()
            if task is None:
                break
            self._recover_overwritten(core)
            txn = self.api.txn_create(core, SchedDecision(task))
            # Sleep/wakeup protocol: pay the MSI-X only when the host
            # actually parked (local read of the parked flag). Without
            # prestaging the kernel never self-serves, so every commit
            # carries an MSI-X.
            parked = (self.channel.slot(core).host_parked
                      or not self.prestage_enabled)
            # A ghost txn commit is a designated causal root: it mints
            # a request context unless the task already carries one.
            span = (tel.begin("agent.commit", self._track, ctx=task.ctx,
                              root=True)
                    if tel is not None else None)
            if span is not None:
                # Stash + MSI-X run synchronously inside txns_commit:
                # the txn must carry the chain before the yield from.
                txn.ctx = task.ctx = tel.ctx_after(span)
            yield self.env.timeout(
                self.channel.agent_word_cost(COMMIT_SYNC_WORDS))
            yield from self.api.txns_commit([txn], send_msix=parked)
            if span is not None:
                tel.end(span, kind="dispatch", core=core, tid=task.tid)
                tel.count("agent_commits", kind="dispatch")
            self.policy.note_running(core, task, self.env.now)
            waiting.discard(core)
            self.dispatches += 1
            self.heartbeat()
        if not self.prestage_enabled or not self.policy.runnable_count():
            return
        # Restock every busy core whose slot the host has consumed (we
        # see consumption in our local DRAM via the host's commit
        # marker). The paper prestages eagerly when the run queue is
        # deep enough; scanning all cores each wake is that eagerness.
        for core in self.core_ids:
            if core in waiting:
                continue
            if self._peek(core) is not None:
                continue
            task = self.policy.dequeue()
            if task is None:
                break
            txn = self.api.txn_create(core, SchedDecision(task))
            span = (tel.begin("agent.commit", self._track, ctx=task.ctx,
                              root=True)
                    if tel is not None else None)
            if span is not None:
                txn.ctx = task.ctx = tel.ctx_after(span)
            yield self.env.timeout(
                self.channel.agent_word_cost(COMMIT_SYNC_WORDS))
            yield from self.api.txns_commit([txn], send_msix=False)
            if span is not None:
                tel.end(span, kind="prestage", core=core, tid=task.tid)
                tel.count("agent_commits", kind="prestage")
            self.prestages += 1
            self.heartbeat()

    def _issue_preemptions(self):
        tel = getattr(self.env, "telemetry", None)
        for core in self.policy.preemptions_due(self.env.now):
            next_task = self.policy.dequeue()
            if next_task is None:
                return
            self._recover_overwritten(core)
            txn = self.api.txn_create(core, SchedDecision(next_task,
                                                          preempt=True))
            span = (tel.begin("agent.commit", self._track,
                              ctx=next_task.ctx, root=True)
                    if tel is not None else None)
            if span is not None:
                txn.ctx = next_task.ctx = tel.ctx_after(span)
            yield self.env.timeout(
                self.channel.agent_word_cost(COMMIT_SYNC_WORDS))
            yield from self.api.txns_commit([txn], send_msix=True)
            if span is not None:
                tel.end(span, kind="preempt", core=core,
                        tid=next_task.tid)
                tel.count("agent_commits", kind="preempt")
            self.policy.note_running(core, next_task, self.env.now)
            self._waiting.discard(core)
            self.preempts_issued += 1
            self.heartbeat()

    def _drain_outcomes(self):
        outcomes, cost = self.channel.outcome_ring.consume(max_batch=64)
        if cost:
            yield self.env.timeout(cost)
        for payload in outcomes:
            txn_id, target, outcome = payload.payload
            if outcome is TxnOutcome.FAILED_RACE:
                # The decision's task vanished; the core will idle until
                # we re-dispatch it.
                if target not in self._waiting:
                    self._waiting.add(target)
                    self.policy.note_stopped(target)
                    yield from self._dispatch({target})
