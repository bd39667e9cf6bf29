"""Agent crash recovery (paper section 6, "Keep Fault Recovery Simple").

An agent may crash or be killed (watchdog, upgrade). Because the host
kernel remains the source of truth for non-policy state, recovery is
pull-based: a replacement agent -- restarted on the SmartNIC, or the
vanilla on-host fallback -- drops its predecessor's staged decisions,
pulls the runnable-task snapshot from the kernel, and continues. No
checkpointing, no state reconciliation.

While the agent is down, parked host cores keep re-checking their slots
(the idle re-check that also backstops the prestage protocol), so the
system stalls for at most the failover delay plus one re-check period.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.channel import Placement, WaveChannel
from repro.core.watchdog import Watchdog
from repro.ghost.agent import GhostAgent
from repro.ghost.kernel import GhostKernel

#: Launch + state-pull time for a replacement agent. [modeled: process
#: spawn, queue mapping, one pass over kernel task state]
DEFAULT_FAILOVER_DELAY_NS = 2_000_000.0


def recover_agent(agent: GhostAgent, kernel: GhostKernel) -> int:
    """Initialize a fresh agent from kernel state.

    Drops any decisions the dead predecessor left staged (their tasks
    are still RUNNABLE in the kernel and reappear in the snapshot), and
    enqueues the snapshot. Returns the number of recovered tasks.
    """
    if agent.running:
        raise RuntimeError("recover before start(): the agent must not "
                           "be polling while its run queue is rebuilt")
    for core in agent.core_ids:
        agent.channel.slot(core).clear_agent()
        agent._waiting.add(core)
    snapshot = kernel.runnable_snapshot()
    for task in snapshot:
        agent.policy.enqueue(task)
    return len(snapshot)


class FailoverManager:
    """Watches an agent and replaces it when the watchdog fires.

    ``make_agent`` builds the replacement (same channel or a fallback
    on-host channel); by default the replacement is watched too, so
    repeated failures keep failing over.
    """

    def __init__(self, kernel: GhostKernel, agent: GhostAgent,
                 make_agent: Callable[[], GhostAgent],
                 watchdog_timeout_ns: float = 20_000_000.0,
                 failover_delay_ns: float = DEFAULT_FAILOVER_DELAY_NS,
                 rewatch: bool = True):
        self.kernel = kernel
        self.env = kernel.env
        self.make_agent = make_agent
        self.failover_delay_ns = failover_delay_ns
        self.watchdog_timeout_ns = watchdog_timeout_ns
        self.rewatch = rewatch
        self.failovers = 0
        self.recovered_tasks = 0
        #: When the watchdog last detected a dead/silent agent.
        self.last_detected_at: Optional[float] = None
        #: Every detection timestamp, in order (an idle agent being
        #: recycled after >timeout of silence also counts, per the
        #: paper's watchdog policy).
        self.detections_ns: list = []
        #: When the last replacement finished pulling state and started.
        self.last_recovered_at: Optional[float] = None
        #: Detection -> running-replacement latencies, one per failover.
        self.recovery_latencies_ns: list = []
        self._failover_inflight = False
        self.current = agent
        self._watch(agent)

    def _watch(self, agent: GhostAgent) -> None:
        self.watchdog = Watchdog(agent, timeout_ns=self.watchdog_timeout_ns,
                                 on_kill=self._on_kill)
        self.watchdog.start()

    def _on_kill(self, dead_agent: GhostAgent) -> None:
        if self._failover_inflight:
            # A replacement is already being built (e.g. a crash and a
            # watchdog firing reported the same generation twice within
            # one step): one failover is enough.
            return
        self._failover_inflight = True
        self.last_detected_at = self.env.now
        self.detections_ns.append(self.env.now)
        tel = self.env.telemetry
        if tel is not None:
            tel.span("fault.verdict", "faults", agent=dead_agent.name)
            tel.count("fault_detections")
        self.env.process(self._failover(), name="failover")

    def _failover(self):
        detected_at = self.env.now
        yield self.env.timeout(self.failover_delay_ns)
        replacement = self.make_agent()
        self.recovered_tasks += recover_agent(replacement, self.kernel)
        replacement.start()
        self.failovers += 1
        self.current = replacement
        self.last_recovered_at = self.env.now
        self.recovery_latencies_ns.append(self.env.now - detected_at)
        tel = self.env.telemetry
        if tel is not None:
            tel.span("fault.recover", "faults", start_ns=detected_at,
                     dur_ns=self.env.now - detected_at,
                     agent=replacement.name,
                     recovered=self.recovered_tasks)
            tel.count("fault_recoveries")
        self._failover_inflight = False
        if self.rewatch:
            self._watch(replacement)
