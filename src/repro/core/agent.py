"""Wave agents: userspace system software on the SmartNIC (section 3).

An agent is a polling simulation process that consumes host messages,
runs its policy, and commits decision transactions. Subclasses implement
:meth:`handle_message` (and optionally :meth:`on_idle` for prestaging).

``START_WAVE_AGENT()`` / ``KILL_WAVE_AGENT()`` from Table 1 map to
:meth:`start` / :meth:`kill`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.api import WaveNicApi
from repro.core.channel import Placement, WaveChannel
from repro.core.messages import Message
from repro.sim import Interrupt, Process


class AgentKilled(Exception):
    """The cause carried by a watchdog / operator kill."""


class WaveAgent:
    """Base polling agent."""

    #: Policy compute charged per handled message, in host-equivalent ns
    #: (scaled by the ARM handicap when running on the NIC). Subclasses
    #: override or compute dynamically.
    policy_ns_per_message: float = 200.0

    def __init__(self, channel: WaveChannel, name: str = "agent"):
        self.channel = channel
        self.env = channel.env
        self.name = name
        self.api = WaveNicApi(channel)
        self._proc: Optional[Process] = None
        self.messages_handled = 0
        self.decisions_made = 0
        #: Watchdog heartbeat (section 3.3).
        self.last_decision_at = channel.env.now
        self.killed = False
        #: A kill interrupt is in flight but not yet delivered. Makes
        #: :meth:`kill` idempotent within one event-loop step: a
        #: watchdog firing for an agent that already crashed this step
        #: must not deliver a second interrupt into the cleanup hook.
        self.kill_pending = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> Process:
        """START_WAVE_AGENT(): begin the polling loop."""
        if self._proc is not None and self._proc.is_alive:
            raise RuntimeError(f"agent {self.name} already running")
        self.killed = False
        self.kill_pending = False
        # The agent's home timing domain for the partitioned kernel:
        # offloaded agents poll and compute on the NIC SoC, on-host
        # agents on the host socket (no-op under the serial kernel).
        home = "nic" if self.channel.placement is Placement.NIC else "host"
        with self.env.domain(home):
            self._proc = self.env.process(self._run(), name=self.name)
        return self._proc

    def kill(self, cause: str = "operator") -> None:
        """KILL_WAVE_AGENT(): stop the agent (watchdog or operator).

        Idempotent: once a kill is in flight (or the agent is already
        dead) further calls are no-ops.
        """
        if self.kill_pending:
            return
        if self._proc is not None and self._proc.is_alive:
            self.kill_pending = True
            self._proc.interrupt(AgentKilled(cause))

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.is_alive

    # -- main loop ---------------------------------------------------------

    def _run(self):
        try:
            while True:
                yield from self.fault_checkpoint()
                messages = yield from self.api.wait_messages()
                for message in messages:
                    yield from self.handle_message(message)
                    self.messages_handled += 1
                yield from self.on_idle()
        except Interrupt as interrupt:
            self.killed = True
            yield from self.on_killed(interrupt.cause)

    # -- hooks ---------------------------------------------------------------

    def handle_message(self, message: Message):
        """Process one message; subclasses implement the policy.

        Must be a generator (use ``yield from self.compute(...)`` to
        charge policy time).
        """
        yield from self.compute(self.policy_ns_per_message)

    def on_idle(self):
        """Called after draining a message batch; prestaging lives here."""
        return
        yield  # pragma: no cover -- makes this a generator

    def on_killed(self, cause):
        """Cleanup hook when the agent is killed."""
        return
        yield  # pragma: no cover

    # -- helpers ------------------------------------------------------------

    def fault_checkpoint(self):
        """One fault-injection poll per main-loop iteration.

        A hang plan stalls the agent here (making no decisions, so the
        watchdog's silence threshold can fire); a crash plan delivers a
        kill interrupt out-of-band. No-op without an injector attached.
        """
        faults = self.env.faults
        if faults is None:
            return
        stall = faults.on_agent_checkpoint(self)
        if stall > 0:
            yield self.env.timeout(stall)

    def compute(self, host_equivalent_ns: float):
        """Charge policy compute, scaled for the agent's placement."""
        yield self.env.timeout(self.channel.agent_compute(host_equivalent_ns))

    def heartbeat(self) -> None:
        """Record that a decision was made (feeds the watchdog)."""
        self.decisions_made += 1
        self.last_decision_at = self.env.now


class ComposedAgent(WaveAgent):
    """One agent hosting several system software components.

    Section 3.1: "Each agent can run a single system software component
    or combine software if beneficial" -- e.g. co-locating the RPC stack
    with thread scheduling (section 7.3). Components register a message
    handler per kind-prefix; one polling loop serves them all, so the
    components share discovery latency and batch amortization.
    """

    def __init__(self, channel: WaveChannel, name: str = "composed-agent"):
        super().__init__(channel, name=name)
        self._handlers = {}
        self.unhandled = 0

    def register(self, kind_prefix: str, handler) -> None:
        """Attach a component. ``handler(message)`` must be a generator
        (it runs on the agent's timeline and may use ``self.api``)."""
        if kind_prefix in self._handlers:
            raise ValueError(f"component {kind_prefix!r} already registered")
        self._handlers[kind_prefix] = handler

    @property
    def components(self):
        return sorted(self._handlers)

    def handle_message(self, message: Message):
        for prefix, handler in self._handlers.items():
            if message.kind.startswith(prefix):
                yield from handler(message)
                self.heartbeat()
                return
        self.unhandled += 1
        yield from self.compute(self.policy_ns_per_message)
