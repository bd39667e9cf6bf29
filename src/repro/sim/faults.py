"""Deterministic fault injection (FoundationDB-style simulation testing).

Wave's availability mechanisms -- the 20 ms watchdogs of section 3.3 and
the pull-based crash recovery of section 6 -- only earn their keep when
something actually goes wrong. This module *provokes* the failures those
mechanisms exist to survive, deterministically: a :class:`FaultInjector`
owns a seeded RNG and a set of declarative :class:`FaultPlan` objects,
and instrumented subsystems ask it at their protocol edges whether a
fault fires. Every run is a pure function of ``(seed, plans)``, so any
failure a chaos sweep finds replays exactly.

Fault classes (:data:`FAULT_KINDS`):

``agent-crash``
    Kill a :class:`~repro.core.agent.WaveAgent` outright (simulated
    segfault / OOM-kill); the watchdog's crash branch and
    :mod:`repro.ghost.failover` must take over.
``agent-hang``
    Stall an agent's polling loop without killing it (livelock, NIC-side
    contention per OSMOSIS); the watchdog's silence threshold fires.
``msg-drop`` / ``msg-dup`` / ``msg-delay``
    Lose, duplicate, or delay entries on a
    :class:`~repro.queues.ring.FloemRing` (and therefore on every
    :class:`~repro.core.channel.WaveChannel` built from them). Drops are
    recovered by the pull-based restart (the host kernel stays the
    source of truth); duplicates must fail cleanly as ``FAILED_RACE``
    transactions; delays only move latency.
``pcie-stall``
    Temporarily inflate interconnect costs (MMIO, MSI-X propagation,
    DMA wire time, MMIO-path ring accesses) by a factor -- modeling
    transient PCIe congestion from a co-tenant of the NIC.
``msix-loss``
    Swallow an MSI-X delivery; the parked core's periodic idle re-check
    (section 5.4's backstop) is the only recovery path.
``dma-timeout``
    Make DMA completions time out; the engine retries with exponential
    backoff (see :class:`~repro.hw.dma.DmaEngine`).

Hooks are pull-based and cheap: a subsystem reads ``env.faults`` and,
when an injector is attached, calls the matching ``on_*`` method. With
no injector attached every hook is a single attribute load, so the
happy path stays honest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Any, List, Optional, Tuple

from repro.sim.rngs import derive_seed

#: The supported fault classes.
AGENT_CRASH = "agent-crash"
AGENT_HANG = "agent-hang"
MSG_DROP = "msg-drop"
MSG_DUP = "msg-dup"
MSG_DELAY = "msg-delay"
PCIE_STALL = "pcie-stall"
MSIX_LOSS = "msix-loss"
DMA_TIMEOUT = "dma-timeout"

FAULT_KINDS = (AGENT_CRASH, AGENT_HANG, MSG_DROP, MSG_DUP, MSG_DELAY,
               PCIE_STALL, MSIX_LOSS, DMA_TIMEOUT)

#: Kinds whose trigger is evaluated per matching event (ring entry,
#: MSI-X send, DMA attempt, agent loop iteration).
_EVENT_KINDS = {MSG_DROP, MSG_DUP, MSG_DELAY, MSIX_LOSS, DMA_TIMEOUT,
                AGENT_CRASH, AGENT_HANG}


@dataclasses.dataclass
class FaultPlan:
    """One declarative fault: what fires, when, and how hard.

    Exactly one trigger must be set:

    - ``at_ns``: fire once at (the first opportunity after) this time;
    - ``every_n``: fire on every Nth matching event;
    - ``probability``: fire per matching event with this probability,
      drawn from the injector's seeded RNG.

    ``target`` filters by substring on the subsystem's name (agent name,
    ring name); ``None`` matches everything. ``max_fires`` bounds the
    total number of firings (default: unbounded, except ``at_ns`` plans
    which fire once).
    """

    kind: str
    at_ns: Optional[float] = None
    every_n: Optional[int] = None
    probability: Optional[float] = None
    #: Hang/stall window length (agent-hang, pcie-stall).
    duration_ns: float = 0.0
    #: Extra visibility delay for msg-delay batches.
    delay_ns: float = 0.0
    #: Cost inflation for pcie-stall (>= 1).
    factor: float = 1.0
    target: Optional[str] = None
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"one of {FAULT_KINDS}")
        triggers = [t is not None
                    for t in (self.at_ns, self.every_n, self.probability)]
        if sum(triggers) != 1:
            raise ValueError("exactly one of at_ns / every_n / probability "
                             "must be set")
        if self.every_n is not None and self.every_n <= 0:
            raise ValueError("every_n must be positive")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.kind == PCIE_STALL and self.at_ns is None:
            raise ValueError("pcie-stall is a time-window fault: set at_ns")
        if self.kind == PCIE_STALL and self.factor < 1.0:
            raise ValueError("pcie-stall factor must be >= 1")
        if self.kind in (AGENT_HANG, PCIE_STALL) and self.duration_ns <= 0:
            raise ValueError(f"{self.kind} requires a positive duration_ns")
        if self.max_fires is None and self.at_ns is not None:
            self.max_fires = 1

    def matches(self, name: str) -> bool:
        return self.target is None or self.target in name


@dataclasses.dataclass
class FaultRecord:
    """One firing, for the injector's deterministic log."""

    when_ns: float
    kind: str
    detail: str

    def render(self) -> str:
        return f"t={self.when_ns:.1f}ns {self.kind} {self.detail}"


class _PlanState:
    """Per-plan mutable bookkeeping (event counts, firings).

    Each plan owns its own RNG stream (derived from the injector seed
    and the plan's position+kind via :func:`repro.sim.rngs.derive_seed`)
    so a probabilistic plan's draw sequence depends only on *its own*
    matching events -- never on how other plans' events interleave with
    them, and never on the cross-domain dispatch order of the
    window-batched partition engine.
    """

    __slots__ = ("plan", "rng", "seen", "fires")

    def __init__(self, plan: FaultPlan, seed: int, index: int):
        self.plan = plan
        self.rng = random.Random(
            derive_seed(seed, "fault-plan", str(index), plan.kind))
        self.seen = 0    # matching events observed
        self.fires = 0   # times the fault actually fired


class FaultInjector:
    """Seeded, deterministic fault oracle attached to an Environment.

    Construct with the environment, a seed, and the plans; then
    :meth:`arm` to attach (sets ``env.faults``) and spawn the driver
    processes for time-triggered agent crashes. Instrumented subsystems
    call the ``on_*`` hooks; each plan draws from its own named stream
    (seeded via :func:`repro.sim.rngs.derive_seed` from ``(seed, plan
    index, kind)``), so two runs with the same ``(seed, plans)`` are
    byte-identical *and* one plan's draw sequence is independent of
    every other plan's event interleaving -- the property the
    window-batched partition engine needs, since it may dispatch
    independent domains' events out of global timestamp order.
    """

    def __init__(self, env, seed: int = 0,
                 plans: Optional[List[FaultPlan]] = None):
        self.env = env
        self.seed = seed
        self._states = [_PlanState(p, seed, i)
                        for i, p in enumerate(plans or [])]
        self.log: List[FaultRecord] = []
        self._agents: List[Any] = []
        self._armed = False
        # Aggregate counters (also exposed per-plan via plan_fires()).
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.batches_delayed = 0
        self.msix_lost = 0
        self.dma_timeouts = 0
        self.crashes = 0
        self.hangs = 0

    # -- lifecycle ---------------------------------------------------------

    def add_plan(self, plan: FaultPlan) -> FaultPlan:
        self._states.append(_PlanState(plan, self.seed, len(self._states)))
        return plan

    @property
    def plans(self) -> List[FaultPlan]:
        return [s.plan for s in self._states]

    def watch_agent(self, agent) -> None:
        """Register an agent as a target for crash/hang plans."""
        if agent not in self._agents:
            self._agents.append(agent)
        if self._armed:
            self._arm_crash_timers(agent)

    def arm(self) -> "FaultInjector":
        """Attach to the environment and start time-triggered drivers."""
        existing = self.env.faults
        if existing is not None and existing is not self:
            raise RuntimeError("another FaultInjector is already attached")
        self.env.faults = self
        if not self._armed:
            self._armed = True
            for agent in list(self._agents):
                self._arm_crash_timers(agent)
        return self

    def disarm(self) -> None:
        if self.env.faults is self:
            self.env.faults = None

    def _arm_crash_timers(self, agent) -> None:
        for state in self._states:
            plan = state.plan
            if (plan.kind == AGENT_CRASH and plan.at_ns is not None
                    and plan.matches(agent.name)):
                self.env.process(self._crash_at(state, agent),
                                 name=f"fault-crash-{agent.name}")

    def _crash_at(self, state: _PlanState, agent):
        delay = max(0.0, state.plan.at_ns - self.env.now)
        yield self.env.timeout(delay)
        if not self._fires_left(state):
            return
        if agent.running:
            self._record(state, AGENT_CRASH, f"agent={agent.name}")
            self.crashes += 1
            agent.kill(cause=f"fault-injection: {AGENT_CRASH}")

    # -- trigger evaluation -------------------------------------------------

    def _fires_left(self, state: _PlanState) -> bool:
        plan = state.plan
        return plan.max_fires is None or state.fires < plan.max_fires

    def _event_fires(self, state: _PlanState) -> bool:
        """Evaluate one matching event against an event-triggered plan."""
        plan = state.plan
        if not self._fires_left(state):
            return False
        state.seen += 1
        if plan.every_n is not None:
            return state.seen % plan.every_n == 0
        if plan.probability is not None:
            return state.rng.random() < plan.probability
        # at_ns for event-based kinds: first matching event at/after at_ns.
        return self.env.now >= plan.at_ns

    def _record(self, state: _PlanState, kind: str, detail: str) -> None:
        state.fires += 1
        self.log.append(FaultRecord(self.env.now, kind, detail))
        tel = self.env.telemetry
        if tel is not None:
            # A fault event is a designated causal root (it has no
            # inbound request; anything it perturbs traces back to it).
            tel.span("fault.fire", "faults", root=True, kind=kind,
                     detail=detail)
            tel.count("fault_fires", kind=kind)

    def _each(self, kind: str, name: str):
        for state in self._states:
            if state.plan.kind == kind and state.plan.matches(name):
                yield state

    # -- hooks: agents -------------------------------------------------------

    def on_agent_checkpoint(self, agent) -> float:
        """Called once per agent polling-loop iteration. Returns a stall
        duration (ns) the agent must sleep for (agent-hang), possibly
        0.0; an agent-crash decision interrupts the agent out-of-band."""
        stall = 0.0
        for state in self._each(AGENT_HANG, agent.name):
            if self._event_fires(state):
                self._record(state, AGENT_HANG,
                             f"agent={agent.name} "
                             f"duration={state.plan.duration_ns:.0f}ns")
                self.hangs += 1
                stall += state.plan.duration_ns
        for state in self._each(AGENT_CRASH, agent.name):
            if state.plan.at_ns is not None:
                continue  # handled by the timer driver
            if self._event_fires(state):
                self._record(state, AGENT_CRASH, f"agent={agent.name}")
                self.crashes += 1
                self.env.process(self._kill_soon(agent),
                                 name=f"fault-crash-{agent.name}")
        return stall

    def _kill_soon(self, agent):
        # A process cannot interrupt itself; deliver the kill from a
        # sibling process at the same timestamp.
        yield self.env.timeout(0)
        if agent.running:
            agent.kill(cause=f"fault-injection: {AGENT_CRASH}")

    # -- hooks: message queues ----------------------------------------------

    def on_ring_produce(self, ring_name: str, items: List[Any]
                        ) -> Tuple[List[Any], float, int, int]:
        """Filter a produce batch. Returns ``(items, extra_delay_ns,
        n_dropped, n_duplicated)``: items may be dropped or duplicated;
        the whole batch's visibility may be pushed out by
        ``extra_delay_ns``."""
        out: List[Any] = []
        n_dropped = n_duplicated = 0
        for item in items:
            dropped = False
            for state in self._each(MSG_DROP, ring_name):
                if self._event_fires(state):
                    self._record(state, MSG_DROP, f"ring={ring_name}")
                    self.messages_dropped += 1
                    n_dropped += 1
                    dropped = True
                    break
            if dropped:
                continue
            out.append(item)
            for state in self._each(MSG_DUP, ring_name):
                if self._event_fires(state):
                    self._record(state, MSG_DUP, f"ring={ring_name}")
                    self.messages_duplicated += 1
                    n_duplicated += 1
                    out.append(item)
        extra = 0.0
        if out:
            for state in self._each(MSG_DELAY, ring_name):
                if self._event_fires(state):
                    self._record(state, MSG_DELAY,
                                 f"ring={ring_name} "
                                 f"delay={state.plan.delay_ns:.0f}ns")
                    self.batches_delayed += 1
                    extra += state.plan.delay_ns
        return out, extra, n_dropped, n_duplicated

    # -- hooks: interconnect -------------------------------------------------

    def interconnect_factor(self) -> float:
        """Current multiplicative cost inflation (pcie-stall windows)."""
        factor = 1.0
        now = self.env.now
        for state in self._states:
            plan = state.plan
            if plan.kind != PCIE_STALL:
                continue
            if plan.at_ns <= now < plan.at_ns + plan.duration_ns:
                if state.fires == 0:
                    self._record(state, PCIE_STALL,
                                 f"factor={plan.factor:g} "
                                 f"until={plan.at_ns + plan.duration_ns:.0f}ns")
                factor *= plan.factor
        return factor

    def path_cost_factor(self, path) -> float:
        """Stall inflation for a memory path, if it crosses the
        interconnect (local/coherent host paths are unaffected)."""
        if getattr(path, "crosses_interconnect", False):
            return self.interconnect_factor()
        return 1.0

    def on_msix_send(self, nic_name: str = "nic") -> bool:
        """True if this MSI-X delivery is lost on the wire."""
        for state in self._each(MSIX_LOSS, nic_name):
            if self._event_fires(state):
                self._record(state, MSIX_LOSS, f"nic={nic_name}")
                self.msix_lost += 1
                return True
        return False

    def on_dma_attempt(self, engine_name: str = "dma") -> bool:
        """True if this DMA attempt times out (the engine will retry)."""
        for state in self._each(DMA_TIMEOUT, engine_name):
            if self._event_fires(state):
                self._record(state, DMA_TIMEOUT, f"engine={engine_name}")
                self.dma_timeouts += 1
                return True
        return False

    # -- reporting -----------------------------------------------------------

    def plan_fires(self) -> List[Tuple[str, int, int]]:
        """Per-plan ``(kind, events_seen, fires)`` in plan order."""
        return [(s.plan.kind, s.seen, s.fires) for s in self._states]

    def total_fires(self) -> int:
        return sum(s.fires for s in self._states)

    def snapshot(self) -> str:
        """Canonical, byte-stable dump of everything the injector did.

        Two runs with the same ``(seed, plans)`` against the same system
        must produce identical snapshots -- the reproducibility property
        the chaos test layer stands on.
        """
        lines = [f"seed={self.seed}"]
        for i, (kind, seen, fires) in enumerate(self.plan_fires()):
            lines.append(f"plan[{i}] kind={kind} seen={seen} fires={fires}")
        lines.append(f"dropped={self.messages_dropped} "
                     f"duplicated={self.messages_duplicated} "
                     f"delayed={self.batches_delayed} "
                     f"msix_lost={self.msix_lost} "
                     f"dma_timeouts={self.dma_timeouts} "
                     f"crashes={self.crashes} hangs={self.hangs}")
        lines.extend(record.render() for record in self.log)
        return "\n".join(lines)

    def digest(self) -> str:
        """Short hex digest of :meth:`snapshot` for one-line reports."""
        return hashlib.sha256(self.snapshot().encode()).hexdigest()[:16]
