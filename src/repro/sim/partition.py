"""Partitioned parallel-DES engine: per-domain queues + lookahead.

Wave's hardware split gives the simulator natural *conservative-PDES*
structure (Chandy/Misra/Bryant): the host socket, the NIC SoC, and the
interconnect between them are separate timing domains, and every
cross-domain interaction pays a known physical minimum -- a PCIe UC
write doesn't land in under ``mmio_write_uc`` ns, an MSI-X doesn't
deliver in under the propagation window (Table 2 of the paper). Those
minima are exactly the *lookahead* a partitioned kernel needs: while
one domain dispatches, no other domain can inject an event into it
earlier than ``now + lookahead``.

This engine partitions the event queue accordingly: each
:class:`Domain` owns a binary heap, a hierarchical
:class:`~repro.sim.wheel.TimerWheel`, and a staged list, and the run
loop alternates between domains under a conservative safe-time window.

The engine runs in one of two modes:

**Window-batched dispatch** (the default). YAWNS-style synchronous
rounds: at each round barrier the engine reads every domain's earliest
pending time (its *head*), gives each domain a *fence* --
``min over s != d of (head_s + lookahead(s -> d))`` -- and lets each
fenced domain drain its own heap+wheel straight through, without
interleaving through the global merge, for every event strictly below
its fence. Safety: an event sent from ``s`` during the round lands at
``>= head_s + lookahead(s -> d) >= fence_d``, so nothing can arrive
below a fence mid-round; progress: the globally earliest head is
always strictly below its own fence because every lookahead is
strictly positive. Events *within* one domain keep their exact
relative order; events in different domains may dispatch out of
global-time order, which is sound only under the **domain-partitioned
model contract**: model state (including RNG streams -- see
:mod:`repro.sim.rngs`) is owned by a single domain, and every
cross-domain interaction goes through the explicit lookahead-checked
channel. The **commit rule** covers events that could observe
cross-domain state anyway: cross-marked events (``Event._cross`` --
cross-domain sends, shared-resource grants) never dispatch inside a
batched window; a cross head publishes its time with *no* lookahead
credit, fencing every other domain at or below it, and the event
dispatches through an exact solo merge step once it is the global
minimum. A detected contract violation (an ambient insert below a time
its target domain already drained past this round, or a Store/Resource
touched from a second domain) sticky-degrades the run: batching stays
off for the rest of it. On the model workloads this happens within the
first few windows, and the batched prefix can already differ from the
serial kernel's output (see ``docs/performance.md`` section 7).

**Exact-order merge**. A merge across the per-domain queues preserving
the *global* ``(time, priority, seq)`` dispatch order exactly. When it
picks the domain owning the globally earliest live event, it keeps
dispatching that domain's events without re-consulting the others
until it reaches the *bound*: the runner-up lower bound across all
other domains (their cleaned heap heads, their wheels' earliest bucket
starts). Cross-domain inserts made while a domain runs lower the bound
immediately, so the window is always conservative. It serves the runs
batching cannot: telemetry-instrumented runs (span order is
observable; each merge window feeds the :class:`PartitionObservatory`)
and ``run(until=<event>)`` (the stop point is order-sensitive).
Profiling adds no path of its own: a profiled run is a telemetry run,
and :mod:`repro.obs.profile` measures the merge it takes.

**Handoff to the serial kernel.** Any other run with batching off --
degraded mid-run, or before it started -- is finished by the serial
kernel: the engine moves every domain's heap, staged and wheel entries
into the environment's own heap and wheel, each under its original
``(time, priority, seq)`` key, clears the environment's hot-path
``_partition`` slot and calls :meth:`Environment.run`. The merge would
dispatch in that same global order, so the handoff moves no output; it
only drops the merge's per-window overhead. ``env.partition`` keeps
returning the engine, whose counters cover the part of the run it
dispatched.

**Fallbacks.** The serial single-queue kernel remains available;
:meth:`Environment.enable_partition` refuses to install (returning
None) when ``REPRO_NO_PARTITION`` is set, ``use_partition=False`` is
passed, or any lookahead window is zero/negative -- a conservative
engine with no lookahead degenerates to lockstep, so zero-lookahead
plans fall back to the serial path by design. Lookahead is enforced on
the explicit cross-domain channel (:meth:`Environment.cross_timeout`):
a send below the declared minimum raises :class:`LookaheadViolation`.
This is the machine-checked form of the forward-in-time causality
assumption the Borrill critique attacks -- the kernel *states* the
windows it relies on and refuses inputs that break them, instead of
assuming them silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.sim.core import Environment, StopSimulation, _POOL_MAX
from repro.sim.events import Event, RearmableTimer, Timeout
from repro.sim.wheel import MIN_COARSE_DELAY, MIN_WHEEL_DELAY, TimerWheel

_INF = float("inf")

#: Cancel-backlog size that triggers a bulk purge of cancelled wheel
#: entries at a window close (see ``Environment.cancelled_purged``).
_PURGE_BACKLOG = 64

#: Sentinel ordering key greater than every real ``(time, ...)`` key.
#: A 1-tuple: comparisons against real keys are decided on element 0
#: (real times are finite), and two sentinels compare equal.
_INF_KEY: Tuple[float, ...] = (_INF,)

#: Canonical domain names for the Wave hardware split. Plans are free
#: to use any names; these are what `hw/` derives from Table 2.
HOST = "host"
INTERCONNECT = "ic"
NIC = "nic"


class LookaheadViolation(RuntimeError):
    """A cross-domain send below the declared minimum latency.

    Raised by :meth:`Environment.cross_timeout` under the partitioned
    engine: the sender claimed domain-to-domain delivery faster than
    the hardware minimum its partition plan declared, which would break
    the conservative safe-time window (and, physically, the PCIe
    timing model the plan was derived from).
    """


@dataclass(frozen=True)
class PartitionPlan:
    """Domain names plus per-ordered-pair lookahead windows (ns).

    ``lookahead[(src, dst)]`` is the minimum latency any explicit
    cross-domain send from ``src`` to ``dst`` must respect. A plan is
    :meth:`usable` only when every ordered pair of distinct domains has
    a strictly positive window -- zero lookahead means the partitioned
    engine cannot promise anything beyond lockstep, so the kernel falls
    back to the serial path instead.
    """

    names: Tuple[str, ...]
    lookahead: Mapping[Tuple[str, str], float] = field(default_factory=dict)
    default: str = ""

    def __post_init__(self):
        if not self.default and self.names:
            object.__setattr__(self, "default", self.names[0])

    @classmethod
    def uniform(cls, names, window: float,
                default: Optional[str] = None) -> "PartitionPlan":
        """All ordered pairs share one lookahead window."""
        names = tuple(names)
        lookahead = {(a, b): float(window)
                     for a in names for b in names if a != b}
        return cls(names, lookahead, default or (names[0] if names else ""))

    def window(self, src: str, dst: str) -> float:
        """Lookahead for ``src -> dst`` (0.0 when undeclared)."""
        return self.lookahead.get((src, dst), 0.0)

    def min_window(self) -> float:
        """The smallest declared pairwise window (+inf if none)."""
        pairs = [(a, b) for a in self.names for b in self.names if a != b]
        if not pairs:
            return _INF
        return min(self.window(a, b) for a, b in pairs)

    def usable(self) -> bool:
        """True when partitioning this plan can beat the serial path."""
        if len(self.names) < 2 or len(set(self.names)) != len(self.names):
            return False
        if self.default not in self.names:
            return False
        for a in self.names:
            for b in self.names:
                if a != b and self.window(a, b) <= 0:
                    return False
        return True


class PartitionObservatory:
    """Per-run bookkeeping of how the partitioned engine behaved.

    Created by :class:`PartitionEngine` only when the environment has
    telemetry attached, published as ``env.telemetry.partition`` (and
    carried through :class:`~repro.obs.shard.RunShard`), and rendered
    by :func:`repro.obs.causal.partition_section`. It is deliberately
    **not** part of the metrics registry: the telemetry digest must be
    identical whether a run executed partitioned or serial, and these
    numbers only exist under the partitioned engine.

    All bookkeeping is per *window* (one ``_run_inner`` stretch) or per
    cross-domain send -- never per event -- so an instrumented
    partitioned run stays within the perf gate.

    What it answers, for the true-parallel follow-up the ROADMAP names:

    - ``busy_ns``/``events``/``windows``: time-weighted per-domain
      occupancy of the (serial) merge timeline -- the idle share of a
      domain is total minus its busy.
    - ``stall_*``: per ordered ``(blocker, blocked)`` pair, how often
      and by how much the safe-time fence cut a window short.  The
      ``fence-gap`` is what the exact-order merge costs; the
      ``beyond-lookahead`` residual is what even a lookahead-credited
      conservative engine would still block on.
    - ``traffic``: the cross-domain send matrix (which pairs actually
      talk, and how much).
    - :meth:`speedup_bound`: total events over the longest
      cross-domain-ordered chain of window events -- an upper bound on
      what any parallel execution of this exact event stream could
      achieve.
    """

    def __init__(self, names):
        self.names = tuple(names)
        self.busy_ns = {name: 0.0 for name in self.names}
        self.events = {name: 0 for name in self.names}
        self.windows = {name: 0 for name in self.names}
        #: ``(blocker, blocked) -> `` count / fence-gap ns / residual ns.
        self.stall_counts: Dict[Tuple[str, str], int] = {}
        self.stall_ns: Dict[Tuple[str, str], float] = {}
        self.stall_residual_ns: Dict[Tuple[str, str], float] = {}
        #: ``(src, dst) -> `` cross-domain sends.
        self.traffic: Dict[Tuple[str, str], int] = {}
        #: Event-count critical path per domain: windows append their
        #: event counts; a cross-send orders the receiver's next window
        #: after the sender's chain.
        self.cp_events = {name: 0 for name in self.names}
        self._dep = {name: 0 for name in self.names}
        self._receivers = set()
        self.total_events = 0

    def record_window(self, name: str, advanced_ns: float,
                      n_events: int) -> None:
        """One dispatch window closed for domain ``name``."""
        self.windows[name] += 1
        if advanced_ns > 0.0:
            self.busy_ns[name] += advanced_ns
        self.events[name] += n_events
        self.total_events += n_events
        start = self.cp_events[name]
        dep = self._dep[name]
        if dep > start:
            start = dep
        self.cp_events[name] = start + n_events
        if self._receivers:
            reach = self.cp_events[name]
            for dst in self._receivers:
                if dst in self._dep and reach > self._dep[dst]:
                    self._dep[dst] = reach
            self._receivers.clear()

    def record_stall(self, blocker: str, blocked: str, cand_ns: float,
                     bound_ns: float, lookahead_ns: float) -> None:
        """A window for ``blocked`` hit the safe-time fence held by
        ``blocker``: its next candidate at ``cand_ns`` could not
        dispatch past the fence at ``bound_ns``."""
        key = (blocker, blocked)
        self.stall_counts[key] = self.stall_counts.get(key, 0) + 1
        gap = cand_ns - bound_ns
        if gap > 0.0:
            self.stall_ns[key] = self.stall_ns.get(key, 0.0) + gap
        residual = gap - lookahead_ns
        if residual > 0.0:
            self.stall_residual_ns[key] = (
                self.stall_residual_ns.get(key, 0.0) + residual)

    def record_cross(self, src: str, dst: str) -> None:
        key = (src, dst)
        self.traffic[key] = self.traffic.get(key, 0) + 1
        self._receivers.add(dst)

    def speedup_bound(self) -> float:
        """Total events over the longest ordered chain (>= 1.0)."""
        longest = max(self.cp_events.values(), default=0)
        if longest <= 0:
            return 1.0
        return self.total_events / longest

    def busy_bound(self) -> float:
        """Total busy time over the busiest domain's (>= 1.0)."""
        peak = max(self.busy_ns.values(), default=0.0)
        if peak <= 0.0:
            return 1.0
        return sum(self.busy_ns.values()) / peak


class Domain:
    """One timing domain's share of the event queue."""

    __slots__ = ("name", "index", "queue", "wheel", "staged", "_ran_to")

    def __init__(self, name: str, index: int,
                 wheel: Optional[TimerWheel]):
        self.name = name
        self.index = index
        self.queue: List[Tuple[float, int, int, Event]] = []
        self.wheel = wheel
        #: Same-turn schedules made while *this* domain is dispatching;
        #: mirrors the serial kernel's staged list, per domain.
        self.staged: List[Tuple[float, int, int, Event]] = []
        #: Highest fence this domain has verifiably drained below under
        #: window batching (its local virtual-time floor). An ambient
        #: insert below this is a misorder -- the event's window already
        #: closed -- and sticky-degrades the run (batching off).
        self._ran_to = -_INF

    def __repr__(self) -> str:
        return (f"<Domain {self.name!r} queue={len(self.queue)} "
                f"wheel={len(self.wheel) if self.wheel is not None else 0}>")


class _DomainContext:
    """``env.domain(name)`` under the partitioned engine."""

    __slots__ = ("_part", "_domain", "_prev")

    def __init__(self, part: "PartitionEngine", domain: Domain):
        self._part = part
        self._domain = domain
        self._prev: Optional[Domain] = None

    def __enter__(self):
        part = self._part
        self._prev = part.current
        part.current = self._domain
        return self._domain.name

    def __exit__(self, *exc):
        self._part.current = self._prev
        return False


class PartitionEngine:
    """The partitioned event-queue engine behind an :class:`Environment`.

    Installed by :meth:`Environment.enable_partition`; the environment
    inlines its ``timeout``/``_schedule`` inserts and forwards ``run``
    here until a run is handed off. The exact merge must preserve the
    serial kernel's observable semantics exactly -- the cross-engine
    conformance suite (``tests/conformance/``) is the proof obligation
    for every edit to this file.
    """

    __slots__ = ("env", "plan", "domains", "_by_name", "default", "current",
                 "_running", "_run_domain", "_bound", "cross_sends",
                 "domain_switches", "observatory", "_bound_owner",
                 "_stall_at", "batching", "_round_active", "_incoming",
                 "windows_batched", "events_batched", "batch_solo",
                 "batch_degrades", "_fence")

    def __init__(self, env: Environment, plan: PartitionPlan):
        self.env = env
        self.plan = plan
        use_wheel = env._wheel is not None
        self.domains: List[Domain] = []
        self._by_name: Dict[str, Domain] = {}
        for index, name in enumerate(plan.names):
            if index == 0:
                # The first-listed domain adopts the (empty) structures
                # the environment built, so `env._wheel is None` keeps
                # meaning "wheel disabled" for every domain.
                wheel = env._wheel
            else:
                wheel = TimerWheel() if use_wheel else None
            domain = Domain(name, index, wheel)
            self.domains.append(domain)
            self._by_name[name] = domain
        self.domains[0].queue = env._queue
        self.default = self._by_name[plan.default]
        #: The ambient routing target: events scheduled with no explicit
        #: domain land here. Dispatch sets it to the dispatching event's
        #: domain; `Process._resume` pins it to the process's home
        #: domain; `env.domain(...)` overrides it lexically.
        self.current: Domain = self.default
        self._running = False
        self._run_domain: Optional[Domain] = None
        #: While running: a lower bound (ordering key) on the earliest
        #: pending event in every domain *other than* the running one.
        self._bound: Tuple = _INF_KEY
        #: Lifetime diagnostics.
        self.cross_sends = 0
        self.domain_switches = 0
        #: Domain holding the current safe-time fence (for stall blame).
        self._bound_owner: Optional[Domain] = None
        #: Fenced candidate's time when a window closed on the bound.
        self._stall_at = _INF
        #: Per-window/per-send observability, only when the run is
        #: telemetry-instrumented (None keeps the engine zero-cost).
        tel = getattr(env, "telemetry", None)
        if tel is not None:
            self.observatory = PartitionObservatory(self.domain_names())
            tel.partition = self.observatory
        else:
            self.observatory = None
        #: Window-batched dispatch (module docstring). Sticky-degradable
        #: at runtime. Telemetry pins exact order (span ordering is
        #: observable).
        self.batching = tel is None
        #: True while ``_run_batched`` owns the run (misorder detection
        #: window for ambient cross-domain inserts).
        self._round_active = False
        #: The inline batched window's *live* fence. Set per window,
        #: lowered by `_insert` whenever the window seeds an event into
        #: another domain: the exact merge stops at every cross insert
        #: (`_bound` lowering), and the batched window must stop at the
        #: same point -- the target domain's handling of that arrival
        #: may change shared state this window's later events read.
        self._fence = _INF
        #: Per-domain incoming lookahead edges, precomputed for fence
        #: derivation: ``_incoming[d.index]`` is ``((src_index, la), ...)``
        #: over every other domain.
        self._incoming: List[Tuple[Tuple[int, float], ...]] = [
            tuple((s.index, plan.window(s.name, d.name))
                  for s in self.domains if s is not d)
            for d in self.domains]
        self.windows_batched = 0
        self.events_batched = 0
        #: Exact solo merge steps taken for commit-rule (cross-marked)
        #: heads and fence deadlocks.
        self.batch_solo = 0
        #: Ambient-insert misorders detected (each sticky-degrades the
        #: remainder of its run: batching off, then the handoff).
        self.batch_degrades = 0

    # -- introspection -----------------------------------------------------

    @property
    def domain_count(self) -> int:
        return len(self.domains)

    def domain_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.domains)

    def domain_context(self, name: str) -> _DomainContext:
        domain = self._by_name.get(name)
        if domain is None:
            raise ValueError(f"unknown domain {name!r}; "
                             f"plan has {self.domain_names()}")
        return _DomainContext(self, domain)

    def _shared_state_touch(self) -> None:
        """A Store/Resource was touched from a second domain.

        Shared-state results are computed at call time (a ``get`` pops
        its item the moment it runs), so cross-domain sharing is
        ordering-sensitive in a way window batching cannot preserve.
        Sticky-degrade: batching turns off, and the run is handed to
        the serial kernel once the current round completes
        (best-effort, same as the ambient-insert degrade).
        """
        if self.batching:
            self.batching = False
            if self._round_active:
                self.batch_degrades += 1

    # -- scheduling --------------------------------------------------------

    def _insert(self, domain: Domain, when: float, priority: int, seq: int,
                event: Event, delay: float) -> None:
        """File one entry in ``domain``'s share of the queue.

        Far timers go to the domain's wheel; same-turn schedules into
        the *running* domain are staged (serial fast-path semantics);
        everything else is a counted heap admission. Inserts into a
        non-running domain lower the safe-time bound immediately, so
        the inner loop can never dispatch past them.
        """
        env = self.env
        wheel = domain.wheel
        if wheel is not None and delay >= MIN_WHEEL_DELAY:
            # Wheel inserts can never misorder a batched round: the
            # minimum wheel delay (4096 ns) exceeds every fence's
            # lookahead credit, so `when` is beyond any _ran_to.
            wheel.insert(when, priority, seq, event,
                         delay >= MIN_COARSE_DELAY)
            if self._running and domain is not self._run_domain:
                start = wheel._next_start
                if start < self._bound[0]:
                    self._bound = (start, -1, -1)
                    self._bound_owner = domain
                if when < self._fence:
                    self._fence = when
            return
        entry = (when, priority, seq, event)
        if self._running and domain is self._run_domain:
            domain.staged.append(entry)
            return
        env.events_scheduled += 1
        heappush(domain.queue, entry)
        if self._running:
            if entry < self._bound:
                self._bound = entry
                self._bound_owner = domain
            if when < self._fence:
                # Cross-window insert (this branch is only reachable
                # for a non-running target domain): close the running
                # batched window at the arrival time, mirroring the
                # exact merge's bound lowering.
                self._fence = when
            if self._round_active and when < domain._ran_to:
                # Ambient insert below a fence its target already
                # drained past: the domain-partitioned contract was
                # broken in a way batching cannot hide. Turn batching
                # off for the rest of the run (sticky -- the missed
                # window cannot be re-opened).
                self.batch_degrades += 1
                self.batching = False

    def cross_timeout(self, dst: str, delay: float,
                      value: Any = None) -> Timeout:
        """The lookahead-checked cross-domain channel."""
        target = self._by_name.get(dst)
        if target is None:
            raise ValueError(f"unknown domain {dst!r}; "
                             f"plan has {self.domain_names()}")
        src = self.current
        cross = target is not src
        if cross:
            window = self.plan.window(src.name, dst)
            if delay < window:
                raise LookaheadViolation(
                    f"cross-domain send {src.name!r} -> {dst!r} with "
                    f"delay {delay} ns violates the declared lookahead "
                    f"window of {window} ns")
            self.cross_sends += 1
            if self.observatory is not None:
                self.observatory.record_cross(src.name, dst)
        self.current = target
        try:
            timer = self.env.timeout(delay, value)
        finally:
            self.current = src
        if cross:
            # Commit rule: the receipt could observe sender-domain
            # state, so it must never dispatch inside a batched window.
            timer._cross = True
        return timer

    def _push_rearmed(self, domain: Domain, surfaced_at: float,
                      priority: int, event: RearmableTimer) -> None:
        """Re-key a re-armed poll timer in the domain that surfaced it.

        Same re-keying rule as the serial kernel (`_rearm_seq`, exact
        legacy tie-break order); the entry stays in the domain whose
        queue held it -- domain placement never affects dispatch order,
        only staging and bounds.
        """
        fire_at = event._fire_at
        wheel = domain.wheel
        if wheel is not None and fire_at - surfaced_at >= MIN_WHEEL_DELAY:
            wheel.insert(fire_at, priority, event._rearm_seq, event,
                         fire_at - surfaced_at >= MIN_COARSE_DELAY)
        else:
            self.env.events_scheduled += 1
            heappush(domain.queue,
                     (fire_at, priority, event._rearm_seq, event))
        event._entry_at = fire_at

    def _flush_staged(self, domain: Domain) -> None:
        staged = domain.staged
        if staged:
            queue = domain.queue
            push = heappush
            for entry in staged:
                push(queue, entry)
            self.env.events_scheduled += len(staged)
            del staged[:]

    def _promote_domain(self, domain: Domain, stop_at: float) -> None:
        """Promote ``domain``'s due wheel buckets (serial promotion rule)."""
        wheel = domain.wheel
        queue = domain.queue
        env = self.env
        while wheel._count:
            start = wheel.next_start()
            if start > stop_at:
                break
            if queue and queue[0][0] < start:
                break
            wheel.promote_next(env, queue)
        else:
            wheel._next_start = _INF

    # -- the merge ---------------------------------------------------------

    def _head_bound(self, domain: Domain):
        """A lower-bound ordering key for ``domain``'s earliest event.

        Pops cancelled and stale re-arm entries off the heap head on
        the way (lazy cleaning, as the serial loop does at pop time).
        Returns the live head entry itself (exact), the wheel's next
        bucket start as ``(start, -1, -1)`` (conservative: every parked
        entry's deadline is >= its bucket start), or :data:`_INF_KEY`.
        """
        env = self.env
        queue = domain.queue
        qhead = None
        while queue:
            head = queue[0]
            event = head[3]
            if event._cancelled:
                heappop(queue)
                env._recycle(event)
                continue
            if type(event) is RearmableTimer and event._rearm_seq != head[2]:
                heappop(queue)
                self._push_rearmed(domain, head[0], head[1], event)
                continue
            qhead = head
            break
        wheel = domain.wheel
        if wheel is not None and wheel._count:
            start = wheel._next_start
            if qhead is None or start < qhead[0]:
                return (start, -1, -1)
        return qhead if qhead is not None else _INF_KEY

    def _select(self, stop_at: float):
        """Pick the domain owning the globally earliest live event.

        Returns ``(domain, bound, bound_owner)`` -- the winner plus the
        runner-up key across the other domains (the safe-time window's
        edge) and the domain holding it -- or None when nothing is due
        at or before ``stop_at``. Promotes the winner's due wheel
        buckets first, so the returned winner always has its next live
        event surfaced on its heap.
        """
        domains = self.domains
        while True:
            best_key: Tuple = _INF_KEY
            second: Tuple = _INF_KEY
            best = None
            second_owner = None
            for domain in domains:
                key = self._head_bound(domain)
                if key < best_key:
                    second = best_key
                    second_owner = best
                    best_key = key
                    best = domain
                elif key < second:
                    second = key
                    second_owner = domain
            if best is None or best_key[0] > stop_at:
                return None
            wheel = best.wheel
            if wheel is not None and wheel._count:
                queue = best.queue
                if not queue or wheel._next_start <= queue[0][0]:
                    # The winner's earliest event may still be parked in
                    # its wheel: promote the due buckets and re-select.
                    self._promote_domain(best, stop_at)
                    continue
            return best, second, second_owner

    def _run_inner(self, domain: Domain, stop_at: float) -> None:
        """Dispatch ``domain``'s events inside the safe-time window.

        The serial kernel's inline loop, fenced by ``self._bound``: the
        loop stops as soon as the domain's next candidate would reach
        the earliest event any *other* domain could hold. Cross-domain
        inserts made by the dispatched callbacks lower the bound en
        route, so the fence is re-read every iteration.
        """
        env = self.env
        queue = domain.queue
        staged = domain.staged
        wheel = domain.wheel
        pool = env._timeout_pool
        pop = heappop
        timeout_type = Timeout
        rearm_type = RearmableTimer
        timeline = env._timeline
        tl_next = timeline._next_ns if timeline is not None else _INF
        self._run_domain = domain
        self.current = domain
        dispatched = 0
        try:
            while True:
                bound = self._bound
                entry = None
                if staged:
                    cand = staged[0] if len(staged) == 1 else min(staged)
                    if wheel is not None and wheel._next_start <= cand[0]:
                        self._flush_staged(domain)
                    elif queue and queue[0] < cand:
                        self._flush_staged(domain)
                    elif cand[0] > stop_at:
                        self._flush_staged(domain)
                        return
                    elif cand >= bound:
                        # The window closed before the staged entry:
                        # hand back to the outer merge.
                        if self.observatory is not None:
                            self._stall_at = cand[0]
                        self._flush_staged(domain)
                        return
                    else:
                        if len(staged) == 1:
                            del staged[:]
                        else:
                            staged.remove(cand)
                        event = cand[3]
                        if event._cancelled:
                            if type(event) is timeout_type \
                                    and len(pool) < _POOL_MAX:
                                pool.append(event)
                            elif type(event) is rearm_type:
                                event._has_entry = False
                            continue
                        if type(event) is rearm_type \
                                and event._rearm_seq != cand[2]:
                            self._push_rearmed(domain, cand[0], cand[1],
                                               event)
                            continue
                        entry = cand
                if entry is None:
                    if queue:
                        head_time = queue[0][0]
                        if (wheel is not None
                                and wheel._next_start <= head_time):
                            self._promote_domain(domain, stop_at)
                            head_time = queue[0][0] if queue else _INF
                        if head_time > stop_at:
                            return
                    else:
                        if wheel is not None \
                                and wheel._next_start <= stop_at:
                            self._promote_domain(domain, stop_at)
                        if not queue or queue[0][0] > stop_at:
                            return
                    if queue[0] >= bound:
                        if self.observatory is not None:
                            self._stall_at = queue[0][0]
                        return
                    cand = pop(queue)
                    event = cand[3]
                    if event._cancelled:
                        if type(event) is timeout_type \
                                and len(pool) < _POOL_MAX:
                            pool.append(event)
                        elif type(event) is rearm_type:
                            event._has_entry = False
                        continue
                    if type(event) is rearm_type \
                            and event._rearm_seq != cand[2]:
                        self._push_rearmed(domain, cand[0], cand[1], event)
                        continue
                    entry = cand
                if tl_next <= entry[0]:
                    # Timeline boundary: the merge dispatches in exact
                    # global (time, priority, seq) order, so crossing
                    # here sees the same event prefix as the serial
                    # kernel would.
                    timeline._cross(entry[0])
                    tl_next = timeline._next_ns
                env.now = entry[0]
                dispatched += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failure nobody waited on: surface it.
                    exc = event._value
                    raise type(exc)(*exc.args) from exc
                if type(event) is timeout_type and len(pool) < _POOL_MAX:
                    pool.append(event)
                elif type(event) is rearm_type:
                    event._has_entry = False
        finally:
            env.events_dispatched += dispatched

    # -- window-batched dispatch -------------------------------------------

    def _run_window(self, domain: Domain, fence: float,
                    stop_at: float) -> int:
        """Drain ``domain`` strictly below its ``fence`` (batched mode).

        The serial kernel's inline loop with a *float* fence compare in
        place of the merge's ordering-key bound: every event with
        ``time < fence`` (and ``<= stop_at``) is provably independent
        of every other domain this round, so no other queue is
        consulted. A cross-marked head (commit rule) closes the window
        with the event left in place; ``_ran_to`` then records how far
        the domain verifiably drained. Returns the dispatch count.
        """
        env = self.env
        queue = domain.queue
        staged = domain.staged
        wheel = domain.wheel
        pool = env._timeout_pool
        pop = heappop
        timeout_type = Timeout
        rearm_type = RearmableTimer
        self._run_domain = domain
        self.current = domain
        self._fence = fence
        dispatched = 0
        try:
            while True:
                entry = None
                if staged:
                    cand = staged[0] if len(staged) == 1 else min(staged)
                    if wheel is not None and wheel._next_start <= cand[0]:
                        self._flush_staged(domain)
                    elif queue and queue[0] < cand:
                        self._flush_staged(domain)
                    elif cand[0] >= self._fence or cand[0] > stop_at:
                        self._flush_staged(domain)
                        break
                    else:
                        if len(staged) == 1:
                            del staged[:]
                        else:
                            staged.remove(cand)
                        event = cand[3]
                        if event._cancelled:
                            if type(event) is timeout_type \
                                    and len(pool) < _POOL_MAX:
                                pool.append(event)
                            elif type(event) is rearm_type:
                                event._has_entry = False
                            continue
                        if type(event) is rearm_type \
                                and event._rearm_seq != cand[2]:
                            self._push_rearmed(domain, cand[0], cand[1],
                                               event)
                            continue
                        entry = cand
                if entry is None:
                    if queue:
                        head_time = queue[0][0]
                        if (wheel is not None
                                and wheel._next_start <= head_time):
                            self._promote_domain(domain, stop_at)
                            head_time = queue[0][0] if queue else _INF
                        if head_time >= self._fence or head_time > stop_at:
                            break
                    else:
                        if wheel is not None \
                                and wheel._next_start <= stop_at:
                            self._promote_domain(domain, stop_at)
                        if not queue or queue[0][0] >= self._fence \
                                or queue[0][0] > stop_at:
                            break
                    cand = queue[0]
                    event = cand[3]
                    if event._cancelled:
                        pop(queue)
                        if type(event) is timeout_type \
                                and len(pool) < _POOL_MAX:
                            pool.append(event)
                        elif type(event) is rearm_type:
                            event._has_entry = False
                        continue
                    if type(event) is rearm_type \
                            and event._rearm_seq != cand[2]:
                        pop(queue)
                        self._push_rearmed(domain, cand[0], cand[1], event)
                        continue
                    if event._cross:
                        # Commit rule: dispatched only as the exact
                        # global minimum (solo step), never in-window.
                        if cand[0] < self._fence:
                            self._fence = cand[0]
                        break
                    pop(queue)
                    entry = cand
                env.now = entry[0]
                dispatched += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failure nobody waited on: surface it.
                    exc = event._value
                    raise type(exc)(*exc.args) from exc
                if type(event) is timeout_type and len(pool) < _POOL_MAX:
                    pool.append(event)
                elif type(event) is rearm_type:
                    event._has_entry = False
        finally:
            env.events_dispatched += dispatched
            self._run_domain = None
            # The verifiable drain limit: the (possibly lowered) fence,
            # capped at the stop point. Everything strictly below is
            # dispatched; later inserts below it are misorders.
            drained_to = self._fence if self._fence <= stop_at else stop_at
            self._fence = _INF
            if drained_to > domain._ran_to:
                domain._ran_to = drained_to
        return dispatched

    def _dispatch_solo(self, stop_at: float) -> bool:
        """One exact-order merge step: dispatch the global minimum.

        The commit rule's serialization point -- cross-marked events
        (and fence-deadlocked ties) dispatch here, with every earlier
        event in every domain already committed.
        """
        sel = self._select(stop_at)
        if sel is None:
            return False
        domain = sel[0]
        entry = heappop(domain.queue)
        event = entry[3]
        self.current = domain
        self.domain_switches += 1
        env = self.env
        env.now = entry[0]
        env.events_dispatched += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise type(exc)(*exc.args) from exc
        env._recycle(event)
        return True

    def _purge_cancelled(self) -> None:
        """Bulk-drop cancelled wheel entries (window-close purge)."""
        env = self.env
        dropped = 0
        for domain in self.domains:
            wheel = domain.wheel
            if wheel is not None and wheel._count:
                dropped += wheel.purge_cancelled(env)
        env.cancelled_purged += dropped
        env._cancel_backlog = 0

    def _run_batched(self, stop_at: float) -> bool:
        """Window-batched rounds until drained; False on sticky degrade.

        Each round: (1) promote due wheel buckets and read every
        domain's cleaned head (exact heap entries, so cross marks are
        visible); (2) derive per-domain fences from the round-start
        heads -- a cross-marked head publishes *no* lookahead credit;
        (3) drain every domain whose head is strictly below its fence;
        (4) if nothing could run,
        take one exact solo merge step for the global minimum. The
        barrier between rounds is the only cross-domain
        synchronization.
        """
        env = self.env
        domains = self.domains
        incoming = self._incoming
        n = len(domains)
        heads = [_INF] * n
        crossed = [False] * n
        fences = [0.0] * n
        max_now = env.now
        self._round_active = True
        try:
            while True:
                if not self.batching:
                    if max_now > env.now:
                        env.now = max_now
                    return False
                any_due = False
                for domain in domains:
                    wheel = domain.wheel
                    if wheel is not None and wheel._count \
                            and wheel._next_start <= stop_at:
                        queue = domain.queue
                        if not queue or wheel._next_start <= queue[0][0]:
                            self._promote_domain(domain, stop_at)
                    key = self._head_bound(domain)
                    heads[domain.index] = key[0]
                    crossed[domain.index] = (len(key) == 4
                                             and key[3]._cross)
                    # `is not _INF_KEY`: an empty domain must never
                    # count as due -- with no `until` the stop point is
                    # +inf and `inf <= inf` would spin forever.
                    if key is not _INF_KEY and key[0] <= stop_at:
                        any_due = True
                if not any_due:
                    if max_now > env.now:
                        env.now = max_now
                    return True
                runnable = None
                for domain in domains:
                    i = domain.index
                    head = heads[i]
                    if head > stop_at or crossed[i]:
                        continue
                    fence = _INF
                    for s, la in incoming[i]:
                        hs = heads[s] if crossed[s] else heads[s] + la
                        if hs < fence:
                            fence = hs
                    if head < fence:
                        fences[i] = fence
                        if runnable is None:
                            runnable = [domain]
                        else:
                            runnable.append(domain)
                if runnable is None:
                    # Every due head is cross-marked or fence-tied:
                    # serialize one event through the exact merge.
                    self.batch_solo += 1
                    self._dispatch_solo(stop_at)
                else:
                    dispatched = 0
                    for domain in runnable:
                        dispatched += self._run_window(
                            domain, fences[domain.index], stop_at)
                    self.domain_switches += len(runnable)
                    self.windows_batched += len(runnable)
                    self.events_batched += dispatched
                    if dispatched == 0:
                        # Heads vanished mid-round (cancelled by an
                        # earlier window): fall back to one solo step
                        # so the round provably progresses.
                        self.batch_solo += 1
                        self._dispatch_solo(stop_at)
                if env.now > max_now:
                    max_now = env.now
                if env._cancel_backlog >= _PURGE_BACKLOG:
                    self._purge_cancelled()
        finally:
            self._round_active = False

    def run(self, until: Any, stop_at: float) -> Any:
        """`Environment.run` under partitioning.

        Batched rounds while batching holds; the exact merge for
        telemetry and ``run(until=<event>)``; otherwise (batching off,
        before or during the run) the handoff to the serial kernel.
        """
        env = self.env
        obs = self.observatory
        exact = (obs is not None or env.telemetry is not None
                 or isinstance(until, Event))
        self._running = True
        self._bound = _INF_KEY
        try:
            if not exact:
                # Window-batched dispatch; False on a sticky degrade,
                # and the handoff below finishes the run.
                if self.batching and self._run_batched(stop_at):
                    return env._finish_run(until, stop_at)
            else:
                while True:
                    sel = self._select(stop_at)
                    if sel is None:
                        break
                    domain, second, second_owner = sel
                    self._bound = second
                    self._bound_owner = second_owner
                    self.domain_switches += 1
                    self._stall_at = _INF
                    window_from = env.now
                    dispatched_before = env.events_dispatched
                    self._run_inner(domain, stop_at)
                    if obs is None:
                        continue
                    obs.record_window(
                        domain.name, env.now - window_from,
                        env.events_dispatched - dispatched_before)
                    owner = self._bound_owner
                    if self._stall_at < _INF and owner is not None:
                        obs.record_stall(
                            owner.name, domain.name, self._stall_at,
                            self._bound[0],
                            self.plan.window(owner.name, domain.name))
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            self._running = False
            self._run_domain = None
            self._bound = _INF_KEY
            self._bound_owner = None
            # Exception paths may leave staged entries behind; they must
            # land in their heaps so a resumed run dispatches them.
            for domain in self.domains:
                if domain.staged:
                    self._flush_staged(domain)
        if exact:
            return env._finish_run(until, stop_at)
        return self._hand_off(until)

    def _hand_off(self, until: Any) -> Any:
        """Finish the run on the serial kernel (batching is off).

        Every other domain's heap and wheel entries move into the
        first domain's -- which *are* the environment's own heap and
        wheel -- under their original ``(time, priority, seq)`` keys
        (``run`` already flushed the staged lists). With the hot-path
        slot cleared, ``env.run`` takes the serial loop, which
        dispatches in the exact merge's global order.
        """
        env = self.env
        queue = env._queue
        wheel = env._wheel
        for domain in self.domains[1:]:
            queue.extend(domain.queue)
            domain.queue = []
            parked = domain.wheel
            if parked is not None and parked._count:
                for buckets, coarse in ((parked._fine, False),
                                        (parked._coarse, True)):
                    for bucket in buckets.values():
                        for entry in bucket:
                            wheel.insert(*entry, coarse)
                domain.wheel = TimerWheel()
        heapify(queue)
        env._partition = None
        return env.run(until)


__all__ = ["PartitionPlan", "PartitionEngine", "PartitionObservatory",
           "Domain", "LookaheadViolation", "HOST", "INTERCONNECT", "NIC"]
