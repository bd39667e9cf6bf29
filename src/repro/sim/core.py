"""The simulation environment: clock plus event queue."""

from __future__ import annotations

import heapq
import os
from typing import Any, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import (AllOf, AnyOf, Event, NORMAL, PENDING,
                              RearmableTimer, Timeout)
from repro.sim.process import Process
from repro.sim.wheel import MIN_COARSE_DELAY, MIN_WHEEL_DELAY, TimerWheel


#: Globally installed :class:`repro.obs.spans.Telemetry`, or None. When
#: set, every new :class:`Environment` is attached to it at construction
#: -- how the CLI traces experiments that build their own environments.
_default_telemetry = None

#: Upper bound on the per-environment :class:`Timeout` freelist. Most
#: runs oscillate around a working set of a few dozen in-flight timers
#: (one sleep per core/agent/loadgen process), so a small cap captures
#: nearly all reuse while bounding worst-case retention.
_POOL_MAX = 256

#: Environment variable disabling the partitioned kernel: with it set,
#: :meth:`Environment.enable_partition` is a no-op and every run takes
#: the serial single-queue path. The window-batched engine it turns off
#: can change results, so this is the one kernel hatch that is not
#: result-neutral.
_NO_PARTITION_ENV = "REPRO_NO_PARTITION"

_INF = float("inf")


def set_default_telemetry(telemetry):
    """Install (or clear, with None) the process-wide telemetry hub.

    Returns the previous hub so callers can restore it.
    """
    global _default_telemetry
    previous = _default_telemetry
    _default_telemetry = telemetry
    return previous


def default_telemetry():
    """The currently installed telemetry hub, or None."""
    return _default_telemetry


#: Callbacks that rewind a module's per-run id counter (task ids,
#: request ids, queue ids, message sequence numbers, ...), invoked at
#: every :class:`Environment` construction. Makes ids a pure function
#: of the run rather than of process history, which is what lets a
#: sweep's telemetry (span args carry task/request ids) stay
#: byte-identical whether a point runs serially in the parent or inside
#: a forked pool worker.
_run_id_resets: List[Any] = []


def register_run_id_reset(reset_fn) -> None:
    """Register a zero-arg callback that rewinds a per-run id counter.

    Modules owning a process-global ``itertools.count`` register at
    import time; :class:`Environment` calls every callback before the
    run starts. Ids must never influence simulated behaviour -- only
    labelling -- which the cross-``--jobs`` byte-identity tests enforce.
    """
    _run_id_resets.append(reset_fn)


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""


class Environment:
    """Drives simulated time forward by processing scheduled events.

    Time is a number of *nanoseconds* by convention throughout the
    project; the kernel itself only requires it to be an ordered numeric.

    Fast-path invariants (see ``docs/performance.md``):

    - :attr:`now` is a plain attribute, read without a call. Only the
      dispatch loops assign it (:meth:`run` and the partitioned
      engine's); model code treats it as read-only.
    - :meth:`run` inlines the serial kernel's only dispatch loop.
      Profiled runs take it too (:mod:`repro.obs.profile` runs
      :mod:`cProfile` around it).
    - Cancelled events (:meth:`Event.cancel`) stay in their queue and
      are discarded lazily, without advancing the clock.
    - Processed :class:`Timeout` objects are recycled through a
      freelist: :meth:`timeout` may return a reused instance, so a
      Timeout must not be retained (or re-waited) after it has fired.
    - Far-future timers (delay >= ``MIN_WHEEL_DELAY``) are filed in a
      hierarchical :class:`~repro.sim.wheel.TimerWheel` instead of the
      heap; buckets are promoted into the heap strictly before any of
      their entries could be due (:meth:`TimerWheel.promote_due
      <repro.sim.wheel.TimerWheel.promote_due>`, shared with the
      partitioned engine), preserving exact
      ``(time, priority, seq)`` dispatch order. ``use_wheel=False``
      builds the pure-heap kernel: the reference engine the
      conformance suite (``tests/conformance/``) diffs every other
      engine against. The partitioned engine refuses to install on it.
    - Events scheduled *during* dispatch are staged; when the earliest
      staged entry provably precedes everything in the heap and wheel,
      it is dispatched inline without a heap round trip (same-timestamp
      cascades: ``succeed`` -> condition -> process resume). Otherwise
      the loop admits every staged entry to the heap in place, in one
      branch, without a helper call.

    Counters: :attr:`events_scheduled` counts heap admissions (the
    costly queue operations), :attr:`events_dispatched` counts callback
    dispatches (workload-determined -- identical for the same model code
    whatever the queueing strategy), :attr:`timers_coalesced` counts
    :class:`~repro.sim.events.PollTimer` in-place re-arms.

    Engine contract: the queueing machinery behind this class is
    *pluggable*. :meth:`enable_partition` swaps in the partitioned
    engine from :mod:`repro.sim.partition` (per-domain heap + wheel,
    conservative lookahead windows). Its exact-order merge, like the
    heap-only reference kernel, preserves the observable kernel
    semantics -- exact ``(time, priority, seq)`` dispatch order, the
    :attr:`_seq` stream, and :attr:`events_dispatched` -- which the
    cross-engine conformance suite (``tests/conformance/``) pins; its
    window-batched mode may reorder same-time cross-domain events and
    so can change results (``docs/performance.md`` section 7).
    Per-engine *admission* counters (:attr:`events_scheduled`,
    :attr:`timers_coalesced`, wheel diagnostics) may legitimately
    differ between engines.
    """

    __slots__ = ("now", "_queue", "_seq", "_active_process", "faults",
                 "telemetry", "_timeline", "_timeout_pool",
                 "_wheel", "_staged", "_partition", "_engine",
                 "events_scheduled", "events_dispatched", "timers_coalesced",
                 "cancelled_purged", "_cancel_backlog")

    def __init__(self, initial_time: float = 0, use_wheel: bool = True):
        #: Current simulated time (ns); only the dispatch loops assign it.
        self.now = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._timeout_pool: List[Timeout] = []
        self._wheel: Optional[TimerWheel] = TimerWheel() if use_wheel \
            else None
        #: Events scheduled while a dispatch is in flight; flushed to the
        #: heap (or dispatched inline) between callbacks. None outside
        #: the dispatch loop.
        self._staged: Optional[List[Tuple[float, int, int, Event]]] = None
        #: Installed :class:`repro.sim.partition.PartitionEngine` while it
        #: dispatches, or None for the serial single-queue kernel (the
        #: default) -- including after the engine handed a run over to
        #: it. :attr:`partition` keeps returning the engine (``_engine``).
        self._partition = None
        self._engine = None
        self.events_scheduled = 0
        self.events_dispatched = 0
        self.timers_coalesced = 0
        #: Cancelled wheel entries bulk-dropped by the partition
        #: engine's window-close purge (serial kernel: stays 0 -- it
        #: only ever drops dead entries at bucket promotion).
        self.cancelled_purged = 0
        #: Cancels since the last purge accounting; cheap running
        #: counter incremented by :meth:`Event.cancel` so the purge can
        #: trigger on backlog size without scanning anything.
        self._cancel_backlog = 0
        #: Optional :class:`repro.sim.faults.FaultInjector`. Instrumented
        #: subsystems read this slot directly at their protocol edges;
        #: ``None`` (the default) means every fault hook is a no-op.
        self.faults = None
        #: Optional :class:`repro.obs.spans.RunTelemetry`. Instrumented
        #: subsystems read this slot directly and emit spans/metrics
        #: through it at their protocol edges; ``None`` (the default)
        #: disables telemetry at the cost of a single attribute load
        #: per edge.
        self.telemetry = None
        #: Optional :class:`repro.obs.timeline.RunTimeline` sampler, set
        #: by :meth:`repro.obs.spans.Telemetry.attach` when the hub
        #: carries a timeline config. The dispatch loops compare the
        #: next event time against its ``_next_ns`` boundary *before*
        #: advancing the clock, so samples reflect exactly the events
        #: strictly before each boundary (engine- and jobs-independent).
        #: ``None`` costs one comparison per dispatched event.
        self._timeline = None
        for reset in _run_id_resets:
            reset()
        if _default_telemetry is not None:
            _default_telemetry.attach(self)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event; trigger it with succeed()/fail()."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ns from now.

        Served from a freelist of processed timers when possible --
        ``env.timeout()`` dominates allocation in every experiment, so
        the returned object is owned by the kernel once it has fired.
        """
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timer = pool.pop()
        # Inline of Timeout._reset and of _schedule below: this is the
        # hottest allocation site in every experiment, so skip both
        # method calls.
        timer.delay = delay
        timer.callbacks = []
        timer._value = value
        timer._ok = True
        timer._defused = False
        timer._cancelled = False
        timer._cross = False
        self._seq += 1
        part = self._partition
        if part is not None:
            domain = part.current
            if part._running and domain is part._run_domain:
                # Inline of PartitionEngine._insert's running-domain
                # cases (wheel file or staged append, no bound/fence
                # updates apply): dodges two call hops, which is most
                # of the partitioned kernel's per-event overhead vs the
                # serial path.
                if delay >= MIN_WHEEL_DELAY:
                    domain.wheel.insert(self.now + delay, NORMAL, self._seq,
                                        timer, delay >= MIN_COARSE_DELAY)
                else:
                    domain.staged.append(
                        (self.now + delay, NORMAL, self._seq, timer))
            else:
                part._insert(domain, self.now + delay, NORMAL, self._seq,
                             timer, delay)
            return timer
        wheel = self._wheel
        if wheel is not None and delay >= MIN_WHEEL_DELAY:
            wheel.insert(self.now + delay, NORMAL, self._seq, timer,
                         delay >= MIN_COARSE_DELAY)
        else:
            entry = (self.now + delay, NORMAL, self._seq, timer)
            staged = self._staged
            if staged is not None:
                staged.append(entry)
            else:
                self.events_scheduled += 1
                heapq.heappush(self._queue, entry)
        return timer

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition satisfied when any of ``events`` triggers."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition satisfied when all of ``events`` have triggered."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float = 0) -> None:
        part = self._partition
        if part is not None:
            self._seq += 1
            domain = part.current
            if part._running and domain is part._run_domain:
                # Same running-domain inline as timeout() above.
                if delay >= MIN_WHEEL_DELAY:
                    domain.wheel.insert(self.now + delay, priority,
                                        self._seq, event,
                                        delay >= MIN_COARSE_DELAY)
                else:
                    domain.staged.append(
                        (self.now + delay, priority, self._seq, event))
                return
            part._insert(domain, self.now + delay, priority, self._seq,
                         event, delay)
            return
        self._seq += 1
        wheel = self._wheel
        if wheel is not None and delay >= MIN_WHEEL_DELAY:
            wheel.insert(self.now + delay, priority, self._seq, event,
                         delay >= MIN_COARSE_DELAY)
            return
        entry = (self.now + delay, priority, self._seq, event)
        staged = self._staged
        if staged is not None:
            staged.append(entry)
        else:
            self.events_scheduled += 1
            heapq.heappush(self._queue, entry)

    def _recycle(self, event: Event) -> None:
        """Return a finished Timeout to the freelist (bounded)."""
        if type(event) is Timeout and len(self._timeout_pool) < _POOL_MAX:
            self._timeout_pool.append(event)
        elif type(event) is RearmableTimer:
            event._has_entry = False

    def _push_rearmed(self, queue: List[Tuple[float, int, int, Event]],
                      wheel: Optional[TimerWheel], event: RearmableTimer,
                      surfaced_at: float, priority: int) -> None:
        """Re-key a re-armed poll timer whose stale entry just surfaced.

        The entry goes back to the heap ``queue`` or the ``wheel`` it
        surfaced from (the serial kernel's own, or one partition
        domain's: domain placement never affects dispatch order). It
        takes the sequence number allocated when the timer was re-armed
        (``_rearm_seq``), not a fresh one: a timer re-armed at time t
        must tie-break against other same-deadline events exactly like
        a timeout *created* at t, or re-arming could flip
        same-timestamp dispatch order relative to the plain-heap kernel.
        The entry itself comes from :meth:`RearmableTimer._rekeyed`,
        shared with the wheel's promotion.
        """
        entry = event._rekeyed(priority)
        ahead = entry[0] - surfaced_at
        if wheel is not None and ahead >= MIN_WHEEL_DELAY:
            wheel.insert(*entry, ahead >= MIN_COARSE_DELAY)
        else:
            self.events_scheduled += 1
            heapq.heappush(queue, entry)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run until
        that simulated time), or an :class:`Event` (run until it triggers,
        returning its value -- or re-raising its stored exception if it
        already failed).
        """
        resolved = self._resolve_until(until)
        if resolved is None:
            # `until` is an already-succeeded event: nothing to run.
            return until._value
        stop_at = resolved

        part = self._partition
        if part is not None:
            return part.run(until, stop_at)

        # Inline dispatch loop: the whole-program hot path. Everything
        # touched per event is a local; cancelled entries are discarded
        # without advancing the clock; fired Timeouts go back to the
        # freelist; due wheel buckets are promoted before any heap pop
        # they could affect; the earliest staged entry is dispatched
        # inline when it provably precedes both queues. Dispatch order
        # is exactly the heap order (time, priority, seq).
        queue = self._queue
        pool = self._timeout_pool
        pop = heapq.heappop
        push = heapq.heappush
        timeout_type = Timeout
        rearm_type = RearmableTimer
        wheel = self._wheel
        # wheel._next_start is a cache of the earliest wheel bucket's
        # start (+inf when empty), maintained by insert/promote: the
        # per-event wheel check must be one attribute load, not a call.
        staged = self._staged
        own_staged = staged is None
        if own_staged:
            staged = self._staged = []
        timeline = self._timeline
        tl_next = timeline._next_ns if timeline is not None else _INF
        dispatched = 0
        try:
            while True:
                entry = None
                if staged:
                    cand = staged[0] if len(staged) == 1 else min(staged)
                    if (cand[0] > stop_at
                            or (queue and queue[0] < cand)
                            or (wheel is not None
                                and wheel._next_start <= cand[0])):
                        # Past stop_at, the heap head wins the tie, or a
                        # wheel bucket is due first: admit every staged
                        # entry to the heap (counted admissions) and let
                        # the heap path below pick -- or stop.
                        for admitted in staged:
                            push(queue, admitted)
                        self.events_scheduled += len(staged)
                        del staged[:]
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
                            # Stale entry of a re-armed poll timer can
                            # reach the staged fast path too (armed and
                            # re-armed within one dispatch): re-key it,
                            # exactly like the heap-pop path below.
                            self._push_rearmed(queue, wheel, event,
                                               cand[0], cand[1])
                            continue
                        entry = cand
                if entry is None:
                    if queue:
                        head_time = queue[0][0]
                        if (wheel is not None
                                and wheel._next_start <= head_time):
                            wheel.promote_due(self, queue, stop_at)
                            head_time = queue[0][0] if queue else _INF
                        if head_time > stop_at:
                            break
                    else:
                        if wheel is not None and wheel._next_start <= stop_at:
                            wheel.promote_due(self, queue, stop_at)
                        if not queue or queue[0][0] > stop_at:
                            break
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
                        # Stale entry of a re-armed poll timer: re-key it
                        # at the real deadline (and the seq allocated at
                        # re-arm time) without advancing the clock.
                        self._push_rearmed(queue, wheel, event, cand[0],
                                           cand[1])
                        continue
                    entry = cand
                if tl_next <= entry[0]:
                    timeline._cross(entry[0])
                    tl_next = timeline._next_ns
                self.now = entry[0]
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
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            self.events_dispatched += dispatched
            # Exception paths (StopSimulation, model errors) may leave
            # staged entries behind; they must land in the heap so a
            # resumed run dispatches them.
            if staged:
                for entry in staged:
                    push(queue, entry)
                self.events_scheduled += len(staged)
                del staged[:]
            if own_staged:
                self._staged = None
        return self._finish_run(until, stop_at)

    def _resolve_until(self, until: Any) -> Optional[float]:
        """Turn ``run``'s ``until`` into a stop time (shared by engines).

        Returns the stop time, arming the stop callback when ``until``
        is a pending event -- or None when ``until`` is an event that
        already succeeded (the run is a no-op returning its value).
        """
        if until is None:
            return _INF
        if isinstance(until, Event):
            if until.callbacks is None:
                if until._cancelled or until._value is PENDING:
                    raise RuntimeError(
                        f"cannot run until cancelled {until!r}")
                if until._ok:
                    return None
                # Already processed *and failed*: surface the stored
                # exception, matching _stop_callback semantics, instead
                # of silently swallowing it.
                exc = until._value
                raise type(exc)(*exc.args) from exc
            until.callbacks.append(self._stop_callback)
            return _INF
        stop_at = float(until)
        if stop_at < self.now:
            raise ValueError(
                f"until ({stop_at}) must not be before now ({self.now})")
        return stop_at

    def _finish_run(self, until: Any, stop_at: float) -> Any:
        if not isinstance(until, Event):
            # Advance the clock to the requested stop time even if the
            # queue drained early, so repeated run(until=...) is monotonic.
            if stop_at != _INF:
                timeline = self._timeline
                if timeline is not None:
                    # Trailing sample boundaries up to the horizon: no
                    # event crossed them, but the grid must cover the
                    # whole run (last sample lands at the horizon).
                    timeline._finish(stop_at)
                self.now = max(self.now, stop_at)
            return None
        if until.triggered:
            return until.value
        raise RuntimeError("simulation ended before the awaited event fired")

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event.ok:
            raise StopSimulation(event.value)
        raise type(event.value)(*event.value.args) from event.value

    # -- partitioned engine (repro.sim.partition) --------------------------

    @property
    def fresh(self) -> bool:
        """True while no event is queued (heap, staged list or wheel):
        the state :meth:`enable_partition` requires."""
        wheel = self._wheel
        return not (self._queue or self._staged
                    or (wheel is not None and wheel._count))

    @property
    def partition(self):
        """The installed partition engine, or None (serial kernel).

        Still the engine after it handed its run to the serial kernel,
        so callers can read the counters of the part it dispatched.
        """
        return self._engine

    def enable_partition(self, plan, use_partition: Optional[bool] = None):
        """Install the partitioned parallel-DES engine for this env.

        ``plan`` is a :class:`repro.sim.partition.PartitionPlan` naming
        the domains and the per-pair lookahead windows (minimum
        cross-domain latencies, ns). Returns the installed engine, or
        None when the kernel falls back to the serial path because:

        - ``use_partition`` is False (explicit opt-out), or
        - ``REPRO_NO_PARTITION`` is set in the environment, or
        - the environment has no timer wheel (``use_wheel=False``: the
          heap-only reference kernel; every domain files its far
          timers in a wheel), or
        - the plan is missing / has fewer than two domains, or
        - any lookahead window is zero or negative -- a conservative
          engine with no lookahead cannot outrun the serial kernel, so
          it refuses to install rather than run degenerate.

        Must be called before any event is scheduled (fresh env only);
        already-scheduled entries would be stranded in the serial queue.
        """
        from repro.sim.partition import PartitionEngine

        if use_partition is None:
            use_partition = not os.environ.get(_NO_PARTITION_ENV)
        if (not use_partition or self._wheel is None or plan is None
                or not plan.usable()):
            return None
        if self._engine is not None:
            raise RuntimeError("partition engine already installed")
        if not self.fresh:
            raise RuntimeError(
                "enable_partition() requires a fresh environment "
                "(events already scheduled)")
        self._partition = self._engine = PartitionEngine(self, plan)
        return self._engine

    def domain(self, name: str):
        """Context manager routing schedules to domain ``name``.

        Serial kernel: a no-op context (so model code can tag domains
        unconditionally). Partitioned: events scheduled -- and processes
        created -- inside the block belong to ``name``.
        """
        part = self._partition
        if part is None:
            return _NULL_DOMAIN
        return part.domain_context(name)

    def cross_timeout(self, dst: str, delay: float,
                      value: Any = None) -> Timeout:
        """A timer that fires in domain ``dst``, ``delay`` ns from now.

        The lookahead-checked cross-domain channel: under the
        partitioned engine a send from domain *s* to a different domain
        *d* must respect the declared minimum latency
        (``delay >= lookahead[s -> d]``) or
        :class:`repro.sim.partition.LookaheadViolation` is raised --
        the machine-checked form of the forward-in-time causality the
        conservative kernel depends on. Serial kernel: identical to
        :meth:`timeout`.
        """
        part = self._partition
        if part is None:
            return self.timeout(delay, value)
        return part.cross_timeout(dst, delay, value)


class _NullDomainContext:
    """``env.domain(...)`` under the serial kernel: does nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_DOMAIN = _NullDomainContext()
