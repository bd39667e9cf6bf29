"""Waitable event primitives for the simulation kernel."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

#: Sentinel marking an event that has not yet been given a value.
PENDING = object()

#: Scheduling priorities. URGENT events (interrupts) are processed before
#: NORMAL events that share a timestamp.
URGENT = 0
NORMAL = 1


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``succeed``/``fail`` is called on a triggered event."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event moves through three states: *pending* (just created),
    *triggered* (given a value via :meth:`succeed` or :meth:`fail` and
    scheduled for processing), and *processed* (its callbacks have run).

    A fourth, terminal state is *cancelled* (:meth:`cancel`): the event
    will never fire and its queue entry, if any, is discarded lazily the
    next time the scheduler reaches it -- O(1) now instead of an O(n)
    heap rebuild. Only an event nobody is waiting on may be cancelled;
    the kernel uses this to skip :class:`AnyOf` losers and the orphaned
    wait timers of interrupted processes.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled", "_cross")

    def __init__(self, env: "Environment"):  # noqa: F821
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False
        #: True for events that carry state across timing domains
        #: (cross-domain sends, shared-resource grants). The batched
        #: partition engine must not drain such an event inside a
        #: private window -- it closes the window and dispatches the
        #: event at the global minimum instead (the commit rule).
        self._cross = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been invoked."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True once the event has been withdrawn via :meth:`cancel`."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    def cancel(self) -> bool:
        """Withdraw the event so the scheduler skips it at pop time.

        Only legal while nobody is subscribed: a waiter would otherwise
        hang forever. Returns False (a no-op) if the event has already
        been processed or cancelled.
        """
        if self.callbacks is None:
            return False
        if self.callbacks:
            raise RuntimeError(
                f"cannot cancel {self!r}: it has waiting callbacks")
        self._cancelled = True
        self.callbacks = None
        # The queue entry (heap or wheel) dies lazily; the backlog
        # counter lets the partition engine decide when a bulk purge of
        # dead wheel timers is worth a scan (satellite: window-close
        # purge instead of waiting for bucket promotion).
        self.env._cancel_backlog += 1
        return True

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._cancelled:
            raise EventAlreadyTriggered(f"{self!r} was cancelled")
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every waiting process. If nothing is
        waiting and the failure is never defused, the environment raises it
        to avoid silently dropping errors.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._cancelled:
            raise EventAlreadyTriggered(f"{self!r} was cancelled")
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it won't crash the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else (
            "processed" if self.processed else (
                "triggered" if self.triggered else "pending"))
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)

    def _reset(self, delay: float, value: Any) -> None:
        """Re-arm a recycled instance (the environment's freelist).

        The caller schedules it; only the event-state fields are
        stomped here.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.delay = delay
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._cross = False

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class RearmableTimer(Timeout):
    """A poll timeout that can be re-armed in place after it is cancelled.

    The scheduler keys its queue entry lazily: ``_entry_at`` is where the
    entry currently sits (heap or timer wheel), ``_fire_at`` is where the
    timer should actually fire, and ``_rearm_seq`` is the sequence number
    the timer must dispatch under. A re-arm whose deadline is at or after
    the stale entry touches neither queue -- the entry surfaces at its
    old ``(time, priority, seq)`` key, the scheduler notices the seq no
    longer matches ``_rearm_seq``, and re-keys it to the real deadline
    (see ``Environment._push_rearmed``). The seq comparison, not a
    deadline comparison, is the staleness test: a re-arm to the *same*
    deadline still allocates a fresh seq, and dispatching under the old
    one would flip same-timestamp tie-break order relative to a freshly
    created timeout. Deliberately excluded from the ``Timeout`` freelist
    (the pool check is an exact type check): a pooled instance could be
    re-armed by a stale :class:`PollTimer` after the kernel handed it to
    unrelated code.
    """

    __slots__ = ("_fire_at", "_entry_at", "_has_entry", "_rearm_seq")

    def __init__(self, env: "Environment", delay: float,  # noqa: F821
                 value: Any = None):
        super().__init__(env, delay, value)
        self._fire_at = env.now + delay
        self._entry_at = self._fire_at
        #: True while a queue entry (possibly stale) references this
        #: timer; reuse without a queue operation is only legal then.
        self._has_entry = True
        #: The seq the timer must dispatch under -- the one allocated by
        #: the most recent schedule or in-place re-arm. An entry
        #: surfacing with any other seq is stale and gets re-keyed.
        #: ``Timeout.__init__`` -> ``_schedule`` allocated exactly one
        #: seq, so ``env._seq`` is this entry's key.
        self._rearm_seq = env._seq

    def _rekeyed(self, priority: int) -> tuple:
        """The entry a stale entry of this timer is re-keyed to.

        ``(fire_at, priority, rearm_seq, timer)``: the real deadline,
        under the seq allocated at re-arm time. The one re-key rule of
        every site a stale entry can surface at (heap pop, staged fast
        path, wheel promotion); each site then files the entry where it
        belongs, which is recorded as :attr:`_entry_at` here.
        """
        fire_at = self._entry_at = self._fire_at
        return (fire_at, priority, self._rearm_seq, self)

    def __repr__(self) -> str:
        return (f"<RearmableTimer delay={self.delay} "
                f"fire_at={self._fire_at}>")


class PollTimer:
    """Poll-coalescing manager for ``any_of([wakeup, timeout])`` races.

    Agent-style loops race a poll timeout against a wakeup event; when
    the wakeup wins, the loser timer is cancelled and the next iteration
    allocates and schedules a fresh one. Under load that is one
    allocation plus two queue operations per message batch for a timer
    that almost never fires. :meth:`arm` instead reuses one
    :class:`RearmableTimer`:

    - if the previous timer was cancelled and its (stale) queue entry
      sits at or before the new deadline, the object is re-armed in
      place with **zero queue operations at arm time** -- the stale
      entry surfaces at its old key and is lazily re-keyed under the
      deadline *and sequence number* allocated by the re-arm (an
      equal-deadline re-arm still re-keys: the fresh seq is what keeps
      same-timestamp tie-breaks identical to a fresh timeout);
    - if the previous timer already fired (or its entry was consumed),
      the object is re-scheduled, skipping only the allocation;
    - if the new deadline is *earlier* than the stale entry, the old
      timer is abandoned (its entry dies lazily, exactly like any
      cancelled timer) and a fresh one is created.

    Timing is identical to ``env.timeout(delay)`` in every case; only
    the queue mechanics differ.
    """

    __slots__ = ("env", "_timer", "armed", "coalesced")

    def __init__(self, env: "Environment"):  # noqa: F821
        self.env = env
        self._timer: Optional[RearmableTimer] = None
        self.armed = 0
        self.coalesced = 0

    def arm(self, delay: float, value: Any = None) -> RearmableTimer:
        """A timer event firing ``delay`` ns from now (maybe reused)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        env = self.env
        timer = self._timer
        self.armed += 1
        if timer is not None:
            if timer.callbacks is not None and not timer._cancelled:
                raise RuntimeError(
                    f"PollTimer re-armed while {timer!r} is still pending")
            target = env.now + delay
            if (timer._cancelled and timer._has_entry
                    and timer._entry_at <= target):
                # Reuse in place: no queue operation at all. A seq is
                # still allocated *now* -- the stale entry is re-keyed
                # under it when it surfaces, preserving the exact
                # tie-break order of a freshly created timeout.
                env._seq += 1
                timer._rearm_seq = env._seq
                timer.delay = delay
                timer.callbacks = []
                timer._value = value
                timer._ok = True
                timer._defused = False
                timer._cancelled = False
                timer._fire_at = target
                self.coalesced += 1
                env.timers_coalesced += 1
                return timer
            if not timer._has_entry:
                # Fired (or entry already consumed): fresh schedule,
                # reused object.
                timer.delay = delay
                timer.callbacks = []
                timer._value = value
                timer._ok = True
                timer._defused = False
                timer._cancelled = False
                env._schedule(timer, NORMAL, delay)
                timer._rearm_seq = env._seq
                timer._fire_at = target
                timer._entry_at = target
                timer._has_entry = True
                return timer
            # The stale entry lies beyond the new target; fall through
            # and abandon it (lazy deletion reaps the entry).
        timer = RearmableTimer(env, delay, value)
        self._timer = timer
        return timer


class Condition(Event):
    """Waits for a combination of events, judged by ``evaluate``.

    The condition's value is a dict mapping each *occurred* child event
    to its value, in the order the children were processed. Values are
    collected incrementally as children fire (O(1) per child) rather
    than by rescanning the child list on every check.

    When the condition triggers it unsubscribes from the children still
    pending, and any loser that turns out to be a :class:`Timeout`
    nobody else waits on is cancelled -- so the scheduler discards its
    queue entry at pop time instead of fully processing a dead timer
    (the timeout racing every RPC/ghOSt wait).
    """

    __slots__ = ("_events", "_evaluate", "_count", "_values")

    def __init__(self, env, evaluate, events):  # noqa: F821
        super().__init__(env)
        self._events = tuple(events)
        self._evaluate = evaluate
        self._count = 0
        self._values: dict = {}
        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
            if event._cancelled:
                raise RuntimeError(f"cannot wait on cancelled {event!r}")
        # Check already-processed children first, then subscribe.
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and self._value is PENDING:
            self.succeed({})

    def _detach(self, winner: Event) -> None:
        # Unsubscribe from still-pending children; cancel loser timers
        # nobody else waits on (lazy heap deletion skips them at pop).
        check = self._check
        for child in self._events:
            if child is winner:
                continue
            callbacks = child.callbacks
            if callbacks is None:
                continue
            try:
                callbacks.remove(check)
            except ValueError:
                pass
            # isinstance, not an exact type check: RearmableTimer losers
            # must be cancelled too, or PollTimer could never reuse them.
            if not callbacks and isinstance(child, Timeout):
                child.cancel()

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self._detach(event)
            self.fail(event._value)
        else:
            self._values[event] = event._value
            if self._evaluate(self._events, self._count):
                self._detach(event)
                self.succeed(self._values)


def _eval_any(events, count) -> bool:
    return count > 0 or not events


def _eval_all(events, count) -> bool:
    return count == len(events)


class AnyOf(Condition):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def __init__(self, env, events):  # noqa: F821
        super().__init__(env, _eval_any, events)


class AllOf(Condition):
    """Triggers once every child event has triggered."""

    __slots__ = ()

    def __init__(self, env, events):  # noqa: F821
        super().__init__(env, _eval_all, events)
