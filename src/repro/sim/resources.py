"""Inter-process communication and mutual exclusion primitives.

Partitioned-engine note: a :class:`Store`/:class:`Resource` is plain
shared Python state. Its *results* are computed at call time (``get``
pops the item the moment it is called), so a store touched from two
timing domains is ordering-sensitive in a way the window-batched
engine cannot preserve event-by-event. Each primitive therefore tracks
the domain that first touched it; the first touch from a *different*
domain sticky-degrades the run -- batching turns off (the
shared-resource-wait arm of the commit rule -- see
``repro.sim.partition``). Single-domain stores, the common
producer/consumer case, batch freely.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.events import Event


class _SharedGuard:
    """Owner-domain tracking shared by Store and Resource."""

    def __init__(self, env):
        self.env = env
        self._domain = None

    def _guard(self) -> None:
        part = self.env._partition
        if part is None or not part.batching:
            return
        owner = part.current
        if self._domain is None:
            self._domain = owner
        elif owner is not self._domain:
            part._shared_state_touch()


class Store(_SharedGuard):
    """An unbounded (or bounded) FIFO channel between processes.

    ``put`` returns an event that succeeds once the item is stored;
    ``get`` returns an event that succeeds with the next item, blocking
    the caller until one is available.
    """

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(env)
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item) pairs

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Store ``item``; blocks (pending event) if at capacity."""
        self._guard()
        event = Event(self.env)
        if len(self.items) < self.capacity:
            self._deposit(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Retrieve the oldest item, waiting if the store is empty."""
        self._guard()
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _deposit(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue  # cancelled / interrupted waiter
            getter.succeed(item)
            return
        self.items.append(item)

    def _admit_putter(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            if putter.triggered:
                continue
            self._deposit(item)
            putter.succeed()


class Resource(_SharedGuard):
    """A counted resource (semaphore) with FIFO granting."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(env)
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        """Request one unit; the event succeeds when granted."""
        self._guard()
        event = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        self._guard()
        if self.in_use <= 0:
            raise RuntimeError("release() without matching acquire()")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue
            waiter.succeed()
            return
        self.in_use -= 1
