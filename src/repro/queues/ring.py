"""The Floem-style single-producer single-consumer ring.

Per paper section 5.3: fixed-size entries; the producer writes an
entry's payload first and sets a per-entry valid flag *last*, so the
consumer never reads a half-written entry. Messages can be batched; the
queue is backed by SmartNIC DRAM for MMIO queues (the host accesses it
over PCIe, agents access it locally and coherently).

Cost convention: every operation returns the CPU nanoseconds the calling
actor must charge itself (by yielding ``env.timeout(cost)``); entry
*visibility* to the other side additionally includes the path's one-way
visibility delay, which the ring tracks internally.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.hw.paths import MemPath
from repro.obs.spans import MetricHandles, SpanCtx
from repro.sim import Environment, Event, Relay


#: The ring's metric handles (:class:`MetricHandles`), labelled with
#: the ring's name.
_RING_METRICS = {
    "push": ("counter", "ring_ops", {"op": "push"}),
    "poll": ("counter", "ring_ops", {"op": "poll"}),
    "pop": ("counter", "ring_ops", {"op": "pop"}),
    "depth": ("timeweighted", "ring_depth", {}),
}


def relink_batch(tel, span, items) -> None:
    """Re-point each item's request context through a batch span.

    A ring/queue hop serves many requests at once: the batch span links
    back to every item's prior span (fan-in), and each item's context is
    advanced to the batch span while keeping its own request id, so the
    per-request chains stay separable on the far side (fan-out).
    """
    if span is None:
        return
    sid = span.span_id
    for item in items:
        ctx = getattr(item, "ctx", None)
        if ctx is not None:
            item.ctx = SpanCtx(ctx.req, sid)


def wake_waiters(waiters: List[Event]) -> None:
    """Succeed each waiter not already triggered (a queue waker's step)."""
    for waiter in waiters:
        if not waiter.triggered:
            waiter.succeed()


def batch_links(items):
    """The span ids feeding a batch hop (for the span's ``links``)."""
    links = []
    for item in items:
        ctx = getattr(item, "ctx", None)
        if ctx is not None and ctx.span is not None:
            links.append(ctx.span)
    return links or None


class FloemRing:
    """SPSC ring with per-entry valid flags and batching."""

    #: Metric handles of the run last instrumented, built on first use.
    _tel_handles: Optional[MetricHandles] = None

    def __init__(self, env: Environment, name: str,
                 producer_path: MemPath, consumer_path: MemPath,
                 entry_words: int = 6, capacity: int = 1024,
                 coherent: bool = True):
        if entry_words <= 0 or capacity <= 0:
            raise ValueError("entry_words and capacity must be positive")
        self.env = env
        self.name = name
        self.producer_path = producer_path
        self.consumer_path = consumer_path
        self.entry_words = entry_words
        self.capacity = capacity
        #: False when the consumer reads through a non-coherent cache and
        #: must clflush before reading fresh entries (section 5.3.2).
        self.coherent = coherent
        self._entries: Deque[Tuple[Any, float]] = deque()  # (item, visible_at)
        self._waiters: List[Event] = []
        self._next_slot = 0  # byte address allocator for cache modelling
        self.produced = 0
        self.consumed = 0
        self.dropped = 0
        #: Entries lost / duplicated by fault injection (distinct from
        #: ``dropped``, which counts capacity-overflow backpressure).
        self.fault_dropped = 0
        self.fault_duplicated = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    # -- producer ---------------------------------------------------------

    def produce(self, items: List[Any], via: MemPath = None) -> float:
        """Enqueue a batch; returns producer CPU cost.

        Each entry costs ``entry_words`` payload writes plus one valid
        flag write; a single flush makes the whole batch visible (the WC
        batching optimization of section 5.3.1). Items beyond capacity
        are dropped and counted -- system software treats a full queue as
        backpressure.

        ``via`` lets a differently-placed producer use its own path to
        the same backing memory (e.g. a co-located SmartNIC RPC stack
        writing the scheduler's NIC-resident message ring locally).
        """
        producer = via if via is not None else self.producer_path
        faults = self.env.faults
        fault_delay = 0.0
        if faults is not None:
            items, fault_delay, n_dropped, n_duplicated = (
                faults.on_ring_produce(self.name, items))
            self.fault_dropped += n_dropped
            self.fault_duplicated += n_duplicated
        entries = self._entries
        # Items beyond the free room are dropped (the ring stays full
        # for the rest of the batch).
        room = self.capacity - len(entries)
        accepted_items = items if len(items) <= room else items[:room]
        accepted = len(accepted_items)
        self.dropped += len(items) - accepted
        cost = 0.0
        words = self.entry_words + 1
        for _ in accepted_items:
            cost += producer.write_words(self._alloc_slot(), words)
        cost += producer.flush_writes()
        if faults is not None:
            cost *= faults.path_cost_factor(producer)
        visible_at = (self.env.now + cost
                      + producer.visibility_delay() + fault_delay)
        if accepted:
            for item in accepted_items:
                entries.append((item, visible_at))
            self.produced += accepted
            self.max_depth = max(self.max_depth, len(entries))
            if self._waiters:
                self._announce(visible_at)
        tel = self.env.telemetry
        if tel is not None:
            span = tel.span("ring.produce", f"ring:{self.name}", dur_ns=cost,
                            links=batch_links(accepted_items), n=accepted)
            relink_batch(tel, span, accepted_items)
            handles = self._tel_handles
            if handles is None or handles.tel is not tel:
                handles = self._tel_handles = MetricHandles(
                    tel, _RING_METRICS, ring=self.name)
            handles.push.incr(accepted)
            handles.depth.set(len(self._entries))
        return cost

    def _alloc_slot(self) -> int:
        addr = (self._next_slot % self.capacity) * (self.entry_words + 1) * 8
        self._next_slot += 1
        return addr

    def _announce(self, visible_at: float) -> None:
        """Wake every current waiter once ``visible_at`` is reached.

        One waker per announcement: a :class:`~repro.sim.Relay` whose
        timer starts when it does and whose step wakes the waiters not
        already woken. Callers announce only while someone waits: most
        batches are produced with no waiter.
        """
        waiters, self._waiters = self._waiters, []
        delay = visible_at - self.env.now
        # A due entry waits the int 0, as the ring always has: the
        # timer's key, and so the clock it sets, keep their type.
        Relay(self.env, delay if delay > 0.0 else 0, wake_waiters, waiters)

    # -- consumer ---------------------------------------------------------

    def visible_count(self) -> int:
        """Entries the consumer could read right now."""
        now = self.env.now
        return sum(1 for _, t in self._entries if t <= now)

    def poll_cost(self) -> float:
        """Cost of one empty-handed poll: check the head valid flag."""
        cost = 0.0
        if not self.coherent:
            cost += self.consumer_path.invalidate(0, 1)
        cost += self.consumer_path.read_words(0, 1, self.env.now + cost)
        faults = self.env.faults
        if faults is not None:
            cost *= faults.path_cost_factor(self.consumer_path)
        tel = self.env.telemetry
        if tel is not None:
            handles = self._tel_handles
            if handles is None or handles.tel is not tel:
                handles = self._tel_handles = MetricHandles(
                    tel, _RING_METRICS, ring=self.name)
            handles.poll.incr()
        return cost

    def consume(self, max_batch: int = 64) -> Tuple[List[Any], float]:
        """Dequeue up to ``max_batch`` visible entries.

        Returns ``(items, cost)``. Cost covers the valid-flag read and
        payload reads per entry (plus software-coherence invalidations
        for non-coherent cached consumers).
        """
        now = self.env.now
        items: List[Any] = []
        cost = 0.0
        while self._entries and len(items) < max_batch:
            item, visible_at = self._entries[0]
            if visible_at > now + cost:
                break
            self._entries.popleft()
            addr = self._read_addr()
            words = self.entry_words + 1
            if not self.coherent:
                cost += self.consumer_path.invalidate(addr, words)
            cost += self.consumer_path.read_words(addr, words, now + cost)
            items.append(item)
        faults = self.env.faults
        if faults is not None:
            cost *= faults.path_cost_factor(self.consumer_path)
        self.consumed += len(items)
        if items:
            tel = self.env.telemetry
            if tel is not None:
                span = tel.span("ring.consume", f"ring:{self.name}",
                                dur_ns=cost, links=batch_links(items),
                                n=len(items))
                relink_batch(tel, span, items)
                handles = self._tel_handles
                if handles is None or handles.tel is not tel:
                    handles = self._tel_handles = MetricHandles(
                        tel, _RING_METRICS, ring=self.name)
                handles.pop.incr(len(items))
                handles.depth.set(len(self._entries))
        return items, cost

    def _read_addr(self) -> int:
        addr = (self.consumed % self.capacity) * (self.entry_words + 1) * 8
        return addr

    def wait_nonempty(self) -> Event:
        """An event that fires once at least one entry is visible.

        Consumers loop: ``yield ring.wait_nonempty()`` then ``consume``;
        a woken consumer may still find the ring raced empty and must
        re-wait.
        """
        event = Event(self.env)
        if not self._entries:
            self._waiters.append(event)
            return event
        soonest = min(t for _, t in self._entries)
        if soonest <= self.env.now:
            event.succeed()
        else:
            self._waiters.append(event)
            self._announce(soonest)
        return event
