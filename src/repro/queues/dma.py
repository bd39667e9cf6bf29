"""DMA-backed unidirectional queue (Floem's design, paper section 5.3).

The producer writes entries to *its own* local DRAM cheaply, then kicks
the DMA engine (a few MMIO doorbell writes) to move the batch into the
consumer's local DRAM; the consumer then reads locally and coherently.
Synchronous mode blocks the producer for the wire time; asynchronous
mode lets the producer continue (prior work: 2-7x faster) and deliver
on completion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.hw.dma import DmaEngine
from repro.hw.paths import MemPath
from repro.queues.ring import batch_links, relink_batch, wake_waiters
from repro.sim import Environment, Event, Relay


class DmaQueue:
    """SPSC queue whose transport is the SmartNIC DMA engine."""

    def __init__(self, env: Environment, name: str, dma: DmaEngine,
                 producer_path: MemPath, consumer_path: MemPath,
                 entry_words: int = 6, sync: bool = False):
        if entry_words <= 0:
            raise ValueError("entry_words must be positive")
        self.env = env
        self.name = name
        self.dma = dma
        self.producer_path = producer_path
        self.consumer_path = consumer_path
        self.entry_words = entry_words
        self.sync = sync
        self._entries: Deque[Tuple[Any, float]] = deque()
        self._waiters: List[Event] = []
        self.produced = 0
        self.consumed = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entry_bytes(self) -> int:
        return (self.entry_words + 1) * 8  # payload + valid flag

    def produce(self, items: List[Any]) -> Tuple[float, Optional[Event]]:
        """Enqueue a batch via one DMA descriptor.

        Returns ``(producer_cpu_cost, completion)``. In synchronous mode
        the CPU cost already includes the wire time (the producer busy
        waits) and ``completion`` is None; in asynchronous mode the
        producer only pays local writes + doorbells, and ``completion``
        fires when the data lands on the consumer side.
        """
        if not items:
            return 0.0, None
        tel = self.env.telemetry
        span = pctx = None
        if tel is not None:
            # Record the hop before launching so the engine's transfer
            # span can descend from it; the duration is patched below
            # once the (possibly synchronous) cost is final.
            span = tel.span("dmaq.produce", f"ring:{self.name}", dur_ns=0.0,
                            links=batch_links(items), n=len(items),
                            sync=self.sync)
            pctx = tel.ctx_after(span)
        cost = 0.0
        for _ in items:
            cost += self.producer_path.write_words(0, self.entry_words + 1)
        cost += self.producer_path.flush_writes()
        cost += self.dma.setup_cost()
        nbytes = len(items) * self.entry_bytes
        # One launch per descriptor batch: the duration (which includes
        # any injected timeout/retry penalty) and the completion event
        # come from the same draw, so arrival and completion agree.
        duration, completion = self.dma.launch(nbytes, ctx=pctx)
        if self.sync:
            cost += duration
        arrival = self.env.now + cost + (0.0 if self.sync else duration)
        for item in items:
            self._entries.append((item, arrival))
        self.produced += len(items)
        self._announce(arrival)
        if tel is not None:
            if span is not None:
                # No simulated time passes in here: the span began now.
                span.end_ns = self.env.now + cost
            relink_batch(tel, span, items)
            tel.count("ring_ops", by=len(items), ring=self.name, op="push")
        if self.sync:
            return cost, None
        return cost, completion

    def _announce(self, visible_at: float) -> None:
        """Wake every current waiter once ``visible_at`` is reached, by
        one :class:`~repro.sim.Relay` waker, as
        :meth:`FloemRing._announce <repro.queues.ring.FloemRing._announce>`
        does."""
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        Relay(self.env, max(0.0, visible_at - self.env.now), wake_waiters,
              waiters)

    def visible_count(self) -> int:
        now = self.env.now
        return sum(1 for _, t in self._entries if t <= now)

    def consume(self, max_batch: int = 1 << 30) -> Tuple[List[Any], float]:
        """Dequeue visible entries; consumer reads are local + coherent."""
        now = self.env.now
        items: List[Any] = []
        cost = 0.0
        while self._entries and len(items) < max_batch:
            item, visible_at = self._entries[0]
            if visible_at > now + cost:
                break
            self._entries.popleft()
            cost += self.consumer_path.read_words(0, self.entry_words + 1,
                                                  now + cost)
            items.append(item)
        self.consumed += len(items)
        if items:
            tel = self.env.telemetry
            if tel is not None:
                span = tel.span("dmaq.consume", f"ring:{self.name}",
                                dur_ns=cost, links=batch_links(items),
                                n=len(items))
                relink_batch(tel, span, items)
                tel.count("ring_ops", by=len(items), ring=self.name,
                          op="pop")
        return items, cost

    def wait_nonempty(self) -> Event:
        """Event firing when at least one entry is (or becomes) visible."""
        event = Event(self.env)
        soonest = min((t for _, t in self._entries), default=None)
        if soonest is not None and soonest <= self.env.now:
            event.succeed()
        else:
            self._waiters.append(event)
            if soonest is not None:
                self._announce(soonest)
        return event
