"""Hierarchical timer wheel: the far-timer store behind the heap.

The binary heap pays O(log n) per push *and* per pop -- including for
entries that are cancelled long before their deadline (poll timeouts
that lose their ``any_of`` race, preempted sleeps). Far-future timers
instead land in coarse wheel buckets: an O(1) dict append on insert,
and cancelled entries are dropped in bulk when their bucket rolls over,
without ever touching the heap.

Two granularities, promoted hierarchically:

- **fine** buckets (:data:`FINE_GRAIN` ns wide) hold timers between
  :data:`MIN_WHEEL_DELAY` and :data:`MIN_COARSE_DELAY` out; a due fine
  bucket promotes its live entries straight into the heap;
- **coarse** buckets (:data:`COARSE_GRAIN` ns wide) hold everything
  further out; a due coarse bucket cascades its live entries into fine
  buckets keyed by each entry's own deadline.

Entries keep the ``(deadline, priority, seq)`` key they were scheduled
with, so promotion into the heap preserves the exact dispatch order the
plain-heap kernel would have produced -- the equivalence the
cross-engine conformance suite pins against its heap-only reference
(``tests/conformance/``).

Promotion safety: :meth:`TimerWheel.promote_due` promotes every bucket
whose *start* time is at or before the earliest heap entry (and the
run's stop time), so a wheel entry can never be dispatched late -- a
bucket's entries all have deadlines at or after the bucket start, and
the heap re-sorts them exactly. Both engines promote through it: the
serial kernel into its own heap, the partitioned engine into each
domain's.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Tuple

from repro.sim.events import Event, RearmableTimer

#: Width of a fine bucket (ns). Power of two so bucket indexing is an
#: exact float operation for every timestamp the repo produces.
FINE_GRAIN = 2048.0
#: Width of a coarse bucket (ns): 32 fine buckets.
COARSE_GRAIN = 65536.0
#: Delays below this stay in the binary heap (they are "near": the heap
#: will reach them within a handful of pops, and wheel bookkeeping would
#: cost more than it saves).
MIN_WHEEL_DELAY = 4096.0
#: Delays at or above this start in the coarse level (two coarse
#: buckets out, mirroring the fine threshold).
MIN_COARSE_DELAY = 131072.0

_INF = float("inf")

Entry = Tuple[float, int, int, Event]


class TimerWheel:
    """Two-level bucketed store for far-future timer entries."""

    __slots__ = ("_fine", "_coarse", "_fine_idx", "_coarse_idx", "_count",
                 "_next_start", "inserted", "dropped_cancelled", "promoted")

    def __init__(self):
        self._fine: Dict[int, List[Entry]] = {}
        self._coarse: Dict[int, List[Entry]] = {}
        self._fine_idx: List[int] = []     # min-heap of live bucket indices
        self._coarse_idx: List[int] = []
        self._count = 0
        #: Cached :meth:`next_start` -- the dispatch loop reads this once
        #: per event, so it must be a plain attribute load. Maintained on
        #: insert (monotone min) and recomputed after each promotion.
        self._next_start = _INF
        #: Lifetime counters (diagnostics; surfaced by the perf bench).
        self.inserted = 0
        self.dropped_cancelled = 0
        self.promoted = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, deadline: float, priority: int, seq: int,
               event: Event, coarse: bool) -> None:
        """File ``event`` under its deadline's bucket at the given level."""
        entry = (deadline, priority, seq, event)
        if coarse:
            idx = int(deadline // COARSE_GRAIN)
            bucket = self._coarse.get(idx)
            if bucket is None:
                self._coarse[idx] = [entry]
                heappush(self._coarse_idx, idx)
                start = idx * COARSE_GRAIN
                if start < self._next_start:
                    self._next_start = start
            else:
                bucket.append(entry)
        else:
            idx = int(deadline // FINE_GRAIN)
            bucket = self._fine.get(idx)
            if bucket is None:
                self._fine[idx] = [entry]
                heappush(self._fine_idx, idx)
                start = idx * FINE_GRAIN
                if start < self._next_start:
                    self._next_start = start
            else:
                bucket.append(entry)
        self._count += 1
        self.inserted += 1

    def _head(self, idx_heap: List[int], buckets: Dict[int, List[Entry]]):
        """Earliest live bucket index at one level, or None."""
        while idx_heap:
            idx = idx_heap[0]
            if idx in buckets:
                return idx
            heappop(idx_heap)  # stale index from a promoted bucket
        return None

    def next_start(self) -> float:
        """Start time of the earliest bucket across both levels (+inf if
        empty). Every entry in that bucket has deadline >= this. Also
        refreshes the :attr:`_next_start` cache."""
        best = _INF
        idx = self._head(self._fine_idx, self._fine)
        if idx is not None:
            best = idx * FINE_GRAIN
        idx = self._head(self._coarse_idx, self._coarse)
        if idx is not None:
            start = idx * COARSE_GRAIN
            if start < best:
                best = start
        self._next_start = best
        return best

    def promote_due(self, env, queue: List[Entry], stop_at: float) -> None:
        """Promote the buckets due before ``queue``'s next entry.

        A bucket is *due* once its start time is at or before the
        earliest entry of ``queue`` (the heap this wheel feeds; its raw
        head -- a cancelled head is a safe lower bound) and at or before
        ``stop_at``. Promoting whole buckets at that point guarantees no
        wheel entry can be dispatched late.
        """
        while self._count:
            start = self.next_start()
            if start > stop_at:
                break
            if queue and queue[0][0] < start:
                break
            self.promote_next(env, queue)
        else:
            self._next_start = _INF

    def promote_next(self, env, queue: List[Entry]) -> None:
        """Move the earliest bucket's entries one level down.

        Fine entries go into ``queue`` -- the heap this wheel feeds
        (``env._queue`` for the serial kernel, the owning domain's queue
        under ``repro.sim.partition``); cancelled ones are dropped and
        recycled, and re-armed :class:`RearmableTimer` entries are
        re-keyed at their current deadline. Coarse entries cascade into
        fine buckets keyed by their own deadline, so a long-lived timer
        costs one dict append per level, total, over its whole life. A
        re-armed timer's stale entry is re-keyed by
        :meth:`RearmableTimer._rekeyed
        <repro.sim.events.RearmableTimer._rekeyed>` at either level, as
        at every other site it can surface.
        """
        fine_idx = self._head(self._fine_idx, self._fine)
        coarse_idx = self._head(self._coarse_idx, self._coarse)
        fine_start = fine_idx * FINE_GRAIN if fine_idx is not None else _INF
        coarse_start = (coarse_idx * COARSE_GRAIN
                        if coarse_idx is not None else _INF)
        if fine_start <= coarse_start:
            if fine_idx is None:
                return
            heappop(self._fine_idx)
            bucket = self._fine.pop(fine_idx)
            pushes = 0
            for entry in bucket:
                event = entry[3]
                self._count -= 1
                if event._cancelled:
                    self.dropped_cancelled += 1
                    env._recycle(event)
                    continue
                if (type(event) is RearmableTimer
                        and event._rearm_seq != entry[2]):
                    # Re-armed while parked here: surface re-keyed.
                    # Straight to the heap -- re-inserting into the
                    # (already due) wheel level could loop.
                    entry = event._rekeyed(entry[1])
                heappush(queue, entry)
                pushes += 1
            self.promoted += pushes
            env.events_scheduled += pushes
            self.next_start()
        else:
            heappop(self._coarse_idx)
            bucket = self._coarse.pop(coarse_idx)
            for entry in bucket:
                event = entry[3]
                if event._cancelled:
                    self._count -= 1
                    self.dropped_cancelled += 1
                    env._recycle(event)
                    continue
                if (type(event) is RearmableTimer
                        and event._rearm_seq != entry[2]):
                    entry = event._rekeyed(entry[1])
                # Cascade into the fine level keyed by the deadline;
                # _count is unchanged (remove here, insert below).
                self._count -= 1
                deadline = entry[0]
                idx = int(deadline // FINE_GRAIN)
                fine_bucket = self._fine.get(idx)
                if fine_bucket is None:
                    self._fine[idx] = [entry]
                    heappush(self._fine_idx, idx)
                else:
                    fine_bucket.append(entry)
                self._count += 1
            self.next_start()

    def purge_cancelled(self, env) -> int:
        """Bulk-drop every cancelled entry parked in any bucket.

        Promotion already drops dead entries bucket-by-bucket as buckets
        come due, but a cancelled far timer otherwise sits in its bucket
        until then -- and the batched partition engine would re-scan it
        at every window close when sizing windows. Called by the engine
        once the cancel backlog crosses a threshold; empty buckets are
        deleted (their index-heap entries die lazily in :meth:`_head`,
        same as after promotion). Returns the number dropped.
        """
        dropped = 0
        for buckets in (self._fine, self._coarse):
            dead = None
            for idx, bucket in buckets.items():
                live = [e for e in bucket if not e[3]._cancelled]
                removed = len(bucket) - len(live)
                if not removed:
                    continue
                dropped += removed
                for entry in bucket:
                    if entry[3]._cancelled:
                        env._recycle(entry[3])
                if live:
                    buckets[idx] = live
                else:
                    if dead is None:
                        dead = []
                    dead.append(idx)
            if dead:
                for idx in dead:
                    del buckets[idx]
        if dropped:
            self._count -= dropped
            self.dropped_cancelled += dropped
            self.next_start()
        return dropped


__all__ = ["TimerWheel", "FINE_GRAIN", "COARSE_GRAIN", "MIN_WHEEL_DELAY",
           "MIN_COARSE_DELAY"]
