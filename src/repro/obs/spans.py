"""Span-based full-stack tracing.

A *span* is one named stage of work on one *track* (a simulated core,
agent, ring, or hardware engine) with begin/end simulated timestamps.
Subsystems emit spans at their protocol edges; the union decomposes an
end-to-end latency (e.g. task submit -> dispatch) into per-hop stages
the way Table 3 and section 7.2.2 do.

Wiring follows the fault-injection idiom: :class:`Telemetry` is the hub;
``telemetry.attach(env)`` binds it to one :class:`~repro.sim.Environment`
as a :class:`RunTelemetry` (stored on ``env.telemetry``). With
:meth:`Telemetry.install` the binding happens automatically for every
``Environment`` constructed afterwards -- which is how the CLI traces
experiments that build one environment per load point. When nothing is
installed ``env.telemetry`` is ``None`` and every instrumentation site
is a single attribute load plus a falsy check: zero-cost when disabled.

Spans never *charge* time -- they observe costs the subsystems already
pay -- so an instrumented run is numerically identical to a bare one.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.metrics import CounterMetric, HistogramMetric, MetricsRegistry


class SpanCtx:
    """A causal request-context token.

    Minted at request roots (txn commit, RPC arrival, DMA op, fault
    fire) and threaded through the model objects that carry the work
    (tasks, messages, transactions, requests). ``req`` is the per-run
    request id; ``span`` is the :attr:`Span.span_id` of the causally
    preceding span -- the next span recorded with this ctx becomes its
    child. Tokens are tiny, immutable in spirit, and picklable, so they
    survive the shard round trip unchanged.
    """

    __slots__ = ("req", "span")

    def __init__(self, req: Optional[int], span: Optional[int]):
        self.req = req
        self.span = span

    def __repr__(self) -> str:
        return f"<SpanCtx req={self.req} span={self.span}>"


class Span:
    """One named stage of work on one track.

    Beyond the interval itself, a span carries its causal identity:
    ``span_id`` (per-run, monotonic from 1 in record order),
    ``parent_id`` (the span whose :class:`SpanCtx` it was recorded
    under), ``links`` (extra predecessor span ids -- e.g. a ring batch
    span linking every producer's span), and ``req`` (the request id
    grouping one end-to-end causal graph). All are per-run and reset
    with the environment, so sharded ``--jobs`` sweeps reproduce the
    exact ids of a serial run.

    A span is a value: :class:`SpanLog` stores spans in columns and
    builds one only when it is read, so reports and analyses that walk
    a whole log build none. Attributes are kept flat, ``(k1, v1, k2,
    v2, ...)`` or None; :attr:`args` reads them back as a fresh dict.
    """

    __slots__ = ("stage", "track", "begin_ns", "end_ns", "_attrs",
                 "span_id", "parent_id", "links", "req")

    def __init__(self, stage: str, track: str, begin_ns: float,
                 end_ns: Optional[float], args: Optional[Dict[str, Any]],
                 span_id: Optional[int] = None,
                 parent_id: Optional[int] = None,
                 links: Optional[Tuple[int, ...]] = None,
                 req: Optional[int] = None):
        self.stage = stage
        self.track = track
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        # Summing the (key, value) pairs flattens them; a lone pair is
        # kept as it is (``() + pair`` returns ``pair``).
        self._attrs = sum(args.items(), ()) if args else None
        self.span_id = span_id
        self.parent_id = parent_id
        self.links = links
        self.req = req

    @property
    def args(self) -> Optional[Dict[str, Any]]:
        """The attributes as a fresh dict, or None when there are none."""
        attrs = self._attrs
        if attrs is None:
            return None
        return dict(zip(attrs[::2], attrs[1::2]))

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            return 0.0
        return self.end_ns - self.begin_ns

    def render(self) -> str:
        end = "open" if self.end_ns is None else f"{self.end_ns:.1f}"
        detail = ""
        args = self.args
        if args:
            detail = " " + " ".join(f"{k}={v}" for k, v in
                                    sorted(args.items()))
        return (f"[{self.begin_ns:.1f}..{end}] {self.track} "
                f"{self.stage}{detail}")


#: The id columns' stand-in for None (no span id, parent or request).
_NONE = -(1 << 63)
#: The end column's stand-in for None (a span still open).
_OPEN = float("nan")
#: Spans recorded since the last flush wait as rows until there are
#: this many; then they enter the columns in one batch.
_BATCH = 512
#: A pending row's fields: every one but the attributes dict already
#: in its column's form (name-table indices, sentinels for None, the
#: links' end offset into ``_links``).
(_STAGE, _TRACK, _BEGIN, _END, _ARGS, _SID, _PARENT, _LINK_END,
 _REQ) = range(9)


def _id(value: int) -> Optional[int]:
    return None if value == _NONE else value


def _where(column: array, value: int) -> List[int]:
    """The slots of ``column`` that hold ``value``, in order (a C-level
    scan between matches)."""
    slots = []
    at = -1
    try:
        while True:
            at = column.index(value, at + 1)
            slots.append(at)
    except ValueError:
        return slots


def _intern(name, names: list, index: dict) -> int:
    """Add ``name`` to a log's name table; returns its index."""
    index[name] = at = len(names)
    names.append(name)
    return at


class SpanLog:
    """Bounded span store: a ring keeping the newest ``capacity`` spans,
    in typed columns instead of one object per span.

    Slot ``s`` of every column describes one span:

    - ``_begin``/``_end``: ``array('d')`` times, ``_end`` NaN while open;
    - ``_sid``/``_parent``/``_req``: ``array('q')`` ids, ``_NONE`` for None;
    - ``_stage``/``_track``: indices into ``_stage_names``/``_track_names``;
    - links: ``_links[_link_off[s] - _links_base:_link_off[s + 1] -
      _links_base]``, one flat id array with CSR offsets;
    - attributes: ``_key_tuples[_keys[s]]`` (interned key tuples, ``()``
      for none) paired with as many entries of the flat ``_values`` list
      from ``_value_at[s] - _values_base``; values are kept as given,
      so ``True`` stays ``True``.

    Offsets into ``_links``/``_values`` are absolute, so dropping a
    prefix of either only moves its base. ``_base`` is the record index
    of slot 0: the span recorded ``seq``-th lives in slot ``seq -
    _base``.

    Writing is batched. A recorded span first waits in ``_pending`` as
    one row, a list of its column values; :meth:`_flush` moves every
    ``_BATCH`` rows into the columns with one bulk array operation per
    column, which costs less per span than appending to every column
    one span at a time. Closing a span, or a :class:`SpanHandle` write,
    updates its row while it waits. Eviction is lazy too: the ring's contents are defined by
    the counts alone (the newest ``min(recorded, capacity)`` spans), and
    the slots of evicted spans are dropped once they are an eighth of
    the capacity. :meth:`compact` does both now; every read that walks
    the columns calls it first, so that slot ``pos`` is the ``pos``-th
    retained span.

    ``recorded`` counts every span ever appended, ``evicted`` those
    displaced by newer ones once the ring filled. :class:`Span` is only
    the read (and :meth:`append`) type, built on demand.
    """

    def __init__(self, capacity: int = 200_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.recorded = 0
        self._pending: List[list] = []
        self._base = 0
        self._begin = array("d")
        self._end = array("d")
        self._sid = array("q")
        self._parent = array("q")
        self._req = array("q")
        self._stage = array("i")
        self._track = array("i")
        self._link_off = array("q", [0])
        self._links = array("q")
        self._links_base = 0
        self._links_end = 0  # absolute offset past the last link
        self._keys = array("i")
        self._value_at = array("q")
        self._values: List[Any] = []
        self._values_base = 0
        self._stage_names: List[str] = []
        self._stage_index: Dict[str, int] = {}
        self._track_names: List[str] = []
        self._track_index: Dict[str, int] = {}
        self._key_tuples: List[Tuple[str, ...]] = [()]
        self._key_index: Dict[Tuple[str, ...], int] = {(): 0}

    # -- writing ------------------------------------------------------------

    def _record(self, stage: str, track: str, begin: float,
                end: Optional[float], args: Dict[str, Any],
                sid: Optional[int], parent: Optional[int],
                links: Optional[Iterable[int]], req: Optional[int]) -> int:
        """Record one span, evicting the oldest once the ring is full;
        returns its record index. ``args`` must be a dict the log may
        keep (empty for no attributes); ``links`` is copied."""
        stage_at = self._stage_index.get(stage)
        if stage_at is None:
            stage_at = _intern(stage, self._stage_names, self._stage_index)
        track_at = self._track_index.get(track)
        if track_at is None:
            track_at = _intern(track, self._track_names, self._track_index)
        if links:
            self._links.extend(links)
            self._links_end = self._links_base + len(self._links)
        pending = self._pending
        pending.append([
            stage_at, track_at, begin, _OPEN if end is None else end, args,
            _NONE if sid is None else sid,
            _NONE if parent is None else parent, self._links_end,
            _NONE if req is None else req])
        seq = self.recorded
        self.recorded = seq + 1
        if len(pending) >= _BATCH:
            self._flush()
        return seq

    def _flush(self) -> None:
        """Move the pending rows into the columns, then drop evicted
        slots once they are an eighth of the capacity."""
        rows = self._pending
        if not rows:
            return
        self._pending = []
        (stages, tracks, begins, ends, args, sids, parents, link_ends,
         reqs) = zip(*rows)
        del rows
        for column, batch in ((self._stage, stages), (self._track, tracks),
                              (self._begin, begins), (self._end, ends),
                              (self._sid, sids), (self._parent, parents),
                              (self._link_off, link_ends),
                              (self._req, reqs)):
            column.extend(array(column.typecode, batch))
        keys = list(map(tuple, args))
        index = self._key_index
        for key in dict.fromkeys(keys):  # first occurrence order
            if key not in index:
                _intern(key, self._key_tuples, index)
        self._keys.extend(array("i", list(map(index.__getitem__, keys))))
        values = self._values
        self._value_at.extend(array("q", list(accumulate(
            map(len, keys[:-1]), initial=self._values_base + len(values)))))
        values.extend(chain.from_iterable(map(dict.values, args)))
        if self._evicted_slots() > self.capacity >> 3:
            self._drop_evicted()

    @property
    def evicted(self) -> int:
        """Spans displaced by newer ones once the ring filled."""
        return max(0, self.recorded - self.capacity)

    def _evicted_slots(self) -> int:
        """Slots at the head of the columns that hold evicted spans."""
        return self.recorded - len(self) - self._base

    def _drop_evicted(self) -> None:
        cut = self._evicted_slots()
        if cut <= 0:
            return
        for column in (self._begin, self._end, self._sid, self._parent,
                       self._req, self._stage, self._track, self._link_off,
                       self._keys, self._value_at):
            del column[:cut]
        self._base += cut
        cut = self._link_off[0] - self._links_base
        del self._links[:cut]
        self._links_base += cut
        # A span's values move to the end when its keys change, so the
        # oldest retained span need not hold the first values kept.
        kept = self._value_at
        cut = (min(kept) if kept else self._values_base + len(self._values)
               ) - self._values_base
        del self._values[:cut]
        self._values_base += cut

    def compact(self) -> None:
        """Move pending spans into the columns and drop the evicted
        slots, so that slot ``pos`` holds the ``pos``-th retained span.
        Nothing a reader sees changes."""
        self._flush()
        self._drop_evicted()

    def _row(self, seq: int):
        """Where the span recorded ``seq``-th is: its pending row, its
        slot, or None once evicted (its slot may hold a newer span)."""
        if seq < self.recorded - self.capacity:
            return None
        slot = seq - self._base
        pending = slot - len(self._begin)
        return self._pending[pending] if pending >= 0 else slot

    def _close(self, seq: int, end: float, args: Dict[str, Any]) -> None:
        """End the span recorded ``seq``-th at ``end``, its attributes
        updated by ``args`` as ``dict.update`` would; nothing once it
        is evicted."""
        if seq < self.recorded - self.capacity:
            return
        slot = seq - self._base
        pending = slot - len(self._begin)
        if pending >= 0:
            row = self._pending[pending]
            row[_END] = end
            row[_ARGS].update(args)
            return
        self._end[slot] = end
        if args:
            merged = self._args(slot)
            if merged:
                merged.update(args)
                args = merged
            self._store_args(slot, args)

    def _set(self, seq: int, field: int, value: Any) -> None:
        """Overwrite one field (``_END``, ``_ARGS``, ``_SID`` or
        ``_REQ``) of the span recorded ``seq``-th; nothing once it is
        evicted. ``_ARGS`` takes a dict the log may keep."""
        row = self._row(seq)
        if row is None:
            return
        if field != _ARGS and value is None:
            value = _OPEN if field == _END else _NONE
        if type(row) is list:
            row[field] = value
        elif field == _ARGS:
            self._store_args(row, value)
        else:
            {_END: self._end, _SID: self._sid, _REQ: self._req}[field][row] \
                = value

    def _store_args(self, slot: int, args: Dict[str, Any]) -> None:
        """Replace one slot's attributes with ``args`` (empty for none).

        Same keys: the values are overwritten in place. Otherwise they
        move to the end of ``_values``, and the old entries are cleared
        so they hold no object until eviction drops them.
        """
        old = self._key_tuples[self._keys[slot]]
        keys = tuple(args)
        at = self._value_at[slot] - self._values_base
        if keys == old:
            self._values[at:at + len(keys)] = args.values()
            return
        self._values[at:at + len(old)] = [None] * len(old)
        index = self._key_index.get(keys)
        if index is None:
            index = _intern(keys, self._key_tuples, self._key_index)
        self._keys[slot] = index
        self._value_at[slot] = self._values_base + len(self._values)
        self._values.extend(args.values())

    def append(self, span: Span) -> None:
        self._record(span.stage, span.track, span.begin_ns, span.end_ns,
                     span.args or {}, span.span_id, span.parent_id,
                     span.links, span.req)

    def __getstate__(self):
        # Shards pickle the columns: no pending rows, no evicted slots.
        self.compact()
        return self.__dict__

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    def _args(self, slot: int) -> Optional[Dict[str, Any]]:
        keys = self._key_tuples[self._keys[slot]]
        if not keys:
            return None
        at = self._value_at[slot] - self._values_base
        return dict(zip(keys, self._values[at:at + len(keys)]))

    def _arg(self, slot: int, key: str) -> Any:
        """One attribute of one span, or None."""
        keys = self._key_tuples[self._keys[slot]]
        if key not in keys:
            return None
        return self._values[self._value_at[slot] - self._values_base
                            + keys.index(key)]

    def _link_ids(self, slot: int) -> Optional[Tuple[int, ...]]:
        base = self._links_base
        lo = self._link_off[slot] - base
        hi = self._link_off[slot + 1] - base
        return tuple(self._links[lo:hi]) if hi > lo else None

    def _span(self, slot: int) -> Span:
        end = self._end[slot]
        return Span(self._stage_names[self._stage[slot]],
                    self._track_names[self._track[slot]],
                    self._begin[slot], None if end != end else end,
                    self._args(slot), _id(self._sid[slot]),
                    _id(self._parent[slot]), self._link_ids(slot),
                    _id(self._req[slot]))

    def span_at(self, pos: int) -> Span:
        """The ``pos``-th retained span, oldest first, as a new
        :class:`Span`."""
        if not 0 <= pos < len(self):
            raise IndexError("span position out of range")
        self.compact()
        return self._span(pos)

    def __iter__(self) -> Iterator[Span]:
        self.compact()
        for slot in range(len(self._begin)):
            yield self._span(slot)

    def spans(self, stage: Optional[str] = None,
              track: Optional[str] = None) -> List[Span]:
        """The retained spans, optionally of one stage and/or on one
        track, in record order."""
        return self.spans_of(None if stage is None else (stage,), track)

    def spans_of(self, stages: Optional[Iterable[str]],
                 track: Optional[str] = None) -> List[Span]:
        """The retained spans whose stage is one of ``stages`` (any
        stage for None), optionally on one track, in record order. Only
        the matching spans are built."""
        self.compact()
        if stages is None:
            slots = range(len(self._begin))
        else:
            index = self._stage_index
            slots = sorted(chain.from_iterable(
                _where(self._stage, index[stage])
                for stage in set(stages) if stage in index))
        if track is not None:
            index = self._track_index.get(track)
            column = self._track
            slots = [slot for slot in slots if column[slot] == index]
        return [self._span(slot) for slot in slots]

    def identified(self) -> int:
        """How many retained spans carry a span id."""
        self.compact()
        return len(self._sid) - self._sid.count(_NONE)

    def positions(self) -> Tuple["SpanLog", int]:
        """``(log, first)``: the spans that carry a span id, with slot
        ``pos`` of ``log``'s columns holding the ``pos``-th, and how to
        find the spans they reference: span ``sid`` sits at position
        ``sid - first``, and an id outside ``range(first, first +
        len(log))`` is not in the log.

        A recorded run numbers its spans 1, 2, ... in record order and
        the ring only drops the oldest, so ``log`` is this log itself
        (compacted) and a reference resolves by one subtraction. Only a
        log whose ids are not dense and in record order (hand-appended
        spans, spans without an id) is copied: the copy keeps the spans
        with an id, its parent and link ids are the positions they
        reference (-1 for an id not in the log), and ``first`` is 0.
        """
        self.compact()
        sids = self._sid
        n = len(sids)
        first = sids[0] if n else 0
        if n == 0 or (first != _NONE and sids == array(
                "q", range(first, first + n))):
            return self, first
        kept = [slot for slot in range(n) if sids[slot] != _NONE]
        index = {sids[slot]: pos for pos, slot in enumerate(kept)}
        copy = SpanLog(max(1, len(kept)))
        for slot in kept:
            parent = self._parent[slot]
            end = self._end[slot]
            copy._record(self._stage_names[self._stage[slot]],
                         self._track_names[self._track[slot]],
                         self._begin[slot], None if end != end else end,
                         self._args(slot) or {}, sids[slot],
                         None if parent == _NONE else index.get(parent, -1),
                         [index.get(link, -1)
                          for link in self._link_ids(slot) or ()],
                         _id(self._req[slot]))
        copy.compact()
        return copy, 0

    def stages(self) -> List[str]:
        self.compact()
        names = self._stage_names
        return sorted(names[i] for i in set(self._stage))

    def tracks(self) -> List[str]:
        self.compact()
        names = self._track_names
        return sorted(names[i] for i in set(self._track))


class SpanHandle:
    """A recorded span, read and written through its log.

    :meth:`RunTelemetry.span` and :meth:`RunTelemetry.begin` return one;
    instrumentation sites keep it while the span is open. ``span_id``,
    ``req``, ``args`` and ``end_ns`` read and write the span's row or
    slot, ``parent_id`` and ``links`` read it, and :meth:`snapshot`
    reads every field at once. The log keeps no handle.
    Once the ring has evicted the span, the handle still knows its
    identity (``span_id`` and ``req``, which :meth:`RunTelemetry.ctx_after`
    threads downstream), its other fields read None, and writes to them
    are dropped: they never reach the slot a newer span has taken.
    """

    __slots__ = ("_log", "_seq", "_span_id", "_req")

    def __init__(self, log: SpanLog, seq: int, span_id: Optional[int],
                 req: Optional[int]):
        self._log = log
        self._seq = seq
        self._span_id = span_id
        self._req = req

    def snapshot(self) -> Optional[Span]:
        """The span as it is now, as a new :class:`Span`; None once
        evicted."""
        log = self._log
        log.compact()
        slot = log._row(self._seq)
        return None if slot is None else log._span(slot)

    def _read(self, name: str) -> Any:
        span = self.snapshot()
        return None if span is None else getattr(span, name)

    # Identity: kept on the handle too, so it outlives eviction; this
    # handle is the only writer of its span's ids.

    @property
    def span_id(self) -> Optional[int]:
        return self._span_id

    @span_id.setter
    def span_id(self, value: Optional[int]) -> None:
        self._span_id = value
        self._log._set(self._seq, _SID, value)

    @property
    def req(self) -> Optional[int]:
        return self._req

    @req.setter
    def req(self, value: Optional[int]) -> None:
        self._req = value
        self._log._set(self._seq, _REQ, value)

    @property
    def end_ns(self) -> Optional[float]:
        return self._read("end_ns")

    @end_ns.setter
    def end_ns(self, value: Optional[float]) -> None:
        self._log._set(self._seq, _END, value)

    @property
    def args(self) -> Optional[Dict[str, Any]]:
        """The attributes as a fresh dict, or None when there are none."""
        return self._read("args")

    @args.setter
    def args(self, value: Optional[Dict[str, Any]]) -> None:
        self._log._set(self._seq, _ARGS, dict(value) if value else {})

    parent_id = property(lambda self: self._read("parent_id"))
    links = property(lambda self: self._read("links"))


class RunTelemetry:
    """Telemetry bound to one environment (one simulation run).

    Instrumentation sites hold ``env.telemetry`` (this object, or None)
    and call :meth:`span` for stages whose duration they already know,
    or :meth:`begin`/:meth:`end` around multi-yield sections.
    """

    def __init__(self, env, hub: "Telemetry", run_index: int,
                 label: str = ""):
        self.env = env
        self.hub = hub
        self.run_index = run_index
        #: True when no explicit label was given; shard absorption
        #: regenerates default labels from the merged run index.
        self.default_label = not label
        self.label = label or f"run{run_index}"
        self.metrics = MetricsRegistry(env)
        self.spans = SpanLog(capacity=hub.span_capacity)
        self._stage_filter = hub.stage_filter
        #: Worker index the run was absorbed from (None for runs
        #: recorded in this process). Never exported: ``--jobs N`` must
        #: not change any telemetry artifact.
        self.worker = None
        #: Per-run causal id counters: span ids and request ids both
        #: restart at 1 with every environment, so sharded sweeps mint
        #: the exact ids a serial sweep would.
        self._next_span = 0
        self._next_req = 0
        #: :class:`repro.sim.partition.PartitionObservatory` when the
        #: run executed under the partitioned engine with telemetry on;
        #: carried through shards, never folded into the metrics
        #: registry (the telemetry digest must not depend on which
        #: engine ran).
        self.partition = None
        #: :class:`repro.obs.timeline.RunTimeline` when the hub samples
        #: timelines; carried through shards like ``partition``.
        self.timeline = None
        #: The last causal pass over this run's spans, memoized by
        #: :func:`repro.obs.causal.request_traces`; never shipped in a
        #: shard, exported or digested.
        self._causal = None

    @classmethod
    def restored(cls, hub: "Telemetry", run_index: int, label: str,
                 default_label: bool, metrics: MetricsRegistry,
                 spans: SpanLog, worker=None, partition=None,
                 timeline=None) -> "RunTelemetry":
        """Rebuild a run from shard state (no environment: read-only)."""
        run = cls.__new__(cls)
        run.env = None
        run.hub = hub
        run.run_index = run_index
        run.default_label = default_label
        run.label = label
        run.metrics = metrics
        run.spans = spans
        run._stage_filter = hub.stage_filter
        run.worker = worker
        run._next_span = 0
        run._next_req = 0
        run.partition = partition
        run.timeline = timeline
        run._causal = None
        if timeline is not None:
            # Re-link the back-reference dropped on pickling so blame
            # attribution can read the restored run's spans.
            timeline.run = run
        return run

    def span(self, stage: str, track: str, dur_ns: float = 0.0,
             start_ns: Optional[float] = None,
             ctx: Optional[SpanCtx] = None, root: bool = False,
             links: Optional[Iterable[int]] = None,
             **args) -> Optional[SpanHandle]:
        """Record a completed span.

        ``start_ns`` defaults to now; the span covers
        ``[start_ns, start_ns + dur_ns]``. Instantaneous events use the
        default ``dur_ns=0``.

        ``ctx`` threads an existing request context (the span becomes
        the ctx span's child in that request's causal graph); ``root``
        mints a fresh request id when no ctx is given (designated
        causal roots: txn commit, RPC arrival, DMA op, fault fire);
        ``links`` adds extra predecessor span ids (batch fan-in).
        """
        # The filter check and id allotment are inlined here and in
        # begin(): both run once per recorded span.
        if self._stage_filter is not None and stage not in self._stage_filter:
            return None
        begin = self.env.now if start_ns is None else start_ns
        self._next_span = sid = self._next_span + 1
        if ctx is not None:
            parent, req = ctx.span, ctx.req
        elif root:
            self._next_req = req = self._next_req + 1
            parent = None
        else:
            parent = req = None
        log = self.spans
        return SpanHandle(log, log._record(
            stage, track, begin, begin + dur_ns, args, sid, parent,
            links, req), sid, req)

    def begin(self, stage: str, track: str,
              ctx: Optional[SpanCtx] = None, root: bool = False,
              links: Optional[Iterable[int]] = None,
              **args) -> Optional[SpanHandle]:
        """Open a span at the current simulated time; close it with
        :meth:`end`. Returns None when the stage is filtered out."""
        if self._stage_filter is not None and stage not in self._stage_filter:
            return None
        self._next_span = sid = self._next_span + 1
        if ctx is not None:
            parent, req = ctx.span, ctx.req
        elif root:
            self._next_req = req = self._next_req + 1
            parent = None
        else:
            parent = req = None
        log = self.spans
        return SpanHandle(log, log._record(
            stage, track, self.env.now, None, args, sid, parent,
            links, req), sid, req)

    def ctx_after(self, span: Optional[SpanHandle]) -> Optional[SpanCtx]:
        """The context downstream work should carry after ``span``.

        None in, None out (filtered stages break the chain cleanly), so
        instrumentation sites can thread contexts without re-checking.
        """
        if span is None:
            return None
        return SpanCtx(span._req, span._span_id)

    def end(self, span: Optional[SpanHandle], **args) -> None:
        """Close an open span at the current simulated time; ``args``
        update its attributes as ``dict.update`` would."""
        if span is None:
            return
        self._causal = None  # a causal pass that saw it open is stale
        self.spans._close(span._seq, self.env.now, args)

    # -- metric shorthands --------------------------------------------------

    # Both resolve through ``MetricsRegistry._get`` directly: one frame
    # and one ``**labels`` packing fewer per update than going through
    # ``counter()``/``histogram()``.

    def count(self, name: str, by: int = 1, **labels) -> None:
        self.metrics._get(CounterMetric, name, labels).incr(by)

    def observe(self, name: str, value: float, **labels) -> None:
        self.metrics._get(HistogramMetric, name, labels).record(value)


class Telemetry:
    """The telemetry hub: all runs' spans and metrics, plus exporters'
    entry point.

    One hub outlives any number of environments (a figure sweep builds
    one env per load point); each attach allocates the next run index.
    """

    def __init__(self, span_capacity: int = 200_000,
                 stage_filter: Optional[List[str]] = None,
                 profiler=None, timeline=None):
        self.span_capacity = span_capacity
        self.stage_filter = set(stage_filter) if stage_filter else None
        #: Optional :class:`repro.obs.profile.LoopProfiler`; when set,
        #: it profiles everything run while this hub is installed.
        self.profiler = profiler
        #: Optional :class:`repro.obs.timeline.TimelineConfig`; when
        #: set, every attached environment gets a
        #: :class:`~repro.obs.timeline.RunTimeline` sampler.
        self.timeline = timeline
        self.runs: List[RunTelemetry] = []

    def attach(self, env, label: str = "") -> RunTelemetry:
        """Bind this hub to ``env`` (sets ``env.telemetry``)."""
        run = RunTelemetry(env, self, len(self.runs), label)
        self.runs.append(run)
        env.telemetry = run
        if self.timeline is not None:
            from repro.obs.timeline import RunTimeline
            run.timeline = RunTimeline(run, self.timeline)
            env._timeline = run.timeline
        return run

    # -- global install -----------------------------------------------------

    def install(self) -> "Telemetry":
        """Auto-attach to every Environment constructed from now on,
        and start the profiler, if any."""
        from repro.sim import core as sim_core
        sim_core.set_default_telemetry(self)
        if self.profiler is not None:
            self.profiler.start()
        return self

    def uninstall(self) -> None:
        """Undo :meth:`install`; stops the profiler, if any."""
        from repro.sim import core as sim_core
        if sim_core.default_telemetry() is self:
            sim_core.set_default_telemetry(None)
        if self.profiler is not None:
            self.profiler.stop()

    def __enter__(self) -> "Telemetry":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- sharding (process-pool sweeps) -------------------------------------

    def shard_config(self) -> dict:
        """Picklable constructor args for a worker's per-process hub.

        The worker hub must filter and bound spans exactly like this
        one, or the merged stream would differ from a serial sweep's.
        """
        return {
            "span_capacity": self.span_capacity,
            "stage_filter": sorted(self.stage_filter)
            if self.stage_filter is not None else None,
            "profile": self.profiler is not None,
            "timeline": self.timeline.to_dict()
            if self.timeline is not None else None,
        }

    @classmethod
    def from_shard_config(cls, config: dict) -> "Telemetry":
        """Build a worker-side hub from :meth:`shard_config` output."""
        profiler = None
        if config.get("profile"):
            from repro.obs.profile import LoopProfiler
            profiler = LoopProfiler()
        timeline = None
        if config.get("timeline") is not None:
            from repro.obs.timeline import TimelineConfig
            timeline = TimelineConfig.from_dict(config["timeline"])
        return cls(span_capacity=config["span_capacity"],
                   stage_filter=config["stage_filter"],
                   profiler=profiler, timeline=timeline)

    def shard(self):
        """Detach everything collected so far into a picklable
        :class:`~repro.obs.shard.TelemetryShard`."""
        from repro.obs.shard import shard_from
        return shard_from(self)

    def absorb(self, shard, worker=None):
        """Append a worker shard's runs (in order) to this hub; see
        :func:`repro.obs.shard.absorb_into`."""
        from repro.obs.shard import absorb_into
        return absorb_into(self, shard, worker=worker)

    # -- aggregate views ----------------------------------------------------

    def total_spans(self) -> int:
        return sum(run.spans.recorded for run in self.runs)

    def stages(self) -> List[str]:
        out = set()
        for run in self.runs:
            out.update(run.spans.stages())
        return sorted(out)

    def tracks(self) -> List[str]:
        out = set()
        for run in self.runs:
            out.update(run.spans.tracks())
        return sorted(out)
