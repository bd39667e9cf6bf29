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

import collections
import itertools
import operator
from typing import (Any, Deque, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.obs.metrics import MetricsRegistry


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

    Attributes are stored flat, ``(k1, v1, k2, v2, ...)`` or None: one
    attribute costs a 56-byte tuple where a dict costs 184 bytes
    (CPython 3.11), and a long run keeps millions of spans. :attr:`args`
    reads them back.
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


_span_id = operator.attrgetter("span_id")


class _Renumbered:
    """A span's references with each id replaced by its position in the
    log (-1 for an id not in it); see :meth:`SpanLog.positions`."""

    __slots__ = ("parent_id", "links", "req")

    def __init__(self, span: Span, index: Dict[int, int]):
        parent = span.parent_id
        self.parent_id = None if parent is None else index.get(parent, -1)
        self.links = (tuple(index.get(link, -1) for link in span.links)
                      if span.links else None)
        self.req = span.req


class SpanLog:
    """Bounded span store: a ring keeping the newest ``capacity`` spans.

    ``recorded`` counts every span ever appended, ``evicted`` those
    displaced by newer ones once the ring filled.
    :meth:`RunTelemetry.span` and :meth:`RunTelemetry.begin` append
    inline, with the same bookkeeping as :meth:`append`.
    """

    def __init__(self, capacity: int = 200_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._spans: Deque[Span] = collections.deque(maxlen=capacity)
        self.recorded = 0
        #: Spans displaced by newer ones once the ring filled.
        self.evicted = 0

    def append(self, span: Span) -> None:
        if len(self._spans) == self._spans.maxlen:
            self.evicted += 1
        self._spans.append(span)
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans)

    def spans(self, stage: Optional[str] = None,
              track: Optional[str] = None) -> List[Span]:
        out = list(self._spans)
        if stage is not None:
            out = [s for s in out if s.stage == stage]
        if track is not None:
            out = [s for s in out if s.track == track]
        return out

    def positions(self) -> Tuple[List[Span], Sequence[Any], int]:
        """``(spans, refs, first)``: the spans that carry a span id, as a
        list in record order, and how to find the spans they reference.

        ``refs[pos]`` has the ``parent_id``, ``links`` and ``req`` of
        ``spans[pos]``, with every id numbered so that span ``sid`` sits
        at position ``sid - first``; an id outside
        ``range(first, first + len(spans))`` is not in the log. A
        recorded run numbers its spans 1, 2, ... in record order and the
        ring only drops the oldest, so ``refs`` is ``spans`` itself and a
        reference resolves by one subtraction. Only a log whose ids are
        not dense and in record order (hand-appended spans, spans
        without an id) is renumbered, through a ``{span_id: position}``
        dict dropped on return.
        """
        spans = list(self._spans)
        first = spans[0].span_id if spans else None
        if first is not None and all(map(
                operator.eq, map(_span_id, spans), itertools.count(first))):
            return spans, spans, first
        spans = [span for span in spans if span.span_id is not None]
        index = {span.span_id: pos for pos, span in enumerate(spans)}
        return spans, [_Renumbered(span, index) for span in spans], 0

    def stages(self) -> List[str]:
        return sorted({s.stage for s in self._spans})

    def tracks(self) -> List[str]:
        return sorted({s.track for s in self._spans})


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
             **args) -> Optional[Span]:
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
        # The filter check, id allotment and ring append are inlined
        # here and in begin(): both run once per recorded span.
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
        span = Span(stage, track, begin, begin + dur_ns, args,
                    sid, parent, tuple(links) if links else None, req)
        log = self.spans
        ring = log._spans
        if len(ring) == ring.maxlen:
            log.evicted += 1
        ring.append(span)
        log.recorded += 1
        return span

    def begin(self, stage: str, track: str,
              ctx: Optional[SpanCtx] = None, root: bool = False,
              links: Optional[Iterable[int]] = None,
              **args) -> Optional[Span]:
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
        span = Span(stage, track, self.env.now, None, args,
                    sid, parent, tuple(links) if links else None, req)
        log = self.spans
        ring = log._spans
        if len(ring) == ring.maxlen:
            log.evicted += 1
        ring.append(span)
        log.recorded += 1
        return span

    def ctx_after(self, span: Optional[Span]) -> Optional[SpanCtx]:
        """The context downstream work should carry after ``span``.

        None in, None out (filtered stages break the chain cleanly), so
        instrumentation sites can thread contexts without re-checking.
        """
        if span is None:
            return None
        return SpanCtx(span.req, span.span_id)

    def end(self, span: Optional[Span], **args) -> None:
        """Close an open span at the current simulated time; ``args``
        update its attributes as ``dict.update`` would."""
        if span is None:
            return
        span.end_ns = self.env.now
        self._causal = None  # a causal pass that saw it open is stale
        if args:
            if span._attrs is not None:
                merged = span.args
                merged.update(args)
                args = merged
            span._attrs = sum(args.items(), ())

    # -- metric shorthands --------------------------------------------------

    def count(self, name: str, by: int = 1, **labels) -> None:
        self.metrics.counter(name, **labels).incr(by)

    def observe(self, name: str, value: float, **labels) -> None:
        self.metrics.histogram(name, **labels).record(value)


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
