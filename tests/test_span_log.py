"""The columnar span log against the deque-of-spans model it replaced.

``SpanLog`` keeps a run's spans in typed columns and hands out
:class:`~repro.obs.spans.SpanHandle` objects that read and write
through to them. The reference below is the store it replaced,
transcribed: a ``deque(maxlen=capacity)`` of span objects, recorded
and closed exactly as ``RunTelemetry.span``/``begin``/``end`` did. Any
sequence of operations must leave both with the same spans, in the
same order, field for field -- whichever write batch size moves the
pending rows into the columns.
"""

import collections
import pickle
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.obs import Span, SpanCtx, Telemetry
from repro.obs import spans as span_module


class _Clock:
    """The one thing a run reads from its environment: ``now``."""

    def __init__(self):
        self.now = 0.0
        self.telemetry = None


class _RefSpan:
    __slots__ = ("stage", "track", "begin_ns", "end_ns", "args",
                 "span_id", "parent_id", "links", "req")

    def __init__(self, stage, track, begin_ns, end_ns, args, span_id,
                 parent_id, links, req):
        self.stage = stage
        self.track = track
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        self.args = dict(args) if args else None
        self.span_id = span_id
        self.parent_id = parent_id
        self.links = links
        self.req = req


class _RefRun:
    """Recording, closing and the bounded ring, as a deque of spans."""

    def __init__(self, capacity, clock):
        self.ring = collections.deque(maxlen=capacity)
        self.recorded = 0
        self.evicted = 0
        self.clock = clock
        self.next_span = 0
        self.next_req = 0

    def append(self, span):
        if len(self.ring) == self.ring.maxlen:
            self.evicted += 1
        self.ring.append(span)
        self.recorded += 1
        return span

    def _ids(self, ctx, root):
        self.next_span += 1
        if ctx is not None:
            return self.next_span, ctx.span, ctx.req
        if root:
            self.next_req += 1
            return self.next_span, None, self.next_req
        return self.next_span, None, None

    def span(self, stage, track, dur, start, ctx, root, links, args):
        begin = self.clock.now if start is None else start
        sid, parent, req = self._ids(ctx, root)
        return self.append(_RefSpan(stage, track, begin, begin + dur, args,
                                    sid, parent,
                                    tuple(links) if links else None, req))

    def begin(self, stage, track, ctx, root, links, args):
        sid, parent, req = self._ids(ctx, root)
        return self.append(_RefSpan(stage, track, self.clock.now, None,
                                    args, sid, parent,
                                    tuple(links) if links else None, req))

    def end(self, span, args):
        span.end_ns = self.clock.now
        if args:
            merged = dict(span.args or {})
            merged.update(args)
            span.args = merged

    def positions(self):
        """The replaced ``SpanLog.positions()``: ``(spans, refs, first)``
        with each ref a ``(parent_id, links)`` pair."""
        spans = list(self.ring)
        first = spans[0].span_id if spans else None
        if first is not None and [s.span_id for s in spans] == list(
                range(first, first + len(spans))):
            return spans, [(s.parent_id, s.links) for s in spans], first
        spans = [s for s in spans if s.span_id is not None]
        index = {s.span_id: pos for pos, s in enumerate(spans)}
        refs = [(None if s.parent_id is None
                 else index.get(s.parent_id, -1),
                 tuple(index.get(link, -1) for link in s.links)
                 if s.links else None) for s in spans]
        return spans, refs, 0


def _typed(args):
    """Attributes with key order and value types: ``True != 1`` here."""
    if args is None:
        return None
    return [(key, type(value), value) for key, value in args.items()]


def _fields(span):
    return (span.stage, span.track, span.begin_ns, span.end_ns,
            _typed(span.args), span.span_id, span.parent_id, span.links,
            span.req)


def _assert_same(log, ref):
    assert [_fields(span) for span in log] == \
        [_fields(span) for span in ref.ring]
    assert len(log) == len(ref.ring)
    assert (log.recorded, log.evicted) == (ref.recorded, ref.evicted)
    assert log.stages() == sorted({s.stage for s in ref.ring})
    assert log.tracks() == sorted({s.track for s in ref.ring})
    assert [_fields(s) for s in log.spans("b.stage", track="t1")] == [
        _fields(s) for s in ref.ring
        if s.stage == "b.stage" and s.track == "t1"]
    assert log.identified() == sum(
        1 for s in ref.ring if s.span_id is not None)
    copy, first = log.positions()
    spans, refs, ref_first = ref.positions()
    assert first == ref_first
    assert len(copy) == len(spans)
    for pos, (span, (parent, links)) in enumerate(zip(spans, refs)):
        built = copy.span_at(pos)
        assert _fields(built)[:6] == _fields(span)[:6]
        assert (built.parent_id, built.links, built.req) == \
            (parent, links, span.req)


_STAGES = ["a.stage", "b.stage", "c.stage"]
_TRACKS = ["t0", "t1", "t2"]
_values = st.one_of(st.integers(-2, 2_000), st.booleans(),
                    st.sampled_from(["host", "smartnic", "1"]))
_attrs = st.dictionaries(st.sampled_from(["tid", "n", "where", "ok"]),
                         _values, max_size=3)
_ids = st.one_of(st.none(), st.integers(1, 40))
#: No ctx, the ctx after the k-th handle so far, or a raw token.
_ctx = st.one_of(st.none(), st.integers(0, 40),
                 st.tuples(_ids, _ids))
_links = st.one_of(st.none(), st.lists(st.integers(1, 40), min_size=1,
                                       max_size=3))
_times = st.integers(0, 60).map(float)
_op = st.one_of(
    st.tuples(st.just("span"), st.sampled_from(_STAGES),
              st.sampled_from(_TRACKS), st.integers(0, 5).map(float),
              st.one_of(st.none(), _times), _ctx, st.booleans(), _links,
              _attrs),
    st.tuples(st.just("begin"), st.sampled_from(_STAGES),
              st.sampled_from(_TRACKS), _ctx, st.booleans(), _links,
              _attrs),
    # Close the k-th handle so far, evicted or not.
    st.tuples(st.just("end"), st.integers(0, 40), _attrs),
    st.tuples(st.just("append"), st.sampled_from(_STAGES),
              st.sampled_from(_TRACKS), _times,
              st.one_of(st.none(), _times), _attrs, _ids, _ids, _links,
              _ids),
    st.tuples(st.just("tick"), st.integers(1, 9).map(float)),
)


def _ctx_of(choice, run, handles):
    if choice is None:
        return None, None
    if isinstance(choice, int):
        if not handles:
            return None, None
        handle, ref_span = handles[choice % len(handles)]
        ctx = run.ctx_after(handle)
        return ctx, SpanCtx(ref_span.req, ref_span.span_id)
    return SpanCtx(choice[1], choice[0]), SpanCtx(choice[1], choice[0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.lists(_op, max_size=60),
       st.sampled_from([1, 2, 5, span_module._BATCH]))
# Ending an evicted span leaves the span now in its slot untouched: with
# capacity 1 the ring's only slot has gone to the next span.
@example(1, [("begin", "a.stage", "t0", None, True, None, {"tid": 1}),
             ("span", "b.stage", "t1", 2.0, None, None, False, None,
              {"n": 5}),
             ("tick", 3.0),
             ("end", 0, {"ok": True, "tid": 9})], 1)
# The same after compaction moved slots: the handle's old slot index
# now holds a newer span.
@example(2, [("begin", "a.stage", "t0", None, True, None, {}),
             ("span", "b.stage", "t0", 1.0, None, None, False, None, {}),
             ("span", "c.stage", "t1", 1.0, None, None, False, None, {}),
             ("span", "b.stage", "t1", 1.0, None, None, False, None, {}),
             ("tick", 1.0),
             ("end", 0, {"where": "smartnic"})], 1)
# A track whose spans were all evicted drops out of tracks().
@example(2, [("span", "a.stage", "t0", 1.0, None, None, True, None, {}),
             ("span", "b.stage", "t1", 1.0, None, 0, False, None, {}),
             ("span", "c.stage", "t1", 1.0, None, 1, False, None, {})],
         span_module._BATCH)
def test_span_log_matches_the_deque_of_spans(capacity, ops, batch):
    with mock.patch.object(span_module, "_BATCH", batch):
        _run_against_reference(capacity, ops)


def _run_against_reference(capacity, ops):
    clock = _Clock()
    run = Telemetry(span_capacity=capacity).attach(clock)
    ref = _RefRun(capacity, clock)
    handles = []  # (handle, reference span), every one ever returned
    for op in ops:
        kind = op[0]
        if kind == "span":
            _, stage, track, dur, start, ctx, root, links, attrs = op
            ctx, ref_ctx = _ctx_of(ctx, run, handles)
            handles.append((
                run.span(stage, track, dur_ns=dur, start_ns=start, ctx=ctx,
                         root=root, links=links, **attrs),
                ref.span(stage, track, dur, start, ref_ctx, root, links,
                         attrs)))
        elif kind == "begin":
            _, stage, track, ctx, root, links, attrs = op
            ctx, ref_ctx = _ctx_of(ctx, run, handles)
            handles.append((
                run.begin(stage, track, ctx=ctx, root=root, links=links,
                          **attrs),
                ref.begin(stage, track, ref_ctx, root, links, attrs)))
        elif kind == "end":
            if handles:
                handle, ref_span = handles[op[1] % len(handles)]
                run.end(handle, **op[2])
                ref.end(ref_span, op[2])
        elif kind == "append":
            _, stage, track, begin, end, attrs, sid, parent, links, req = op
            links = tuple(links) if links else None
            run.spans.append(Span(stage, track, begin, end, attrs or None,
                                  sid, parent, links, req))
            ref.append(_RefSpan(stage, track, begin, end, attrs, sid,
                                parent, links, req))
        else:
            clock.now += op[1]
    # Pickle first, while spans may still wait to enter the columns.
    clone = pickle.loads(pickle.dumps(run.spans))
    _assert_same(run.spans, ref)
    retained = {id(span) for span in ref.ring}
    for handle, ref_span in handles:
        # Identity outlives eviction; the rest reads through while the
        # span is retained.
        assert (handle.span_id, handle.req) == \
            (ref_span.span_id, ref_span.req)
        if id(ref_span) in retained:
            assert _fields(handle.snapshot()) == _fields(ref_span)
            assert (handle.end_ns, _typed(handle.args), handle.parent_id,
                    handle.links) == (ref_span.end_ns, _typed(ref_span.args),
                                      ref_span.parent_id, ref_span.links)
        else:
            assert handle.snapshot() is None and handle.end_ns is None
    _assert_same(clone, ref)
    # The clone keeps recording like the log it was pickled from.
    extra = Span("c.stage", "t2", 70.0, 71.0, {"ok": False}, 99, 1, (2,), 3)
    clone.append(extra)
    ref.append(_RefSpan("c.stage", "t2", 70.0, 71.0, {"ok": False}, 99, 1,
                        (2,), 3))
    _assert_same(clone, ref)


def test_handle_writes_reach_the_log_until_eviction():
    clock = _Clock()
    run = Telemetry(span_capacity=2).attach(clock)
    handle = run.span("dmaq.produce", "ring:q", root=True, n=2)
    handle.end_ns = 40.0
    handle.args = {"n": 2, "sync": False}
    span, = run.spans
    assert (span.end_ns, _typed(span.args)) == (
        40.0, [("n", int, 2), ("sync", bool, False)])
    run.span("b.stage", "t", tid=1)
    run.span("c.stage", "t", tid=2)  # evicts the handle's span
    handle.end_ns = 99.0
    handle.args = {"n": 7}
    run.end(handle, tid=3)
    assert [(s.stage, s.end_ns, s.args) for s in run.spans] == [
        ("b.stage", 0.0, {"tid": 1}), ("c.stage", 0.0, {"tid": 2})]
    assert run.ctx_after(handle).span == 1
