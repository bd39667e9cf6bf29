"""Tests for the telemetry memos: the per-run causal pass shared by
every report, the metric-handle memo in ``MetricsRegistry`` and the
handles hot sites hold (``MetricHandles``).

All are pure caches: every report, trace and metric must be the one the
uncached path produces, and none may travel in a shard.
"""

import enum
import operator
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Placement, WaveChannel, WaveOpts
from repro.ghost import GhostAgent, GhostKernel, GhostTask
from repro.hw import HwParams, Interconnect, Machine
from repro.obs import MetricHandles, MetricsRegistry, Span, Telemetry, \
    analyze_report, run_report
from repro.obs import causal
from repro.obs.causal import CausalGraph, blame_table, layer_of, \
    request_traces
from repro.obs.metrics import CounterMetric, _FrozenTimeWeighted, _key
from repro.queues.ring import FloemRing
from repro.sched import FifoPolicy, ShinjukuPolicy
from repro.sim import Environment


def _observed_hub(policy=None):
    """A hub holding one small, fully traced sched deployment."""
    hub = Telemetry()
    with hub:
        env = Environment()
        machine = Machine(env, HwParams.pcie())
        channel = WaveChannel(machine, Placement.NIC, WaveOpts.full(),
                              name="t")
        kernel = GhostKernel(channel, core_ids=[0, 1],
                             rng=random.Random(1))
        agent = GhostAgent(channel, policy or ShinjukuPolicy(30_000),
                           kernel.core_ids)
        agent.start()
        kernel.start()
        tasks = [GhostTask(service_ns=100_000)] + \
            [GhostTask(service_ns=5_000) for _ in range(7)]

        def feeder():
            for task in tasks:
                yield from kernel.submit(task)

        env.process(feeder(), name="feeder")
        env.run(until=5_000_000)
    return hub


def _shape(trace):
    return (trace.run_label, trace.req, trace.latency_ns, trace.partial,
            [span.span_id for span in trace.path_spans()],
            trace.blame)


def _fresh_traces(run):
    graph = CausalGraph(run)
    return graph.truncated, graph.traces()


def _fresh_columns(run):
    return CausalGraph(run).columns()


# -- the causal pass ---------------------------------------------------------

def test_memoized_reports_equal_fresh_causal_graph_reports(monkeypatch):
    hub = _observed_hub()
    memo_reports = [run_report(hub), analyze_report(hub),
                    analyze_report(hub, percentile=50.0)]
    run = hub.runs[0]
    assert run._causal is not None  # the reports did share one pass
    traces, truncated = request_traces(hub)
    fresh_truncated, fresh = _fresh_traces(run)
    assert truncated == fresh_truncated
    assert [_shape(t) for t in traces] == [_shape(t) for t in fresh]
    # The memoized columns hold what the traces do, layers in the order
    # the requests were first charged to them.
    columns = run._causal[1]
    assert columns.truncated == truncated
    assert list(columns.req) == [t.req for t in fresh]
    assert list(columns.latency_ns) == [t.latency_ns for t in fresh]
    assert [bool(flag) for flag in columns.partial] == \
        [t.partial for t in fresh]
    charged = {}
    for trace in fresh:
        charged.update(dict.fromkeys(trace.blame))
    assert list(columns.blame) == list(charged)
    for layer, column in columns.blame.items():
        assert list(column) == [t.blame.get(layer, 0.0) for t in fresh]
    # Render again with every pass and every graph built fresh.
    monkeypatch.setattr(causal, "_columns", _fresh_columns)
    monkeypatch.setattr(causal, "_graph", CausalGraph)
    assert [run_report(hub), analyze_report(hub),
            analyze_report(hub, percentile=50.0)] == memo_reports


def test_callers_get_fresh_lists():
    hub = _observed_hub()
    first, _ = request_traces(hub)
    first.clear()
    again, _ = request_traces(hub)
    assert again


def test_new_span_invalidates_the_pass():
    hub = _observed_hub()
    run = hub.runs[0]
    before, _ = request_traces(hub)
    run.span("rpc.request", "rpc:x", dur_ns=5.0, root=True, where="host")
    after, _ = request_traces(hub)
    assert len(after) == len(before) + 1
    assert after[-1].req == run._next_req


def test_relabel_invalidates_the_pass():
    hub = _observed_hub()
    run = hub.runs[0]
    analyze_report(hub)
    run.label = "renamed"
    traces, _ = request_traces(hub)
    assert {t.run_label for t in traces} == {"renamed"}
    assert "renamed" in analyze_report(hub)


def test_closing_an_open_span_invalidates_the_pass():
    hub = Telemetry()
    env = Environment()
    run = hub.attach(env)
    root = run.span("sched.submit", "kernel", root=True)
    task = run.begin("task.run", "core0", ctx=run.ctx_after(root))

    def proc():
        yield env.timeout(40)
        run.end(task)

    env.process(proc())
    open_trace, = request_traces(hub)[0]
    assert open_trace.latency_ns == 0.0
    env.run()
    closed_trace, = request_traces(hub)[0]
    assert closed_trace.latency_ns == pytest.approx(40.0)


def test_shard_round_trip_carries_no_memo():
    hub = _observed_hub()
    reports = (run_report(hub), analyze_report(hub))
    assert hub.runs[0]._causal is not None
    data = pickle.dumps(hub.shard())
    assert b"RequestTrace" not in data
    assert b"RequestColumns" not in data
    assert b"CausalGraph" not in data
    absorbed = Telemetry()
    absorbed.absorb(pickle.loads(data))
    assert absorbed.runs[0]._causal is None
    assert absorbed.runs[0]._graph is None
    assert (run_report(absorbed), analyze_report(absorbed)) == reports


def test_representative_columns_follow_latency_rank():
    hub = Telemetry()
    run = hub.attach(Environment())
    for i, (stage, dur) in enumerate([("task.run", 30.0),
                                      ("msix.deliver", 10.0),
                                      ("agent.commit", 20.0)]):
        run.span(stage, "t", start_ns=100.0 * i, dur_ns=dur, root=True)
    rows, traces, _ = blame_table(hub)
    by_layer = {row[0]: row[3:] for row in rows}
    # Nearest rank over 3 requests: p50 is the 20 ns one, p95 and p99
    # the 30 ns one.
    assert by_layer["nic-core"] == (20.0, 0.0, 0.0)
    assert by_layer["host-cpu"] == (0.0, 30.0, 30.0)
    assert by_layer["pcie"] == (0.0, 0.0, 0.0)


def test_blame_rows_equal_per_trace_sums_bit_for_bit():
    """Over two runs, the column sums give exactly the floats of adding
    each trace's blame dict in run order, then request id order."""
    hub = _observed_hub()
    hub.absorb(_observed_hub(FifoPolicy()).shard())
    assert len(hub.runs) == 2
    rows, requests, truncated = blame_table(hub)
    traces, traced_truncated = request_traces(hub)
    assert (len(requests), truncated) == (len(traces), traced_truncated)
    ordered = sorted(traces, key=operator.attrgetter(
        "latency_ns", "run_label", "req"))
    reps = [ordered[causal._rank(len(traces), q)].blame
            for q in (50.0, 95.0, 99.0)]
    sums = {}
    for trace in traces:
        for layer, ns in trace.blame.items():
            sums[layer] = sums.get(layer, 0.0) + ns
    grand = sum(sums.values())
    assert [row[0] for row in rows] == [
        layer for layer in causal.LAYERS if layer in sums]
    assert rows == [(layer, sums[layer] / len(traces), sums[layer] / grand,
                     *[rep.get(layer, 0.0) for rep in reps])
                    for layer, *_ in rows]


def test_representatives_rank_like_sorted_traces():
    """At every percentile the representative is the request a stable
    sort of all traces by (latency, run label, request id) puts at that
    rank: latency ties across runs go to the smaller label, then the
    smaller id, then the earlier run."""
    hub = Telemetry()
    for label, starts, latencies in (
            ("b", 0.0, [10.0, 20.0, 10.0]), ("a", 0.0, [10.0, 10.0]),
            ("b", 500.0, [10.0]), ("", 0.0, [20.0, 5.0])):
        run = hub.attach(Environment(), label=label)
        for i, dur in enumerate(latencies):
            run.span("task.run", "t", start_ns=starts + 100.0 * i,
                     dur_ns=dur, root=True)
    traces, _ = request_traces(hub)
    ordered = sorted(traces, key=operator.attrgetter(
        "latency_ns", "run_label", "req"))
    _, requests, _ = blame_table(hub)
    for q in range(101):
        run, columns, k = requests.at_rank(float(q))
        rep = ordered[causal._rank(len(ordered), q)]
        trace = CausalGraph(run).trace(columns.req[k])
        assert (trace.run_label, trace.req, trace.latency_ns) == \
            (rep.run_label, rep.req, rep.latency_ns)
        assert trace.path_spans()[0].begin_ns == \
            rep.path_spans()[0].begin_ns


# -- the analysis against a direct transcription of its definition ----------

def _reference_traces(run):
    """Critical paths and blame computed the plain way: a full index
    first, then per hop every surviving predecessor gathered and the
    latest-finishing one taken."""
    def end_key(span):
        end = span.end_ns if span.end_ns is not None else span.begin_ns
        return (end, span.span_id or 0)

    spans = [s for s in run.spans if s.span_id is not None]
    by_id = {s.span_id: s for s in spans}
    children, requests, partial_reqs, truncated = {}, {}, set(), 0
    for span in spans:
        if span.req is not None:
            requests.setdefault(span.req, []).append(span)
        preds = ([span.parent_id] if span.parent_id is not None else []) \
            + list(span.links or ())
        for pred in preds:
            if pred in by_id:
                children.setdefault(pred, []).append(span.span_id)
            else:
                truncated += 1
                if span.req is not None:
                    partial_reqs.add(span.req)
    out = []
    for req in sorted(requests):
        mine = requests[req]
        partial = req in partial_reqs
        roots = [s for s in mine
                 if s.parent_id is None or s.parent_id not in by_id]
        root = roots[0] if roots else mine[0]
        partial = partial or not roots
        reachable, stack = set(), [root.span_id]
        while stack:
            sid = stack.pop()
            if sid not in reachable:
                reachable.add(sid)
                stack.extend(children.get(sid, ()))
        terminal = max([s for s in mine if s.span_id in reachable],
                       key=end_key)
        path, cursor = [terminal], terminal
        while True:
            refs = ([cursor.parent_id] if cursor.parent_id is not None
                    else []) + list(cursor.links or ())
            partial = partial or any(r not in by_id for r in refs)
            preds = [by_id[r] for r in refs if r in by_id
                     and r in reachable
                     and r not in {s.span_id for s in path}]
            if not preds:
                break
            cursor = max(preds, key=end_key)
            path.append(cursor)
        path.reverse()
        queued = [(s.begin_ns, end_key(s)[0]) for s in mine
                  if s.stage == "sched.queue"]
        blame, at = {}, path[0].begin_ns
        for span in path:
            if span.begin_ns > at:
                gap = span.begin_ns - at
                covered = min(gap, sum(
                    max(0.0, min(span.begin_ns, qe) - max(at, qb))
                    for qb, qe in queued)) if queued else 0.0
                if covered:
                    blame["sched-policy"] = \
                        blame.get("sched-policy", 0.0) + covered
                if gap - covered:
                    blame["wait"] = blame.get("wait", 0.0) + gap - covered
                at = span.begin_ns
            if end_key(span)[0] > at:
                layer = layer_of(span)
                blame[layer] = blame.get(layer, 0.0) + end_key(span)[0] - at
                at = end_key(span)[0]
        latency = max(0.0, end_key(terminal)[0] - path[0].begin_ns)
        out.append((run.label, req, latency, partial,
                    [s.span_id for s in path], list(blame.items())))
    return truncated, out


_STAGES = ["sched.submit", "sched.queue", "task.run", "ring.consume",
           "agent.commit", "msix.deliver", "rpc.request", "fault.fire"]
_ref = st.one_of(st.none(), st.integers(1, 26))
_span_specs = st.lists(st.tuples(
    st.sampled_from(_STAGES), st.integers(0, 40),
    st.one_of(st.none(), st.integers(0, 15)), st.one_of(st.none(),
                                                        st.integers(1, 3)),
    _ref, st.one_of(st.none(), st.lists(st.integers(1, 26), min_size=1,
                                        max_size=3)),
    st.booleans()), min_size=1, max_size=24)
#: How the log numbers its spans: None for 1, 2, ... in record order
#: (the ids a recorded run has), else ``(offset, order)``: the ``k``-th
#: span gets id ``offset + 1 + order[k - 1]``, the ids permuted out of
#: record order and shifted off 1.
_renumberings = st.one_of(st.none(), st.tuples(
    st.integers(0, 40), st.permutations(range(24))))


@settings(max_examples=200, deadline=None)
@given(_span_specs, st.sampled_from([6, 200]), _renumberings)
# A batch span with a severed parent on a request's critical path.
@example([("sched.submit", 0, 5, 1, None, None, True),
          ("ring.consume", 5, 5, None, 26, [1], True),
          ("task.run", 10, 10, 1, 2, None, True)], 200, None)
# Ids in reverse record order: ties on the terminal's end, and on the
# binding predecessor's end, go to the larger span id, which here is
# the earlier-recorded span.
@example([("sched.submit", 0, None, 1, None, None, True),
          ("task.run", 0, None, 1, None, [1], True)], 200,
         (0, list(reversed(range(24)))))
@example([("sched.submit", 0, 1, 1, None, None, True),
          ("agent.commit", 1, 4, 1, 1, None, True),
          ("ring.consume", 2, 3, None, 1, None, True),
          ("task.run", 5, 5, 1, 2, [3], True)], 200,
         (0, list(reversed(range(24)))))
def test_analysis_matches_reference_walk(specs, capacity, renumbering):
    """Random span graphs -- forward and dangling references, ties,
    open spans, evictions, spans without identity, ids out of record
    order -- analyse exactly as the plain definition does, down to
    blame insertion order."""
    count = len(specs)
    if renumbering is None:
        offset, order = 0, range(count)
    else:
        offset, order = renumbering
        order = [k for k in order if k < count]
    # References to spans of the log follow their renumbering; the
    # rest (ids past the last span) stay outside the log's ids.
    span_id = {k: offset + 1 + order[k - 1] if k <= count else offset + k
               for k in range(1, 27)}
    hub = Telemetry(span_capacity=capacity)
    run = hub.attach(Environment())
    for k, (stage, begin, dur, req, parent, links, ident) in \
            enumerate(specs, start=1):
        end = None if dur is None else float(begin + dur)
        run.spans.append(Span(
            stage, "t", float(begin), end,
            {"where": "smartnic"} if k % 2 else None,
            span_id[k] if ident else None,
            None if parent is None else span_id[parent],
            tuple(span_id[link] for link in links) if links else None,
            req))
    traces, truncated = request_traces(hub)
    assert (truncated, [(t.run_label, t.req, t.latency_ns, t.partial,
                         [s.span_id for s in t.path_spans()],
                         list(t.blame.items())) for t in traces]) == \
        _reference_traces(run)


# -- metric handles ----------------------------------------------------------

class _Kind(str, enum.Enum):
    """Equal to (and hashing like) its str value, rendering otherwise."""
    TRUE = "True"


_FLAGS = [True, 1, "True", _Kind.TRUE, "1", 1.0, True, 1, "True",
          _Kind.TRUE, "1", 1.0]


def test_label_values_land_on_their_canonical_metrics():
    reg = MetricsRegistry()
    reference = MetricsRegistry()
    for by, flag in enumerate(_FLAGS, start=1):
        labels = {"flag": flag, "op": "push"}
        metric = reg.counter("ops", **labels)
        # The memo hands back exactly the metric _key identifies.
        assert metric is reg._metrics[_key("ops", labels)]
        metric.incr(by)
        reference._resolve(CounterMetric, _key("ops", labels), ()).incr(by)
    assert reg.dump() == reference.dump()
    assert reg.counter("ops", flag=True, op="push") is \
        reg.counter("ops", flag="True", op="push")
    assert reg.counter("ops", flag=1, op="push") is not \
        reg.counter("ops", flag=True, op="push")
    assert reg.counter("ops", flag=_Kind.TRUE, op="push") is not \
        reg.counter("ops", flag="True", op="push")


def test_label_order_and_kind_checks_survive_the_memo():
    reg = MetricsRegistry()
    a = reg.counter("ops", ring="r", op="push")
    assert reg.counter("ops", op="push", ring="r") is a
    assert reg.counter("ops", ring="r", op="push") is a
    with pytest.raises(TypeError):
        reg.histogram("ops", ring="r", op="push")


def test_merge_leaves_no_stale_timeweighted_handle():
    env = Environment()
    reg = MetricsRegistry(env)
    frozen_key = reg.timeweighted("depth", ring="a").key
    reg.timeweighted("depth", ring="b").set(1.0)
    other = MetricsRegistry()
    other._metrics[frozen_key] = _FrozenTimeWeighted(frozen_key, 2.0, 40.0)
    reg.merge(other)
    current = reg._metrics[frozen_key]
    assert isinstance(current, _FrozenTimeWeighted)
    # The lookup reaches the frozen metric now in the registry (which
    # takes no samples) instead of the live one merge replaced.
    with pytest.raises(TypeError, match="_FrozenTimeWeighted"):
        reg.timeweighted("depth", ring="a").set(5.0)
    assert current.value == 2.0
    # A metric merge left live still takes samples through the lookup.
    reg.timeweighted("depth", ring="b").set(3.0)
    assert reg._metrics[_key("depth", {"ring": "b"})].value == 3.0


def test_unpickled_registry_resolves_its_own_metrics():
    reg = MetricsRegistry()
    reg.counter("ops", kind="push").incr(2)
    clone = pickle.loads(pickle.dumps(reg))
    assert clone._handles == {}
    handle = clone.counter("ops", kind="push")
    assert handle is clone._metrics[_key("ops", {"kind": "push"})]
    assert handle is not reg.counter("ops", kind="push")
    handle.incr()
    assert clone.counter("ops", kind="push").value == 3
    assert reg.counter("ops", kind="push").value == 2


def test_held_handles_resolve_on_first_read_only():
    env = Environment()
    run = Telemetry().attach(env)
    handles = MetricHandles(run, {
        "push": ("counter", "ops", {"op": "push"}),
        "depth": ("timeweighted", "depth", {}),
        "lat": ("histogram", "lat_ns", {})}, ring="r")
    assert len(run.metrics) == 0
    handles.push.incr(2)
    assert handles.push is run.metrics.counter("ops", ring="r", op="push")
    assert len(run.metrics) == 1
    handles.depth.set(3.0)
    assert run.metrics.dump() == ('depth{ring="r"}:integral 0\n'
                                  'depth{ring="r"}:last 3\n'
                                  'ops{op="push",ring="r"} 2')
    with pytest.raises(AttributeError):
        handles.pop
    assert len(run.metrics) == 2


def test_ring_handles_follow_the_run_and_match_the_shorthands():
    env = Environment()
    link = Interconnect(HwParams.pcie())
    ring = FloemRing(env, "r", link.host_local_path(),
                     link.host_local_path())
    first = Telemetry().attach(env)
    ring.produce([1, 2])
    ring.consume()
    # Never polled: the poll counter stays out of the dump.
    assert "poll" not in first.metrics.dump()
    second = Telemetry().attach(env)
    ring.produce([3])
    ring.poll_cost()
    assert first.metrics.counter("ring_ops", ring="r", op="push").value == 2
    assert second.metrics.counter("ring_ops", ring="r", op="push").value == 1
    # The same updates through the shorthands give the same dump.
    reference = Telemetry().attach(Environment())
    reference.count("ring_ops", by=1, ring="r", op="push")
    reference.metrics.timeweighted("ring_depth", ring="r").set(len(ring))
    reference.count("ring_ops", ring="r", op="poll")
    assert second.metrics.dump() == reference.metrics.dump()


def test_link_handles_follow_the_run_and_match_the_shorthands():
    env = Environment()
    link = Interconnect(HwParams.pcie(), env=env)
    first = Telemetry().attach(env)
    link.mmio_read()
    link.msix_send()
    # Never written, never sent by register: both stay out of the dump.
    assert 'op="write"' not in first.metrics.dump()
    assert 'via="reg"' not in first.metrics.dump()
    second = Telemetry().attach(env)
    link.mmio_write()
    link.msix_send(via_ioctl=False)
    link.msix_send()
    link.msix_send()
    assert link._tel_handles.tel is second
    assert first.metrics.counter("msix_sends", via="ioctl").value == 1
    assert second.metrics.counter("msix_sends", via="ioctl").value == 2
    # The same updates through the shorthands give the same dump.
    reference = Telemetry().attach(Environment())
    reference.count("mmio_ops", op="write")
    reference.count("msix_sends", via="reg")
    reference.count("msix_sends", via="ioctl")
    reference.count("msix_sends", via="ioctl")
    assert second.metrics.dump() == reference.metrics.dump()
    # A link built without an env has no run to count in.
    bare = Interconnect(HwParams.pcie())
    assert bare.msix_send() == HwParams.pcie().msix_send_ioctl
    assert bare._tel_handles is None
