"""Tests for causal request tracing, critical-path blame analysis, and
the partition observatory (repro.obs.causal + the span identity layer).
"""

import gc
import hashlib
import pickle
import random
import tracemalloc

import pytest

from repro.core import Placement, WaveChannel, WaveOpts
from repro.ghost import GhostAgent, GhostKernel, GhostTask
from repro.hw import HwParams, Machine
from repro.obs import SpanCtx, Telemetry, analyze_report, causal, \
    run_report
from repro.obs.causal import (
    CausalGraph,
    RequestTrace,
    blame_table,
    layer_of,
    partition_section,
    request_traces,
)
from repro.rpc.experiment import RpcScenario, run_rpc_point
from repro.sched import FifoPolicy, ShinjukuPolicy
from repro.sched.experiment import run_sched_point
from repro.sim import Environment, PartitionPlan
from repro.workloads import RocksDbModel


# -- span identity -----------------------------------------------------------

def _attached_run():
    env = Environment()
    hub = Telemetry()
    return env, hub.attach(env)


def test_root_span_mints_request_and_ids_are_monotonic():
    _, run = _attached_run()
    a = run.span("rpc.request", "rpc:x", dur_ns=5.0, root=True)
    b = run.span("dma.transfer", "dma", dur_ns=3.0, root=True)
    assert a.span_id == 1 and a.req == 1 and a.parent_id is None
    assert b.span_id == 2 and b.req == 2 and b.parent_id is None


def test_ctx_threads_parent_and_request():
    _, run = _attached_run()
    root = run.span("agent.commit", "agent:a", dur_ns=1.0, root=True)
    ctx = run.ctx_after(root)
    child = run.span("msix.deliver", "pcie", dur_ns=1.0, ctx=ctx)
    assert child.parent_id == root.span_id
    assert child.req == root.req
    # ctx wins over root: no second request id is minted.
    grand = run.span("core.dispatch", "core0", dur_ns=1.0,
                     ctx=run.ctx_after(child), root=True)
    assert grand.req == root.req


def test_ctx_after_propagates_none():
    _, run = _attached_run()
    assert run.ctx_after(None) is None


def test_ids_reset_per_environment():
    hub = Telemetry()
    for _ in range(2):
        run = hub.attach(Environment())
        span = run.span("rpc.request", "rpc:x", root=True)
        assert span.span_id == 1
        assert span.req == 1


def test_links_recorded_as_tuple():
    _, run = _attached_run()
    a = run.span("sched.submit", "kernel", root=True)
    b = run.span("sched.submit", "kernel", root=True)
    batch = run.span("ring.produce", "ring:m",
                     links=[a.span_id, b.span_id], n=2)
    assert batch.links == (a.span_id, b.span_id)
    assert batch.req is None


# -- layer mapping -----------------------------------------------------------

@pytest.mark.parametrize("stage,args,layer", [
    ("task.run", None, "host-cpu"),
    ("core.dispatch", None, "host-cpu"),
    ("sched.submit", None, "host-cpu"),
    ("sched.queue", None, "sched-policy"),
    ("msix.deliver", None, "pcie"),
    ("dma.transfer", None, "pcie"),
    ("agent.commit", None, "nic-core"),
    ("sol.iterate", None, "nic-core"),
    ("ring.produce", None, "ring"),
    ("dmaq.consume", None, "ring"),
    ("fault.fire", None, "fault"),
    ("rpc.request", {"where": "host"}, "host-cpu"),
    ("rpc.request", {"where": "smartnic"}, "nic-core"),
    ("mystery.stage", None, "other"),
])
def test_layer_of(stage, args, layer):
    from repro.obs import Span
    assert layer_of(Span(stage, "t", 0.0, 1.0, args)) == layer


# -- critical path + blame on a hand-built graph -----------------------------

def _hand_built_hub():
    """One request: rpc.request -> ring hop -> agent.commit -> msix ->
    task.run, with a gap covered by sched.queue and a plain gap."""
    env = Environment()
    hub = Telemetry()
    run = hub.attach(env)
    rpc = run.span("rpc.request", "rpc:x", start_ns=0.0, dur_ns=10.0,
                   root=True, where="host")
    ring = run.span("ring.produce", "ring:m", start_ns=10.0, dur_ns=5.0,
                    links=[rpc.span_id])
    commit = run.span("agent.commit", "agent:a", start_ns=15.0,
                      dur_ns=10.0, ctx=run.ctx_after(ring))
    msix = run.span("msix.deliver", "pcie", start_ns=25.0, dur_ns=5.0,
                    ctx=run.ctx_after(commit))
    # Queue-covered gap 30..50, then the run 50..80 (wait 0).
    run.span("sched.queue", "core0", start_ns=30.0, dur_ns=20.0,
             ctx=SpanCtx(rpc.req, msix.span_id))
    run.span("task.run", "core0", start_ns=50.0, dur_ns=30.0,
             ctx=SpanCtx(rpc.req, msix.span_id))
    return hub, rpc.req


def test_hand_built_critical_path_and_blame():
    hub, req = _hand_built_hub()
    graph = CausalGraph(hub.runs[0])
    trace = graph.trace(req)
    assert trace is not None
    assert not trace.partial
    assert [s.stage for s in trace.path_spans()] == [
        "rpc.request", "ring.produce", "agent.commit", "msix.deliver",
        "task.run"]
    assert trace.latency_ns == pytest.approx(80.0)
    assert trace.blame["host-cpu"] == pytest.approx(10.0 + 30.0)
    assert trace.blame["ring"] == pytest.approx(5.0)
    assert trace.blame["nic-core"] == pytest.approx(10.0)
    assert trace.blame["pcie"] == pytest.approx(5.0)
    # The 30..50 gap overlaps this request's sched.queue interval.
    assert trace.blame["sched-policy"] == pytest.approx(20.0)
    assert "wait" not in trace.blame
    assert sum(trace.blame.values()) == pytest.approx(trace.latency_ns)


def test_blame_rows_ordered_and_shares_sum_to_one():
    hub, _ = _hand_built_hub()
    rows, traces, truncated = blame_table(hub)
    assert truncated == 0
    assert len(traces) == 1
    layers = [r[0] for r in rows]
    assert layers == sorted(
        layers, key=["host-cpu", "pcie", "nic-core", "ring",
                     "sched-policy", "fault", "wait", "other"].index)
    assert sum(r[2] for r in rows) == pytest.approx(1.0)


def test_batch_links_do_not_splice_other_requests_into_a_path():
    """A shared batch hop fans in edges from many requests; the walk
    back must stay within the spans reachable from *this* request's
    root, not wander into a stranger's history."""
    env = Environment()
    hub = Telemetry()
    run = hub.attach(env)
    # Request A completes early; its terminal feeds the shared batch.
    a_root = run.span("sched.submit", "kernel", start_ns=0.0, root=True)
    a_run = run.span("task.run", "core0", start_ns=5.0, dur_ns=50.0,
                     ctx=run.ctx_after(a_root))
    # Request B arrives later; the batch consume links both.
    b_root = run.span("sched.submit", "kernel", start_ns=40.0, root=True)
    batch = run.span("ring.consume", "ring:m", start_ns=60.0, dur_ns=2.0,
                     links=[a_run.span_id, b_root.span_id])
    b_run = run.span("task.run", "core1", start_ns=70.0, dur_ns=10.0,
                     ctx=SpanCtx(b_root.req, batch.span_id))
    graph = CausalGraph(hub.runs[0])
    trace_b = graph.trace(b_root.req)
    assert [s.stage for s in trace_b.path_spans()] == [
        "sched.submit", "ring.consume", "task.run"]
    assert trace_b.path_spans()[0].span_id == b_root.span_id
    assert trace_b.latency_ns == pytest.approx(40.0)


def test_truncated_chain_degrades_gracefully():
    """Ring eviction severs edges: the analyzer counts them, flags the
    path partial, and never raises."""
    env = Environment()
    hub = Telemetry(span_capacity=3)
    run = hub.attach(env)
    root = run.span("rpc.request", "rpc:x", start_ns=0.0, dur_ns=1.0,
                    root=True, where="host")
    ctx = run.ctx_after(root)
    for i in range(4):  # evicts the root (capacity 3)
        span = run.span("core.dispatch", "core0", start_ns=float(i + 1),
                        dur_ns=1.0, ctx=ctx)
        ctx = run.ctx_after(span)
    assert run.spans.evicted > 0
    graph = CausalGraph(hub.runs[0])
    assert graph.truncated >= 1
    traces = graph.traces()
    assert len(traces) == 1
    assert traces[0].partial
    # The surviving suffix still yields a path and a blame table.
    assert traces[0].path
    assert sum(traces[0].blame.values()) == pytest.approx(
        traces[0].latency_ns)
    text = analyze_report(hub)
    assert "causal.truncated" in text


def test_unknown_request_returns_none():
    hub, _ = _hand_built_hub()
    graph = CausalGraph(hub.runs[0])
    assert graph.trace(999) is None


# -- index memory ------------------------------------------------------------

#: One request's chain after its root; the fourth hop is a batch span
#: that also links the previous request's batch span.
_CHAIN = ("msix.deliver", "ring.produce", "agent.loop", "ring.consume",
          "agent.commit", "core.dispatch", "task.run")


def test_index_retains_at_most_64_bytes_per_span():
    """The causal index keeps flat columns over span positions, not
    dicts keyed by span id: what a graph retains per span bounds the
    analysis' memory on long traced runs."""
    run = Telemetry().attach(Environment())
    batch = None
    for i in range(2_000):
        span = run.span("sched.submit", "kernel", start_ns=10.0 * i,
                        dur_ns=1.0, root=True)
        for hop, stage in enumerate(_CHAIN):
            links = [batch.span_id] if hop == 3 and batch else None
            span = run.span(stage, f"t{hop}", start_ns=10.0 * i + hop + 1,
                            dur_ns=1.0, ctx=run.ctx_after(span),
                            links=links)
            if hop == 3:
                next_batch = span
        batch = next_batch
    assert len(run.spans) == 16_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = CausalGraph(run)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert graph.truncated == 0
    assert graph.request_ids() == list(range(1, 2_001))
    assert retained / len(run.spans) <= 64


def test_no_span_objects_outlive_the_reports():
    """The log keeps columns, the causal memo keeps positions: after a
    traced Wave-16 FIFO point and both reports, no Span object is left
    (spans are built only while one is read, e.g. the rendered
    critical path)."""
    from repro.obs import Span
    from repro.sched.experiment import run_sched_point
    from repro.workloads import RocksDbModel
    hub = Telemetry()
    with hub:
        run_sched_point(Placement.NIC, WaveOpts.full(), 16, FifoPolicy,
                        RocksDbModel.fifo_mix, 600_000, duration_ns=1e6,
                        warmup_ns=2e5, seed=1)
    assert hub.total_spans() > 1_000
    assert "Critical path" in analyze_report(hub)
    assert "Causal request blame" in run_report(hub)
    assert hub.runs[0]._causal is not None
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, Span)]


def test_reports_keep_request_columns_and_peak_under_40_bytes_per_span(
        monkeypatch):
    """After both reports of a traced Wave-16 FIFO point, the run's
    causal memo holds per-request columns, no ``RequestTrace``: at most
    128 B per request. Rendering both reports lifts the traced memory
    less than 40 B per span above the finished run. The pass that
    memoized a ``RequestTrace`` per request kept ~545 B per request on
    this point and peaked ~72 B per span above it."""
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    hub = Telemetry()
    with hub:
        run_sched_point(Placement.NIC, WaveOpts.full(), 16, FifoPolicy,
                        RocksDbModel.fifo_mix, 600_000,
                        duration_ns=1_000_000, warmup_ns=200_000, seed=8)
    run = hub.runs[0]
    run.spans.compact()  # the finished run: every span in its columns
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_report(hub)
        analyze_report(hub)
        lift = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, RequestTrace)]
        run._graph = None  # the one index the hub keeps
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        requests = len(run._causal[1].req)
        run._causal = None
        gc.collect()
        memo = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert requests > 500
    assert memo / requests <= 128
    assert lift / len(run.spans) < 40


def test_a_hub_keeps_one_graph():
    """Analysing a sweep builds each run's graph in turn; only the one
    built last stays alive, reused until its run records a span."""
    hub = Telemetry()
    for _ in range(3):
        run = hub.attach(Environment())
        root = run.span("sched.submit", "kernel", root=True)
        run.span("task.run", "core0", dur_ns=5.0, ctx=run.ctx_after(root))
    assert "Critical path" in analyze_report(hub)
    assert sum(run._graph is not None for run in hub.runs) == 1
    first, last = hub.runs[0], hub.runs[-1]
    graph = causal._graph(last)
    assert causal._graph(last) is graph
    assert [run._graph is not None for run in hub.runs] == \
        [False, False, True]
    graph = causal._graph(first)
    assert [run._graph is not None for run in hub.runs] == \
        [True, False, False]
    first.span("task.run", "core0", dur_ns=1.0)
    assert causal._graph(first) is not graph


# -- end-to-end: a real sched deployment -------------------------------------

def _run_sched_deployment(policy=None, until=5_000_000):
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
    env.run(until=until)
    return env, kernel


def test_deployment_requests_traced_end_to_end():
    hub = Telemetry()
    with hub:
        _, kernel = _run_sched_deployment()
    assert kernel.completed == 8
    traces, truncated = request_traces(hub)
    assert truncated == 0
    # Every submitted task minted one request.
    assert len(traces) >= 8
    full = [t for t in traces
            if any(s.stage == "task.run" for s in t.path_spans())]
    assert len(full) >= 8
    for trace in full:
        stages = [s.stage for s in trace.path_spans()]
        assert stages[0] == "sched.submit"
        assert "task.run" in stages
        layers = set(trace.blame)
        assert "host-cpu" in layers
        assert trace.latency_ns > 0
        assert sum(trace.blame.values()) == pytest.approx(
            trace.latency_ns)
    # The offloaded protocol crosses the NIC: some request's path shows
    # nic-core (agent commit) work.
    assert any("nic-core" in t.blame for t in full)


def test_deployment_analysis_is_deterministic():
    texts = []
    for _ in range(2):
        hub = Telemetry()
        with hub:
            _run_sched_deployment()
        texts.append(analyze_report(hub))
    assert texts[0] == texts[1]
    assert "Causal request blame" in texts[0]


def test_run_report_includes_causal_and_observatory_sections(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    hub = Telemetry()
    with hub:
        _run_sched_deployment()
    text = run_report(hub)
    assert "## Causal request blame" in text
    assert "## Partition observatory" in text


# -- partition observatory ---------------------------------------------------
# Only the partitioned engine records an observatory, so every test that
# expects one clears the CI engine matrix's REPRO_NO_PARTITION first.

def test_observatory_populated_for_partitioned_deployment(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    hub = Telemetry()
    with hub:
        env, _ = _run_sched_deployment()
    assert env.partition is not None  # partitioned engine ran
    obs = hub.runs[0].partition
    assert obs is not None
    # Host cores and the NIC agent both dispatched windows.
    assert obs.windows["host"] > 0
    assert obs.windows["nic"] > 0
    assert obs.events["host"] > 0
    assert obs.events["nic"] > 0
    assert obs.total_events == sum(obs.events.values())
    # The MSI-X path crosses nic -> host.
    assert obs.traffic.get(("nic", "host"), 0) > 0
    # Fences cut windows short in both directions under this protocol.
    assert obs.stall_counts
    for key, count in obs.stall_counts.items():
        assert count > 0
        assert obs.stall_ns.get(key, 0.0) >= 0.0
    assert obs.speedup_bound() >= 1.0
    assert obs.busy_bound() >= 1.0
    assert max(obs.cp_events.values()) <= obs.total_events


def test_observatory_orders_receiver_chain_after_sender():
    env = Environment()
    Telemetry().attach(env)
    part = env.enable_partition(PartitionPlan.uniform(("a", "b"), 10.0),
                                use_partition=True)

    def sender():
        for _ in range(3):
            yield env.timeout(1)
        yield env.cross_timeout("b", 50)

    with env.domain("a"):
        env.process(sender())
    env.run()
    obs = part.observatory
    assert obs.windows == {"a": 2, "b": 1}
    assert obs.events == {"a": 5, "b": 1}
    assert obs.traffic == {("a", "b"): 1}
    # The send closed a's first window at 4 events; b's one event
    # extends that chain, not b's own empty one.
    assert obs.cp_events == {"a": 5, "b": 5}
    assert obs.busy_ns == {"a": 3.0, "b": 50.0}


def test_observatory_absent_without_telemetry(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    env, _ = _run_sched_deployment()
    assert env.telemetry is None
    assert env.partition is not None
    assert env.partition.observatory is None


def test_observatory_deterministic_across_runs(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    snaps = []
    for _ in range(2):
        hub = Telemetry()
        with hub:
            _run_sched_deployment()
        obs = hub.runs[0].partition
        snaps.append((obs.windows, obs.events, obs.busy_ns,
                      obs.stall_counts, obs.stall_ns, obs.traffic,
                      obs.cp_events, obs.total_events))
    assert snaps[0] == snaps[1]


def test_observatory_not_in_metrics_dump():
    """The observatory must never leak into the metrics registry: the
    telemetry digest is engine-independent."""
    from repro.obs import metrics_dump
    hub = Telemetry()
    with hub:
        _run_sched_deployment()
    dump = metrics_dump(hub)
    assert "partition" not in dump
    assert "observatory" not in dump


# The observatory's report text on two model points, as sha256 digests.
# Every window boundary and stall, each float summed in merge order,
# feeds this text (wheel bucket starts take part in the merge's bounds).
_FIFO_OBSERVATORY = \
    "510f681fa28784d09efc3ac2d61aa8ecdb63183833938533e701abd2ecf31bb6"
_RPC_OBSERVATORY = \
    "c3255e3fda7570c1b87246897834193f2262f200bef60fda60edca8be0774b98"


def _observatory_digest(hub):
    text = "\n".join(partition_section(hub))
    return hashlib.sha256(text.encode()).hexdigest()


def test_observatory_report_golden_fifo_point(monkeypatch):
    # Wave-16 FIFO at 600k req/s (the Fig 4a point), 2 ms simulated.
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    hub = Telemetry()
    counters = {}
    with hub:
        run_sched_point(Placement.NIC, WaveOpts.full(), 16, FifoPolicy,
                        RocksDbModel.fifo_mix, 600_000,
                        duration_ns=2_000_000, warmup_ns=400_000, seed=8,
                        counters=counters)
    assert sum(hub.runs[0].partition.windows.values()) == 12_038
    assert counters["partition_switches"] == 12_038
    assert counters["partition_cross_sends"] == 478
    assert counters["events_scheduled"] == 20_729
    assert _observatory_digest(hub) == _FIFO_OBSERVATORY


def test_observatory_report_golden_rpc_point(monkeypatch):
    # Fig 6b Offload-All, multi-queue Shinjuku at 230k req/s, 2 ms.
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    hub = Telemetry()
    with hub:
        run_rpc_point(RpcScenario.OFFLOAD_ALL, True, 230_000,
                      worker_cores=16, duration_ns=2_000_000,
                      warmup_ns=500_000, seed=8)
    assert sum(hub.runs[0].partition.windows.values()) == 5_528
    assert _observatory_digest(hub) == _RPC_OBSERVATORY


# -- shard round trip --------------------------------------------------------

def test_shard_pickle_preserves_ids_edges_and_observatory(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    hub = Telemetry()
    with hub:
        _run_sched_deployment()
    shard = pickle.loads(pickle.dumps(hub.shard()))
    absorbed = Telemetry()
    absorbed.absorb(shard)
    original = list(hub.runs[0].spans)
    restored = list(absorbed.runs[0].spans)
    assert len(original) == len(restored)
    for a, b in zip(original, restored):
        assert a.span_id == b.span_id
        assert a.parent_id == b.parent_id
        assert a.links == b.links
        assert a.req == b.req
    obs = absorbed.runs[0].partition
    assert obs is not None
    assert obs.windows == hub.runs[0].partition.windows
    assert obs.stall_ns == hub.runs[0].partition.stall_ns
    # The analysis of the absorbed hub is byte-identical.
    assert analyze_report(absorbed) == analyze_report(hub)


def test_fifo_deployment_blames_queueing_to_sched_policy():
    """At saturation a FIFO deployment's latency is dominated by queue
    wait; the analyzer must attribute that to sched-policy (via the
    request's own sched.queue interval), not to the catch-all wait."""
    hub = Telemetry()
    with hub:
        env = Environment()
        machine = Machine(env, HwParams.pcie())
        channel = WaveChannel(machine, Placement.NIC, WaveOpts.full(),
                              name="t")
        kernel = GhostKernel(channel, core_ids=[0],
                             rng=random.Random(1))
        agent = GhostAgent(channel, FifoPolicy(), kernel.core_ids)
        agent.start()
        kernel.start()
        tasks = [GhostTask(service_ns=50_000) for _ in range(6)]

        def feeder():
            for task in tasks:
                yield from kernel.submit(task)

        env.process(feeder(), name="feeder")
        env.run(until=3_000_000)
    traces, _ = request_traces(hub)
    finished = [t for t in traces
                if any(s.stage == "task.run" for s in t.path_spans())]
    assert len(finished) == 6
    # The last-submitted tasks waited behind the earlier ones.
    queued = sorted(t.blame.get("sched-policy", 0.0) for t in finished)
    assert queued[-1] > 100_000.0
