"""Tests for telemetry shards (repro.obs.shard) and registry merging.

The contract under test: a sweep point run in a pool worker, shipped
back as a pickled :class:`TelemetryShard`, and absorbed in submission
order must leave the parent hub byte-identical to running the same
point serially -- metrics dump, digest, Perfetto trace, and run report.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.obs import (
    LoopProfiler,
    MetricsRegistry,
    Telemetry,
    TelemetryShard,
    chrome_trace_events,
    metrics_digest,
    metrics_dump,
    run_report,
)
from repro.obs.metrics import _FrozenTimeWeighted
from repro.obs.spans import Span, SpanLog
from repro.sim import Environment


# -- pickle round trips ------------------------------------------------------

def test_counter_and_gauge_pickle_roundtrip():
    reg = MetricsRegistry()
    reg.counter("ops", kind="push").incr(7)
    reg.gauge("depth").set(3.5)
    clone = pickle.loads(pickle.dumps(reg))
    assert clone.dump() == reg.dump()
    assert clone.digest() == reg.digest()
    # The clone is live: its metrics keep accepting samples.
    clone.counter("ops", kind="push").incr()
    assert clone.counter("ops", kind="push").value == 8


def test_histogram_pickle_roundtrip():
    reg = MetricsRegistry()
    h = reg.histogram("lat", stage="get")
    for v in (1.0, 3.0, 900.0, 1e6):
        h.record(v)
    clone = pickle.loads(pickle.dumps(reg))
    theirs = clone.histogram("lat", stage="get")
    assert theirs.count == 4
    assert theirs.buckets == h.buckets
    assert theirs.percentile(99) == h.percentile(99)
    assert clone.dump() == reg.dump()


def test_timeweighted_freezes_on_pickle():
    env = Environment()
    reg = MetricsRegistry(env)
    tw = reg.timeweighted("queue.depth")

    def proc():
        tw.set(4.0)
        yield env.timeout(10)
        tw.set(2.0)
        yield env.timeout(10)

    env.process(proc())
    env.run(until=20)
    clone = pickle.loads(pickle.dumps(reg))
    frozen = clone._metrics[tw.key]
    assert isinstance(frozen, _FrozenTimeWeighted)
    # Frozen rendering is byte-identical to the live metric's...
    assert frozen.sample_lines() == tw.sample_lines()
    assert clone.dump() == reg.dump()
    # ...but it has no clock anymore.
    try:
        frozen.time_average()
    except RuntimeError:
        pass
    else:
        raise AssertionError("frozen time_average should raise")


def test_span_log_pickle_roundtrip():
    log = SpanLog(capacity=3)
    log.append(Span("a", "trk", 0.0, 1.0, {"k": 1}))
    log.append(Span("b", "trk", 1.0, None, None))  # still open
    log.append(Span("c", "trk2", 2.0, 4.0, None))
    log.append(Span("d", "trk2", 3.0, 5.0, None))  # evicts "a"
    clone = pickle.loads(pickle.dumps(log))
    assert clone.recorded == 4
    assert clone.evicted == 1
    assert [s.stage for s in clone] == [s.stage for s in log]
    assert clone.spans("b")[0].end_ns is None
    assert clone.spans("a", track="trk") == []
    assert clone.spans("d")[0].duration_ns == 2.0


def test_profiler_state_roundtrip_and_merge():
    profiler = LoopProfiler()
    hub = Telemetry(profiler=profiler)
    with hub:
        env = Environment()

        def proc():
            yield env.timeout(5)
            yield env.timeout(5)

        env.process(proc())
        env.run(until=20)
    assert profiler.functions
    state = pickle.loads(pickle.dumps(profiler.state()))
    other = LoopProfiler()
    other.merge_state(state)
    other.merge_state(state)
    # Doubling is exact in binary floating point, so seconds compare
    # exactly too.
    assert other.functions == {key: [2 * calls, 2 * self_s]
                               for key, (calls, self_s)
                               in profiler.functions.items()}
    assert other.rows() == [(layer, 2 * calls, 2 * self_s)
                            for layer, calls, self_s in profiler.rows()]


def test_telemetry_shard_pickle_roundtrip():
    hub = Telemetry()
    with hub:
        env = Environment()
        tel = env.telemetry
        tel.count("pt.done")
        tel.observe("pt.lat", 12.0)
        tel.span("pt.stage", "trk", dur_ns=3.0, i=0)
        env.run(until=1)
    shard = pickle.loads(pickle.dumps(hub.shard()))
    assert isinstance(shard, TelemetryShard)
    assert len(shard.runs) == 1
    assert shard.runs[0].default_label
    assert shard.runs[0].metrics.counter("pt.done").value == 1
    assert shard.runs[0].spans.spans("pt.stage")


# -- absorption --------------------------------------------------------------

def _one_point_hub(i, label=""):
    hub = Telemetry()
    with hub:
        env = Environment()
        if label:
            hub.runs[-1].label = label
            hub.runs[-1].default_label = False
        tel = env.telemetry
        tel.count("pt.done")
        tel.observe("pt.lat", 10.0 * (i + 1))
        tel.span("pt.stage", "trk", dur_ns=2.0, i=i)
        env.run(until=1)
    return hub


def test_absorb_regenerates_default_labels_in_merged_order():
    parent = Telemetry()
    for i in range(3):
        # Every worker-local hub names its one run "run0"; after merge
        # the labels must match a serial sweep's run0/run1/run2.
        shard = pickle.loads(pickle.dumps(_one_point_hub(i).shard()))
        parent.absorb(shard, worker=i % 2)
    assert [r.label for r in parent.runs] == ["run0", "run1", "run2"]
    assert [r.worker for r in parent.runs] == [0, 1, 0]


def test_absorb_keeps_explicit_labels():
    parent = Telemetry()
    shard = _one_point_hub(0, label="rate=5e5").shard()
    parent.absorb(shard)
    assert parent.runs[0].label == "rate=5e5"
    assert not parent.runs[0].default_label


def test_absorbed_hub_matches_serial_hub_byte_for_byte():
    serial = Telemetry()
    with serial:
        for i in range(3):
            env = Environment()
            tel = env.telemetry
            tel.count("pt.done")
            tel.observe("pt.lat", 10.0 * (i + 1))
            tel.span("pt.stage", "trk", dur_ns=2.0, i=i)
            env.run(until=1)
    sharded = Telemetry()
    for i in range(3):
        sharded.absorb(pickle.loads(pickle.dumps(_one_point_hub(i).shard())))
    assert metrics_dump(sharded) == metrics_dump(serial)
    assert metrics_digest(sharded) == metrics_digest(serial)
    assert chrome_trace_events(sharded) == chrome_trace_events(serial)
    assert run_report(sharded) == run_report(serial)


# -- merge properties --------------------------------------------------------

_label_values = st.sampled_from(["a", "b", "c"])
# The metric kind is a function of the name, so the same key is never a
# counter in one registry and a histogram in the other (that cross-kind
# collision is a TypeError by design, not a merge case).
_additive_ops = st.lists(
    st.tuples(st.sampled_from(["ctr1", "ctr2", "hist1", "hist2"]),
              _label_values,
              st.floats(min_value=0.0, max_value=1e9,
                        allow_nan=False, allow_infinity=False)),
    max_size=24)


def _registry_of(ops):
    reg = MetricsRegistry()
    for name, label, value in ops:
        if name.startswith("ctr"):
            reg.counter(name, l=label).incr(int(value) % 1000)
        else:
            reg.histogram(name, l=label).record(value)
    return reg


@settings(max_examples=60, deadline=None)
@given(_additive_ops, _additive_ops)
def test_merge_commutative_for_counters_and_histograms(ops_a, ops_b):
    ab = _registry_of(ops_a).merge(_registry_of(ops_b))
    ba = _registry_of(ops_b).merge(_registry_of(ops_a))
    # dump() sorts sample lines, so ordering differences cancel out and
    # commutativity is exactly dump equality.
    assert ab.dump() == ba.dump()


def test_merge_gauge_and_timeweighted_last_write_wins():
    a = MetricsRegistry()
    a.gauge("g").set(1.0)
    b = MetricsRegistry()
    b.gauge("g").set(9.0)
    assert a.merge(b).gauge("g").value == 9.0

    env = Environment()
    live = MetricsRegistry(env)
    tw = live.timeweighted("tw")
    tw.set(5.0)
    other = MetricsRegistry()
    other._metrics[tw.key] = _FrozenTimeWeighted(tw.key, 2.0, 40.0)
    live.merge(other)
    merged = live._metrics[tw.key]
    assert isinstance(merged, _FrozenTimeWeighted)
    assert merged.value == 2.0  # last write wins
    assert merged.integral == 40.0  # 0 so far here + 40 merged


# -- pool parity on a real sweep ---------------------------------------------

def test_instrumented_sweep_parity_jobs1_vs_jobs4():
    """The ISSUE acceptance check: metrics digest, Perfetto trace, run
    report, and causal analysis of a real (tiny) sweep are
    byte-identical at --jobs 1 and --jobs 4."""
    from repro.core import Placement, WaveOpts
    from repro.obs import analyze_report
    from repro.sched import FifoPolicy
    from repro.sched.experiment import sweep_load
    from repro.workloads import RocksDbModel

    rates = [300_000, 400_000, 500_000, 600_000]
    kwargs = dict(duration_ns=1_500_000, warmup_ns=300_000, seed=1)
    artifacts = []
    for jobs in (1, 4):
        hub = Telemetry()
        with hub:
            sweep_load(Placement.NIC, WaveOpts.full(), 2, FifoPolicy,
                       RocksDbModel.fifo_mix, rates, jobs=jobs, **kwargs)
        artifacts.append((metrics_dump(hub), metrics_digest(hub),
                          chrome_trace_events(hub), run_report(hub),
                          analyze_report(hub)))
    assert artifacts[0] == artifacts[1]
