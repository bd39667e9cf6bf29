"""Span attributes: stored flat on the span, read back as a dict."""

import pickle
import tracemalloc

import pytest

from repro.obs import Telemetry
from repro.obs.spans import Span
from repro.sim import Environment


def attached():
    return Telemetry().attach(Environment())


@pytest.mark.parametrize("attrs", [{}, {"tid": 7},
                                   {"tid": 7, "where": "host", "ok": True}])
def test_args_equal_recorded_attributes(attrs):
    run = attached()
    recorded = run.span("task.run", "core0", dur_ns=1.0, **attrs)
    opened = run.begin("task.run", "core0", **attrs)
    built = Span("task.run", "core0", 0.0, 1.0, dict(attrs) or None)
    for span in (recorded, opened, built):
        assert span.args == (attrs or None)


def test_args_read_back_cannot_change_the_span():
    span = Span("s", "t", 0.0, 1.0, {"k": 1})
    span.args["k"] = 2
    assert span.args == {"k": 1}
    assert span.render() == "[0.0..1.0] t s k=1"


def test_end_updates_attributes_like_dict_update():
    run = attached()
    bare = run.begin("core.dispatch", "core0")
    run.end(bare, tid=3)
    assert bare.args == {"tid": 3}

    tagged = run.begin("task.run", "core0", tid=4, where="host")
    run.end(tagged, where="nic", preempted=True)
    assert list(tagged.args.items()) == [
        ("tid", 4), ("where", "nic"), ("preempted", True)]

    run.end(tagged)
    assert tagged.args == {"tid": 4, "where": "nic", "preempted": True}


def test_shard_pickle_roundtrip_keeps_attributes():
    hub = Telemetry()
    run = hub.attach(Environment())
    run.span("a", "t", dur_ns=1.0)
    run.span("b", "t", dur_ns=1.0, tid=1)
    run.end(run.begin("c", "t", tid=2, where="smartnic"), failed_race=True)
    merged = Telemetry()
    merged.absorb(pickle.loads(pickle.dumps(hub.shard())))
    assert [(s.stage, s.args) for s in merged.runs[0].spans] == [
        ("a", None), ("b", {"tid": 1}),
        ("c", {"tid": 2, "where": "smartnic", "failed_race": True})]


def test_one_attribute_span_retains_at_most_128_bytes():
    """A long traced run keeps millions of spans, most with a single
    attribute: what one such span retains bounds the run's memory."""
    n = 10_000
    run = attached()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for tid in range(1_000, 1_000 + n):
            run.span("task.run", "core0", dur_ns=1.0, tid=tid)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(run.spans) == n
    assert retained / n <= 128
