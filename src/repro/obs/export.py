"""Telemetry exporters: Chrome trace-event JSON and flat metrics dumps.

The Chrome trace format (the JSON flavour Perfetto's legacy importer and
``chrome://tracing`` both load) maps naturally onto the span model:

- every attached run becomes one *process* (``pid``), so a figure sweep's
  load points sit side by side instead of overlapping at t=0;
- every track (simulated core, agent, ring, hardware engine) becomes one
  *thread* (``tid``) with a ``thread_name`` metadata record;
- every completed span becomes one ``"ph": "X"`` complete event with
  microsecond ``ts``/``dur`` (the format's convention; simulated ns
  divide by 1000);
- spans still open at export time become ``"ph": "B"`` begin events (a
  crashed agent's half-finished work renders as an unterminated slice
  instead of a zero-width sliver);
- causal edges that hop between tracks become Perfetto flow events
  (``"ph": "s"`` at the source span's end, ``"ph": "f"`` with
  ``"bp": "e"`` at the destination's begin), so the UI draws the
  request's arrows across cores, rings, and the PCIe track.

The metrics dump is a canonical, byte-stable text rendering of every
run's registry; its digest is the same-seed determinism check.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.obs.spans import Telemetry


def chrome_trace_events(telemetry: Telemetry) -> List[dict]:
    """The ``traceEvents`` array for one telemetry hub."""
    events: List[dict] = []
    for run in telemetry.runs:
        pid = run.run_index + 1
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": run.label},
        })
        tids: Dict[str, int] = {}
        for track in run.spans.tracks():
            tid = len(tids) + 1
            tids[track] = tid
            events.append({
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": track},
            })
        for span in run.spans:
            event = {
                "ph": "X" if span.end_ns is not None else "B",
                "pid": pid,
                "tid": tids[span.track],
                "name": span.stage,
                "cat": span.stage.split(".", 1)[0],
                "ts": span.begin_ns / 1000.0,
            }
            if span.end_ns is not None:
                event["dur"] = span.duration_ns / 1000.0
            args = span.args
            if args:
                event["args"] = {k: str(v) for k, v in sorted(args.items())}
            events.append(event)
        events.extend(_flow_events(run, pid, tids))
        events.extend(_counter_events(run, pid))
    return events


def _counter_events(run, pid: int) -> List[dict]:
    """Perfetto counter tracks (``ph:"C"``) from the run's timeline.

    One counter event per sample per series, in sorted series order;
    ``None`` samples (no-data windows) are skipped -- Perfetto draws
    the gap. Empty when the run carries no timeline.
    """
    timeline = getattr(run, "timeline", None)
    if timeline is None:
        return []
    events: List[dict] = []
    for name in sorted(timeline.series):
        series = timeline.series[name]
        for t, v in zip(series.times, series.values):
            if v is None:
                continue
            events.append({
                "ph": "C", "pid": pid, "tid": 0, "name": name,
                "cat": "timeline", "ts": t / 1000.0,
                "args": {"value": v},
            })
    return events


def _flow_events(run, pid: int, tids: Dict[str, int]) -> List[dict]:
    """Flow ``s``/``f`` pairs for cross-track causal edges of one run.

    Edges whose source span was evicted from the ring are silently
    skipped (the analyzer separately reports the truncation); same-track
    edges are skipped too -- nesting already shows them.
    """
    flows: List[dict] = []
    next_flow = 0
    spans, refs, first = run.spans.positions()
    stop = first + len(spans)
    for span, ref in zip(spans, refs):
        preds = []
        if ref.parent_id is not None:
            preds.append(ref.parent_id)
        if ref.links:
            preds.extend(ref.links)
        for pred_id in preds:
            if not first <= pred_id < stop:
                continue
            src = spans[pred_id - first]
            if src.track == span.track:
                continue
            next_flow += 1
            flow_id = pid * 1_000_000 + next_flow
            src_end = src.end_ns if src.end_ns is not None else src.begin_ns
            flows.append({
                "ph": "s", "pid": pid, "tid": tids[src.track],
                "name": "causal", "cat": "causal", "id": flow_id,
                "ts": src_end / 1000.0,
            })
            flows.append({
                "ph": "f", "bp": "e", "pid": pid, "tid": tids[span.track],
                "name": "causal", "cat": "causal", "id": flow_id,
                "ts": span.begin_ns / 1000.0,
            })
    return flows


def write_chrome_trace(telemetry: Telemetry, path: str) -> int:
    """Write the trace JSON; returns the number of span events
    (completed ``X`` plus still-open ``B``)."""
    events = chrome_trace_events(telemetry)
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    return sum(1 for e in events if e.get("ph") in ("X", "B"))


def metrics_dump(telemetry: Telemetry) -> str:
    """Canonical flat dump of every run's metrics and span counts."""
    sections: List[str] = []
    for run in telemetry.runs:
        lines = [f"== {run.label} =="]
        lines.append(f"spans.recorded {run.spans.recorded}")
        lines.append(f"spans.evicted {run.spans.evicted}")
        registry = run.metrics.dump()
        if registry:
            lines.append(registry)
        sections.append("\n".join(lines))
    return "\n".join(sections) + "\n"


def metrics_digest(telemetry: Telemetry) -> str:
    """Digest of :func:`metrics_dump`: byte-stable across same-seed runs."""
    return hashlib.sha256(metrics_dump(telemetry).encode()).hexdigest()[:16]


def write_metrics(telemetry: Telemetry, path: str) -> str:
    """Write the metrics dump (digest trailer included); returns digest."""
    digest = metrics_digest(telemetry)
    with open(path, "w") as handle:
        handle.write(metrics_dump(telemetry))
        handle.write(f"digest {digest}\n")
    return digest
