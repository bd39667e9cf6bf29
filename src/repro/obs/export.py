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
from typing import Iterator, List

from repro.obs.spans import _NONE, Telemetry


def chrome_trace_events(telemetry: Telemetry) -> List[dict]:
    """The ``traceEvents`` array for one telemetry hub."""
    return list(_trace_events(telemetry))


def _trace_events(telemetry: Telemetry) -> Iterator[dict]:
    """The ``traceEvents`` array, one event at a time, read straight
    from each run's span columns."""
    for run in telemetry.runs:
        pid = run.run_index + 1
        yield {
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": run.label},
        }
        log = run.spans
        log.compact()
        # Thread ids follow the sorted retained track names; tids maps
        # each entry of the log's track table to its thread id.
        tids = [0] * len(log._track_names)
        for tid, track in enumerate(log.tracks(), start=1):
            tids[log._track_index[track]] = tid
            yield {
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": track},
            }
        names = log._stage_names
        cats = [name.split(".", 1)[0] for name in names]
        ends = log._end
        for slot, (stage, track, begin) in enumerate(
                zip(log._stage, log._track, log._begin)):
            end = ends[slot]
            event = {
                "ph": "X" if end == end else "B",
                "pid": pid,
                "tid": tids[track],
                "name": names[stage],
                "cat": cats[stage],
                "ts": begin / 1000.0,
            }
            if end == end:
                event["dur"] = (end - begin) / 1000.0
            args = log._args(slot)
            if args:
                event["args"] = {k: str(v) for k, v in sorted(args.items())}
            yield event
        yield from _flow_events(run, pid, tids)
        yield from _counter_events(run, pid)


def _counter_events(run, pid: int) -> Iterator[dict]:
    """Perfetto counter tracks (``ph:"C"``) from the run's timeline.

    One counter event per sample per series, in sorted series order;
    ``None`` samples (no-data windows) are skipped -- Perfetto draws
    the gap. Empty when the run carries no timeline.
    """
    timeline = getattr(run, "timeline", None)
    if timeline is None:
        return
    for name in sorted(timeline.series):
        series = timeline.series[name]
        for t, v in zip(series.times, series.values):
            if v is None:
                continue
            yield {
                "ph": "C", "pid": pid, "tid": 0, "name": name,
                "cat": "timeline", "ts": t / 1000.0,
                "args": {"value": v},
            }


def _flow_events(run, pid: int, tids: List[int]) -> Iterator[dict]:
    """Flow ``s``/``f`` pairs for cross-track causal edges of one run;
    ``tids`` maps the log's track indices to thread ids.

    Edges whose source span was evicted from the ring are silently
    skipped (the analyzer separately reports the truncation); same-track
    edges are skipped too -- nesting already shows them.
    """
    next_flow = 0
    log, first = run.spans.positions()
    # A renumbered copy (positions() of a log with ids out of record
    # order) has a track table of its own.
    if log is not run.spans:
        tids = [tids[run.spans._track_index[track]]
                for track in log._track_names]
    stop = first + len(log)
    tracks = log._track
    begins = log._begin
    ends = log._end
    for pos in range(len(log)):
        preds = []
        parent = log._parent[pos]
        if parent != _NONE:
            preds.append(parent)
        links = log._link_ids(pos)
        if links:
            preds.extend(links)
        track = tracks[pos]
        for pred_id in preds:
            if not first <= pred_id < stop:
                continue
            src = pred_id - first
            if tracks[src] == track:
                continue
            next_flow += 1
            flow_id = pid * 1_000_000 + next_flow
            src_end = ends[src]
            if src_end != src_end:
                src_end = begins[src]
            yield {
                "ph": "s", "pid": pid, "tid": tids[tracks[src]],
                "name": "causal", "cat": "causal", "id": flow_id,
                "ts": src_end / 1000.0,
            }
            yield {
                "ph": "f", "bp": "e", "pid": pid, "tid": tids[track],
                "name": "causal", "cat": "causal", "id": flow_id,
                "ts": begins[pos] / 1000.0,
            }


def write_chrome_trace(telemetry: Telemetry, path: str) -> int:
    """Write the trace JSON; returns the number of span events
    (completed ``X`` plus still-open ``B``).

    The ``traceEvents`` array is streamed one event at a time; the
    bytes are those ``json.dump`` writes for the whole payload.
    """
    spans = 0
    with open(path, "w") as handle:
        handle.write('{"traceEvents":[')
        for k, event in enumerate(_trace_events(telemetry)):
            if k:
                handle.write(",")
            handle.write(_encode(event))
            if event["ph"] in ("X", "B"):
                spans += 1
        handle.write('],"displayTimeUnit":"ns"}')
    return spans


_encode = json.JSONEncoder(separators=(",", ":")).encode


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
