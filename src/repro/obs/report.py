"""Per-run Markdown reports: what happened, where the time went.

:func:`run_report` renders one telemetry hub as Markdown:

- top span stages by occurrence (the run's event census),
- a stage-latency breakdown table (count / mean / p50 / p99 / max per
  stage, from span durations) -- the per-hop decomposition behind
  "why is wakeup-to-dispatch X us at this load point",
- the fault timeline (injection, detection verdicts, recovery spans)
  when fault spans are present, and
- the metrics digest, tying the report to the determinism check.
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.obs.causal import _rank
from repro.obs.export import metrics_digest
from repro.obs.spans import Telemetry


def md_table(headers: List[str], rows: List[List[str]]) -> str:
    """Render a GitHub-flavoured Markdown table (shared with the perf
    trajectory report in :mod:`repro.bench.trajectory`)."""
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


_md_table = md_table


def stage_breakdown(telemetry: Telemetry) -> List[tuple]:
    """Per-stage ``(stage, count, mean_us, p50_us, p99_us, max_us)``,
    sorted by total time descending.

    Each stage's closed-span durations are collected in one
    ``array('d')``, in run order and then record order; the statistics
    are :class:`~repro.sim.monitor.LatencyStats`' over those samples:
    ``sum()`` over them for the mean, and nearest-rank percentiles.
    """
    durations: Dict[str, array] = {}  # in the order stages first closed
    for run in telemetry.runs:
        log = run.spans
        log.compact()
        names = log._stage_names
        columns = [None] * len(names)
        for stage, begin, end in zip(log._stage, log._begin, log._end):
            if end != end:  # still open
                continue
            column = columns[stage]
            if column is None:
                column = durations.get(names[stage])
                if column is None:
                    column = durations[names[stage]] = array("d")
                columns[stage] = column
            column.append(end - begin)
    rows = []
    for stage, column in durations.items():
        n = len(column)
        ordered = sorted(column)
        rows.append((stage, n, sum(column) / n / 1e3,
                     ordered[_rank(n, 50)] / 1e3,
                     ordered[_rank(n, 99)] / 1e3, max(column) / 1e3))
        del ordered  # one sorted copy alive at a time
    rows.sort(key=lambda r: -(r[1] * r[2]))
    return rows


def fault_timeline(telemetry: Telemetry) -> List[str]:
    """Chronological fault events across all runs (empty if none)."""
    entries = []
    for run in telemetry.runs:
        log = run.spans
        faults = [stage for stage in log.stages()
                  if stage.startswith("fault.")]
        for span in log.spans_of(faults):
            entries.append((run.run_index, span.begin_ns, span))
    entries.sort(key=lambda e: (e[0], e[1]))
    lines = []
    for run_index, _, span in entries:
        detail = ""
        args = span.args
        if args:
            detail = " " + " ".join(f"{k}={v}" for k, v in
                                    sorted(args.items()))
        dur = ""
        if span.duration_ns:
            dur = f" (+{span.duration_ns / 1e6:.3f} ms)"
        lines.append(f"- run {run_index} t={span.begin_ns / 1e6:.3f} ms: "
                     f"`{span.stage}`{dur}{detail}")
    return lines


def run_report(telemetry: Telemetry, title: str = "run report",
               top: int = 12) -> str:
    """Render the full Markdown report."""
    out: List[str] = [f"# {title}", ""]
    out.append(f"- runs: {len(telemetry.runs)}")
    out.append(f"- spans recorded: {telemetry.total_spans()}")
    evicted = sum(run.spans.evicted for run in telemetry.runs)
    if evicted:
        out.append(f"- spans evicted (ring full): {evicted}")
    out.append(f"- tracks: {len(telemetry.tracks())}")
    out.append(f"- metrics digest: `{metrics_digest(telemetry)}`")
    out.append("")

    breakdown = stage_breakdown(telemetry)
    if breakdown:
        out.append("## Top event kinds")
        out.append("")
        census = sorted(breakdown, key=lambda r: -r[1])[:top]
        out.append(_md_table(
            ["stage", "count"],
            [[f"`{stage}`", str(count)]
             for stage, count, *_ in census]))
        out.append("")
        out.append("## Stage latency breakdown (us)")
        out.append("")
        out.append(_md_table(
            ["stage", "count", "mean", "p50", "p99", "max"],
            [[f"`{stage}`", str(count), f"{mean:.2f}", f"{p50:.2f}",
              f"{p99:.2f}", f"{mx:.2f}"]
             for stage, count, mean, p50, p99, mx in breakdown[:top]]))
        out.append("")

    faults = fault_timeline(telemetry)
    if faults:
        out.append("## Fault recovery timeline")
        out.append("")
        out.extend(faults)
        out.append("")

    # Causal/observatory/timeline sections (lazy import: they render
    # with md_table from this module).
    from repro.obs.causal import causal_section, partition_section
    causal = causal_section(telemetry)
    if causal:
        out.extend(causal)
    observatory = partition_section(telemetry)
    if observatory:
        out.extend(observatory)
    from repro.obs.timeline import timeline_sections
    timelines = timeline_sections(telemetry)
    if timelines:
        out.extend(timelines)

    return "\n".join(out)
