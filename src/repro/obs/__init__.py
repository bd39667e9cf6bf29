"""Simulation-wide observability: metrics, spans, exporters, profiler.

The telemetry substrate behind ``python -m repro run <exp> --trace/--metrics``
and ``python -m repro report <exp>``:

- :class:`MetricsRegistry` -- labelled counters/gauges/time-weighted
  values/log-linear histograms with a deterministic digest;
- :class:`Telemetry` / :class:`RunTelemetry` -- span-based tracing
  threaded through every protocol edge (PCIe, DMA, rings, agents,
  kernel, policies, RPC, SOL, faults);
- exporters -- Chrome trace-event JSON (open in Perfetto), flat metrics
  dumps, Markdown run reports;
- :class:`LoopProfiler` -- a :mod:`cProfile` wrapper splitting the
  simulator's CPU self time per layer and per function, for finding
  simulator hot spots.

See ``docs/observability.md`` for naming conventions and usage.
"""

from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
    NullMetricsRegistry,
    TimeWeightedMetric,
    render_key,
)
from repro.obs.spans import (
    MetricHandles,
    RunTelemetry,
    Span,
    SpanCtx,
    SpanHandle,
    SpanLog,
    Telemetry,
)
from repro.obs.shard import RunShard, TelemetryShard, absorb_into, shard_from
from repro.obs.causal import (
    CausalGraph,
    RequestTrace,
    analyze_report,
    blame_table,
    layer_of,
    request_traces,
)
from repro.obs.export import (
    chrome_trace_events,
    metrics_digest,
    metrics_dump,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.ascii import MARKERS, render_curves, sparkline
from repro.obs.profile import LoopProfiler
from repro.obs.report import fault_timeline, run_report, stage_breakdown
from repro.obs.timeline import (
    Incident,
    RunTimeline,
    Series,
    SloMonitor,
    SloSpec,
    TimelineConfig,
    WindowSketch,
    fault_incidents,
    timeline_json,
    timeline_report,
    timeline_sections,
    write_timeline,
    write_timeline_csv,
)

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "NullMetricsRegistry",
    "TimeWeightedMetric",
    "render_key",
    "MetricHandles",
    "RunTelemetry",
    "RunShard",
    "Span",
    "SpanCtx",
    "SpanHandle",
    "SpanLog",
    "CausalGraph",
    "RequestTrace",
    "analyze_report",
    "blame_table",
    "layer_of",
    "request_traces",
    "Telemetry",
    "TelemetryShard",
    "absorb_into",
    "shard_from",
    "chrome_trace_events",
    "metrics_digest",
    "metrics_dump",
    "write_chrome_trace",
    "write_metrics",
    "LoopProfiler",
    "fault_timeline",
    "run_report",
    "stage_breakdown",
    "MARKERS",
    "render_curves",
    "sparkline",
    "Incident",
    "RunTimeline",
    "Series",
    "SloMonitor",
    "SloSpec",
    "TimelineConfig",
    "WindowSketch",
    "fault_incidents",
    "timeline_json",
    "timeline_report",
    "timeline_sections",
    "write_timeline",
    "write_timeline_csv",
]
