"""Picklable telemetry shards for process-pool sweeps.

A sweep worker cannot feed the parent's telemetry hub, so it installs a
fresh per-process :class:`~repro.obs.spans.Telemetry`, runs its point
fully instrumented, and ships everything the hub collected back as a
:class:`TelemetryShard` alongside the point result. The parent absorbs
shards **in deterministic submission order**, renumbering run indices
and default labels as it goes, so the merged hub's metrics dump, run
report, and Perfetto trace are byte-identical to the same sweep run
serially in one process.

What travels in a shard:

- every run's :class:`~repro.obs.metrics.MetricsRegistry` (counters,
  gauges, histogram buckets; time-weighted metrics freeze on pickling),
- every run's :class:`~repro.obs.spans.SpanLog` (its span columns,
  compacted before pickling, plus the recorded count),
- the worker's :class:`~repro.obs.profile.LoopProfiler` state (calls
  and CPU self time per function), when the parent hub profiles, and
- the total simulator events scheduled (for the sweep progress line's
  events/sec readout).

Worker identity is deliberately **not** written into any exported
surface: the absorbing side records it on the merged run's ``worker``
attribute (and the sweep-health ``sweep.worker.*`` metric family in
:mod:`repro.bench.parallel`), never in the dump/trace/report, because
``--jobs 1`` and ``--jobs 4`` must stay byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.obs.spans import RunTelemetry, SpanLog, Telemetry
from repro.obs.metrics import MetricsRegistry


@dataclasses.dataclass
class RunShard:
    """One run's (one environment's) telemetry, detached and picklable."""

    label: str
    #: True when the label was auto-generated (``run<N>`` with the
    #: worker-local index); the absorbing hub regenerates it from the
    #: merged index so labels match a serial sweep.
    default_label: bool
    metrics: MetricsRegistry
    spans: SpanLog
    #: The run's :class:`~repro.sim.partition.PartitionObservatory`
    #: (plain counters, picklable), or None when the run used the
    #: sequential engine or telemetry was off.
    partition: Optional[object] = None
    #: The run's :class:`~repro.obs.timeline.RunTimeline` (series rings,
    #: sketches, incident log; the run back-reference drops on
    #: pickling), or None when the hub does not sample timelines.
    timeline: Optional[object] = None


@dataclasses.dataclass
class TelemetryShard:
    """Everything one worker's per-process hub collected for one point."""

    runs: List[RunShard]
    #: :meth:`repro.obs.profile.LoopProfiler.state` of the worker's
    #: profiler, or None when the parent hub does not profile.
    profile: Optional[Dict[str, object]] = None
    #: Simulator events scheduled across the shard's runs (drives the
    #: progress line's events/sec; never exported).
    events_scheduled: int = 0
    #: Timeline samples taken across the shard's runs (drives the
    #: progress line's sample readout; never exported -- the samples
    #: themselves travel in each run's ``timeline``).
    timeline_samples: int = 0


def shard_from(hub: Telemetry) -> TelemetryShard:
    """Detach ``hub``'s collected telemetry into a picklable shard."""
    runs = [RunShard(label=run.label, default_label=run.default_label,
                     metrics=run.metrics, spans=run.spans,
                     partition=getattr(run, "partition", None),
                     timeline=getattr(run, "timeline", None))
            for run in hub.runs]
    events = 0
    for run in hub.runs:
        env = run.env
        if env is not None:
            events += getattr(env, "_seq", 0)
    samples = sum(run.timeline.ticks for run in hub.runs
                  if getattr(run, "timeline", None) is not None)
    profile = hub.profiler.state() if hub.profiler is not None else None
    return TelemetryShard(runs=runs, profile=profile,
                          events_scheduled=events,
                          timeline_samples=samples)


def absorb_into(hub: Telemetry, shard: TelemetryShard,
                worker: Optional[int] = None) -> List[RunTelemetry]:
    """Append ``shard``'s runs to ``hub`` in order; returns the merged
    runs. Default run labels are regenerated from the merged index, so
    absorbing N workers' shards in submission order reproduces the
    exact labels of a serial sweep."""
    merged = []
    for rs in shard.runs:
        run = RunTelemetry.restored(
            hub, run_index=len(hub.runs),
            label=rs.label, default_label=rs.default_label,
            metrics=rs.metrics, spans=rs.spans, worker=worker,
            partition=getattr(rs, "partition", None),
            timeline=getattr(rs, "timeline", None))
        if rs.default_label:
            run.label = f"run{run.run_index}"
        hub.runs.append(run)
        merged.append(run)
    if shard.profile is not None and hub.profiler is not None:
        hub.profiler.merge_state(shard.profile)
    return merged
