"""Time-resolved telemetry: metric timelines, SLO monitors, incidents.

Every other surface in :mod:`repro.obs` is an end-of-run aggregate;
this module adds the time axis. A :class:`RunTimeline` is a
simulated-time sampler bound to one run: the event loop calls
:meth:`RunTimeline._cross` whenever the clock is about to advance past
the next sampling boundary, and the sampler snapshots every registered
metric into bounded ring-buffered :class:`Series`:

- counters sample as **per-interval deltas** (rates),
- gauges sample as their current value,
- time-weighted metrics sample as the **interval average**, evaluated
  analytically at the boundary (``integral + value * gap``) so the
  sample never depends on when the surrounding events happened,
- histograms sample as a per-interval count rate, and additionally feed
  per-:class:`SloSpec` sliding-window percentile sketches
  (:class:`WindowSketch`) whose windowed p99 drives the
  :class:`SloMonitor`, and
- the partition observatory's per-domain ``busy_ns`` samples as a busy
  fraction per domain (present only under the partitioned engine).

Determinism rules (the contract tests pin):

- Sampling happens **on the Environment clock**: a boundary ``b`` is
  crossed immediately before the first event with ``time >= b`` is
  dispatched, so a sample at ``b`` reflects exactly the events with
  ``time < b`` -- the same set in any engine and at any ``--jobs``,
  because shards carry their timelines back and merge in submission
  order.
- The sampler is passive: it schedules no events, consumes no sequence
  numbers, and never reads ``env.now`` mid-gap, so ``events_scheduled``
  / ``events_dispatched`` and every dispatch trace are byte-identical
  to an unsampled run. With telemetry off, ``env._timeline`` is None
  and the only cost is one comparison per dispatched event.
- Exports (:func:`timeline_json`, CSV, report sections) sort series
  names and are pure functions of the merged hub.

The :class:`SloMonitor` turns windowed percentile streams into a
deterministic incident log: ``open_after`` consecutive breached samples
open an incident, ``close_after`` consecutive healthy samples close it,
and at export time each incident is blamed against overlapping
``fault.fire`` spans (the causal roots the fault layer already emits).
"""

from __future__ import annotations

import collections
import dataclasses
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.ascii import sparkline
from repro.obs.metrics import render_key
from repro.sim.monitor import loglinear_lower_bound

_INF = float("inf")

#: Default sampling period: 1 ms of simulated time.
DEFAULT_PERIOD_NS = 1_000_000.0
#: Default per-series ring capacity.
DEFAULT_CAPACITY = 4096
#: Default sketch window, in sampling intervals.
DEFAULT_SKETCH_WINDOW = 8

#: Fault kinds that take an agent down (paired with detection verdicts
#: by :func:`fault_incidents`); values mirror ``repro.sim.faults``.
_DOWN_KINDS = ("agent-crash", "agent-hang")


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """One streaming SLO rule: windowed percentile vs threshold.

    ``metric`` names a histogram family (the unlabelled metric name;
    every labelled variant feeds the same sketch). ``open_after`` /
    ``close_after`` are the burn-rate hysteresis: consecutive breached
    samples needed to open an incident, consecutive healthy samples
    needed to close it.
    """

    name: str
    metric: str
    threshold_ns: float
    percentile: float = 99.0
    open_after: int = 2
    close_after: int = 3

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SloSpec":
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class TimelineConfig:
    """Picklable sampler configuration (travels in ``shard_config``)."""

    period_ns: float = DEFAULT_PERIOD_NS
    capacity: int = DEFAULT_CAPACITY
    sketch_window: int = DEFAULT_SKETCH_WINDOW
    slo_specs: Tuple[SloSpec, ...] = ()

    def to_dict(self) -> dict:
        return {"period_ns": self.period_ns, "capacity": self.capacity,
                "sketch_window": self.sketch_window,
                "slo_specs": [spec.to_dict() for spec in self.slo_specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "TimelineConfig":
        return cls(period_ns=data["period_ns"], capacity=data["capacity"],
                   sketch_window=data["sketch_window"],
                   slo_specs=tuple(SloSpec.from_dict(s)
                                   for s in data.get("slo_specs", ())))


class Series:
    """Bounded ``(t, value)`` ring; ``None`` values mark no-data windows."""

    __slots__ = ("capacity", "times", "values", "evicted")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.times: collections.deque = collections.deque(maxlen=capacity)
        self.values: collections.deque = collections.deque(maxlen=capacity)
        #: Samples displaced once the ring filled (oldest-first).
        self.evicted = 0

    def push(self, t: float, value: Optional[float]) -> None:
        if len(self.times) == self.capacity:
            self.evicted += 1
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)


class WindowSketch:
    """Sliding-window percentile sketch over log-linear bucket deltas.

    Each sampling interval pushes the histogram's *new* samples as a
    sparse ``{bucket_index: count}`` delta; the sketch keeps the last
    ``window`` intervals' deltas plus a running union, so a windowed
    percentile is one sorted walk over the union -- same nearest-rank
    rule as :meth:`repro.obs.metrics.HistogramMetric.percentile`, and
    the same log-linear resolution bound (<= 1/SUBBUCKETS = 12.5%
    relative error vs the exact windowed percentile).
    """

    __slots__ = ("window", "_intervals", "_union", "count")

    def __init__(self, window: int):
        self.window = max(1, window)
        self._intervals: collections.deque = collections.deque()
        self._union: Dict[int, int] = {}
        self.count = 0

    def push(self, deltas: Dict[int, int], n: int) -> None:
        self._intervals.append((deltas, n))
        union = self._union
        for idx, c in deltas.items():
            union[idx] = union.get(idx, 0) + c
        self.count += n
        if len(self._intervals) > self.window:
            old, old_n = self._intervals.popleft()
            for idx, c in old.items():
                left = union[idx] - c
                if left:
                    union[idx] = left
                else:
                    del union[idx]
            self.count -= old_n

    def percentile(self, p: float) -> Optional[float]:
        """Windowed nearest-rank percentile, or None when the window is
        empty (no samples in the last ``window`` intervals)."""
        if not self.count:
            return None
        rank = max(1, -(-int(p * self.count) // 100))
        seen = 0
        for idx in sorted(self._union):
            seen += self._union[idx]
            if seen >= rank:
                return loglinear_lower_bound(idx)
        return loglinear_lower_bound(max(self._union))


class Incident:
    """One SLO breach span: opened/closed by :class:`SloMonitor`."""

    __slots__ = ("slo", "metric", "threshold_ns", "open_ns", "close_ns",
                 "peak", "samples", "breached")

    def __init__(self, slo: str, metric: str, threshold_ns: float,
                 open_ns: float, peak: float, samples: int, breached: int):
        self.slo = slo
        self.metric = metric
        self.threshold_ns = threshold_ns
        self.open_ns = open_ns
        #: None while the incident is still open at end of run.
        self.close_ns: Optional[float] = None
        self.peak = peak
        self.samples = samples
        self.breached = breached

    @property
    def burn(self) -> float:
        """Fraction of samples inside the incident that breached."""
        return self.breached / self.samples if self.samples else 0.0


class _SloState:
    __slots__ = ("breach_run", "ok_run", "streak_peak", "open",
                 "samples", "breached", "last")

    def __init__(self):
        self.breach_run = 0
        self.ok_run = 0
        self.streak_peak = 0.0
        self.open: Optional[Incident] = None
        self.samples = 0
        self.breached = 0
        self.last: Optional[float] = None


class SloMonitor:
    """Streaming burn-rate evaluator over one run's SLO specs.

    Fed one windowed-percentile sample per spec per boundary (``None``
    counts as healthy: no traffic is not a breach). Hysteresis per
    spec: ``open_after`` consecutive breaches open an incident whose
    ``open_ns`` backdates to the first breach of the streak;
    ``close_after`` consecutive healthy samples close it at the first
    healthy boundary.
    """

    def __init__(self, specs: Sequence[SloSpec]):
        self.specs = tuple(specs)
        self.incidents: List[Incident] = []
        self._state = {spec.name: _SloState() for spec in self.specs}

    def observe(self, spec: SloSpec, t_ns: float, period_ns: float,
                value: Optional[float]) -> None:
        st = self._state[spec.name]
        st.samples += 1
        st.last = value
        breached = value is not None and value > spec.threshold_ns
        if breached:
            st.breached += 1
            st.breach_run += 1
            st.ok_run = 0
            st.streak_peak = (value if st.breach_run == 1
                              else max(st.streak_peak, value))
        else:
            st.ok_run += 1
            st.breach_run = 0
        inc = st.open
        if inc is None:
            if breached and st.breach_run >= spec.open_after:
                st.open = Incident(
                    spec.name, spec.metric, spec.threshold_ns,
                    open_ns=t_ns - (st.breach_run - 1) * period_ns,
                    peak=st.streak_peak, samples=st.breach_run,
                    breached=st.breach_run)
            return
        inc.samples += 1
        if breached:
            inc.breached += 1
            if value > inc.peak:
                inc.peak = value
        elif st.ok_run >= spec.close_after:
            inc.close_ns = t_ns - (st.ok_run - 1) * period_ns
            self.incidents.append(inc)
            st.open = None

    def all_incidents(self) -> List[Incident]:
        """Closed incidents plus any still open at end of run, in open
        order."""
        out = list(self.incidents)
        for spec in self.specs:
            inc = self._state[spec.name].open
            if inc is not None:
                out.append(inc)
        out.sort(key=lambda i: (i.open_ns, i.slo))
        return out

    def spec_rows(self) -> List[Tuple[str, str, float, int, int, int]]:
        """Per-spec ``(name, metric, threshold, samples, breached,
        incidents)`` summary rows, in spec order."""
        rows = []
        for spec in self.specs:
            st = self._state[spec.name]
            n_inc = sum(1 for i in self.all_incidents()
                        if i.slo == spec.name)
            rows.append((spec.name, spec.metric, spec.threshold_ns,
                         st.samples, st.breached, n_inc))
        return rows


_EMPTY_DELTAS: Dict[int, int] = {}


class RunTimeline:
    """The per-run sampler. Hot path: :meth:`_cross`.

    Holds one :class:`Series` per sampled signal, the per-spec
    :class:`WindowSketch` instances, and the :class:`SloMonitor`.
    Picklable (rides :class:`~repro.obs.shard.RunShard`); the run
    back-reference is dropped on pickling like the metrics registry's
    env.
    """

    def __init__(self, run, config: TimelineConfig):
        self.run = run
        self.config = config
        self.period_ns = float(config.period_ns)
        if self.period_ns <= 0:
            raise ValueError("period_ns must be positive")
        #: Next boundary to sample; persists across repeated env.run()
        #: calls so multi-phase experiments keep one continuous grid.
        self._next_ns = self.period_ns
        self.ticks = 0
        self.series: Dict[str, Series] = {}
        self.monitor = SloMonitor(config.slo_specs)
        self._sketches = {spec.name: WindowSketch(config.sketch_window)
                          for spec in config.slo_specs}
        self._counter_last: Dict[str, float] = {}
        self._tw_last: Dict[str, float] = {}
        self._hist_last: Dict[str, Tuple[Dict[int, int], int]] = {}
        self._busy_last: Dict[str, float] = {}

    # -- hot path ----------------------------------------------------------

    def _cross(self, t: float) -> None:
        """Sample every boundary ``<= t``; called just before the clock
        advances to ``t`` (so samples see exactly the events < b)."""
        boundary = self._next_ns
        period = self.period_ns
        while boundary <= t:
            self._sample(boundary)
            boundary += period
        self._next_ns = boundary

    def _finish(self, stop_at: float) -> None:
        """Emit trailing boundaries up to a finite run horizon."""
        if stop_at != _INF:
            self._cross(stop_at)

    # -- sampling ----------------------------------------------------------

    def _series_for(self, name: str) -> Series:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = Series(self.config.capacity)
        return series

    def _sample(self, boundary: float) -> None:
        run = self.run
        self.ticks += 1
        period = self.period_ns
        pending: Dict[str, Tuple[Dict[int, int], int]] = {}
        for key, metric in run.metrics._metrics.items():
            kind = metric.kind
            name = render_key(key)
            if kind == "counter":
                value = metric.value
                last = self._counter_last.get(name, 0)
                self._counter_last[name] = value
                self._series_for(name).push(boundary, value - last)
            elif kind == "gauge":
                self._series_for(name).push(boundary, metric.value)
            elif kind == "timeweighted":
                tw = getattr(metric, "_tw", None)
                if tw is None:
                    continue  # frozen (absorbed from a shard): no clock
                integral = (tw._integral
                            + tw._value * (boundary - tw._last_change))
                last = self._tw_last.get(name, 0.0)
                self._tw_last[name] = integral
                self._series_for(f"{name}:avg").push(
                    boundary, (integral - last) / period)
            elif kind == "histogram":
                buckets = metric.buckets
                prev = self._hist_last.get(name)
                if prev is None:
                    deltas = {idx: n for idx, n in buckets.items() if n}
                    count_delta = metric.count
                else:
                    prev_buckets, prev_count = prev
                    deltas = {}
                    for idx, n in buckets.items():
                        d = n - prev_buckets.get(idx, 0)
                        if d:
                            deltas[idx] = d
                    count_delta = metric.count - prev_count
                self._hist_last[name] = (dict(buckets), metric.count)
                self._series_for(f"{name}:rate").push(boundary, count_delta)
                base = key[0]
                for spec in self.monitor.specs:
                    if spec.metric == base:
                        merged, n = pending.get(spec.name,
                                                (_EMPTY_DELTAS, 0))
                        if merged is _EMPTY_DELTAS:
                            pending[spec.name] = (deltas, count_delta)
                        else:
                            for idx, c in deltas.items():
                                merged[idx] = merged.get(idx, 0) + c
                            pending[spec.name] = (merged, n + count_delta)
        for spec in self.monitor.specs:
            sketch = self._sketches[spec.name]
            deltas, n = pending.get(spec.name, (_EMPTY_DELTAS, 0))
            sketch.push(dict(deltas) if deltas else {}, n)
            value = sketch.percentile(spec.percentile)
            self._series_for(
                f"slo:{spec.name}:p{spec.percentile:g}w").push(
                boundary, value)
            self.monitor.observe(spec, boundary, period, value)
        part = getattr(run, "partition", None)
        if part is not None:
            busy_ns = part.busy_ns
            for dom in part.names:
                busy = busy_ns[dom]
                last = self._busy_last.get(dom, 0.0)
                self._busy_last[dom] = busy
                self._series_for(f'part.busy{{domain="{dom}"}}').push(
                    boundary, (busy - last) / period)

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        # The run back-reference closes a cycle through the env (full of
        # generators); shard absorption re-links the restored run.
        state = dict(self.__dict__)
        state["run"] = None
        return state


def blame_kinds(run, incident: Incident,
                lookback_ns: float = 0.0) -> List[str]:
    """Fault kinds whose ``fault.fire`` spans overlap an incident.

    An incident opened at ``open_ns`` was typically *caused* earlier --
    the breach needs ``open_after`` windows to confirm -- so callers
    pass a lookback (the sampler uses ``sketch_window * period``).
    """
    if run is None:
        return []
    lo = incident.open_ns - lookback_ns
    hi = incident.close_ns if incident.close_ns is not None else _INF
    kinds = set()
    for span in run.spans.spans("fault.fire"):
        if lo <= span.begin_ns <= hi:
            kinds.add((span.args or {}).get("kind", "?"))
    return sorted(kinds)


def fault_incidents(spans, down_kinds: Sequence[str] = _DOWN_KINDS
                    ) -> List[Dict[str, Any]]:
    """Rederive the fault lifecycle as incident rows from spans.

    Pairs each ``fault.fire`` span whose kind is in ``down_kinds`` with
    the first ``fault.verdict`` at or after it (detection) and the
    first ``fault.recover`` at or after that verdict (recovery) -- the
    same pairing rule the ``faults`` experiment uses for its latency
    columns, so the rows are a time-resolved restatement of numbers the
    report already prints, not a new measurement.
    """
    verdicts = sorted(spans.spans("fault.verdict"),
                      key=lambda s: s.begin_ns)
    recovers = sorted(spans.spans("fault.recover"),
                      key=lambda s: s.begin_ns)
    rows = []
    for fire in sorted(spans.spans("fault.fire"), key=lambda s: s.begin_ns):
        kind = (fire.args or {}).get("kind", "?")
        if kind not in down_kinds:
            continue
        detected = next((v.begin_ns for v in verdicts
                         if v.begin_ns >= fire.begin_ns), None)
        recovered = None
        if detected is not None:
            recovered = next(
                (r.end_ns for r in recovers
                 if r.begin_ns >= detected and r.end_ns is not None), None)
        rows.append({"kind": kind, "fired_ns": fire.begin_ns,
                     "detected_ns": detected, "recovered_ns": recovered})
    return rows


# -- export ----------------------------------------------------------------


def _num(value: Optional[float]):
    """JSON-safe sample value (ints stay ints; NaN is never produced)."""
    if value is None:
        return None
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return int(value)
    return value


def _incident_dict(run, timeline: "RunTimeline", inc: Incident) -> dict:
    lookback = timeline.config.sketch_window * timeline.period_ns
    return {
        "slo": inc.slo, "metric": inc.metric,
        "threshold_ns": _num(inc.threshold_ns),
        "open_ns": _num(inc.open_ns), "close_ns": _num(inc.close_ns),
        "peak_ns": _num(inc.peak), "samples": inc.samples,
        "breached": inc.breached, "burn": round(inc.burn, 4),
        "blame": blame_kinds(run, inc, lookback),
    }


def timeline_json(telemetry) -> dict:
    """The ``timeline.json`` payload: every run's series, SLO summary,
    and incident log. Series names are sorted; the whole payload is a
    pure function of the merged hub, so it is byte-identical at any
    ``--jobs``."""
    runs = []
    for run in telemetry.runs:
        timeline = getattr(run, "timeline", None)
        if timeline is None:
            continue
        series = {}
        for name in sorted(timeline.series):
            s = timeline.series[name]
            series[name] = {"t": [_num(t) for t in s.times],
                            "v": [_num(v) for v in s.values],
                            "evicted": s.evicted}
        slo = [{"slo": name, "metric": metric,
                "threshold_ns": _num(threshold), "samples": samples,
                "breached": breached, "incidents": incidents}
               for name, metric, threshold, samples, breached, incidents
               in timeline.monitor.spec_rows()]
        incidents = [_incident_dict(run, timeline, inc)
                     for inc in timeline.monitor.all_incidents()]
        runs.append({"label": run.label,
                     "period_ns": _num(timeline.period_ns),
                     "ticks": timeline.ticks, "series": series,
                     "slo": slo, "incidents": incidents})
    return {"schema": "wave-repro-timeline/1", "runs": runs}


def write_timeline(telemetry, path: str) -> int:
    """Write :func:`timeline_json` to ``path``; returns the run count."""
    payload = timeline_json(telemetry)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=None, separators=(",", ":"),
                  sort_keys=True)
        fh.write("\n")
    return len(payload["runs"])


def write_timeline_csv(telemetry, path: str) -> int:
    """Flat ``run,series,t_ns,value`` CSV of every sample; returns the
    row count. Empty values mark no-data windows."""
    rows = 0
    with open(path, "w") as fh:
        fh.write("run,series,t_ns,value\n")
        for run in telemetry.runs:
            timeline = getattr(run, "timeline", None)
            if timeline is None:
                continue
            label = run.label.replace(",", "_")
            for name in sorted(timeline.series):
                s = timeline.series[name]
                safe = name.replace(",", ";")
                for t, v in zip(s.times, s.values):
                    value = "" if v is None else f"{_num(v)}"
                    fh.write(f"{label},{safe},{_num(t)},{value}\n")
                    rows += 1
    return rows


# -- report sections -------------------------------------------------------


def _fmt_ms(t: Optional[float]) -> str:
    return "-" if t is None else f"{t / 1e6:.3f}ms"


def _fmt_us(v: Optional[float]) -> str:
    return "-" if v is None else f"{v / 1e3:.1f}us"


#: Bounded rendering: series per run / incidents overall in reports.
MAX_SPARK_SERIES = 12
MAX_REPORT_INCIDENTS = 20


def _spark_rows(timeline: "RunTimeline") -> List[Tuple[str, str, str]]:
    """(name, sparkline, range) rows; SLO and busy series lead."""
    names = sorted(timeline.series)
    names.sort(key=lambda n: (0 if n.startswith("slo:")
                              else 1 if n.startswith("part.busy") else 2, n))
    rows = []
    for name in names[:MAX_SPARK_SERIES]:
        series = timeline.series[name]
        values = list(series.values)
        present = [v for v in values if v is not None]
        if not present:
            rows.append((name, " " * min(60, len(values)), "no data"))
            continue
        lo, hi = min(present), max(present)
        rows.append((name, sparkline(values),
                     f"min={lo:,.6g} max={hi:,.6g}"))
    return rows


def timeline_sections(telemetry) -> List[str]:
    """Markdown sections for :func:`repro.obs.report.run_report` (and
    the ``timeline`` CLI): SLO summary table, incident log, and per-run
    sparklines. Empty when no run carries a timeline."""
    timed = [(run, run.timeline) for run in telemetry.runs
             if getattr(run, "timeline", None) is not None]
    if not timed:
        return []
    out: List[str] = []

    spec_rows = []
    for run, timeline in timed:
        for name, metric, threshold, samples, breached, incidents in \
                timeline.monitor.spec_rows():
            spec_rows.append((run.label, name, metric,
                              f"{threshold / 1e3:,.4g}us", str(samples),
                              str(breached), str(incidents)))
    if spec_rows:
        from repro.obs.report import md_table
        out.append("")
        out.append("## SLO monitors")
        out.append("")
        out.append(md_table(
            ["run", "slo", "metric", "threshold", "samples", "breached",
             "incidents"], spec_rows))

    incident_lines = []
    for run, timeline in timed:
        lookback = timeline.config.sketch_window * timeline.period_ns
        for inc in timeline.monitor.all_incidents():
            blame = blame_kinds(run, inc, lookback)
            suffix = f" blame={','.join(blame)}" if blame else ""
            incident_lines.append(
                f"- {run.label} `{inc.slo}` open {_fmt_ms(inc.open_ns)} "
                f"close {_fmt_ms(inc.close_ns)} peak {_fmt_us(inc.peak)} "
                f"burn {inc.burn:.2f} ({inc.breached}/{inc.samples} "
                f"samples){suffix}")
    if incident_lines:
        shown = incident_lines[:MAX_REPORT_INCIDENTS]
        out.append("")
        out.append("## Incident log")
        out.append("")
        out.extend(shown)
        if len(incident_lines) > len(shown):
            out.append(f"- ... {len(incident_lines) - len(shown)} more")

    out.append("")
    out.append("## Metric timelines")
    for run, timeline in timed:
        out.append("")
        out.append(f"run `{run.label}` "
                   f"(period {timeline.period_ns / 1e6:.3f}ms, "
                   f"{timeline.ticks} samples)")
        out.append("")
        out.append("```")
        rows = _spark_rows(timeline)
        width = max((len(name) for name, _, _ in rows), default=0)
        for name, spark, rng in rows:
            out.append(f"{name.ljust(width)} |{spark}| {rng}")
        hidden = len(timeline.series) - len(rows)
        if hidden > 0:
            out.append(f"... {hidden} more series (see timeline.json)")
        out.append("```")
    return out


def timeline_report(telemetry, title: str = "timeline") -> str:
    """Standalone report for the ``timeline`` CLI: header, the shared
    sections, plus a fault-lifecycle section when fault spans exist."""
    timed = [run for run in telemetry.runs
             if getattr(run, "timeline", None) is not None]
    lines = [f"# {title}", ""]
    lines.append(f"- runs with timelines: {len(timed)} / "
                 f"{len(telemetry.runs)}")
    total = sum(run.timeline.ticks for run in timed)
    lines.append(f"- samples: {total}")
    lines.extend(timeline_sections(telemetry))

    fault_rows = []
    for run in telemetry.runs:
        for row in fault_incidents(run.spans):
            detected = row["detected_ns"]
            recovered = row["recovered_ns"]
            fault_rows.append(
                f"- {run.label} {row['kind']} fired "
                f"{_fmt_ms(row['fired_ns'])} detected "
                f"{_fmt_ms(detected)} recovered {_fmt_ms(recovered)}")
    if fault_rows:
        lines.append("")
        lines.append("## Fault lifecycle")
        lines.append("")
        lines.extend(fault_rows[:MAX_REPORT_INCIDENTS])
    lines.append("")
    return "\n".join(lines)
