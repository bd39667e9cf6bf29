"""Cross-run performance trajectory: history in ``BENCH_perf.json``.

``python -m repro perf`` used to overwrite ``BENCH_perf.json`` with a
single snapshot; regressions could only be judged against one pinned
number. This module turns the file into a *trajectory*: every perf run
appends a timestamped entry to a bounded ``history`` array (the live
snapshot and the ``pre_pr_baseline`` pin are preserved unchanged, so
the CI perf-smoke gate keeps reading the same keys), and

- ``python -m repro perf --compare [N]`` renders the last N entries as
  a Markdown trend table plus an ASCII plot of kernel events/sec and
  fig4a sweep wall-clock across runs, and
- ``python -m repro report --history`` emits the same trend as a
  standalone Markdown report.

History entries are plain scalars (no nested run arrays) so the file
stays small: :data:`HISTORY_LIMIT` runs at ~10 lines each.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from repro.obs.ascii import render_curves
from repro.obs.report import md_table

#: Bound on the ``history`` array; the oldest entries fall off first.
HISTORY_LIMIT = 200


def normalize_entry(entry: dict) -> dict:
    """History hygiene applied on every write: drop null-valued keys
    (older writers emitted ``"jobs": null`` and null wall times on fast
    runs) and guarantee a ``ts`` key. Readers still tolerate
    unnormalized entries -- every consumer uses ``.get()``."""
    out = {key: value for key, value in entry.items() if value is not None}
    out.setdefault("ts", "")
    return out


def history_entry(result: dict, timestamp: str) -> dict:
    """Flatten one perf ``result`` dict into a (normalized) history
    entry. Named model benches contribute one
    ``bench_<name>_events_scheduled`` scalar each, so the trajectory
    shows where event-count wins land or regress per benchmark."""
    kernel = result.get("kernel") or {}
    partition = result.get("kernel_partition") or {}
    timeline = result.get("kernel_timeline") or {}
    fig4a = result.get("fig4a_fast") or {}
    host = result.get("host") or {}
    entry = {
        "ts": timestamp,
        "kernel_events_per_sec": kernel.get("events_per_sec"),
        "kernel_events_scheduled": kernel.get("events_scheduled"),
        "kernel_events_dispatched": kernel.get("events_dispatched"),
        "partition_events_per_sec": partition.get("events_per_sec"),
        "partition_speedup_vs_serial": partition.get("speedup_vs_serial"),
        "kernel_timeline_overhead": timeline.get("overhead_vs_off"),
        "fig4a_serial_wall_s": fig4a.get("serial_wall_s"),
        "fig4a_parallel_wall_s": fig4a.get("parallel_wall_s"),
        "jobs": fig4a.get("jobs"),
        "host_cpu_count": host.get("cpu_count"),
        "python": host.get("python"),
    }
    for name, stats in sorted((result.get("benches") or {}).items()):
        entry[f"bench_{name}_events_scheduled"] = \
            (stats or {}).get("events_scheduled")
    return normalize_entry(entry)


def load_perf(path: str) -> Optional[dict]:
    """The parsed perf artifact at ``path``, or None."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def carry_history(out_path: str,
                  fallback_path: str = "BENCH_perf.json") -> List[dict]:
    """The history to extend: the out file's, else the committed
    artifact's (so a CI run writing ``BENCH_perf_ci.json`` still shows
    the repo's trajectory), else empty."""
    for path in (out_path, fallback_path):
        prior = load_perf(path)
        if prior and isinstance(prior.get("history"), list):
            # Normalize on the way through: entries written before the
            # hygiene rules (null-valued keys, missing ts) come out
            # clean on the next write.
            return [normalize_entry(dict(e)) for e in prior["history"]
                    if isinstance(e, dict)]
        if prior is not None:
            # A pre-trajectory (schema 1) artifact: seed the history
            # with its snapshot so the first trend has two points.
            entry = history_entry(prior, timestamp="(pre-history)")
            if entry.get("kernel_events_per_sec"):
                return [entry]
            return []
    return []


def append_history(history: List[dict], result: dict,
                   timestamp: str) -> List[dict]:
    """History plus this run, oldest-first, bounded."""
    out = list(history) + [history_entry(result, timestamp)]
    return out[-HISTORY_LIMIT:]


def _fmt_delta(current: Optional[float], base: Optional[float]) -> str:
    if not current or not base:
        return "-"
    return f"{100.0 * (current / base - 1.0):+.1f}%"


def _fmt_num(value, suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value != int(value):
        return f"{value:,.2f}{suffix}"
    return f"{value:,.0f}{suffix}"


def render_trend(history: List[dict], baseline: Optional[dict] = None,
                 last: Optional[int] = None,
                 title: str = "perf trajectory") -> str:
    """Markdown + ASCII trend of kernel events/sec and sweep wall-clock.

    ``baseline`` is the ``pre_pr_baseline`` pin (rendered as a
    reference row); ``last`` keeps only the newest N entries.
    """
    entries = list(history)
    if last is not None and last > 0:
        entries = entries[-last:]
    out: List[str] = [f"# {title}", ""]
    if not entries:
        out.append("No history yet: run `python -m repro perf` to record "
                   "the first entry.")
        return "\n".join(out)

    first_ev = next((e.get("kernel_events_per_sec") for e in entries
                     if e.get("kernel_events_per_sec")), None)
    out.append(f"- runs: {len(entries)} (of {len(history)} recorded)")
    pin = (baseline or {}).get("kernel_events_per_sec")
    if pin:
        out.append(f"- pre-PR baseline pin: {pin:,} kernel ev/s")
    out.append("")
    out.append("## Kernel events/sec and sweep wall-clock by run")
    out.append("")
    rows = []
    prev_ev = None
    for index, entry in enumerate(entries):
        ev = entry.get("kernel_events_per_sec")
        rows.append([
            str(index),
            str(entry.get("ts") or "-"),
            _fmt_num(ev),
            _fmt_num(entry.get("kernel_events_scheduled")),
            _fmt_delta(ev, prev_ev),
            _fmt_delta(ev, first_ev) if index else "-",
            _fmt_num(entry.get("partition_speedup_vs_serial"), "x"),
            _fmt_num(entry.get("fig4a_serial_wall_s"), "s"),
            _fmt_num(entry.get("fig4a_parallel_wall_s"), "s"),
        ])
        if ev:
            prev_ev = ev
    out.append(md_table(
        ["run", "timestamp", "kernel ev/s", "events sched", "vs prev",
         "vs first", "partition", "fig4a serial",
         "fig4a --jobs"],
        rows))
    out.append("")
    bench_keys = sorted({key for e in entries for key in e
                         if key.startswith("bench_")
                         and key.endswith("_events_scheduled")})
    if bench_keys:
        out.append("## Model-bench events_scheduled by run")
        out.append("")
        names = [k[len("bench_"):-len("_events_scheduled")]
                 for k in bench_keys]
        bench_rows = [[str(i), str(e.get("ts") or "-")]
                      + [_fmt_num(e.get(k)) for k in bench_keys]
                      for i, e in enumerate(entries)]
        out.append(md_table(["run", "timestamp"] + names, bench_rows))
        out.append("")

    ev_points = [(float(i), float(e["kernel_events_per_sec"]))
                 for i, e in enumerate(entries)
                 if e.get("kernel_events_per_sec")]
    if len(ev_points) >= 2:
        series = {"kernel": ev_points}
        if pin:
            series["pre-PR pin"] = [(p[0], float(pin)) for p in ev_points]
        out.append("```")
        out.append(render_curves(series, x_label="run",
                                 y_label="events/sec"))
        out.append("```")
        out.append("")
    wall_series = {}
    for key, name in (("fig4a_serial_wall_s", "serial"),
                      ("fig4a_parallel_wall_s", "--jobs")):
        pts = [(float(i), float(e[key])) for i, e in enumerate(entries)
               if e.get(key)]
        if len(pts) >= 2:
            wall_series[name] = pts
    if wall_series:
        out.append("## Sweep wall-clock (s) by run")
        out.append("")
        out.append("```")
        out.append(render_curves(wall_series, x_label="run",
                                 y_label="wall s"))
        out.append("```")
        out.append("")
    return "\n".join(out)


def compare_main(out_path: str = "BENCH_perf.json",
                 last: Optional[int] = None) -> int:
    """`repro perf --compare [N]`: print the trend for an existing
    artifact without re-running any benchmark."""
    perf = load_perf(out_path)
    if perf is None and out_path != "BENCH_perf.json":
        perf = load_perf("BENCH_perf.json")
    if perf is None:
        print(f"no perf artifact at {out_path}; run `python -m repro "
              "perf` first")
        return 1
    history = perf.get("history") or [
        history_entry(perf, timestamp="(snapshot)")]
    print(render_trend(history, baseline=perf.get("pre_pr_baseline"),
                       last=last))
    return 0
