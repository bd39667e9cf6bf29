"""Live sweep progress and stall detection for the process pool.

Workers send ``("start"|"done", point_index, pid, events,
timeline_samples)`` heartbeats
over a queue (see :mod:`repro.bench.parallel`); the parent folds them
into a :class:`SweepProgress`, which renders a stderr progress line
(points done/total, events/sec, per-worker status) and surfaces hung
points instead of letting a sweep wait silently.

Rendering modes (``REPRO_PROGRESS`` environment variable):

- ``0`` -- silent (stall warnings still print);
- ``1`` -- one line per completed point (CI-log friendly);
- ``live`` -- a single ``\\r``-rewritten status line;
- unset -- ``live`` when stderr is a tty, else a single summary line
  when the sweep finishes.

Progress is presentation only: nothing here feeds the metrics digest,
trace, or report, so a watched sweep stays byte-identical to a quiet
one. The structured counterpart is the ``sweep.worker.*`` metric family
kept by :func:`repro.bench.parallel.sweep_health`.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

#: Seconds a point may run without finishing before it is reported as a
#: possible stall (override with ``REPRO_STALL_S``). Sweep points are
#: seconds-long simulations; minutes-long is news.
DEFAULT_STALL_S = 300.0


def _fmt_events(events: float) -> str:
    if events >= 1e6:
        return f"{events / 1e6:.1f}M"
    if events >= 1e3:
        return f"{events / 1e3:.0f}k"
    return f"{events:.0f}"


def resolve_mode(stream) -> str:
    """Pick a rendering mode from ``REPRO_PROGRESS`` and the stream."""
    raw = os.environ.get("REPRO_PROGRESS", "").strip().lower()
    if raw in ("0", "off", "none"):
        return "off"
    if raw in ("1", "line", "lines"):
        return "line"
    if raw == "live":
        return "live"
    try:
        tty = stream.isatty()
    except Exception:
        tty = False
    return "live" if tty else "summary"


class SweepProgress:
    """Tracks one pool sweep: who is running what, and for how long."""

    def __init__(self, total: int, jobs: int,
                 labels: Optional[List[str]] = None,
                 stream=None, mode: Optional[str] = None,
                 stall_after_s: Optional[float] = None,
                 clock=time.monotonic):
        self.total = total
        self.jobs = jobs
        self.labels = labels or []
        self.stream = stream if stream is not None else sys.stderr
        self.mode = mode or resolve_mode(self.stream)
        if stall_after_s is None:
            stall_after_s = float(os.environ.get("REPRO_STALL_S",
                                                 DEFAULT_STALL_S))
        self.stall_after_s = stall_after_s
        self.clock = clock
        self.t0 = clock()
        self.events_total = 0
        self.samples_total = 0
        #: point index -> (worker slot, start time) for in-flight points.
        self.running: Dict[int, Tuple[int, float]] = {}
        #: point index -> worker slot, for every point ever started.
        self.point_worker: Dict[int, int] = {}
        #: Indices of the points already finished.
        self.finished: Set[int] = set()
        self.stalled: List[int] = []
        self._slots: Dict[int, int] = {}     # pid -> stable worker slot
        self._live_dirty = False

    @property
    def done(self) -> int:
        """Points finished so far."""
        return len(self.finished)

    # -- heartbeat ingestion -------------------------------------------------

    def worker_slot(self, pid: int) -> int:
        """Stable small slot index for a worker pid (first-seen order)."""
        slot = self._slots.get(pid)
        if slot is None:
            slot = self._slots[pid] = len(self._slots)
        return slot

    def start(self, index: int, slot: int) -> None:
        self.running[index] = (slot, self.clock())
        self.point_worker[index] = slot
        if self.mode == "live":
            self._render_live()

    def finish(self, index: int, slot: int, events: int,
               samples: int = 0) -> None:
        started = self.running.pop(index, None)
        self.point_worker.setdefault(index, slot)
        self.finished.add(index)
        self.events_total += events or 0
        self.samples_total += samples or 0
        if self.mode == "line":
            took = ""
            if started is not None:
                took = f", {self.clock() - started[1]:.1f}s"
            self._write(f"sweep [{self.done}/{self.total}] "
                        f"{self._label(index)} done "
                        f"(worker {slot}{took})\n")
        elif self.mode == "live":
            self._render_live()

    def tick(self) -> List[int]:
        """Poll for stalls; returns point indices newly flagged."""
        now = self.clock()
        fresh = []
        for index, (slot, since) in self.running.items():
            if index in self.stalled or now - since < self.stall_after_s:
                continue
            self.stalled.append(index)
            fresh.append(index)
            if self.mode != "off":
                self._clear_live()
                self._write(
                    f"sweep: point {self._label(index)} has been running "
                    f"for {now - since:.0f}s in worker {slot} -- "
                    f"possible stall (REPRO_STALL_S="
                    f"{self.stall_after_s:.0f})\n")
        if self.mode == "live":
            self._render_live()
        return fresh

    def close(self) -> None:
        """Final summary line (live line is replaced by it)."""
        self._clear_live()
        if self.mode == "off":
            return
        wall = max(self.clock() - self.t0, 1e-9)
        line = (f"sweep: {self.done}/{self.total} points, "
                f"{self.jobs} workers, {wall:.1f}s")
        if self.events_total:
            line += (f", {_fmt_events(self.events_total)} events "
                     f"({_fmt_events(self.events_total / wall)}/s)")
        if self.samples_total:
            line += (f", {_fmt_events(self.samples_total)} timeline "
                     f"samples")
        if self.stalled:
            line += f", {len(self.stalled)} stall warning(s)"
        self._write(line + "\n")

    # -- rendering ----------------------------------------------------------

    def _label(self, index: int) -> str:
        if index < len(self.labels) and self.labels[index]:
            return self.labels[index]
        return f"#{index}"

    def _write(self, text: str) -> None:
        try:
            self.stream.write(text)
            self.stream.flush()
        except Exception:  # a closed/odd stream must never kill a sweep
            pass

    def status_line(self) -> str:
        """The live one-liner: done/total, events/sec, worker status."""
        wall = max(self.clock() - self.t0, 1e-9)
        parts = [f"sweep {self.done}/{self.total}"]
        if self.events_total:
            parts.append(f"{_fmt_events(self.events_total / wall)} ev/s")
        now = self.clock()
        busy = []
        for index, (slot, since) in sorted(self.running.items(),
                                           key=lambda kv: kv[1][0]):
            busy.append(f"w{slot}:{self._label(index)}"
                        f"({now - since:.0f}s)")
        if busy:
            parts.append(" ".join(busy))
        line = "  ".join(parts)
        return line[:118] + ".." if len(line) > 120 else line

    def _render_live(self) -> None:
        self._write("\r\x1b[2K" + self.status_line())
        self._live_dirty = True

    def _clear_live(self) -> None:
        if self._live_dirty:
            self._write("\r\x1b[2K")
            self._live_dirty = False
