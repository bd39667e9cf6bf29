"""Event-loop profiler: where does the *simulator* spend its host time?

Simulated-time telemetry explains the modeled system; this profiler
explains the model itself. It is a thin :mod:`cProfile` wrapper: a
profiled run executes exactly the dispatch loop an unprofiled run with
the same telemetry executes, and the profiler reports calls and *self*
time per function and per ``repro`` package (:data:`LAYERS`).
Builtins, the standard library and third-party code such as numpy
share one ``other`` row, as do the top-level ``repro`` modules.

Times are CPU seconds (:func:`time.process_time`), so a pooled parent
waiting on its workers records next to nothing. Each pool worker
profiles its own points and ships :meth:`LoopProfiler.state` back in
its telemetry shard; the parent merges them in submission order. Host
times are host-dependent by nature, so they feed the profiler table
only -- never the metrics dump or its determinism digest.

Enable via ``python -m repro run <exp> --profile`` or by constructing
``Telemetry(profiler=LoopProfiler())``: the hub's ``install()`` starts
the profiler and ``uninstall()`` stops it. :mod:`cProfile` is imported
at the first start only, because every workload imports
:mod:`repro.obs`.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

#: The ``repro`` packages the layer table splits host time across.
LAYERS = ("sim", "ghost", "core", "queues", "hw", "rpc", "mem", "sched",
          "workloads", "obs", "bench")
#: The row for everything outside :data:`LAYERS`.
OTHER = "other"

_PACKAGE_DIR = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))) + os.sep


def _function(key: Tuple[str, int, str]) -> Tuple[str, str]:
    """``(layer, label)`` of a cProfile function key ``(file, line, name)``."""
    filename, line, name = key
    if filename == "~":  # a builtin
        return OTHER, name
    if filename.startswith(_PACKAGE_DIR):
        path = filename[len(_PACKAGE_DIR):]
        layer = path.split(os.sep, 1)[0]
        return (layer if layer in LAYERS else OTHER), f"{path}:{line}({name})"
    return OTHER, f"{os.path.basename(filename)}:{line}({name})"


class LoopProfiler:
    """Calls and CPU self time per function, grouped by layer."""

    def __init__(self):
        #: ``(layer, function) -> [calls, self_seconds]``.
        self.functions: Dict[Tuple[str, str], List[float]] = {}
        self._profile = None

    def start(self) -> None:
        """Start profiling (a no-op while already started)."""
        if self._profile is None:
            import cProfile
            self._profile = cProfile.Profile(time.process_time)
            self._profile.enable()

    def stop(self) -> None:
        """Stop profiling; fold what it measured into :attr:`functions`."""
        profile, self._profile = self._profile, None
        if profile is None:
            return
        profile.create_stats()  # disables, then snapshots
        for key, (_, calls, self_s, _, _) in profile.stats.items():
            self._add(_function(key), calls, self_s)

    def _add(self, key: Tuple[str, str], calls: int, self_s: float) -> None:
        entry = self.functions.get(key)
        if entry is None:
            self.functions[key] = [calls, self_s]
        else:
            entry[0] += calls
            entry[1] += self_s

    # -- sharding -----------------------------------------------------------

    def state(self) -> dict:
        """Picklable snapshot (a sweep worker ships this in its
        :class:`~repro.obs.shard.TelemetryShard`)."""
        return {"functions": {key: list(entry)
                              for key, entry in self.functions.items()}}

    def merge_state(self, state: dict) -> "LoopProfiler":
        """Fold a worker profiler's :meth:`state` into this one.

        CPU seconds are additive across processes: the table shows the
        sweep's total CPU, not its elapsed time.
        """
        for key, (calls, self_s) in state["functions"].items():
            self._add(key, calls, self_s)
        return self

    # -- views --------------------------------------------------------------

    def rows(self) -> List[Tuple[str, int, float]]:
        """``(layer, calls, self_seconds)`` per layer, by self time."""
        layers: Dict[str, List[float]] = {}
        for (layer, _), (calls, self_s) in self.functions.items():
            entry = layers.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        out = [(layer, int(calls), self_s)
               for layer, (calls, self_s) in layers.items()]
        out.sort(key=lambda row: (-row[2], row[0]))
        return out

    def table(self, top: int = 20) -> str:
        """The layer table, then the ``top`` functions by self time."""
        rows = self.rows()
        total = sum(row[2] for row in rows)
        calls = sum(row[1] for row in rows)

        def share(self_s: float) -> str:
            return f"{100.0 * self_s / total if total else 0.0:>6.1f}%"

        lines = [f"event-loop profile: {total:.3f} s CPU, {calls:,} calls",
                 f"{'layer':<10} {'calls':>12} {'self ms':>10} {'self %':>7}"]
        for layer, n, self_s in rows:
            lines.append(f"{layer:<10} {n:>12,} {self_s * 1e3:>10.2f} "
                         f"{share(self_s)}")
        lines.append(f"{'function':<56} {'layer':<10} {'calls':>12} "
                     f"{'self ms':>10} {'self %':>7}")
        ranked = sorted(self.functions.items(),
                        key=lambda item: (-item[1][1], item[0]))
        for (layer, function), (n, self_s) in ranked[:top]:
            lines.append(f"{function[-56:]:<56} {layer:<10} {int(n):>12,} "
                         f"{self_s * 1e3:>10.2f} {share(self_s)}")
        return "\n".join(lines)
