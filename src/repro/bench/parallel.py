"""Process-pool execution of independent simulation points.

Every experiment sweep in this repo is a list of *independent* load
points: each ``run_sched_point``/``run_rpc_point``-style call builds its
own :class:`~repro.sim.Environment` with its own seeds, so the points
can run in any order -- or concurrently -- without changing a single
result. This module fans a list of picklable :class:`PointSpec`\\ s out
across a ``multiprocessing`` pool and merges the results back **in
deterministic submission order**, so a sweep at ``--jobs 4`` is
byte-identical to the same sweep at ``--jobs 1``.

Telemetry is parallel-safe: when a hub is installed (``repro run
--trace/--metrics/--profile``, ``repro report``), every pool worker
installs a fresh per-process hub built from the parent's
:meth:`~repro.obs.spans.Telemetry.shard_config`, runs its point fully
instrumented, and returns a picklable
:class:`~repro.obs.shard.TelemetryShard` alongside the point result.
The parent absorbs shards in submission order, renumbering run
indices/labels, so the merged metrics dump, Perfetto trace, and run
report are byte-identical to a serial instrumented sweep. Worker
identity never reaches an exported artifact; it lives on the merged
run's ``worker`` attribute and in the ``sweep.worker.*`` health metrics
(:func:`sweep_health`).

While a pool sweep runs, workers send start/done heartbeats that drive
a stderr progress line (points done/total, events/sec, per-worker
status -- see :mod:`repro.bench.progress`) and stall detection: a point
running past ``REPRO_STALL_S`` (default 300 s) is reported instead of
hanging the sweep silently.

Guard rails:

- ``jobs <= 1`` or a single point: no pool, no overhead; instrumented
  runs feed the parent hub directly (the classic serial path).
- Unpicklable specs (e.g. a closure factory or a ``request_sink``
  list): the pool would fail mid-flight, so they are detected up front
  and the sweep degrades to serial -- **loudly**: a one-time stderr
  warning plus a ``sweep.fallback`` counter, because silently losing
  ``--jobs`` hides real wall-clock regressions.

Workers prefer the ``fork`` start method where available (cheap, and
inherits the imported modules); elsewhere the platform default is used.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import queue as queue_mod
import sys
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Parent-side poll period while waiting on the pool (heartbeat drain,
#: progress redraw, stall checks).
_POLL_S = 0.2


@dataclasses.dataclass(frozen=True)
class PointSpec:
    """One independent simulation point: a picklable deferred call.

    ``fn`` must be importable by reference (a module-level function,
    class, or classmethod) and its arguments plain data -- which every
    ``run_*_point`` entry point in this repo satisfies. ``label`` is
    presentation only (the progress line); it never affects results or
    telemetry artifacts.
    """

    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    label: str = ""

    def __call__(self) -> Any:
        return self.fn(*self.args, **self.kwargs)

    def display(self) -> str:
        if self.label:
            return self.label
        return getattr(self.fn, "__name__", "point")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 -> 1, negative -> all cores."""
    if not jobs:
        return 1
    if jobs < 0:
        return os.cpu_count() or 1
    return jobs


def _picklable(specs: List[PointSpec]) -> bool:
    try:
        pickle.dumps(specs)
        return True
    except Exception:
        return False


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover -- non-fork platforms
        return multiprocessing.get_context()


# -- sweep health (structured progress/fallback metrics) ---------------------

#: Registry behind :func:`sweep_health`. Deliberately separate from any
#: telemetry hub: worker identity and fallback events are host-run
#: facts, and folding them into a run's registry would break the
#: ``--jobs 1`` vs ``--jobs N`` digest-parity contract.
_HEALTH = MetricsRegistry()

_warned_unpicklable = False


def sweep_health() -> MetricsRegistry:
    """The process-wide ``sweep.*`` metric family: pool runs, per-worker
    point/heartbeat/event counts, stall and fallback counters."""
    return _HEALTH


def reset_sweep_health() -> MetricsRegistry:
    """Swap in a fresh health registry (tests); returns the new one."""
    global _HEALTH
    _HEALTH = MetricsRegistry()
    return _HEALTH


def _note_unpicklable_fallback(n_points: int) -> None:
    global _warned_unpicklable
    _HEALTH.counter("sweep.fallback", reason="unpicklable").incr()
    if not _warned_unpicklable:
        _warned_unpicklable = True
        print("repro.bench.parallel: point specs are not picklable; "
              f"running {n_points} point(s) serially (--jobs ignored). "
              "Pass module-level callables and plain-data arguments to "
              "keep the process pool available.", file=sys.stderr)


# -- worker side -------------------------------------------------------------

_WORKER_HB = None
_WORKER_TEL_CFG = None


def _init_worker(hb_queue, tel_config) -> None:
    """Pool initializer: stash the heartbeat queue + telemetry config.

    A forked worker also inherits the parent's *installed* hub; feeding
    it would silently discard telemetry (the copy never returns), so it
    is uninstalled here and replaced per point in
    :func:`_run_spec_sharded`. Uninstalling also stops the hub's
    inherited profiler: cProfile (3.12+) refuses to start the worker
    hub's own while another profiler is active.
    """
    global _WORKER_HB, _WORKER_TEL_CFG
    _WORKER_HB = hb_queue
    _WORKER_TEL_CFG = tel_config
    from repro.sim import core as sim_core
    inherited = sim_core.default_telemetry()
    if inherited is not None:
        inherited.uninstall()


def _heartbeat(kind: str, index: int, events: int,
               samples: int = 0) -> None:
    if _WORKER_HB is None:
        return
    try:
        _WORKER_HB.put((kind, index, os.getpid(), events, samples))
    except Exception:  # a broken channel must never fail the point
        pass


def _run_spec_sharded(item: Tuple[int, PointSpec]):
    """Worker entry: run one point, instrumented when configured.

    Returns ``(result, shard_or_None, pid)``; the shard carries
    everything a fresh per-process hub collected for this point, and the
    pid names the worker that ran it.
    """
    index, spec = item
    _heartbeat("start", index, 0)
    if _WORKER_TEL_CFG is None:
        result = spec()
        _heartbeat("done", index, 0)
        return result, None, os.getpid()
    from repro.obs.spans import Telemetry
    hub = Telemetry.from_shard_config(_WORKER_TEL_CFG)
    hub.install()
    try:
        result = spec()
    finally:
        hub.uninstall()
    shard = hub.shard()
    _heartbeat("done", index, shard.events_scheduled,
               shard.timeline_samples)
    return result, shard, os.getpid()


# -- parent side -------------------------------------------------------------

def _finish_point(progress, index: int, pid: int, events: int,
                  samples: int) -> None:
    """Account one point's completion, once: from its "done" heartbeat
    or, if that has not arrived, from the result ``pool.map`` returned
    (a late heartbeat for a finished point is then ignored)."""
    if index in progress.finished:
        return
    slot = progress.worker_slot(pid)
    progress.finish(index, slot, events, samples)
    _HEALTH.counter("sweep.worker.points", worker=str(slot)).incr()
    if events:
        _HEALTH.counter("sweep.worker.events", worker=str(slot)).incr(events)
    if samples:
        _HEALTH.counter("sweep.worker.timeline_samples",
                        worker=str(slot)).incr(samples)


def _drain_heartbeats(hb_queue, progress) -> None:
    """Absorb the worker heartbeats queued so far into progress + health
    metrics (non-blocking)."""
    while True:
        try:
            kind, index, pid, events, samples = hb_queue.get_nowait()
        except queue_mod.Empty:
            return
        except (OSError, EOFError):  # pragma: no cover -- pool teardown
            return
        slot = progress.worker_slot(pid)
        _HEALTH.counter("sweep.worker.heartbeats", worker=str(slot)).incr()
        if kind == "start":
            progress.start(index, slot)
        else:
            _finish_point(progress, index, pid, events, samples)


def run_points(specs: Iterable[PointSpec],
               jobs: Optional[int] = None) -> List[Any]:
    """Run every spec; results in submission order regardless of which
    worker finishes first (``pool.map`` keys results by input index, so
    ``ExperimentReport`` rows can never depend on completion order)."""
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [spec() for spec in specs]
    if not _picklable(specs):
        _note_unpicklable_fallback(len(specs))
        return [spec() for spec in specs]
    from repro.sim.core import default_telemetry
    hub = default_telemetry()
    tel_cfg = hub.shard_config() if hub is not None else None

    from repro.bench.progress import SweepProgress
    ctx = _pool_context()
    hb_queue = ctx.Queue()
    n_workers = min(jobs, len(specs))
    progress = SweepProgress(total=len(specs), jobs=n_workers,
                             labels=[spec.display() for spec in specs])
    _HEALTH.counter("sweep.pool.runs").incr()
    _HEALTH.gauge("sweep.pool.jobs").set(n_workers)
    try:
        with ctx.Pool(processes=n_workers, initializer=_init_worker,
                      initargs=(hb_queue, tel_cfg)) as pool:
            # chunksize=1: points are seconds-long sims, so scheduling
            # granularity beats batching.
            pending = pool.map_async(_run_spec_sharded,
                                     list(enumerate(specs)), chunksize=1)
            while True:
                pending.wait(_POLL_S)
                _drain_heartbeats(hb_queue, progress)
                for _ in progress.tick():
                    _HEALTH.counter("sweep.point.stalls").incr()
                if pending.ready():
                    break
            outputs = pending.get()
        # Results and heartbeats travel on different pipes, so the last
        # "done" heartbeats may still be in flight: every point not yet
        # accounted is finished from its own result instead.
        _drain_heartbeats(hb_queue, progress)
        for index, (_, shard, pid) in enumerate(outputs):
            if shard is None:
                _finish_point(progress, index, pid, 0, 0)
            else:
                _finish_point(progress, index, pid, shard.events_scheduled,
                              shard.timeline_samples)
    finally:
        progress.close()

    results = []
    for index, (result, shard, _) in enumerate(outputs):
        results.append(result)
        if shard is not None and hub is not None:
            hub.absorb(shard, worker=progress.point_worker.get(index))
    return results


def parallel_map(fn: Callable[..., Any], arg_tuples: Iterable[Tuple],
                 jobs: Optional[int] = None, **common_kwargs) -> List[Any]:
    """``run_points`` sugar: one spec per positional-args tuple, all
    sharing ``common_kwargs``."""
    return run_points(
        [PointSpec(fn, tuple(args), dict(common_kwargs))
         for args in arg_tuples],
        jobs=jobs)
