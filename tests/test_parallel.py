"""Tests for the process-pool sweep runner (repro.bench.parallel)."""

import os
import time

import pytest

from repro.bench.parallel import (
    PointSpec,
    parallel_map,
    resolve_jobs,
    run_points,
)
from repro.core import Placement, WaveOpts
from repro.sched import FifoPolicy
from repro.sched.experiment import sweep_load
from repro.workloads import RocksDbModel


def _ident(i):
    return i


def _ident_slow_first(i, n):
    # Earlier submissions sleep longer, so workers *complete* in reverse
    # submission order -- the merge must not care.
    time.sleep(0.05 * (n - i))
    return i


def _worker_pid(_i):
    return os.getpid()


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(-1) == (os.cpu_count() or 1)


def test_results_in_submission_order_not_completion_order():
    n = 4
    specs = [PointSpec(_ident_slow_first, (i, n)) for i in range(n)]
    assert run_points(specs, jobs=2) == [0, 1, 2, 3]


def test_serial_and_parallel_agree():
    specs = [PointSpec(_ident, (i,)) for i in range(6)]
    assert run_points(specs, jobs=None) == run_points(specs, jobs=3)


def test_pool_actually_engages_multiple_processes():
    pids = run_points([PointSpec(_worker_pid, (i,)) for i in range(4)],
                      jobs=2)
    assert all(pid != os.getpid() for pid in pids)


def test_unpicklable_specs_fall_back_to_serial():
    sink = []
    specs = [PointSpec(lambda i=i: sink.append(i) or i, ())
             for i in range(3)]
    assert run_points(specs, jobs=2) == [0, 1, 2]
    assert sink == [0, 1, 2]  # ran in this process


def _instrumented_point(i):
    """A tiny simulation that records telemetry when a hub is attached."""
    from repro.sim import Environment
    env = Environment()
    tel = env.telemetry

    def proc():
        if tel is not None:
            tel.count("tiny.points")
            tel.observe("tiny.value", 10.0 * (i + 1))
            tel.span("tiny.stage", "trk", dur_ns=5.0, i=i)
        yield env.timeout(10)

    env.process(proc())
    env.run(until=20)
    return os.getpid()


def test_installed_telemetry_no_longer_forces_serial():
    """PR 4 contract: an instrumented sweep runs in the pool, and the
    workers' telemetry shards are merged back into the parent hub."""
    from repro.obs import Telemetry
    hub = Telemetry()
    with hub:
        pids = run_points(
            [PointSpec(_instrumented_point, (i,)) for i in range(3)],
            jobs=2)
    assert all(pid != os.getpid() for pid in pids)
    assert len(hub.runs) == 3
    assert [run.label for run in hub.runs] == ["run0", "run1", "run2"]
    assert all(run.worker is not None for run in hub.runs)
    for run in hub.runs:
        assert run.metrics.counter("tiny.points").value == 1
        assert run.spans.spans("tiny.stage")
    # Nothing leaks into later environments: the parent hub stays the
    # installed one inside the block, none outside.
    from repro.sim import Environment
    assert Environment().telemetry is None


def test_unpicklable_fallback_warns_and_counts(capsys):
    from repro.bench import parallel as par
    health = par.reset_sweep_health()
    par._warned_unpicklable = False
    sink = []
    specs = [PointSpec(lambda i=i: sink.append(i) or i, ())
             for i in range(3)]
    assert run_points(specs, jobs=2) == [0, 1, 2]
    assert run_points(specs, jobs=2) == [0, 1, 2]
    err = capsys.readouterr().err
    assert err.count("not picklable") == 1  # warned once, counted twice
    counter = health.counter("sweep.fallback", reason="unpicklable")
    assert counter.value == 2


def test_sweep_health_worker_family():
    from repro.bench import parallel as par
    health = par.reset_sweep_health()
    run_points([PointSpec(_ident, (i,)) for i in range(4)], jobs=2)
    dump = health.dump()
    assert "sweep.pool.runs 1" in dump
    assert 'sweep.worker.points{worker="0"}' in dump
    total = sum(m.value for key, m in health._metrics.items()
                if key[0] == "sweep.worker.points")
    assert total == 4


def test_sweep_health_counts_points_without_done_heartbeats(monkeypatch,
                                                            capsys):
    # A "done" heartbeat can arrive after the results (another pipe), or
    # not before the sweep ends on a loaded host: each point's own
    # result must still account it, once.
    from repro.bench import parallel as par
    health = par.reset_sweep_health()
    send = par._heartbeat

    def start_only(kind, *args, **kwargs):
        if kind == "start":
            send(kind, *args, **kwargs)

    monkeypatch.setattr(par, "_heartbeat", start_only)  # before the fork
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    assert run_points([PointSpec(_ident, (i,)) for i in range(4)],
                      jobs=2) == [0, 1, 2, 3]
    total = sum(m.value for key, m in health._metrics.items()
                if key[0] == "sweep.worker.points")
    assert total == 4
    assert "sweep: 4/4 points" in capsys.readouterr().err


def test_parallel_map_sugar():
    assert parallel_map(_ident, [(0,), (1,), (2,)], jobs=2) == [0, 1, 2]


def test_sweep_load_byte_identical_across_jobs():
    rates = [400_000, 500_000]
    kwargs = dict(duration_ns=2_000_000, warmup_ns=400_000, seed=1)
    serial = sweep_load(Placement.NIC, WaveOpts.full(), 4, FifoPolicy,
                        RocksDbModel.fifo_mix, rates, **kwargs)
    pooled = sweep_load(Placement.NIC, WaveOpts.full(), 4, FifoPolicy,
                        RocksDbModel.fifo_mix, rates, jobs=2, **kwargs)
    assert [repr(r) for r in serial] == [repr(r) for r in pooled]


def test_faults_report_byte_identical_across_jobs():
    from repro.bench import faults
    serial = faults.run(fast=True, jobs=None).render()
    pooled = faults.run(fast=True, jobs=4).render()
    assert serial == pooled
