"""Guards on the kernel's fast paths (docs/performance.md, §1 and §7).

A dispatched event should cost the simulator a few Python calls, not a
property read per clock access, a helper per staged admission, two
frames per process resume or a generator per ring wake-up and MSI-X;
an exact-order merge window should cost the partitioned engine no
helper call at all. The call counts are exact for a fixed seed, so the
guards are deterministic; the clock test keeps
``Environment.now`` read-only by contract now that it is a plain
attribute.
"""

import ast
import cProfile
import os
import pstats

import pytest

import repro
from repro.core import Placement, WaveOpts
from repro.obs import Telemetry
from repro.sched import FifoPolicy
from repro.sched.experiment import run_sched_point
from repro.sim import Process
from repro.workloads import RocksDbModel

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SIM_DIR = os.path.join(PACKAGE_DIR, "sim") + os.sep

#: Python calls into ``repro/sim/`` per dispatched event on the point
#: below: 5.99 before the one-frame resume, the plain-attribute clock
#: and inline staged admission; 3.41 before the relays; now 3.18 (3.17
#: with REPRO_NO_PARTITION, CI's other engine leg). Exact for the seed,
#: so the margin only absorbs interpreter-version differences.
MAX_SIM_CALLS_PER_EVENT = 3.5

#: ``Process`` objects built on the point below. Per-message helpers
#: (ring and DMA-queue wakers, MSI-X deliverers) are relays, so 146 are
#: left, none per message: the load generator, the agent, 16 ghOSt core
#: loops and the 128 host cores' deep-sleep checks armed at start. With
#: a helper process per message it was 1,680, of which 1,056 ring
#: wakers and 478 deliverers.
MAX_PROCESSES = 150

#: Python calls into ``repro/sim/partition.py`` per exact-merge window
#: on the same point under telemetry: 9.65 with helper calls for every
#: window's selection, staging and observatory records; now 0.32
#: (cross-domain inserts and sends; wheel promotion and the stale
#: re-arm re-key are the serial kernel's, in wheel.py and core.py).
#: Exact for the seed, like the bound above.
MAX_PARTITION_CALLS_PER_WINDOW = 1.5
PARTITION_PY = os.path.join(PACKAGE_DIR, "sim", "partition.py")

#: The only modules allowed to assign the clock: the dispatch loops.
CLOCK_WRITERS = {os.path.join(PACKAGE_DIR, "sim", "core.py"), PARTITION_PY}


@pytest.fixture(scope="module")
def profiled_point():
    """Wave-16 FIFO at 600k req/s (the Fig 4a point), 2 ms simulated,
    under cProfile: ``(stats, counters)``."""
    counters = {}
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_sched_point(Placement.NIC, WaveOpts.full(), 16, FifoPolicy,
                        RocksDbModel.fifo_mix, 600_000,
                        duration_ns=2_000_000, warmup_ns=400_000, seed=8,
                        counters=counters)
    finally:
        profiler.disable()
    return pstats.Stats(profiler).stats, counters


def test_sim_calls_per_dispatched_event(profiled_point):
    stats, counters = profiled_point
    calls = sum(entry[1] for func, entry in stats.items()
                if func[0].startswith(SIM_DIR))
    per_event = calls / counters["events_dispatched"]
    assert per_event <= MAX_SIM_CALLS_PER_EVENT, (
        f"{calls} calls into repro/sim for "
        f"{counters['events_dispatched']} dispatched events")


def test_no_helper_process_per_message(profiled_point):
    stats, _ = profiled_point
    code = Process.__init__.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    built = stats[key][1]
    assert 0 < built <= MAX_PROCESSES, (
        f"{built} Process objects: a per-message helper is a process")


def test_partition_calls_per_merge_window(monkeypatch):
    # The point above under telemetry, which runs the exact-order merge
    # (and fills the partition observatory) on every engine leg.
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    hub = Telemetry()
    counters = {}
    profiler = cProfile.Profile()
    with hub:
        profiler.enable()
        try:
            run_sched_point(Placement.NIC, WaveOpts.full(), 16, FifoPolicy,
                            RocksDbModel.fifo_mix, 600_000,
                            duration_ns=2_000_000, warmup_ns=400_000,
                            seed=8, counters=counters)
        finally:
            profiler.disable()
    calls = sum(entry[1] for func, entry in
                pstats.Stats(profiler).stats.items()
                if func[0] == PARTITION_PY)
    windows = sum(hub.runs[0].partition.windows.values())
    assert windows == counters["partition_switches"] > 0
    assert calls / windows <= MAX_PARTITION_CALLS_PER_WINDOW, (
        f"{calls} calls into repro/sim/partition.py for {windows} "
        f"exact-merge windows")


def _unpacked(target):
    """The assigned expressions of a target (tuple/list/star unpacked)."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _unpacked(element)
    elif isinstance(target, ast.Starred):
        yield from _unpacked(target.value)
    else:
        yield target


def _clock_writes(source):
    """Line numbers in ``source`` that assign an attribute named ``now``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(sub, ast.Attribute) and sub.attr == "now"
               for target in targets for sub in _unpacked(target)):
            lines.append(node.lineno)
    return lines


def test_clock_write_detector_sees_every_assignment_form():
    # The static check below is only as good as its detector.
    source = ("env.now = 1\nenv.now += 2\nself.env.now: float = 3\n"
              "a, *env.now = 4, 5\nnow = 6\nx = env.now\n"
              "log[env.now] = 7\nenv.now.x = 8\n")
    assert _clock_writes(source) == [1, 2, 3, 4]


def test_only_the_dispatch_loops_assign_the_clock():
    offenders = []
    for root, _, files in os.walk(PACKAGE_DIR):
        for name in sorted(files):
            path = os.path.join(root, name)
            if not name.endswith(".py") or path in CLOCK_WRITERS:
                continue
            with open(path) as fh:
                offenders += [f"{os.path.relpath(path, PACKAGE_DIR)}:{line}"
                              for line in _clock_writes(fh.read())]
    assert not offenders, f"assigns .now: {offenders}"
