"""Guards on the serial kernel's fast path (docs/performance.md, §1).

A dispatched event should cost the simulator a few Python calls, not a
property read per clock access, a helper per staged admission or two
frames per process resume. The call count is exact for a fixed seed, so
the guard is deterministic; the clock test keeps ``Environment.now``
read-only by contract now that it is a plain attribute.
"""

import ast
import cProfile
import os
import pstats

import repro
from repro.core import Placement, WaveOpts
from repro.sched import FifoPolicy
from repro.sched.experiment import run_sched_point
from repro.workloads import RocksDbModel

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SIM_DIR = os.path.join(PACKAGE_DIR, "sim") + os.sep

#: Python calls into ``repro/sim/`` per dispatched event on the point
#: below: 5.99 before the one-frame resume, the plain-attribute clock
#: and inline staged admission; now at most 3.41 over CI's engine
#: configurations (2.96-2.97 with the timer wheel off). Exact for the
#: seed, so the margin only absorbs interpreter-version differences.
MAX_SIM_CALLS_PER_EVENT = 3.5

#: The only modules allowed to assign the clock: the dispatch loops.
CLOCK_WRITERS = {os.path.join(PACKAGE_DIR, "sim", "core.py"),
                 os.path.join(PACKAGE_DIR, "sim", "partition.py")}


def test_sim_calls_per_dispatched_event():
    # Wave-16 FIFO at 600k req/s (the Fig 4a point), 2 ms simulated.
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
    calls = sum(entry[1] for func, entry in
                pstats.Stats(profiler).stats.items()
                if func[0].startswith(SIM_DIR))
    per_event = calls / counters["events_dispatched"]
    assert per_event <= MAX_SIM_CALLS_PER_EVENT, (
        f"{calls} calls into repro/sim for "
        f"{counters['events_dispatched']} dispatched events")


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
