"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per (workload, repetition) and reads the
JSON object it prints as its last line of output. It times the imports
as set-up, then times the workload call, reads peak RSS, hashes the
output and collects the kernel's event counters from every
``Environment`` the workload builds. With ``--profile`` the call runs
under ``cProfile`` and the profile is split across layers.

Times are reported twice: as measured (``*_raw_s``) and in reference
seconds (``wall_s``, ``cpu_s``, ``setup_s``). A 2-core x86 VM that
shares its cores with other machines drifts in speed by 10%
over minutes and by up to 2x for tens of seconds, moving every measured
time together. So the child also times ``reference``, fixed pure-Python
work, just before the imports and just after the call, and scales each
measured time by ``(REF_S / reference time) ** HOST_SENSITIVITY``.

``HOST_SENSITIVITY`` is the share of a change in host speed, as the
reference sees it, that the workloads feel: it is the control-variate
coefficient that minimises the spread of corrected times. Fitted over
40 runs of 7-10 repetitions on such a VM, run-level sensitivities were
0.7-0.8 and per-repetition fits 0.5-0.8; at 0.75 the spread of run
medians across ten runs fell from 7-18% measured to 1.5-6.5%.

    python perfbench/child.py --workload W --seed N [--smoke] [--profile]
"""

from __future__ import annotations

import argparse
import cProfile
import heapq
import importlib
import json
import os
import pstats
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Time of one ``reference`` call on that VM when quiet (CPython 3.11);
#: it fixes the scale of reference seconds. Changing it, or the next
#: constant, shifts every recorded time.
REF_S = 0.1
HOST_SENSITIVITY = 0.75

#: ``Environment`` attributes summed into the ``sim.*`` counters.
ENV_COUNTERS = {"sim.events_logical": "_seq",
                "sim.events_scheduled": "events_scheduled",
                "sim.events_dispatched": "events_dispatched",
                "sim.timers_coalesced": "timers_coalesced"}
#: Partition-engine attributes, 0 when an env runs the serial kernel.
PARTITION_COUNTERS = {"sim.partition_switches": "domain_switches",
                      "sim.cross_sends": "cross_sends"}
#: ghOSt counters: (class, attribute) per metric.
GHOST_COUNTERS = {"ghost.dispatches": ("agent", "dispatches"),
                  "ghost.prestages": ("agent", "prestages"),
                  "ghost.preemptions": ("kernel", "preempted"),
                  "ghost.failed_txns": ("kernel", "failed_txns")}
#: Model statistics a workload does not produce read as 0.
MODEL_STATS = ("sched.end_backlog", "rpc.stack_utilization",
               "mem.iterations", "mem.iteration_ms", "obs.spans",
               "obs.timeline_samples")


def reference():
    """(wall, cpu) seconds of fixed work shaped like the simulator's: a
    small heap-and-dict loop and a generator-driven event loop. It must
    never change, and must not touch ``repro``, or reference seconds
    would stop being comparable across commits."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    heap, table, acc = [], {}, 0
    for i in range(60_000):
        key = (i * 7919) % 10007
        heapq.heappush(heap, (key, i))
        table[key & 1023] = table.get(key & 511, 0) + i
        if len(heap) > 256:
            acc += heapq.heappop(heap)[1]

    def process(k):
        while True:
            yield (k * 37) % 101 + 1

    events = []
    for k in range(4000):
        gen = process(k)
        events.append((next(gen), k, gen))
    heapq.heapify(events)
    for seq in range(4000, 54_000):
        when, _, gen = heapq.heappop(events)
        heapq.heappush(events, (when + next(gen), seq, gen))
    return time.perf_counter() - wall0, time.process_time() - cpu0


def capture(cls, sink: list) -> None:
    """Append every instance of ``cls`` built from now on to ``sink``."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sink.append(self)

    cls.__init__ = __init__


def counters(envs, agents, kernels) -> dict:
    out = {name: sum(getattr(env, attr) for env in envs)
           for name, attr in ENV_COUNTERS.items()}
    for name, attr in PARTITION_COUNTERS.items():
        out[name] = sum(getattr(env.partition, attr) for env in envs
                        if env.partition is not None)
    owners = {"agent": agents, "kernel": kernels}
    for name, (owner, attr) in GHOST_COUNTERS.items():
        out[name] = sum(getattr(obj, attr) for obj in owners[owner])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, digest
    workload = WORKLOADS[args.workload]
    params = workload.scaled_params(args.smoke)

    ref_before = reference()
    started = time.perf_counter()
    for name in workload.modules:
        importlib.import_module(name)
    setup_s = time.perf_counter() - started

    import repro
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(package_dir) != SRC:
        print(f"imported repro from {package_dir}, not from {SRC}",
              file=sys.stderr)
        return 2

    from repro.sim.core import Environment
    envs, agents, kernels = [], [], []
    capture(Environment, envs)
    if "repro.ghost" in sys.modules:
        from repro.ghost import GhostAgent, GhostKernel
        capture(GhostAgent, agents)
        capture(GhostKernel, kernels)

    profiler = cProfile.Profile() if args.profile else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    output = workload.run(params, args.seed)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference()
    speed = REF_S * 2 / (ref_before[0] + ref_after[0])
    cpu_speed = REF_S * 2 / (ref_before[1] + ref_after[1])
    wall_scale = speed ** HOST_SENSITIVITY
    cpu_scale = cpu_speed ** HOST_SENSITIVITY

    stats = dict.fromkeys(MODEL_STATS, 0)
    stats.update(workload.stats(output))
    stats.update(counters(envs, agents, kernels))
    result = {
        "workload": workload.name, "seed": args.seed, "params": params,
        "setup_s": setup_s * wall_scale,
        "wall_s": wall_s * wall_scale,
        "cpu_s": cpu_s * cpu_scale,
        "peak_rss_mb": peak_rss_mb,
        "setup_raw_s": setup_s, "wall_raw_s": wall_s, "cpu_raw_s": cpu_s,
        "host_speed": speed,
        "digest": digest(workload.payload(output)),
        "problems": workload.check(output, params),
        "stats": stats,
        "profile": None,
    }
    if profiler is not None:
        from layers import attribute
        result["profile"] = attribute(pstats.Stats(profiler).stats,
                                      package_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
