"""Performance microbenchmarks with a tracked baseline.

Four measurements, written to ``BENCH_perf.json``:

- **Kernel events/sec**: a pure simulation-kernel workload (timeout
  chains, ``any_of`` race pairs, interrupt-driven preemption) that
  exercises exactly the hot paths the fast dispatch loop optimizes --
  heap pop, cancelled-event skipping, the ``Timeout`` freelist, and
  callback dispatch -- with no model code in the way.
- **partitioned kernel vs serial**: the same workload spread over the
  three hardware-derived timing domains (host / interconnect / NIC),
  run through the partitioned parallel-DES engine
  (:mod:`repro.sim.partition`) in its window-batched default and
  through the serial kernel; gates on dispatch-count equality between
  the two and on the batched mode actually beating serial (>= 1.0x).
  This synthetic workload never degrades; real model workloads do,
  within their first few windows, and then run on the serial kernel.
- **fig4a fast wall-clock**: the end-to-end Fig 4a sweep in ``--fast``
  mode, serially and (on multicore hosts) through the ``--jobs``
  process pool.
- **model benches**: named fixed-scale end-to-end points (a Fig 5
  ticks-on VM point, the reduced Fig 4a FIFO point) with their
  deterministic ``events_scheduled`` counts, tracked per benchmark in
  the history.

``PRE_PR_BASELINE`` pins the numbers measured on the pre-optimization
kernel (same workload, same host) so the speedup is auditable.
``--check`` gates on the *committed* ``BENCH_perf.json`` two ways: it
fails when the fresh kernel events/sec falls more than 30% below the
committed figure (wide, because runner speed is noisy), and when the
fresh kernel ``events_scheduled`` -- a deterministic count -- creeps
more than 10% above the committed value (an event-reduction mechanism
stopped engaging).

Every run also appends a timestamped entry to the artifact's
``history`` array (schema ``wave-repro-perf/2``), giving a cross-run
perf *trajectory* rather than a single point;
``python -m repro perf --compare [N]`` renders it (see
:mod:`repro.bench.trajectory`).

Run as ``python -m repro perf [--fast] [--check] [--jobs N]
[--repeats N] [--compare [N]]``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Optional

from repro.sim import Environment, Interrupt

# Measured on the pre-PR kernel (commit 271e81d), same workload and
# host (1 CPU) as measure_kernel() below. ``kernel_events_logical`` is
# the workload-determined schedule count (env._seq) and must not drift:
# the optimized kernel performs exactly as many *logical* schedules as
# the one it replaced. ``kernel_events_scheduled`` -- heap admissions --
# is what the timer wheel and poll coalescing reduce; the pre-PR kernel
# admitted every logical schedule to the heap, so the two started
# equal. The events-reduction acceptance is measured against this pin.
PRE_PR_BASELINE = {
    "kernel_events_per_sec": 256_234,
    "kernel_events_scheduled": 3_676_318,
    "kernel_events_logical": 3_676_318,
    "fig4a_fast_wall_s": 48.67,
    "host_cpu_count": 1,
}

# --check fails when fresh events/sec < floor * committed events/sec.
REGRESSION_FLOOR = 0.70
# --check floor on the partitioned kernel's throughput relative to the
# serial kernel on the same workload, same run -- measured in the
# window-batched default mode, which drains proven-independent safe
# windows without per-event merge compares and must actually beat the
# serial kernel on the domain-spread workload.
PARTITION_SPEEDUP_FLOOR = 1.0
# --check floor on the kernel's throughput with the timeline sampler
# attached (telemetry hub + metric timelines at a deliberately hot
# 5 us period) relative to the same hub without a timeline. The
# sampler is a passive clock hook -- no events, no seq numbers -- so
# it must cost at most ~3% even when sampling 200x more often than
# the 1 ms default.
TIMELINE_OVERHEAD_FLOOR = 0.97
#: Sampling period of the overhead bench (ns). 200x hotter than the
#: default so the gate measures the hook, not the idle branch.
TIMELINE_PERIOD_NS = 5_000.0
# --check also fails when fresh heap admissions creep more than 10%
# above the committed count: the event-reduction machinery (timer
# wheel, poll coalescing, virtual ticks) silently falling out of use
# would show up here long before wall-clock noise could prove it.
EVENTS_CEILING = 1.10


def _build_workload(env, chains, racers, preempts, domains=None, cross=0):
    """The kernel microbench workload.

    ``domains``, when given, spreads the processes round-robin over
    ``env.domain(...)`` tags (a no-op on serial envs, so serial and
    partitioned runs build the byte-identical model). ``cross`` adds
    that many cross-domain sender loops using the lookahead-checked
    channel (plain timeouts on serial envs).
    """
    names = tuple(domains) if domains else ()

    def tagged(index):
        return env.domain(names[index % len(names)]) if names \
            else env.domain("host")

    def chain(period):
        while True:
            yield env.timeout(period)

    def racer_pair(period):
        slot = {}

        def waiter():
            while True:
                ev = env.event()
                slot["ev"] = ev
                yield env.any_of([ev, env.timeout(50 * period)])

        def kicker():
            while True:
                yield env.timeout(period)
                ev = slot.get("ev")
                if ev is not None and not ev.triggered:
                    ev.succeed()

        return waiter, kicker

    def victim():
        while True:
            try:
                yield env.timeout(1_000_000)
            except Interrupt:
                pass

    def preemptor(proc, period):
        while True:
            yield env.timeout(period)
            if proc.is_alive:
                proc.interrupt("slice")

    def crosser(dst, period):
        while True:
            yield env.cross_timeout(dst, period)

    for i in range(chains):
        with tagged(i):
            env.process(chain(90 + i), name=f"chain{i}")
    for i in range(racers):
        waiter, kicker = racer_pair(110 + i)
        with tagged(i):
            env.process(waiter(), name=f"waiter{i}")
            env.process(kicker(), name=f"kicker{i}")
    for i in range(preempts):
        with tagged(i):
            proc = env.process(victim(), name=f"victim{i}")
            env.process(preemptor(proc, 130 + i), name=f"preemptor{i}")
    for i in range(cross):
        # Delay must clear the largest hw-derived lookahead window
        # (910 ns for nic->host under the pcie preset).
        with tagged(i):
            env.process(crosser(names[(i + 1) % len(names)], 1_000 + i),
                        name=f"cross{i}")


def kernel_events_point(horizon_ns: int = 2_000_000, chains: int = 40,
                        racers: int = 40, preempts: int = 10) -> dict:
    """One kernel microbench run: event counters plus wall seconds.

    - ``events_logical``: schedule requests (``env._seq``) -- workload-
      determined, identical whatever the queue implementation;
    - ``events_scheduled``: heap admissions -- what the timer wheel and
      poll coalescing actually cut;
    - ``events_dispatched``: callbacks run.
    """
    env = Environment()
    _build_workload(env, chains, racers, preempts)
    t0 = time.perf_counter()
    env.run(until=horizon_ns)
    wall = time.perf_counter() - t0
    return {
        "events_logical": env._seq,
        "events_scheduled": env.events_scheduled,
        "events_dispatched": env.events_dispatched,
        "timers_coalesced": env.timers_coalesced,
        "wall_s": round(wall, 4),
    }


def measure_kernel(repeats: int = 3) -> dict:
    """Best-of-N kernel events/sec (best = least scheduler noise).

    events/sec keeps its original definition -- logical schedules per
    wall second -- so the figure stays comparable across the whole
    history even as heap admissions shrink.
    """
    kernel_events_point(horizon_ns=200_000)  # warmup
    runs = [kernel_events_point() for _ in range(repeats)]
    best = max(r["events_logical"] / r["wall_s"] for r in runs)
    first = runs[0]
    return {
        "events_scheduled": first["events_scheduled"],
        "events_dispatched": first["events_dispatched"],
        "events_logical": first["events_logical"],
        "timers_coalesced": first["timers_coalesced"],
        "events_per_sec": round(best),
        "runs": runs,
    }


def _evps(run: dict) -> float:
    """Dispatched events per wall second of one bench run."""
    return run["events_dispatched"] / run["wall_s"]


def _paired_runs(first, second, repeats: int):
    """Order-alternated runs of two bench points, and their paired median.

    Runs ``2 * repeats + 1`` pairs, ``first`` ahead of ``second`` in
    even pairs and behind it in odd ones. Returns ``(first_runs,
    second_runs, ratio)``, where ``ratio`` is the median over pairs of
    ``_evps(second) / _evps(first)`` (an odd count: one pair's ratio). Machine-wide load drift inflates
    both walls of an adjacent pair together, so the ratio survives
    noise that makes best-of-N vs best-of-N flake across the 20%+ wall
    variance of CI-class shared runners; alternating the order cancels
    the bias a monotone slowdown would put on whichever side always ran
    second.
    """
    first_runs, second_runs = [], []
    for i in range(2 * repeats + 1):
        if i % 2 == 0:
            first_runs.append(first())
            second_runs.append(second())
        else:
            second_runs.append(second())
            first_runs.append(first())
    ratios = sorted(_evps(b) / _evps(a)
                    for a, b in zip(first_runs, second_runs))
    mid = len(ratios) // 2
    return first_runs, second_runs, ratios[mid]


#: Horizon of one partition-bench run. Short enough (~5 s of wall per
#: engine run) that machine-wide load drift cannot move much *within*
#: one serial/batched pair -- the paired-ratio estimator
#: (:func:`_paired_runs`) depends on pair members seeing the same machine.
PARTITION_HORIZON_NS = 1_000_000


def partition_kernel_point(engine: str,
                           horizon_ns: int = PARTITION_HORIZON_NS,
                           chains: int = 40, racers: int = 40,
                           preempts: int = 10, cross: int = 9) -> dict:
    """One partitioned-kernel bench run; the same workload whatever the
    ``engine`` ("serial" or "batched"), spread over the three
    hardware-derived domains with cross-domain sender loops."""
    from repro.hw import HwParams
    from repro.hw.pcie import Interconnect

    env = Environment()
    part = None
    if engine != "serial":
        plan = Interconnect(HwParams.pcie()).partition_plan()
        part = env.enable_partition(plan, use_partition=True)
        assert part is not None, "hw-derived plan must be usable"
    _build_workload(env, chains, racers, preempts,
                    domains=("host", "ic", "nic"), cross=cross)
    t0 = time.perf_counter()
    env.run(until=horizon_ns)
    wall = time.perf_counter() - t0
    point = {
        "events_logical": env._seq,
        "events_scheduled": env.events_scheduled,
        "events_dispatched": env.events_dispatched,
        "wall_s": round(wall, 4),
    }
    if part is not None:
        point["domain_switches"] = part.domain_switches
        point["cross_sends"] = part.cross_sends
        point["windows_batched"] = part.windows_batched
        point["events_batched"] = part.events_batched
        point["batch_solo"] = part.batch_solo
        point["batch_degrades"] = part.batch_degrades
    return point


def measure_partition(repeats: int = 3) -> dict:
    """Serial vs partitioned kernel on the domain-spread workload.

    Two engines, same workload: the serial kernel and the partitioned
    engine's window-batched default (domains drain proven-independent
    safe windows without consulting each other). ``events_dispatched``
    equality between the two is the hard ``--check`` gate -- they ran
    the identical workload or the bench is meaningless -- and the
    batched mode must reach :data:`PARTITION_SPEEDUP_FLOOR` (>= 1.0x
    serial).
    """
    for engine in ("serial", "batched"):  # warmup
        partition_kernel_point(engine, horizon_ns=200_000)
    serial_runs, part_runs, speedup = _paired_runs(
        lambda: partition_kernel_point("serial"),
        lambda: partition_kernel_point("batched"), repeats)
    serial_best = max(_evps(r) for r in serial_runs)
    part_best = max(_evps(r) for r in part_runs)
    serial, part = serial_runs[0], part_runs[0]
    return {
        "events_per_sec": round(part_best),
        "serial_events_per_sec": round(serial_best),
        "speedup_vs_serial": round(speedup, 3),
        "events_dispatched": part["events_dispatched"],
        "serial_events_dispatched": serial["events_dispatched"],
        "events_logical": part["events_logical"],
        "events_scheduled": part["events_scheduled"],
        "domain_switches": part["domain_switches"],
        "cross_sends": part["cross_sends"],
        "windows_batched": part["windows_batched"],
        "events_batched": part["events_batched"],
        "batch_solo": part["batch_solo"],
        "batch_degrades": part["batch_degrades"],
        "runs": part_runs,
        "serial_runs": serial_runs,
    }


def timeline_kernel_point(with_timeline: bool,
                          horizon_ns: int = 2_000_000) -> dict:
    """One timeline-overhead bench run: the kernel microbench workload
    under a telemetry hub, with or without the timeline sampler."""
    from repro.obs import Telemetry, TimelineConfig
    config = (TimelineConfig(period_ns=TIMELINE_PERIOD_NS)
              if with_timeline else None)
    with Telemetry(timeline=config):
        env = Environment()
        _build_workload(env, 40, 40, 10)
        t0 = time.perf_counter()
        env.run(until=horizon_ns)
        wall = time.perf_counter() - t0
    return {
        "events_dispatched": env.events_dispatched,
        "events_scheduled": env.events_scheduled,
        "samples": env._timeline.ticks if env._timeline is not None else 0,
        "wall_s": round(wall, 4),
    }


def measure_timeline(repeats: int = 3) -> dict:
    """Timeline-sampler overhead on the kernel microbench workload.

    Self-relative: both sides run under a telemetry hub, one with the
    timeline sampler at a hot 5 us period and one without, so the ratio
    isolates the clock hook from the hub's own cost. The true ratio is
    ~1.0 -- well inside single-machine wall-clock noise -- so a single
    estimator sits within scheduler jitter of the 0.97 floor and
    flakes. The gated ratio is therefore the **max of two estimators
    with independent failure modes**: best-of-N vs best-of-N (the
    :func:`measure_kernel` approach; bests converge to the machine's
    unloaded speed but one outlier-free side can deflate the ratio) and
    the median of order-alternated paired ratios (robust to load drift
    but wide-tailed per pair). Noise deflates each independently, while
    a real sampler regression drags both down, so the max keeps the
    floor meaningful without flaking. Runs alternate order so drift
    cannot systematically favour one side; both estimators are recorded
    (``best_ratio``, ``paired_median``). The sampler schedules no
    events, so ``events_dispatched`` equality between the two sides is
    a hard ``--check`` gate.
    """
    timeline_kernel_point(False, horizon_ns=200_000)  # warmup
    timeline_kernel_point(True, horizon_ns=200_000)
    off_runs, on_runs, paired = _paired_runs(
        lambda: timeline_kernel_point(False),
        lambda: timeline_kernel_point(True), repeats)
    on_best = max(_evps(r) for r in on_runs)
    off_best = max(_evps(r) for r in off_runs)
    on, off = on_runs[0], off_runs[0]
    best_ratio = on_best / off_best
    return {
        "overhead_vs_off": round(max(best_ratio, paired), 3),
        "best_ratio": round(best_ratio, 3),
        "paired_median": round(paired, 3),
        "events_per_sec": round(on_best),
        "off_events_per_sec": round(off_best),
        "period_ns": TIMELINE_PERIOD_NS,
        "samples": on["samples"],
        "events_dispatched": on["events_dispatched"],
        "off_events_dispatched": off["events_dispatched"],
        "runs": on_runs,
        "off_runs": off_runs,
    }


def measure_model_benches() -> dict:
    """Named end-to-end model benches with per-benchmark event counts.

    Small fixed-scale points (one Fig 5 ticks-on VM point, the
    reduced-scale Fig 4a FIFO point the golden digest pins) whose
    ``events_scheduled`` is deterministic -- the history shows exactly
    where event-reduction wins land or regress, per benchmark.
    """
    import random

    from repro.core import Placement, WaveOpts
    from repro.sched import FifoPolicy
    from repro.sched.experiment import run_sched_point
    from repro.sched.vm_experiment import run_vm_point
    from repro.workloads import RocksDbModel

    benches = {}

    counters: dict = {}
    t0 = time.perf_counter()
    run_vm_point(31, ticks=True, counters=counters)
    counters["wall_s"] = round(time.perf_counter() - t0, 4)
    benches["fig5_vm_ticks"] = counters

    counters = {}
    t0 = time.perf_counter()
    run_sched_point(Placement.NIC, WaveOpts.full(), 2, FifoPolicy,
                    lambda rng: RocksDbModel.fifo_mix(rng),
                    rate_per_sec=120_000.0, duration_ns=8_000_000.0,
                    warmup_ns=1_000_000.0, seed=1, counters=counters)
    counters["wall_s"] = round(time.perf_counter() - t0, 4)
    benches["fig4a_fifo_reduced"] = counters
    return benches


def measure_fig4a(jobs: Optional[int] = None) -> float:
    """Wall-clock seconds for the Fig 4a fast sweep."""
    from repro.bench import fig4_fifo
    t0 = time.perf_counter()
    fig4_fifo.run(fast=True, jobs=jobs)
    return time.perf_counter() - t0


def main(fast: bool = False, check: bool = False,
         out: str = "BENCH_perf.json", jobs: Optional[int] = None,
         repeats: int = 3) -> int:
    from repro.bench.parallel import resolve_jobs
    from repro.bench.trajectory import append_history, carry_history

    committed = None
    if check:
        # Prefer the output path (a re-run in place), else the
        # repo-committed artifact; fall back to the pre-PR constants.
        for path in (out, "BENCH_perf.json"):
            if os.path.exists(path):
                try:
                    with open(path) as fh:
                        committed = json.load(fh)
                    break
                except (OSError, ValueError):
                    continue

    print("kernel microbench (timeout chains + any_of racers + "
          "interrupts) ...", flush=True)
    kernel = measure_kernel(repeats=max(1, repeats))
    print(f"  events_scheduled={kernel['events_scheduled']:,} "
          f"best={kernel['events_per_sec']:,} ev/s", flush=True)

    print("partitioned kernel (3 domains, cross-domain senders) vs "
          "serial ...", flush=True)
    partition = measure_partition(repeats=max(1, repeats))
    print(f"  window-batched {partition['events_per_sec']:,} ev/s vs serial "
          f"{partition['serial_events_per_sec']:,} ev/s "
          f"({partition['speedup_vs_serial']:.2f}x), "
          f"{partition['windows_batched']:,} windows, "
          f"{partition['batch_solo']:,} solo steps, "
          f"{partition['cross_sends']:,} cross sends", flush=True)

    print("timeline sampler (5 us period) vs telemetry-only ...",
          flush=True)
    timeline = measure_timeline(repeats=max(1, repeats))
    print(f"  sampling-on {timeline['events_per_sec']:,} ev/s vs off "
          f"{timeline['off_events_per_sec']:,} ev/s "
          f"({timeline['overhead_vs_off']:.2f}x), "
          f"{timeline['samples']:,} samples", flush=True)

    result = {
        "schema": "wave-repro-perf/2",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "kernel": kernel,
        "kernel_partition": partition,
        "kernel_timeline": timeline,
        "pre_pr_baseline": PRE_PR_BASELINE,
        "kernel_speedup_vs_pre_pr": round(
            kernel["events_per_sec"]
            / PRE_PR_BASELINE["kernel_events_per_sec"], 3),
    }
    scheduled = kernel.get("events_scheduled")
    pre_scheduled = PRE_PR_BASELINE["kernel_events_scheduled"]
    if scheduled:
        reduction = 1.0 - scheduled / pre_scheduled
        result["kernel_events_reduction_vs_pre_pr"] = round(reduction, 3)
        print(f"  heap admissions {scheduled:,} vs pre-PR "
              f"{pre_scheduled:,} ({100 * reduction:+.1f}% reduction)",
              flush=True)

    if not fast:
        print("model benches (fig5 vm ticks, fig4a reduced) ...",
              flush=True)
        benches = measure_model_benches()
        for name, stats in sorted(benches.items()):
            print(f"  {name}: events_scheduled="
                  f"{stats.get('events_scheduled', 0):,} "
                  f"wall={stats.get('wall_s', 0):.2f}s", flush=True)
        result["benches"] = benches
        print("fig4a fast sweep, serial ...", flush=True)
        serial_wall = measure_fig4a(jobs=None)
        fig4a = {"serial_wall_s": round(serial_wall, 2)}
        print(f"  serial {serial_wall:.2f}s", flush=True)
        n_jobs = resolve_jobs(jobs if jobs is not None else -1)
        if n_jobs > 1:
            print(f"fig4a fast sweep, --jobs {n_jobs} ...", flush=True)
            par_wall = measure_fig4a(jobs=n_jobs)
            fig4a.update(jobs=n_jobs, parallel_wall_s=round(par_wall, 2),
                         parallel_speedup=round(serial_wall / par_wall, 2))
            print(f"  parallel {par_wall:.2f}s "
                  f"({serial_wall / par_wall:.2f}x)", flush=True)
        else:
            fig4a["jobs"] = n_jobs
            print("  single-CPU host: skipping the pool measurement",
                  flush=True)
        result["fig4a_fast"] = fig4a

    # Cross-run trajectory: extend the prior artifact's history (never
    # rewrite it) with this run, timestamped in UTC.
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result["history"] = append_history(carry_history(out), result,
                                       timestamp)

    with open(out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({len(result['history'])} history "
          f"{'entry' if len(result['history']) == 1 else 'entries'})")

    if check:
        committed_kernel = (committed or {}).get("kernel", {})
        base = committed_kernel.get("events_per_sec") \
            or PRE_PR_BASELINE["kernel_events_per_sec"]
        floor = REGRESSION_FLOOR * base
        got = kernel["events_per_sec"]
        if got < floor:
            print(f"PERF REGRESSION: kernel {got:,} ev/s < "
                  f"{floor:,.0f} (70% of committed {base:,})")
            return 1
        # Event-count gate: deterministic (no runner-speed noise), so
        # the tolerance is tight. A >10% creep in heap admissions means
        # an event-reduction mechanism stopped engaging.
        events_base = committed_kernel.get("events_scheduled")
        events_got = kernel.get("events_scheduled")
        if events_base and events_got:
            ceiling = EVENTS_CEILING * events_base
            if events_got > ceiling:
                print(f"PERF REGRESSION: kernel events_scheduled "
                      f"{events_got:,} > {ceiling:,.0f} (110% of "
                      f"committed {events_base:,})")
                return 1
        # Partitioned-kernel gates: dispatch-count equality is
        # deterministic and exact (both engines ran the same workload,
        # or this bench proves nothing); the window-batched speedup
        # floor demands the batched default actually beats the serial
        # kernel.
        if (partition["events_dispatched"]
                != partition["serial_events_dispatched"]):
            print(f"PERF REGRESSION: dispatch counts diverged on the "
                  f"same workload: batched "
                  f"{partition['events_dispatched']:,}, serial "
                  f"{partition['serial_events_dispatched']:,}")
            return 1
        if partition["speedup_vs_serial"] < PARTITION_SPEEDUP_FLOOR:
            print(f"PERF REGRESSION: window-batched partitioned kernel "
                  f"at {partition['speedup_vs_serial']:.2f}x of serial "
                  f"< {PARTITION_SPEEDUP_FLOOR:.2f}x floor (batching "
                  f"must beat the serial kernel, not just bound the "
                  f"merge overhead)")
            return 1
        # Timeline-sampler gates: the passive clock hook schedules no
        # events (dispatch equality is exact) and must stay within
        # TIMELINE_OVERHEAD_FLOOR of the no-timeline hub even at the
        # bench's deliberately hot 5 us sampling period.
        if (timeline["events_dispatched"]
                != timeline["off_events_dispatched"]):
            print(f"PERF REGRESSION: timeline sampler changed the "
                  f"dispatch count: sampling-on "
                  f"{timeline['events_dispatched']:,} vs off "
                  f"{timeline['off_events_dispatched']:,} (the sampler "
                  f"must be a passive clock hook, not an event)")
            return 1
        if timeline["overhead_vs_off"] < TIMELINE_OVERHEAD_FLOOR:
            print(f"PERF REGRESSION: timeline sampling at "
                  f"{timeline['overhead_vs_off']:.2f}x of the "
                  f"no-timeline kernel < "
                  f"{TIMELINE_OVERHEAD_FLOOR:.2f}x floor "
                  f"({timeline['samples']:,} samples over the run)")
            return 1
        print(f"perf check OK: kernel {got:,} ev/s >= "
              f"{floor:,.0f} (70% of committed {base:,})"
              + (f", events_scheduled {events_got:,} <= "
                 f"{EVENTS_CEILING * events_base:,.0f}"
                 if events_base and events_got else "")
              + f", window-batched {partition['speedup_vs_serial']:.2f}x "
              f"of serial with equal dispatch counts, timeline sampling "
              f"{timeline['overhead_vs_off']:.2f}x of off")
    return 0


if __name__ == "__main__":
    import sys
    argv = sys.argv[1:]
    raise SystemExit(main(
        fast="--fast" in argv, check="--check" in argv,
        out=next((argv[i + 1] for i, a in enumerate(argv) if a == "--out"),
                 "BENCH_perf.json"),
        jobs=next((int(argv[i + 1]) for i, a in enumerate(argv)
                   if a == "--jobs"), None),
        repeats=next((int(argv[i + 1]) for i, a in enumerate(argv)
                      if a == "--repeats"), 3)))
