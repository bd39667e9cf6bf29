"""Chaos experiment: availability under injected faults (sections 3.3, 6).

For each fault class in :mod:`repro.sim.faults`, run the FIFO scheduling
deployment (the Fig 4a stack: Wave channel, ghOSt kernel, SmartNIC
agent, watchdog + failover manager, open-loop RocksDB load) with that
fault injected, and report:

- p99 / throughput degradation vs a fault-free run at the same seed,
- detection latency (fault firing -> watchdog verdict),
- recovery latency (detection -> replacement agent running), and
- whether the system actually recovered (work completed, queues drained).

The ``dma-timeout`` class runs a dedicated DMA-queue drill instead (the
scheduling path does not use bulk DMA).

Everything is a pure function of ``(plan, seed)``: two invocations of
``python -m repro chaos --seed 42 --plan agent-crash`` print identical
output, which is the reproducibility property the whole chaos layer
stands on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Dict, List, Optional

from repro.bench.reporting import ExperimentReport
from repro.core import Placement, WaveChannel, WaveOpts
from repro.ghost import GhostAgent, GhostKernel, GhostTask
from repro.ghost.failover import FailoverManager
from repro.hw import HwParams, Machine
from repro.hw.pte import PteType
from repro.obs import Telemetry
from repro.obs.timeline import fault_incidents
from repro.queues.dma import DmaQueue
from repro.sched.experiment import SLO_SPECS  # noqa: F401  (timeline CLI)
from repro.sched import FifoPolicy
from repro.sim import Environment, FaultInjector, FaultPlan, LatencyStats
from repro.sim.faults import (
    AGENT_CRASH,
    AGENT_HANG,
    DMA_TIMEOUT,
    MSG_DELAY,
    MSG_DROP,
    MSG_DUP,
    MSIX_LOSS,
    PCIE_STALL,
)
from repro.workloads import PoissonLoadGen, Request, RequestKind, RocksDbModel


@dataclasses.dataclass
class ChaosTiming:
    """Scenario scale knobs (shrunk under ``--fast`` / in tests)."""

    duration_ns: float = 80_000_000.0
    warmup_ns: float = 2_000_000.0
    #: Offset from the watchdog's check grid (period = timeout/4 = 5 ms)
    #: so detection latency is representative, not a same-step accident.
    fault_at_ns: float = 11_000_000.0
    rate_per_sec: float = 120_000.0
    n_worker_cores: int = 2
    watchdog_timeout_ns: float = 20_000_000.0

    @classmethod
    def fast(cls) -> "ChaosTiming":
        return cls(duration_ns=50_000_000.0, fault_at_ns=8_000_000.0,
                   rate_per_sec=80_000.0, watchdog_timeout_ns=10_000_000.0)


def build_plans(plan_name: str, timing: ChaosTiming) -> List[FaultPlan]:
    """The declarative fault plan behind each named chaos scenario."""
    t0 = timing.fault_at_ns
    wd = timing.watchdog_timeout_ns
    if plan_name == "none":
        return []
    if plan_name == AGENT_CRASH:
        return [FaultPlan(AGENT_CRASH, at_ns=t0, target="ghost-agent")]
    if plan_name == AGENT_HANG:
        # Hang for 2x the watchdog threshold: the silence branch must
        # fire mid-hang and failover must cut the hang short.
        return [FaultPlan(AGENT_HANG, at_ns=t0, duration_ns=2 * wd,
                          target="ghost-agent", max_fires=1)]
    if plan_name == MSG_DROP:
        # Lose a bounded burst of host->agent messages, then crash the
        # agent later so pull-based recovery (section 6) re-discovers
        # the stranded tasks from the kernel's snapshot.
        return [FaultPlan(MSG_DROP, every_n=5, target="chaos-msg",
                          max_fires=15),
                FaultPlan(AGENT_CRASH, at_ns=t0 + 2 * wd,
                          target="ghost-agent")]
    if plan_name == MSG_DUP:
        return [FaultPlan(MSG_DUP, every_n=7, target="chaos-msg",
                          max_fires=25)]
    if plan_name == MSG_DELAY:
        return [FaultPlan(MSG_DELAY, probability=0.25, delay_ns=100_000.0,
                          target="chaos-msg")]
    if plan_name == PCIE_STALL:
        return [FaultPlan(PCIE_STALL, at_ns=t0, duration_ns=5_000_000.0,
                          factor=8.0)]
    if plan_name == MSIX_LOSS:
        return [FaultPlan(MSIX_LOSS, probability=0.3, max_fires=50)]
    if plan_name == DMA_TIMEOUT:
        return [FaultPlan(DMA_TIMEOUT, probability=0.3, max_fires=8)]
    raise ValueError(f"unknown chaos plan {plan_name!r}; "
                     f"one of {sorted(PLAN_NAMES)}")


#: The selectable chaos scenarios (plus "none", the baseline).
PLAN_NAMES = (AGENT_CRASH, AGENT_HANG, MSG_DROP, MSG_DUP, MSG_DELAY,
              PCIE_STALL, MSIX_LOSS, DMA_TIMEOUT)


@dataclasses.dataclass
class ChaosResult:
    """Deterministic observations from one chaos run."""

    plan: str
    seed: int
    submitted: int
    completed: int
    achieved_rate: float
    get_p99_us: float
    #: Fault firing -> watchdog verdict; negative when not applicable.
    detection_ns: float
    #: Watchdog verdict -> replacement agent polling again; negative
    #: when no failover happened.
    recovery_ns: float
    failovers: int
    failed_txns: int
    fault_fires: int
    messages_dropped: int
    messages_duplicated: int
    batches_delayed: int
    msix_lost: int
    dma_timeouts: int
    dma_retries: int
    injector_snapshot: str
    #: Fault lifecycle rows rederived from ``fault.*`` spans by
    #: :func:`repro.obs.timeline.fault_incidents` (kind / fired /
    #: detected / recovered timestamps). Deliberately **excluded** from
    #: :meth:`snapshot` and :meth:`digest`: incidents are a derived
    #: view, and the chaos determinism contract pins the original dump.
    incidents: tuple = ()

    def snapshot(self) -> str:
        """Byte-stable dump: equal across runs with the same seed."""
        lines = [
            f"plan={self.plan} seed={self.seed}",
            f"submitted={self.submitted} completed={self.completed}",
            f"achieved_rate={self.achieved_rate:.3f}/s",
            f"get_p99={self.get_p99_us:.3f}us",
            f"detection={self.detection_ns:.1f}ns "
            f"recovery={self.recovery_ns:.1f}ns failovers={self.failovers}",
            f"failed_txns={self.failed_txns} fires={self.fault_fires}",
            f"dropped={self.messages_dropped} "
            f"duplicated={self.messages_duplicated} "
            f"delayed={self.batches_delayed} msix_lost={self.msix_lost} "
            f"dma_timeouts={self.dma_timeouts} dma_retries={self.dma_retries}",
            "-- injector --",
            self.injector_snapshot,
        ]
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.snapshot().encode()).hexdigest()[:16]

    def summary(self) -> str:
        """The ``python -m repro chaos`` report text."""
        lines = [f"chaos: plan={self.plan} seed={self.seed}",
                 f"  faults injected:   {self.fault_fires}",
                 f"  tasks completed:   {self.completed}/{self.submitted}"]
        if self.detection_ns >= 0:
            lines.append(f"  detection latency: "
                         f"{self.detection_ns / 1e6:.3f} ms")
        if self.recovery_ns >= 0:
            lines.append(f"  recovery latency:  "
                         f"{self.recovery_ns / 1e6:.3f} ms "
                         f"({self.failovers} failover(s))")
        if self.get_p99_us > 0:
            lines.append(f"  GET p99:           {self.get_p99_us:.1f} us")
        lines.append(f"  achieved rate:     {self.achieved_rate:,.0f} req/s")
        detail = []
        if self.messages_dropped:
            detail.append(f"dropped={self.messages_dropped}")
        if self.messages_duplicated:
            detail.append(f"duplicated={self.messages_duplicated}")
        if self.batches_delayed:
            detail.append(f"delayed_batches={self.batches_delayed}")
        if self.msix_lost:
            detail.append(f"msix_lost={self.msix_lost}")
        if self.dma_timeouts:
            detail.append(f"dma_timeouts={self.dma_timeouts} "
                          f"retries={self.dma_retries}")
        if self.failed_txns:
            detail.append(f"failed_txns={self.failed_txns}")
        if detail:
            lines.append("  fault effects:     " + " ".join(detail))
        lines.append(f"  snapshot digest:   {self.digest()}")
        return "\n".join(lines)


def run_chaos(plan_name: str, seed: int = 42,
              timing: Optional[ChaosTiming] = None) -> ChaosResult:
    """Run one chaos scenario; fully determined by ``(plan, seed)``."""
    timing = timing or ChaosTiming()
    if plan_name == DMA_TIMEOUT:
        return _run_dma_chaos(plan_name, seed, timing)
    return _run_sched_chaos(plan_name, seed, timing)


#: The fault lifecycle stages the chaos report reads its detection and
#: recovery latencies from (see :mod:`repro.obs`).
_FAULT_STAGES = ("fault.fire", "fault.verdict", "fault.recover")


def _run_sched_chaos(plan_name: str, seed: int,
                     timing: ChaosTiming) -> ChaosResult:
    env = Environment()
    if env.telemetry is None:
        # No globally installed hub: attach a private one restricted to
        # the fault lifecycle stages, which the report reads below.
        Telemetry(stage_filter=list(_FAULT_STAGES)).attach(
            env, label=f"chaos-{plan_name}")
    machine = Machine(env, HwParams.pcie())
    channel = WaveChannel(machine, Placement.NIC, WaveOpts.full(),
                          name="chaos")
    kernel = GhostKernel(channel, core_ids=list(range(timing.n_worker_cores)),
                         rng=random.Random(seed))
    agent = GhostAgent(channel, FifoPolicy(), kernel.core_ids)

    injector = FaultInjector(env, seed=seed,
                             plans=build_plans(plan_name, timing))
    injector.watch_agent(agent)
    injector.arm()

    generation = [0]

    def make_replacement() -> GhostAgent:
        generation[0] += 1
        replacement = GhostAgent(channel, FifoPolicy(), kernel.core_ids,
                                 name=f"ghost-agent-g{generation[0]}")
        injector.watch_agent(replacement)
        return replacement

    manager = FailoverManager(
        kernel, agent, make_replacement,
        watchdog_timeout_ns=timing.watchdog_timeout_ns)
    agent.start()
    kernel.start()

    model = RocksDbModel.fifo_mix(random.Random(seed + 1))

    def submit(request: Request):
        task = GhostTask(service_ns=model.task_service_ns(request),
                         payload=request)
        yield from kernel.submit(task)

    loadgen = PoissonLoadGen(env, model, timing.rate_per_sec, submit,
                             seed=seed + 2, warmup_ns=timing.warmup_ns)
    loadgen.start()
    env.run(until=timing.duration_ns)
    # Stop the load and let the system drain, so "did it recover" is a
    # queue-drained question, not a race against the horizon.
    loadgen.stop()
    env.run(until=timing.duration_ns * 1.5)

    gets = LatencyStats("get")
    completed = 0
    for request in loadgen.requests:
        if request.completed_ns is None:
            continue
        completed += 1
        if (request.kind is RequestKind.GET
                and request.completed_ns >= timing.warmup_ns):
            gets.record(request.latency_ns)
    window_s = (timing.duration_ns - timing.warmup_ns) / 1e9

    # Detection/recovery stats only make sense for plans that take an
    # agent down; pure perturbation plans (dup/delay/stall/msix-loss)
    # still see drain-phase idle-generation recycles, which are the
    # watchdog's normal policy, not this fault's detection. Both
    # latencies come from the fault lifecycle spans: fault.fire marks
    # the injection, fault.verdict the watchdog's call, fault.recover
    # covers verdict -> replacement agent polling.
    spans = env.telemetry.spans
    down_at = next((s.begin_ns for s in spans.spans("fault.fire")
                    if s.args["kind"] in (AGENT_CRASH, AGENT_HANG)), None)
    detection = recovery = -1.0
    if down_at is not None:
        # First verdict at/after the crash/hang (later verdicts may be
        # idle-generation recycles, which are not this fault's).
        after = [s for s in spans.spans("fault.verdict")
                 if s.begin_ns >= down_at]
        if after:
            detection = after[0].begin_ns - down_at
        recoveries = spans.spans("fault.recover")
        if recoveries:
            recovery = recoveries[0].duration_ns
    incidents = tuple(
        (row["kind"], row["fired_ns"], row["detected_ns"],
         row["recovered_ns"])
        for row in fault_incidents(spans))

    return ChaosResult(
        plan=plan_name,
        seed=seed,
        submitted=len(loadgen.requests),
        completed=completed,
        achieved_rate=completed / window_s,
        get_p99_us=gets.p99 / 1e3 if gets.count else 0.0,
        detection_ns=detection,
        recovery_ns=recovery,
        failovers=manager.failovers,
        failed_txns=kernel.failed_txns,
        fault_fires=injector.total_fires(),
        messages_dropped=injector.messages_dropped,
        messages_duplicated=injector.messages_duplicated,
        batches_delayed=injector.batches_delayed,
        msix_lost=injector.msix_lost,
        dma_timeouts=injector.dma_timeouts,
        dma_retries=machine.nic.dma.retries,
        injector_snapshot=injector.snapshot(),
        incidents=incidents,
    )


def _run_dma_chaos(plan_name: str, seed: int,
                   timing: ChaosTiming) -> ChaosResult:
    """DMA drill: push batches through a DmaQueue under completion
    timeouts; the engine's retry/backoff must deliver everything."""
    env = Environment()
    machine = Machine(env, HwParams.pcie())
    link = machine.interconnect
    queue = DmaQueue(env, "chaos-dma", machine.nic.dma,
                     link.nic_path(PteType.WB), link.host_local_path(),
                     entry_words=6)
    injector = FaultInjector(env, seed=seed,
                             plans=build_plans(plan_name, timing))
    injector.arm()

    n_batches = 40
    batch = 16
    stats = {"consumed": 0, "first_sent_at": 0.0, "last_arrival": 0.0}

    def producer():
        for i in range(n_batches):
            cost, completion = queue.produce(list(range(batch)))
            yield env.timeout(cost)
            if completion is not None:
                yield completion
            yield env.timeout(5_000.0)  # think time between batches

    def consumer():
        while stats["consumed"] < n_batches * batch:
            yield queue.wait_nonempty()
            items, cost = queue.consume()
            if cost:
                yield env.timeout(cost)
            if items:
                stats["consumed"] += len(items)
                stats["last_arrival"] = env.now

    env.process(producer(), name="chaos-dma-producer")
    env.process(consumer(), name="chaos-dma-consumer")
    env.run(until=timing.duration_ns)

    total = n_batches * batch
    window_s = stats["last_arrival"] / 1e9 if stats["last_arrival"] else 1.0
    return ChaosResult(
        plan=plan_name,
        seed=seed,
        submitted=total,
        completed=stats["consumed"],
        achieved_rate=stats["consumed"] / window_s,
        get_p99_us=0.0,
        detection_ns=-1.0,
        recovery_ns=-1.0,
        failovers=0,
        failed_txns=0,
        fault_fires=injector.total_fires(),
        messages_dropped=0,
        messages_duplicated=0,
        batches_delayed=0,
        msix_lost=0,
        dma_timeouts=injector.dma_timeouts,
        dma_retries=machine.nic.dma.retries,
        injector_snapshot=injector.snapshot(),
    )


def run(fast: bool = True, seed: int = 42,
        jobs: int = None) -> ExperimentReport:
    """The ``faults`` experiment: every class vs the fault-free baseline."""
    timing = ChaosTiming.fast() if fast else ChaosTiming()
    from repro.bench.parallel import PointSpec, run_points
    # The fault-free baseline plus each plan are fully independent
    # (plan, seed)-determined runs: fan them out together.
    baseline, *results = run_points(
        [PointSpec(_run_sched_chaos, ("none", seed, timing))]
        + [PointSpec(run_chaos, (plan_name, seed), dict(timing=timing))
           for plan_name in PLAN_NAMES],
        jobs=jobs)
    rows = []
    for plan_name, result in zip(PLAN_NAMES, results):
        if plan_name == DMA_TIMEOUT:
            p99 = "n/a"
            tput_delta = "n/a"
        else:
            p99 = f"{baseline.get_p99_us:.0f} -> {result.get_p99_us:.0f}"
            tput_delta = (f"{100.0 * (result.achieved_rate / baseline.achieved_rate - 1.0):+.1f}%"
                          if baseline.achieved_rate else "n/a")
        rows.append((
            plan_name,
            result.fault_fires,
            f"{result.completed}/{result.submitted}",
            p99,
            tput_delta,
            f"{result.detection_ns / 1e6:.2f}" if result.detection_ns >= 0
            else "-",
            f"{result.recovery_ns / 1e6:.2f}" if result.recovery_ns >= 0
            else "-",
            result.digest(),
        ))
    notes = ("p99/tput compare against a fault-free run at the same "
             "seed; detection = fault -> watchdog, recovery = watchdog "
             "-> replacement agent running (pull-based, section 6).")
    incident_lines = []
    for plan_name, result in zip(PLAN_NAMES, results):
        for kind, fired, detected, recovered in result.incidents:
            det = (f"detected +{(detected - fired) / 1e6:.2f} ms"
                   if detected is not None else "undetected")
            rec = (f"recovered +{(recovered - detected) / 1e6:.2f} ms"
                   if recovered is not None and detected is not None
                   else "no recovery")
            incident_lines.append(
                f"  {plan_name}: {kind} fired at "
                f"{fired / 1e6:.2f} ms, {det}, {rec}")
    if incident_lines:
        notes += ("\nincident log (fault lifecycle rederived from "
                  "fault.* spans):\n" + "\n".join(incident_lines))
    return ExperimentReport(
        experiment_id="faults",
        title="chaos: recovery under injected faults "
              f"(seed={seed}, FIFO deployment)",
        headers=("fault", "fires", "completed", "p99 (us)", "tput",
                 "detect (ms)", "recover (ms)", "digest"),
        rows=rows,
        notes=notes,
    )


def main() -> None:
    print(run(fast=False).render())


if __name__ == "__main__":
    main()
