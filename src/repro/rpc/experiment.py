"""Fig 6: RocksDB-over-RPC with the stack/scheduler on host or SmartNIC.

Three deployments (section 7.3.1):

- **ONHOST_ALL** -- RPC stack on 8 host cores, ghOSt scheduler on one
  host core, RocksDB on 15 worker cores; all communication via host
  shared memory.
- **ONHOST_SCHED** -- stack offloaded to SmartNIC ARM cores, scheduler
  still on the host: the scheduler must read RPC headers (and, for the
  multi-queue policy, the SLO) from SmartNIC memory over MMIO, which
  dominates and caps its throughput.
- **OFFLOAD_ALL** -- stack and scheduler co-located on the SmartNIC;
  RocksDB gets all 16 host cores but pays MMIO costs to fetch request
  payloads and post responses.

The scheduler runs single-queue Shinjuku (Fig 6a) or the SLO-aware
multi-queue Shinjuku (Fig 6b).
"""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import Callable, List, Optional

from repro.core import Placement, WaveChannel, WaveOpts
from repro.core.messages import Message
from repro.ghost import GhostAgent, GhostKernel, GhostTask
from repro.ghost.messages import TASK_NEW
from repro.hw import HwParams, Machine
from repro.hw.paths import MemPath
from repro.obs.timeline import SloSpec
from repro.rpc.slo import GET_SLO_NS, assign_slo
from repro.rpc.stack import RpcStack, StackPlacement
from repro.sched import MultiQueueShinjukuPolicy, ShinjukuPolicy
from repro.sim import Environment, LatencyStats
from repro.workloads import (
    PoissonLoadGen,
    Request,
    RequestKind,
    RocksDbModel,
)

#: On-host scheduler reading an offloaded RPC's header via MMIO loads
#: (6 uncacheable 64-bit reads; section 7.3.1's OnHost-Scheduler).
HEADER_READ_NS = 4_500.0
#: Additional MMIO reads to pull the SLO out of the payload (7.3.2).
SLO_READ_NS = 1_500.0
#: Worker-core MMIO cost per request when the stack lives on the NIC:
#: fetch the request payload (WT line fill) + post the response (WC).
WORKER_MMIO_NS = 1_100.0
#: Worker-side shared-memory handoff when everything is on the host.
WORKER_SHM_NS = 100.0
#: NIC-side enqueue bookkeeping when the stack submits to a co-located
#: scheduler through SoC-local memory.
NIC_SUBMIT_NS = 200.0

#: Streaming SLO specs for ``python -m repro timeline``: the windowed
#: scheduling-latency p99 against the 200 us GET SLO the multi-queue
#: policy enforces (section 7.3.2).
SLO_SPECS = (
    SloSpec(name="rpc-get-p99", metric="sched_task_latency_ns",
            threshold_ns=GET_SLO_NS),
)


class RpcScenario(enum.Enum):
    ONHOST_ALL = "onhost-all"
    ONHOST_SCHED = "onhost-scheduler"
    OFFLOAD_ALL = "offload-all"


class _NicToHostPostedPath(MemPath):
    """The offloaded stack posting messages into a host-resident ring
    (small DMA-backed posted writes; cheap for the producer, one
    interconnect trip before the host sees them)."""

    def __init__(self, params: HwParams):
        self.params = params

    def write_words(self, addr: int, n: int) -> float:
        return n * self.params.nic_access_wb

    def read_words(self, addr: int, n: int, now: float) -> float:
        return n * self.params.nic_access_wb

    def visibility_delay(self) -> float:
        return self.params.mmio_write_visibility


@dataclasses.dataclass
class RpcPointResult:
    scenario: RpcScenario
    multiqueue: bool
    offered_rate: float
    achieved_rate: float
    get_p50_ns: float
    get_p99_ns: float
    completed: int
    preemptions: int
    end_backlog: int
    #: Remaining service of queued tasks at the end (ms): a
    #: composition-independent stability signal.
    end_backlog_work_ms: float
    stack_utilization: float
    host_cores_used: int          #: stack + agent + workers on the host


def run_rpc_point(scenario: RpcScenario,
                  multiqueue: bool,
                  rate_per_sec: float,
                  worker_cores: Optional[int] = None,
                  duration_ns: float = 80_000_000.0,
                  warmup_ns: float = 20_000_000.0,
                  seed: int = 1,
                  params: Optional[HwParams] = None,
                  costs=None,
                  worker_extra_override: Optional[float] = None,
                  policy_ns_per_message: Optional[float] = None,
                  stack_cores_override: Optional[int] = None,
                  stack_request_ns: Optional[float] = None,
                  stack_response_ns: Optional[float] = None
                  ) -> RpcPointResult:
    """Run one Fig 6 load point.

    ``costs``, ``worker_extra_override`` and ``policy_ns_per_message``
    exist for the section 7.3.3 UPI variant, where coherent-interconnect
    costs replace the PCIe-calibrated defaults.
    """
    env = Environment()
    machine = Machine(env, params or HwParams.pcie())
    model = RocksDbModel.shinjuku_mix(random.Random(seed + 1))

    if scenario is RpcScenario.ONHOST_ALL:
        placement = Placement.HOST
        stack_placement = StackPlacement.HOST
        stack_cores = 8
        n_workers = 15 if worker_cores is None else worker_cores
        worker_extra = WORKER_SHM_NS
        host_cores_used = stack_cores + 1 + n_workers
    elif scenario is RpcScenario.ONHOST_SCHED:
        placement = Placement.HOST
        stack_placement = StackPlacement.NIC
        stack_cores = 16
        n_workers = 15 if worker_cores is None else worker_cores
        worker_extra = WORKER_MMIO_NS
        host_cores_used = 1 + n_workers
    else:
        placement = Placement.NIC
        stack_placement = StackPlacement.NIC
        stack_cores = 15  # one SmartNIC core runs the scheduling agent
        n_workers = 16 if worker_cores is None else worker_cores
        worker_extra = WORKER_MMIO_NS
        host_cores_used = n_workers

    if worker_extra_override is not None:
        worker_extra = worker_extra_override
    channel = WaveChannel(machine, placement, WaveOpts.full(), name="rpc")
    kernel = GhostKernel(channel, core_ids=list(range(n_workers)),
                         costs=costs, rng=random.Random(seed))
    kernel.completion_cost_ns = worker_extra
    policy = (MultiQueueShinjukuPolicy() if multiqueue
              else ShinjukuPolicy())
    agent = GhostAgent(channel, policy, kernel.core_ids)
    if policy_ns_per_message is not None:
        agent.policy_ns_per_message = policy_ns_per_message
    if scenario is RpcScenario.ONHOST_SCHED:
        agent.task_new_extra_ns = HEADER_READ_NS + (
            SLO_READ_NS if multiqueue else 0.0)

    # -- how the stack hands requests to the scheduler -----------------------
    if scenario is RpcScenario.ONHOST_ALL:
        def submit(request: Request):
            task = GhostTask(service_ns=model.task_service_ns(request),
                             payload=request)
            yield from kernel.submit(task)
    elif scenario is RpcScenario.OFFLOAD_ALL:
        nic_local = machine.interconnect.nic_path(channel.opts.nic_pte)

        def submit(request: Request):
            # Created on the NIC, not by kernel.submit: stamp it here.
            task = GhostTask(service_ns=model.task_service_ns(request),
                             created_at=env.now, payload=request)
            yield env.timeout(NIC_SUBMIT_NS)
            # The message carries the request's causal context, so the
            # scheduling chain continues the ``rpc.request`` root.
            cost = channel.msg_ring.produce(
                [Message(TASK_NEW, task, ctx=request.ctx)], via=nic_local)
            yield env.timeout(cost)
    else:
        posted = _NicToHostPostedPath(machine.params)

        def submit(request: Request):
            # Created on the NIC, not by kernel.submit: stamp it here.
            task = GhostTask(service_ns=model.task_service_ns(request),
                             created_at=env.now, payload=request)
            yield env.timeout(NIC_SUBMIT_NS)
            cost = channel.msg_ring.produce(
                [Message(TASK_NEW, task, ctx=request.ctx)], via=posted)
            yield env.timeout(cost)

    stack_kwargs = {}
    if stack_request_ns is not None:
        stack_kwargs["request_proc_ns"] = stack_request_ns
    if stack_response_ns is not None:
        stack_kwargs["response_proc_ns"] = stack_response_ns
    if stack_cores_override is not None:
        stack_cores = stack_cores_override
    stack = RpcStack(env, machine, stack_placement, stack_cores, submit,
                     **stack_kwargs)
    kernel.on_task_complete = lambda task: stack.respond(task.payload)

    agent.start()
    kernel.start()
    stack.start()

    def deliver(request: Request):
        stack.deliver(assign_slo(request))
        return
        yield  # pragma: no cover -- loadgen expects a generator

    loadgen = PoissonLoadGen(env, model, rate_per_sec, deliver,
                             seed=seed + 2, warmup_ns=warmup_ns)
    loadgen.start()
    env.run(until=duration_ns)

    window_s = (duration_ns - warmup_ns) / 1e9
    gets = LatencyStats("get")
    completed = 0
    for request in loadgen.requests:
        if request.completed_ns is None or request.completed_ns < warmup_ns:
            continue
        completed += 1
        if request.kind is RequestKind.GET:
            gets.record(request.latency_ns)
    return RpcPointResult(
        scenario=scenario,
        multiqueue=multiqueue,
        offered_rate=rate_per_sec,
        achieved_rate=completed / window_s,
        get_p50_ns=gets.p50,
        get_p99_ns=gets.p99,
        completed=completed,
        preemptions=kernel.preempted,
        end_backlog=policy.runnable_count(),
        end_backlog_work_ms=policy.queued_work_ns() / 1e6,
        stack_utilization=stack.utilization(duration_ns),
        host_cores_used=host_cores_used,
    )


def sweep_rpc_load(scenario: RpcScenario, multiqueue: bool,
                   rates: List[float], jobs: Optional[int] = None,
                   **kwargs) -> List[RpcPointResult]:
    """One curve of Fig 6a (single-queue) or 6b (multi-queue).

    Independent load points; ``jobs > 1`` fans them out across a
    process pool with results merged back in rate order.
    """
    from repro.bench.parallel import PointSpec, run_points
    return run_points(
        [PointSpec(run_rpc_point, (scenario, multiqueue, rate),
                   dict(kwargs),
                   label=f"{scenario.value} rate={rate:g}")
         for rate in rates],
        jobs=jobs)


def saturation_at_slo(results: List[RpcPointResult],
                      slo_ns: float,
                      backlog_work_limit_ms: Optional[float] = None
                      ) -> float:
    """Throughput the deployment sustains with GET p99 within SLO --
    how "saturates at X" is read off Fig 6.

    ``backlog_work_limit_ms`` additionally requires a stable run queue
    (measured in queued *work*, not entries): the SLO-aware multi-queue
    policy protects GET tails even while RANGE work piles up
    unboundedly, so its saturation must also be capacity-bound."""
    eligible = [r.achieved_rate for r in results
                if r.get_p99_ns <= slo_ns
                and (backlog_work_limit_ms is None
                     or r.end_backlog_work_ms <= backlog_work_limit_ms)]
    return max(eligible) if eligible else 0.0
