"""The SOL memory agent, on host cores or SmartNIC ARM cores (§7.4).

Per iteration the agent:

1. receives the due batches' access bits from the host over DMA
   (the host-side harvest itself -- TLB flushes + PTE walks -- stays on
   the host, as do page-fault handlers),
2. runs the SOL policy: posterior updates + Thompson sampling, the
   parallelizable bulk of the work (each agent thread manages an
   address-space chunk, section 6),
3. on epoch boundaries DMAs migration decisions back, which the host
   enforces through madvise.

The per-iteration duration decomposes into a host-side fixed part, a
serial policy part, and a parallel part divided across agent cores --
reproducing the section 7.4.2 table. Durations are simulated time
derived from these cost models, not wall-clock.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

import numpy as np

from repro.hw import HwParams, Machine
from repro.mem.addrspace import AddressSpace
from repro.mem.sol import SolPolicy
from repro.mem.tiers import TieredMemory
from repro.sim import Environment

#: Host-side serialization around each iteration that neither moves to
#: the NIC nor parallelizes: access-bit harvest synchronization, madvise
#: batching, kernel bookkeeping. [fit: section 7.4.2 table, on-host
#: 16-core iteration ~309 ms]
HOST_SYNC_NS = 164e6
#: Serial portion of the policy itself (sampling setup, epoch logic),
#: host-equivalent; runs wherever the agent runs. [fit: same table,
#: Wave vs on-host 16-core gap]
AGENT_SERIAL_NS = 32e6
#: Bytes shipped to the agent per scanned batch (PTE deltas + access
#: bitmap + batch metadata). [fit: "transferring the PTEs for the
#: entire address space takes ~1ms" -- 409,600 batches * 48 B at the
#: DMA bandwidth]
BYTES_PER_BATCH = 48
#: Bytes per migration decision DMA'd back.
BYTES_PER_DECISION = 16

#: The agent loop cadence: one iteration per fastest scan period
#: (600 ms). An iteration that runs longer than the period (e.g. the
#: single-core Wave agent) starts the next one immediately -- which is
#: why the paper's 1-core Wave duration exceeds the period.
LOOP_PERIOD_NS = 600e6


class MemAgentPlacement(enum.Enum):
    HOST = "host"
    NIC = "smartnic"


class Chunking(enum.Enum):
    """How batches are assigned to agent worker threads (section 6:
    "each memory agent thread manages an address space chunk")."""

    #: Contiguous address-range chunks: simple, but a clustered hot set
    #: lands on few workers and the slowest chunk gates the iteration.
    RANGE = "range"
    #: Batch i goes to worker i mod n: stripes any locality evenly.
    INTERLEAVED = "interleaved"


@dataclasses.dataclass
class MemIterationRecord:
    when_ns: float
    duration_ns: float
    batches_scanned: int
    dma_in_ns: float
    dma_out_ns: float
    epoch: bool


class MemoryAgent:
    """Drives SOL with ``n_cores`` parallel worker threads."""

    def __init__(self, env: Environment, machine: Machine,
                 space: AddressSpace, tiers: TieredMemory,
                 placement: MemAgentPlacement, n_cores: int,
                 chunking: Chunking = Chunking.INTERLEAVED,
                 policy=None,
                 seed: int = 0):
        if n_cores <= 0:
            raise ValueError("need at least one agent core")
        self.env = env
        self.machine = machine
        self.space = space
        self.tiers = tiers
        self.placement = placement
        self.n_cores = n_cores
        self.chunking = chunking
        #: The classification policy; SOL by default, or any object
        #: with the same ``iterate(now_ns)`` contract (e.g. the CLOCK
        #: baseline in :mod:`repro.mem.clock`).
        self.policy = policy if policy is not None \
            else SolPolicy(space, seed=seed)
        self.records: List[MemIterationRecord] = []
        self._proc = None

    def _scale(self, host_ns: float) -> float:
        """Compute time at the agent's placement."""
        if self.placement is MemAgentPlacement.NIC:
            return self.machine.nic.compute_time(host_ns)
        return host_ns

    def parallel_work_ns(self, iteration) -> float:
        """Classify time of the slowest worker chunk.

        With interleaved chunking this is ~classify/n regardless of hot
        set layout; with range chunking a clustered hot set piles onto
        few workers and the max chunk gates the iteration.
        """
        if self.n_cores == 1 or len(iteration.due_ids) == 0:
            return iteration.classify_ns
        ids = np.asarray(iteration.due_ids)
        if self.chunking is Chunking.INTERLEAVED:
            chunk_of = ids % self.n_cores
        else:
            span = max(1, self.space.n_batches // self.n_cores)
            chunk_of = np.minimum(ids // span, self.n_cores - 1)
        counts = np.bincount(chunk_of, minlength=self.n_cores)
        per_batch = iteration.classify_ns / max(1, len(ids))
        return float(counts.max()) * per_batch

    def iteration_duration_ns(self, iteration) -> tuple:
        """Decompose one iteration's duration; returns
        ``(total, dma_in, dma_out)``."""
        dma = self.machine.nic.dma
        offloaded = self.placement is MemAgentPlacement.NIC
        dma_in = (dma.transfer_duration(
            iteration.batches_scanned * BYTES_PER_BATCH) if offloaded else 0.0)
        n_decisions = len(iteration.to_fast) + len(iteration.to_slow)
        dma_out = (dma.transfer_duration(n_decisions * BYTES_PER_DECISION)
                   if (offloaded and iteration.epoch) else 0.0)
        total = (iteration.scan_cost_ns          # host-side harvest
                 + HOST_SYNC_NS                  # host-side serialization
                 + self._scale(AGENT_SERIAL_NS)  # serial policy
                 + self._scale(self.parallel_work_ns(iteration))
                 + dma_in + dma_out)
        return total, dma_in, dma_out

    def start(self) -> None:
        home = ("nic" if self.placement is MemAgentPlacement.NIC
                else "host")
        with self.env.domain(home):
            self._proc = self.env.process(self._run(), name="mem-agent")

    def _run(self):
        env = self.env
        while True:
            started = env.now
            iteration = self.policy.iterate(env.now)
            if iteration is None:
                yield env.timeout(LOOP_PERIOD_NS)
                continue
            total, dma_in, dma_out = self.iteration_duration_ns(iteration)
            yield env.timeout(total)
            madvise_ns = 0.0
            if iteration.epoch:
                madvise_ns = self.tiers.apply_decisions(
                    iteration.to_fast, iteration.to_slow)
                yield env.timeout(madvise_ns)
            tel = env.telemetry
            if tel is not None:
                self._observe(tel, iteration, started, total,
                              dma_in, dma_out, madvise_ns)
            elapsed = env.now - started
            if elapsed < LOOP_PERIOD_NS:
                yield env.timeout(LOOP_PERIOD_NS - elapsed)
            self.records.append(MemIterationRecord(
                when_ns=iteration.when_ns,
                duration_ns=total,
                batches_scanned=iteration.batches_scanned,
                dma_in_ns=dma_in,
                dma_out_ns=dma_out,
                epoch=iteration.epoch,
            ))

    def _observe(self, tel, iteration, started: float, total: float,
                 dma_in: float, dma_out: float, madvise_ns: float) -> None:
        """Decompose one completed iteration into telemetry spans.

        Spans describe costs already charged above; nothing here adds
        simulated time."""
        n_decisions = len(iteration.to_fast) + len(iteration.to_slow)
        # Each SOL iteration is its own causal root; its phase spans
        # descend from the iteration span.
        root = tel.span("sol.iterate", "mem-agent", start_ns=started,
                        dur_ns=total + madvise_ns, root=True,
                        batches=iteration.batches_scanned,
                        epoch=iteration.epoch)
        sctx = tel.ctx_after(root)
        if dma_in:
            tel.span("sol.dma_in", "mem-agent", start_ns=started,
                     dur_ns=dma_in, ctx=sctx)
        tel.span("sol.classify", "mem-agent", start_ns=started + dma_in,
                 dur_ns=max(0.0, total - dma_in - dma_out), ctx=sctx)
        if iteration.epoch:
            tel.span("sol.migrate", "mem-agent",
                     start_ns=started + total - dma_out,
                     dur_ns=dma_out + madvise_ns, ctx=sctx,
                     decisions=n_decisions)
            tel.count("sol_migrations", by=n_decisions)
        tel.count("sol_iterations", epoch=iteration.epoch)
        tel.count("sol_batches_scanned", by=iteration.batches_scanned)
        tel.observe("sol_iteration_ns", total)

    # -- reporting ----------------------------------------------------------

    def steady_state_duration_ms(self, skip: int = 2) -> float:
        """Mean per-iteration duration after the warm-up iterations --
        the section 7.4.2 table's metric."""
        durations = [r.duration_ns for r in self.records[skip:]]
        if not durations:
            raise RuntimeError("no steady-state iterations recorded")
        return sum(durations) / len(durations) / 1e6
