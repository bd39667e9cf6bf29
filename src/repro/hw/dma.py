"""The SmartNIC's DMA engine (paper sections 2.1, 5.2).

DMA moves bulk data between host DRAM and SmartNIC DRAM without CPU
involvement; launching a descriptor costs a few MMIO doorbell writes.
Transfers can be awaited synchronously or checked asynchronously, and
descriptors can be batched (iPipe reports up to 8.7x from batching --
batching amortizes the setup writes and the base latency).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hw.params import HwParams
from repro.sim import Environment, Event


class DmaEngine:
    """One bidirectional DMA engine shared by all queues on a NIC."""

    def __init__(self, env: Environment, params: HwParams):
        self.env = env
        self.params = params
        self.transfers = 0
        self.bytes_moved = 0
        #: Injected completion timeouts the engine recovered from.
        self.timeouts = 0
        #: Descriptor reissues (one or more per timed-out transfer).
        self.retries = 0

    def setup_cost(self) -> float:
        """CPU cost (producer side) of launching one descriptor batch."""
        return self.params.dma_setup_writes * self.params.mmio_write_uc

    def transfer_duration(self, nbytes: int) -> float:
        """Wire time for ``nbytes``: fixed latency + streaming time.

        During a transient interconnect stall (fault injection) the wire
        portion is inflated by the stall factor.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        duration = (self.params.dma_base_latency
                    + nbytes / self.params.dma_bandwidth)
        faults = self.env.faults
        if faults is not None:
            duration *= faults.interconnect_factor()
        return duration

    def _retry_penalty(self) -> float:
        """Extra delay from injected completion timeouts.

        Each lost completion costs one timeout window plus an
        exponentially backed-off pause before the reissue; after
        ``dma_max_retries`` reissues the final attempt is forced
        through, so a transfer always completes in bounded time.
        """
        faults = self.env.faults
        if faults is None:
            return 0.0
        penalty = 0.0
        backoff = self.params.dma_retry_backoff_ns
        attempts = 0
        while (attempts < self.params.dma_max_retries
               and faults.on_dma_attempt()):
            penalty += self.params.dma_timeout_ns + backoff
            backoff *= 2.0
            attempts += 1
            self.timeouts += 1
            self.retries += 1
        if attempts:
            tel = self.env.telemetry
            if tel is not None:
                tel.count("dma_retries", by=attempts)
        return penalty

    def _observe(self, nbytes: int, duration: float,
                 batched: bool = False, ctx=None) -> None:
        """Record one transfer's span + metrics (no-op when disabled).

        A DMA op is a designated causal root: without an inbound ``ctx``
        the span mints a fresh request context of its own.
        """
        tel = self.env.telemetry
        if tel is None:
            return
        tel.span("dma.transfer", "dma", dur_ns=duration, ctx=ctx,
                 root=True, nbytes=nbytes)
        tel.count("dma_transfers", batched=batched)
        tel.count("dma_bytes", by=nbytes)
        tel.observe("dma_transfer_ns", duration)

    def launch(self, nbytes: int, ctx=None) -> "Tuple[float, Event]":
        """Start one transfer; returns ``(duration, completion)``.

        ``duration`` includes any injected retry penalty, and
        ``completion`` fires exactly ``duration`` ns from now -- one
        atomic draw, so callers that need both the number and the event
        (e.g. :class:`~repro.queues.dma.DmaQueue`) see one consistent
        outcome per descriptor.
        """
        self.transfers += 1
        self.bytes_moved += nbytes
        duration = self._retry_penalty() + self.transfer_duration(nbytes)
        self._observe(nbytes, duration, ctx=ctx)
        return duration, self.env.timeout(duration)

    def transfer(self, nbytes: int, ctx=None) -> Event:
        """Start one transfer; the returned event fires at completion.

        The *caller* separately accounts :meth:`setup_cost` as CPU time;
        the transfer itself runs on the engine, concurrently with CPU
        work (this is the asynchronous mode prior work shows is 2-7x
        faster; a synchronous caller simply yields the event at once).
        """
        self.transfers += 1
        self.bytes_moved += nbytes
        duration = self._retry_penalty() + self.transfer_duration(nbytes)
        self._observe(nbytes, duration, ctx=ctx)
        return self.env.timeout(duration)

    def transfer_batched(self, sizes: List[int], ctx=None) -> Event:
        """Move several buffers under one descriptor batch.

        One base latency for the whole batch -- the batching optimization
        from iPipe/Floem that Wave reuses.
        """
        total = sum(sizes)
        self.transfers += 1
        self.bytes_moved += total
        duration = self._retry_penalty() + self.transfer_duration(total)
        self._observe(total, duration, batched=True, ctx=ctx)
        return self.env.timeout(duration)
