"""The SmartNIC SoC: ARM cores, local DRAM, DMA engine, MSI-X function.

Models the Intel Mount Evans IPU of section 7: 16 Neoverse N1 cores at
3 GHz with fast coherent access to SoC DRAM; the host reaches that DRAM
only through the MMIO aperture, and the SoC reaches host DRAM only
through DMA.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.hw.dma import DmaEngine
from repro.hw.params import HwParams
from repro.hw.pcie import Interconnect
from repro.obs.spans import MetricHandles
from repro.sim import Environment, Event

#: The NIC's metric handles (:class:`MetricHandles`).
_NIC_METRICS = {
    outcome: ("counter", "msix_delivered", {"outcome": outcome})
    for outcome in ("ok", "lost")
}


class SmartNic:
    """One SmartNIC with its interconnect-facing functions."""

    #: Metric handles of the run last instrumented, built on first use.
    _tel_handles: Optional[MetricHandles] = None

    def __init__(self, env: Environment, params: HwParams,
                 interconnect: Interconnect):
        self.env = env
        self.params = params
        self.interconnect = interconnect
        self.dma = DmaEngine(env, params)
        self.cores = params.nic_cores
        self.ghz = params.nic_ghz
        self.msix_sent = 0
        #: Deliveries swallowed by fault injection (the sender still
        #: pays its send cost; only the handler-side event never fires).
        self.msix_lost = 0

    def compute_time(self, host_equivalent_ns: float) -> float:
        """Time for NIC ARM cores to do work that takes
        ``host_equivalent_ns`` on a host x86 core.

        Combines the frequency gap and the per-cycle throughput handicap
        (section 7.4.2: offloaded SOL is slower "because it uses weaker
        ARM cores rather than x86 host cores").
        """
        if self.ghz <= 0:
            raise ValueError("NIC frequency must be positive")
        freq_ratio = self.params.nic_reference_ghz / self.ghz
        return host_equivalent_ns * self.params.nic_compute_handicap * freq_ratio

    def raise_msix(self, via_ioctl: bool = True, ctx=None,
                   carrier=None) -> Tuple[float, Event]:
        """Send an MSI-X to a host core.

        Returns ``(sender_cost, delivery)``: the agent burns
        ``sender_cost`` ns of CPU; ``delivery`` fires when the host
        core's handler can start (the host then pays ``msix_receive``).

        Under fault injection a delivery may be lost: the sender still
        pays its cost, but ``delivery`` never fires -- the parked core's
        periodic idle re-check is then the only wakeup path, exactly the
        backstop section 5.4 prescribes.
        """
        self.msix_sent += 1
        send = self.interconnect.msix_send(via_ioctl)
        tel = self.env.telemetry
        faults = self.env.faults
        if faults is not None and faults.on_msix_send():
            self.msix_lost += 1
            if tel is not None:
                span = tel.span("msix.deliver", "pcie", dur_ns=send,
                                ctx=ctx, lost=True)
                if carrier is not None:
                    carrier.ctx = tel.ctx_after(span)
                handles = self._tel_handles
                if handles is None or handles.tel is not tel:
                    handles = self._tel_handles = MetricHandles(
                        tel, _NIC_METRICS)
                handles.lost.incr()
            return send, Event(self.env)  # pending forever: lost on the wire
        wire = send + self.interconnect.msix_propagation()
        if tel is not None:
            span = tel.span("msix.deliver", "pcie", dur_ns=wire, ctx=ctx)
            if carrier is not None:
                carrier.ctx = tel.ctx_after(span)
            handles = self._tel_handles
            if handles is None or handles.tel is not tel:
                handles = self._tel_handles = MetricHandles(
                    tel, _NIC_METRICS)
            handles.ok.incr()
        # The delivery crosses the NIC -> host boundary: route it through
        # the lookahead-checked channel so the partitioned kernel can
        # verify it respects the MSI-X minimum (wire >= send + e2e wire
        # propagation >= the declared nic->host window, even stalled --
        # stalls only inflate the propagation term).
        delivery = self.env.cross_timeout("host", wire)
        return send, delivery
