"""The host<->SmartNIC interconnect: MMIO, MSI-X, and path factories."""

from __future__ import annotations

from typing import Optional

from repro.hw.params import HwParams
from repro.hw.paths import (
    HostMmioPath,
    HostSharedMemPath,
    LocalUcPath,
    LocalWbPath,
    MemPath,
)
from repro.hw.pte import PteType
from repro.obs.spans import MetricHandles

#: The link's metric handles (:class:`MetricHandles`).
_LINK_METRICS = {
    "mmio_read": ("counter", "mmio_ops", {"op": "read"}),
    "mmio_write": ("counter", "mmio_ops", {"op": "write"}),
    "msix_ioctl": ("counter", "msix_sends", {"via": "ioctl"}),
    "msix_reg": ("counter", "msix_sends", {"via": "reg"}),
}


class Interconnect:
    """Timing model for one PCIe (or UPI, section 7.3.3) link.

    Exposes the primitive costs of Table 2 plus factories for the
    :class:`~repro.hw.paths.MemPath` objects each endpoint uses.

    When an ``env`` is attached (as :class:`~repro.hw.platform.Machine`
    does) and a fault injector is active, a transient ``pcie-stall``
    inflates everything that traverses the link -- the MMIO primitives
    and the wire portion of MSI-X delivery -- by the stall factor.
    Without an ``env`` (a link built only for its costs or its
    :meth:`partition_plan`) there is neither fault nor telemetry.
    """

    #: Metric handles of the run last instrumented, built on first use.
    _tel_handles: Optional[MetricHandles] = None

    def __init__(self, params: HwParams, env=None):
        self.params = params
        self.env = env

    def _stall_factor(self) -> float:
        """Current congestion inflation (1.0 outside stall windows)."""
        faults = self.env.faults if self.env is not None else None
        return faults.interconnect_factor() if faults is not None else 1.0

    def _handles(self) -> Optional[MetricHandles]:
        """The metric handles of the run instrumenting this link (kept
        while that run lasts), or None without telemetry."""
        tel = self.env.telemetry if self.env is not None else None
        if tel is None:
            return None
        handles = self._tel_handles
        if handles is None or handles.tel is not tel:
            handles = self._tel_handles = MetricHandles(tel, _LINK_METRICS)
        return handles

    # -- Table 2 primitives ---------------------------------------------

    def mmio_read(self) -> float:
        """Host 64-bit uncacheable MMIO read (row 1)."""
        handles = self._handles()
        if handles is not None:
            handles.mmio_read.incr()
        return self.params.mmio_read_uc * self._stall_factor()

    def mmio_write(self) -> float:
        """Host 64-bit uncacheable MMIO write (row 2)."""
        handles = self._handles()
        if handles is not None:
            handles.mmio_write.incr()
        return self.params.mmio_write_uc * self._stall_factor()

    def msix_send(self, via_ioctl: bool = True) -> float:
        """Device-side cost of raising an MSI-X (rows 3-4)."""
        handles = self._handles()
        if handles is not None:
            (handles.msix_ioctl if via_ioctl else handles.msix_reg).incr()
        return (self.params.msix_send_ioctl if via_ioctl
                else self.params.msix_send_reg)

    def msix_receive(self) -> float:
        """Host-side cost of taking the interrupt (row 5)."""
        return self.params.msix_receive

    def msix_e2e(self) -> float:
        """Send-to-handler latency including the PCIe trip (row 6)."""
        return (self.params.msix_send_ioctl + self.params.msix_receive
                + self.msix_propagation())

    def msix_propagation(self) -> float:
        """The wire/bridge portion of MSI-X delivery: the time between
        the sender finishing its send overhead and the host core starting
        its receive overhead."""
        return (self.params.msix_e2e - self.params.msix_send_ioctl
                - self.params.msix_receive) * self._stall_factor()

    def partition_plan(self):
        """The conservative-PDES partition this link's minima justify.

        Three domains -- ``host``, ``ic``, ``nic`` -- with lookahead
        windows from :meth:`HwParams.domain_lookahead`. Fault-injected
        stalls only *inflate* link latencies, so the unstalled minima
        stay valid lower bounds. Feed this to
        :meth:`~repro.sim.core.Environment.enable_partition`; an
        unusable plan (any window <= 0) falls back to the serial kernel
        there.
        """
        from repro.sim.partition import HOST, INTERCONNECT, NIC, PartitionPlan

        return PartitionPlan(names=(HOST, INTERCONNECT, NIC),
                             lookahead=self.params.domain_lookahead(),
                             default=HOST)

    # -- path factories ---------------------------------------------------

    def host_path(self, pte: PteType) -> MemPath:
        """How the host reaches SmartNIC DRAM with PTE type ``pte``."""
        return HostMmioPath(self.params, pte)

    def nic_path(self, pte: PteType) -> MemPath:
        """How a SmartNIC agent reaches its own (SoC-local) DRAM."""
        if pte is PteType.WB:
            return LocalWbPath(self.params, self.params.nic_access_wb)
        return LocalUcPath(self.params)

    def host_local_path(self) -> MemPath:
        """Host coherent shared memory (on-host deployments)."""
        return HostSharedMemPath(self.params)
