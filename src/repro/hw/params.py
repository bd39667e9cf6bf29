"""The single hardware calibration table.

Constants marked ``[Table 2]`` are the paper's own hardware
microbenchmarks of the Intel Mount Evans + AMD Zen3 testbed and are used
verbatim. Constants marked ``[fit: ...]`` are not reported directly by
the paper and were fitted so that the composed models reproduce the cited
paper number (see DESIGN.md section 5).

All times are nanoseconds; all sizes are bytes unless suffixed.
"""

from __future__ import annotations

import dataclasses
import math

#: x86 cache-line size; MMIO write-through fills operate at this grain.
CACHE_LINE_BYTES = 64

#: All queue entries are multiples of 64-bit words.
WORD_BYTES = 8

#: The float fields that are rates or ratios, not times or costs: each
#: must be positive and finite. Every other float field is a time or a
#: cost in ns, which must be finite and non-negative.
_POSITIVE = ("dma_bandwidth", "host_base_ghz", "host_max_ghz",
             "smt_efficiency", "nic_ghz", "nic_reference_ghz",
             "nic_compute_handicap")
#: The int fields that count cores or sockets: each must be at least 1.
#: The other int fields (doorbell writes, retries) must be at least 0.
_AT_LEAST_ONE = ("host_sockets", "cores_per_socket", "threads_per_core",
                 "cores_per_ccx", "nic_cores")
#: How :meth:`HwParams.domain_lookahead` derives each hop, for errors.
_LOOKAHEAD_TERMS = {
    ("host", "ic"): "mmio_write_uc",
    ("ic", "nic"): "min(mmio_write_visibility, dma_base_latency) "
                   "- mmio_write_uc",
    ("host", "nic"): "min(mmio_write_visibility, dma_base_latency)",
    ("nic", "ic"): "msix_send_reg",
    ("ic", "host"): "msix_e2e - msix_send_ioctl - msix_receive "
                    "- msix_send_reg",
    ("nic", "host"): "msix_e2e - msix_send_ioctl - msix_receive",
}


@dataclasses.dataclass
class HwParams:
    """Latency/bandwidth parameters of one host<->SmartNIC deployment."""

    # -- MMIO over the interconnect (host side) -- [Table 2 rows 1-2]
    mmio_read_uc: float = 750.0        #: 64-bit uncacheable MMIO read.
    mmio_write_uc: float = 50.0        #: 64-bit uncacheable MMIO write (posted).

    # -- MSI-X -- [Table 2 rows 3-6]
    msix_send_reg: float = 70.0        #: register write only.
    msix_send_ioctl: float = 340.0     #: ioctl + register write (agent path).
    msix_receive: float = 350.0        #: host-side receive/handler entry.
    msix_e2e: float = 1600.0           #: full send -> handler latency.

    # -- host cache behaviour over MMIO --
    #: Cache hit on a WT-cached MMIO line. [fit: commodity L1/L2 hit]
    cache_hit: float = 4.0
    #: Per-word cost of a write into the WC buffer. [fit: store-buffer hit]
    wc_buffered_write: float = 6.0
    #: Draining the WC buffer (sfence + one posted burst). [fit: one
    #: posted PCIe write, same order as mmio_write_uc]
    wc_flush: float = 50.0
    #: WT write: posted through to the device, local line updated.
    wt_write: float = 50.0
    #: clflush of one line (software coherence, section 5.3.2).
    clflush: float = 25.0
    #: Issuing a non-blocking prefetch for a WT line.
    prefetch_issue: float = 4.0

    #: One-way visibility delay of a posted host MMIO write at the
    #: SmartNIC. [fit: ~half the 750ns read roundtrip plus bridge/flow
    #: control overhead so that the Table 3 baseline row composes]
    mmio_write_visibility: float = 700.0

    # -- SmartNIC-side access to its own (SoC-local, coherent) DRAM --
    #: Per-word cost with *uncacheable/device* mapping -- the unoptimized
    #: default for the exported MMIO aperture. [fit: Table 3 row "Open a
    #: Decision in Agent & Send MSI-X" baseline = 1013 ns with a 5-word
    #: (4 payload + valid flag) decision: 5 * 134.6 + 340 (ioctl MSI-X)
    #: = 1013]
    nic_access_uc: float = 134.6
    #: Per-word cost with WB mapping (section 5.3.1). [fit: same row
    #: optimized = 426 ns: 5 * 17.2 + 340 = 426]
    nic_access_wb: float = 17.2

    # -- host-local shared memory (the on-host ghOSt baseline) --
    #: Per-word cost of coherent shared-memory access on the host.
    host_shm_access: float = 5.0
    #: Userspace agent sending an inter-processor interrupt (syscall +
    #: APIC write). [fit: on-host ghOSt "open a decision and send
    #: interrupt" = 770 ns with a 6-word decision: 6*5 + 740 = 770]
    host_ipi_send: float = 740.0
    #: IPI receive overhead on the interrupted host core.
    host_ipi_receive: float = 350.0
    #: IPI end-to-end delivery latency (send -> handler entry). Lower
    #: than MSI-X e2e (no PCIe trip), per Table 2's note that MSI-X is
    #: "comparable to interprocessor interrupts" apart from the wire.
    host_ipi_e2e: float = 1400.0

    # -- DMA engine --
    #: MMIO doorbell writes needed to launch one DMA descriptor.
    dma_setup_writes: int = 3
    #: Fixed per-transfer latency (engine wakeup + PCIe). [fit: Neugebauer
    #: et al. report ~1us PCIe roundtrip; small DMA ~ this order]
    dma_base_latency: float = 900.0
    #: Streaming bandwidth in bytes/ns (= GB/s). PCIe Gen4 x16 payload
    #: rate net of protocol overhead. [fit: 100GiB address space of PTEs
    #: (8B/page -> ~200MiB) transfers in ~1ms per section 7.4.2 -> ~20+
    #: GB/s effective with batching]
    dma_bandwidth: float = 22.0
    #: Polling interval for asynchronous DMA completion checks.
    dma_poll_interval: float = 200.0
    #: How long the engine waits for a completion before declaring the
    #: descriptor lost and reissuing it. [fit: ~10x the base latency,
    #: the usual device-driver watchdog margin]
    dma_timeout_ns: float = 10_000.0
    #: Base pause before a reissue; doubles per consecutive timeout.
    dma_retry_backoff_ns: float = 1_000.0
    #: Reissues before the engine gives up on injected timeouts and the
    #: final attempt is forced through (bounds injected-fault recovery).
    dma_max_retries: int = 8

    # -- host CPU topology (AMD Zen3 testbed, section 7) --
    host_sockets: int = 2
    cores_per_socket: int = 64
    threads_per_core: int = 2
    cores_per_ccx: int = 8
    host_base_ghz: float = 2.45
    host_max_ghz: float = 3.5
    #: Per-thread throughput when both SMT siblings are busy (each
    #: sibling gets ~55% of the core; 1.1x total). [fit: typical SMT
    #: scaling; cancels out in Fig 5's Wave-vs-on-host ratios]
    smt_efficiency: float = 0.55

    # -- SmartNIC SoC (Intel Mount Evans, section 7) --
    nic_cores: int = 16
    nic_ghz: float = 3.0
    #: The frequency at which the compute handicap was calibrated: the
    #: real Mount Evans runs its N1 cores at 3.0 GHz; the UPI-emulated
    #: SmartNIC uses frequency-capped host cores referenced to the
    #: host's 3.5 GHz (section 7.3.3).
    nic_reference_ghz: float = 3.0
    #: Relative per-cycle throughput of a NIC ARM core vs a host x86
    #: core for the SOL policy's vectorized compute. [fit: section 7.4.2
    #: per-iteration durations, see repro/mem/agent.py]
    nic_compute_handicap: float = 2.08

    # -- timer ticks and C-states (section 7.2.4) --
    tick_period: float = 1_000_000.0      #: 1 ms tick, per logical core.
    #: CPU time consumed by one tick (timer IRQ + scheduler invocation
    #: + ghOSt message traffic). [fit: Fig 5's "1.7% solely timer tick
    #: overhead" at 128 active vCPUs: 17000/1000000 = 1.7%]
    tick_cost: float = 17_000.0
    #: Idle residency before a core may enter a deep C-state. Ticks every
    #: 1 ms keep idle cores above this threshold forever.
    deep_sleep_entry: float = 2_000_000.0

    #: Whether host and device share a coherent address space (UPI/CXL
    #: emulation of section 7.3.3). Coherent interconnects make WB
    #: mappings legal on the host and remove software coherence.
    coherent: bool = False

    def __post_init__(self) -> None:
        """Reject, naming the field, a configuration no deployment can
        have: a negative or non-finite time or cost, a rate or ratio
        that is not positive, a core or socket count below 1, a
        negative MSI-X wire time, or a host<->NIC hop (Table 2's minima,
        :meth:`domain_lookahead`) that takes no time."""
        for field in dataclasses.fields(self):
            name = field.name
            value = getattr(self, name)
            if field.type == "float" and name in _POSITIVE:
                if not (value > 0.0 and math.isfinite(value)):
                    raise ValueError(f"HwParams.{name} must be positive "
                                     f"and finite, got {value!r}")
            elif field.type == "float":
                if not (value >= 0.0 and math.isfinite(value)):
                    raise ValueError(f"HwParams.{name} must be finite "
                                     f"and non-negative, got {value!r}")
            elif field.type == "int":
                least = 1 if name in _AT_LEAST_ONE else 0
                if not value >= least:
                    raise ValueError(f"HwParams.{name} must be at least "
                                     f"{least}, got {value!r}")
        if self.msix_e2e < self.msix_send_ioctl + self.msix_receive:
            raise ValueError(
                f"HwParams.msix_e2e ({self.msix_e2e!r}) is below "
                f"msix_send_ioctl + msix_receive ({self.msix_send_ioctl!r}"
                f" + {self.msix_receive!r}): a negative MSI-X wire time")
        for hop, window in self.domain_lookahead().items():
            if not window > 0.0:
                raise ValueError(
                    f"HwParams lookahead {hop[0]} -> {hop[1]} "
                    f"({_LOOKAHEAD_TERMS[hop]}) is {window!r} ns: a "
                    f"host<->NIC hop must take time")

    def domain_lookahead(self) -> dict:
        """Minimum cross-domain latencies: the conservative-PDES windows.

        Maps ordered ``(src, dst)`` pairs over the three timing domains
        -- ``host`` (socket), ``ic`` (interconnect), ``nic`` (SoC) --
        to the smallest latency any modeled interaction can traverse
        that hop in, derived from the Table 2 minima:

        - ``host -> ic``: a posted UC write enters the fabric no faster
          than ``mmio_write_uc``.
        - ``ic -> nic``: the fastest host-originated signal becomes
          visible NIC-side after ``min(mmio_write_visibility,
          dma_base_latency)``; subtract the host->ic leg already paid.
        - ``nic -> ic``: an MSI-X enters the fabric no faster than the
          bare register write, ``msix_send_reg``.
        - ``ic -> host``: the MSI-X wire propagation (e2e minus send
          ioctl minus receive overhead), minus the nic->ic leg.

        Used by :meth:`repro.hw.pcie.Interconnect.partition_plan`.
        Construction rejects parameters that make any window
        non-positive, so every plan built from them is usable.
        """
        host_ic = self.mmio_write_uc
        ic_nic = min(self.mmio_write_visibility,
                     self.dma_base_latency) - host_ic
        nic_ic = self.msix_send_reg
        ic_host = (self.msix_e2e - self.msix_send_ioctl
                   - self.msix_receive) - nic_ic
        return {
            ("host", "ic"): host_ic,
            ("ic", "nic"): ic_nic,
            ("host", "nic"): host_ic + ic_nic,
            ("nic", "ic"): nic_ic,
            ("ic", "host"): ic_host,
            ("nic", "host"): nic_ic + ic_host,
        }

    @classmethod
    def pcie(cls) -> "HwParams":
        """The paper's default testbed: PCIe-attached Mount Evans."""
        return cls()

    @classmethod
    def cxl(cls, nic_ghz: float = 3.0) -> "HwParams":
        """A CXL-attached SmartNIC (section 5.2's outlook).

        Coherent like UPI but over PCIe physical lanes: SmartNIC SoC
        memory becomes cacheable on the host (prefetching and reuse of
        MMIO reads work in hardware; WC batches flush through the cache
        hierarchy), with latencies between UPI and plain PCIe. The SoC
        still carries the same ARM cores as the PCIe part.
        """
        return cls(
            # CXL.mem load-to-use latency is a few hundred ns.
            mmio_read_uc=400.0,
            mmio_write_uc=60.0,
            mmio_write_visibility=350.0,
            # Interrupts still traverse the PCIe physical layer.
            msix_send_reg=70.0,
            msix_send_ioctl=340.0,
            msix_receive=350.0,
            msix_e2e=1600.0,
            # The agent still enjoys local WB access to SoC DRAM.
            nic_access_uc=134.6,
            nic_access_wb=17.2,
            nic_cores=16,
            nic_ghz=nic_ghz,
            nic_reference_ghz=3.0,
            nic_compute_handicap=2.08,
            coherent=True,
        )

    @classmethod
    def upi(cls, nic_ghz: float = 3.0) -> "HwParams":
        """Section 7.3.3's UPI-attached emulated SmartNIC.

        A UPI link between two host sockets: coherent, roughly 4-5x lower
        latency than PCIe MMIO. The emulated SmartNIC runs host cores
        frequency-capped to ``nic_ghz``.
        """
        return cls(
            # Cross-socket cache-miss load / store on UPI.
            mmio_read_uc=160.0,
            mmio_write_uc=90.0,
            mmio_write_visibility=160.0,
            # IPIs replace MSI-X between sockets.
            msix_send_reg=70.0,
            msix_send_ioctl=340.0,
            msix_receive=350.0,
            msix_e2e=1100.0,
            # Coherent: the "NIC" socket maps everything WB. Local
            # cache accesses are partially core-clock bound (L1/L2
            # scale with the cap, the memory side does not), so the
            # frequency cap slows them at ~80% proportionality.
            nic_access_uc=17.2 * (1.0 + 0.8 * (3.5 / nic_ghz - 1.0)),
            nic_access_wb=17.2 * (1.0 + 0.8 * (3.5 / nic_ghz - 1.0)),
            nic_cores=16,
            nic_ghz=nic_ghz,
            nic_reference_ghz=3.5,
            # Compute handicap is pure frequency scaling on x86 cores.
            nic_compute_handicap=1.0,
            coherent=True,
        )
