"""The host<->agent communication channel.

A channel bundles everything one offloaded system needs (Figure 1):

- a message ring (host kernel -> agent),
- per-target transaction/prestage slots (agent -> host, MMIO),
- an optional bulk decision queue (agent -> host, DMA) for
  throughput-bound software like the memory manager,
- an outcome ring (host -> agent) reporting enforcement results,
- the notification mechanism (MSI-X when offloaded, IPI on host).

The same channel class serves offloaded and on-host deployments; only
the injected :class:`~repro.hw.paths.MemPath` objects differ, which is
what makes the apples-to-apples comparisons of section 7 meaningful.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.opts import WaveOpts
from repro.core.txn import TxnSlot
from repro.hw.platform import Machine
from repro.hw.pte import PteType
from repro.queues.dma import DmaQueue
from repro.queues.ring import FloemRing
from repro.sim import Event, Relay


class Placement(enum.Enum):
    """Where the agent runs."""

    NIC = "smartnic"
    HOST = "host"


class WaveChannel:
    """One system-software component's communication fabric."""

    def __init__(self, machine: Machine, placement: Placement,
                 opts: WaveOpts = None, entry_words: int = 4,
                 name: str = "wave"):
        self.machine = machine
        self.env = machine.env
        self.placement = placement
        self.opts = opts or WaveOpts.full()
        self.entry_words = entry_words
        self.name = name
        link = machine.interconnect
        params = machine.params

        if placement is Placement.NIC:
            host_msg = link.host_path(self.opts.host_msg_pte)
            agent_local = link.nic_path(self.opts.nic_pte)
            self._host_txn_path = link.host_path(self.opts.host_txn_pte)
            self._agent_txn_path = link.nic_path(self.opts.nic_pte)
            txn_coherent = params.coherent
        else:
            host_msg = link.host_local_path()
            agent_local = link.host_local_path()
            self._host_txn_path = link.host_local_path()
            self._agent_txn_path = link.host_local_path()
            txn_coherent = True
        self._txn_coherent = txn_coherent

        #: host kernel -> agent state updates.
        self.msg_ring = FloemRing(
            self.env, f"{name}-msg", host_msg, agent_local,
            entry_words=entry_words)
        #: host -> agent transaction outcomes.
        self.outcome_ring = FloemRing(
            self.env, f"{name}-outcome",
            link.host_path(self.opts.host_msg_pte)
            if placement is Placement.NIC else link.host_local_path(),
            agent_local, entry_words=2)
        self._slots: Dict[Any, TxnSlot] = {}
        self._next_slot_addr = 0
        self._bulk: Optional[DmaQueue] = None
        self._int_handlers: Dict[Any, Callable[[Any], None]] = {}

    # -- per-target transaction slots ------------------------------------

    def slot(self, target: Any) -> TxnSlot:
        """The transaction/prestage slot for ``target`` (lazily built)."""
        existing = self._slots.get(target)
        if existing is not None:
            return existing
        slot = TxnSlot(self.env, target, self._next_slot_addr,
                       self._agent_txn_path, self._host_txn_path,
                       self.entry_words)
        # If the host caches reads of a non-coherent aperture, the slot's
        # staleness tracking drives the clflush protocol; on coherent or
        # uncached paths staleness costs nothing (invalidate() is free).
        self._next_slot_addr += TxnSlot.STRIDE_BYTES
        self._slots[target] = slot
        return slot

    # -- bulk decision queue (memory manager) -----------------------------

    def bulk_decision_queue(self, sync: bool = False,
                            entry_words: int = 6) -> DmaQueue:
        """Agent -> host DMA queue for high-throughput decisions."""
        if self._bulk is None:
            link = self.machine.interconnect
            if self.placement is Placement.NIC:
                producer = link.nic_path(self.opts.nic_pte)
            else:
                producer = link.host_local_path()
            self._bulk = DmaQueue(
                self.env, f"{self.name}-bulk", self.machine.nic.dma,
                producer, link.host_local_path(),
                entry_words=entry_words, sync=sync)
        return self._bulk

    # -- notification ------------------------------------------------------

    def notify_host(self, via_ioctl: bool = True, ctx=None,
                    carrier=None) -> Tuple[float, Event]:
        """Agent kicks a host core (MSI-X offloaded, IPI on host).

        Returns ``(sender_cost, delivery)``; the host core pays
        :meth:`notify_receive_cost` when the handler runs. ``ctx``
        threads the causal request context into the MSI-X span;
        ``carrier`` (any object with a ``ctx`` attribute, typically the
        transaction) is advanced past the MSI-X hop so the host-side
        dispatch descends from the wire crossing, not its sibling.
        """
        params = self.machine.params
        if self.placement is Placement.NIC:
            return self.machine.nic.raise_msix(via_ioctl, ctx=ctx,
                                               carrier=carrier)
        send = params.host_ipi_send
        propagation = params.host_ipi_e2e - send - params.host_ipi_receive
        delivery = self.env.timeout(send + max(0.0, propagation))
        return send, delivery

    def register_interrupt_handler(self, target: Any,
                                   handler: Callable[[Any], None]) -> None:
        """Route notifications targeting ``target`` (a host core) to
        ``handler`` -- the kernel's interrupt vector table."""
        self._int_handlers[target] = handler

    def dispatch_interrupt(self, target: Any, delivery: Event) -> None:
        """Invoke ``target``'s registered handler once ``delivery``
        fires (the wire/bridge portion of MSI-X delivery).

        The deliverer is a :class:`~repro.sim.Relay`: it subscribes to
        ``delivery`` when it starts and runs the handler pinned to the
        domain it was created in (the sender's). A lost MSI-X never
        fires, so its deliverer never runs.
        """
        Relay(self.env, delivery, self._deliver_interrupt, target)

    def _deliver_interrupt(self, target: Any) -> None:
        handler = self._int_handlers.get(target)
        if handler is not None:
            handler(target)

    def notify_receive_cost(self) -> float:
        """Host-side cost of taking the notification interrupt."""
        params = self.machine.params
        if self.placement is Placement.NIC:
            return params.msix_receive
        return params.host_ipi_receive

    # -- compute scaling ----------------------------------------------------

    def agent_word_cost(self, words: int) -> float:
        """Cost of ``words`` agent-side accesses to channel metadata
        (queue head/tail sync, txn status words) -- through the agent's
        local mapping, so UC vs WB PTEs matter (section 5.3.1)."""
        return self._agent_txn_path.read_words(0, words, self.env.now)

    def agent_compute(self, host_ns: float) -> float:
        """Policy compute time at the agent's placement."""
        if self.placement is Placement.NIC:
            return self.machine.nic.compute_time(host_ns)
        return host_ns
