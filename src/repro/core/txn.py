"""Atomic decision transactions (paper sections 3.1-3.2).

Agents never mutate host kernel state directly: they *commit* decisions
as transactions that the host kernel applies atomically. If the decision
races with a state change (the ghOSt guarantee -- e.g. the agent
schedules a thread that just exited), the commit fails cleanly without
corrupting kernel state and the agent learns the outcome.

:class:`TxnSlot` is the per-target (per host core) commit slot in
SmartNIC DRAM, which doubles as the *prestage* slot of section 5.4.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Any, Optional, Tuple

from repro.hw.paths import MemPath

_txn_ids = itertools.count()


def _reset_txn_ids():
    global _txn_ids
    _txn_ids = itertools.count()


# Per-run transaction ids (see repro.sim.core.register_run_id_reset):
# labelling only, reset at every Environment construction.
from repro.sim.core import register_run_id_reset  # noqa: E402

register_run_id_reset(_reset_txn_ids)


class TxnOutcome(enum.Enum):
    """What happened when the host tried to enforce a transaction."""

    PENDING = "pending"
    COMMITTED = "committed"
    #: The targeted resource changed state underneath the decision
    #: (thread died, address space exited): clean failure, no corruption.
    FAILED_RACE = "failed-race"
    #: The host discarded a stale prestaged decision.
    FAILED_STALE = "failed-stale"


@dataclasses.dataclass
class Transaction:
    """One decision: apply ``payload`` to ``target`` atomically."""

    target: Any
    payload: Any
    created_at: float = 0.0
    outcome: TxnOutcome = TxnOutcome.PENDING
    committed_at: Optional[float] = None
    txn_id: int = dataclasses.field(default_factory=lambda: next(_txn_ids))
    #: Causal request context (:class:`repro.obs.spans.SpanCtx`): the
    #: agent's open commit span, read by the host-side enforcement
    #: spans. None whenever tracing is off.
    ctx: Any = None

    def __repr__(self) -> str:
        return (f"<Txn {self.txn_id} -> {self.target} "
                f"{self.outcome.value}>")


class TxnSlot:
    """Per-core transaction/prestage slot in SmartNIC DRAM.

    The agent stashes at most one pending transaction per slot; the host
    takes it when it needs a decision. The host side reads over MMIO
    with the configured PTE semantics; the slot tracks staleness so that
    software coherence (clflush before read, section 5.3.2) is charged
    exactly when the protocol requires it.
    """

    #: Slots are two cache lines apart to avoid false sharing.
    STRIDE_BYTES = 128

    def __init__(self, env, target: Any, addr: int, agent_path: MemPath,
                 host_path: MemPath, entry_words: int = 6):
        self.env = env
        self.target = target
        self.addr = addr
        self.agent_path = agent_path
        self.host_path = host_path
        self.entry_words = entry_words
        self._txn: Optional[Transaction] = None
        self._visible_at = 0.0
        #: Sleep/wakeup protocol: the host sets this (one posted MMIO
        #: write) when it parks on an empty slot; the agent reads it
        #: locally and only pays an MSI-X for parked cores. The race
        #: (stash between empty-take and park) is closed by the host's
        #: periodic idle re-check.
        self.host_parked = False
        #: True when the agent wrote since the host last invalidated:
        #: a cached host copy of this slot would be stale.
        self._host_stale = False
        self.stashes = 0
        self.takes = 0
        self.empty_takes = 0

    @property
    def occupied(self) -> bool:
        return self._txn is not None

    # -- agent side -------------------------------------------------------

    def stash(self, txn: Transaction) -> float:
        """Write ``txn`` into the slot; returns agent CPU cost.

        Overwrites any decision already stashed (the old one is marked
        stale -- prestages may fail, which Table 3 notes as the source of
        prestaging variability).
        """
        if self._txn is not None:
            self._txn.outcome = TxnOutcome.FAILED_STALE
        cost = self.agent_path.write_words(self.addr, self.entry_words + 1)
        cost += self.agent_path.flush_writes()
        self._txn = txn
        self._visible_at = (self.env.now + cost
                            + self.agent_path.visibility_delay())
        self._host_stale = True
        self.stashes += 1
        return cost

    def clear_agent(self) -> Optional[Transaction]:
        """Agent-side reset of the slot (one local store): used by a
        restarted agent to drop its predecessor's stale decisions. The
        host sees the slot empty on its next take. Returns the dropped
        transaction (now FAILED_STALE)."""
        txn, self._txn = self._txn, None
        if txn is not None:
            txn.outcome = TxnOutcome.FAILED_STALE
        return txn

    def peek_staged(self) -> Optional[Transaction]:
        """Agent-side look at the slot's current contents.

        The slot lives in the agent's local, coherent DRAM, so this is a
        plain load; callers charge one local word read.
        """
        return self._txn

    # -- host side --------------------------------------------------------

    def park(self) -> float:
        """The host advertises it is idle and about to wait for an
        MSI-X (one posted MMIO write). Used by deployments without
        prestaging, where the kernel never picks decisions up on its
        own (the pick-up-from-slot shortcut *is* prestaging)."""
        cost = 0.0
        if not self.host_parked:
            cost += self.host_path.write_words(self.addr + 8, 1)
            cost += self.host_path.flush_writes()
            self.host_parked = True
        return cost

    def prefetch(self) -> float:
        """Flush the stale line and start a non-blocking refill
        (PREFETCH_TXNS, section 5.4). Cheap; hides the later read."""
        cost = 0.0
        if self._host_stale:
            cost += self.host_path.invalidate(self.addr, self.entry_words + 1)
            self._host_stale = False
        cost += self.host_path.prefetch(self.addr, self.entry_words + 1,
                                        self.env.now + cost)
        return cost

    def take(self) -> Tuple[Optional[Transaction], float]:
        """Consume the stashed decision if one is visible.

        Returns ``(txn, cost)``; ``txn`` is None on an empty slot (the
        host then waits for the agent). Reading a slot the agent wrote
        since our last look first pays the clflush of the software
        coherence protocol.
        """
        cost = 0.0
        if self._host_stale:
            cost += self.host_path.invalidate(self.addr, self.entry_words + 1)
            self._host_stale = False
        now = self.env.now
        if self._txn is None or self._visible_at > now + cost:
            # Empty check: one flag-word load; then advertise that we
            # are parked so the agent knows to send an MSI-X.
            cost += self.host_path.read_words(self.addr, 1, now + cost)
            if not self.host_parked:
                cost += self.host_path.write_words(self.addr + 8, 1)
                cost += self.host_path.flush_writes()
                self.host_parked = True
            self.empty_takes += 1
            return None, cost
        cost += self.host_path.read_words(self.addr, self.entry_words + 1,
                                          now + cost)
        # Commit marker: the host writes the txn state word back so the
        # agent (watching its local DRAM) learns the slot was consumed
        # and can prestage the next decision (section 5.4).
        cost += self.host_path.write_words(self.addr, 1)
        cost += self.host_path.flush_writes()
        self.host_parked = False
        txn, self._txn = self._txn, None
        self.takes += 1
        return txn, cost
