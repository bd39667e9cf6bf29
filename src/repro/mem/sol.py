"""The SOL policy (sections 4.2, 7.4): ML-based hot/cold classification.

At startup SOL groups consecutive pages into 256 KiB batches. It scans
each batch's access bits at an adaptive frequency -- the period ladder
600 ms, 1.2 s, 2.4 s, 4.8 s, 9.6 s (doubling) -- chosen per batch by
Thompson sampling with a Beta prior: batches the posterior believes hot
are scanned often, cold ones rarely (scans cost TLB flushes + compute).
Once per 38.4 s epoch (4x the slowest period) batches are migrated:
hot -> fast tier (DRAM), cold -> slow tier.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from repro.mem.addrspace import AddressSpace, BATCH_PAGES
from repro.mem.scanner import AccessBitScanner
from repro.mem.thompson import BetaBandit

#: The section 7.4.1 scan-period ladder (ns).
SCAN_PERIODS_NS = (600e6, 1.2e9, 2.4e9, 4.8e9, 9.6e9)
_LADDER_NS = np.asarray(SCAN_PERIODS_NS)
#: Migration epoch: 4x the slowest scan period.
EPOCH_NS = 4 * SCAN_PERIODS_NS[-1]

#: Posterior thresholds mapping hotness to a ladder rung: sampled
#: per-page access probability above threshold[i] -> period i.
#: Strictly descending, so a sample's rung is the number of thresholds
#: it falls below (see :func:`ladder_rungs`).
LADDER_THRESHOLDS = (0.5, 0.2, 0.05, 0.01)
#: A batch whose posterior sample clears this joins the fast tier.
HOT_TIER_THRESHOLD = 0.02

#: Policy compute per classified batch in host-equivalent ns (feature
#: extraction + posterior update + sampling). [fit: section 7.4.2's
#: on-host 16-core iteration of ~309 ms over the steady-state scan set]
CLASSIFY_BATCH_NS = 3_350.0


def ladder_rungs(samples: np.ndarray) -> np.ndarray:
    """Ladder rung (int8) of each posterior sample: the first ``i`` with
    ``sample >= LADDER_THRESHOLDS[i]``, else the slowest period."""
    rung = np.zeros(len(samples), dtype=np.int8)
    below = np.empty(len(samples), dtype=bool)
    for threshold in LADDER_THRESHOLDS:
        np.less(samples, threshold, out=below)
        rung += below
    return rung


@dataclasses.dataclass
class SolIteration:
    """Accounting for one agent loop iteration."""

    when_ns: float
    batches_scanned: int
    scan_cost_ns: float           #: host-side TLB/PTE harvesting
    classify_ns: float            #: parallelizable policy compute
    epoch: bool                   #: did this iteration migrate?
    to_fast: np.ndarray
    to_slow: np.ndarray
    #: The batch ids scanned (drives per-worker chunk accounting).
    due_ids: np.ndarray = dataclasses.field(
        default_factory=lambda: np.empty(0, dtype=np.int64))


class SolPolicy:
    """Pure policy state machine; the agent drives it and accounts time."""

    def __init__(self, space: AddressSpace, seed: int = 0):
        self.space = space
        self.scanner = AccessBitScanner(space)
        self.bandit = BetaBandit(space.n_batches, seed=seed)
        #: Ladder rung per batch; everyone starts at the fastest period
        #: (the policy must discover coldness, not assume it).
        self.period_idx = np.zeros(space.n_batches, dtype=np.int8)
        self.next_scan_ns = np.zeros(space.n_batches, dtype=np.float64)
        self.last_epoch_ns = 0.0
        self.iterations = 0

    def due_batches(self, now_ns: float) -> np.ndarray:
        """Batches whose scan period has elapsed."""
        return np.nonzero(self.next_scan_ns <= now_ns)[0]

    def iterate(self, now_ns: float) -> Optional[SolIteration]:
        """Run one policy iteration at simulated time ``now_ns``.

        Scans due batches, updates posteriors, re-assigns scan
        frequencies, and (on epoch boundaries) emits migration
        decisions. Returns None when nothing was due.
        """
        due = self.due_batches(now_ns)
        if len(due) == 0:
            return None
        accessed, scan_cost = self.scanner.scan(due, now_ns)
        # ``due`` comes from ``np.nonzero``: sorted and free of repeats,
        # as ``observe`` requires.
        samples = self.bandit.observe(due, accessed, BATCH_PAGES)

        # Re-assign ladder rungs from the posterior sample.
        rung = ladder_rungs(samples)
        self.period_idx[due] = rung
        periods = _LADDER_NS.take(rung)
        if self.iterations == 0:
            # Stagger each batch's first rescan uniformly within its
            # period so same-period cohorts don't arrive as synchronized
            # bursts (production address spaces age incrementally).
            periods *= self.bandit.rng.uniform(0.1, 1.0, size=len(due))
        periods += now_ns
        self.next_scan_ns[due] = periods
        # The per-scan temporaries go before an epoch's full-size ones.
        del accessed, samples, rung, periods

        epoch = (now_ns - self.last_epoch_ns) >= EPOCH_NS
        to_fast = np.empty(0, dtype=np.int64)
        to_slow = np.empty(0, dtype=np.int64)
        classify = len(due) * CLASSIFY_BATCH_NS
        if epoch:
            self.last_epoch_ns = now_ns
            full_sample = self.bandit.sample()
            hot = full_sample >= HOT_TIER_THRESHOLD
            to_fast = np.nonzero(hot)[0]
            to_slow = np.nonzero(~hot)[0]
            classify += self.space.n_batches * (CLASSIFY_BATCH_NS * 0.1)
        self.iterations += 1
        return SolIteration(
            when_ns=now_ns,
            batches_scanned=len(due),
            scan_cost_ns=scan_cost,
            classify_ns=classify,
            epoch=epoch,
            to_fast=to_fast,
            to_slow=to_slow,
            due_ids=due,
        )
