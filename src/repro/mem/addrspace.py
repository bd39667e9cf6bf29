"""A process address space with per-page access bits (section 7.4.1).

The RocksDB database is ~100 GiB (10 billion key-value pairs). SOL
groups consecutive pages into 256 KiB batches (64 x 4 KiB pages). The
synthetic access process replaces the production trace the paper used:
each batch has a per-page access rate; hot batches (the working set)
are accessed constantly, cold ones almost never -- which exercises the
identical policy code, since SOL only ever sees access bits.
"""

from __future__ import annotations

import math

import numpy as np

PAGE_BYTES = 4096
BATCH_PAGES = 64
BATCH_BYTES = PAGE_BYTES * BATCH_PAGES  # 256 KiB

#: Default RocksDB sizing: ~100 GiB.
DEFAULT_TOTAL_BYTES = 100 * 1024 ** 3


class AddressSpace:
    """Page batches plus a synthetic access-rate process."""

    def __init__(self, total_bytes: int = DEFAULT_TOTAL_BYTES,
                 hot_fraction: float = 0.195,
                 warm_fraction: float = 0.02,
                 hot_rate_hz: float = 50.0,
                 warm_rate_hz: float = 0.5,
                 cold_rate_hz: float = 0.001,
                 contiguous_hot: bool = False,
                 seed: int = 0):
        if total_bytes < BATCH_BYTES:
            raise ValueError("address space smaller than one batch")
        for name, fraction in (("hot_fraction", hot_fraction),
                               ("warm_fraction", warm_fraction)):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], "
                                 f"got {fraction!r}")
        if hot_fraction + warm_fraction > 1.0:
            raise ValueError(
                f"hot_fraction + warm_fraction must not exceed 1, got "
                f"{hot_fraction!r} + {warm_fraction!r}")
        for name, rate in (("hot_rate_hz", hot_rate_hz),
                           ("warm_rate_hz", warm_rate_hz),
                           ("cold_rate_hz", cold_rate_hz)):
            # A negative or non-finite rate makes an invalid binomial
            # ``p`` (inf * a zero interval is NaN) at the first scan.
            if not (rate >= 0.0 and math.isfinite(rate)):
                raise ValueError(f"{name} must be finite and "
                                 f"non-negative, got {rate!r}")
        self.n_batches = total_bytes // BATCH_BYTES
        self.total_bytes = self.n_batches * BATCH_BYTES
        self.rng = np.random.default_rng(seed)
        #: Per-page access rate (Hz) of each batch.
        self.rates = np.full(self.n_batches, cold_rate_hz, dtype=np.float64)
        n_hot = int(self.n_batches * hot_fraction)
        n_warm = int(self.n_batches * warm_fraction)
        if contiguous_hot:
            # A single hot region at the front of the address space
            # (e.g. an in-memory index before the cold data files).
            order = np.arange(self.n_batches)
        else:
            order = self.rng.permutation(self.n_batches)
        self.hot_ids = order[:n_hot]
        self.warm_ids = order[n_hot:n_hot + n_warm]
        self.rates[self.hot_ids] = hot_rate_hz
        self.rates[self.warm_ids] = warm_rate_hz
        #: Time each batch's access bits were last cleared (ns).
        self.last_scan_ns = np.zeros(self.n_batches, dtype=np.float64)

    @property
    def hot_bytes(self) -> int:
        """Bytes in the truly hot working set (ground truth)."""
        return int(len(self.hot_ids)) * BATCH_BYTES

    def harvest_access_bits(self, batch_ids: np.ndarray,
                            now_ns: float) -> np.ndarray:
        """Read-and-clear the access bits of ``batch_ids``.

        Returns the number of accessed pages (0..64) per batch. A page's
        bit is set with probability 1 - exp(-rate * interval): a Poisson
        access process observed over the time since the last scan.
        """
        batch_ids = np.asarray(batch_ids)
        # One buffer carries interval -> exponent -> probability, with
        # the operations of 1 - exp(-rate * max((now - last) / 1e9, 0))
        # in that order, so each ``p`` is bit-identical to the formula.
        p_accessed = self.last_scan_ns[batch_ids]
        np.subtract(now_ns, p_accessed, out=p_accessed)
        np.divide(p_accessed, 1e9, out=p_accessed)
        np.maximum(p_accessed, 0.0, out=p_accessed)
        neg_rates = self.rates[batch_ids]
        np.negative(neg_rates, out=neg_rates)
        np.multiply(neg_rates, p_accessed, out=p_accessed)
        np.exp(p_accessed, out=p_accessed)
        np.subtract(1.0, p_accessed, out=p_accessed)
        accessed = self.rng.binomial(BATCH_PAGES, p_accessed)
        self.last_scan_ns[batch_ids] = now_ns
        return accessed

    def describe(self) -> str:
        gib = self.total_bytes / 1024 ** 3
        return (f"{self.n_batches} batches ({gib:.0f} GiB), "
                f"{len(self.hot_ids)} hot, {len(self.warm_ids)} warm")
