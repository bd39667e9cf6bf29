"""Thompson sampling with Beta priors (SOL's classifier, section 4.2).

Each batch keeps a Beta(alpha, beta) posterior over its per-page access
probability. Scans update the posterior; decisions draw a sample from
it, which naturally balances exploring rarely-scanned batches against
exploiting well-known ones (Thompson 1933, as used by SOL).
"""

from __future__ import annotations

import numpy as np


class BetaBandit:
    """Vectorized Beta-Bernoulli posteriors, one arm per batch.

    Each arm's ``(alpha, beta)`` pair is one 16-byte cell of an
    ``(n_arms, 2)`` table, so an update gathers and scatters each cell
    once; ``alpha`` and ``beta`` are column views of that table.
    """

    def __init__(self, n_arms: int, prior_alpha: float = 1.0,
                 prior_beta: float = 1.0, seed: int = 0):
        if n_arms <= 0:
            raise ValueError("need at least one arm")
        if prior_alpha <= 0 or prior_beta <= 0:
            raise ValueError("Beta prior parameters must be positive")
        self.n_arms = n_arms
        table = np.empty((n_arms, 2), dtype=np.float64)
        table[:, 0] = prior_alpha
        table[:, 1] = prior_beta
        #: The table's rows as opaque 16-byte items: numpy gathers and
        #: scatters 1-D items several times faster than 2-D rows.
        self._cells = table.view("V16").reshape(n_arms)
        self.alpha = table[:, 0]
        self.beta = table[:, 1]
        self.rng = np.random.default_rng(seed)
        #: Exponential forgetting keeps the posterior adaptive to phase
        #: changes (SOL is an online policy on a live machine).
        self.decay = 0.9

    def _record(self, arms: np.ndarray, successes: np.ndarray,
                trials: int) -> np.ndarray:
        """Decay and update the cells of ``arms``; returns the new
        ``(len(arms), 2)`` posteriors, already written back."""
        arms = np.asarray(arms)
        successes = np.asarray(successes)
        if successes.size and (successes.min() < 0
                               or successes.max() > trials):
            raise ValueError("successes out of range")
        cells = self._cells[arms]
        posterior = cells.view(np.float64).reshape(-1, 2)
        posterior *= self.decay
        posterior[:, 0] += successes
        posterior[:, 1] += trials - successes
        self._cells[arms] = cells
        return posterior

    def update(self, arms: np.ndarray, successes: np.ndarray,
               trials: int) -> None:
        """Record ``successes`` out of ``trials`` observations per arm."""
        self._record(arms, successes, trials)

    def observe(self, arms: np.ndarray, successes: np.ndarray,
                trials: int) -> np.ndarray:
        """``update`` then one Thompson sample per arm, drawn from the
        posteriors just written rather than gathered again.

        ``arms`` must not repeat an arm: a repeated arm keeps its last
        update, but each of its samples would come from its own update.
        On distinct arms the draws equal those of ``update`` followed by
        ``sample(arms)``.
        """
        posterior = self._record(arms, successes, trials)
        return self.rng.beta(posterior[:, 0], posterior[:, 1])

    def sample(self, arms: np.ndarray = None) -> np.ndarray:
        """Draw one Thompson sample per arm (posterior access rate)."""
        if arms is None:
            return self.rng.beta(self.alpha, self.beta)
        arms = np.asarray(arms)
        return self.rng.beta(self.alpha[arms], self.beta[arms])

    def mean(self, arms: np.ndarray = None) -> np.ndarray:
        """Posterior means (useful for deterministic assertions)."""
        if arms is None:
            return self.alpha / (self.alpha + self.beta)
        arms = np.asarray(arms)
        a, b = self.alpha[arms], self.beta[arms]
        return a / (a + b)
