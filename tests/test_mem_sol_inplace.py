"""SOL's in-place iteration against the out-of-place arithmetic it replaces.

``AddressSpace.harvest_access_bits``, ``BetaBandit.observe`` and
``SolPolicy.iterate`` carry each per-batch array through one buffer
instead of fresh temporaries. Every draw and floating-point operation
must keep its value and its order, so the reference below -- the
straightforward formulation, kept here verbatim -- and the policy are
driven from the same seeds and must agree bit for bit after every
iteration. This holds under any numpy, whose ``Generator`` streams may
change between versions, because both sides draw from the same streams.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import AddressSpace, BetaBandit, BATCH_PAGES, EPOCH_NS
from repro.mem.agent import LOOP_PERIOD_NS, MemAgentPlacement
from repro.mem.experiment import run_sol_agent
from repro.mem.scanner import SCAN_BATCH_NS
from repro.mem.sol import (
    CLASSIFY_BATCH_NS,
    HOT_TIER_THRESHOLD,
    LADDER_THRESHOLDS,
    SCAN_PERIODS_NS,
    SolIteration,
    SolPolicy,
    ladder_rungs,
)

MIB = 1024 ** 2


def reference_rungs(samples):
    """The masked loop: the first threshold a sample clears sets its rung."""
    rung = np.full(len(samples), len(SCAN_PERIODS_NS) - 1, dtype=np.int8)
    for i, threshold in enumerate(LADDER_THRESHOLDS):
        rung[(samples >= threshold) & (rung == len(SCAN_PERIODS_NS) - 1)] \
            = i
    return rung


class ReferenceSol:
    """SOL computed out of place, on its own address space and posteriors."""

    def __init__(self, total_bytes, seed):
        self.space = AddressSpace(total_bytes=total_bytes, seed=seed)
        n = self.space.n_batches
        self.alpha = np.full(n, 1.0)
        self.beta = np.full(n, 1.0)
        self.decay = 0.9
        self.rng = np.random.default_rng(seed)
        self.period_idx = np.zeros(n, dtype=np.int8)
        self.next_scan_ns = np.zeros(n, dtype=np.float64)
        self.last_epoch_ns = 0.0
        self.iterations = 0

    def harvest(self, batch_ids, now_ns):
        space = self.space
        interval_s = (now_ns - space.last_scan_ns[batch_ids]) / 1e9
        interval_s = np.maximum(interval_s, 0.0)
        p_accessed = 1.0 - np.exp(-space.rates[batch_ids] * interval_s)
        accessed = space.rng.binomial(BATCH_PAGES, p_accessed)
        space.last_scan_ns[batch_ids] = now_ns
        return accessed

    def update(self, arms, successes, trials):
        successes = np.asarray(successes, dtype=np.float64)
        if np.any(successes < 0) or np.any(successes > trials):
            raise ValueError("successes out of range")
        self.alpha[arms] = self.alpha[arms] * self.decay + successes
        self.beta[arms] = self.beta[arms] * self.decay \
            + (trials - successes)

    def sample(self, arms=None):
        if arms is None:
            return self.rng.beta(self.alpha, self.beta)
        return self.rng.beta(self.alpha[arms], self.beta[arms])

    def iterate(self, now_ns):
        due = np.nonzero(self.next_scan_ns <= now_ns)[0]
        if len(due) == 0:
            return None
        accessed = self.harvest(due, now_ns)
        self.update(due, accessed, BATCH_PAGES)
        samples = self.sample(due)
        self.period_idx[due] = reference_rungs(samples)
        periods = np.asarray(SCAN_PERIODS_NS)[self.period_idx[due]]
        if self.iterations == 0:
            periods = periods * self.rng.uniform(0.1, 1.0, size=len(due))
        self.next_scan_ns[due] = now_ns + periods
        epoch = (now_ns - self.last_epoch_ns) >= EPOCH_NS
        to_fast = np.empty(0, dtype=np.int64)
        to_slow = np.empty(0, dtype=np.int64)
        classify = len(due) * CLASSIFY_BATCH_NS
        if epoch:
            self.last_epoch_ns = now_ns
            hot = self.sample() >= HOT_TIER_THRESHOLD
            to_fast = np.nonzero(hot)[0]
            to_slow = np.nonzero(~hot)[0]
            classify += self.space.n_batches * (CLASSIFY_BATCH_NS * 0.1)
        self.iterations += 1
        return SolIteration(
            when_ns=now_ns, batches_scanned=len(due),
            scan_cost_ns=len(due) * SCAN_BATCH_NS, classify_ns=classify,
            epoch=epoch, to_fast=to_fast, to_slow=to_slow, due_ids=due)


class DrawLog:
    """Forwards to a ``Generator`` and logs each draw with its arguments,
    so that every ``p`` and every Beta parameter can be compared."""

    def __init__(self, rng, source, log):
        self._rng, self._source, self._log = rng, source, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            self._log.append((self._source, name,
                              [np.array(arg) for arg in args], kwargs))
            return method(*args, **kwargs)
        return draw


def log_draws(space, holder, log):
    """Route ``space``'s and ``holder``'s generators through ``log``."""
    space.rng = DrawLog(space.rng, "space", log)
    holder.rng = DrawLog(holder.rng, "bandit", log)


def assert_same_draws(got, want):
    assert [call[:2] for call in got] == [call[:2] for call in want]
    for (_, name, got_args, got_kw), (_, _, want_args, want_kw) \
            in zip(got, want):
        assert got_kw == want_kw, name
        assert len(got_args) == len(want_args), name
        for a, b in zip(got_args, want_args):
            assert_bits(a, b, f"{name} argument")
    got.clear()
    want.clear()


def assert_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_iteration(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    for field in dataclasses.fields(SolIteration):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert_bits(a, b, field.name)
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.mark.parametrize("total_bytes,seed,jitter", [
    (64 * MIB, 0, False),
    (64 * MIB, 5, True),
    (1024 * MIB, 3, False),
    (1024 * MIB, 11, True),
])
def test_iterations_match_reference_bit_for_bit(total_bytes, seed, jitter):
    """Over more than one epoch -- the first-iteration stagger, the
    steady ladder and a migration epoch -- every draw, per-batch array
    and iteration record equals the reference's. With ``jitter`` the
    iterations start at irregular times, as an overrunning agent's do."""
    policy = SolPolicy(AddressSpace(total_bytes=total_bytes, seed=seed),
                       seed=seed)
    ref = ReferenceSol(total_bytes, seed)
    got_draws, want_draws = [], []
    log_draws(policy.space, policy.bandit, got_draws)
    log_draws(ref.space, ref, want_draws)
    steps = np.random.default_rng(seed + 100)
    now, orders = 0.0, set()
    while now <= 1.3 * EPOCH_NS:
        got, want = policy.iterate(now), ref.iterate(now)
        assert_same_iteration(got, want)
        orders.add(tuple(name for _, name, _, _ in want_draws))
        assert_same_draws(got_draws, want_draws)
        assert_bits(policy.space.last_scan_ns, ref.space.last_scan_ns,
                    "last_scan_ns")
        assert_bits(policy.bandit.alpha, ref.alpha, "alpha")
        assert_bits(policy.bandit.beta, ref.beta, "beta")
        assert_bits(policy.next_scan_ns, ref.next_scan_ns, "next_scan_ns")
        assert_bits(policy.period_idx, ref.period_idx, "period_idx")
        now += LOOP_PERIOD_NS
        if jitter:
            now += steps.uniform(0.0, 0.5) * LOOP_PERIOD_NS
    # The first-iteration stagger, steady iterations and an epoch ran
    # (an empty order is an iteration with nothing due).
    assert orders - {()} == {("binomial", "beta", "uniform"),
                             ("binomial", "beta"),
                             ("binomial", "beta", "beta")}
    assert policy.iterations == ref.iterations


def test_observe_equals_update_then_sample():
    """On distinct arms, sampling the cells just written draws what a
    fresh gather would."""
    fused, split = BetaBandit(64, seed=4), BetaBandit(64, seed=4)
    draws = np.random.default_rng(9)
    for _ in range(5):
        arms = np.sort(draws.choice(64, size=20, replace=False))
        successes = draws.integers(0, BATCH_PAGES + 1, size=20)
        samples = fused.observe(arms, successes, BATCH_PAGES)
        split.update(arms, successes, BATCH_PAGES)
        assert_bits(samples, split.sample(arms), "samples")
        assert_bits(fused.alpha, split.alpha, "alpha")
        assert_bits(fused.beta, split.beta, "beta")


def test_sol_observes_each_batch_once_per_iteration():
    """``observe`` needs distinct arms; SOL's come from ``np.nonzero``."""
    policy = SolPolicy(AddressSpace(total_bytes=64 * MIB, seed=2), seed=2)
    observe, seen = policy.bandit.observe, []

    def checked(arms, successes, trials):
        assert np.all(np.diff(arms) > 0)
        seen.append(len(arms))
        return observe(arms, successes, trials)

    policy.bandit.observe = checked
    for i in range(12):
        policy.iterate(i * LOOP_PERIOD_NS)
    assert len(seen) >= 2 and seen[0] == policy.space.n_batches


@pytest.mark.parametrize("method", ["update", "observe"])
def test_bandit_leaves_callers_successes_alone(method):
    """A float64 ``successes`` is used without a copy, so the update
    must not compute in it."""
    bandit = BetaBandit(8, seed=1)
    successes = np.array([0.0, 3.0, 64.0, 10.0])
    before = successes.copy()
    getattr(bandit, method)(np.array([1, 3, 5, 7]), successes, BATCH_PAGES)
    assert_bits(successes, before, "successes")


def test_bandit_columns_view_the_cells():
    bandit = BetaBandit(4, prior_alpha=2.0, prior_beta=3.0)
    bandit.update(np.array([2]), np.array([5]), BATCH_PAGES)
    assert bandit.alpha[2] == 2.0 * bandit.decay + 5
    assert bandit.beta[2] == 3.0 * bandit.decay + (BATCH_PAGES - 5)
    assert list(bandit.alpha[[0, 1, 3]]) == [2.0] * 3
    assert list(bandit.beta[[0, 1, 3]]) == [3.0] * 3


def test_ladder_thresholds_strictly_descending():
    """The counting form of ``ladder_rungs`` relies on it."""
    assert len(LADDER_THRESHOLDS) == len(SCAN_PERIODS_NS) - 1
    assert all(a > b for a, b in zip(LADDER_THRESHOLDS,
                                     LADDER_THRESHOLDS[1:]))


EDGES = sorted({0.0, 1.0, *LADDER_THRESHOLDS,
                *(float(np.nextafter(t, d)) for t in LADDER_THRESHOLDS
                  for d in (0.0, 1.0))})


def test_rungs_at_the_edges():
    samples = np.array(EDGES)
    assert_bits(ladder_rungs(samples), reference_rungs(samples), "rungs")
    at = ladder_rungs(np.array(LADDER_THRESHOLDS + (0.0, 1.0)))
    assert list(at) == [0, 1, 2, 3, 4, 0]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0)
                | st.sampled_from(EDGES), max_size=64))
@settings(max_examples=200, deadline=None)
def test_rungs_match_masked_loop(values):
    samples = np.array(values, dtype=np.float64)
    assert_bits(ladder_rungs(samples), reference_rungs(samples), "rungs")


#: Traced peak bytes per batch of a 1.8-epoch SOL run, taken as the
#: growth of the peak from a 1 GiB to a 16 GiB address space, which
#: leaves out the run's fixed ~200 KB of Python objects. It counts the
#: persistent per-batch arrays (~50 B) and the first iteration's
#: temporaries, when every batch is due. The out-of-place iteration
#: reads 90.5 and this one 90.6 (CPython 3.11, numpy 2.4); one more
#: per-batch int16 array reads 92.5.
PEAK_BYTES_PER_BATCH = 91.5


def traced_peak(total_bytes):
    """(batches, traced peak above what was live before) of one run."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    agent = run_sol_agent(MemAgentPlacement.NIC, 16,
                          total_bytes=total_bytes, epochs=1.8)
    assert any(record.epoch for record in agent.records)
    return agent.space.n_batches, tracemalloc.get_traced_memory()[1] - base


def test_sol_temporaries_stay_bounded():
    # numpy.random is imported on first use; keep that out of the trace.
    run_sol_agent(MemAgentPlacement.NIC, 16, total_bytes=64 * MIB,
                  epochs=1.8)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        small, small_peak = traced_peak(1024 * MIB)
        big, big_peak = traced_peak(16 * 1024 ** 3)
    finally:
        if started:
            tracemalloc.stop()
    per_batch = (big_peak - small_peak) / (big - small)
    assert per_batch < PEAK_BYTES_PER_BATCH
