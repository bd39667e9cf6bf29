"""Tests for the memory management substrate and SOL."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    AddressSpace,
    AccessBitScanner,
    BetaBandit,
    BATCH_PAGES,
    EPOCH_NS,
    MemAgentPlacement,
    MemoryAgent,
    SCAN_PERIODS_NS,
    SolPolicy,
    Tier,
    TieredMemory,
)
from repro.mem.addrspace import BATCH_BYTES
from repro.hw import HwParams, Machine
from repro.sim import Environment

SMALL = 64 * 1024 * 1024  # 64 MiB address space for fast tests


def small_space(seed=0, **kw):
    return AddressSpace(total_bytes=SMALL, seed=seed, **kw)


class TestAddressSpace:
    def test_sizing(self):
        space = small_space()
        assert space.n_batches == SMALL // BATCH_BYTES
        assert space.total_bytes == SMALL

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(total_bytes=1024)

    @pytest.mark.parametrize("name,value", [
        ("hot_fraction", -0.1), ("hot_fraction", 1.5),
        ("warm_fraction", -0.1), ("warm_fraction", 1.5),
    ])
    def test_fraction_outside_unit_interval_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            small_space(**{name: value})

    def test_fractions_summing_above_one_rejected(self):
        # Would silently truncate the warm set to the batches left over.
        with pytest.raises(ValueError, match="must not exceed 1"):
            small_space(hot_fraction=0.7, warm_fraction=0.5)

    @pytest.mark.parametrize("name", ["hot_rate_hz", "warm_rate_hz",
                                      "cold_rate_hz"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_bad_rate_rejected(self, name, value):
        # Each would reach ``binomial`` as an invalid ``p`` mid-run.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            small_space(**{name: value})

    def test_edge_configs_accepted(self):
        space = small_space(hot_fraction=0.75, warm_fraction=0.25,
                            cold_rate_hz=0.0)
        assert len(space.hot_ids) + len(space.warm_ids) == space.n_batches
        assert small_space(hot_fraction=0.0, warm_fraction=1.0).hot_bytes == 0

    def test_hot_batches_show_access_bits(self):
        space = small_space()
        accessed = space.harvest_access_bits(space.hot_ids, now_ns=1e9)
        # Hot rate 50 Hz/page over 1s: essentially every page accessed.
        assert accessed.mean() > BATCH_PAGES * 0.9

    def test_cold_batches_mostly_untouched(self):
        space = small_space()
        cold = np.setdiff1d(np.arange(space.n_batches),
                            np.concatenate([space.hot_ids, space.warm_ids]))
        accessed = space.harvest_access_bits(cold, now_ns=1e9)
        assert accessed.mean() < 1.0

    def test_bits_clear_on_harvest(self):
        space = small_space()
        space.harvest_access_bits(space.hot_ids, now_ns=1e9)
        # Immediately re-harvest: zero interval, nothing accumulated.
        again = space.harvest_access_bits(space.hot_ids, now_ns=1e9)
        assert again.max() == 0


class TestBandit:
    def test_posterior_moves_toward_observations(self):
        bandit = BetaBandit(4, seed=1)
        for _ in range(10):
            bandit.update(np.array([0]), np.array([BATCH_PAGES]), BATCH_PAGES)
            bandit.update(np.array([1]), np.array([0]), BATCH_PAGES)
        means = bandit.mean()
        assert means[0] > 0.9
        assert means[1] < 0.1

    def test_sample_in_unit_interval(self):
        bandit = BetaBandit(100, seed=1)
        samples = bandit.sample()
        assert np.all((samples >= 0) & (samples <= 1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BetaBandit(0)
        with pytest.raises(ValueError):
            BetaBandit(1, prior_alpha=0)

    def test_out_of_range_successes(self):
        bandit = BetaBandit(2)
        with pytest.raises(ValueError):
            bandit.update(np.array([0]), np.array([BATCH_PAGES + 1]),
                          BATCH_PAGES)

    @given(st.integers(min_value=0, max_value=BATCH_PAGES))
    @settings(max_examples=20)
    def test_update_keeps_posterior_valid(self, successes):
        bandit = BetaBandit(1, seed=2)
        bandit.update(np.array([0]), np.array([successes]), BATCH_PAGES)
        assert bandit.alpha[0] > 0 and bandit.beta[0] > 0
        assert 0 <= bandit.mean()[0] <= 1


class TestTiers:
    def test_everything_starts_fast(self):
        space = small_space()
        tiers = TieredMemory(space)
        assert tiers.fast_bytes == space.total_bytes

    def test_migrations(self):
        space = small_space()
        tiers = TieredMemory(space)
        cost = tiers.apply_decisions(to_fast=np.array([], dtype=np.int64),
                                     to_slow=np.arange(10))
        assert cost > 0
        assert tiers.fast_bytes == space.total_bytes - 10 * BATCH_BYTES
        assert tiers.migrations_to_slow == 10

    def test_idempotent_enforcement(self):
        space = small_space()
        tiers = TieredMemory(space)
        tiers.apply_decisions(np.array([], dtype=np.int64), np.arange(5))
        cost = tiers.apply_decisions(np.array([], dtype=np.int64),
                                     np.arange(5))
        assert cost == 0.0  # nothing actually moved

    def test_hit_fraction_drops_when_hot_evicted(self):
        space = small_space()
        tiers = TieredMemory(space)
        assert tiers.hit_fast_fraction() == pytest.approx(1.0)
        tiers.apply_decisions(np.array([], dtype=np.int64), space.hot_ids)
        assert tiers.hit_fast_fraction() < 0.1


class TestSolPolicy:
    def test_first_iteration_scans_everything(self):
        space = small_space()
        policy = SolPolicy(space)
        iteration = policy.iterate(now_ns=600e6)
        assert iteration.batches_scanned == space.n_batches

    def test_hot_batches_get_fast_period(self):
        space = small_space()
        policy = SolPolicy(space)
        # A few scans to sharpen the posterior.
        now = 0.0
        for _ in range(6):
            now += SCAN_PERIODS_NS[0]
            policy.iterate(now)
        hot_rungs = policy.period_idx[space.hot_ids]
        cold = np.setdiff1d(np.arange(space.n_batches),
                            np.concatenate([space.hot_ids, space.warm_ids]))
        assert np.median(hot_rungs) == 0
        assert np.median(policy.period_idx[cold]) == len(SCAN_PERIODS_NS) - 1

    def test_epoch_emits_migrations(self):
        space = small_space()
        policy = SolPolicy(space)
        now, saw_epoch = 0.0, False
        for _ in range(80):
            now += SCAN_PERIODS_NS[0]
            iteration = policy.iterate(now)
            if iteration and iteration.epoch:
                saw_epoch = True
                assert len(iteration.to_slow) > 0
                # The hot set stays fast.
                assert len(np.intersect1d(iteration.to_fast,
                                          space.hot_ids)) \
                    > 0.9 * len(space.hot_ids)
        assert saw_epoch

    def test_nothing_due_returns_none(self):
        space = small_space()
        policy = SolPolicy(space)
        policy.iterate(600e6)
        assert policy.iterate(600e6 + 1) is None


class TestMemoryAgent:
    def build(self, placement, n_cores):
        env = Environment()
        machine = Machine(env, HwParams.pcie())
        space = small_space()
        tiers = TieredMemory(space)
        agent = MemoryAgent(env, machine, space, tiers, placement, n_cores)
        return env, agent, tiers, space

    def test_invalid_cores(self):
        env = Environment()
        machine = Machine(env, HwParams.pcie())
        space = small_space()
        with pytest.raises(ValueError):
            MemoryAgent(env, machine, space, TieredMemory(space),
                        MemAgentPlacement.NIC, 0)

    def test_wave_slower_than_onhost(self):
        durations = {}
        for placement in MemAgentPlacement:
            env, agent, _, _ = self.build(placement, 4)
            agent.start()
            env.run(until=6e9)
            durations[placement] = agent.steady_state_duration_ms()
        assert durations[MemAgentPlacement.NIC] \
            > durations[MemAgentPlacement.HOST]

    def test_more_cores_faster(self):
        durations = []
        for cores in (1, 4, 16):
            env, agent, _, _ = self.build(MemAgentPlacement.NIC, cores)
            agent.start()
            env.run(until=6e9)
            durations.append(agent.steady_state_duration_ms())
        assert durations == sorted(durations, reverse=True)

    def test_footprint_shrinks_after_epochs(self):
        env, agent, tiers, space = self.build(MemAgentPlacement.NIC, 8)
        agent.start()
        start = tiers.fast_gib
        env.run(until=1.5 * EPOCH_NS)
        assert tiers.fast_gib < start * 0.5
        # Traffic still overwhelmingly served from DRAM.
        assert tiers.hit_fast_fraction() > 0.95
