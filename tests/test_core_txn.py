"""Tests for transactions and per-core txn/prestage slots."""

import pytest

from repro.core import Placement, Transaction, TxnOutcome, WaveChannel, WaveOpts
from repro.hw import HwParams, Machine
from repro.sim import Environment


def make_channel(opts=None, placement=Placement.NIC, params=None):
    env = Environment()
    machine = Machine(env, params or HwParams.pcie())
    return env, WaveChannel(machine, placement, opts or WaveOpts.full())


def test_txn_ids_unique():
    a = Transaction(target=0, payload="x")
    b = Transaction(target=0, payload="y")
    assert a.txn_id != b.txn_id
    assert a.outcome is TxnOutcome.PENDING


def test_txn_ids_restart_with_every_run(monkeypatch):
    # Ids label, they never steer: two same-seed runs in one process
    # mint the same transaction ids, like task and message ids.
    from repro.core.api import WaveNicApi
    from repro.sched import FifoPolicy
    from repro.sched.experiment import run_sched_point
    from repro.workloads import RocksDbModel
    create = WaveNicApi.txn_create
    ids = []

    def recording(self, target, payload):
        txn = create(self, target, payload)
        ids[-1].append(txn.txn_id)
        return txn

    monkeypatch.setattr(WaveNicApi, "txn_create", recording)
    for _ in range(2):
        ids.append([])
        run_sched_point(Placement.NIC, WaveOpts.full(), 4, FifoPolicy,
                        RocksDbModel.fifo_mix, 100_000,
                        duration_ns=500_000, warmup_ns=100_000, seed=3)
    assert ids[0]
    assert ids[0] == ids[1]


def test_slot_lazily_created_and_cached():
    env, channel = make_channel()
    slot = channel.slot(3)
    assert channel.slot(3) is slot
    assert channel.slot(4) is not slot
    assert slot.addr != channel.slot(4).addr


def test_stash_then_take():
    env, channel = make_channel()
    slot = channel.slot(0)
    txn = Transaction(target=0, payload="run-thread-7")
    cost = slot.stash(txn)
    assert cost > 0
    env.now = slot._visible_at + 1
    got, take_cost = slot.take()
    assert got is txn
    assert take_cost > 0
    assert not slot.occupied


def test_empty_take_returns_none():
    env, channel = make_channel()
    got, cost = channel.slot(0).take()
    assert got is None
    assert cost > 0  # flag check is never free


def test_restash_marks_old_txn_stale():
    env, channel = make_channel()
    slot = channel.slot(0)
    old = Transaction(target=0, payload="old")
    new = Transaction(target=0, payload="new")
    slot.stash(old)
    slot.stash(new)
    assert old.outcome is TxnOutcome.FAILED_STALE
    env.now = slot._visible_at + 1
    got, _ = slot.take()
    assert got is new


def test_take_pays_clflush_on_stale_line():
    """Software coherence: reading a freshly stashed decision must
    invalidate the host's cached copy first (section 5.3.2)."""
    params = HwParams.pcie()
    env, channel = make_channel(WaveOpts.wc_wt())
    slot = channel.slot(0)
    # Warm the host cache with an empty take.
    _, warm_cost = slot.take()
    slot.stash(Transaction(target=0, payload="d"))
    env.now = 100_000.0  # let the stash become visible
    got, cost = slot.take()
    assert got is not None
    # Miss (750) + line-fill amortized reads; must exceed pure hits.
    assert cost >= params.clflush + params.mmio_read_uc


def test_prefetch_hides_take_latency():
    params = HwParams.pcie()
    env, channel = make_channel(WaveOpts.full())
    slot = channel.slot(0)
    slot.stash(Transaction(target=0, payload="d"))
    env.now = 1_000.0
    slot.prefetch()
    env.now = 1_000.0 + params.mmio_read_uc + 100
    got, cost = slot.take()
    assert got is not None
    # All reads hit the prefetched line(s).
    assert cost <= 2 * params.mmio_read_uc * 0.1


def test_uc_take_costs_full_roundtrips():
    params = HwParams.pcie()
    env, channel = make_channel(WaveOpts.baseline())
    slot = channel.slot(0)
    slot.stash(Transaction(target=0, payload="d"))
    env.now = 100_000.0
    _, cost = slot.take()
    assert cost >= (channel.entry_words + 1) * params.mmio_read_uc


def test_onhost_slot_is_cheap():
    params = HwParams.pcie()
    env, channel = make_channel(placement=Placement.HOST)
    slot = channel.slot(0)
    slot.stash(Transaction(target=0, payload="d"))
    env.now = slot._visible_at + 1
    got, cost = slot.take()
    assert got is not None
    # Entry reads + the consumption-marker write, all in coherent DRAM.
    assert cost <= (channel.entry_words + 2) * params.host_shm_access


def test_stash_visibility_is_immediate_for_nic_producer():
    """NIC writes its own DRAM; the host's next MMIO read sees it
    (the read roundtrip itself is the only delay)."""
    env, channel = make_channel()
    slot = channel.slot(0)
    slot.stash(Transaction(target=0, payload="d"))
    env.now = slot._visible_at + 1
    got, _ = slot.take()
    assert got is not None


def test_opts_ladder_monotone_take_cost():
    """Each optimization level must not make decision reads slower."""
    costs = []
    for label, opts in WaveOpts.ladder():
        env, channel = make_channel(opts)
        slot = channel.slot(0)
        slot.stash(Transaction(target=0, payload="d"))
        env.now = 100_000.0
        if opts.prefetch:
            slot.prefetch()
            env.now += 2_000.0
        _, cost = slot.take()
        costs.append(cost)
    assert costs == sorted(costs, reverse=True)


def test_opts_prefetch_requires_wt():
    with pytest.raises(ValueError):
        WaveOpts(nic_wb=True, host_wc_wt=False, prestage=True, prefetch=True)
