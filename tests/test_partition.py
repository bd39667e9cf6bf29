"""Unit tests for the partitioned parallel-DES engine plumbing.

The conformance suite (``tests/conformance/``) proves the partitioned
engine dispatches byte-identically to the serial kernel; these tests
cover the plumbing around it: plan validation, the hardware-derived
lookahead windows, every ``enable_partition`` fallback rule, the
lookahead-checked cross-domain channel, and process home domains.
"""

import math

import pytest

from repro.hw import HwParams
from repro.hw.pcie import Interconnect
from repro.hw.platform import Machine
from repro.sim import (Environment, LookaheadViolation, PartitionPlan,
                      PollTimer)
from repro.sim.partition import HOST, INTERCONNECT, NIC

PLAN = PartitionPlan.uniform(("host", "ic", "nic"), 400.0)


# -- PartitionPlan -----------------------------------------------------------

def test_uniform_plan_declares_every_ordered_pair():
    plan = PartitionPlan.uniform(("a", "b", "c"), 250.0)
    assert plan.usable()
    assert plan.default == "a"
    pairs = [(s, d) for s in plan.names for d in plan.names if s != d]
    assert len(pairs) == 6
    assert all(plan.window(s, d) == 250.0 for s, d in pairs)
    assert plan.min_window() == 250.0


def test_plan_window_defaults_to_zero_when_undeclared():
    plan = PartitionPlan(("a", "b"), {("a", "b"): 100.0})
    assert plan.window("a", "b") == 100.0
    assert plan.window("b", "a") == 0.0
    assert not plan.usable()  # the missing pair makes it unusable


@pytest.mark.parametrize("plan", [
    PartitionPlan.uniform(("solo",), 400.0),          # < 2 domains
    PartitionPlan.uniform(("a", "a"), 400.0),          # duplicate names
    PartitionPlan.uniform(("a", "b"), 0.0),            # zero lookahead
    PartitionPlan.uniform(("a", "b"), -5.0),           # negative lookahead
    PartitionPlan(("a", "b"), {("a", "b"): 1.0, ("b", "a"): 1.0},
                  default="zzz"),                      # default not a member
])
def test_unusable_plans(plan):
    assert not plan.usable()
    assert Environment().enable_partition(
        plan, use_partition=True) is None


def test_empty_plan_min_window_is_infinite():
    assert PartitionPlan(()).min_window() == math.inf


# -- hardware-derived lookahead ---------------------------------------------

@pytest.mark.parametrize("preset", ["pcie", "cxl", "upi"])
def test_domain_lookahead_positive_for_every_preset(preset):
    """Every shipped Table 2 preset must yield a usable plan -- the
    Machine layer partitions by default, so a non-positive window here
    would silently drop the whole repo back to the serial path."""
    params = getattr(HwParams, preset)()
    windows = params.domain_lookahead()
    assert set(windows) == {
        (s, d) for s in ("host", "ic", "nic")
        for d in ("host", "ic", "nic") if s != d}
    assert all(w > 0 for w in windows.values()), windows
    # Composed paths are exactly the sum of their legs (the plan must
    # not promise a shortcut the two-hop physics cannot deliver).
    assert windows[("host", "nic")] == pytest.approx(
        windows[("host", "ic")] + windows[("ic", "nic")])
    assert windows[("nic", "host")] == pytest.approx(
        windows[("nic", "ic")] + windows[("ic", "host")])


def test_pcie_lookahead_values_match_table2_derivation():
    p = HwParams.pcie()
    w = p.domain_lookahead()
    assert w[("host", "ic")] == p.mmio_write_uc
    assert w[("ic", "nic")] == (
        min(p.mmio_write_visibility, p.dma_base_latency) - p.mmio_write_uc)
    assert w[("nic", "ic")] == p.msix_send_reg
    assert w[("ic", "host")] == (
        p.msix_e2e - p.msix_send_ioctl - p.msix_receive - p.msix_send_reg)


def test_interconnect_partition_plan_is_usable():
    plan = Interconnect(HwParams.pcie()).partition_plan()
    assert plan.names == (HOST, INTERCONNECT, NIC)
    assert plan.default == HOST
    assert plan.usable()


# -- enable_partition fallbacks ---------------------------------------------

def test_enable_partition_installs_engine(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    env = Environment()
    part = env.enable_partition(PLAN, use_partition=True)
    assert part is not None
    assert env.partition is part
    assert part.domain_names() == ("host", "ic", "nic")


def test_enable_partition_env_var_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    env = Environment()
    assert env.enable_partition(PLAN) is None
    assert env.partition is None
    # The hatch only fills in the default; an explicit use_partition
    # wins over it in either direction.
    assert Environment().enable_partition(PLAN, use_partition=True)


def test_enable_partition_explicit_opt_out():
    env = Environment()
    assert env.enable_partition(PLAN, use_partition=False) is None
    assert env.partition is None


def test_enable_partition_none_plan():
    assert Environment().enable_partition(None) is None


def test_enable_partition_refuses_heap_only_env():
    """Every domain files its far timers in a wheel, so the heap-only
    reference kernel keeps its serial loop, even when asked."""
    env = Environment(use_wheel=False)
    assert env.enable_partition(PLAN, use_partition=True) is None
    assert env.partition is None


def test_enable_partition_twice_raises():
    env = Environment()
    assert env.enable_partition(PLAN, use_partition=True)
    with pytest.raises(RuntimeError):
        env.enable_partition(PLAN, use_partition=True)


def test_enable_partition_requires_fresh_env():
    env = Environment()
    env.timeout(10.0)
    with pytest.raises(RuntimeError):
        env.enable_partition(PLAN, use_partition=True)


def test_fallback_env_runs_serially():
    """An env that fell back must behave exactly like a plain one:
    domain() is a no-op context, cross_timeout is a plain timeout."""
    env = Environment()
    assert env.enable_partition(PLAN, use_partition=False) is None
    log = []
    with env.domain("anything-goes"):
        t = env.cross_timeout("nic", 1.0)  # below any window: unchecked
    t.callbacks.append(lambda ev: log.append(env.now))
    env.run(until=10.0)
    assert log == [1.0]


# -- the cross-domain channel -----------------------------------------------

def test_cross_timeout_below_window_raises():
    env = Environment()
    env.enable_partition(PLAN, use_partition=True)
    with pytest.raises(LookaheadViolation):
        env.cross_timeout("nic", 399.0)


def test_cross_timeout_at_window_is_legal():
    env = Environment()
    part = env.enable_partition(PLAN, use_partition=True)
    log = []
    t = env.cross_timeout("nic", 400.0, value="x")
    t.callbacks.append(lambda ev: log.append((env.now, ev.value)))
    env.run(until=1_000.0)
    assert log == [(400.0, "x")]
    assert part.cross_sends == 1


def test_cross_timeout_same_domain_is_unchecked():
    env = Environment()
    part = env.enable_partition(PLAN, use_partition=True)
    with env.domain("nic"):
        env.cross_timeout("nic", 0.0)  # same domain: no window applies
    assert part.cross_sends == 0


def test_cross_timeout_unknown_domain_raises():
    env = Environment()
    env.enable_partition(PLAN, use_partition=True)
    with pytest.raises(ValueError):
        env.cross_timeout("gpu", 1_000.0)


def test_domain_context_unknown_name_raises():
    env = Environment()
    env.enable_partition(PLAN, use_partition=True)
    with pytest.raises(ValueError):
        env.domain("gpu")


def test_asymmetric_windows_checked_per_direction():
    plan = PartitionPlan(("a", "b"),
                         {("a", "b"): 100.0, ("b", "a"): 900.0})
    env = Environment()
    env.enable_partition(plan, use_partition=True)
    env.cross_timeout("b", 100.0)  # a -> b: fine
    with env.domain("b"):
        with pytest.raises(LookaheadViolation):
            env.cross_timeout("a", 100.0)  # b -> a needs >= 900


# -- process home domains ----------------------------------------------------

def test_process_resumes_in_home_domain():
    """A process created under a domain tag schedules all its timeouts
    there, even when resumed by an event from another domain."""
    env = Environment()
    part = env.enable_partition(PLAN, use_partition=True)
    seen = []

    def proc():
        seen.append(part.current.name)
        yield env.timeout(10.0)
        seen.append(part.current.name)
        # Wait on a host-domain event; the wake must restore "nic".
        with env.domain("host"):
            wake = env.timeout(10.0)
        yield wake
        seen.append(part.current.name)

    with env.domain("nic"):
        env.process(proc())
    env.run(until=100.0)
    assert seen == ["nic", "nic", "nic"]


def test_machine_partitions_by_default_and_opts_out(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    env = Environment()
    m = Machine(env)
    assert env.partition is not None
    assert env.partition.domain_names() == (HOST, INTERCONNECT, NIC)
    assert m.interconnect.partition_plan().usable()

    serial_env = Environment()
    Machine(serial_env, use_partition=False)
    assert serial_env.partition is None


@pytest.mark.parametrize("delay", [10.0, 200_000.0])  # heap, wheel
def test_machine_leaves_a_busy_env_to_the_serial_kernel(monkeypatch,
                                                        delay):
    # Machine asks the env's own freshness test before installing, so
    # a scheduled event (in the heap or in the wheel) means no engine
    # and no error, where enable_partition itself raises.
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    env = Environment()
    assert env.fresh
    env.timeout(delay)
    assert not env.fresh
    with pytest.raises(RuntimeError):
        env.enable_partition(PLAN, use_partition=True)
    Machine(env)
    assert env.partition is None


def test_partition_counters_track_activity():
    env = Environment()
    part = env.enable_partition(PLAN, use_partition=True)
    with env.domain("nic"):
        t = env.timeout(50.0)
    t.callbacks.append(lambda ev: None)
    env.timeout(25.0)
    env.run(until=100.0)
    assert part.domain_switches >= 2  # host and nic both dispatched
    assert env.events_dispatched == 2


def test_polltimer_in_partitioned_env():
    env = Environment()
    env.enable_partition(PLAN, use_partition=True)
    fired = []
    with env.domain("ic"):
        poll = PollTimer(env)
        timer = poll.arm(300.0)
    timer.callbacks.append(lambda ev: fired.append(env.now))
    env.run(until=1_000.0)
    assert fired == [300.0]
