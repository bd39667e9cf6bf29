"""Timer wheel, poll coalescing, and virtual-tick equivalence tests.

The event-count optimizations are pure *mechanism* changes: the timer
wheel re-homes far timers, PollTimer reuses cancelled poll timeouts,
virtual ticks account for tick time analytically. None of them may
change observable behaviour -- dispatch order, timestamps, values, or
model outputs. This module pins the wheel mechanics and PollTimer arm
paths directly; the *cross-engine* property tests (random programs
dispatching identically on every kernel engine, wheel and partitioned
alike) live in ``tests/conformance/``, which subsumes the wheel-vs-heap
property tests that originally lived here.
"""

import pytest

from repro.hw import HwParams
from repro.hw.cpu import HostCpu
from repro.sim import Environment, PollTimer
from repro.sim.wheel import FINE_GRAIN, MIN_COARSE_DELAY, TimerWheel


# -- wheel mechanics --------------------------------------------------------

def test_wheel_far_timer_cancelled_never_touches_heap():
    env = Environment()
    timer = env.timeout(400_000.0)  # coarse bucket
    before = env.events_scheduled
    del timer.callbacks[:]
    timer.cancel()
    env.run(until=1_000_000.0)
    # The cancelled far timer was dropped at bucket rollover, not
    # admitted to the heap.
    assert env.events_scheduled == before
    assert env._wheel.dropped_cancelled == 1


def test_wheel_unit_ordering():
    """Direct TimerWheel check: promotion preserves (time, prio, seq)."""
    wheel = TimerWheel()

    class _Ev:
        _cancelled = False

    entries = [(50_000.0, 1, 3, _Ev()), (5_000.0, 1, 1, _Ev()),
               (200_000.0, 1, 2, _Ev())]
    for when, prio, seq, ev in entries:
        wheel.insert(when, prio, seq, ev, when >= MIN_COARSE_DELAY)
    assert len(wheel) == 3
    assert wheel.next_start() == int(5_000.0 // FINE_GRAIN) * FINE_GRAIN
    env = Environment(use_wheel=False)
    while len(wheel):
        wheel.promote_next(env, env._queue)
    popped = sorted(env._queue)
    assert [e[2] for e in popped] == [1, 3, 2]


# -- PollTimer --------------------------------------------------------------

def _race(env, poll, delay, kick_after):
    """One any_of race: poll timer vs an event kicked at kick_after
    (None = never). Returns the winner tag and the resume time."""
    result = {}

    def waiter():
        ev = env.event()
        timer = poll.arm(delay) if poll is not None else env.timeout(delay)
        if kick_after is not None:
            def kicker():
                yield env.timeout(kick_after)
                if not ev.triggered:
                    ev.succeed()
            env.process(kicker())
        yield env.any_of([ev, timer])
        result["at"] = env.now
        result["timer_fired"] = timer.processed

    proc = env.process(waiter())
    env.run(proc)
    return result


@pytest.mark.parametrize("delay,kick_after", [
    (500.0, 100.0),     # event wins, short timer
    (500.0, None),      # timer fires
    (9_000.0, 100.0),   # event wins, wheel-range timer
    (9_000.0, None),
])
def test_polltimer_single_race_times_match(delay, kick_after):
    plain = _race(Environment(), None, delay, kick_after)
    pooled_env = Environment()
    pooled = _race(pooled_env, PollTimer(pooled_env), delay, kick_after)
    assert plain == pooled


def test_polltimer_reuse_chain_matches_fresh_timeouts():
    """A long lose/re-arm chain with growing, shrinking, and equal
    delays resumes at exactly the times fresh timeouts would."""
    delays = [300.0, 600.0, 600.0, 5_000.0, 200.0, 150_000.0, 100.0]

    def run(use_poll):
        env = Environment()
        poll = PollTimer(env) if use_poll else None
        times = []
        for delay in delays:
            # Kick always wins at delay/2: the timer is a serial loser.
            r = _race(env, poll, delay, delay / 2.0)
            times.append((r["at"], r["timer_fired"]))
        return times

    assert run(True) == run(False)


def test_polltimer_counts_coalesced():
    env = Environment()
    poll = PollTimer(env)
    for _ in range(5):
        _race(env, poll, 400.0, 100.0)
    assert poll.armed == 5
    # First arm allocates; whether later arms reuse in place or
    # re-schedule, at least some must coalesce away their queue ops.
    assert poll.coalesced >= 1
    assert env.timers_coalesced == poll.coalesced


def test_rearm_while_stale_entry_staged_fires_at_new_deadline():
    """A poll timer armed, cancelled, and re-armed within one dispatch
    leaves its stale entry in the *staged* list; the inline fast path
    must re-key it like the heap-pop path instead of firing the timer
    at the stale (earlier) deadline."""
    env = Environment()
    poll = PollTimer(env)
    fired = []

    def on_start(_):
        timer = poll.arm(200.0)
        del timer.callbacks[:]
        timer.cancel()
        again = poll.arm(500.0)   # in-place reuse; stale entry staged @210
        assert again is timer
        again.callbacks.append(lambda ev: fired.append(env.now))

    starter = env.timeout(10.0)
    starter.callbacks.append(on_start)
    env.run(until=1_000.0)
    assert fired == [510.0]


def test_equal_deadline_rearm_preserves_same_timestamp_order():
    """Re-arming to the SAME deadline must tie-break like a fresh
    timeout: an event whose seq falls between the original arm and the
    re-arm, at the same timestamp, dispatches first."""
    def run(use_poll):
        env = Environment()
        poll = PollTimer(env) if use_poll else None
        log = []

        def driver():
            ev = env.event()
            timer = poll.arm(100.0) if use_poll else env.timeout(100.0)

            def kicker():
                yield env.timeout(10.0)
                ev.succeed()

            env.process(kicker())
            yield env.any_of([ev, timer])   # resumes at t=10; loser cancelled
            mid = env.timeout(90.0)         # same deadline, seq in between
            mid.callbacks.append(lambda e: log.append("mid"))
            again = poll.arm(90.0) if use_poll else env.timeout(90.0)
            again.callbacks.append(lambda e: log.append("poll"))
            yield env.timeout(300.0)

        env.process(driver())
        env.run(until=1_000.0)
        return log

    assert run(True) == run(False) == ["mid", "poll"]


def test_polltimer_rejects_rearm_while_pending():
    env = Environment()
    poll = PollTimer(env)
    poll.arm(100.0)
    with pytest.raises(RuntimeError):
        poll.arm(50.0)


def test_polltimer_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        PollTimer(env).arm(-1.0)


# -- virtual ticks ----------------------------------------------------------

def _tick_machine(legacy):
    """A host whose first socket takes timer ticks: virtual ones
    (``start_ticks``), or with ``legacy`` the event-per-tick loop they
    are checked against."""
    env = Environment()
    cpu = HostCpu(env, HwParams.pcie())
    socket = cpu.sockets[0]
    if legacy:
        for core in socket.cores:
            env.process(cpu._tick_loop(core), name=f"tick-c{core.id}")
    else:
        cpu.start_ticks(socket)
    return env, socket


@pytest.mark.parametrize("horizon_ticks", [1, 7, 10])
def test_virtual_ticks_match_legacy_tick_time(horizon_ticks):
    observed = {}
    for legacy in (True, False):
        env, socket = _tick_machine(legacy)
        env.run(until=horizon_ticks * socket.params.tick_period)
        observed[legacy] = [
            (core.tick_time, core.deep_sleep) for core in socket.cores[:4]]
        if not legacy:
            # The whole point: no tick events were scheduled.
            assert env._seq < 1_000
    assert observed[True] == observed[False]


def test_virtual_ticks_hold_cores_awake():
    env, socket = _tick_machine(False)
    env.run(until=socket.params.deep_sleep_entry * 5)
    assert socket.awake_cores == len(socket.cores)
    assert socket.current_ghz() == pytest.approx(3.2)


def test_virtual_ticks_wake_sleeping_core_at_next_tick():
    env = Environment()
    cpu = HostCpu(env, HwParams.pcie())
    socket = cpu.sockets[0]
    # Let every core fall into deep sleep first...
    env.run(until=socket.params.deep_sleep_entry * 3)
    assert socket.awake_cores == 0
    # ...then start ticks: the wake edge is reified one period later.
    start = env.now
    cpu.start_ticks(socket)
    env.run(until=start + socket.params.tick_period - 1.0)
    assert socket.awake_cores == 0
    env.run(until=start + socket.params.tick_period)
    assert socket.awake_cores == len(socket.cores)


def test_slow_ticks_fall_back_to_legacy_loop():
    """tick_period >= deep_sleep_entry has observable sleep/wake edges
    between ticks: start_ticks must keep the event-per-tick loop."""
    import dataclasses
    params = HwParams.pcie()
    slow = dataclasses.replace(
        params, tick_period=2 * params.deep_sleep_entry)
    env = Environment()
    cpu = HostCpu(env, slow)
    socket = cpu.sockets[0]
    cpu.start_ticks(socket)
    core = socket.cores[0]
    assert core._tick_anchor is None  # virtual accounting NOT engaged
    env.run(until=3 * slow.tick_period)
    assert core.tick_time == pytest.approx(3 * slow.tick_cost)
    # Between ticks the cores really do sleep (the edge the analytic
    # model cannot represent, hence the fallback).
    env.run(until=env.now + slow.deep_sleep_entry + 1.0)
    assert core.deep_sleep


def test_virtual_tick_boundary_no_overcount_at_large_magnitude():
    """A read representably *below* a tick boundary must not count that
    boundary's tick, however large the timestamps -- a fixed quotient
    nudge (the old +1e-9) forgives more than one ulp here and gains an
    undelivered tick."""
    import math
    env = Environment(initial_time=1e12)
    cpu = HostCpu(env, HwParams.pcie())
    core = cpu.cores[0]
    period, cost = 1_000_000.0, 17_000.0
    core.enable_virtual_ticks(period, cost)
    boundary = 1e12 + 3 * period
    env.now = math.nextafter(boundary, 0.0)
    assert core.tick_time == 2 * cost
    env.now = boundary
    assert core.tick_time == 3 * cost


def test_virtual_tick_boundary_no_undercount_at_huge_tick_index():
    """An exact-boundary read at a huge tick index must count the
    boundary tick: relative error in the float quotient exceeds any
    fixed nudge, so the count must be corrected in the time domain."""
    env = Environment()
    cpu = HostCpu(env, HwParams.pcie())
    core = cpu.cores[0]
    period = 1.0 / 3.0
    core.enable_virtual_ticks(period, 1.0)   # anchor = 0
    k = 14391780141791   # int(k*period/period + 1e-9) == k - 1
    env.now = k * period
    assert core.tick_time == float(k)


def test_enable_virtual_ticks_twice_raises():
    env = Environment()
    cpu = HostCpu(env, HwParams.pcie())
    core = cpu.cores[0]
    core.enable_virtual_ticks(1_000.0, 10.0)
    with pytest.raises(RuntimeError):
        core.enable_virtual_ticks(1_000.0, 10.0)


def test_tick_time_setter_composes_with_virtual():
    env, socket = _tick_machine(False)
    core = socket.cores[0]
    env.run(until=3 * socket.params.tick_period)
    analytic = core.tick_time
    assert analytic == pytest.approx(3 * socket.params.tick_cost)
    core.tick_time = 0.0
    assert core.tick_time == 0.0
    env.run(until=4 * socket.params.tick_period)
    assert core.tick_time == pytest.approx(socket.params.tick_cost)
