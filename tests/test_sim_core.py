"""Tests for the simulation environment and event primitives."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    EventAlreadyTriggered,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_clock_custom_start():
    env = Environment(initial_time=500)
    assert env.now == 500


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(100)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [100]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(5, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(30)

    env.process(proc())
    env.run(until=100)
    assert env.now == 100


def test_run_until_time_processes_events_at_boundary():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(100)
        fired.append(env.now)

    env.process(proc())
    env.run(until=100)
    assert fired == [100]


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=50)
    with pytest.raises(ValueError):
        env.run(until=10)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(10)
        return 42

    result = env.run(until=env.process(proc()))
    assert result == 42
    assert env.now == 10


def test_run_until_never_firing_event_raises():
    env = Environment()
    event = env.event()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    with pytest.raises(RuntimeError):
        env.run(until=event)


def test_event_succeed_wakes_waiter():
    env = Environment()
    event = env.event()
    got = []

    def waiter():
        value = yield event
        got.append((env.now, value))

    def trigger():
        yield env.timeout(25)
        event.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [(25, "payload")]


def test_event_double_succeed_raises():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(EventAlreadyTriggered):
        event.succeed()


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter():
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        event.fail(ValueError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_unhandled_failure_crashes_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise RuntimeError("escaped")

    env.process(proc())
    with pytest.raises(RuntimeError, match="escaped"):
        env.run()


def test_defused_failure_does_not_crash():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("ignored"))
    event.defuse()
    env.run()  # must not raise


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(10)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_yield_non_event_fails_process():
    env = Environment()

    def proc():
        yield 123

    p = env.process(proc())
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()
    assert p.triggered and not p.ok


def test_any_of_triggers_on_first():
    env = Environment()
    results = []

    def proc():
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(20, value="slow")
        got = yield env.any_of([t1, t2])
        results.append((env.now, list(got.values())))

    env.process(proc())
    env.run()
    assert results == [(10, ["fast"])]


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc():
        t1 = env.timeout(10, value=1)
        t2 = env.timeout(20, value=2)
        got = yield env.all_of([t1, t2])
        results.append((env.now, sorted(got.values())))

    env.process(proc())
    env.run()
    assert results == [(20, [1, 2])]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    results = []

    def proc():
        got = yield env.all_of([])
        results.append((env.now, got))

    env.process(proc())
    env.run()
    assert results == [(0, {})]


def test_condition_propagates_child_failure():
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(5)
        raise KeyError("inner")

    def waiter():
        try:
            yield env.all_of([env.process(failer()), env.timeout(50)])
        except KeyError:
            caught.append(env.now)

    env.process(waiter())
    env.run()
    assert caught == [5]


def test_nested_processes():
    env = Environment()
    trace = []

    def child():
        yield env.timeout(5)
        trace.append(("child", env.now))
        return "child-result"

    def parent():
        result = yield env.process(child())
        trace.append(("parent", env.now, result))

    env.process(parent())
    env.run()
    assert trace == [("child", 5), ("parent", 5, "child-result")]


def test_repeated_run_until_advances_monotonically():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(7)

    env.process(ticker())
    env.run(until=10)
    assert env.now == 10
    env.run(until=20)
    assert env.now == 20


# ---------------------------------------------------------------------------
# Event cancellation + the fast dispatch loop's lazy heap deletion.


def test_cancel_pending_event():
    env = Environment()
    timer = env.timeout(10)
    assert timer.cancel()
    assert timer.cancelled
    env.run(until=20)
    assert env.now == 20


def test_cancel_with_waiting_callbacks_raises():
    env = Environment()
    timer = env.timeout(10)

    def waiter():
        yield timer

    env.process(waiter())
    env.run(until=5)  # the process is now parked on the timer
    with pytest.raises(RuntimeError):
        timer.cancel()


def test_cancel_processed_event_is_noop():
    env = Environment()
    ev = env.event()
    ev.succeed()
    env.run()
    assert ev.processed
    assert not ev.cancel()
    assert not ev.cancelled


def test_cancel_withdraws_triggered_unprocessed_event():
    # A succeed()ed event nobody waits on may still be withdrawn before
    # the scheduler reaches it; the pop loop then discards it.
    env = Environment()
    ev = env.event()
    ev.succeed("dropped")
    assert ev.cancel()
    env.run()
    assert ev.cancelled


def test_cancelled_event_cannot_trigger():
    env = Environment()
    ev = env.event()
    assert ev.cancel()
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed()
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("late"))


def test_run_until_time_skips_cancelled_head():
    env = Environment()
    head = env.timeout(5)
    done = []

    def proc():
        yield env.timeout(10)
        done.append(env.now)

    env.process(proc())
    head.cancel()
    env.run(until=50)
    assert done == [10]
    assert env.now == 50


def test_anyof_cancels_losing_timeout():
    env = Environment()
    results = []

    def kick(winner):
        yield env.timeout(5)
        winner.succeed("won")

    def proc():
        winner = env.event()
        loser = env.timeout(1000)
        env.process(kick(winner))
        res = yield env.any_of([winner, loser])
        results.append((env.now, list(res.values())))
        assert loser.cancelled

    env.process(proc())
    env.run()
    assert results == [(5, ["won"])]
    # The orphaned loser never advanced the clock when skipped.
    assert env.now == 5


def test_interrupt_cancels_orphaned_timer():
    env = Environment()
    from repro.sim import Interrupt

    def victim():
        try:
            yield env.timeout(1000)
        except Interrupt:
            pass
        yield env.timeout(5)

    def attacker(proc):
        yield env.timeout(10)
        proc.interrupt("stop")

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    assert env.now == 15  # not 1000: the preempted timer was cancelled


def test_process_waiting_on_cancelled_event_fails():
    env = Environment()
    ev = env.event()
    ev.cancel()

    def proc():
        yield ev

    started = env.process(proc())
    with pytest.raises(RuntimeError, match="cancelled"):
        env.run()
    assert not started.is_alive


def test_timeout_freelist_reuses_objects():
    env = Environment()
    seen = []

    def proc():
        for _ in range(3):
            timer = env.timeout(10)
            seen.append(id(timer))
            yield timer

    env.process(proc())
    env.run()
    assert env.now == 30
    # Processed timers return to the pool, so at least one id repeats.
    assert len(set(seen)) < 3


def test_freelist_timer_behaves_like_fresh_timeout():
    env = Environment()
    values = []

    def proc():
        first = env.timeout(3, value="a")
        values.append((yield first))
        second = env.timeout(4, value="b")
        values.append((yield second))
        with pytest.raises(ValueError):
            env.timeout(-1)

    env.process(proc())
    env.run()
    assert values == ["a", "b"]
    assert env.now == 7


# ---------------------------------------------------------------------------
# run(until=event) on already-processed events.


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    timer = env.timeout(5, value="done")
    env.run(until=20)
    assert timer.processed
    assert env.run(until=timer) == "done"


def test_run_until_already_failed_event_reraises():
    env = Environment()
    boom = env.event()

    def failer():
        yield env.timeout(5)
        boom.fail(RuntimeError("boom"))

    def waiter():
        try:
            yield boom
        except RuntimeError:
            pass  # defuses the failure

    env.process(waiter())
    env.process(failer())
    env.run(until=20)
    assert boom.processed and not boom.ok
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=boom)


def test_run_until_cancelled_event_raises():
    env = Environment()
    timer = env.timeout(5)
    timer.cancel()
    with pytest.raises(RuntimeError):
        env.run(until=timer)
