"""A relay dispatches exactly the events of the helper process it stands
in for.

:class:`repro.sim.Relay` replaces one-``yield`` helper processes (the
ring and DMA-queue wakers, the MSI-X deliverers) on the strength of one
claim: it schedules its start, makes or subscribes to its wait event,
runs its step in its home domain and schedules its completion exactly
where the process would have. Each program below therefore runs twice
per engine, once with a helper ``env.process`` and once with a relay,
and every ``(time, priority, seq)`` dispatch key, ``env._seq``,
``events_dispatched``, the model's own log and, partitioned, the
observatory's per-domain counts must match.

The programs make the relay's seq allocation observable: the creating
process schedules an equal-deadline timeout right after the helper, so
a wait timer made at creation instead of at start would dispatch first.
The cross-domain case wakes a waiter from the step, so a step run
outside the helper's home domain files that wake-up in the wrong
domain's queue.
"""

import pytest

from repro.sim import Environment, Event, PartitionPlan, Relay
from repro.sim.events import NORMAL

from tests.conformance.engines import (DOMAINS, MIN_CROSS_DELAY, merge_env,
                                       merge_windows)

ENGINES = {
    "serial": Environment,
    "heap-only": lambda: Environment(use_wheel=False),
    "merge": lambda: merge_env(PartitionPlan.uniform(DOMAINS, 400.0)),
}


@pytest.fixture
def dispatch_log(monkeypatch):
    """Every dispatched event's ``(time, priority, seq)`` key, in order.

    Each schedule puts a recorder first in the event's callbacks, so
    the programs below must not cancel events or race conditions.
    """
    log = []
    schedule = Environment._schedule
    timeout = Environment.timeout

    def attach(event, key):
        def recorder(_):
            log.append(key)
        if type(event.callbacks) is tuple:  # a relay's own entry
            event.callbacks = (recorder,) + event.callbacks
        else:
            event.callbacks.insert(0, recorder)

    def logged_schedule(env, event, priority, delay=0):
        schedule(env, event, priority, delay)
        attach(event, (env.now + delay, priority, env._seq))

    def logged_timeout(env, delay, value=None):
        # A pooled timer is scheduled inline; a new one via _schedule.
        pooled = bool(env._timeout_pool)
        timer = timeout(env, delay, value)
        if pooled:
            attach(timer, (env.now + delay, NORMAL, env._seq))
        return timer

    monkeypatch.setattr(Environment, "_schedule", logged_schedule)
    monkeypatch.setattr(Environment, "timeout", logged_timeout)
    return log


def helper_process(env, wait, step, arg):
    """The helper as a process: ``yield`` the wait, then the step."""
    def body():
        yield wait if isinstance(wait, Event) else env.timeout(wait)
        step(arg)
    env.process(body(), name="helper")


def helper_relay(env, wait, step, arg):
    Relay(env, wait, step, arg)


def _wait_for(case, env):
    """The helper's wait and the creator's equal deadline, per case."""
    if case == "zero-delay":
        return 0, 0
    if case == "delay":
        return 300.0, 300.0
    if case == "far-delay":  # parks in the timer wheel
        return 5_000.0, 5_000.0
    if case == "cross-domain":  # fires in the host domain
        return env.cross_timeout("host", MIN_CROSS_DELAY), MIN_CROSS_DELAY
    if case == "never":  # a lost MSI-X
        return env.event(), 200.0
    raise AssertionError(case)


def program(env, helper, case):
    """One helper made by a NIC-domain creator, amid other traffic."""
    log = []
    woken = env.event()

    def step(arg):
        log.append(("step", arg, env.now))
        woken.succeed()
        env.timeout(50.0)

    def waiter():  # home: host
        yield woken
        log.append(("woken", env.now))
        yield env.timeout(20.0)

    def creator():  # home: nic
        yield env.timeout(10.0)
        if case == "processed":
            done = env.event()
            done.succeed()
            yield env.timeout(5.0)
            assert done.processed
            helper(env, done, step, case)
            yield env.timeout(0)
        else:
            wait, equal = _wait_for(case, env)
            helper(env, wait, step, case)
            yield env.timeout(equal)
        log.append(("creator", env.now))
        yield env.timeout(100.0)
        log.append(("creator", env.now))

    with env.domain("host"):
        env.process(waiter(), name="waiter")
    with env.domain("nic"):
        env.process(creator(), name="creator")
    env.run(until=20_000.0)
    return log


CASES = ["zero-delay", "delay", "far-delay", "cross-domain", "never",
         "processed"]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", CASES)
def test_relay_dispatches_like_the_helper_process(engine, case,
                                                  dispatch_log):
    runs = []
    for helper in (helper_process, helper_relay):
        env = ENGINES[engine]()
        model = program(env, helper, case)
        run = {"dispatch": list(dispatch_log), "model": model,
               "seq": env._seq, "dispatched": env.events_dispatched}
        part = env.partition
        if part is not None:
            assert merge_windows(env) > 0
            run["domain_events"] = part.observatory.events
            run["windows"] = part.observatory.windows
        runs.append(run)
        del dispatch_log[:]
    as_process, as_relay = runs
    assert as_relay == as_process
    steps = [entry for entry in as_relay["model"] if entry[0] == "step"]
    assert len(steps) == (0 if case == "never" else 1)


def test_relay_is_not_waitable():
    env = Environment()
    relay = Relay(env, 10.0, [].append)

    def waiter():
        yield relay

    env.process(waiter())
    with pytest.raises(AttributeError):
        env.run()


def test_relay_completion_fails_with_a_failed_wait():
    env = Environment()
    failed = env.event()
    ran = []
    Relay(env, failed, ran.append, "step")
    failed.fail(ValueError("lost"))
    with pytest.raises(ValueError, match="lost"):
        env.run()
    assert ran == [] and failed._defused
