"""Hypothesis-driven cross-engine conformance: one generated program,
every engine, identical dispatch.

The program generator covers the kernel's full op surface: schedule at
delays straddling every routing class (inline/staged, fine wheel,
coarse wheel), cancellation, PollTimer arm/re-arm races, same-turn
staged cascades, URGENT-priority interrupts, and lookahead-respecting
cross-domain sends. Each generated program replays on every
:data:`~tests.conformance.engines.ENGINE_CONFIGS` entry; the dispatch
log (tags + timestamps), the logical schedule count (``_seq``), and
``events_dispatched`` must match the reference (plain heap) exactly.

This folds in and generalizes the wheel-vs-heap property tests that
lived in ``tests/test_sim_wheel.py`` before the partitioned engine
existed.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Interrupt, PollTimer
from repro.sim.wheel import (COARSE_GRAIN, FINE_GRAIN, MIN_COARSE_DELAY,
                             MIN_WHEEL_DELAY)

from tests.conformance.engines import (DOMAINS, ENGINE_CONFIGS,
                                       MIN_CROSS_DELAY, REFERENCE,
                                       merge_windows)

#: Delays straddling every routing class: inline/staged (< 4096),
#: fine wheel, coarse wheel, and exact threshold values.
_DELAYS = [0.0, 1.0, 200.0, MIN_WHEEL_DELAY - 1, MIN_WHEEL_DELAY,
           FINE_GRAIN * 3, 10_000.0, MIN_COARSE_DELAY - 1,
           MIN_COARSE_DELAY, COARSE_GRAIN * 2.5, 500_000.0]

#: Extra slack on top of the cross-domain minimum, again straddling the
#: wheel thresholds (a cross send can park in the target's wheel).
_CROSS_EXTRA = [0.0, 1.0, 512.0, MIN_WHEEL_DELAY, 200_000.0]

_op = st.one_of(
    st.tuples(st.just("timer"), st.sampled_from(_DELAYS),
              st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("cascade"), st.sampled_from(_DELAYS),
              st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("poll"), st.sampled_from(_DELAYS[1:]),
              st.integers(min_value=0, max_value=2),
              st.sampled_from(_DELAYS[1:])),
    st.tuples(st.just("cross"), st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=2),
              st.sampled_from(_CROSS_EXTRA)),
    st.tuples(st.just("irq"), st.sampled_from(_DELAYS[1:]),
              st.sampled_from(_DELAYS[1:])),
    st.tuples(st.just("run"), st.integers(min_value=0, max_value=30)),
)

_programs = st.lists(_op, min_size=1, max_size=50)


def run_program(config, ops, env=None):
    """Replay one generated program on ``config``'s engine (on ``env``
    when given, a fresh ``config.build()`` otherwise).

    Model structure (timers, polls, processes) is keyed by *canonical*
    domain tags so it is identical across configs; only the domain
    placement (``config.resolve``) differs -- and placement must never
    change observable behaviour.
    """
    if env is None:
        env = config.build()
    log = []
    live = []
    polls = {}
    poll_busy = {}

    def on_fire(tag):
        def callback(event):
            log.append((tag, env.now))
        return callback

    def racer(canon, poll, delay, kick_after, tag):
        kick = env.timeout(kick_after)
        timer = poll.arm(delay)
        yield env.any_of([kick, timer])
        log.append((tag, env.now, timer.triggered))
        poll_busy[canon] = False

    def sleeper(tag, delay):
        try:
            yield env.timeout(delay)
            log.append((tag, env.now, "slept"))
        except Interrupt:
            log.append((tag, env.now, "irq"))

    def driver():
        for n, op in enumerate(ops):
            kind = op[0]
            if kind == "timer":
                _, delay, dom = op
                with env.domain(config.resolve(DOMAINS[dom])):
                    timer = env.timeout(delay)

                def fired(tag, timer):
                    def callback(event):
                        log.append((tag, env.now))
                        # Drop fired timers from the live list at once:
                        # a fired Timeout returns to the freelist, and a
                        # retained reference may alias a new live timer
                        # handed out by a later env.timeout().
                        live.remove(timer)
                    return callback

                timer.callbacks.append(fired(f"t{n}", timer))
                live.append(timer)
            elif kind == "cancel":
                if live:
                    timer = live.pop(op[1] % len(live))
                    del timer.callbacks[:]
                    timer.cancel()
                    log.append(("cancel", env.now))
            elif kind == "cascade":
                _, delay, count = op

                def cascade(tag, count):
                    def callback(event):
                        log.append((tag, env.now))
                        # Same-turn staged dispatch: zero-delay timers
                        # scheduled *during* a dispatch.
                        for j in range(count):
                            chained = env.timeout(0.0)
                            chained.callbacks.append(on_fire(f"{tag}.{j}"))
                    return callback

                trigger = env.timeout(delay)
                trigger.callbacks.append(cascade(f"k{n}", count))
            elif kind == "poll":
                _, delay, dom, kick = op
                canon = DOMAINS[dom]
                if poll_busy.get(canon):
                    continue  # one race per poll timer at a time
                poll_busy[canon] = True
                with env.domain(config.resolve(canon)):
                    poll = polls.get(canon)
                    if poll is None:
                        poll = polls[canon] = PollTimer(env)
                    env.process(racer(canon, poll, delay, kick, f"p{n}"))
            elif kind == "cross":
                _, src, dst, extra = op
                with env.domain(config.resolve(DOMAINS[src])):
                    timer = env.cross_timeout(config.resolve(DOMAINS[dst]),
                                              MIN_CROSS_DELAY + extra)
                timer.callbacks.append(on_fire(f"x{n}"))
            elif kind == "irq":
                _, sleep_delay, fuse = op
                victim = env.process(sleeper(f"s{n}", sleep_delay))

                def detonate(victim):
                    def callback(event):
                        if victim.is_alive:
                            victim.interrupt("irq")
                    return callback

                fuse_timer = env.timeout(fuse)
                fuse_timer.callbacks.append(detonate(victim))
            else:  # "run": let simulated time pass
                yield env.timeout(float(op[1]) * 977.0)
                log.append(("ran", env.now))
        # Drain everything still pending (wheel buckets included).
        yield env.timeout(2_000_000.0)

    env.process(driver())
    env.run(until=3_000_000.0)
    return log, env._seq, env.events_dispatched


@settings(deadline=None, max_examples=50)
@given(_programs)
def test_every_engine_dispatches_identically(ops):
    """The conformance bar: every engine config replays any generated
    program with the reference engine's exact dispatch log, logical
    schedule count, and dispatch count."""
    reference = run_program(REFERENCE, ops)
    for config in ENGINE_CONFIGS[1:]:
        assert run_program(config, ops) == reference, (
            f"engine {config.name!r} diverged from "
            f"{REFERENCE.name!r} on {ops!r}")


def test_smoke_program_is_nontrivial():
    """The fixed smoke program exercises every op kind and actually
    dispatches events on every engine (guards against the property
    test passing vacuously on empty logs), and every partitioned config
    really dispatches through the exact merge."""
    ops = [("timer", 200.0, 0), ("timer", 10_000.0, 2), ("cascade", 1.0, 2),
           ("poll", 200.0, 1, 4096.0), ("cross", 0, 2, 512.0),
           ("irq", 4096.0, 200.0), ("run", 3), ("cancel", 0),
           ("poll", 500_000.0, 1, 200.0), ("run", 20),
           ("cross", 2, 0, 200_000.0), ("cascade", 131071.0, 3)]
    reference = run_program(REFERENCE, ops)
    assert len(reference[0]) > 10
    assert reference[2] > 10  # events actually dispatched
    for config in ENGINE_CONFIGS[1:]:
        env = config.build()
        assert run_program(config, ops, env) == reference, config.name
        if config.partitioned:
            assert merge_windows(env) > 0, config.name
