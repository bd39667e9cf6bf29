"""Staged-dispatch + re-arm interleavings across domain boundaries.

PR 5's review exposed the *stale-seq* bug class: a re-armed
:class:`PollTimer` leaves its old queue entry behind, and every place
that entry can surface (heap pop, staged fast path, wheel promotion)
must re-key it at the re-arm deadline and sequence number. The
partitioned engine multiplies the surfacing places by the number of
domains -- a stale entry can sit in one domain's queue while the
re-arm happens during another domain's dispatch window, and equal
deadlines must still tie-break on seq *across* queues. These tests pin
each interleaving, both against absolute expectations and
differentially against the serial kernel.
"""

from repro.sim import Environment, PartitionPlan, PollTimer

from tests.conformance.engines import merge_env, merge_windows

DOMAINS = ("host", "ic", "nic")


def _both_engines(program):
    """Run one program serially and partitioned; logs must match."""
    serial = program(Environment())
    # These tests pin *exact-order* cross-queue tie-breaks -- the
    # exact-merge engine's contract. Window batching deliberately
    # relaxes same-time cross-domain ordering, so run the merge (under
    # telemetry, as production does).
    env = merge_env(PartitionPlan.uniform(DOMAINS, 400.0))
    parted = program(env)
    assert merge_windows(env) > 0  # the merge really dispatched
    assert serial == parted
    return serial


def test_rearm_from_other_domain_dispatch_fires_at_new_deadline():
    """A poll timer whose stale entry sits in the NIC queue is re-armed
    during a *host*-domain dispatch; it must fire once, at the new
    deadline, on both engines."""
    def program(env):
        log = []
        with env.domain("nic"):
            poll = PollTimer(env)

        def driver():  # home = host (default domain)
            with env.domain("nic"):
                timer = poll.arm(600.0)
            del timer.callbacks[:]
            timer.cancel()
            yield env.timeout(200.0)  # host-domain dispatch at t=200
            with env.domain("nic"):
                again = poll.arm(800.0)  # stale entry @600, fire at 1000
            assert again is timer  # in-place reuse across the boundary
            again.callbacks.append(lambda ev: log.append(("fire", env.now)))
            yield env.timeout(5_000.0)

        env.process(driver())
        env.run(until=10_000.0)
        return log

    assert _both_engines(program) == [("fire", 1000.0)]


def test_rearm_while_stale_entry_staged_across_domains():
    """PR 5's staged-fast-path regression, cross-domain: the arm,
    cancel, and re-arm all happen inside one NIC-domain dispatch while
    the *host* domain owns the next events -- the stale entry rides the
    NIC staged list and must be re-keyed, not fired early."""
    def program(env):
        log = []
        fired = []
        with env.domain("nic"):
            poll = PollTimer(env)

        def on_start(_):
            timer = poll.arm(200.0)
            del timer.callbacks[:]
            timer.cancel()
            again = poll.arm(500.0)  # in-place reuse; stale entry staged
            assert again is timer
            again.callbacks.append(lambda ev: fired.append(env.now))

        with env.domain("nic"):
            starter = env.timeout(10.0)
        starter.callbacks.append(on_start)

        # Host-domain traffic bracketing the NIC deadlines, so the
        # partitioned merge actually alternates domains.
        for delay in (100.0, 300.0, 600.0):
            t = env.timeout(delay)
            t.callbacks.append(
                lambda ev, d=delay: log.append(("host", d, env.now)))
        env.run(until=1_000.0)
        return log, fired

    log, fired = _both_engines(program)
    assert fired == [510.0]
    assert log == [("host", 100.0, 100.0), ("host", 300.0, 300.0),
                   ("host", 600.0, 600.0)]


def test_equal_deadline_rearm_tiebreaks_across_queues():
    """An equal-deadline re-arm must tie-break on seq exactly like a
    fresh timeout even when the competing event lives in a *different*
    domain's queue: host 'mid' timer (earlier seq) before the re-armed
    NIC poll timer (later seq), same timestamp."""
    def program(env):
        log = []
        with env.domain("nic"):
            poll = PollTimer(env)

        def driver():  # home = host
            ev = env.event()
            with env.domain("nic"):
                timer = poll.arm(100.0)

            def kicker():
                yield env.timeout(10.0)
                ev.succeed()

            env.process(kicker())
            yield env.any_of([ev, timer])  # resumes at t=10; loser cancelled
            mid = env.timeout(90.0)        # host queue, same deadline t=100
            mid.callbacks.append(lambda e: log.append("mid"))
            with env.domain("nic"):
                again = poll.arm(90.0)     # nic queue, seq after mid's
            again.callbacks.append(lambda e: log.append("poll"))
            yield env.timeout(300.0)

        env.process(driver())
        env.run(until=1_000.0)
        return log

    assert _both_engines(program) == ["mid", "poll"]


def test_rearm_surfacing_via_wheel_promotion_in_other_domain():
    """A far-future poll entry parked in the NIC domain's *wheel* is
    re-armed; the stale entry must be re-keyed at promotion time in
    that domain while the host domain keeps dispatching."""
    def program(env):
        log = []
        with env.domain("nic"):
            poll = PollTimer(env)

        def driver():  # home = host
            with env.domain("nic"):
                timer = poll.arm(50_000.0)  # parks in the NIC fine wheel
            del timer.callbacks[:]
            timer.cancel()
            yield env.timeout(1_000.0)
            with env.domain("nic"):
                again = poll.arm(60_000.0)  # stale wheel entry @50_000
            again.callbacks.append(lambda ev: log.append(("fire", env.now)))
            # Host heartbeat spanning the promotion window.
            for _ in range(8):
                yield env.timeout(10_000.0)
                log.append(("beat", env.now))

        env.process(driver())
        env.run(until=200_000.0)
        return log

    log = _both_engines(program)
    assert ("fire", 61_000.0) in log


def test_cross_domain_sends_interleave_with_rearm():
    """Lookahead-checked sends landing in the poll timer's domain while
    it re-arms: the merge across queues must still match serial."""
    def program(env):
        log = []
        with env.domain("nic"):
            poll = PollTimer(env)

        def nic_poller():
            with env.domain("nic"):
                pass  # (tag applies at creation, below)
            for i in range(6):
                timer = poll.arm(700.0)
                timer.callbacks.append(
                    lambda ev, i=i: log.append(("poll", i, env.now)))
                yield timer

        def host_sender():
            for i in range(6):
                t = env.cross_timeout("nic", 500.0 + 137.0 * i, i)
                t.callbacks.append(
                    lambda ev, i=i: log.append(("x", i, env.now)))
                yield env.timeout(400.0)

        with env.domain("nic"):
            env.process(nic_poller())
        env.process(host_sender())
        env.run(until=10_000.0)
        return log

    log = _both_engines(program)
    assert [e for e in log if e[0] == "poll"] == [
        ("poll", i, 700.0 * (i + 1)) for i in range(6)]
