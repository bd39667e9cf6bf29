"""Window-batched dispatch: engine counters, degrades, and the handoff.

The conformance suites prove *what* the batched engine computes (the
canonicalized-log bar in ``tests/conformance/test_rng_streams.py``);
these tests pin *how* it runs: that windows really batch, that
cancelled wheel entries really get bulk-purged, that shared-state
touches really sticky-degrade, that a run with batching off is handed
to the serial kernel with every pending entry intact, and that the
runs which need the exact-order merge never are.
"""

from repro.obs import Telemetry
from repro.sim import Environment, PartitionPlan, PollTimer, Store
from repro.sim.events import RearmableTimer
from repro.sim.partition import _PURGE_BACKLOG, PartitionEngine

from tests.conformance.engines import merge_env

PLAN = PartitionPlan.uniform(("host", "ic", "nic"), 400.0)


def _batched_env(monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    env = Environment()
    part = env.enable_partition(PLAN, use_partition=True)
    assert part is not None
    return env, part


def _merge_env():
    env = merge_env(PLAN)
    return env, env.partition


# -- batched dispatch really batches ----------------------------------------

def test_batched_run_uses_windows(monkeypatch):
    env, part = _batched_env(monkeypatch)
    assert part.batching
    fired = []
    for name, delay in (("host", 25.0), ("nic", 50_000.0), ("ic", 90_000.0)):
        with env.domain(name):
            t = env.timeout(delay)
        t.callbacks.append(lambda ev, name=name: fired.append((name, env.now)))
    env.run(until=200_000.0)
    assert fired == [("host", 25.0), ("nic", 50_000.0), ("ic", 90_000.0)]
    assert part.windows_batched > 0
    assert part.events_batched >= 3
    assert part.batch_degrades == 0
    # Window batching still counts as domain activity for the
    # observability counters the exact merge feeds.
    assert part.domain_switches >= part.windows_batched
    assert env._partition is part  # never degraded: no handoff


def test_telemetry_pins_exact_merge(monkeypatch):
    """Span ordering is observable, so instrumented runs stay exact."""
    with Telemetry():
        env = Environment()
        part = env.enable_partition(PLAN, use_partition=True)
        assert not part.batching


# -- shared-state commit rule ------------------------------------------------

def test_shared_store_touch_sticky_degrades(monkeypatch):
    """A Store touched from two domains computes its results at *call*
    time, which the window contract cannot fence event-by-event -- the
    first second-domain touch must turn batching off for the rest of
    the run, which then finishes on the serial kernel."""
    env, part = _batched_env(monkeypatch)
    store = Store(env)

    def producer():
        while True:
            yield env.timeout(500.0)
            yield store.put(env.now)

    def consumer():
        while True:
            got = yield store.get()
            assert got is not None

    with env.domain("host"):
        env.process(producer())
    with env.domain("nic"):
        env.process(consumer())
    env.run(until=100_000.0)
    assert not part.batching  # sticky: stays off for the run's rest
    assert env._partition is None  # handed to the serial kernel
    assert env.partition is part


def test_single_domain_store_keeps_batching(monkeypatch):
    """Same Store traffic inside one domain is fence-safe: no degrade."""
    env, part = _batched_env(monkeypatch)
    store = Store(env)

    def producer():
        while True:
            yield env.timeout(500.0)
            yield store.put(env.now)

    def consumer():
        while True:
            yield store.get()

    with env.domain("host"):
        env.process(producer())
        env.process(consumer())
    with env.domain("nic"):
        env.timeout(90_000.0)
    env.run(until=100_000.0)
    assert part.batching
    assert part.batch_degrades == 0


# -- the handoff to the serial kernel ---------------------------------------

def _degrading_program(env, probe=None):
    """Batched windows, then a sticky degrade mid-run at t=2000 in the
    NIC domain, with work parked in every place the handoff must move:

    - the NIC heap (a timer at 3200 scheduled before the run);
    - the NIC staged list (timers the degrading callback schedules at
      or past its window's fence, 3000 and 3500);
    - a NIC coarse wheel bucket (200 us out);
    - a stale heap entry in the *ic* domain (3000) of a poll timer the
      NIC callback re-arms in place to fire at 6000. A live ic timer
      at 2600 keeps that stale entry off the ic heap's head, so no
      round cleans it before the handoff.

    ``probe(name, timer)`` sees each parked timer. Returns the dispatch
    log, ``env._seq`` and ``events_dispatched``.
    """
    log = []
    store = Store(env)
    probe = probe or (lambda name, timer: None)

    def note(tag):
        return lambda ev: log.append((tag, env.now))

    with env.domain("ic"):
        poll = PollTimer(env)
        stale = poll.arm(3_000.0)
        env.timeout(2_600.0).callbacks.append(note("ic-live"))
    del stale.callbacks[:]
    stale.cancel()
    probe("stale", stale)

    def host():
        yield env.timeout(1_000.0)
        yield store.put("host")  # the store's first (owning) domain
        while True:
            yield env.timeout(10_000.0)
            log.append(("host-beat", env.now))

    def degrade(ev):
        store.put("nic")  # second domain: batching off for good
        for delay in (1_000.0, 1_500.0):
            timer = env.timeout(delay)
            timer.callbacks.append(note(f"staged+{delay:.0f}"))
            probe("staged", timer)
        coarse = env.timeout(200_000.0)
        coarse.callbacks.append(note("coarse"))
        probe("coarse", coarse)
        again = poll.arm(4_000.0)  # in place: the ic entry goes stale
        assert again is stale
        again.callbacks.append(note("poll"))

    def nic_chain():
        for _ in range(4):
            yield env.timeout(3_700.0)
            log.append(("nic-chain", env.now))

    env.process(host())
    with env.domain("nic"):
        trigger = env.timeout(2_000.0)
        heap = env.timeout(3_200.0)
        env.process(nic_chain())
    trigger.callbacks.append(degrade)
    heap.callbacks.append(note("heap"))
    probe("heap", heap)
    env.run(until=300_000.0)
    return log, env._seq, env.events_dispatched


def test_degraded_run_hands_off_with_every_entry(monkeypatch):
    # The coarse wheel bucket is one of the places the handoff must
    # empty.
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    serial = _degrading_program(Environment())

    env, part = _batched_env(monkeypatch)
    parked = {}
    staged_at_degrade = []

    def probe(name, timer):
        parked.setdefault(name, []).append(timer)
        if name == "staged":
            nic = part._by_name["nic"]
            staged_at_degrade.append(
                any(entry[3] is timer for entry in nic.staged))

    where = {}
    real_hand_off = PartitionEngine._hand_off

    def spy(self, until):
        # Where the parked entries sit the moment the handoff starts.
        nic, ic = self._by_name["nic"], self._by_name["ic"]
        heap_events = [entry[3] for entry in nic.queue]
        coarse_events = [entry[3] for bucket in nic.wheel._coarse.values()
                         for entry in bucket]
        where["nic_heap"] = all(t in heap_events
                                for t in parked["heap"] + parked["staged"])
        where["nic_coarse"] = parked["coarse"][0] in coarse_events
        where["ic_stale"] = any(
            entry[3] is parked["stale"][0]
            and type(entry[3]) is RearmableTimer
            and entry[3]._rearm_seq != entry[2] for entry in ic.queue)
        return real_hand_off(self, until)

    monkeypatch.setattr(PartitionEngine, "_hand_off", spy)
    got = _degrading_program(env, probe)

    assert part.windows_batched > 0  # batched windows ran first
    assert part.batch_degrades == 1  # the degrade came mid-run
    assert staged_at_degrade == [True, True]
    assert where == {"nic_heap": True, "nic_coarse": True, "ic_stale": True}
    assert env._partition is None
    assert env.partition is part
    log = got[0]
    assert ("poll", 6_000.0) in log and ("coarse", 202_000.0) in log
    assert got == serial


def test_telemetry_run_never_hands_off():
    env, part = _merge_env()
    store = Store(env)
    with env.domain("host"):
        store.put(1)
    with env.domain("nic"):
        store.put(2)  # would degrade a batched run; the merge ignores it
        env.timeout(5_000.0)
    env.run(until=10_000.0)
    assert env._partition is part
    assert sum(part.observatory.windows.values()) > 0


def test_event_until_never_hands_off(monkeypatch):
    """``run(until=<event>)`` stops at an ordering-sensitive point, so a
    run with batching off stays on the exact merge."""
    env, part = _batched_env(monkeypatch)
    part.batching = False
    fired = []
    with env.domain("nic"):
        stop = env.timeout(3_000.0, value="stop")
        later = env.timeout(5_000.0)
    with env.domain("host"):
        early = env.timeout(1_000.0)
    early.callbacks.append(lambda ev: fired.append(("host", env.now)))
    later.callbacks.append(lambda ev: fired.append(("nic", env.now)))
    assert env.run(until=stop) == "stop"
    assert env._partition is part
    assert fired == [("host", 1_000.0)]
    assert part.domain_switches > 0  # the merge dispatched


# -- the exact merge under telemetry -----------------------------------------

def test_merge_single_queue_dispatch_order():
    """Exact merge with a single populated domain: dispatch order is the
    plain serial order, and each merge window is recorded."""
    env, part = _merge_env()
    fired = []
    with env.domain("nic"):
        for delay in (300.0, 100.0, 200.0, 100.0):
            t = env.timeout(delay)
            t.callbacks.append(
                lambda ev, d=delay: fired.append((d, env.now)))
    env.run(until=1_000.0)
    assert fired == [(100.0, 100.0), (100.0, 100.0),
                     (200.0, 200.0), (300.0, 300.0)]
    assert part.observatory.events["nic"] == 4
    assert env._partition is part


def test_merge_closes_window_on_cross_insert():
    """An event that seeds another domain mid-window must hand control
    back to the merge's select -- the seeded event must not be
    dispatched late or lost."""
    env, part = _merge_env()
    fired = []

    def seeder(ev):
        cross = env.cross_timeout("host", 2_000.0)
        cross.callbacks.append(lambda e: fired.append(("host", env.now)))

    with env.domain("nic"):
        first = env.timeout(100.0)
        late = env.timeout(50_000.0)
    first.callbacks.append(seeder)
    late.callbacks.append(lambda ev: fired.append(("nic", env.now)))
    env.run(until=100_000.0)
    assert fired == [("host", 2_100.0), ("nic", 50_000.0)]
    assert part.observatory.windows["host"] > 0
    assert part.observatory.traffic == {("nic", "host"): 1}


# -- satellite: cancelled-entry bulk purge ----------------------------------

def test_window_close_purges_cancelled_wheel_entries(monkeypatch):
    """Cancelling a backlog of far wheel timers triggers the bulk
    purge: entries leave the wheels without ever reaching a heap, and
    the environment counts them."""
    env, part = _batched_env(monkeypatch)
    timers = []
    with env.domain("nic"):
        for i in range(_PURGE_BACKLOG + 8):
            timers.append(env.timeout(400_000.0 + i * 977.0))
    with env.domain("host"):
        driver = env.timeout(50.0)

    def cancel_all(ev):
        for t in timers:
            del t.callbacks[:]
            t.cancel()

    driver.callbacks.append(cancel_all)
    env.run(until=600_000.0)
    assert env.cancelled_purged >= _PURGE_BACKLOG
    assert env._cancel_backlog < _PURGE_BACKLOG
    # None of the cancelled far timers was promoted into a heap.
    assert env.events_dispatched == 1  # the driver only


def test_serial_rollover_drops_count_in_wheel_not_purges():
    """The serial kernel never bulk-purges: a cancelled far timer is
    dropped when its bucket rolls over, which the wheel counts in
    `TimerWheel.dropped_cancelled`. `Environment.cancelled_purged`
    counts only the partitioned engine's window-close purges, so it
    stays 0 here."""
    env = Environment()
    t = env.timeout(400_000.0)
    del t.callbacks[:]
    t.cancel()
    env.run(until=1_000_000.0)
    assert env._wheel.dropped_cancelled == 1
    assert env.cancelled_purged == 0
