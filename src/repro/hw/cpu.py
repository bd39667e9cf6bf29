"""Host CPU topology: sockets, CCXs, cores, SMT threads, C-states.

Mirrors the paper's testbed: AMD Zen3, 2 sockets x 64 physical cores x
2 hyperthreads, 8-core CCXs with a private L3 (section 7). The awake /
deep-sleep accounting feeds the per-socket :class:`TurboGovernor`
(section 7.2.4): a core that stays idle long enough enters a deep
C-state and stops counting against the socket's turbo budget.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hw.params import HwParams
from repro.hw.turbo import TurboGovernor
from repro.sim import Environment, TimeWeightedValue


class Core:
    """One physical core with ``threads_per_core`` SMT threads."""

    def __init__(self, env: Environment, core_id: int, socket: "Socket",
                 ccx_id: int, params: HwParams):
        self.env = env
        self.id = core_id
        self.socket = socket
        self.ccx_id = ccx_id
        self.params = params
        self.busy_threads = 0
        self.deep_sleep = False
        self._idle_since: Optional[float] = 0.0
        self._wake_epoch = 0  # invalidates stale deep-sleep checks
        #: Reified tick time (legacy loop increments; virtual-tick
        #: accounting adds the analytic part on top, see ``tick_time``).
        self._tick_base = 0.0
        self._tick_anchor: Optional[float] = None
        self._tick_period = 0.0
        self._tick_cost = 0.0
        self._ticks_hold_awake = False
        self._arm_deep_sleep_check()  # cores start idle

    def _ticks_elapsed(self) -> int:
        """Ticks delivered since the anchor: ``max{k >= 0 : k*period <=
        now - anchor}``, evaluated in the *time* domain.

        Comparing ``k * period`` against the elapsed time directly (and
        correcting the float-division guess against that criterion)
        keeps the boundary test exact at any magnitude: a fixed quotient
        nudge either under-forgives (relative error in a large quotient
        exceeds it, dropping a delivered tick) or over-forgives (a read
        genuinely just below a boundary gains an undelivered tick).
        Each correction loop runs at most once or twice -- the division
        guess is within a couple of ulps of the true index.
        """
        elapsed = self.env.now - self._tick_anchor
        period = self._tick_period
        ticks = int(elapsed / period)
        while ticks > 0 and ticks * period > elapsed:
            ticks -= 1
        while (ticks + 1) * period <= elapsed:
            ticks += 1
        return ticks

    @property
    def tick_time(self) -> float:
        """CPU time consumed by timer ticks on this core (both threads).

        With virtual ticks enabled this is computed analytically --
        ``floor(elapsed / period) * cost`` ticks have been delivered
        since the anchor -- so no per-tick event ever enters the
        scheduler queue. The boundary matches the legacy loop for runs:
        ``env.run(until=t)`` dispatches events *at* ``t``, so a read
        after a run ending exactly on a tick boundary includes that
        tick in both modes.

        Boundary caveat (see ``docs/performance.md``): equivalence with
        the legacy loop is guaranteed for reads strictly *between* tick
        timestamps. At an exact boundary, a read from an event that the
        legacy kernel happens to dispatch *before* the tick event of the
        same timestamp sees one fewer tick there than the analytic value
        -- intra-timestamp ordering against the tick event is the one
        thing a never-materialized tick cannot reproduce.
        """
        if self._tick_anchor is None:
            return self._tick_base
        return self._tick_base + self._ticks_elapsed() * self._tick_cost

    @tick_time.setter
    def tick_time(self, value: float) -> None:
        if self._tick_anchor is None:
            self._tick_base = value
        else:
            self._tick_base = value - self._ticks_elapsed() * self._tick_cost

    @property
    def awake(self) -> bool:
        """Out of deep sleep (counted by the turbo governor)."""
        return not self.deep_sleep

    @property
    def smt_factor(self) -> float:
        """Per-thread throughput factor given current SMT contention."""
        if self.busy_threads >= 2:
            return self.params.smt_efficiency
        return 1.0

    def thread_started(self) -> None:
        """A thread began running on this core."""
        self.busy_threads += 1
        self._idle_since = None
        self.poke()

    def thread_stopped(self) -> None:
        """A thread stopped running on this core."""
        if self.busy_threads <= 0:
            raise RuntimeError(f"core {self.id}: thread_stopped underflow")
        self.busy_threads -= 1
        if self.busy_threads == 0:
            self._idle_since = self.env.now
            self._arm_deep_sleep_check()

    def poke(self) -> None:
        """Any activity (run, tick, interrupt): leave/defer deep sleep."""
        self._wake_epoch += 1
        if self.deep_sleep:
            self.deep_sleep = False
            self.socket.core_woke(self)
        if self.busy_threads == 0:
            self._idle_since = self.env.now
            self._arm_deep_sleep_check()

    def enable_virtual_ticks(self, period: float, cost: float) -> None:
        """Deliver timer ticks analytically instead of one event each.

        Requires ``period < deep_sleep_entry`` (the caller checks): every
        tick then pokes the core before the idle residency elapses, so
        an awake core provably never sleeps -- that edge is modelled by
        the ``_ticks_hold_awake`` flag and needs no events at all. The
        only observable tick *edge* left is a core that is already in
        deep sleep when ticks start: its wake-up at the next tick
        boundary is reified as a single real event.

        ``tick_time`` reads return the analytic value from here on.
        """
        if period <= 0:
            raise ValueError(f"tick period must be positive, got {period}")
        if self._tick_anchor is not None:
            raise RuntimeError(f"core {self.id}: virtual ticks already on")
        self._tick_base = self.tick_time
        self._tick_anchor = self.env.now
        self._tick_period = period
        self._tick_cost = cost
        self._ticks_hold_awake = True
        # Pending deep-sleep checks would now race a tick they cannot
        # see; invalidate them (a tick always lands first).
        self._wake_epoch += 1
        if self.deep_sleep:
            def wake():
                yield self.env.timeout(period)
                self.poke()

            self.env.process(wake(), name=f"c{self.id}-tickwake")

    def _arm_deep_sleep_check(self) -> None:
        if self._ticks_hold_awake:
            # Virtual ticks land inside the residency window: the idle
            # check can never pass, so don't even schedule it.
            return
        epoch = self._wake_epoch

        def check():
            yield self.env.timeout(self.params.deep_sleep_entry)
            if (self._wake_epoch == epoch and self.busy_threads == 0
                    and not self.deep_sleep):
                self.deep_sleep = True
                self.socket.core_slept(self)

        self.env.process(check(), name=f"c{self.id}-csleep")


class Ccx:
    """A core complex: 8 physical cores sharing a private L3."""

    def __init__(self, ccx_id: int, cores: List[Core]):
        self.id = ccx_id
        self.cores = cores


class Socket:
    """One CPU socket; turbo is governed per socket (section 7.2.4)."""

    def __init__(self, env: Environment, socket_id: int, params: HwParams,
                 governor: Optional[TurboGovernor] = None):
        self.env = env
        self.id = socket_id
        self.params = params
        self.governor = governor or TurboGovernor(params)
        self.cores: List[Core] = []
        self.ccxs: List[Ccx] = []
        base = socket_id * params.cores_per_socket
        for i in range(params.cores_per_socket):
            ccx_id = i // params.cores_per_ccx
            self.cores.append(Core(env, base + i, self, ccx_id, params))
        for ccx_id in range(params.cores_per_socket // params.cores_per_ccx):
            lo = ccx_id * params.cores_per_ccx
            self.ccxs.append(Ccx(ccx_id, self.cores[lo:lo + params.cores_per_ccx]))
        self._awake = len(self.cores)
        #: Tracks the boosted frequency over time; a thread busy for an
        #: interval accrues work = (integral of frequency) * smt_factor.
        self.freq = TimeWeightedValue(env, self.governor.frequency(self._awake))

    @property
    def awake_cores(self) -> int:
        return self._awake

    def core_slept(self, core: Core) -> None:
        self._awake -= 1
        self.freq.set(self.governor.frequency(self._awake))

    def core_woke(self, core: Core) -> None:
        self._awake += 1
        self.freq.set(self.governor.frequency(self._awake))

    def current_ghz(self) -> float:
        return self.freq.value


class HostCpu:
    """The whole host package: all sockets, flat core list."""

    def __init__(self, env: Environment, params: HwParams):
        self.env = env
        self.params = params
        self.sockets = [Socket(env, s, params)
                        for s in range(params.host_sockets)]
        self.cores: List[Core] = [c for s in self.sockets for c in s.cores]

    def start_ticks(self, socket: Socket) -> None:
        """Deliver 1 ms timer ticks to every core in ``socket``.

        Each tick consumes ``tick_cost`` CPU time on the core and, on an
        idle core, keeps it out of deep sleep -- the interference the
        Wave VM policy eliminates (section 7.2.4).

        Ticks are accounted analytically (see
        :meth:`Core.enable_virtual_ticks`): zero scheduler events per
        tick, identical observable behaviour. The event-per-tick loop
        (:meth:`_tick_loop`) runs only when ``tick_period >=
        deep_sleep_entry`` -- slow ticks have real sleep/wake edges
        between ticks, so the analytic model would diverge -- and as
        the reference the virtual-tick tests compare against.
        """
        params = self.params
        legacy = params.tick_period >= params.deep_sleep_entry
        for core in socket.cores:
            if legacy:
                self.env.process(self._tick_loop(core),
                                 name=f"tick-c{core.id}")
            else:
                core.enable_virtual_ticks(params.tick_period,
                                          params.tick_cost)

    def _tick_loop(self, core: Core):
        period = self.params.tick_period
        while True:
            yield self.env.timeout(period)
            core.poke()
            core.tick_time += self.params.tick_cost
