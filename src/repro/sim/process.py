"""Processes: generator coroutines driven by the event loop, and relays,
the one-step helpers that need no generator."""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Union

from repro.sim.events import Event, NORMAL, PENDING, Timeout, URGENT


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    Used for preemption (e.g. the Shinjuku time-slice) and watchdog kills.
    """

    @property
    def cause(self) -> Any:
        """Whatever the interrupter passed as the reason."""
        return self.args[0]


class _Initialize(Event):
    """Kicks off a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env, process):  # noqa: F821
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env._schedule(self, URGENT)


class _Interruption(Event):
    """Carries an :class:`Interrupt` into a process, out of band."""

    __slots__ = ("_process",)

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        if process.triggered:
            raise RuntimeError(f"{process!r} has terminated; cannot interrupt")
        if process is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        self._process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [self._deliver]
        self.env._schedule(self, URGENT)

    def _deliver(self, event: Event) -> None:
        process = self._process
        if process.triggered:
            return  # Terminated between interrupt() and delivery.
        # Detach the process from whatever it was waiting on, then resume
        # it with the failure so the generator sees Interrupt raised.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
            # A preempted sleep (e.g. the Shinjuku slice cutting a
            # service timeout short) leaves a dead timer behind; cancel
            # it so the scheduler skips its queue entry at pop time.
            # isinstance so RearmableTimer sleeps are reaped too.
            if not target.callbacks and isinstance(target, Timeout):
                target.cancel()
        process._resume(self)


class Process(Event):
    """A running generator. The process is itself an event that triggers
    with the generator's return value when it finishes (or fails with the
    exception that escaped it).
    """

    __slots__ = ("_generator", "_target", "name", "domain")

    def __init__(self, env, generator: Generator, name: str = ""):  # noqa: F821
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Home domain under the partitioned engine (the domain current
        #: at creation -- see ``env.domain(...)``); None on the serial
        #: kernel. Every resume runs with the ambient scheduling target
        #: pinned here, so a process's timers stay in its own domain
        #: even when a cross-domain event wakes it.
        part = env._partition
        self.domain = part.current if part is not None else None
        self._target: Optional[Event] = _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        # One frame per resume: this runs for most dispatched events.
        env = self.env
        part = env._partition
        if part is not None:
            # Partitioned engine: pin ambient scheduling to the
            # process's home domain for the duration of the resume,
            # whatever domain's event woke it; the finally restores the
            # dispatcher's routing target.
            prev = part.current
            part.current = self.domain
        env._active_process = self
        generator = self._generator
        try:
            while True:
                try:
                    if event._ok:
                        next_event = generator.send(event._value)
                    else:
                        event._defused = True
                        next_event = generator.throw(event._value)
                except StopIteration as exc:
                    self._target = None
                    env._active_process = None
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    self._target = None
                    env._active_process = None
                    self.fail(exc)
                    return

                if not isinstance(next_event, Event):
                    self._target = None
                    env._active_process = None
                    self.fail(RuntimeError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_event!r}"))
                    return

                if next_event.callbacks is not None:
                    # Still pending or triggered-but-unprocessed: wait.
                    next_event.callbacks.append(self._resume)
                    self._target = next_event
                    env._active_process = None
                    return

                if next_event._cancelled:
                    self._target = None
                    env._active_process = None
                    self.fail(RuntimeError(
                        f"process {self.name!r} waited on a cancelled "
                        f"event: {next_event!r}"))
                    return

                # Already processed: continue immediately with its value.
                event = next_event
        finally:
            if part is not None:
                part.current = prev

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Relay(Event):
    """A helper that waits for one event, then runs one step: the
    generator-free form of a process whose body is ``yield wait``
    followed by ``step(arg)``.

    ``wait`` is an :class:`Event`, or a delay in ns, for which the relay
    makes its own timeout. The relay dispatches exactly the events such
    a process would, under the same ``(time, priority, seq)`` keys:

    - creating it schedules its URGENT start, as
      :class:`Process` schedules its initialization;
    - the start makes the timeout for a delay, or subscribes to the
      event, so every seq is allocated at the same moment (an event
      already processed by then runs the step at once, as a process
      continues past it);
    - the step runs with the partitioned engine's scheduling target
      pinned to the relay's home domain, as :meth:`Process._resume`
      pins it, whatever domain's event fired;
    - after the step it schedules a NORMAL completion, as a finishing
      process does; a wait that never fires (a lost MSI-X) leaves the
      relay pending forever, with no completion.

    It costs no generator, resume frame or ``StopIteration``: the queue
    entries of its start and its completion are the relay itself. So
    nothing can wait on a relay (its callbacks are a tuple until its
    completion is dispatched), and only per-message helpers that nothing
    waits on -- the ring and DMA-queue wakers, the MSI-X deliverers --
    are relays; long-lived actors stay processes. An exception raised
    by ``step`` propagates out of the run, as from any callback; a
    failed wait event skips the step and fails the completion, which
    then surfaces as any undefused failure does.
    """

    __slots__ = ("_wait", "_step", "_arg", "domain")

    def __init__(self, env, wait: Union[Event, float],  # noqa: F821
                 step: Callable[[Any], Any], arg: Any = None):
        # Event.__init__'s fields, set here without the super() call:
        # one relay is made per ring wake-up and per MSI-X.
        self.env = env
        self.callbacks = (self._start,)
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._cross = False
        self._wait = wait
        self._step = step
        self._arg = arg
        #: Home domain, as :attr:`Process.domain`.
        part = env._partition
        self.domain = part.current if part is not None else None
        env._schedule(self, URGENT)

    def _start(self, _: Event) -> None:
        # No pin here: the start entry was filed in the home domain,
        # and every dispatch loop routes to the domain it dispatches.
        # Still pending until the completion is dispatched: nothing can
        # subscribe in between either.
        self.callbacks = ()
        wait = self._wait
        if not isinstance(wait, Event):
            wait = self.env.timeout(wait)
        callbacks = wait.callbacks
        if callbacks is not None:
            callbacks.append(self._fire)
        elif wait._cancelled:
            raise RuntimeError(f"relay waited on a cancelled event: {wait!r}")
        else:
            self._fire(wait)

    def _fire(self, event: Event) -> None:
        env = self.env
        part = env._partition
        if part is not None:
            prev = part.current
            part.current = self.domain
        try:
            if event._ok:
                self._step(self._arg)
            else:
                event._defused = True
                self._ok = False
                self._value = event._value
            env._schedule(self, NORMAL)
        finally:
            if part is not None:
                part.current = prev

    def __repr__(self) -> str:
        return f"<Relay {self._step!r} after {self._wait!r}>"
