"""Discrete-event simulation kernel.

A small, deterministic, simpy-style engine written from scratch:

- :class:`Environment` drives a nanosecond-resolution virtual clock.
- :class:`Process` wraps a generator; ``yield`` an event to wait on it.
- :class:`Relay` waits for one event (or a delay), then runs one step:
  a per-message helper (ring waker, MSI-X deliverer) with the event
  stream of a one-``yield`` process but no generator.
- :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` are the
  waitable primitives.
- :class:`Interrupt` supports asynchronous cancellation (preemption).
- :class:`Store` is a FIFO channel for inter-process communication.
- :class:`FaultInjector` / :class:`FaultPlan` provoke deterministic
  failures at instrumented protocol edges (chaos testing).
- :class:`PartitionPlan` / ``Environment.enable_partition`` swap in the
  partitioned conservative-PDES engine (per-domain queues synchronized
  by hardware-derived lookahead windows -- see ``repro.sim.partition``).

Determinism: events scheduled for the same timestamp are processed in
(priority, insertion-order), so a seeded simulation replays identically
-- under every engine (serial heap, timer wheel, partitioned), which
the cross-engine conformance suite in ``tests/conformance/`` pins.
"""

from repro.sim.events import (
    Event,
    Timeout,
    RearmableTimer,
    PollTimer,
    Condition,
    AnyOf,
    AllOf,
    EventAlreadyTriggered,
)
from repro.sim.process import Process, Interrupt, Relay
from repro.sim.core import Environment, StopSimulation
from repro.sim.partition import (LookaheadViolation, PartitionEngine,
                                 PartitionPlan)
from repro.sim.resources import Store, Resource
from repro.sim.monitor import LatencyStats, TimeWeightedValue, Counter
from repro.sim.faults import FaultInjector, FaultPlan, FaultRecord

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "RearmableTimer",
    "PollTimer",
    "Condition",
    "AnyOf",
    "AllOf",
    "Process",
    "Relay",
    "Interrupt",
    "Store",
    "Resource",
    "StopSimulation",
    "LatencyStats",
    "TimeWeightedValue",
    "Counter",
    "EventAlreadyTriggered",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "PartitionPlan",
    "PartitionEngine",
    "LookaheadViolation",
]
