"""The engine-configuration registry the conformance suite runs over.

Each :class:`EngineConfig` builds a fresh :class:`Environment` wired to
one kernel engine variant. ``domains`` is the name tuple conformance
programs may tag events with (``env.domain`` is a no-op on serial
engines, so serial configs accept any tag).
"""

import os
from contextlib import contextmanager

from repro.hw.params import HwParams
from repro.hw.pcie import Interconnect
from repro.obs import Telemetry
from repro.sim import Environment, PartitionPlan

#: Domain names every conformance program may use. Partitioned configs
#: with fewer domains map extra names onto their own (see `resolve`).
DOMAINS = ("host", "ic", "nic")

#: Smallest cross-domain delay a conformance program may use for
#: `cross_timeout`: must clear every config's largest lookahead window
#: (the hw-derived pcie plan peaks at 910 ns for nic->host).
MIN_CROSS_DELAY = 1000.0


@contextmanager
def _env_var(name, value="1"):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


class EngineConfig:
    """One buildable kernel-engine variant."""

    def __init__(self, name, build, domains=DOMAINS, partitioned=False):
        self.name = name
        self._build = build
        self.domains = tuple(domains)
        self.partitioned = partitioned

    def build(self) -> Environment:
        env = self._build()
        assert (env.partition is not None) == self.partitioned, self.name
        return env

    def resolve(self, name: str) -> str:
        """Map a canonical domain tag onto one this config declares."""
        if name in self.domains:
            return name
        return self.domains[DOMAINS.index(name) % len(self.domains)]

    def __repr__(self):
        return f"<EngineConfig {self.name}>"


def _plain(use_wheel):
    return lambda: Environment(use_wheel=use_wheel)


def _no_partition_env():
    # The escape hatch itself: enable_partition must refuse under
    # REPRO_NO_PARTITION and leave the serial kernel in place.
    with _env_var("REPRO_NO_PARTITION"):
        env = Environment()
        installed = env.enable_partition(
            PartitionPlan.uniform(DOMAINS, 400.0))
    assert installed is None
    return env


def merge_env(plan):
    """A partitioned env that runs the exact-order merge.

    The generated conformance programs share mutable state across
    domains and assert raw dispatch-order identity against the serial
    kernel -- the exact-order merge's contract. Window batching
    deliberately relaxes same-time cross-domain order, and a run with
    batching switched off is handed to the serial kernel, so the merge
    is reached the way production reaches it: telemetry is attached
    before the engine is installed. BATCHED_CONFIGS covers the batched
    engine with order-insensitive (canonicalized) comparisons.
    """
    env = Environment()
    Telemetry().attach(env)
    # use_partition=True: must install even when the ambient
    # REPRO_NO_PARTITION hatch is set (the CI engine matrix runs this
    # suite with and without it).
    part = env.enable_partition(plan, use_partition=True)
    assert part is not None and part.observatory is not None
    assert not part.batching
    return env


def _partitioned(names, window):
    return lambda: merge_env(PartitionPlan.uniform(names, window))


def _partitioned_hw():
    # The plan the Machine layer derives from Table 2 (asymmetric
    # per-pair windows, three domains).
    return merge_env(Interconnect(HwParams.pcie()).partition_plan())


def merge_windows(env) -> int:
    """Exact-merge windows the env's observatory recorded (0 if none)."""
    part = env.partition
    if part is None or part.observatory is None:
        return 0
    return sum(part.observatory.windows.values())


def _batched(names, window):
    def build():
        env = Environment()
        part = env.enable_partition(
            PartitionPlan.uniform(names, window), use_partition=True)
        assert part is not None and part.batching
        return env
    return build


def _batched_hw():
    env = Environment()
    plan = Interconnect(HwParams.pcie()).partition_plan()
    part = env.enable_partition(plan, use_partition=True)
    assert part is not None and part.batching
    return env


#: Every engine configuration the kernel ships. The first entry is the
#: reference implementation the rest are diffed against: the heap-only
#: serial kernel (``use_wheel=False``), which exists for this purpose.
ENGINE_CONFIGS = [
    EngineConfig("heap", _plain(use_wheel=False)),
    EngineConfig("wheel", _plain(use_wheel=True)),
    EngineConfig("no-partition-env", _no_partition_env),
    EngineConfig("partition-2", _partitioned(("host", "nic"), 400.0),
                 domains=("host", "nic"), partitioned=True),
    EngineConfig("partition-3", _partitioned(DOMAINS, 400.0),
                 partitioned=True),
    EngineConfig("partition-hw", _partitioned_hw, partitioned=True),
]

REFERENCE = ENGINE_CONFIGS[0]

#: Window-batched engine variants. These relax same-time cross-domain
#: dispatch order (the batched contract), so they are *not* diffed on
#: raw logs -- ``test_rng_streams.py`` compares canonicalized
#: (time-sorted) logs, per-stream RNG draw sequences, and dispatch
#: counts instead.
BATCHED_CONFIGS = [
    EngineConfig("partition-batched", _batched(DOMAINS, 400.0),
                 partitioned=True),
    EngineConfig("partition-batched-hw", _batched_hw, partitioned=True),
]
