"""Golden-trace determinism regression for the simulation core.

The chaos layer's whole value proposition -- "any failure a sweep finds
replays exactly" -- rests on the simulator being a pure function of its
seed. These tests pin that property three ways on the Fig 4a FIFO
deployment (reduced scale so they stay test-fast):

1. two same-seed runs produce identical event sequences and stats;
2. different seeds actually produce different traces (the hash is not
   vacuously constant);
3. the reduced-scale trace matches a checked-in golden digest, so an
   accidental change to event ordering, RNG consultation order, or the
   timing model fails loudly instead of silently shifting every number.

The event hash covers each request's kind, arrival, and completion time
in arrival order -- not task ids, which are labelling only. (Ids once
depended on what ran earlier in the process; they now reset at every
``Environment`` construction -- see
``repro.sim.core.register_run_id_reset`` -- so pooled sweep workers
emit the same span args as a serial run. The hash predates that and
keeps its narrower footing.)

Since the partitioned parallel-DES engine (``repro.sim.partition``)
became the Machine default, the golden digest doubles as the
*byte-identity bar* for partitioning: the differential tests at the
bottom run the same figure points with the engine forced off
(``REPRO_NO_PARTITION``) and demand identical traces, aggregates, and
telemetry digests -- while asserting the on-runs really partitioned.
The window-batched default does *not* meet that bar everywhere: the
strict xfail at the end records a Fig 4a Wave-16 point where it
diverges from the serial kernel.
"""

import hashlib

import pytest

from repro.core import Placement, WaveOpts
from repro.hw.cpu import HostCpu
from repro.obs import Telemetry, metrics_digest
from repro.sched import FifoPolicy
from repro.sched import experiment
from repro.sched.experiment import run_sched_point
from repro.sched.vm_experiment import run_vm_point
from repro.sim import Environment
from repro.workloads import RocksDbModel

#: sha256 of the reduced-scale seed-1 event sequence. If a change to
#: the timing model or event ordering is *intentional*, rerun
#: ``_event_hash(_run()[1])`` and update this value in the same commit.
GOLDEN_DIGEST = \
    "9a3735f86405819cf1dde447e06e94a09863923228e2feadcfe19c70da1b0074"


def _run(seed=1, counters=None):
    """One reduced-scale Fig 4a FIFO point (NIC placement, 2 cores)."""
    sink = []
    result = run_sched_point(Placement.NIC, WaveOpts.full(), 2, FifoPolicy,
                             lambda rng: RocksDbModel.fifo_mix(rng),
                             rate_per_sec=120_000.0,
                             duration_ns=8_000_000.0, warmup_ns=1_000_000.0,
                             seed=seed, request_sink=sink, counters=counters)
    return result, sink


def _event_hash(requests):
    lines = []
    for i, request in enumerate(requests):
        done = (f"{request.completed_ns:.3f}"
                if request.completed_ns is not None else "-")
        lines.append(f"{i} {request.kind.name} "
                     f"arr={request.arrival_ns:.3f} done={done}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_same_seed_same_event_sequence():
    first_result, first_trace = _run(seed=1)
    second_result, second_trace = _run(seed=1)
    assert _event_hash(first_trace) == _event_hash(second_trace)
    # Dataclass equality: every aggregate (rates, percentiles, counts)
    # must match too, not just the trace.
    assert first_result == second_result


def test_different_seed_different_trace():
    _, first_trace = _run(seed=1)
    _, second_trace = _run(seed=2)
    assert _event_hash(first_trace) != _event_hash(second_trace)


def test_reduced_scale_trace_matches_golden_digest(monkeypatch):
    # The partition assertion below must hold even when the CI
    # engine matrix sets the ambient escape hatch.
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    counters = {}
    _, trace = _run(seed=1, counters=counters)
    assert len(trace) > 500  # the window actually carries load
    # The default engine really is the partitioned one -- this digest
    # check must not pass by silently falling back to the serial path.
    assert counters["partition_domains"] == 3
    assert counters["partition_switches"] > 0
    assert _event_hash(trace) == GOLDEN_DIGEST, (
        "the reduced-scale Fig 4a FIFO event trace drifted from the "
        "checked-in golden digest: some change altered simulated event "
        "ordering, RNG consultation order, or timing. If intentional, "
        "update GOLDEN_DIGEST in this file in the same commit.")


def test_heap_only_kernel_matches_golden_digest(monkeypatch):
    """The heap-only serial kernel -- the conformance suite's reference
    -- produces the golden trace on the model: the timer wheel is a
    pure mechanism."""
    # A wheel-less env never installs the partitioned engine; the hatch
    # says "serial" explicitly all the same.
    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    built = []

    def heap_only(*args, **kwargs):
        env = Environment(*args, use_wheel=False, **kwargs)
        built.append(env)
        return env

    monkeypatch.setattr(experiment, "Environment", heap_only)
    counters = {}
    _, trace = _run(seed=1, counters=counters)
    assert len(built) == 1
    assert built[0]._wheel is None  # really ran without a wheel
    assert counters["partition_domains"] == 0
    assert _event_hash(trace) == GOLDEN_DIGEST


@pytest.mark.parametrize("vcpus", [2, 31])
def test_fig5_point_tick_loop_matches_virtual_ticks(monkeypatch, vcpus):
    """Virtual ticks are a pure mechanism too: the Fig 5 point with the
    event-per-tick loop forced on every core gives the same result."""
    virtual_counters = {}
    virtual = run_vm_point(vcpus, ticks=True, measure_ns=20_000_000,
                           counters=virtual_counters)

    def tick_loop(self, socket):
        for core in socket.cores:
            self.env.process(self._tick_loop(core), name=f"tick-c{core.id}")

    monkeypatch.setattr(HostCpu, "start_ticks", tick_loop)
    loop_counters = {}
    loop = run_vm_point(vcpus, ticks=True, measure_ns=20_000_000,
                        counters=loop_counters)
    # The loop really ran: one event per tick per core.
    assert virtual_counters["events_logical"] == 4_736
    assert loop_counters["events_logical"] == {2: 12_800, 31: 10_944}[vcpus]
    assert loop == virtual


# -- partitioned engine byte-identity ----------------------------------------

def test_partition_off_matches_golden_digest(monkeypatch):
    """The serial fallback produces the *same* golden trace: the digest
    pins one behaviour for both engines, not one digest per engine."""
    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    counters = {}
    _, trace = _run(seed=1, counters=counters)
    assert counters["partition_domains"] == 0  # really ran serial
    assert _event_hash(trace) == GOLDEN_DIGEST


def test_fig4a_point_identical_partition_on_vs_off(monkeypatch):
    """Full Fig 4a point equality: every aggregate in the result
    dataclass, the raw event trace, and the kernel's invariant counters
    must match between the exact-order partitioned merge and the serial
    engine. Both sides run under a telemetry hub -- the way production
    reaches the merge (an uninstrumented partitioned run batches, and
    once batching is off hands the run to the serial kernel). The
    window-batched default is held to the weaker result bar in the
    companion test below."""
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    on_counters = {}
    with Telemetry():
        on_result, on_trace = _run(seed=3, counters=on_counters)
    assert on_counters["partition_domains"] == 3
    assert on_counters["partition_switches"] > 0
    assert on_counters["partition_cross_sends"] > 0  # MSI-X really routed

    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    off_counters = {}
    with Telemetry():
        off_result, off_trace = _run(seed=3, counters=off_counters)
    assert off_counters["partition_domains"] == 0

    assert on_result == off_result
    assert _event_hash(on_trace) == _event_hash(off_trace)
    # Engine-contract invariants (admission counters are exempt).
    assert on_counters["events_logical"] == off_counters["events_logical"]
    assert (on_counters["events_dispatched"]
            == off_counters["events_dispatched"])


def test_fig4a_point_batched_matches_serial(monkeypatch):
    """The window-batched default produces the same reduced Fig 4a
    point: aggregates and the request trace match the serial engine
    even though in-flight scheduling may tie-reorder. (Not a general
    property -- see the strict xfail at the end of this file.)"""
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    on_counters = {}
    on_result, on_trace = _run(seed=3, counters=on_counters)
    assert on_counters["partition_domains"] == 3

    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    off_result, off_trace = _run(seed=3)

    assert on_result == off_result
    assert _event_hash(on_trace) == _event_hash(off_trace)


def test_fig5_point_identical_partition_on_vs_off(monkeypatch):
    """The Fig 5 vCPU-scheduling point -- a different model stack (VM
    host, busy loops, tick machinery) -- is byte-identical too, exact
    merge (under telemetry) against serial."""
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    on_counters = {}
    with Telemetry():
        on = run_vm_point(2, ticks=True, measure_ns=20_000_000,
                          counters=on_counters)
    assert on_counters["partition_domains"] == 3

    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    off_counters = {}
    with Telemetry():
        off = run_vm_point(2, ticks=True, measure_ns=20_000_000,
                           counters=off_counters)
    assert off_counters["partition_domains"] == 0

    assert on == off
    assert on_counters["events_logical"] == off_counters["events_logical"]
    assert (on_counters["events_dispatched"]
            == off_counters["events_dispatched"])


def test_fig5_point_batched_matches_serial(monkeypatch):
    """Window-batched default on the Fig 5 stack: result-identical."""
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    on_counters = {}
    on = run_vm_point(2, ticks=True, measure_ns=20_000_000,
                      counters=on_counters)
    assert on_counters["partition_domains"] == 3

    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    off = run_vm_point(2, ticks=True, measure_ns=20_000_000)
    assert on == off


def test_telemetry_digest_identical_partition_on_vs_off(monkeypatch):
    """The observability layer sees the same history: stage spans,
    counters, and histograms digest identically under both engines."""
    digests = {}
    for engine in ("partitioned", "serial"):
        if engine == "serial":
            monkeypatch.setenv("REPRO_NO_PARTITION", "1")
        else:
            monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
        hub = Telemetry()
        with hub:
            _run(seed=1)
        digests[engine] = metrics_digest(hub)
    assert digests["partitioned"] == digests["serial"]


def _wave16_point(seed, counters=None):
    """A short Fig 4a Wave-16 FIFO point (16 NIC-scheduled cores)."""
    return run_sched_point(Placement.NIC, WaveOpts.full(), 16, FifoPolicy,
                           RocksDbModel.fifo_mix, rate_per_sec=600_000.0,
                           duration_ns=2_400_000.0, warmup_ns=480_000.0,
                           seed=seed, counters=counters)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "window batching reorders same-time cross-domain events before it "
    "degrades: dispatches 1,411 vs 1,412, GET p50 31,358 vs 31,323 ns"))
def test_wave16_point_batched_matches_serial(monkeypatch):
    """Records where the window-batched engine is *not* result-identical
    to the serial kernel. At 2.4 ms it differs on 7 of seeds 0-59 (and
    the benchmark's pinned fifo_nic inputs 11, 17 and 22 are its own
    outputs). Strict: if the engines ever agree here, this fails and
    the record must be revisited. Deleting the engine waits for a
    benchmark change that re-pins those inputs from the serial
    kernel."""
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    counters = {}
    batched = _wave16_point(11, counters)
    if counters["partition_domains"] != 3:
        # Not an AssertionError, so it fails instead of counting as
        # the expected divergence.
        pytest.fail("the batched side did not run partitioned")
    monkeypatch.setenv("REPRO_NO_PARTITION", "1")
    assert batched == _wave16_point(11)
