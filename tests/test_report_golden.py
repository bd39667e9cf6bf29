"""Whole report texts, pinned by sha256, and the analyzer's percentile
argument.

The digests were recorded from the object-per-request causal pass (a
``RequestTrace`` memoized for every request, one ``LatencyStats`` per
stage) that the columnar pass replaced: every float the reports render
must come out of the same additions in the same order, and every
representative request out of the same ``(latency, run label, request
id)`` ranking.
"""

import hashlib
import math
import pickle

import pytest

from repro.__main__ import main
from repro.core import Placement, WaveOpts
from repro.obs import Telemetry, analyze_report, run_report
from repro.rpc.experiment import RpcScenario, run_rpc_point
from repro.sched import FifoPolicy
from repro.sched.experiment import run_sched_point
from repro.workloads import RocksDbModel


def _fifo_point():
    # Wave-16 FIFO at 600k req/s (the Fig 4a point), 2 ms simulated.
    run_sched_point(Placement.NIC, WaveOpts.full(), 16, FifoPolicy,
                    RocksDbModel.fifo_mix, 600_000, duration_ns=2_000_000,
                    warmup_ns=400_000, seed=8)


def _rpc_point():
    # Fig 6b Offload-All, multi-queue Shinjuku at 230k req/s, 2 ms.
    run_rpc_point(RpcScenario.OFFLOAD_ALL, True, 230_000, worker_cores=16,
                  duration_ns=2_000_000, warmup_ns=500_000, seed=8)


@pytest.fixture(scope="module")
def two_point_hub():
    """Two runs in one hub: blame sums cross runs, and a latency tie
    across them ranks by run label."""
    with pytest.MonkeyPatch.context() as patch:
        # The reports carry the partition observatory's section.
        patch.delenv("REPRO_NO_PARTITION", raising=False)
        hub = Telemetry()
        with hub:
            _fifo_point()
            _rpc_point()
    return hub


@pytest.fixture(scope="module")
def evicting_hub():
    """The FIFO point through a 5,000-span ring: evicted spans, severed
    edges and partial paths."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_NO_PARTITION", raising=False)
        hub = Telemetry(span_capacity=5_000)
        with hub:
            _fifo_point()
    assert sum(run.spans.evicted for run in hub.runs) == 8_196
    return hub


def _digests(hub):
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
        run_report(hub), analyze_report(hub),
        analyze_report(hub, percentile=50.0)))


#: sha256 of ``run_report``, ``analyze_report`` at p99 and at p50.
_TWO_POINTS = (
    "0195d22cc5ea098fa9b5e8d36048d26ef20b4e940f6bcc957f28d144d6383c7d",
    "0c5fe763f48f9c90a2e15d4b835a4fc50eb65a479561606df9e8fcf83d0b5caf",
    "c28dbb2886d97ffcf363a1b0c7bd23557595e09cced20cccb8ed676e674fd269")
_EVICTING = (
    "972c176921d809596db5f8759455d5db94e1c6008e5acc51c16927e723e744d6",
    "65dcf872f9fb43dcd49b27ed998ed75784c371a96f1716289c9a3cf6c9c64bf1",
    "4f7fb901107b776901664f15ff72b6f94162fb6d010d8c0a26fd5df06ecb0a49")


def _absorbed(hub):
    absorbed = Telemetry()
    absorbed.absorb(pickle.loads(pickle.dumps(hub.shard())))
    return absorbed


def test_report_golden_two_points(two_point_hub):
    assert two_point_hub.total_spans() == 19_374
    assert _digests(two_point_hub) == _TWO_POINTS
    assert _digests(_absorbed(two_point_hub)) == _TWO_POINTS


def test_report_golden_evicting_ring(evicting_hub):
    text = analyze_report(evicting_hub)
    assert "- causal.truncated: 21 severed edge refs; 10 partial paths" \
        in text
    assert _digests(evicting_hub) == _EVICTING
    assert _digests(_absorbed(evicting_hub)) == _EVICTING


# -- the percentile argument ------------------------------------------------

def test_fractional_percentile_titles_its_request(two_point_hub):
    text = analyze_report(two_point_hub, percentile=99.9)
    assert "## Critical path of the p99.9 request (" in text
    assert "p100" not in text


@pytest.mark.parametrize("q", [150.0, -5.0, math.nan, math.inf,
                               -math.inf, 100.5])
def test_out_of_range_percentile_raises(q):
    with pytest.raises(ValueError, match="percentile"):
        analyze_report(Telemetry(), percentile=q)


@pytest.mark.parametrize("q", [0.0, 100.0])
def test_percentile_bounds_are_accepted(q, two_point_hub):
    assert "## Critical path of the p" in analyze_report(
        two_point_hub, percentile=q)


@pytest.mark.parametrize("value", ["150", "-5", "nan", "inf", "p99"])
def test_cli_rejects_a_bad_percentile_before_running(value, capsys):
    # argparse exits before the experiment module is even imported.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "table3", "--fast", "--percentile", value])
    assert exc.value.code == 2
    assert "--percentile" in capsys.readouterr().err
