"""Tests for the RPC stack and the Fig 6 experiment plumbing."""

import pytest

from repro.hw import HwParams, Machine
from repro.obs import Telemetry
from repro.obs.causal import request_traces
from repro.rpc import experiment as rpc_experiment
from repro.rpc import (
    GET_SLO_NS,
    RANGE_SLO_NS,
    RpcScenario,
    RpcStack,
    StackPlacement,
    assign_slo,
    run_rpc_point,
)
from repro.sim import Environment
from repro.workloads import Request, RequestKind


def test_assign_slo():
    get = Request(kind=RequestKind.GET, service_ns=1.0)
    rng = Request(kind=RequestKind.RANGE, service_ns=1.0)
    assert assign_slo(get).slo_ns == GET_SLO_NS
    assert assign_slo(rng).slo_ns == RANGE_SLO_NS
    assert GET_SLO_NS < RANGE_SLO_NS


class TestRpcStack:
    def build(self, placement, n=2):
        env = Environment()
        machine = Machine(env, HwParams.pcie())
        submitted = []

        def submit(request):
            submitted.append((env.now, request))
            return
            yield

        stack = RpcStack(env, machine, placement, n, submit)
        return env, stack, submitted

    def test_requires_processors(self):
        env = Environment()
        machine = Machine(env, HwParams.pcie())
        with pytest.raises(ValueError):
            RpcStack(env, machine, StackPlacement.HOST, 0, lambda r: None)

    def test_request_processed_then_submitted(self):
        env, stack, submitted = self.build(StackPlacement.HOST)
        stack.start()
        request = Request(kind=RequestKind.GET, service_ns=1.0)
        stack.deliver(request)
        env.run(until=1_000_000)
        assert len(submitted) == 1
        when, got = submitted[0]
        assert got is request
        assert when >= stack.request_proc_ns

    def test_nic_stack_slower_per_request(self):
        env_h, host_stack, _ = self.build(StackPlacement.HOST)
        env_n, nic_stack, _ = self.build(StackPlacement.NIC)
        assert nic_stack.request_proc_ns > host_stack.request_proc_ns

    def test_response_stamps_completion(self):
        env, stack, _ = self.build(StackPlacement.HOST)
        stack.start()
        request = Request(kind=RequestKind.GET, service_ns=1.0)
        stack.respond(request)
        env.run(until=1_000_000)
        assert request.completed_ns is not None
        assert stack.responses_processed == 1

    def test_pool_parallelism(self):
        env, stack, submitted = self.build(StackPlacement.HOST, n=4)
        stack.start()
        for _ in range(4):
            stack.deliver(Request(kind=RequestKind.GET, service_ns=1.0))
        env.run(until=stack.request_proc_ns + 1)
        assert len(submitted) == 4  # processed concurrently

    def test_utilization(self):
        env, stack, _ = self.build(StackPlacement.HOST, n=1)
        stack.start()
        stack.deliver(Request(kind=RequestKind.GET, service_ns=1.0))
        env.run(until=1_000_000)
        assert 0 < stack.utilization(1_000_000) < 1


class TestRpcExperiment:
    def test_onhost_all_completes_requests(self):
        result = run_rpc_point(RpcScenario.ONHOST_ALL, False, 100_000,
                               duration_ns=20_000_000, warmup_ns=5_000_000)
        assert result.completed > 1000
        assert result.achieved_rate == pytest.approx(100_000, rel=0.15)
        assert result.host_cores_used == 24  # 8 stack + 1 agent + 15

    def test_offload_all_frees_host_cores(self):
        result = run_rpc_point(RpcScenario.OFFLOAD_ALL, False, 100_000,
                               duration_ns=20_000_000, warmup_ns=5_000_000)
        assert result.host_cores_used == 16
        assert result.completed > 1000

    def test_onhost_scheduler_has_highest_latency(self):
        results = {}
        for scenario in RpcScenario:
            results[scenario] = run_rpc_point(
                scenario, False, 120_000,
                duration_ns=20_000_000, warmup_ns=5_000_000)
        assert results[RpcScenario.ONHOST_SCHED].get_p99_ns \
            > results[RpcScenario.ONHOST_ALL].get_p99_ns

    def test_multiqueue_improves_get_tail(self):
        single = run_rpc_point(RpcScenario.OFFLOAD_ALL, False, 200_000,
                               duration_ns=30_000_000, warmup_ns=8_000_000)
        multi = run_rpc_point(RpcScenario.OFFLOAD_ALL, True, 200_000,
                              duration_ns=30_000_000, warmup_ns=8_000_000)
        assert multi.get_p99_ns < single.get_p99_ns

    @pytest.mark.parametrize("scenario", [RpcScenario.OFFLOAD_ALL,
                                          RpcScenario.ONHOST_SCHED])
    def test_nic_created_tasks_queue_from_creation(self, monkeypatch,
                                                   scenario):
        """Tasks the NIC stack creates carry their creation time, so a
        ``sched.queue`` span starts after its request arrived, not at 0."""
        tasks = {}

        class RecordingTask(rpc_experiment.GhostTask):
            def __post_init__(self):
                super().__post_init__()
                tasks[self.tid] = self

        monkeypatch.setattr(rpc_experiment, "GhostTask", RecordingTask)
        with Telemetry() as hub:
            run_rpc_point(scenario, True, 100_000, duration_ns=2_000_000,
                          warmup_ns=0)
        queued = hub.runs[0].spans.spans("sched.queue")
        assert len(queued) > 100
        for span in queued:
            request = tasks[span.args["tid"]].payload
            assert span.begin_ns > 0
            assert span.begin_ns >= request.arrival_ns

    @pytest.mark.parametrize("scenario", list(RpcScenario))
    def test_scheduling_chain_continues_the_rpc_request(self, scenario):
        """Wherever the stack creates the task, its scheduling chain
        stays in the request its ``rpc.request`` root minted: one causal
        request per RPC, not a second one minted at ``agent.commit``."""
        with Telemetry() as hub:
            run_rpc_point(scenario, True, 100_000, duration_ns=2_000_000,
                          warmup_ns=0)
        spans = hub.runs[0].spans
        rpc_reqs = {span.req for span in spans.spans("rpc.request")}
        queued = spans.spans("sched.queue")
        assert len(queued) > 100
        assert all(span.req in rpc_reqs for span in queued)
        traces, truncated = request_traces(hub)
        assert truncated == 0
        assert {trace.req for trace in traces} == rpc_reqs
        assert all(trace.path_spans()[0].stage == "rpc.request"
                   for trace in traces)

    def test_worker_core_override(self):
        result = run_rpc_point(RpcScenario.OFFLOAD_ALL, False, 50_000,
                               worker_cores=15,
                               duration_ns=10_000_000, warmup_ns=2_000_000)
        assert result.host_cores_used == 15
