"""The four fixed model workloads the benchmark runs.

Each workload calls one public entry point of the ``repro`` package and
returns its result object. Importing this module imports nothing from
``repro``: the child process imports each workload's ``modules`` itself
and times that as set-up, so the imports inside the ``run`` functions
below are cache hits.

The simulated lengths (24 ms, 24 ms, 1.8 epochs, 12 ms) keep one
repetition at 2-3 s of host time, so that 7-10 repetitions fit one 25 s
measurement.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Tuple

#: ``--smoke`` multiplies every simulated duration by this, which keeps
#: each repetition under about a second of host time.
SMOKE_SCALE = 0.1
#: Parameters that are simulated lengths, and so scale with ``--smoke``.
SCALED = ("duration_ms", "warmup_ms", "epochs")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Modules imported (and timed as ``setup_s``) before the call.
    modules: Tuple[str, ...]
    #: Full-size parameters; ``SCALED`` keys shrink under ``--smoke``.
    params: Dict[str, Any]
    #: ``run(params, seed)`` -> the output the digest is taken over.
    run: Callable[[Dict[str, Any], int], Any]
    #: JSON-able view of the output that the digest hashes.
    payload: Callable[[Any], Any]
    #: ``check(output, params)`` -> list of violated sanity conditions.
    check: Callable[[Any, Dict[str, Any]], List[str]]
    #: Simulated-model statistics read off the output.
    stats: Callable[[Any], Dict[str, float]]

    def scaled_params(self, smoke: bool) -> Dict[str, Any]:
        if not smoke:
            return dict(self.params)
        return {key: value * SMOKE_SCALE if key in SCALED else value
                for key, value in self.params.items()}


def digest(payload: Any) -> str:
    """sha256 over a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _load_checks(result, params) -> List[str]:
    """Both load points sit below saturation: every check holds on any
    seed unless the model itself broke."""
    problems = []
    if result.completed <= 0:
        problems.append("no request completed")
    offered = params["rate_per_s"]
    if abs(result.achieved_rate - offered) > 0.1 * offered:
        problems.append(f"achieved {result.achieved_rate:.0f} req/s is "
                        f"more than 10% off the offered {offered} req/s")
    if not 0 < result.get_p50_ns <= result.get_p99_ns:
        problems.append("GET latency percentiles out of order")
    return problems


# -- fifo_nic: Fig 4a Wave-16 -------------------------------------------------

def _run_fifo(params, seed):
    from repro.core import Placement, WaveOpts
    from repro.sched import FifoPolicy
    from repro.sched.experiment import run_sched_point
    from repro.workloads import RocksDbModel
    return run_sched_point(
        Placement.NIC, WaveOpts.full(), params["worker_cores"], FifoPolicy,
        RocksDbModel.fifo_mix, params["rate_per_s"],
        duration_ns=params["duration_ms"] * 1e6,
        warmup_ns=params["warmup_ms"] * 1e6, seed=seed)


def _fifo_checks(result, params) -> List[str]:
    problems = _load_checks(result, params)
    if result.failed_txns:
        problems.append(f"{result.failed_txns} failed transactions")
    return problems


def _sched_stats(result) -> Dict[str, float]:
    return {"sched.end_backlog": result.end_backlog}


# -- rpc_mq: Fig 6b Offload-All, multi-queue Shinjuku -------------------------

def _run_rpc(params, seed):
    from repro.rpc.experiment import RpcScenario, run_rpc_point
    return run_rpc_point(
        RpcScenario.OFFLOAD_ALL, True, params["rate_per_s"],
        worker_cores=params["worker_cores"],
        duration_ns=params["duration_ms"] * 1e6,
        warmup_ns=params["warmup_ms"] * 1e6, seed=seed)


def _rpc_stats(result) -> Dict[str, float]:
    return {"sched.end_backlog": result.end_backlog,
            "rpc.stack_utilization": result.stack_utilization}


# -- sol_nic: section 7.4 SOL agent on 16 SmartNIC cores ----------------------

def _run_sol(params, seed):
    from repro.mem.agent import MemAgentPlacement
    from repro.mem.experiment import run_sol_agent
    return run_sol_agent(MemAgentPlacement.NIC, params["agent_cores"],
                         epochs=params["epochs"], seed=seed)


def _sol_payload(agent):
    return [dataclasses.asdict(record) for record in agent.records]


def _sol_checks(agent, params) -> List[str]:
    if not agent.records:
        return ["no SOL iteration completed"]
    if any(record.duration_ns <= 0 for record in agent.records):
        return ["a SOL iteration has a non-positive duration"]
    return []


def _sol_stats(agent) -> Dict[str, float]:
    durations = [record.duration_ns for record in agent.records]
    return {"mem.iterations": len(durations),
            "mem.iteration_ms": sum(durations) / len(durations) / 1e6
            if durations else 0.0}


# -- fifo_obs: fifo_nic under the full telemetry stack ------------------------

@dataclasses.dataclass
class ObservedRun:
    result: Any
    telemetry: Any
    metrics_digest: str
    reports: Tuple[str, str, str]


def _run_fifo_obs(params, seed):
    from repro.obs import (Telemetry, TimelineConfig, analyze_report,
                           metrics_digest, run_report, timeline_report)
    from repro.sched.experiment import SLO_SPECS
    telemetry = Telemetry(timeline=TimelineConfig(slo_specs=SLO_SPECS))
    with telemetry:
        result = _run_fifo(params, seed)
    return ObservedRun(result, telemetry, metrics_digest(telemetry),
                       (run_report(telemetry), analyze_report(telemetry),
                        timeline_report(telemetry)))


def _obs_payload(run: ObservedRun):
    return {"metrics_digest": run.metrics_digest,
            "reports": list(run.reports)}


def _obs_checks(run: ObservedRun, params) -> List[str]:
    problems = _fifo_checks(run.result, params)
    if not run.telemetry.total_spans():
        problems.append("telemetry recorded no spans")
    return problems


def _obs_stats(run: ObservedRun) -> Dict[str, float]:
    stats = _sched_stats(run.result)
    stats["obs.spans"] = run.telemetry.total_spans()
    stats["obs.timeline_samples"] = sum(
        r.timeline.ticks for r in run.telemetry.runs
        if r.timeline is not None)
    return stats


_FIFO = {"worker_cores": 16, "rate_per_s": 600_000,
         "duration_ms": 24.0, "warmup_ms": 4.8}
_SCHED_MODULES = ("repro.core", "repro.ghost", "repro.sched",
                  "repro.sched.experiment", "repro.workloads")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fifo_nic", _SCHED_MODULES, dict(_FIFO),
             _run_fifo, dataclasses.asdict, _fifo_checks, _sched_stats),
    Workload("rpc_mq", ("repro.ghost", "repro.rpc.experiment"),
             {"worker_cores": 16, "rate_per_s": 230_000,
              "duration_ms": 24.0, "warmup_ms": 6.0},
             _run_rpc, dataclasses.asdict, _load_checks, _rpc_stats),
    Workload("sol_nic", ("repro.mem.agent", "repro.mem.experiment"),
             {"agent_cores": 16, "epochs": 1.8},
             _run_sol, _sol_payload, _sol_checks, _sol_stats),
    Workload("fifo_obs", _SCHED_MODULES + ("repro.obs",),
             dict(_FIFO, duration_ms=12.0, warmup_ms=2.4),
             _run_fifo_obs, _obs_payload, _obs_checks, _obs_stats),
)}
