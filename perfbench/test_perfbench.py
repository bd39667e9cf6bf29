"""Tests of the benchmark itself: ``python -m pytest perfbench/``.

Two traced smoke runs of every workload are shared by the tests below;
together they take about 20 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
from run import INPUTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two traced smoke runs of all workloads: (stdout, result) each."""
    runs = []
    for index in range(2):
        path = tmp_path_factory.mktemp("perfbench") / f"run{index}.json"
        proc = _run("--smoke", "--reps", "2", "--trace", "--json", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(path) as fh:
            runs.append((proc.stdout, json.load(fh)))
    return runs


def test_benchmark_json_names_the_code_workloads_and_pins():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    assert {name: {seed: len(digests) for seed, digests in seeds.items()}
            for name, seeds in pins.items()} == \
        {name: {"1": INPUTS, "2": INPUTS} for name in WORKLOADS}


def test_smoke_prints_every_metric_with_its_unit(smoke_runs):
    stdout, _ = smoke_runs[0]
    lines = stdout.splitlines()
    for name in WORKLOADS:
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            prefix = f"{name} {metric['name']} "
            match = [line for line in lines if line.startswith(prefix)]
            assert len(match) == 1, prefix
            value, unit = match[0][len(prefix):].split()[:2]
            float(value)
            assert unit == metric["unit"], prefix
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {f"{name}/{metric['name']}"
                                    for name in WORKLOADS
                                    for metric in BENCH["per_layer"]}


def test_traced_counts_repeat_exactly(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for name in WORKLOADS:
        a = first["workloads"][name]["metrics"]
        b = second["workloads"][name]["metrics"]
        exact = [k for k in a if k.endswith((".calls", ".calls_in"))
                 or (k.startswith("sim.") and not k.endswith(".self_s")
                     and k != "sim.events_per_s")]
        assert len(exact) > 30
        assert {k: a[k]["median"] for k in exact} == \
            {k: b[k]["median"] for k in exact}, name


def test_layer_self_time_adds_up_to_traced_wall(smoke_runs):
    for _, result in smoke_runs:
        for name in WORKLOADS:
            trace = result["workloads"][name]["trace"]
            total = sum(v["self_s"] for v in trace["layers"].values())
            wall = trace["wall_raw_s"]
            assert abs(total - wall) <= 0.05 * wall, (name, total, wall)


def test_seed_1_digests_repeat(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for name in WORKLOADS:
        digests = first["workloads"][name]["digests"]
        assert all(digests[:2]) and not any(digests[2:])
        assert digests == second["workloads"][name]["digests"]


def test_compare_reports_every_workload_and_layer_shifts(smoke_runs):
    (_, first), (_, second) = smoke_runs
    lines, _ = compare.compare(first, second, BENCH)
    text = "\n".join(lines)
    for name in WORKLOADS:
        for metric in BENCH["end_to_end"]:
            assert f"{name:<9} {metric['name']:<12} " in text
    assert "self-time share" in text
    assert "  count  " not in text


def _summary(values):
    values = sorted(values)
    return {"median": values[len(values) // 2], "q1": values[0],
            "q3": values[-1], "values": values}


@pytest.mark.parametrize("base, new, expected", [
    ([1.0, 1.01, 1.02], [1.02, 1.03, 1.04], "unchanged"),
    ([1.0, 1.01, 1.02], [1.20, 1.21, 1.22], "worse"),
    ([1.0, 1.01, 1.02], [0.80, 0.81, 0.82], "better"),
    ([1.0, 1.3, 1.6], [1.1, 1.4, 1.7], "unresolved"),
    ([1.0, 1.3, 1.6], [0.5, 0.7, 0.9], "better"),
])
def test_compare_verdicts(base, new, expected):
    word, _ = compare.verdict(_summary(base), _summary(new), 0.10, "lower")
    assert word == expected


def test_attribution_charges_builtins_to_the_calling_layer(tmp_path):
    pkg = str(tmp_path / "repro")
    ghost = (os.path.join(pkg, "ghost", "agent.py"), 10, "_dispatch")
    queue = (os.path.join(pkg, "sim", "wheel.py"), 5, "insert")
    numpy = ("/site/numpy/core.py", 1, "full")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        ghost: (1, 1, 0.5, 1.0, {}),
        queue: (3, 3, 0.2, 0.3, {ghost: (3, 3, 0.2, 0.3)}),
        numpy: (1, 1, 0.05, 0.1, {ghost: (1, 1, 0.05, 0.1)}),
        builtin: (6, 6, 0.15, 0.15, {queue: (4, 4, 0.1, 0.1),
                                     numpy: (2, 2, 0.05, 0.05)}),
    }
    out = layers.attribute(stats, pkg)["layers"]
    assert out["ghost"]["self_s"] == pytest.approx(0.5)
    assert out["sim.queue"]["self_s"] == pytest.approx(0.3)
    assert out["ext"]["self_s"] == pytest.approx(0.1)
    assert out["sim.queue"]["calls"] == 3
    assert out["sim.queue"]["calls_in"] == 3
    assert out["ext"]["calls"] == 7
    assert out["ext"]["calls_in"] == 5


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "fifo_nic", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
