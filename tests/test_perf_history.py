"""Tests for the cross-run perf trajectory (repro.bench.trajectory)."""

import json

from repro.bench import perf, trajectory


def _result(ev_per_sec, serial_wall=None):
    out = {
        "kernel": {"events_per_sec": ev_per_sec,
                   "events_scheduled": 1000},
        "host": {"cpu_count": 2, "python": "3.11"},
    }
    if serial_wall is not None:
        out["fig4a_fast"] = {"serial_wall_s": serial_wall, "jobs": 1}
    return out


def test_history_entry_flattens_result():
    entry = trajectory.history_entry(_result(100, serial_wall=9.5),
                                     timestamp="t0")
    assert entry["ts"] == "t0"
    assert entry["kernel_events_per_sec"] == 100
    assert entry["fig4a_serial_wall_s"] == 9.5
    assert entry["host_cpu_count"] == 2


def test_append_history_is_bounded():
    history = []
    for i in range(trajectory.HISTORY_LIMIT + 10):
        history = trajectory.append_history(history, _result(i), f"t{i}")
    assert len(history) == trajectory.HISTORY_LIMIT
    # Oldest entries fell off; the newest is last.
    assert history[-1]["ts"] == f"t{trajectory.HISTORY_LIMIT + 9}"
    assert history[0]["ts"] == "t10"


def test_carry_history_seeds_from_schema1_artifact(tmp_path):
    legacy = tmp_path / "BENCH_perf.json"
    legacy.write_text(json.dumps(_result(250, serial_wall=40.0)))
    history = trajectory.carry_history(str(legacy))
    assert len(history) == 1
    assert history[0]["ts"] == "(pre-history)"
    assert history[0]["kernel_events_per_sec"] == 250


def test_carry_history_missing_file_is_empty(tmp_path):
    assert trajectory.carry_history(
        str(tmp_path / "nope.json"),
        fallback_path=str(tmp_path / "also-nope.json")) == []


def _stub_kernel(repeats=3):
    _stub_kernel.calls.append(repeats)
    return {"events_scheduled": 1000, "events_per_sec": 5000,
            "runs": [{"events_scheduled": 1000, "wall_s": 0.2}]}


def _stub_partition(repeats=3):
    # Shape of measure_partition()'s two-engine result; the real bench
    # takes tens of seconds per engine, so history-plumbing tests stub
    # it (the gate logic is still exercised on these values).
    return {"events_per_sec": 5500, "serial_events_per_sec": 5000,
            "speedup_vs_serial": 1.1,
            "events_dispatched": 900, "serial_events_dispatched": 900,
            "events_logical": 1000, "events_scheduled": 1000,
            "domain_switches": 40, "cross_sends": 9,
            "windows_batched": 30, "events_batched": 800,
            "batch_solo": 5, "batch_degrades": 0,
            "runs": [], "serial_runs": []}


def _stub_timeline(repeats=3):
    # Shape of measure_timeline()'s paired-run result (the real bench
    # is wall-clock and would flake under test-suite load).
    return {"overhead_vs_off": 0.99, "events_per_sec": 4950,
            "off_events_per_sec": 5000, "period_ns": 5_000.0,
            "samples": 400, "events_dispatched": 900,
            "off_events_dispatched": 900, "runs": [], "off_runs": []}


def test_perf_main_appends_history_across_runs(tmp_path, monkeypatch,
                                               capsys):
    """The ISSUE acceptance check: running perf twice yields a two-entry
    history, and --check still gates on the committed snapshot."""
    _stub_kernel.calls = []
    monkeypatch.setattr(perf, "measure_kernel", _stub_kernel)
    monkeypatch.setattr(perf, "measure_partition", _stub_partition)
    monkeypatch.setattr(perf, "measure_timeline", _stub_timeline)
    # Run away from the repo root, or carry_history seeds the first run
    # from the committed BENCH_perf.json (by design).
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "perf.json"
    assert perf.main(fast=True, out=str(out), repeats=1) == 0
    assert perf.main(fast=True, out=str(out), repeats=2) == 0
    assert _stub_kernel.calls == [1, 2]
    data = json.loads(out.read_text())
    assert data["schema"] == "wave-repro-perf/2"
    assert len(data["history"]) == 2
    assert all(e["kernel_events_per_sec"] == 5000
               for e in data["history"])
    assert data["history"][0]["ts"] <= data["history"][1]["ts"]
    # The baseline pin survives every rewrite.
    assert data["pre_pr_baseline"] == perf.PRE_PR_BASELINE
    # --check passes against its own committed figure...
    assert perf.main(fast=True, check=True, out=str(out)) == 0
    # ...and fails when the fresh number craters below the floor.
    monkeypatch.setattr(
        perf, "measure_kernel",
        lambda repeats=3: {"events_scheduled": 1000, "events_per_sec": 10,
                           "runs": []})
    capsys.readouterr()
    assert perf.main(fast=True, check=True, out=str(out)) == 1
    assert "PERF REGRESSION" in capsys.readouterr().out


def test_render_trend_empty_history():
    text = trajectory.render_trend([])
    assert "No history yet" in text


def test_render_trend_table_and_plot():
    history = [trajectory.history_entry(_result(100 + 10 * i,
                                                serial_wall=5.0 + i),
                                        timestamp=f"2026-01-0{i + 1}")
               for i in range(3)]
    text = trajectory.render_trend(
        history, baseline={"kernel_events_per_sec": 90})
    assert "| run | timestamp | kernel ev/s |" in text
    assert "2026-01-02" in text
    assert "+10.0%" in text  # 110 vs 100
    assert "+20.0%" in text  # 120 vs first (100)
    assert "pre-PR baseline pin: 90" in text
    assert "events/sec" in text  # the ascii plot rendered
    assert "wall s" in text


def test_render_trend_tolerates_retired_keys():
    """Entries recorded while the bench still timed the exact merge
    carry a ``partition_exact_speedup`` key; they render, ignoring it."""
    old = dict(trajectory.history_entry(_result(100), "t0"),
               partition_speedup_vs_serial=1.07,
               partition_exact_speedup=0.74)
    text = trajectory.render_trend([old, trajectory.history_entry(
        _result(110), "t1")])
    assert "1.07x" in text
    assert "0.74" not in text and "exact merge" not in text


def test_render_trend_last_n():
    history = [trajectory.history_entry(_result(100 + i), f"t{i}")
               for i in range(5)]
    text = trajectory.render_trend(history, last=2)
    assert "runs: 2 (of 5 recorded)" in text
    assert "t3" in text and "t4" in text
    assert "t0" not in text


def test_compare_main_renders_existing_artifact(tmp_path, capsys):
    path = tmp_path / "perf.json"
    data = _result(300, serial_wall=12.0)
    data["history"] = [trajectory.history_entry(_result(200), "t0"),
                       trajectory.history_entry(_result(300), "t1")]
    path.write_text(json.dumps(data))
    assert trajectory.compare_main(out_path=str(path)) == 0
    out = capsys.readouterr().out
    assert "perf trajectory" in out
    assert "+50.0%" in out


def test_compare_main_missing_artifact(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # hide the repo's committed fallback
    missing = str(tmp_path / "nope.json")
    assert trajectory.compare_main(out_path=missing) == 1
    assert "no perf artifact" in capsys.readouterr().out


def test_cli_report_history(tmp_path, capsys, monkeypatch):
    from repro.__main__ import main as cli_main
    path = tmp_path / "BENCH_perf.json"
    data = _result(300)
    data["history"] = [trajectory.history_entry(_result(200), "t0"),
                       trajectory.history_entry(_result(300), "t1")]
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert cli_main(["report", "--history"]) == 0
    assert "perf trajectory" in capsys.readouterr().out
    out_file = tmp_path / "trend.md"
    assert cli_main(["report", "--history", "--out",
                     str(out_file)]) == 0
    assert "perf trajectory" in out_file.read_text()


def test_cli_report_requires_experiment_without_history(capsys):
    from repro.__main__ import main as cli_main
    assert cli_main(["report"]) == 2
    assert "experiment name is required" in capsys.readouterr().err
