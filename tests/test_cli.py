"""Tests for the command-line entry point."""

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_unknown_experiment(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_table2(capsys):
    assert main(["run", "table2", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Hardware microbenchmarks" in out
    assert "750" in out


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "mmio_read_uc" in out
    assert "wave-repro" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out


def test_run_with_trace_and_metrics(tmp_path, capsys):
    import json

    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.txt"
    assert main(["run", "table2", "--fast",
                 "--trace", str(trace), "--metrics", str(metrics)]) == 0
    captured = capsys.readouterr()
    # The experiment report still goes to stdout, telemetry to stderr.
    assert "Hardware microbenchmarks" in captured.out
    assert "trace:" in captured.err
    assert "metrics: digest" in captured.err
    data = json.loads(trace.read_text())
    assert any(e.get("ph") == "X" for e in data["traceEvents"])
    assert "digest" in metrics.read_text()


def test_run_without_flags_leaves_no_telemetry_installed(capsys):
    from repro.sim import Environment

    assert main(["run", "table2", "--fast"]) == 0
    capsys.readouterr()
    assert Environment().telemetry is None


def _profile_layers(err: str) -> dict:
    """``layer -> calls`` from the layer table of a ``--profile`` run."""
    lines = err[err.index("event-loop profile"):].splitlines()
    layers = {}
    for line in lines[2:]:
        if line.startswith("function"):
            break
        layer, calls = line.split()[:2]
        layers[layer] = int(calls.replace(",", ""))
    return layers


def test_run_profile(capsys, monkeypatch):
    from repro.obs import LoopProfiler

    assert main(["run", "table3", "--fast"]) == 0
    bare = capsys.readouterr().out
    merged = []
    merge_state = LoopProfiler.merge_state

    def spy(self, state):
        merged.append(state)
        return merge_state(self, state)

    monkeypatch.setattr(LoopProfiler, "merge_state", spy)
    for jobs in ("1", "2"):
        del merged[:]
        assert main(["run", "table3", "--fast", "--profile",
                     "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        assert captured.out == bare
        assert _profile_layers(captured.err)["sim"] > 0
        # A pooled run simulates in its workers: their rows reach the
        # parent's table only through the shard merge.
        assert bool(merged) == (jobs != "1")


def test_report_command(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["report", "table2", "--fast", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# table2")
    assert "metrics digest" in text


def test_report_unknown_experiment(capsys):
    assert main(["report", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_analyze_command(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_NO_PARTITION", raising=False)
    out = tmp_path / "blame.md"
    assert main(["analyze", "table3", "--fast", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# table3: causal analysis")
    assert "Causal request blame" in text
    assert "Critical path of the p99 request" in text
    assert "Partition observatory" in text
    assert "sched-policy" in text


def test_analyze_without_causal_roots_degrades(tmp_path, capsys):
    # table2 is pure hardware microbenchmarks: no request roots exist,
    # and the analyzer must say so rather than fail.
    out = tmp_path / "blame.md"
    assert main(["analyze", "table2", "--fast", "--out", str(out)]) == 0
    assert "no request-rooted spans" in out.read_text()


def test_analyze_unknown_experiment(capsys):
    assert main(["analyze", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_registry_covers_every_bench_module():
    import repro.bench.generate as generate
    registered = {module for module, _ in EXPERIMENTS.values()}
    generated = {m.__name__ for m in generate.MODULES}
    assert registered == generated
