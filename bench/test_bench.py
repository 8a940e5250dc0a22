"""Tests of the benchmark itself: the span recorder's self-time arithmetic,
and a tiny-size smoke pass of every workload in both modes.

Run with ``python -m pytest bench/test_bench.py``.
"""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"chargesim_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    tracing = _load("tracing")
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)

    def leaf():
        clock.now += 3

    def middle():
        clock.now += 2
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 1

    def outer():
        clock.now += 10
        wrapped_middle()
        clock.now += 4

    wrapped_leaf = rec.wrap("leaf", leaf)
    wrapped_middle = rec.wrap("middle", middle)
    rec.wrap("outer", outer)()

    assert rec.spans["leaf"] == [2, 6, 6]
    assert rec.spans["middle"] == [1, 9, 3]
    assert rec.spans["outer"] == [1, 23, 14]


def test_wrapper_counts_after_the_span_closes_and_passes_results_through():
    tracing = _load("tracing")
    rec = tracing.SpanRecorder(clock=FakeClock())
    double = rec.wrap("double", lambda x: 2 * x,
                      after=lambda result, args: rec.count("seen", result + args[0]))
    assert double(5) == 10
    assert rec.counters == {"seen": 15}
    assert rec.spans["double"][0] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name
    assert any(line.split() == ["failed_ops_ratio", "0", "ratio"] for line in proc.stdout.splitlines())
    assert "checked against the recorded reference for seed 1" in proc.stdout


# layers that must do no work in a workload, by metric-name prefix
IDLE_LAYERS = {
    "protocols": ("control.", "sched.", "sim.read_trace_s"),
    "rtt-replay": ("proto.", "pic.", "domain.", "control.", "sched."),
    "sched-fleet": ("latency.", "proto.", "pic.", "control.", "domain.snapshot",
                    "sim.read_trace_s"),
    "duty-sweep": ("proto.", "pic.", "sched.", "sim.read_trace_s"),
}
BUSY = {
    "protocols": ("latency.draws", "proto.legacy_pull_calls", "proto.pic_pull_calls",
                  "pic.collect_all_calls", "domain.snapshots", "sim.substream_calls"),
    "rtt-replay": ("latency.draws", "sim.read_trace_s", "sim.digest_s"),
    "sched-fleet": ("sched.round_robin_steps", "domain.writes"),
    "duty-sweep": ("control.duty_changes", "domain.writes", "domain.snapshots"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name in ("sim.events", "config.resolve_s", "experiments.post_self_s", "cli.output_bytes"):
        assert metrics[name]["value"] > 0, name
    for name in BUSY[workload]:
        assert metrics[name]["value"] > 0, name
    for name, m in metrics.items():
        if name.startswith(IDLE_LAYERS[workload]):
            assert m["value"] == 0, name
    assert metrics["failed_ops_ratio"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
