"""Benchmark for the chargesim CLI: four workloads, host-time end-to-end
metrics, per-layer metrics from a separately traced run.

Usage::

    python3 bench/run.py --workload protocols --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, both modes
    python3 bench/run.py --record 0-31        # record reference outputs

The benchmark drives the shipped ``chargesim`` CLI as a black box, one child
process at a time (a closed loop with one client). An operation is one
back-to-back run of the workload's CLI invocation(s). The workload's config
JSON is generated from the workload name and ``--seed``; the program sees
only ``--config`` and ``--seed`` (plus ``--check`` and ``--out``).

With ``--trace 0`` operations repeat for ``--seconds`` and the end-to-end
metrics are printed, their times scaled to a reference host speed (see
``calibrate``). With ``--trace 1`` one or more untraced operations are
followed by operations run under ``bench/tracing.py``, and the per-layer
metrics are printed. Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

An operation fails when an invocation exits nonzero or prints a traceback,
a built-in check FAILs, a trace's last record carries ``error``, a replay is
not identical, or a digest or summary differs from the recorded reference
(``bench/references.json``) or from the run's first operation. Failed
operations keep their timings.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
TRACER = BENCH_DIR / "tracing.py"

MIN_SETUP_PROBES = 9
RUN_BUDGET_S = 170.0  # a run stops starting operations, and kills a hung one, past this

WEEK_S = 7 * 86400.0
DAY_S = 86400.0

# Interpreter start, ``import chargesim`` and config resolution: the set-up
# every CLI invocation pays before its engine runs its first event.
SETUP_PROBE = (
    "import sys; import chargesim.cli; from chargesim.config import resolve; "
    "resolve(config_path=sys.argv[1], overrides={'seed': int(sys.argv[2])})"
)

# The host's speed drifts by tens of percent over minutes when it is shared,
# so end-to-end times are scaled to a reference speed: a fixed pure-Python
# kernel (records, near-Gaussian draws, canonical JSON, SHA-256, like the
# simulator's own work) runs in this process between operations, and each
# operation's host time is multiplied by CAL_REF_S / (mean of the kernel times
# just before and after it). CAL_REF_S is roughly the kernel's time on a
# quiet 2-vCPU Intel Xeon host at 2.1 GHz, so scaled figures read as seconds
# there. Changing it rescales every end-to-end time.
CAL_REF_S = 0.125
CAL_RECORDS = 20000


def calibrate() -> float:
    """Host seconds the reference kernel takes right now."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    records = [{"at": i * 0.5, "seq": i, "kind": "probe",
                "state": {"v": sum(rng.random() for _ in range(12)), "k": i % 7}}
               for i in range(CAL_RECORDS)]
    text = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def _protocols_config(seed: int, tiny: bool) -> dict:
    return {"seed": seed, "trials": 100 if tiny else 10000}


def _rtt_config(seed: int, tiny: bool) -> dict:
    return {"seed": seed, "duration_s": WEEK_S if tiny else 4 * WEEK_S}


def _sched_config(seed: int, tiny: bool) -> dict:
    return {
        "seed": seed,
        "duration_s": (2 if tiny else 30) * DAY_S,
        "round_robin": {"slot_length_s": 300.0, "max_concurrent": 2,
                        "per_active_current_a": 16.0},
        "fleet": {"stations": [{
            "id": 0, "link": "threeg", "circuit_limit_a": 40.0, "voltage_v": 208.0,
            "outlets": 8, "algorithm": "none",
            "evs": [{"outlet": k, "max_current_a": 32.0} for k in range(8)],
        }]},
    }


def _duty_config(seed: int, tiny: bool) -> dict:
    return {"seed": seed, "duty_sweep": {"i_final_a": 32.0, "steps": 201 if tiny else 20001}}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: object  # (seed, tiny) -> config dict
    replay: bool = False  # follow the command with ``chargesim replay`` of its trace
    min_ops: int = 3  # untraced operations per measuring run, whatever --seconds says


WORKLOADS = {w.name: w for w in (
    Workload("protocols", "compare-protocols", _protocols_config, min_ops=5),
    Workload("rtt-replay", "rtt-dist", _rtt_config, replay=True),
    Workload("sched-fleet", "local-sched", _sched_config),
    Workload("duty-sweep", "duty-cycle", _duty_config),
)}


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class Invocation:
    argv: list
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool = False


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list, work: Path, deadline: float) -> Invocation:
    """Run one child to completion; wall time from spawn to reaping, peak
    RSS from the child's own resource usage. A child still running at
    ``deadline`` is killed."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        signal.alarm(max(1, int(deadline - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the child first
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        argv=argv, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=timed_out,
    )


# --------------------------------------------------------------------------
# operations and their checks
# --------------------------------------------------------------------------


@dataclass
class Op:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    invocations: int = 0
    events: int = 0
    output_bytes: int = 0
    digests: dict = field(default_factory=dict)  # trace file name -> digest
    summary: list = field(default_factory=list)  # summary.txt lines
    failures: list = field(default_factory=list)
    stats: dict | None = None  # merged tracing stats, traced runs only

    def add(self, inv: Invocation) -> None:
        self.wall_s += inv.wall_s
        self.rss_mb = max(self.rss_mb, inv.rss_mb)
        self.invocations += 1
        what = " ".join(str(a) for a in inv.argv[-6:])
        if inv.timed_out:
            self.failures.append(f"timed out: {what}")
        elif inv.code != 0:
            self.failures.append(f"exit {inv.code}: {what}")
        if "Traceback" in inv.stderr or "Traceback" in inv.stdout:
            self.failures.append(f"traceback: {what}")


def _trace_tail(path: Path) -> tuple:
    """(record count, last record, footer) of a written trace file."""
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
        fh.seek(max(0, fh.tell() - (1 << 16)))
        tail = fh.read().splitlines()
    return lines - 2, json.loads(tail[-2]), json.loads(tail[-1])


def _check_outputs(op: Op, inv: Invocation, out_dir: Path) -> None:
    """Digests, trace completeness and check verdicts of one command run."""
    for line in inv.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] == "digest":
            op.digests[parts[0]] = parts[2]
    if not op.digests:
        op.failures.append("no trace digest printed")
    for name, digest in op.digests.items():
        path = out_dir / name
        if not path.is_file():
            op.failures.append(f"{name}: not written")
            continue
        try:
            records, last, footer = _trace_tail(path)
        except (ValueError, IndexError) as exc:
            op.failures.append(f"{name}: unreadable ({exc})")
            continue
        op.events += records
        if "error" in last:
            op.failures.append(f"{name}: last record carries error {last['error']!r}")
        if footer.get("trace_digest") != digest:
            op.failures.append(f"{name}: footer digest differs from the printed one")
    summary_path = out_dir / "summary.txt"
    op.summary = summary_path.read_text(encoding="utf-8").splitlines() if summary_path.is_file() else []
    verdicts = [line for line in op.summary if line.startswith("check ")]
    if not verdicts:
        op.failures.append("summary has no check verdicts")
    op.failures.extend(line for line in verdicts if ": FAIL" in line)
    if out_dir.is_dir():
        op.output_bytes += sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _merge_stats(a: dict | None, b: dict) -> dict:
    if a is None:
        return b
    for name, span in b["spans"].items():
        into = a["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in into:
            into[key] += span[key]
    for name, n in b["counters"].items():
        a["counters"][name] = a["counters"].get(name, 0) + n
    return a


def run_op(w: Workload, config_path: Path, seed: int, work: Path, deadline: float,
           traced: bool = False) -> Op:
    """One operation: the workload's command, then its replay if it has one."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    stats_path = work / "stats.json"

    def argv(cli_args: list) -> list:
        if traced:
            return [sys.executable, str(TRACER), "--stats", str(stats_path), "--", *cli_args]
        return [sys.executable, "-m", "chargesim.cli", *cli_args]

    def take_stats(op: Op) -> None:
        if traced and stats_path.is_file():
            op.stats = _merge_stats(op.stats, json.loads(stats_path.read_text(encoding="utf-8")))
            stats_path.unlink()

    op = Op()
    inv = spawn(argv([w.command, "--config", str(config_path), "--seed", str(seed),
                      "--check", "--out", str(out_dir)]), work, deadline)
    op.add(inv)
    take_stats(op)
    if not inv.timed_out:
        _check_outputs(op, inv, out_dir)
    if w.replay and not op.failures:
        trace = out_dir / "trace.jsonl"
        replayed = op.events
        inv = spawn(argv(["replay", str(trace)]), work, deadline)
        op.add(inv)
        take_stats(op)
        op.events += replayed
        if not inv.stdout.startswith("identical:"):
            op.failures.append(f"replay not identical: {(inv.stdout + inv.stderr).strip()[:200]}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return op


def setup_probe(config_path: Path, seed: int, work: Path, deadline: float) -> Invocation:
    return spawn([sys.executable, "-c", SETUP_PROBE, str(config_path), str(seed)], work, deadline)


# --------------------------------------------------------------------------
# references
# --------------------------------------------------------------------------


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


def _size(tiny: bool) -> str:
    return "tiny" if tiny else "full"


def check_against(op: Op, expected: dict | None, label: str) -> None:
    """Compare an operation's digests and summary with ``expected``."""
    if expected is None:
        return
    if op.digests != expected["digests"]:
        op.failures.append(f"digests differ from {label}: {op.digests} vs {expected['digests']}")
    elif op.summary != expected["summary"]:
        op.failures.append(f"summary differs from {label}")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def _calls(s: dict, name: str) -> int:
    return s["spans"].get(name, {}).get("calls", 0)


def _total(s: dict, name: str) -> float:
    return s["spans"].get(name, {}).get("total_s", 0.0)


def _self(s: dict, name: str) -> float:
    return s["spans"].get(name, {}).get("self_s", 0.0)


def _count(s: dict, name: str) -> int:
    return s["counters"].get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name, unit, value from the merged tracing stats of one traced operation
PER_LAYER = (
    ("config.resolve_s", "s", lambda s: _total(s, "config.resolve")),
    ("sim.events", "count", lambda s: _count(s, "sim.events")),
    ("sim.dispatch_self_s", "s", lambda s: _self(s, "sim.run_until")),
    ("sim.substream_calls", "count", lambda s: _calls(s, "sim.substream")),
    ("sim.substream_s", "s", lambda s: _total(s, "sim.substream")),
    ("sim.digest_s", "s", lambda s: _total(s, "sim.digest")),
    ("sim.trace_write_s", "s", lambda s: _self(s, "sim.trace_write")),
    ("sim.trace_bytes", "bytes", lambda s: _count(s, "sim.trace_bytes")),
    ("sim.read_trace_s", "s", lambda s: _total(s, "sim.read_trace")),
    ("latency.draws", "count", lambda s: _calls(s, "latency.sample")),
    ("latency.sample_s", "s", lambda s: _total(s, "latency.sample")),
    ("latency.ns_per_draw", "ns",
     lambda s: 1e9 * _ratio(_total(s, "latency.sample"), _calls(s, "latency.sample"))),
    ("domain.snapshots", "count", lambda s: _calls(s, "domain.snapshot")),
    ("domain.snapshot_s", "s", lambda s: _total(s, "domain.snapshot")),
    ("domain.writes", "count", lambda s: _calls(s, "domain.write")),
    ("domain.write_s", "s", lambda s: _total(s, "domain.write")),
    ("proto.legacy_pull_calls", "count", lambda s: _calls(s, "proto.legacy_pull")),
    ("proto.legacy_pull_self_s", "s", lambda s: _self(s, "proto.legacy_pull")),
    ("proto.pic_pull_calls", "count", lambda s: _calls(s, "proto.pic_pull")),
    ("proto.pic_pull_self_s", "s", lambda s: _self(s, "proto.pic_pull")),
    ("proto.messages_built", "count", lambda s: _count(s, "proto.messages_built")),
    ("proto.request_error_ratio", "ratio",
     lambda s: _ratio(_count(s, "proto.request_errors"), _count(s, "proto.requests"))),
    ("proto.push_consume_calls", "count", lambda s: _calls(s, "proto.push_consume")),
    ("proto.push_discard_ratio", "ratio",
     lambda s: _ratio(_count(s, "proto.push_discards"), _calls(s, "proto.push_consume"))),
    ("pic.collect_all_calls", "count", lambda s: _calls(s, "pic.collect_all")),
    ("pic.collect_all_self_s", "s", lambda s: _self(s, "pic.collect_all")),
    ("pic.bus_reads", "count", lambda s: _count(s, "pic.bus_reads")),
    ("pic.main_loop_step_calls", "count", lambda s: _calls(s, "pic.main_loop_step")),
    ("pic.cache_served_ratio", "ratio",
     lambda s: _ratio(_count(s, "pic.cache_served"), _calls(s, "pic.serve_aggregate"))),
    ("control.duty_changes", "count", lambda s: _calls(s, "control.change_duty_cycle")),
    ("control.change_self_s", "s", lambda s: _self(s, "control.change_duty_cycle")),
    ("control.verification_reads", "count", lambda s: _count(s, "control.verification_reads")),
    ("control.first_read_confirm_ratio", "ratio",
     lambda s: _ratio(_count(s, "control.first_read_confirms"),
                      _calls(s, "control.change_duty_cycle"))),
    ("sched.round_robin_steps", "count", lambda s: _calls(s, "sched.round_robin_step")),
    ("sched.round_robin_s", "s", lambda s: _total(s, "sched.round_robin_step")),
    ("experiments.post_self_s", "s", lambda s: _self(s, "experiments.cmd")),
    ("cli.emit_s", "s", lambda s: _total(s, "cli.emit")),
    ("cli.output_bytes", "bytes", lambda s: _count(s, "cli.output_bytes")),
)


def _describe(values: list) -> str:
    if len(values) == 1:
        return "n=1"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


@dataclass
class RunResult:
    ops: list
    metrics: dict  # name -> (value, unit)
    notes: list  # human-readable lines

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failures)

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": len(self.ops),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def _prepare(w: Workload, seed: int, tiny: bool) -> tuple:
    work = ROOT / ".bench_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(w.config(seed, tiny), indent=1), encoding="utf-8")
    return work, config_path


def _verify(ops: list, op: Op, expected: dict | None) -> None:
    """Check ``op`` against the recorded reference and the run's first op."""
    check_against(op, expected, "the recorded reference")
    if ops:
        check_against(op, {"digests": ops[0].digests, "summary": ops[0].summary},
                      "this run's first operation")


def _repeat(run_one, min_count: int, until: float, deadline: float) -> list:
    """Call ``run_one(done)`` at least ``min_count`` times and until the next
    call would end past ``until``; never start one that would end past
    ``deadline`` (both on the monotonic clock)."""
    done: list = []
    while True:
        op = run_one(done)
        done.append(op)
        next_end = time.monotonic() + op.wall_s
        if next_end > deadline or (len(done) >= min_count and next_end > until):
            return done


def measure(w: Workload, seed: int, seconds: float, tiny: bool = False) -> RunResult:
    """End-to-end metrics over untraced operations repeated for ``seconds``.
    Each operation is preceded by a set-up probe and followed by a
    calibration; both are scaled by the calibrations around them."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    work, config_path = _prepare(w, seed, tiny)
    expected = load_references().get(_size(tiny), {}).get(w.name, {}).get(str(seed))
    cals = [calibrate()]
    scales: list = []  # one per operation
    host_probes: list = []
    probes: list = []  # scaled

    def scale_since_last_cal() -> float:
        cals.append(calibrate())
        return CAL_REF_S / ((cals[-2] + cals[-1]) / 2)

    def one(done: list) -> Op:
        probe = setup_probe(config_path, seed, work, deadline)
        op = run_op(w, config_path, seed, work, deadline)
        scale = scale_since_last_cal()
        scales.append(scale)
        host_probes.append(probe.wall_s)
        probes.append(probe.wall_s * scale)
        if probe.code != 0:
            op.failures.append(f"set-up probe exit {probe.code}: {probe.stderr.strip()[-200:]}")
        _verify(done, op, expected)
        return op

    try:
        setup_probe(config_path, seed, work, deadline)  # warm the bytecode cache
        ops = _repeat(one, 1 if tiny else w.min_ops, start + seconds, deadline)
        min_probes = 1 if tiny else MIN_SETUP_PROBES
        while len(probes) < min_probes and time.monotonic() < deadline - 5:
            host = setup_probe(config_path, seed, work, deadline).wall_s
            host_probes.append(host)
            probes.append(host * scale_since_last_cal())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup = statistics.median(probes)
    host_walls = [op.wall_s for op in ops]
    walls = [op.wall_s * scale for op, scale in zip(ops, scales)]
    rates = [op.events / (wall - op.invocations * setup) for op, wall in zip(ops, walls)]
    rss = [op.rss_mb for op in ops]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup, "s"),
        "events_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = [
        f"wall_s: {_describe(walls)}; host seconds median {statistics.median(host_walls):.6g}",
        f"setup_s: {_describe(probes)}; host seconds median {statistics.median(host_probes):.6g}",
        f"events_per_s: {_describe(rates)}; {ops[0].events} events per operation",
        f"peak_rss_mb: {_describe(rss)}",
        f"calibration: {len(cals)} kernels, median {statistics.median(cals):.6g} s host "
        f"(reference {CAL_REF_S} s)",
    ]
    return RunResult(ops=ops, metrics=metrics, notes=notes + _reference_note(expected, seed, tiny))


def measure_traced(w: Workload, seed: int, seconds: float, tiny: bool = False) -> RunResult:
    """Per-layer metrics: untraced operations for half of ``seconds``, then
    traced ones; each traced op must reproduce the untraced digests."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    work, config_path = _prepare(w, seed, tiny)
    expected = load_references().get(_size(tiny), {}).get(w.name, {}).get(str(seed))

    def one_plain(done: list) -> Op:
        op = run_op(w, config_path, seed, work, deadline)
        _verify(done, op, expected)
        return op

    def one_traced(_done: list) -> Op:
        op = run_op(w, config_path, seed, work, deadline, traced=True)
        check_against(op, expected, "the recorded reference")
        check_against(op, {"digests": plain[0].digests, "summary": plain[0].summary},
                      "the untraced run")
        if op.stats is None:
            op.failures.append("traced run wrote no stats")
        return op

    try:
        plain = _repeat(one_plain, 1, start + seconds / 2, deadline)
        traced = _repeat(one_traced, 1, start + seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = plain + traced
    with_stats = [op for op in traced if op.stats is not None]
    metrics = {}
    for name, unit, value in PER_LAYER:
        values = []
        for op in with_stats:
            op.stats["counters"]["cli.output_bytes"] = op.output_bytes
            values.append(value(op.stats))
        metrics[name] = (statistics.median(values) if values else 0.0, unit)
    plain_walls = [op.wall_s for op in plain]
    traced_walls = [op.wall_s for op in traced]
    failed = sum(1 for op in ops if op.failures)
    metrics["trace_overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    metrics["failed_ops_ratio"] = (failed / len(ops), "ratio")
    notes = [
        f"untraced wall_s: median {statistics.median(plain_walls):.6g} s, {_describe(plain_walls)}",
        f"traced wall_s: median {statistics.median(traced_walls):.6g} s, {_describe(traced_walls)}",
        f"failed_ops_ratio: {failed} failed of {len(ops)} attempted",
    ]
    return RunResult(ops=ops, metrics=metrics, notes=notes + _reference_note(expected, seed, tiny))


def _reference_note(expected: dict | None, seed: int, tiny: bool) -> list:
    if expected is None:
        return [f"no recorded reference for seed {seed} ({_size(tiny)} size): "
                "digests are checked against this run's first operation only"]
    return [f"digests and summary checked against the recorded reference for seed {seed}"]


def report(w: Workload, mode: str, result: RunResult, stream=sys.stdout) -> None:
    print(f"== {w.name} ({mode}) ==", file=stream)
    metrics = dict(result.metrics)
    metrics.setdefault("failed_ops_ratio", (result.failed / len(result.ops), "ratio"))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}", file=stream)
    for note in result.notes:
        print(f"  {note}", file=stream)
    print(f"  operations: {len(result.ops)} attempted, {result.failed} failed", file=stream)
    for i, op in enumerate(result.ops):
        for failure in op.failures:
            print(f"  FAILED op {i}: {failure}", file=stream)


def record(seeds: list, names: list, tiny: bool) -> int:
    """Run one operation per (workload, seed) and store its digests and
    summary as the reference; refuses to store a failing operation."""
    refs = load_references()
    bucket = refs.setdefault(_size(tiny), {})
    deadline = time.monotonic() + 3600.0
    for name in names:
        w = WORKLOADS[name]
        for seed in seeds:
            work, config_path = _prepare(w, seed, tiny)
            try:
                op = run_op(w, config_path, seed, work, deadline)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if op.failures:
                print(f"{name} seed {seed}: not recorded: {op.failures}", file=sys.stderr)
                return 1
            bucket.setdefault(name, {})[str(seed)] = {"digests": op.digests, "summary": op.summary}
            print(f"{name} seed {seed}: {op.digests} ({op.wall_s:.2f} s)")
    for name in bucket:
        bucket[name] = dict(sorted(bucket[name].items(), key=lambda kv: int(kv[0])))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in both modes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--record", metavar="SEEDS",
                        help="record reference outputs for seeds like 0-31,1000 and exit")
    args = parser.parse_args(argv)

    if not (SRC / "chargesim" / "cli.py").is_file():
        print(f"chargesim sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.record:
        return record(_seed_list(args.record), names, args.tiny)

    if args.workload:
        w = WORKLOADS[args.workload]
        if args.trace:
            result = measure_traced(w, args.seed, args.seconds, args.tiny)
        else:
            result = measure(w, args.seed, args.seconds, args.tiny)
        report(w, f"trace {args.trace}", result)
        print(result.to_json())
        return 0

    failed = 0
    for name in names:
        w = WORKLOADS[name]
        for mode, run in (("end to end", measure), ("per layer, traced", measure_traced)):
            result = run(w, args.seed, args.seconds, args.tiny)
            report(w, mode, result)
            failed += result.failed
    print(f"all workloads: {failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
