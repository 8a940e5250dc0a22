"""Golden outputs: small CLI runs must reproduce checked-in digests.

Each case in ``golden_digests.json`` is one ``chargesim`` invocation at a
small size. For every output file the table holds the trace digest (for a
``.jsonl`` trace, read from its footer) or the SHA-256 of the file's bytes
(CSVs and ``summary.txt``). A speed change must leave this table unchanged;
any edit to an existing entry is a declared digest rebase.

To add the cases and replays the table lacks::

    PYTHONPATH=src python tests/test_golden_digests.py --record

It runs every case, writes only the missing entries, and exits 2, naming
each one, if an existing entry would change. A declared rebase deletes the
entries it re-records from ``golden_digests.json`` first.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from chargesim import cli
from chargesim.sim import read_trace

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

DAY_S = 86400.0
WEEK_S = 7 * DAY_S
CLOUD = {"latency": {"t_server_cloud": 0.05, "t_cloud": 0.1}}

# name -> (CLI arguments, config file contents or None)
CASES = {
    "rtt-dist-default-1w": (
        ["rtt-dist", "--seed", "1", "--duration", str(WEEK_S)], None),
    "rtt-dist-diurnal-2d": (
        ["rtt-dist", "--seed", "2", "--duration", str(2 * DAY_S)],
        {"latency": {"threeg": {
            "components": [
                {"weight": 0.4, "location": 0.8, "spread": 0.15},
                {"weight": 0.3, "location": 1.5, "spread": 0.15},
                {"weight": 0.2, "location": 2.5, "spread": 0.15},
                {"weight": 0.1, "location": 4.0, "spread": 0.15},
            ],
            "hard_max": 4.5,
            "diurnal": [0.7 if h % 24 < 6 else 1.0 for h in range(168)],
        }}}),
    "compare-protocols-default-100": (
        ["compare-protocols", "--seed", "1", "--trials", "100"], None),
    # more trials than one chunk (sim.FORK_CHUNK), so where the
    # fork rule allows, a child computes the trials' outcomes
    "compare-protocols-default-600": (
        ["compare-protocols", "--seed", "1", "--trials", "600"], None),
    # a push period below every collection and every transit: each push
    # overruns its period and packets overtake one another, so the collector
    # counts overruns and the server store counts discarded packets
    "compare-protocols-fast-push-600": (
        ["compare-protocols", "--seed", "1", "--trials", "600"],
        {"push_period_s": 0.5, "trial_spacing_s": 6.0}),
    "compare-protocols-worst-case-3g": (
        ["compare-protocols", "--preset", "worst-case-3g"], None),
    "duty-cycle-default-201": (
        ["duty-cycle", "--seed", "1"], {"duty_sweep": {"i_final_a": 32.0, "steps": 201}}),
    "duty-cycle-duty-3g": (
        ["duty-cycle", "--preset", "duty-3g"], None),
    # more points than one chunk (sim.FORK_CHUNK), so where the
    # fork rule allows, a child computes the sweep's points
    "duty-cycle-default-600": (
        ["duty-cycle", "--seed", "1"], {"duty_sweep": {"steps": 600}}),
    "local-sched-default-2d": (
        ["local-sched", "--seed", "1", "--duration", str(2 * DAY_S)], None),
    "local-sched-fleet-2d": (
        ["local-sched", "--seed", "1", "--duration", str(2 * DAY_S)],
        {"round_robin": {"slot_length_s": 300.0, "max_concurrent": 2,
                         "per_active_current_a": 16.0},
         "fleet": {"stations": [{
             "id": 0, "link": "threeg", "circuit_limit_a": 40.0, "voltage_v": 208.0,
             "outlets": 8, "algorithm": "none",
             "evs": [{"outlet": k, "max_current_a": 32.0} for k in range(8)],
         }]}}),
    # schedule_time windows that fill a 0.6 A limit all day: every slot with
    # the three EVs plugged records total 0.6000000000000001 (0.1 + 0.2 + 0.3
    # left to right), which this table pins on every supported Python
    "local-sched-schedule-time-edge-1d": (
        ["local-sched", "--seed", "1", "--duration", str(DAY_S)],
        {"fleet": {"stations": [{
            "id": 0, "circuit_limit_a": 0.6, "algorithm": "schedule_time",
            "evs": [{"outlet": 0}, {"outlet": 1}, {"outlet": 2}]}]},
         "round_robin": {"per_active_current_a": 0.1},
         "schedule_time": {"windows": {
             str(outlet): [{"start_s": 0, "end_s": DAY_S, "amps": amps}]
             for outlet, amps in ((0, 0.1), (1, 0.2), (2, 0.3))}}}),
    # non-zero cloud hops: every round trip carries t_server_cloud + t_cloud
    "rtt-dist-cloud-1d": (
        ["rtt-dist", "--seed", "3", "--duration", str(DAY_S)], CLOUD),
    "compare-protocols-cloud-100": (
        ["compare-protocols", "--seed", "3", "--trials", "100"], CLOUD),
    # the 100 trials span hours 0 and 1 of a profile that halves 3G
    # locations after hour 0, so the analytic means weight both hours
    "compare-protocols-diurnal-100": (
        ["compare-protocols", "--seed", "1", "--trials", "100"],
        {"latency": {"threeg": {
            "components": [
                {"weight": 0.4, "location": 0.8, "spread": 0.15},
                {"weight": 0.3, "location": 1.5, "spread": 0.15},
                {"weight": 0.2, "location": 2.5, "spread": 0.15},
                {"weight": 0.1, "location": 4.0, "spread": 0.15},
            ],
            "hard_max": 4.5,
            "diurnal": [1.0] + [0.5] * 167,
        }}}),
    "duty-cycle-cloud-21": (
        ["duty-cycle", "--seed", "3"], {**CLOUD, "duty_sweep": {"i_final_a": 32.0, "steps": 21}}),
}

# replay case name -> (case whose trace is replayed, trace file name)
REPLAYS = {
    "replay-rtt-dist-default-1w": ("rtt-dist-default-1w", "trace.jsonl"),
}


def run_case(name: str, work: Path) -> dict:
    """Run one case into ``work`` and return {output file: digest}."""
    args, config = CASES[name]
    out_dir = work / name
    argv = list(args) + ["--out", str(out_dir)]
    if config is not None:
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(config_path)]
    assert cli.main(argv) == 0, f"{name}: chargesim {' '.join(argv)} failed"
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".jsonl":
            digests[path.name] = read_trace(path).stored_digest
        else:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_replay(name: str, work: Path) -> str:
    """Replay a case's written trace; returns the reproduced digest."""
    case, trace_name = REPLAYS[name]
    trace_path = work / case / trace_name
    if not trace_path.exists():
        run_case(case, work)
    verdict = cli.cmd_replay(trace_path)
    assert verdict.identical, f"{name}: replay diverged"
    return verdict.actual_digest


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


def test_table_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)
    assert sorted(golden["replays"]) == sorted(REPLAYS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_reproduces_golden_outputs(name, golden, work):
    assert run_case(name, work) == golden["cases"][name]


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_replay_reproduces_golden_digest(name, golden, work):
    assert run_replay(name, work) == golden["replays"][name]


def record(table: dict, work: Path) -> list:
    """Run every case and replay into ``work``, add the entries ``table``
    lacks, and return the names of those whose existing entry differs."""
    changed = []
    for section, names, run in (("cases", CASES, run_case), ("replays", REPLAYS, run_replay)):
        entries = table.setdefault(section, {})
        for name in sorted(names):
            got = run(name, work)
            if entries.setdefault(name, got) != got:
                changed.append(name)
    table.setdefault("python", sys.version.split()[0])
    return changed


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        print("usage: test_golden_digests.py --record", file=sys.stderr)
        sys.exit(2)
    table = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        changed = record(table, Path(tmp))
    if changed:
        print(f"would change existing entries: {', '.join(changed)}; a declared rebase "
              f"deletes them from {GOLDEN_PATH.name} first", file=sys.stderr)
        sys.exit(2)
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
