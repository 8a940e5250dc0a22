"""Experiment harness tests: trace-derived metrics, determinism, replay,
local-sched's variant traces built in forked children, and compare-protocols'
trial outcomes and duty-cycle's sweep points computed in one."""
import contextlib
import csv
import errno
import json
import os
import threading
import time
import tracemalloc
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest

from chargesim import experiments, pic, proto, sim
from chargesim.cli import _emit, main
from chargesim.config import ConfigError, from_dict, resolve
from chargesim.experiments import (
    COMMANDS,
    SCHED_VARIANTS,
    Check,
    ExperimentOutput,
    build_trace,
    cmd_replay,
    finish,
    run,
    trace_file,
)
from chargesim.latency import LinkKind, default_models, worst_case_budget
from chargesim.proto import push_cycle_time
from chargesim.sched import schedule_time_step
from chargesim.sim import FORK_CHUNK, canonical_json, read_trace


def csv_rows(csvs: dict, fname: str) -> tuple:
    """The header of the CSV ``fname`` in ``csvs``, and its rows parsed back
    as lists of strings."""
    header, rows = csvs[fname]
    return header, list(csv.reader(rows.decode("utf-8").splitlines()))


def small_default(**overrides):
    base = {"duration_s": 86400.0, "trials": 200, "probe_period_s": 300.0}
    base.update(overrides)
    return resolve("default", overrides=base)


class TestRttDist:
    def test_day_run_counts_probes_per_link(self):
        out = run("rtt-dist", small_default())
        assert out.summary["threeg"]["probes"] == 288
        assert out.summary["ethernet"]["probes"] == 288

    def test_histogram_rows_sum_to_probe_count(self):
        out = run("rtt-dist", small_default())
        header, rows = csv_rows(out.csvs, "hist_threeg.csv")
        assert header == ("bin_low", "bin_high", "count")
        assert sum(int(r[2]) for r in rows) == 288

    def test_checks_pass_on_full_week(self):
        out = run("rtt-dist", resolve("default"))
        assert out.ok, [c for c in out.checks if not c.ok]

    def test_ethernet_band_is_tested_less_the_cloud_term(self):
        cloud = {"t_server_cloud": 0.05, "t_cloud": 0.1}
        out = run("rtt-dist", small_default(latency=cloud))
        band = next(c for c in out.checks if c.name == "ethernet-rtt-band")
        assert band.ok, band
        assert "Ethernet RTTs less the 0.15 s cloud term in [0.15, 0.25] s" in band.detail


class TestCompareProtocols:
    def test_worst_case_preset_reproduces_reference_numbers(self):
        out = run("compare-protocols", resolve("worst-case-3g"))
        assert out.summary["mean_legacy_power_s"] == pytest.approx(20.0, abs=1e-9)
        assert out.summary["speedup_power"] == pytest.approx(4.444, rel=1e-3)
        assert out.summary["speedup_full"] == pytest.approx(8.444, rel=1e-3)
        assert out.ok, [c for c in out.checks if not c.ok]

    def test_stochastic_savings_match_analytic(self):
        out = run("compare-protocols", small_default(trials=2000))
        emp = out.summary["savings_empirical_s"]
        ana = out.summary["savings_analytic_s"]
        assert emp == pytest.approx(ana, rel=0.02)

    def test_six_outlet_station_passes_count_and_savings_checks(self):
        station = {"id": 0, "link": "threeg", "outlets": 6,
                   "evs": [{"outlet": 0}, {"outlet": 3}, {"outlet": 5}]}
        cfg = small_default(trials=10_000, fleet={"stations": [station]})
        out = run("compare-protocols", cfg)
        checks = {c.name: c for c in out.checks}
        assert checks["request-counts"].detail == (
            "legacy power=6, legacy full=12, aggregated pull=1 on every trial")
        assert checks["savings-identity"].ok, checks["savings-identity"].detail
        assert out.ok, [c for c in out.checks if not c.ok]
        # the staleness bound is a worst-case cycle over all six outlets
        assert out.summary["staleness_bound_s"] == cfg.push_period_s + push_cycle_time(
            worst_case_budget(cfg.links, LinkKind.THREE_G), 6)

    @pytest.mark.parametrize("link, identities", [("wifi", True), ("ethernet", False)])
    def test_checks_pass_on_a_station_of_any_uplink(self, tmp_path, link, identities):
        # pushes, the push cycle and both budgets take the station's uplink; on
        # Ethernet the analytic saving is not positive, so no identity is checked
        station = {"id": 0, "link": link, "evs": [{"outlet": k} for k in range(3)]}
        out = run("compare-protocols",
                  resolve("default", overrides={"fleet": {"stations": [station]}}), tmp_path)
        assert out.ok, [c for c in out.checks if not c.ok]
        names = {c.name for c in out.checks}
        assert ({"savings-identity", "retrieval-identities"} <= names) is identities
        assert cmd_replay(tmp_path / "trace.jsonl").identical

    def test_pushes_cross_the_station_uplink(self):
        # on a WiFi station each push arrives within one worst-case WiFi
        # collect-and-push cycle of its sweep, well inside a cellular transit
        station = {"id": 0, "link": "wifi", "evs": [{"outlet": k} for k in range(3)]}
        cfg = small_default(trials=0, fleet={"stations": [station]})
        _, rows = csv_rows(run("compare-protocols", cfg).csvs, "staleness.csv")
        arrivals = [float(stale) for _, source, stale in rows if source == "push-arrive"]
        assert len(arrivals) > 2800
        assert max(arrivals) <= push_cycle_time(worst_case_budget(cfg.links, LinkKind.WIFI), 4)

    @pytest.mark.parametrize("latency", [
        # every legacy round trip carries the cloud hops, and so do the closed
        # forms: at the parent, savings were 10.7% and legacy 8.4% off, exit 3
        {"t_server_cloud": 0.05, "t_cloud": 0.1},
        # the default 3G mixture at half its locations in every hour but the
        # week's first: the closed forms weight each hour by its trials. Read
        # at hour 0 alone, savings were 49.4%, legacy 44.2% and the push
        # cycle 25.3% off, exit 3
        {"threeg": {"components": [c._asdict() for c in default_models().threeg.components],
                    "hard_max": 4.5, "diurnal": [1.0] + [0.5] * 167}},
    ], ids=["cloud", "diurnal"])
    def test_identities_hold_with_a_cloud_term(self, tmp_path, latency):
        config = tmp_path / "latency.json"
        config.write_text(json.dumps({"latency": latency}))
        out = tmp_path / "out"
        assert main(["compare-protocols", "--config", str(config), "--check",
                     "--out", str(out)]) == 0
        checks = [line for line in (out / "summary.txt").read_text().splitlines()
                  if line.startswith("check ")]
        assert any(line.startswith("check savings-identity: PASS") for line in checks)
        assert any(line.startswith("check retrieval-identities: PASS") for line in checks)

    def test_a_push_cycle_of_no_time_checks_only_the_savings_identity(self, tmp_path):
        # links of no delay but a 1 s cellular cap, and a 1 s cloud hop: the
        # analytic push cycle is 0 s and the saving 4 s. The retrieval
        # identities, relative to their analytic sides, are not checked; once
        # post-processing divided by the 0 s cycle and raised
        # ZeroDivisionError.
        def instant(hard_max):
            return {"components": [{"weight": 1.0, "location": 0.0}], "hard_max": hard_max}

        config = tmp_path / "instant.json"
        config.write_text(json.dumps({"latency": {
            "threeg": instant(1.0), "local_bus": instant(0.001), "metering": instant(0.001),
            "t_server_cloud": 1.0}}))
        out = tmp_path / "out"
        assert main(["compare-protocols", "--config", str(config), "--check",
                     "--out", str(out)]) == 0
        checks = [line for line in (out / "summary.txt").read_text().splitlines()
                  if line.startswith("check ")]
        assert "check savings-identity: PASS (empirical 4.000 s vs analytic 4.000 s " \
               "(0.000%))" in checks
        assert not any(line.startswith("check retrieval-identities") for line in checks)

    @pytest.mark.parametrize("overrides", [
        {"seed": 3, "trials": 1000},
        {"seed": 8, "trials": 1000},
        {"seed": 42, "trials": 1000},
        {"timeout_s": 2.0},  # below the 0 + 4.5 + 0.5 s longest power request
    ], ids=["seed3", "seed8", "seed42", "timeout2"])
    def test_identity_checks_run_only_when_their_premises_hold(self, overrides):
        # the identities hold in the mean of 10^4 trials in which no power
        # request times out; each of these runs fails them
        out = run("compare-protocols", resolve("default", overrides=overrides))
        names = {c.name for c in out.checks}
        assert not names & {"savings-identity", "retrieval-identities"}
        assert out.ok, [c for c in out.checks if not c.ok]

    def test_zero_latency_reports_undefined_ratios(self):
        tiny = {"components": [{"weight": 1.0, "location": 1e-9, "spread": 0.0}],
                "hard_max": 1e-6}
        cfg = resolve("default", overrides={
            "trials": 5,
            "latency": {k: tiny for k in ("ethernet", "wifi", "threeg", "local_bus", "metering")},
        })
        out = run("compare-protocols", cfg)
        assert out.summary["speedup_power"] is None or out.summary["speedup_power"] > 0

    def test_rows_derive_from_trace(self, tmp_path):
        out = run("compare-protocols", resolve("worst-case-3g"), tmp_path)
        (name, trace), = out.traces
        records = []
        read_trace(tmp_path / trace_file(name), records.append)
        trial_records = [r for r in records if r["kind"] == "trial"]
        header, rows = csv_rows(out.csvs, "retrievals.csv")
        assert len(rows) == 4 * len(trial_records)

    def test_uncached_pulls_pay_one_fresh_sweep(self, tmp_path, capsys):
        # with serve_cache false every pull runs collect_all; the trial's
        # uplink draws are the same, so each pull is slower by that sweep
        config = tmp_path / "uncached.json"
        config.write_text(json.dumps({"serve_cache": False}))
        pic_wall = {}
        for name, extra in (("cached", []), ("uncached", ["--config", str(config)])):
            out_dir = tmp_path / name
            rc = main(["compare-protocols", "--trials", "200", "--seed", "1", "--check",
                       "--out", str(out_dir), *extra])
            assert rc == 0, capsys.readouterr().err
            with open(out_dir / "retrievals.csv", newline="") as fh:
                pic_wall[name] = {int(r["trial"]): float(r["wall_s"])
                                  for r in csv.DictReader(fh) if r["protocol"] == "pic_pull"}
        cfg = resolve("default")
        sweep_max = cfg.station.outlets * (cfg.links.local_bus.hard_max
                                           + cfg.links.metering.hard_max)
        assert sorted(pic_wall["uncached"]) == sorted(pic_wall["cached"]) == list(range(200))
        for trial, cached in pic_wall["cached"].items():
            assert 0 < pic_wall["uncached"][trial] - cached <= sweep_max, trial
        assert cmd_replay(tmp_path / "uncached" / "trace.jsonl").identical

    @pytest.mark.parametrize("serve_cache, collections", [(True, 401), (False, 0)])
    def test_only_a_cache_serving_collector_is_refreshed(self, tmp_path, serve_cache,
                                                          collections):
        # the refresh at t = 0 and every push period over 200 trials x 60 s
        # keeps the cache fresh; a collector that sweeps on each pull needs none
        cfg = small_default(seed=1, serve_cache=serve_cache)
        run("compare-protocols", cfg, tmp_path)
        kinds = []
        read_trace(tmp_path / "trace.jsonl", lambda rec: kinds.append(rec["kind"]))
        assert kinds.count("pic-collect") == collections
        assert kinds.count("trial") == 200
        assert cmd_replay(tmp_path / "trace.jsonl").identical


class TestDutyCycle:
    def test_sweep_confirms_everywhere_and_respects_fixed_bound(self):
        out = run("duty-cycle", resolve("duty-3g"))
        assert out.summary["all_confirmed"]
        assert out.summary["fixed_wait_s"] == pytest.approx(3.5, abs=1e-12)
        assert out.summary["max_adaptive_wait_s"] <= 3.5 + 1e-12
        assert out.ok

    def test_mean_adaptive_strictly_below_fixed(self):
        out = run("duty-cycle", resolve("duty-3g"))
        assert out.summary["mean_adaptive_wait_s"] < out.summary["fixed_wait_s"]

    @pytest.mark.parametrize("overrides", [
        # 6.004 * 3 / 3 rounds above 6.004: the last point must stay at the span
        {"duty_sweep": {"i_final_a": 6.004, "steps": 4}},
        # 0.6 * (6.08 / 0.6) rounds above the EV's own 6.08 A limit
        {"duty_sweep": {"i_final_a": 6.08, "steps": 4},
         "fleet": {"stations": [{"id": 0, "evs": [{"outlet": 0, "max_current_a": 6.08}]}]}},
    ], ids=["last-point-overshoot", "duty-round-trip-above-ev-limit"])
    def test_sweep_at_a_rounding_edge_completes(self, tmp_path, overrides):
        out = run("duty-cycle", resolve("duty-3g", overrides=overrides), tmp_path)
        assert out.ok, [c for c in out.checks if not c.ok]
        header, points = csv_rows(out.csvs, "duty_sweep.csv")
        assert header[0] == "delta_a"
        assert [float(p[0]) for p in points][-1] == overrides["duty_sweep"]["i_final_a"]
        assert cmd_replay(tmp_path / "trace.jsonl").identical


def four_evs(algorithm: str) -> dict:
    """A fleet of one 32 A station running ``algorithm``, an EV on each of its four outlets."""
    return {"stations": [{"id": 0, "circuit_limit_a": 32.0, "algorithm": algorithm,
                          "evs": [{"outlet": k} for k in range(4)]}]}


# the 22:00-06:00 window wraps midnight, outlet 1 has an EV but no window, and
# at 12:00:00.5 (inside a slot) outlet 2 steps up as outlet 3 steps down, the
# total sitting at the 32 A limit throughout
SCHEDULE_TIME = {"windows": {
    0: [{"start_s": 79200, "end_s": 21600, "amps": 16}],
    2: [{"start_s": 21600, "end_s": 43200.5, "amps": 8},
        {"start_s": 43200.5, "end_s": 79200, "amps": 24}],
    3: [{"start_s": 21600, "end_s": 43200.5, "amps": 24},
        {"start_s": 43200.5, "end_s": 79200, "amps": 8}]}}


class TestLocalSched:
    def test_local_mode_sends_no_scheduling_traffic(self):
        out = run("local-sched", small_default())
        assert out.summary["local"]["sched_messages"] == 0
        assert out.summary["server"]["sched_messages"] >= out.summary["server"]["alloc_changes"]
        assert out.ok, [c for c in out.checks if not c.ok]

    def test_server_mode_message_per_allocation_change(self):
        out = run("local-sched", small_default())
        server = out.summary["server"]
        assert server["alloc_changes"] > 0
        assert server["sched_messages"] == server["alloc_changes"]

    def test_allocations_always_within_limit(self, tmp_path):
        out = run("local-sched", small_default(), tmp_path)
        for name, _ in out.traces:
            records = []
            read_trace(tmp_path / trace_file(name), records.append)
            for rec in records:
                if rec["kind"] == "slot":
                    assert rec["state"]["total"] <= rec["state"]["limit"] + 1e-9

    def test_allocation_changes_only_at_slot_boundaries(self):
        # plug events land mid-slot; allocation records only exist at
        # multiples of the slot length
        cfg = small_default()
        records = []
        build_trace("local-sched", "local", cfg, records.append)
        slot = cfg.round_robin.slot_length_s
        for rec in records:
            if rec["kind"] == "slot":
                assert rec["at"] % slot == pytest.approx(0.0, abs=1e-9)

    def test_schedule_time_allocates_from_the_windows_in_both_variants(self):
        cfg = small_default(duration_s=3 * 86400.0, fleet=four_evs("schedule_time"),
                            schedule_time=SCHEDULE_TIME)
        out = run("local-sched", cfg)
        assert out.ok, [c for c in out.checks if not c.ok]
        for variant in SCHED_VARIANTS:
            assert out.summary[variant]["violations"] == 0
            records = []
            build_trace("local-sched", variant, cfg, records.append)
            plugged, seen = set(), {}
            for rec in records:
                if rec["kind"] in ("plug", "unplug"):
                    plugged = set(rec["state"]["plugged"])
                elif rec["kind"] == "slot":
                    alloc = {int(o): a for o, a in rec["state"]["alloc"].items()}
                    assert alloc == schedule_time_step(cfg.schedule_time, plugged, rec["at"])
                    if 86400.0 <= rec["at"] < 2 * 86400.0:  # all four EVs plugged
                        seen[rec["at"] - 86400.0] = alloc
            # the edge takes effect at the next slot boundary, as a plug does
            assert (seen[43200.0][2], seen[44100.0][2]) == (8.0, 24.0)
            assert seen[3600.0][0] == seen[82800.0][0] == 16.0
            assert {a[1] for a in seen.values()} == {0.0}
            if variant == "local":
                assert records[0]["state"] == {"mode": "schedule_time"}

    def test_round_robin_runs_as_no_algorithm_does(self):
        def station(algorithm):
            return {"stations": [{"id": 0, "algorithm": algorithm,
                                  "evs": [{"outlet": k} for k in range(3)]}]}

        none = run("local-sched", small_default(fleet=station("none")))
        round_robin = run("local-sched", small_default(fleet=station("round_robin")))
        assert round_robin.csvs["traffic.csv"] == none.csvs["traffic.csv"]
        assert round_robin.summary == none.summary


def no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


TRIALS = "computing compare-protocols trials"
POINTS = "computing duty-cycle points"


def forks_logged(monkeypatch, log) -> Callable[[], list]:
    """Append each child ``sim.fork_child`` forks, from this process or any
    child of it, to the file ``log`` as "pid what"; returns a reader of what
    it holds as ``(who, what)`` pairs, ``who`` being "here" or "child"."""
    log.touch()
    fork_child = sim.fork_child

    def logged(what, serve):
        child = fork_child(what, serve)
        if child is not None:
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\t{what}\n")
        return child

    monkeypatch.setattr(sim, "fork_child", logged)
    here = str(os.getpid())

    def read() -> list:
        lines = log.read_text(encoding="utf-8").splitlines()
        return [("here" if pid == here else "child", what)
                for pid, what in (line.split("\t") for line in lines)]

    return read


def encoder(path) -> str:
    """What the encoder child of the trace written to ``path`` does."""
    return f"encoding trace {path}"


def encoders(out_dir, traces) -> list:
    """The encoder children of ``traces``, built in this process into
    ``out_dir``: one for each trace that flushed a full block."""
    return [encoder(Path(out_dir) / trace_file(name))
            for name, trace in traces if trace.count >= sim.BLOCK_RECORDS]


@contextlib.contextmanager
def second_thread_running():
    """A second thread runs meanwhile, and a call to ``os.fork`` fails."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            yield
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()


FORK_CONFIGS = {
    "round-robin": lambda: small_default(fleet=four_evs("round_robin")),
    "schedule-time": lambda: small_default(fleet=four_evs("schedule_time"),
                                           schedule_time=SCHEDULE_TIME),
    "default-two-days": lambda: resolve("default", overrides={"duration_s": 2 * 86400.0}),
}


def emitted(out: ExperimentOutput, out_dir, capsys) -> tuple:
    """What the CLI prints and every file in ``out_dir`` after it writes ``out``."""
    _emit(out, out_dir, "csv")
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    return capsys.readouterr().out, files


def set_builder(monkeypatch, command, name, builder):
    """Build ``command``'s trace ``name`` with ``builder``, into its own fold."""
    traces = COMMANDS[command]
    monkeypatch.setitem(traces, name, (builder, traces[name][1]))


def built_in_turn(cfg, out_dir) -> ExperimentOutput:
    """The oracle: local-sched's traces built one after the other in this
    process, each into its own fold."""
    traces, folds = [], []
    for name, (_, make_fold) in COMMANDS["local-sched"].items():
        fold = make_fold(cfg)
        traces.append((name, build_trace("local-sched", name, cfg, fold.add, out_dir)))
        folds.append(fold)
    out = ExperimentOutput("local-sched", traces)
    out.csvs, out.summary, out.checks = finish(folds)
    return out


class TestForkedTraces:
    @pytest.mark.parametrize("config", sorted(FORK_CONFIGS))
    def test_forked_run_matches_the_traces_built_in_turn(self, monkeypatch, tmp_path, capsys,
                                                         config):
        cfg = FORK_CONFIGS[config]()
        children = forks_logged(monkeypatch, tmp_path / "forked.txt")
        forked = run("local-sched", cfg, tmp_path / "forked")
        # one child builds the local trace; each trace forks its own encoder,
        # where it is built, when it flushes a full block
        logged = children()
        assert [what for who, what in logged if who == "here"] == \
            ["building trace 'local'"] + encoders(tmp_path / "forked", forked.traces[:1])
        assert [what for who, what in logged if who == "child"] == \
            encoders(tmp_path / "forked", forked.traces[1:])
        no_child_left()
        oracle = built_in_turn(cfg, tmp_path / "oracle")
        assert forked.ok, [c for c in forked.checks if not c.ok]
        assert (forked.csvs, forked.summary, forked.checks) == \
            (oracle.csvs, oracle.summary, oracle.checks)
        for (name, trace), (oracle_name, want) in zip(forked.traces, oracle.traces):
            assert name == oracle_name
            assert trace == want
        assert emitted(forked, tmp_path / "forked", capsys) == \
            emitted(oracle, tmp_path / "oracle", capsys)

    def test_a_second_thread_keeps_the_build_in_process(self, tmp_path, capsys):
        cfg = FORK_CONFIGS["round-robin"]()
        with second_thread_running():
            out = run("local-sched", cfg, tmp_path / "threaded")
        no_child_left()
        oracle = built_in_turn(cfg, tmp_path / "oracle")
        assert (out.csvs, out.summary, out.checks) == (oracle.csvs, oracle.summary, oracle.checks)
        assert emitted(out, tmp_path / "threaded", capsys) == \
            emitted(oracle, tmp_path / "oracle", capsys)

    @pytest.mark.parametrize("variant", SCHED_VARIANTS)
    def test_a_failed_event_ends_in_the_same_check_in_a_child_as_here(
            self, monkeypatch, tmp_path, capsys, variant):
        # server's trace is built here, local's in the child
        build = COMMANDS["local-sched"][variant][0]

        def failing(eng, cfg):
            horizon = build(eng, cfg)
            eng.schedule_at(3600.0, "boom", fn=lambda at, data: 1 / 0)
            return horizon

        set_builder(monkeypatch, "local-sched", variant, failing)
        cfg = small_default()
        forked = run("local-sched", cfg, tmp_path / "forked")
        no_child_left()
        assert main(["local-sched", "--duration", "86400", "--out", str(tmp_path / "cli")]) == 3
        no_child_left()
        monkeypatch.delattr(os, "fork")
        in_process = run("local-sched", cfg, tmp_path / "in-process")
        want = Check("trace-complete", False, f"{variant} truncated: event 'boom' at 3600.0 s "
                                              f"failed: ZeroDivisionError: division by zero")
        assert forked.checks == in_process.checks == [want]
        assert forked.truncated and in_process.truncated
        capsys.readouterr()
        assert emitted(forked, tmp_path / "forked", capsys) == \
            emitted(in_process, tmp_path / "in-process", capsys)

    def test_a_builder_error_in_a_child_reaches_the_caller(self, monkeypatch, tmp_path):
        def refuse(eng, cfg):
            raise ConfigError("round_robin: refused by the local builder")

        set_builder(monkeypatch, "local-sched", "local", refuse)
        forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
        with pytest.raises(ConfigError, match="^round_robin: refused by the local builder$"):
            run("local-sched", small_default(), tmp_path / "out")
        assert forked().count(("here", "building trace 'local'")) == 1
        no_child_left()
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["trace_server.jsonl"]

    def test_the_moved_series_guard_refuses_in_parent_and_child_alike(self, tmp_path):
        cfg = small_default(round_robin={"slot_length_s": 0.001})
        with pytest.raises(ConfigError, match=r"^round_robin\.slot_length_s: 0\.001 s over "):
            run("local-sched", cfg, tmp_path)
        no_child_left()
        assert not list(tmp_path.iterdir())

    def test_a_child_that_dies_without_a_message_is_an_error(self, monkeypatch):
        parent = os.getpid()

        def die(eng, cfg):
            assert os.getpid() != parent, "the local trace was not built in a child"
            os._exit(5)

        set_builder(monkeypatch, "local-sched", "local", die)
        with pytest.raises(RuntimeError, match="building trace 'local' exited with code 5"):
            run("local-sched", small_default())
        no_child_left()


@pytest.mark.parametrize("cpus, children", [
    (1, []),
    (2, [("here", "building trace 'local'")]),
    (3, [("here", "building trace 'local'"), ("here", "encoding trace {out}/trace_server.jsonl"),
         ("child", "encoding trace {out}/trace_local.jsonl")]),
], ids=["one-cpu", "two-cpus", "three-cpus"])
def test_a_child_is_forked_only_for_a_cpu_of_its_own(monkeypatch, tmp_path, capsys, cpus,
                                                      children):
    # the run's processes at work: this one, and from the start the child
    # building the local trace; each trace asks for an encoder at its first
    # full block. Each fork is logged to a file, so the trace child's forks
    # reach this process too.
    forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
    monkeypatch.setattr(sim, "_cpus", lambda: cpus)
    cfg = resolve("default")
    out = run("local-sched", cfg, tmp_path / "out")
    no_child_left()
    assert sim._at_work == 1
    assert sorted(forked()) == \
        sorted((who, what.format(out=tmp_path / "out")) for who, what in children)
    assert out.ok, [c for c in out.checks if not c.ok]
    assert emitted(out, tmp_path / "out", capsys) == \
        emitted(built_in_turn(cfg, tmp_path / "oracle"), tmp_path / "oracle", capsys)


# a duty-cycle config of more points than one chunk, so the sweep forks
DUTY_600 = {"duty_sweep": {"steps": 600}}


def with_config(args: list, tmp_path) -> list:
    """``args`` with ``{duty_600}`` naming a JSON file of ``DUTY_600`` in ``tmp_path``."""
    config = tmp_path / "duty-600.json"
    config.write_text(json.dumps(DUTY_600), encoding="utf-8")
    return [arg.format(duty_600=config) for arg in args]


@pytest.mark.parametrize("args, run_forks, replay_forks", [
    (["rtt-dist"], ["encoding trace {out}/trace.jsonl"],
     ["encoding trace of 'rtt-dist' with seed 42"]),
    (["duty-cycle"], [], []),
    (["duty-cycle", "--config", "{duty_600}"], [POINTS], [POINTS]),
    (["compare-protocols", "--trials", "300"], [TRIALS], [TRIALS]),
    (["local-sched"], ["building trace 'local'"],
     ["encoding trace of 'local-sched' with seed 42"] * 2),
], ids=["rtt-dist", "duty-cycle", "duty-cycle-600", "compare-protocols", "local-sched"])
def test_on_two_cpus_each_command_forks_one_child_at_a_time(monkeypatch, tmp_path, args,
                                                             run_forks, replay_forks):
    # each command at its default preset, then a replay of each trace it
    # wrote, with the CPUs for one child. rtt-dist's week flushes full
    # blocks, and so does its re-run, so each forks an encoder; duty-cycle's
    # default sweep fits in one block. duty-cycle's point child over 600
    # points, compare-protocols' trial child, and local-sched's trace child,
    # leave no CPU for an encoder; a replay builds one trace, here, with an
    # encoder.
    forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
    monkeypatch.setattr(sim, "_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main([*with_config(args, tmp_path), "--out", str(out)]) == 0
    assert forked() == [("here", what.format(out=out)) for what in run_forks]
    for trace in sorted(out.glob("trace*.jsonl")):
        assert main(["replay", str(trace)]) == 0
    no_child_left()
    assert forked()[len(run_forks):] == [("here", what) for what in replay_forks]


# trial count -> forks: only a run of more than one chunk of trials forks
TRIAL_CONFIGS = {
    "default": {"trials": 600},
    "uncached": {"trials": 600, "serve_cache": False},
    "cloud": {"trials": 600, "latency": {"t_server_cloud": 0.05, "t_cloud": 0.1}},
    # below the 0 + 4.5 + 0.5 s longest power request
    "timeouts": {"trials": 600, "timeout_s": 2.0},
    "one-chunk-and-one": {"trials": FORK_CHUNK + 1},
    "one-chunk": {"trials": FORK_CHUNK},
    "two-hundred": {"trials": 200},
    "no-trials": {"trials": 0},
}


def in_process(monkeypatch, command, cfg, out_dir, how):
    """``command`` run with its feed (compare-protocols' trial outcomes,
    duty-cycle's sweep points) computed here: with ``os.fork`` deleted, or
    with a second thread running."""
    if how == "no-fork":
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            return run(command, cfg, out_dir)
    with second_thread_running():
        return run(command, cfg, out_dir)


class TestForkedTrials:
    """compare-protocols draws its trials' legacy pulls, push-cycle estimates
    and aggregated pulls' uplink delays in a forked child when it may fork,
    and here otherwise."""

    @pytest.mark.parametrize("config", sorted(TRIAL_CONFIGS))
    def test_forked_trials_match_the_trials_computed_here(self, monkeypatch, tmp_path, capsys,
                                                          config):
        cfg = small_default(**TRIAL_CONFIGS[config])
        children = forks_logged(monkeypatch, tmp_path / "forked.txt")
        forked = run("compare-protocols", cfg, tmp_path / "forked")
        assert children() == [("here", what) for what in [TRIALS] * (cfg.trials > FORK_CHUNK)
                              + encoders(tmp_path / "forked", forked.traces)]
        no_child_left()
        assert forked.ok, [c for c in forked.checks if not c.ok]
        want = emitted(forked, tmp_path / "forked", capsys)
        (_, trace), = forked.traces
        errors = []
        legacy_pull = proto.legacy_pull

        def counted(*args, **kwargs):
            result = legacy_pull(*args, **kwargs)
            errors.extend(result.errors)
            return result

        monkeypatch.setattr(proto, "legacy_pull", counted)
        for how in ("no-fork", "second-thread"):
            out = in_process(monkeypatch, "compare-protocols", cfg, tmp_path / how, how)
            no_child_left()
            (_, oracle), = out.traces
            assert trace == oracle
            assert (forked.csvs, forked.summary, forked.checks) == \
                (out.csvs, out.summary, out.checks)
            assert emitted(out, tmp_path / how, capsys) == want
        # the low timeout is the only config whose legacy requests time out
        assert bool(errors) == (config == "timeouts")

    def test_only_the_child_derives_the_trials_streams(self, monkeypatch, tmp_path):
        # each derivation is appended to a file as "pid label", so the
        # child's derivations reach this process too
        log = tmp_path / "derived.txt"
        substream = experiments.substream

        def logged(seed, label):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {label}\n")
            return substream(seed, label)

        monkeypatch.setattr(experiments, "substream", logged)
        forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
        out = run("compare-protocols", small_default(trials=600))
        assert forked().count(("here", TRIALS)) == 1
        no_child_left()
        assert out.ok
        parent = str(os.getpid())
        derived = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        # the parent derives only the streams the builder wires into the
        # engine's handlers: the pull collector's bus, the push station's bus
        # and its uplink
        assert [label for pid, label in derived if pid == parent] == \
            ["pull-bus", "bus:0", "uplink:0"]
        # the child derives each trial's stream once per consumer: both
        # legacy pulls, the push-cycle estimate and the pull's uplink delay
        assert [label for pid, label in derived if pid != parent] == \
            [f"trial:{i}" for i in range(600) for _ in range(4)]

    def test_a_trial_that_raises_in_the_child_fails_as_it_does_here(self, monkeypatch, tmp_path,
                                                                    capsys):
        # each call is appended to a file as "pid at", so the child's calls
        # reach this process too
        log = tmp_path / "pulls.txt"
        legacy_pull = proto.legacy_pull

        def failing(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {kwargs['at']!r}\n")
            if kwargs["at"] == 600.0 and kwargs["include_status"]:
                raise ValueError("no reply from meter 2")
            return legacy_pull(*args, **kwargs)

        monkeypatch.setattr(proto, "legacy_pull", failing)
        cfg = small_default(trials=600)
        children = forks_logged(monkeypatch, tmp_path / "forked.txt")
        forked = run("compare-protocols", cfg, tmp_path / "forked")
        assert children().count(("here", TRIALS)) == 1
        no_child_left()
        # the child stops at the trial that raised
        parent = str(os.getpid())
        pulls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert max(float(at) for pid, at in pulls if pid != parent) == 600.0
        unforked = in_process(monkeypatch, "compare-protocols", cfg, tmp_path / "in-process",
                              "no-fork")
        no_child_left()
        want = Check("trace-complete", False, "trace truncated: event 'trial' at 600.0 s "
                                              "failed: ValueError: no reply from meter 2")
        assert forked.checks == unforked.checks == [want]
        assert emitted(forked, tmp_path / "forked", capsys) == \
            emitted(unforked, tmp_path / "in-process", capsys)

    def test_an_event_failing_before_the_trials_are_read_ends_the_child_promptly(
            self, monkeypatch, tmp_path):
        # past its first chunk the child would take minutes to reach its next
        # write and hours over its trials, so a run that waited for the child,
        # or left it to meet the closed pipe, would not return within the bound
        parent = os.getpid()
        legacy_pull = proto.legacy_pull
        main_loop_step = pic.main_loop_step

        def slow_in_child(*args, **kwargs):
            if os.getpid() != parent and kwargs["at"] >= 60.0 * FORK_CHUNK:
                time.sleep(0.5)
            return legacy_pull(*args, **kwargs)

        def step_failing_at_90(state, bus, send, now):
            if now == 90.0:
                raise RuntimeError("bus stuck")
            return main_loop_step(state, bus, send, now)

        monkeypatch.setattr(proto, "legacy_pull", slow_in_child)
        monkeypatch.setattr(pic, "main_loop_step", step_failing_at_90)
        forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
        start = time.monotonic()
        out = run("compare-protocols", resolve("default"), tmp_path)
        assert time.monotonic() - start < 30.0
        assert forked().count(("here", TRIALS)) == 1
        no_child_left()
        assert out.checks == [Check("trace-complete", False,
                                    "trace truncated: event 'push-step' at 90.0 s failed: "
                                    "RuntimeError: bus stuck")]

    def test_a_child_that_dies_names_its_exit_code(self, monkeypatch):
        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "the trial was not computed in a child"
            os._exit(5)

        monkeypatch.setattr(proto, "legacy_pull", die)
        out = run("compare-protocols", small_default(trials=600))
        no_child_left()
        assert out.checks == [Check(
            "trace-complete", False,
            "trace truncated: event 'trial' at 0.0 s failed: RuntimeError: the process "
            "computing compare-protocols trials exited with code 5")]


# sweep -> (preset, overrides): only a sweep of more than one chunk forks
DUTY_SWEEPS = {
    "one-chunk-and-one": ("default", {"duty_sweep": {"steps": FORK_CHUNK + 1}}),
    "one-chunk": ("default", {"duty_sweep": {"steps": FORK_CHUNK}}),
    "duty-3g": ("duty-3g", {"duty_sweep": {"steps": 600}}),
    # below 3G's 4.5 s hard_max, so some changes time out and end failed
    "timeouts": ("default", {"duty_sweep": {"steps": 600}, "timeout_s": 2.0}),
}


class TestForkedDutyPoints:
    """duty-cycle computes its sweep points (each a duty-cycle change and its
    verification reads) in a forked child when it may fork, and here
    otherwise."""

    @pytest.mark.parametrize("sweep", sorted(DUTY_SWEEPS))
    def test_a_forked_sweep_matches_the_sweep_computed_here(self, monkeypatch, tmp_path, capsys,
                                                             sweep):
        preset, overrides = DUTY_SWEEPS[sweep]
        cfg = resolve(preset, overrides=overrides)
        steps = cfg.duty_sweep["steps"]
        children = forks_logged(monkeypatch, tmp_path / "forked.txt")
        forked = run("duty-cycle", cfg, tmp_path / "forked")
        assert children() == [("here", what) for what in [POINTS] * (steps > FORK_CHUNK)
                              + encoders(tmp_path / "forked", forked.traces)]
        no_child_left()
        want = emitted(forked, tmp_path / "forked", capsys)
        (_, trace), = forked.traces
        assert trace.count == steps
        for how in ("no-fork", "second-thread"):
            out = in_process(monkeypatch, "duty-cycle", cfg, tmp_path / how, how)
            no_child_left()
            (_, oracle), = out.traces
            assert trace == oracle
            assert (forked.csvs, forked.summary, forked.checks) == \
                (out.csvs, out.summary, out.checks)
            assert emitted(out, tmp_path / how, capsys) == want
        # the low timeout is the only sweep with failed changes
        _, rows = csv_rows(forked.csvs, "duty_sweep.csv")
        assert ("failed" in {row[4] for row in rows}) == (sweep == "timeouts")
        assert forked.summary["all_confirmed"] == (sweep != "timeouts")

    def test_only_the_child_derives_the_points_streams(self, monkeypatch, tmp_path):
        # each derivation is appended to a file as "pid label", so the
        # child's derivations reach this process too
        log = tmp_path / "derived.txt"
        log.touch()
        substream = experiments.substream

        def logged(seed, label):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {label}\n")
            return substream(seed, label)

        monkeypatch.setattr(experiments, "substream", logged)
        forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
        out = run("duty-cycle", resolve("default", overrides={"duty_sweep": {"steps": 600}}))
        assert forked().count(("here", POINTS)) == 1
        no_child_left()
        assert out.ok
        parent = str(os.getpid())
        derived = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert [label for pid, label in derived if pid == parent] == []
        _, rows = csv_rows(out.csvs, "duty_sweep.csv")
        assert [label for pid, label in derived if pid != parent] == \
            [f"duty:{row[0]}" for row in rows]

    def test_a_point_that_raises_in_the_child_fails_as_it_does_here(self, monkeypatch, tmp_path,
                                                                    capsys):
        # each change is appended to a file as "pid now", so the child's
        # changes reach this process too
        log = tmp_path / "changes.txt"
        change_duty_cycle = experiments.change_duty_cycle
        failing_at = 300 * 3600.0

        def failing(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {kwargs['now']!r}\n")
            if kwargs["now"] == failing_at:
                raise ValueError("relay welded shut")
            return change_duty_cycle(*args, **kwargs)

        monkeypatch.setattr(experiments, "change_duty_cycle", failing)
        cfg = resolve("default", overrides={"duty_sweep": {"steps": 600}})
        children = forks_logged(monkeypatch, tmp_path / "forked.txt")
        forked = run("duty-cycle", cfg, tmp_path / "forked")
        assert children().count(("here", POINTS)) == 1
        no_child_left()
        # the child stops at the point that raised
        parent = str(os.getpid())
        changes = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert max(float(now) for pid, now in changes if pid != parent) == failing_at
        assert not [now for pid, now in changes if pid == parent]
        unforked = in_process(monkeypatch, "duty-cycle", cfg, tmp_path / "in-process",
                              "no-fork")
        no_child_left()
        want = Check("trace-complete", False, "trace truncated: event 'duty-point' at "
                                              "1080000.0 s failed: ValueError: relay welded shut")
        assert forked.checks == unforked.checks == [want]
        (_, trace), = forked.traces
        assert trace.last["error"] == "ValueError: relay welded shut"
        assert (trace.count, trace.last) == (301, unforked.traces[0][1].last)
        assert emitted(forked, tmp_path / "forked", capsys) == \
            emitted(unforked, tmp_path / "in-process", capsys)

    def test_a_run_that_exits_2_or_3_leaves_no_child(self, monkeypatch, tmp_path, capsys):
        # the point child is forked when the builder has run, before the
        # output directory is made, so an output error (exit 2) and a failed
        # check (exit 3) each meet a child to end
        config = tmp_path / "timeouts.json"
        config.write_text(json.dumps(DUTY_SWEEPS["timeouts"][1]), encoding="utf-8")
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n", encoding="utf-8")
        forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
        assert main(["duty-cycle", "--config", str(config), "--out", str(afile)]) == 2
        no_child_left()
        assert main(["duty-cycle", "--config", str(config), "--check",
                     "--out", str(tmp_path / "out")]) == 3
        no_child_left()
        assert forked().count(("here", POINTS)) == 2
        assert "checks failed: all-confirmed" in capsys.readouterr().err


# child -> (command, trace whose builder is interrupted, overrides, when, the child)
INTERRUPTED = {
    "trace-child": ("local-sched", "server", {}, 0.0, "building trace 'local'"),
    "trial-feed": ("compare-protocols", "trace", {}, 120.0, TRIALS),
    "point-feed": ("duty-cycle", "trace", {"duty_sweep": {"steps": 600}}, 7200.0, POINTS),
}


@pytest.mark.parametrize("child", list(INTERRUPTED))
def test_an_interrupted_run_kills_and_reaps_its_child(monkeypatch, tmp_path, child):
    # at each preset the child still has work to do when the run is
    # interrupted: local-sched's server trace at its start, and the trial or
    # point feed past its first chunk
    command, name, overrides, when, what = INTERRUPTED[child]
    build = COMMANDS[command][name][0]

    def interrupt(at, data):
        raise KeyboardInterrupt

    def interrupted(eng, cfg):
        horizon = build(eng, cfg)
        eng.schedule_at(when, "interrupt", fn=interrupt)
        return horizon

    set_builder(monkeypatch, command, name, interrupted)
    forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
    with pytest.raises(KeyboardInterrupt):
        run(command, resolve("default", overrides=overrides), tmp_path)
    assert forked().count(("here", what)) == 1
    no_child_left()


REFUSED_FORK_ARGS = {
    "local-sched": ["--duration", "86400"],
    "compare-protocols": ["--trials", "600"],
    "duty-cycle": ["--config", "{duty_600}"],
}
FIRST_CHILD = {"local-sched": "building trace 'local'", "compare-protocols": TRIALS,
               "duty-cycle": POINTS}


@pytest.mark.parametrize("command", sorted(REFUSED_FORK_ARGS))
def test_a_fork_that_fails_leaves_the_work_here(monkeypatch, tmp_path, capsys, command):
    # a system that refuses the process, or the pipe, leaves the run here,
    # with a forking run's outputs
    args = with_config(REFUSED_FORK_ARGS[command], tmp_path)

    def cli(out_dir):
        assert main([command, *args, "--out", str(out_dir)]) == 0
        no_child_left()
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        return capsys.readouterr().out, files

    def refused(code):
        return OSError(code, os.strerror(code))

    forked = forks_logged(monkeypatch, tmp_path / "forked.txt")
    want = cli(tmp_path / "forked")
    children = forked()
    # a trace forks an encoder where it is built, once it flushes a full block
    full = [name for name, data in want[1].items()
            if name.startswith("trace") and data.count(b"\n") - 2 >= sim.BLOCK_RECORDS]
    here = trace_file(next(iter(COMMANDS[command])))
    assert [what for who, what in children if who == "here"] == \
        [FIRST_CHILD[command]] + [encoder(tmp_path / "forked" / name)
                                  for name in full if name == here]
    # refused, each child is asked for here: the first child and every encoder
    with mock.patch.object(os, "fork", side_effect=refused(errno.EAGAIN)) as fork:
        assert cli(tmp_path / "no-process") == want
    assert fork.call_count == 1 + len(full)
    with mock.patch.object(os, "pipe", side_effect=refused(errno.EMFILE)) as pipe, \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert cli(tmp_path / "no-pipe") == want
    assert pipe.call_count == 1 + len(full)


class TestReplay:
    def test_same_config_twice_gives_identical_digest(self):
        cfg = small_default(trials=50)
        d1 = run("compare-protocols", cfg).traces[0][1].digest
        d2 = run("compare-protocols", cfg).traces[0][1].digest
        assert d1 == d2

    def test_written_trace_replays_identically(self, tmp_path):
        run("rtt-dist", small_default(duration_s=7200.0), tmp_path)
        path = tmp_path / "trace.jsonl"
        verdict = cmd_replay(path)
        assert verdict.identical

    def test_seed_change_diverges(self, tmp_path):
        run("rtt-dist", small_default(duration_s=7200.0), tmp_path)
        path = tmp_path / "trace.jsonl"
        text = path.read_text().replace('"seed":42', '"seed":43', 1)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(text)
        assert not cmd_replay(tampered).identical

    def test_intact_trace_is_read_by_decoding_its_header_and_footer(self, tmp_path):
        run("compare-protocols", small_default(trials=200), tmp_path)
        path = tmp_path / "trace.jsonl"
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            parsed = read_trace(path)
        assert loads.call_count == 2
        assert parsed.digest == parsed.stored_digest

    def test_edited_record_diverges_though_footer_and_rerun_agree(self, tmp_path):
        run("rtt-dist", small_default(duration_s=7200.0), tmp_path)
        path = tmp_path / "trace.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["state"]["rtt"] += 1.0
        lines[2] = canonical_json(record) + "\n"
        edited = tmp_path / "edited.jsonl"
        edited.write_text("".join(lines))
        assert cmd_replay(path).identical
        verdict = cmd_replay(edited)
        assert verdict.expected_digest == verdict.actual_digest == cmd_replay(path).file_digest
        assert verdict.file_digest != verdict.expected_digest
        assert not verdict.identical


# one small run per command
SMALL_CONFIGS = {
    "rtt-dist": lambda: small_default(),
    "compare-protocols": lambda: small_default(trials=200),
    "duty-cycle": lambda: resolve("duty-3g"),
    "local-sched": lambda: small_default(),
}


@pytest.fixture(scope="module", params=sorted(COMMANDS))
def written(request, tmp_path_factory):
    """A command's live output and the paths of its written trace files."""
    work = tmp_path_factory.mktemp(request.param)
    out = run(request.param, SMALL_CONFIGS[request.param](), work)
    paths = {name: work / trace_file(name) for name, _ in out.traces}
    return out, paths


def folded_file(command, name, path):
    """A fresh fold of ``command``'s trace ``name``, made from the config in
    the header of the file at ``path`` and handed the file's records."""
    records = []
    parsed = read_trace(path, records.append)
    raw = dict(parsed.header["config"])
    raw.pop("sched_variant", None)
    fold = COMMANDS[command][name][1](from_dict(raw))
    for rec in records:
        fold.add(rec)
    return fold


class TestTraceFiles:
    def test_post_processing_the_written_records_reproduces_the_run(self, written):
        # the trace files alone: config from each header, records from each body
        out, paths = written
        csvs, summary, checks = finish(folded_file(out.command, name, path)
                                       for name, path in paths.items())
        assert csvs == out.csvs
        assert summary == out.summary
        assert checks == out.checks

    @pytest.mark.parametrize("variant", SCHED_VARIANTS)
    def test_each_written_local_sched_trace_folds_on_its_own(self, tmp_path, variant):
        out = run("local-sched", small_default(), tmp_path)
        csvs, summary, checks = finish(
            [folded_file("local-sched", variant, tmp_path / trace_file(variant))])
        header, rows = csv_rows(out.csvs, "traffic.csv")
        assert list(csvs) == ["traffic.csv"]
        assert csv_rows(csvs, "traffic.csv") == (header, [row for row in rows if row[0] == variant])
        assert len(csv_rows(csvs, "traffic.csv")[1]) == 1
        assert summary == {variant: out.summary[variant]}
        assert checks == [c for c in out.checks if c.name.startswith(f"{variant}-")]
        assert len(checks) == 2

    def test_every_written_trace_replays_identically(self, written, capsys):
        out, paths = written
        assert sorted(paths) == sorted(COMMANDS[out.command])
        for path in paths.values():
            assert main(["replay", str(path)]) == 0
            assert capsys.readouterr().out.startswith(f"identical: {out.command} trace")


def _traced_peak(fn) -> int:
    """Peak bytes ``fn()`` allocates while tracemalloc traces it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_run_memory_does_not_grow_with_the_trace(self):
        # records are folded into CSV bytes and running totals as they are
        # emitted, so the peak grows by under 1 KB per trial; a run that kept
        # its records would grow by about 6 KB per trial
        peaks = {n: _traced_peak(lambda: run("compare-protocols", resolve(
            "default", overrides={"trials": n, "seed": 1}))) for n in (1000, 3000)}
        per_trial = (peaks[3000] - peaks[1000]) / 2000
        assert per_trial < 2048, f"{per_trial:.0f} bytes per trial ({peaks})"

    def test_a_fast_push_run_counts_what_it_diagnoses(self):
        # at a 0.5 s push period every collection overruns the period and
        # pushes overtake one another in transit; the collector and the
        # server store count these, so the peak grows by well under 2 KB per
        # trial, where a string per overrun and per discarded packet grew it
        # by about 3.6 KB. Both runs pass one chunk, so both fork alike
        fast_push = {"push_period_s": 0.5, "trial_spacing_s": 6.0, "seed": 1}
        peaks = {n: _traced_peak(lambda: run("compare-protocols", resolve(
            "default", overrides={**fast_push, "trials": n}))) for n in (300, 600)}
        per_trial = (peaks[600] - peaks[300]) / 300
        assert per_trial < 2048, f"{per_trial:.0f} bytes per trial ({peaks})"

    def test_read_trace_holds_neither_the_file_nor_its_records(self, tmp_path):
        run("compare-protocols", resolve("default", overrides={"trials": 200, "seed": 1}),
            tmp_path)
        path = tmp_path / "trace.jsonl"
        peak = _traced_peak(lambda: read_trace(path, lambda record: None))
        assert peak < path.stat().st_size, (peak, path.stat().st_size)
