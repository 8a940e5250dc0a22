"""Experiment harness tests: trace-derived metrics, determinism, replay,
local-sched's variant traces built in forked children, and compare-protocols'
trial outcomes computed in one."""
import contextlib
import csv
import json
import os
import threading
import time
import tracemalloc
from functools import partial
from unittest import mock

import pytest

from chargesim import pic, proto
from chargesim.cli import _emit, main
from chargesim.config import ConfigError, from_dict, resolve
from chargesim.experiments import (
    COMMANDS,
    FORK_CHUNK,
    SCHED_VARIANTS,
    Check,
    ExperimentOutput,
    build_trace,
    cmd_replay,
    run,
    trace_file,
)
from chargesim.latency import LinkKind, worst_case_budget
from chargesim.proto import push_cycle_time
from chargesim.sched import schedule_time_step
from chargesim.sim import canonical_json, read_trace


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
        header, rows = out.csvs["hist_threeg.csv"]
        assert header == ("bin_low", "bin_high", "count")
        assert sum(r[2] for r in rows) == 288

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
        out = run("compare-protocols", small_default(trials=10_000, fleet={"stations": [station]}))
        checks = {c.name: c for c in out.checks}
        assert checks["request-counts"].detail == (
            "legacy power=6, legacy full=12, aggregated pull=1 on every trial")
        assert checks["savings-identity"].ok, checks["savings-identity"].detail
        assert out.ok, [c for c in out.checks if not c.ok]

    @pytest.mark.parametrize("link, identities", [("wifi", True), ("ethernet", False)])
    def test_checks_pass_on_a_station_of_any_uplink(self, link, identities):
        # pushes, the push cycle and both budgets take the station's uplink; on
        # Ethernet the analytic saving is not positive, so no identity is checked
        station = {"id": 0, "link": link, "evs": [{"outlet": k} for k in range(3)]}
        out = run("compare-protocols", resolve("default", overrides={"fleet": {"stations": [station]}}))
        assert out.ok, [c for c in out.checks if not c.ok]
        names = {c.name for c in out.checks}
        assert ({"savings-identity", "retrieval-identities"} <= names) is identities

    def test_pushes_cross_the_station_uplink(self):
        # on a WiFi station each push arrives within one worst-case WiFi
        # collect-and-push cycle of its sweep, well inside a cellular transit
        station = {"id": 0, "link": "wifi", "evs": [{"outlet": k} for k in range(3)]}
        cfg = small_default(trials=0, fleet={"stations": [station]})
        _, rows = run("compare-protocols", cfg).csvs["staleness.csv"]
        arrivals = [stale for _, source, stale in rows if source == "push-arrive"]
        assert len(arrivals) > 2800
        assert max(arrivals) <= push_cycle_time(worst_case_budget(cfg.links, LinkKind.WIFI), 4)

    def test_identities_hold_with_a_cloud_term(self, tmp_path):
        # every legacy round trip carries the cloud hops, and so do the closed
        # forms: at the parent, savings were 10.7% and legacy 8.4% off, exit 3
        config = tmp_path / "cloud.json"
        config.write_text(json.dumps({"latency": {"t_server_cloud": 0.05, "t_cloud": 0.1}}))
        out = tmp_path / "out"
        assert main(["compare-protocols", "--config", str(config), "--check",
                     "--out", str(out)]) == 0
        checks = [line for line in (out / "summary.txt").read_text().splitlines()
                  if line.startswith("check ")]
        assert any(line.startswith("check savings-identity: PASS") for line in checks)
        assert any(line.startswith("check retrieval-identities: PASS") for line in checks)

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
        header, rows = out.csvs["retrievals.csv"]
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
    def test_sweep_at_a_rounding_edge_completes(self, overrides):
        out = run("duty-cycle", resolve("duty-3g", overrides=overrides))
        assert out.ok, [c for c in out.checks if not c.ok]
        points = out.csvs["duty_sweep.csv"][1]
        assert [p.delta_a for p in points][-1] == overrides["duty_sweep"]["i_final_a"]


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


def built_in_turn(cfg, out_dir) -> ExperimentOutput:
    """The oracle: local-sched's traces built one after the other in this
    process, into one fold."""
    fold = COMMANDS["local-sched"].fold(cfg)
    out = ExperimentOutput("local-sched", [
        (name, build_trace("local-sched", name, cfg, partial(fold.add, name), out_dir))
        for name in SCHED_VARIANTS])
    out.csvs, out.summary, out.checks = fold.finish()
    return out


class TestForkedTraces:
    @pytest.mark.parametrize("config", sorted(FORK_CONFIGS))
    def test_forked_run_matches_the_traces_built_in_turn(self, tmp_path, capsys, config):
        cfg = FORK_CONFIGS[config]()
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            forked = run("local-sched", cfg, tmp_path / "forked")
        assert fork.call_count == 1
        no_child_left()
        oracle = built_in_turn(cfg, tmp_path / "oracle")
        assert forked.ok, [c for c in forked.checks if not c.ok]
        assert (forked.csvs, forked.summary, forked.checks) == \
            (oracle.csvs, oracle.summary, oracle.checks)
        for (name, trace), (oracle_name, want) in zip(forked.traces, oracle.traces):
            assert name == oracle_name
            assert (trace.digest(), trace.count, trace.last, trace.failed) == \
                (want.digest(), want.count, want.last, want.failed)
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
        builders = COMMANDS["local-sched"].builders
        build = builders[variant]

        def failing(eng, cfg):
            horizon = build(eng, cfg)
            eng.schedule_at(3600.0, "boom", fn=lambda at, data: 1 / 0)
            return horizon

        monkeypatch.setitem(builders, variant, failing)
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

        monkeypatch.setitem(COMMANDS["local-sched"].builders, "local", refuse)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                pytest.raises(ConfigError, match="^round_robin: refused by the local builder$"):
            run("local-sched", small_default(), tmp_path)
        assert fork.call_count == 1
        no_child_left()
        assert [p.name for p in tmp_path.iterdir()] == ["trace_server.jsonl"]

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

        monkeypatch.setitem(COMMANDS["local-sched"].builders, "local", die)
        with pytest.raises(RuntimeError, match="building trace 'local' exited with code 5"):
            run("local-sched", small_default())
        no_child_left()

    def test_an_interrupted_run_kills_and_reaps_its_child(self, monkeypatch, tmp_path):
        builders = COMMANDS["local-sched"].builders
        build = builders["server"]

        def interrupt(at, data):
            raise KeyboardInterrupt

        def interrupted(eng, cfg):
            horizon = build(eng, cfg)
            eng.schedule_at(0.0, "interrupt", fn=interrupt)
            return horizon

        monkeypatch.setitem(builders, "server", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run("local-sched", resolve("default"), tmp_path)
        no_child_left()


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


def in_process_compare(monkeypatch, cfg, out_dir, how):
    """compare-protocols run with its trial outcomes computed here: with
    ``os.fork`` deleted, or with a second thread running."""
    if how == "no-fork":
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            return run("compare-protocols", cfg, out_dir)
    with second_thread_running():
        return run("compare-protocols", cfg, out_dir)


class TestForkedTrials:
    """compare-protocols computes its trials' legacy pulls and push-cycle
    estimates in a forked child when it may fork, and here otherwise."""

    @pytest.mark.parametrize("config", sorted(TRIAL_CONFIGS))
    def test_forked_trials_match_the_trials_computed_here(self, monkeypatch, tmp_path, capsys,
                                                          config):
        cfg = small_default(**TRIAL_CONFIGS[config])
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            forked = run("compare-protocols", cfg, tmp_path / "forked")
        assert fork.call_count == (1 if cfg.trials > FORK_CHUNK else 0)
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
            out = in_process_compare(monkeypatch, cfg, tmp_path / how, how)
            no_child_left()
            (_, oracle), = out.traces
            assert (trace.digest(), trace.count, trace.last, trace.failed) == \
                (oracle.digest(), oracle.count, oracle.last, oracle.failed)
            assert (forked.csvs, forked.summary, forked.checks) == \
                (out.csvs, out.summary, out.checks)
            assert emitted(out, tmp_path / how, capsys) == want
        # the low timeout is the only config whose legacy requests time out
        assert bool(errors) == (config == "timeouts")

    def test_a_trial_that_raises_in_the_child_fails_as_it_does_here(self, monkeypatch, tmp_path,
                                                                    capsys):
        legacy_pull = proto.legacy_pull

        def failing(*args, **kwargs):
            if kwargs["at"] == 600.0 and kwargs["include_status"]:
                raise ValueError("no reply from meter 2")
            return legacy_pull(*args, **kwargs)

        monkeypatch.setattr(proto, "legacy_pull", failing)
        cfg = small_default(trials=600)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            forked = run("compare-protocols", cfg, tmp_path / "forked")
        assert fork.call_count == 1
        no_child_left()
        in_process = in_process_compare(monkeypatch, cfg, tmp_path / "in-process", "no-fork")
        no_child_left()
        want = Check("trace-complete", False, "trace truncated: event 'trial' at 600.0 s "
                                              "failed: ValueError: no reply from meter 2")
        assert forked.checks == in_process.checks == [want]
        assert emitted(forked, tmp_path / "forked", capsys) == \
            emitted(in_process, tmp_path / "in-process", capsys)

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
        start = time.monotonic()
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            out = run("compare-protocols", resolve("default"), tmp_path)
        assert time.monotonic() - start < 30.0
        assert fork.call_count == 1
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

    def test_an_interrupted_run_kills_and_reaps_its_child(self, monkeypatch, tmp_path):
        builders = COMMANDS["compare-protocols"].builders
        build = builders["trace"]

        def interrupt(at, data):
            raise KeyboardInterrupt

        def interrupted(eng, cfg):
            horizon = build(eng, cfg)
            eng.schedule_at(120.0, "interrupt", fn=interrupt)
            return horizon

        monkeypatch.setitem(builders, "trace", interrupted)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                pytest.raises(KeyboardInterrupt):
            run("compare-protocols", resolve("default"), tmp_path)
        assert fork.call_count == 1
        no_child_left()


class TestReplay:
    def test_same_config_twice_gives_identical_digest(self):
        cfg = small_default(trials=50)
        d1 = run("compare-protocols", cfg).traces[0][1].digest()
        d2 = run("compare-protocols", cfg).traces[0][1].digest()
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


class TestTraceFiles:
    def test_post_processing_the_written_records_reproduces_the_run(self, written):
        # the trace files alone: config from each header, records from each body
        out, paths = written
        records = {}
        for name, path in paths.items():
            records[name] = []
            parsed = read_trace(path, records[name].append)
            raw = dict(parsed.header["config"])
            raw.pop("sched_variant", None)
            cfg = from_dict(raw)
        fold = COMMANDS[out.command].fold(cfg)
        for name, body in records.items():
            for rec in body:
                fold.add(name, rec)
        csvs, summary, checks = fold.finish()
        assert csvs == out.csvs
        assert summary == out.summary
        assert checks == out.checks

    def test_every_written_trace_replays_identically(self, written, capsys):
        out, paths = written
        assert sorted(paths) == sorted(COMMANDS[out.command].builders)
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
        # records are folded into per-trial tuples as they are emitted, so
        # the peak grows by under 1 KB per trial; a run that kept its
        # records would grow by about 6 KB per trial
        peaks = {n: _traced_peak(lambda: run("compare-protocols", resolve(
            "default", overrides={"trials": n, "seed": 1}))) for n in (1000, 3000)}
        per_trial = (peaks[3000] - peaks[1000]) / 2000
        assert per_trial < 2048, f"{per_trial:.0f} bytes per trial ({peaks})"

    def test_read_trace_holds_neither_the_file_nor_its_records(self, tmp_path):
        run("compare-protocols", resolve("default", overrides={"trials": 200, "seed": 1}),
            tmp_path)
        path = tmp_path / "trace.jsonl"
        peak = _traced_peak(lambda: read_trace(path, lambda record: None))
        assert peak < path.stat().st_size, (peak, path.stat().st_size)
