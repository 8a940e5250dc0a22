"""Experiment harness tests: trace-derived metrics, determinism, replay."""
import pytest

from chargesim.cli import main
from chargesim.config import from_dict, resolve
from chargesim.experiments import COMMANDS, cmd_replay, run
from chargesim.sim import read_trace


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
        out = run("compare-protocols", small_default(trials=1000, fleet={"stations": [station]}))
        checks = {c.name: c for c in out.checks}
        assert checks["request-counts"].detail == (
            "legacy power=6, legacy full=12, aggregated pull=1 on every trial")
        assert checks["savings-identity"].ok, checks["savings-identity"].detail
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

    def test_rows_derive_from_trace(self):
        out = run("compare-protocols", resolve("worst-case-3g"))
        (name, trace), = out.traces
        trial_records = [r for r in trace.records if r["kind"] == "trial"]
        header, rows = out.csvs["retrievals.csv"]
        assert len(rows) == 4 * len(trial_records)


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

    def test_allocations_always_within_limit(self):
        out = run("local-sched", small_default())
        for _, trace in out.traces:
            for rec in trace.records:
                if rec["kind"] == "slot":
                    assert rec["state"]["total"] <= rec["state"]["limit"] + 1e-9

    def test_allocation_changes_only_at_slot_boundaries(self):
        # plug events land mid-slot; allocation records only exist at
        # multiples of the slot length
        cfg = small_default()
        trace = COMMANDS["local-sched"].builders["local"](cfg)
        slot = cfg.round_robin.slot_length_s
        for rec in trace.records:
            if rec["kind"] == "slot":
                assert rec["at"] % slot == pytest.approx(0.0, abs=1e-9)


class TestReplay:
    def test_same_config_twice_gives_identical_digest(self):
        cfg = small_default(trials=50)
        d1 = run("compare-protocols", cfg).traces[0][1].digest()
        d2 = run("compare-protocols", cfg).traces[0][1].digest()
        assert d1 == d2

    def test_written_trace_replays_identically(self, tmp_path):
        out = run("rtt-dist", small_default(duration_s=7200.0))
        path = tmp_path / "trace.jsonl"
        out.traces[0][1].write(path)
        verdict = cmd_replay(path)
        assert verdict.identical

    def test_seed_change_diverges(self, tmp_path):
        out = run("rtt-dist", small_default(duration_s=7200.0))
        path = tmp_path / "trace.jsonl"
        out.traces[0][1].write(path)
        text = path.read_text().replace('"seed":42', '"seed":43', 1)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(text)
        assert not cmd_replay(tampered).identical


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
    out = run(request.param, SMALL_CONFIGS[request.param]())
    work = tmp_path_factory.mktemp(request.param)
    paths = {}
    for name, trace in out.traces:
        paths[name] = work / f"{name}.jsonl"
        trace.write(paths[name])
    return out, paths


class TestTraceFiles:
    def test_post_processing_the_written_records_reproduces_the_run(self, written):
        # the trace files alone: config from each header, records from each body
        out, paths = written
        records = {}
        for name, path in paths.items():
            parsed = read_trace(path)
            raw = dict(parsed.header["config"])
            raw.pop("sched_variant", None)
            cfg = from_dict(raw)
            records[name] = parsed.records
        csvs, summary, checks = COMMANDS[out.command].post(cfg, records)
        assert csvs == out.csvs
        assert summary == out.summary
        assert checks == out.checks

    def test_every_written_trace_replays_identically(self, written, capsys):
        out, paths = written
        assert sorted(paths) == sorted(COMMANDS[out.command].builders)
        for path in paths.values():
            assert main(["replay", str(path)]) == 0
            assert capsys.readouterr().out.startswith(f"identical: {out.command} trace")
