"""Config loading and CLI behavior: presets, overrides, validation errors,
exit codes, output files."""
import json

import pytest
import yaml

from chargesim.cli import main
from chargesim.config import ConfigError, PRESETS, from_dict, resolve
from chargesim.domain import AlgorithmMode
from chargesim.latency import LinkKind


class TestConfig:
    def test_default_preset_resolves(self):
        cfg = resolve("default")
        assert cfg.seed == 42
        assert cfg.stations[0].outlets == 4
        assert cfg.links.threeg.hard_max == 4.5

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            resolve("no-such-preset")

    def test_override_merges_over_preset(self):
        cfg = resolve("worst-case-3g", overrides={"seed": 7})
        assert cfg.seed == 7
        assert cfg.budget.t_3g == 4.5

    def test_yaml_file_merges(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"seed": 9, "push_period_s": 10}))
        cfg = resolve("default", config_path=path)
        assert cfg.seed == 9
        assert cfg.push_period_s == 10.0

    def test_example_config_in_docs_loads(self):
        from pathlib import Path
        example = Path(__file__).resolve().parents[1] / "docs" / "config.example.yaml"
        cfg = resolve("default", config_path=example)
        assert cfg.links.threeg.hard_max == 4.5
        assert len(cfg.links.threeg.components) == 4

    def test_bad_field_names_its_path(self):
        with pytest.raises(ConfigError) as err:
            from_dict({"budget": {"t_3g": -1}})
        assert "budget" in str(err.value)
        with pytest.raises(ConfigError) as err:
            from_dict({"latency": {"threeg": {"components": [], "hard_max": 1.0}}})
        assert "latency.threeg" in str(err.value)
        with pytest.raises(ConfigError) as err:
            from_dict({"fleet": {"stations": [{"link": "carrier-pigeon"}]}})
        assert "fleet.stations[0].link" in str(err.value)

    def test_second_station_rejected_at_load(self):
        station = {"id": 0, "outlets": 4}
        with pytest.raises(ConfigError) as err:
            from_dict({"fleet": {"stations": [station, dict(station, id=1)]}})
        assert "fleet.stations" in str(err.value)

    def test_schedule_violating_limit_rejected_at_load(self):
        raw = {
            "fleet": {"stations": [{
                "id": 0, "circuit_limit_a": 40.0, "outlets": 4,
                "algorithm": "schedule_time",
            }]},
            "schedule_time": {"windows": {
                "0": [{"start_s": 0, "end_s": 43200, "amps": 16}],
                "1": [{"start_s": 0, "end_s": 43200, "amps": 16}],
                "2": [{"start_s": 0, "end_s": 43200, "amps": 16}],
            }},
        }
        with pytest.raises(ConfigError) as err:
            from_dict(raw)
        assert "48" in str(err.value)

    def test_round_robin_violating_limit_rejected_at_load(self):
        raw = {
            "fleet": {"stations": [{
                "id": 0, "circuit_limit_a": 40.0, "outlets": 4,
                "algorithm": "round_robin",
            }]},
            "round_robin": {"max_concurrent": 3, "per_active_current_a": 16},
        }
        with pytest.raises(ConfigError):
            from_dict(raw)

    def test_station_spec_builds_fresh_instances(self):
        cfg = resolve("default")
        s1 = cfg.stations[0].build()
        s2 = cfg.stations[0].build()
        assert s1 is not s2
        assert s1.link is LinkKind.THREE_G
        assert s1.local_algorithm is AlgorithmMode.NONE
        assert s1.meters[0].ev is not None

    def test_all_presets_resolve(self):
        for name in PRESETS:
            resolve(name)


class TestCli:
    def test_compare_worst_case_with_check(self, tmp_path, capsys):
        rc = main(["compare-protocols", "--preset", "worst-case-3g",
                   "--out", str(tmp_path), "--check"])
        assert rc == 0
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "retrievals.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        assert "speedup_power: 4.444" in (tmp_path / "summary.txt").read_text()

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("protocol: smoke-signals\n")
        rc = main(["rtt-dist", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_replay_identical_and_diverged(self, tmp_path, capsys):
        rc = main(["duty-cycle", "--preset", "duty-3g", "--out", str(tmp_path)])
        assert rc == 0
        trace = tmp_path / "trace.jsonl"
        assert main(["replay", str(trace)]) == 0
        assert "identical" in capsys.readouterr().out

        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(trace.read_text().replace('"seed":42', '"seed":43', 1))
        assert main(["replay", str(tampered)]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_replay_corrupt_file_exits_2(self, tmp_path, capsys):
        rc = main(["duty-cycle", "--preset", "duty-3g", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        lines[2] = lines[2][:6]
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(corrupt)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_failing_check_exits_3(self, tmp_path, capsys):
        # a config whose expectations cannot hold: demand an impossible speedup
        cfg = tmp_path / "impossible.yaml"
        cfg.write_text(yaml.safe_dump({
            "trials": 2,
            "expect": {"speedup_power": 1000.0, "speedup_tolerance": 0.01},
        }))
        rc = main(["compare-protocols", "--preset", "worst-case-3g",
                   "--config", str(cfg), "--out", str(tmp_path), "--check"])
        assert rc == 3
        assert "checks failed" in capsys.readouterr().err

    def test_truncated_trace_exits_3_and_names_the_failed_event(self, tmp_path, capsys,
                                                                monkeypatch):
        # a handler that raises on the third trial truncates the trace there
        from chargesim import proto

        real_pic_pull = proto.pic_pull
        calls = []

        def failing_pic_pull(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("injected fault")
            return real_pic_pull(*args, **kwargs)

        monkeypatch.setattr(proto, "pic_pull", failing_pic_pull)
        rc = main(["compare-protocols", "--trials", "200", "--out", str(tmp_path)])
        assert rc == 3
        assert "checks failed: trace-complete" in capsys.readouterr().err
        summary = (tmp_path / "summary.txt").read_text()
        assert ("check trace-complete: FAIL (trace truncated: event 'trial' at 120.0 s "
                "failed: RuntimeError: injected fault)") in summary
        records = [json.loads(line) for line in
                   (tmp_path / "trace.jsonl").read_text().splitlines()[1:-1]]
        assert "error" in records[-1]

    def test_short_timeout_gives_a_complete_trace(self, tmp_path):
        # a timeout below the cellular 4.5 s hard max times some pulls out;
        # each timeout is recorded as an outcome and the run completes
        cfg = tmp_path / "short-timeout.yaml"
        cfg.write_text(yaml.safe_dump({"trials": 200, "timeout_s": 2.0}))
        rc = main(["compare-protocols", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert "trace_digest" in json.loads(lines[-1])
        assert not any("error" in json.loads(line) for line in lines[1:-1])
        rows = (tmp_path / "retrievals.csv").read_text().splitlines()[1:]
        pic_walls = [float(r.split(",")[2]) for r in rows if ",pic_pull," in r]
        assert len(pic_walls) == 200
        assert 2.0 in pic_walls  # at least one aggregated pull timed out

    @pytest.mark.parametrize("config, path", [
        ({"protocol": "legacy_pull"}, "protocol"),
        ({"legacy_pipelined": True}, "legacy_pipelined"),
    ])
    def test_fixed_keys_accept_only_their_default(self, tmp_path, capsys, config, path):
        cfg = tmp_path / "fixed.yaml"
        cfg.write_text(yaml.safe_dump(config))
        rc = main(["compare-protocols", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: {path}: only " in capsys.readouterr().err

    @pytest.mark.parametrize("config, path", [
        ({"fleet": {"stations": [{"id": 0, "evs": []}]}}, "fleet.stations[0].evs"),
        ({"duty_sweep": {"i_final_a": 60}}, "duty_sweep.i_final_a"),
        ({"duty_sweep": {"steps": 0}}, "duty_sweep.steps"),
        # the sweep ends every point at i_final_a on the first EV's outlet
        ({"fleet": {"stations": [{"id": 0, "evs": [{"outlet": 0, "max_current_a": 10.0}]}]}},
         "duty_sweep.i_final_a"),
        ({"fleet": {"stations": [{"id": 0, "circuit_limit_a": 20.0, "evs": [{"outlet": 0}]}]}},
         "duty_sweep.i_final_a"),
    ])
    def test_bad_duty_sweep_input_exits_2(self, tmp_path, capsys, config, path):
        cfg = tmp_path / "duty.yaml"
        cfg.write_text(yaml.safe_dump(config))
        rc = main(["duty-cycle", "--preset", "duty-3g", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    def test_round_robin_checked_on_a_station_of_any_algorithm(self, tmp_path, capsys):
        # local-sched runs round robin on stations[0] whatever its algorithm
        cfg = tmp_path / "rr.yaml"
        cfg.write_text(yaml.safe_dump(
            {"round_robin": {"max_concurrent": 3, "per_active_current_a": 16.0}}))
        rc = main(["local-sched", "--duration", "86400", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: round_robin: 48.0 A worst case" in capsys.readouterr().err
        assert not (tmp_path / "trace_server.jsonl").exists()

    def test_station_without_outlets_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "outlets.yaml"
        cfg.write_text(yaml.safe_dump({"fleet": {"stations": [{"id": 0, "outlets": 0}]}}))
        rc = main(["compare-protocols", "--trials", "20", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: fleet.stations[0].outlets: " in capsys.readouterr().err

    @pytest.mark.parametrize("config, path", [
        ({"trails": 5}, "trails"),
        ({"budget": {"t_4g": 1.0}}, "budget.t_4g"),
        ({"round_robin": {"slot_s": 60}}, "round_robin.slot_s"),
        ({"duty_sweep": {"step": 5}}, "duty_sweep.step"),
        ({"fleet": {"stations": [{"id": 0, "outlet": 4}]}}, "fleet.stations[0].outlet"),
        ({"fleet": {"stations": [{"id": 0, "evs": [{"outlet": 0, "max_amps": 16}]}]}},
         "fleet.stations[0].evs[0].max_amps"),
        ({"serve_cache": "no"}, "serve_cache"),
        ({"trials": 2.7}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"fleet": {"stations": [{"id": 0, "outlets": 4.0}]}}, "fleet.stations[0].outlets"),
        ({"fleet": {"stations": [{"id": 0.5}]}}, "fleet.stations[0].id"),
        ({"fleet": {"stations": [{"id": 0, "evs": [{"outlet": 1.0}]}]}},
         "fleet.stations[0].evs[0].outlet"),
        ({"fleet": {"stations": [{"id": 0, "evs": [{"outlet": 1}, {"outlet": 1}]}]}},
         "fleet.stations[0].evs[1].outlet"),
        ({"round_robin": {"max_concurrent": 1.5}}, "round_robin.max_concurrent"),
        # a trace header holds strict JSON, which has no NaN or infinity
        ({"probe_period_s": float("inf")}, "probe_period_s"),
        ({"timeout_s": float("nan")}, "timeout_s"),
    ])
    def test_input_that_would_load_silently_wrong_exits_2(self, tmp_path, capsys, config, path):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(yaml.safe_dump(config))
        rc = main(["rtt-dist", "--duration", "600", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        rc = main(["duty-cycle", "--preset", "duty-3g", "--seed", "123",
                   "--out", str(tmp_path)])
        assert rc == 0
        header = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
        assert header["seed"] == 123

    def test_svg_output(self, tmp_path):
        rc = main(["rtt-dist", "--preset", "default", "--duration", "7200",
                   "--out", str(tmp_path), "--format", "svg"])
        assert rc == 0
        assert (tmp_path / "hist_threeg.svg").exists()
