"""Config loading and CLI behavior: presets, overrides, validation errors,
exit codes, output files."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from chargesim.cli import main
from chargesim.config import (
    PRESETS,
    SCHEMA,
    ByOutlet,
    ConfigError,
    ListOf,
    Section,
    from_dict,
    resolve,
)
from chargesim.domain import AlgorithmMode
from chargesim.experiments import run
from chargesim.latency import LinkKind
from chargesim.sim import TRACE_FORMAT

import cli_cases

COMPONENT = {"weight": 1.0, "location": 1.0, "spread": 0.1}
MODEL = {"components": [COMPONENT], "hard_max": 4.5}
WINDOW = {"start_s": 0.0, "end_s": 3600.0, "amps": 16.0}
EXAMPLE = Path(__file__).resolve().parents[1] / "docs" / "config.example.yaml"
SRC = Path(__file__).resolve().parents[1] / "src"


class TestConfig:
    def test_default_preset_resolves(self):
        cfg = resolve("default")
        assert cfg.seed == 42
        assert cfg.station.outlets == 4
        assert cfg.links.threeg.hard_max == 4.5

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            resolve("no-such-preset")

    def test_override_merges_over_preset(self):
        cfg = resolve("worst-case-3g", overrides={"seed": 7})
        assert cfg.seed == 7
        assert cfg.budget.t_uplink == 4.5

    def test_yaml_file_merges(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({"seed": 9, "push_period_s": 10}))
        cfg = resolve("default", config_path=path)
        assert cfg.seed == 9
        assert cfg.push_period_s == 10.0

    @pytest.mark.parametrize("name, text", [
        ("exp.yaml", "push_period_s: 6e1\ntrial_spacing_s: 1E+2\nt_status_read_s: 1.5E-3\n"
                     "probe_period_s: {tiny}\n"),
        ("exp.json", '{{"push_period_s": 6e1, "trial_spacing_s": 1E+2, "t_status_read_s": 1.5E-3, '
                     '"probe_period_s": {tiny}}}'),
    ], ids=["yaml", "json"])
    def test_exponent_without_a_dot_is_a_number(self, tmp_path, capsys, name, text):
        # JSON and YAML 1.2 read 6e1 and 3.0e2 as numbers, where YAML 1.1
        # reads strings (it wants a dot and a signed exponent)
        path = tmp_path / name
        for tiny in ("3e2", "3.0e2"):
            path.write_text(text.format(tiny=tiny))
            cfg = resolve("default", config_path=path)
            assert (cfg.push_period_s, cfg.trial_spacing_s, cfg.probe_period_s,
                    cfg.t_status_read_s) == (60.0, 100.0, 300.0, 1.5e-3)
        # a number too, so the run that schedules its series refuses it
        path.write_text(text.format(tiny="1e-6"))
        cfg = resolve("default", config_path=path)
        assert cfg.probe_period_s == 1e-6
        assert main(["rtt-dist", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert re.match(r"config error: probe_period_s: .* more than the limit",
                        capsys.readouterr().err)
        assert not (tmp_path / "out" / "trace.jsonl").exists()

    def test_yaml_integers_stay_integers(self, tmp_path):
        # the YAML 1.2 float pattern matches digits alone; the integer form
        # must still win, since counts must be integers
        path = tmp_path / "exp.yaml"
        path.write_text("seed: 9\ntrials: +12\nprobe_period_s: .5e3\n")
        cfg = resolve("default", config_path=path)
        assert (cfg.seed, cfg.trials, cfg.probe_period_s) == (9, 12, 500.0)

    def test_json_config_and_cli_import_leave_pyyaml_unloaded(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"probe_period_s": 3.0e2}')
        script = ("import sys; import chargesim.cli; assert 'yaml' not in sys.modules; "
                  "from chargesim.config import resolve; "
                  "assert resolve(config_path=sys.argv[1]).probe_period_s == 300.0; "
                  "assert 'yaml' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_cli_start_up_loads_neither_dataclasses_nor_inspect(self, tmp_path):
        # every CLI run imports the package afresh; generating dataclass
        # methods and importing `dataclasses` (which loads `inspect`) took
        # about a fifth of that start-up. Only a run that forks loads the
        # fork modules, and start-up forks nothing.
        path = tmp_path / "exp.json"
        path.write_text('{"seed": 3}')
        script = ("import sys; import chargesim.cli; from chargesim.config import resolve; "
                  "resolve(config_path=sys.argv[1]); "
                  "print(sorted({'dataclasses', 'inspect', 'pickle', 'signal', 'threading'} "
                  "& set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", script, str(path)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command, trials, children, loaded", [
        ("rtt-dist", 600, [], []),
        ("local-sched", 600, ["building trace 'local'"], ["pickle", "threading"]),
        ("duty-cycle", 600, [], []),
        ("compare-protocols", 600,
         ["computing compare-protocols trials", "encoding trace {out}/trace.jsonl"],
         ["pickle", "threading"]),
        ("compare-protocols", 256, ["encoding trace {out}/trace.jsonl"],
         ["pickle", "threading"]),
    ], ids=["rtt-dist-loaded0", "local-sched-loaded1", "duty-cycle-loaded2",
            "compare-protocols-loaded3", "compare-protocols-256-trials"])
    def test_only_a_run_that_may_fork_loads_the_fork_modules(self, tmp_path, command, trials,
                                                             children, loaded):
        # no run loads dataclasses or inspect, and a run that forks nothing
        # pays for none of the fork modules. local-sched builds
        # its second trace, compare-protocols computes more than one chunk of
        # trials, and a trace that flushes a full block encodes it, in a
        # child; `children` lists what each child this process forks does,
        # with CPUs enough for each. Only a child that must be killed loads
        # `signal`.
        script = "\n".join([
            "import sys",
            "from chargesim import cli, sim",
            "sim._cpus = lambda: 64",
            "forked, fork_child = [], sim.fork_child",
            "def recorded(what, serve):",
            "    forked.append(what)",
            "    return fork_child(what, serve)",
            "sim.fork_child = recorded",
            "code = cli.main([sys.argv[1], '--duration', '3600', '--trials', sys.argv[3],",
            "                 '--out', sys.argv[2]])",
            "print(code, forked, sorted({'dataclasses', 'inspect', 'pickle', 'signal', "
            "'threading'} & set(sys.modules)))",
        ])
        proc = subprocess.run([sys.executable, "-S", "-c", script, command, str(tmp_path),
                               str(trials)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        children = [what.format(out=tmp_path) for what in children]
        assert proc.stdout.splitlines()[-1] == f"0 {children} {loaded}"

    def test_yaml_config_without_pyyaml_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # `import yaml` raises ImportError once its sys.modules entry is None
        monkeypatch.setitem(sys.modules, "yaml", None)
        path = tmp_path / "exp.yaml"
        path.write_text("seed: 3\n")
        assert main(["rtt-dist", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.match(r"config error: config file: .*needs PyYAML, which is not installed", err)
        assert "Traceback" not in err
        assert not (tmp_path / "trace.jsonl").exists()
        path = tmp_path / "exp.json"
        path.write_text('{"seed": 3}')
        assert resolve(config_path=path).seed == 3

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_bytes(b"seed: \xff\n")
        with pytest.raises(ConfigError, match=r"^config file: .*utf-8"):
            resolve("default", config_path=path)

    @pytest.mark.parametrize("text", ["seed: 2020-13-45\n", "seed: 2020-02-30\n"],
                             ids=["month-13", "february-30"])
    def test_date_that_cannot_exist_is_a_config_error(self, tmp_path, text):
        # YAML reads both as timestamps, and PyYAML cannot construct them
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"^config file: "):
            resolve("default", config_path=path)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts integer strings of any length")
    @pytest.mark.parametrize("name, template", [("exp.json", '{{"seed": {}}}\n'),
                                                ("exp.yaml", "seed: {}\n")],
                             ids=["json", "yaml"])
    def test_integer_past_the_int_string_limit_is_a_config_error(self, tmp_path, name, template):
        path = tmp_path / name
        path.write_text(template.format("9" * (sys.get_int_max_str_digits() + 1)))
        with pytest.raises(ConfigError, match=r"^config file: "):
            resolve("default", config_path=path)

    def test_unconstructible_scalar_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text("seed: 2020-02-30\n")
        assert main(["rtt-dist", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: config file: ")
        assert not (tmp_path / "trace.jsonl").exists()

    def test_example_config_in_docs_loads(self):
        cfg = resolve("default", config_path=EXAMPLE)
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

    @pytest.mark.parametrize("raw, path", [
        ({"probe_period_s": 1e-6}, "probe_period_s"),
        ({"push_period_s": 1e-3}, "push_period_s"),
        ({"round_robin": {"slot_length_s": 0.01}}, "round_robin.slot_length_s"),
        # the trials span 10^10 s, far past duration_s
        ({"trials": 10**6, "trial_spacing_s": 1e4}, "probe_period_s"),
        ({"trials": 10**7 + 1}, "trials"),
        ({"trials": 10**400}, "trials"),  # too large for a float horizon
        ({"duty_sweep": {"steps": 10**7 + 1}}, "duty_sweep.steps"),
    ])
    def test_series_too_long_to_finish_rejected_at_load(self, raw, path, tmp_path):
        # by the command that schedules the series, a period over that
        # command's horizon, and before the trace file opens; the trial count
        # before compare-protocols computes its float horizon from it
        command = {"probe_period_s": "compare-protocols", "push_period_s": "compare-protocols",
                   "trials": "compare-protocols", "duty_sweep.steps": "duty-cycle",
                   "round_robin.slot_length_s": "local-sched"}[path]
        cfg = from_dict(raw)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
            run(command, cfg, tmp_path)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["rtt-dist", "local-sched"])
    def test_trial_count_binds_only_the_command_that_runs_trials(self, tmp_path, capsys,
                                                                 command):
        # neither command schedules trials, so a count past the limit is no error
        argv = [command, "--duration", "3600", "--trials", "20000000", "--out", str(tmp_path)]
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("command, code", [("rtt-dist", 0), ("compare-protocols", 2)])
    def test_series_is_judged_over_its_own_commands_horizon(self, tmp_path, capsys, command,
                                                            code):
        # 72,000 probes per link over rtt-dist's hour; compare-protocols'
        # stale probes run over its 10^4 trials x 60 s, 1.2e7 of them
        cfg = tmp_path / "probes.json"
        cfg.write_text('{"probe_period_s": 0.05}')
        argv = [command, "--config", str(cfg), "--duration", "3600", "--out", str(tmp_path / "o")]
        assert main(argv) == code
        if code:
            assert capsys.readouterr().err == (
                "config error: probe_period_s: 0.05 s over 600000.0 s is 1.2e+07 events, "
                "more than the limit of 10000000\n")
            assert not (tmp_path / "o").exists()
        else:
            # the 72,000th probe's time, summed period by period, ends just past the hour
            summary = (tmp_path / "o" / "summary.txt").read_text()
            assert summary.count("'probes': 71999,") == len(LinkKind)

    def test_station_spec_builds_fresh_instances(self):
        cfg = resolve("default")
        s1 = cfg.station.build()
        s2 = cfg.station.build()
        assert s1 is not s2
        assert s1.link is LinkKind.THREE_G
        assert s1.local_algorithm is AlgorithmMode.NONE
        assert s1.meters[0].ev is not None

    def test_all_presets_resolve(self):
        for name in PRESETS:
            resolve(name)

    def test_empty_config_builds_the_default_config(self):
        # every default is written once, in the schema
        assert from_dict({})._replace(raw=None) == resolve("default")._replace(raw=None)

    def test_schedule_outlet_keys_load_as_integers(self):
        # JSON config files and trace headers carry outlet keys as strings
        as_int = from_dict({"schedule_time": {"windows": {2: [WINDOW]}}})
        as_str = from_dict({"schedule_time": {"windows": {"2": [WINDOW]}}})
        assert as_int.schedule_time == as_str.schedule_time
        assert list(as_str.schedule_time.windows) == [2]

    def test_example_config_names_every_schema_key(self):
        text = EXAMPLE.read_text()

        def keys(node):
            if isinstance(node, Section):
                for key, sub in node.fields.items():
                    yield key
                    yield from keys(sub)
            elif isinstance(node, (ListOf, ByOutlet)):
                yield from keys(node.item)

        missing = sorted({key for key in keys(SCHEMA)
                          if not re.search(rf"\b{re.escape(key)}\b", text)})
        assert not missing


class TestCli:
    def test_compare_worst_case_with_check(self, tmp_path, capsys):
        rc = main(["compare-protocols", "--preset", "worst-case-3g",
                   "--out", str(tmp_path), "--check"])
        assert rc == 0
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "retrievals.csv").exists()
        assert (tmp_path / "summary.txt").exists()
        assert "speedup_power: 4.444" in (tmp_path / "summary.txt").read_text()
        capsys.readouterr()
        assert main(["replay", str(tmp_path / "trace.jsonl")]) == 0
        assert capsys.readouterr().out.startswith("identical: compare-protocols trace")

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

    def test_replay_of_an_edited_record_diverges(self, tmp_path, capsys):
        # the footer and the re-run still agree; only the file's own record changed
        assert main(["duty-cycle", "--preset", "duty-3g", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines(keepends=True)
        assert '"latency":10.5' in lines[3]
        lines[3] = lines[3].replace('"latency":10.5', '"latency":11.5')
        edited = tmp_path / "edited.jsonl"
        edited.write_text("".join(lines))
        capsys.readouterr()
        assert main(["replay", str(edited)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("diverged: duty-cycle trace") and "header and records hash to" in err

    def test_replay_corrupt_file_exits_2(self, tmp_path, capsys):
        rc = main(["duty-cycle", "--preset", "duty-3g", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        lines[2] = lines[2][:6]
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(corrupt)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_replay_of_a_line_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["duty-cycle", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.jsonl").read_bytes().split(b"\n")
        lines[5] = lines[5][:20] + b"\xff" + lines[5][21:]
        edited = tmp_path / "edited.jsonl"
        edited.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["replay", str(edited)]) == 2
        assert capsys.readouterr().err == \
            "replay error: line 6: not UTF-8 (byte 21: invalid start byte)\n"

    def test_replay_of_a_trace_saved_with_crlf_line_ends_diverges(self, tmp_path, capsys):
        # lines end at "\n" alone: each "\r" is part of the line it ends, so
        # the lines no longer hash to the footer, but every one still parses
        assert main(["duty-cycle", "--out", str(tmp_path)]) == 0
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes((tmp_path / "trace.jsonl").read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        assert main(["replay", str(crlf)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("diverged: duty-cycle trace") and "header and records hash to" in err

    @pytest.mark.parametrize("header, problem", [
        ({"command": "no-such-command", "config": {}}, "unknown command"),
        ({"command": "rtt-dist"}, "carries no config"),
        ({"command": "local-sched", "config": {"sched_variant": "other"}},
         "local-sched writes no trace named 'other'"),
        # header fields of a type no command or trace name has
        ({"command": ["rtt-dist"], "config": {}}, "unknown command"),
        ({"command": "local-sched", "config": {"sched_variant": ["local"]}},
         "writes no trace named"),
    ], ids=["unknown-command", "no-config", "unknown-trace-name",
            "command-not-a-string", "trace-name-not-a-string"])
    def test_unreplayable_trace_exits_2(self, tmp_path, capsys, header, problem):
        # an exception escaping main would fail the exit-code assertion
        trace = tmp_path / "trace.jsonl"
        lines = [{"format": TRACE_FORMAT, "seed": 42, **header}, {"trace_digest": "0" * 64}]
        trace.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["replay", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("replay error: ")
        assert problem in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", ["rtt-dist", "duty-cycle"])
    def test_a_full_disk_is_an_output_error_that_leaves_no_child(self, tmp_path, capsys,
                                                                 command):
        # rtt-dist's default week (6,048 records) asks for an encoder child at
        # its first full block, and the flush of the header before that fork
        # meets the full disk; duty-cycle's default sweep (33 records) stays
        # within one block, encoded in the process, and meets it at the end
        (tmp_path / "trace.jsonl").symlink_to("/dev/full")
        assert main([command, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
        # no output reads these: a value they would ignore is refused
        ({"budget": {"t_server_cloud": 0.05}}, "budget.t_server_cloud"),
        ({"budget": {"t_cloud": 0.1}}, "budget.t_cloud"),
        ({"budget": {"t_ethernet": 0.001}}, "budget.t_ethernet"),
        ({"budget": {"t_wifi": 9}}, "budget.t_wifi"),
        ({"budget": {"t_metering": 3}}, "budget.t_metering"),
        ({"fleet": {"stations": [{"id": 0, "voltage_v": 230}]}}, "fleet.stations[0].voltage_v"),
    ])
    def test_fixed_keys_accept_only_their_default(self, tmp_path, capsys, config, path):
        cfg = tmp_path / "fixed.yaml"
        cfg.write_text(yaml.safe_dump(config))
        rc = main(["compare-protocols", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: {path}: only " in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("value, ok", [(0, True), (0.0, True), (-0.0, True), (False, False),
                                           (1e-9, False), ("0", False)],
                             ids=["int", "float", "minus-zero", "bool", "near", "string"])
    def test_a_fixed_float_key_takes_an_equal_int_but_no_bool(self, value, ok):
        raw = {"budget": {"t_cloud": value}}
        if ok:
            assert from_dict(raw).raw == raw
        else:
            with pytest.raises(ConfigError, match=r"^budget\.t_cloud: only 0\.0 is supported"):
                from_dict(raw)

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
        # round robin is checked on stations[0] whatever its algorithm;
        # local-sched runs it under `none`, the default, as here
        cfg = tmp_path / "rr.yaml"
        cfg.write_text(yaml.safe_dump(
            {"round_robin": {"max_concurrent": 3, "per_active_current_a": 16.0}}))
        rc = main(["local-sched", "--duration", "86400", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: round_robin: 48.0 A worst case" in capsys.readouterr().err
        assert not (tmp_path / "trace_server.jsonl").exists()

    def test_schedule_checked_on_a_station_of_any_algorithm(self, tmp_path, capsys):
        # a schedule_time section is checked whatever the station's algorithm,
        # as round robin is; here under `none`, the default
        day = {"start_s": 0.0, "end_s": 86400.0, "amps": 40.0}
        cfg = tmp_path / "schedule.yaml"
        cfg.write_text(yaml.safe_dump({"schedule_time": {"windows": {0: [day], 1: [day]}}}))
        rc = main(["local-sched", "--duration", "86400", "--check", "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: schedule_time: 80.0 A at 0 s-of-day exceeds" in err
        assert not (tmp_path / "trace_server.jsonl").exists()

    @pytest.mark.parametrize("duration, config", [
        # one slot, at t = 0, before any EV plugs in
        (200.0, None),
        (86400.0, {"fleet": {"stations": [{"id": 0, "evs": []}]}}),
    ], ids=["before-any-plug", "no-evs"])
    def test_local_sched_without_allocation_changes_passes_its_checks(
            self, tmp_path, capsys, duration, config):
        argv = ["local-sched", "--duration", str(duration), "--check", "--out", str(tmp_path)]
        if config is not None:
            cfg = tmp_path / "sched.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "check server-traffic-per-change: PASS (0 messages for 0 allocation changes)" \
            in summary
        for variant in ("server", "local"):
            assert main(["replay", str(tmp_path / f"trace_{variant}.jsonl")]) == 0

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
        # latency model fields
        ({"latency": {"threeg": dict(MODEL, hard_max=float("inf"))}}, "latency.threeg.hard_max"),
        ({"latency": {"threeg": dict(MODEL, components=[dict(COMPONENT, weight=True)])}},
         "latency.threeg.components[0].weight"),
        ({"latency": {"threeg": dict(MODEL, components=[dict(COMPONENT, spred=0.1)])}},
         "latency.threeg.components[0].spred"),
        ({"latency": {"threeg": dict(MODEL, diurnl=[1.0] * 168)}}, "latency.threeg.diurnl"),
        # expectations, checked at load whichever command reads them
        ({"expect": {"fixed_wait_s": "x"}}, "expect.fixed_wait_s"),
        ({"expect": {"speedup_power": 0}}, "expect.speedup_power"),
        ({"expect": {"speedup_tolerance": "x"}}, "expect.speedup_tolerance"),
        ({"expect": {"ethernet_rtt_band": 5}}, "expect.ethernet_rtt_band"),
        ({"expect": {"threeg_modes_min": 2.7}}, "expect.threeg_modes_min"),
        ({"expect": {"threeg_modes_mn": 2}}, "expect.threeg_modes_mn"),
        # a schedule_time station with no windows to allocate from
        ({"fleet": {"stations": [{"id": 0, "algorithm": "schedule_time"}]}}, "schedule_time"),
        # the collector's in-station hop to a meter is no station uplink
        ({"fleet": {"stations": [{"id": 0, "link": "local_bus"}]}}, "fleet.stations[0].link"),
    ])
    def test_input_that_would_load_silently_wrong_exits_2(self, tmp_path, capsys, config, path):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(yaml.safe_dump(config))
        rc = main(["rtt-dist", "--duration", "600", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("windows, path", [
        # an outlet key is an integer or a string of digits, never a float or a bool
        ({1.5: [WINDOW]}, "schedule_time.windows.1.5"),
        ({True: [WINDOW]}, "schedule_time.windows.True"),
        # on an outlet the station has
        ({9: [WINDOW]}, "schedule_time.windows.9"),
        # with both ends inside the day
        ({0: [dict(WINDOW, end_s=999999)]}, "schedule_time.windows.0[0].end_s"),
        ({"0": [dict(WINDOW, start_s=90000)]}, "schedule_time.windows.0[0].start_s"),
    ])
    def test_bad_schedule_window_exits_2(self, tmp_path, capsys, windows, path):
        cfg = tmp_path / "schedule.yaml"
        cfg.write_text(yaml.safe_dump({"schedule_time": {"windows": windows}}))
        rc = main(["rtt-dist", "--duration", "600", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

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

    @pytest.mark.parametrize("blocked", ["out", "out/summary.txt"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, blocked):
        # a regular file where the output directory goes stops the run before
        # its trace; a directory where summary.txt goes stops the output after
        blocker = tmp_path / blocked
        if blocked == "out":
            blocker.write_text("not a directory")
        else:
            blocker.mkdir(parents=True)
        rc = main(["rtt-dist", "--duration", "600", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert "Traceback" not in err
        if blocked == "out":
            assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda case: case.name)
def test_cli_case(case):
    problems = cli_cases.run_case(case)
    assert not problems, "\n".join(problems)


def test_readme_cli_block_runs_as_written():
    problems = cli_cases.run_readme()
    assert not problems, "\n".join(problems)
