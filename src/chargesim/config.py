"""Experiment configuration: a single human-editable YAML/JSON document,
validated on load, with shipped presets for the standard scenarios.

The resolved dict is embedded in every trace header and hashed into the
config digest, so a trace file alone is enough to replay its experiment.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import yaml

from . import sched
from .control import DutyRangeError, current_to_duty
from .domain import AlgorithmMode, ChargingStation, EvModel, plug_ev
from .latency import (
    LatencyModel,
    LinkKind,
    LinkModelSet,
    TimingBudget,
    default_models,
)

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field path."""


DEFAULT_CONFIG: dict = {
    "version": CONFIG_VERSION,
    "seed": 42,
    "duration_s": 604800.0,       # one week
    "probe_period_s": 300.0,      # five-minute probe cadence
    "trials": 10000,
    "trial_spacing_s": 60.0,
    "protocol": "pic_push",       # accepts only this value; see from_dict
    "push_period_s": 30.0,
    "serve_cache": True,
    "timeout_s": 30.0,
    "t_status_read_s": 0.0,
    "legacy_pipelined": False,    # accepts only this value; see from_dict
    "budget": {
        "t_server_cloud": 0.0,
        "t_cloud": 0.0,
        "t_ethernet": 0.0,
        "t_wifi": 0.02,
        "t_3g": 5.0,
        "t_metering": 0.5,
    },
    "latency": None,  # None -> library defaults; see latency.default_models()
    "fleet": {
        "stations": [
            {
                "id": 0,
                "link": "threeg",
                "circuit_limit_a": 40.0,
                "voltage_v": 208.0,
                "outlets": 4,
                "algorithm": "none",
                "evs": [
                    {"outlet": 0, "max_current_a": 32.0},
                    {"outlet": 1, "max_current_a": 32.0},
                    {"outlet": 2, "max_current_a": 32.0},
                ],
            }
        ]
    },
    "round_robin": {
        "slot_length_s": 900.0,
        "max_concurrent": 1,
        "per_active_current_a": 16.0,
    },
    "schedule_time": None,
    "duty_sweep": {"i_final_a": 32.0, "steps": 33},
}


# Keys accepted by the fixed-shape sections whose DEFAULT_CONFIG entry does
# not list them all. `expect` is free-form: each command reads the
# expectations it knows.
_TOP_LEVEL_KEYS = (*DEFAULT_CONFIG, "expect")
_LATENCY_KEYS = ("ethernet", "wifi", "threeg", "local_bus", "metering",
                 "t_server_cloud", "t_cloud")
_STATION_KEYS = DEFAULT_CONFIG["fleet"]["stations"][0]
_EV_KEYS = ("outlet", "max_current_a", "settle_t0_s", "settle_rate_s_per_a", "settle_cap_s")


def _fixed(location: float, hard_max: float) -> dict:
    return {"components": [{"weight": 1.0, "location": location, "spread": 0.0}],
            "hard_max": hard_max}


PRESETS: dict = {
    "default": {},
    # Deterministic worst-case cellular budget: every segment pinned at its
    # worst observed value, collector serving cache.
    "worst-case-3g": {
        "trials": 1,
        "latency": {
            "ethernet": _fixed(1e-06, 0.001),
            "wifi": _fixed(0.02, 0.05),
            "threeg": _fixed(4.5, 4.5),
            "local_bus": _fixed(1e-06, 0.001),
            "metering": _fixed(0.5, 0.5),
        },
        "budget": {
            "t_server_cloud": 0.0,
            "t_cloud": 0.0,
            "t_ethernet": 0.0,
            "t_wifi": 0.02,
            "t_3g": 4.5,
            "t_metering": 0.5,
        },
        "expect": {
            "legacy_wall_s": 20.0,
            "speedup_power": 4.4,
            "speedup_full": 8.4,
            "speedup_tolerance": 0.05,
        },
    },
    # Deterministic cellular timing for duty-cycle runs: round trip pinned at
    # the typical 5 s envelope, so the fixed worst-case wait is 3.5 s.
    "duty-3g": {
        "latency": {
            "ethernet": _fixed(1e-06, 0.001),
            "wifi": _fixed(0.02, 0.05),
            "threeg": _fixed(5.0, 5.0),
            "local_bus": _fixed(1e-06, 0.001),
            "metering": _fixed(0.5, 0.5),
        },
        "budget": {
            "t_server_cloud": 0.0,
            "t_cloud": 0.0,
            "t_ethernet": 0.0,
            "t_wifi": 0.02,
            "t_3g": 5.0,
            "t_metering": 0.5,
        },
        "expect": {"fixed_wait_s": 3.5},
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


@dataclass
class StationSpec:
    station_id: int
    link: LinkKind
    circuit_limit: float
    voltage: float
    outlets: int
    algorithm: AlgorithmMode
    evs: list = field(default_factory=list)  # (outlet, EvModel)

    def build(self) -> ChargingStation:
        """Fresh station instance with its EVs plugged; protocols mutate
        station state, so each run should build its own."""
        station = ChargingStation(
            station_id=self.station_id,
            circuit_limit=self.circuit_limit,
            link=self.link,
            outlets=self.outlets,
            voltage=self.voltage,
            local_algorithm=self.algorithm,
        )
        for outlet, ev in self.evs:
            plug_ev(station, outlet, replace(ev))
        return station


@dataclass
class ExperimentConfig:
    raw: dict
    seed: int
    duration_s: float
    probe_period_s: float
    trials: int
    trial_spacing_s: float
    push_period_s: float
    serve_cache: bool
    timeout_s: float
    t_status_read_s: float
    budget: TimingBudget
    links: LinkModelSet
    stations: list
    round_robin: sched.RoundRobinConfig
    schedule_time: Optional[sched.ScheduleTimeConfig]
    duty_sweep: dict   # {"i_final_a": float, "steps": int}
    expect: dict = field(default_factory=dict)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing")
    return mapping[key]


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {value!r}")
    return value


def _section(value, path: str, keys) -> dict:
    """``value`` as a mapping whose keys are all in ``keys``; a key outside
    them is a typo or a stale setting, never something to ignore."""
    for key in _mapping(value, path):
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    return value


def _integer(value, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _number(value, path: str, minimum=None) -> float:
    # NaN and infinity cannot be written into a trace header (strict JSON)
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value!r}")
    return float(value)


def _enum(cls, value, path: str):
    try:
        return cls(value)
    except ValueError:
        valid = ", ".join(e.value for e in cls)
        raise ConfigError(f"{path}: {value!r} is not one of [{valid}]") from None


def _latency_model(kind: LinkKind, spec: dict, path: str) -> LatencyModel:
    try:
        return LatencyModel.from_dict(kind, spec)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed model ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_links(spec, path: str) -> LinkModelSet:
    if spec is None:
        return default_models()
    _section(spec, path, _LATENCY_KEYS)
    defaults = default_models()
    models = {}
    for name, kind in (("ethernet", LinkKind.ETHERNET), ("wifi", LinkKind.WIFI),
                       ("threeg", LinkKind.THREE_G), ("local_bus", LinkKind.LOCAL_BUS),
                       ("metering", LinkKind.LOCAL_BUS)):
        if name in spec:
            models[name] = _latency_model(kind, spec[name], f"{path}.{name}")
        else:
            models[name] = getattr(defaults, name)
    return LinkModelSet(
        ethernet=models["ethernet"],
        wifi=models["wifi"],
        threeg=models["threeg"],
        local_bus=models["local_bus"],
        metering=models["metering"],
        t_server_cloud=_number(spec.get("t_server_cloud", 0.0), f"{path}.t_server_cloud", 0.0),
        t_cloud=_number(spec.get("t_cloud", 0.0), f"{path}.t_cloud", 0.0),
    )


def _build_stations(fleet, path: str) -> list:
    stations_spec = _require(_section(fleet, path, ("stations",)), "stations", path)
    if not isinstance(stations_spec, list) or not stations_spec:
        raise ConfigError(f"{path}.stations: need at least one station")
    if len(stations_spec) > 1:
        # every command simulates stations[0] only; a second one would be ignored
        raise ConfigError(f"{path}.stations: {len(stations_spec)} stations given, "
                          "but only one can be simulated")
    specs = []
    for i, st in enumerate(stations_spec):
        sp = f"{path}.stations[{i}]"
        _section(st, sp, _STATION_KEYS)
        outlets = _integer(st.get("outlets", 4), f"{sp}.outlets", 1)
        evs_spec = st.get("evs", [])
        if not isinstance(evs_spec, list):
            raise ConfigError(f"{sp}.evs: expected a list, got {evs_spec!r}")
        evs = []
        for j, ev in enumerate(evs_spec):
            ep = f"{sp}.evs[{j}]"
            outlet = _integer(_require(_section(ev, ep, _EV_KEYS), "outlet", ep), f"{ep}.outlet", 0)
            if outlet >= outlets:
                raise ConfigError(f"{ep}.outlet: {outlet} out of range for {outlets} outlets")
            if any(outlet == taken for taken, _ in evs):
                raise ConfigError(f"{ep}.outlet: outlet {outlet} already has an EV")
            evs.append((outlet, EvModel(
                max_current=_number(ev.get("max_current_a", 32.0), f"{ep}.max_current_a", 0.0),
                settle_t0=_number(ev.get("settle_t0_s", 1.0), f"{ep}.settle_t0_s", 0.0),
                settle_rate=_number(ev.get("settle_rate_s_per_a", 0.15625), f"{ep}.settle_rate_s_per_a", 0.0),
                settle_cap=_number(ev.get("settle_cap_s", 6.0), f"{ep}.settle_cap_s", 0.0),
            )))
        specs.append(StationSpec(
            station_id=_integer(st.get("id", i), f"{sp}.id", 0),
            link=_enum(LinkKind, st.get("link", "threeg"), f"{sp}.link"),
            circuit_limit=_number(st.get("circuit_limit_a", 40.0), f"{sp}.circuit_limit_a", 0.0),
            voltage=_number(st.get("voltage_v", 208.0), f"{sp}.voltage_v", 1.0),
            outlets=outlets,
            algorithm=_enum(AlgorithmMode, st.get("algorithm", "none"), f"{sp}.algorithm"),
            evs=evs,
        ))
    return specs


def _build_schedule(spec, path: str) -> Optional[sched.ScheduleTimeConfig]:
    if spec is None:
        return None
    windows_spec = _require(_section(spec, path, ("windows",)), "windows", path)
    windows = {}
    for outlet_key, wlist in _mapping(windows_spec, f"{path}.windows").items():
        try:
            outlet = int(outlet_key)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.windows.{outlet_key}: outlet keys must be integers") from None
        if not isinstance(wlist, list):
            raise ConfigError(f"{path}.windows.{outlet_key}: expected a list, got {wlist!r}")
        ws = []
        for k, w in enumerate(wlist):
            wp = f"{path}.windows.{outlet_key}[{k}]"
            _section(w, wp, ("start_s", "end_s", "amps"))
            ws.append(sched.ChargeWindow(
                start_s=_number(_require(w, "start_s", wp), f"{wp}.start_s", 0.0),
                end_s=_number(_require(w, "end_s", wp), f"{wp}.end_s", 0.0),
                amps=_number(_require(w, "amps", wp), f"{wp}.amps", 0.0),
            ))
        windows[outlet] = tuple(ws)
    return sched.ScheduleTimeConfig(windows=windows)


def _build_duty_sweep(spec, path: str) -> dict:
    _section(spec, path, DEFAULT_CONFIG["duty_sweep"])
    i_final = _number(spec.get("i_final_a", 32.0), f"{path}.i_final_a")
    try:
        current_to_duty(i_final)
    except DutyRangeError as exc:
        raise ConfigError(f"{path}.i_final_a: {exc}") from None
    return {"i_final_a": i_final, "steps": _integer(spec.get("steps", 33), f"{path}.steps", 1)}


def from_dict(raw: dict) -> ExperimentConfig:
    """Validate a resolved config dict and build the runtime objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a mapping at the top level")
    _section(raw, "", _TOP_LEVEL_KEYS)
    version = raw.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"version: unsupported config version {version!r}")
    # These keys select nothing. They stay only because the resolved config is
    # hashed into every trace header, so each accepts its default alone.
    for key in ("protocol", "legacy_pipelined"):
        default = DEFAULT_CONFIG[key]
        value = raw.get(key, default)
        if value != default or type(value) is not type(default):
            raise ConfigError(f"{key}: only {default!r} is supported, got {value!r}")

    budget_spec = _section(raw.get("budget", {}), "budget", DEFAULT_CONFIG["budget"])
    try:
        budget = TimingBudget(
            t_server_cloud=_number(budget_spec.get("t_server_cloud", 0.0), "budget.t_server_cloud", 0.0),
            t_cloud=_number(budget_spec.get("t_cloud", 0.0), "budget.t_cloud", 0.0),
            t_ethernet=_number(budget_spec.get("t_ethernet", 0.0), "budget.t_ethernet", 0.0),
            t_wifi=_number(budget_spec.get("t_wifi", 0.0), "budget.t_wifi", 0.0),
            t_3g=_number(budget_spec.get("t_3g", 0.0), "budget.t_3g", 0.0),
            t_metering=_number(budget_spec.get("t_metering", 0.0), "budget.t_metering", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"budget: {exc}") from exc

    links = _build_links(raw.get("latency"), "latency")
    stations = _build_stations(raw.get("fleet", DEFAULT_CONFIG["fleet"]), "fleet")

    rr_spec = _section(raw.get("round_robin", {}), "round_robin", DEFAULT_CONFIG["round_robin"])
    round_robin = sched.RoundRobinConfig(
        slot_length_s=_number(rr_spec.get("slot_length_s", 900.0), "round_robin.slot_length_s", 1e-9),
        max_concurrent=_integer(rr_spec.get("max_concurrent", 1), "round_robin.max_concurrent", 1),
        per_active_current=_number(rr_spec.get("per_active_current_a", 16.0),
                                   "round_robin.per_active_current_a", 0.0),
    )
    schedule_time = _build_schedule(raw.get("schedule_time"), "schedule_time")

    # Scheduler configs must be provably safe for every station that uses
    # them; local-sched runs round robin on a station whatever its algorithm.
    for spec in stations:
        report = sched.validate_config(round_robin, spec.circuit_limit)
        if not report.ok:
            v = report.violations[0]
            raise ConfigError(
                f"round_robin: {v.total_amps} A worst case exceeds station "
                f"{spec.station_id}'s {spec.circuit_limit} A limit"
            )
        if schedule_time is not None and spec.algorithm is AlgorithmMode.SCHEDULE_TIME:
            report = sched.validate_config(schedule_time, spec.circuit_limit)
            if not report.ok:
                v = report.violations[0]
                raise ConfigError(
                    f"schedule_time: {v.total_amps} A at {v.at:.0f} s-of-day exceeds "
                    f"station {spec.station_id}'s {spec.circuit_limit} A limit"
                )

    return ExperimentConfig(
        raw=raw,
        seed=_integer(raw.get("seed", 42), "seed", 0),
        duration_s=_number(raw.get("duration_s", 604800.0), "duration_s", 0.0),
        probe_period_s=_number(raw.get("probe_period_s", 300.0), "probe_period_s", 1e-9),
        trials=_integer(raw.get("trials", 10000), "trials", 0),
        trial_spacing_s=_number(raw.get("trial_spacing_s", 60.0), "trial_spacing_s", 1e-9),
        push_period_s=_number(raw.get("push_period_s", 30.0), "push_period_s", 1e-9),
        serve_cache=_boolean(raw.get("serve_cache", True), "serve_cache"),
        timeout_s=_number(raw.get("timeout_s", 30.0), "timeout_s", 0.0),
        t_status_read_s=_number(raw.get("t_status_read_s", 0.0), "t_status_read_s", 0.0),
        budget=budget,
        links=links,
        stations=stations,
        round_robin=round_robin,
        schedule_time=schedule_time,
        duty_sweep=_build_duty_sweep(raw.get("duty_sweep", {}), "duty_sweep"),
        expect=_mapping(raw.get("expect", {}), "expect"),
    )


def resolve(preset: str = "default", config_path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- preset <- config file <- explicit overrides, then
    validate. The merged dict becomes the trace-embedded config."""
    if preset not in PRESETS:
        raise ConfigError(f"preset: unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})")
    raw = _deep_merge(DEFAULT_CONFIG, PRESETS[preset])
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file: invalid YAML ({exc})") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file: expected a mapping at the top level")
        raw = _deep_merge(raw, loaded)
    if overrides:
        raw = _deep_merge(raw, overrides)
    return from_dict(raw)
