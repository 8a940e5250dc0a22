"""Experiment configuration: a single human-editable YAML or JSON document,
checked on load against one schema, with shipped presets for the standard
scenarios.

The resolved dict is embedded in every trace header and hashed into the
config digest, so a trace file alone is enough to replay its experiment.
"""
from __future__ import annotations

import copy
import functools
import json
import re
import sys
from enum import Enum
from typing import NamedTuple, NoReturn, Optional

from . import sched
from .control import DutyRangeError, current_to_duty
from .domain import (DEFAULT_OUTLETS, DEFAULT_VOLTAGE, AlgorithmMode, ChargingStation, EvModel,
                     exceeds_limit, plug_ev)
from .latency import (FLAT, HOURS_PER_WEEK, LatencyModel, LinkKind, LinkModelSet,
                      MixtureComponent, TimingBudget, default_models)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field path."""


# YAML 1.2's core-schema float. YAML 1.1, which PyYAML reads, wants a dot and
# a signed exponent, so it reads 1e-6 and 3.0e2 as strings; JSON and YAML 1.2
# read them as numbers. A plain integer still resolves as an integer first.
_YAML12_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$")


@functools.cache
def _yaml_loader():
    """``yaml.SafeLoader`` that also reads every YAML 1.2 float as a float."""
    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _YAML12_FLOAT,
                                 list("-+.0123456789"))
    return Loader


def _load_file(config_path):
    """The document in the config file at ``config_path``: JSON when it parses
    as JSON, YAML otherwise."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError:
        pass
    import yaml  # here, so a JSON config never pays for PyYAML's import

    try:
        return yaml.load(text, Loader=_yaml_loader())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file: invalid YAML ({exc})") from exc
    except ValueError as exc:  # a scalar PyYAML cannot construct: 2020-02-30, a huge int
        raise ConfigError(f"config file: {exc}") from exc


# Most events one series (the trials, the sweep points, a periodic timer) may
# schedule. The largest series of the presets and benchmarks has about 2*10^4.
MAX_SERIES_EVENTS = 10**7


def check_series(path: str, period: float, horizon: float) -> None:
    """Refuse the periodic series that config key ``path`` sets, one event
    every ``period`` s, when over ``horizon`` s it would schedule more than
    ``MAX_SERIES_EVENTS``. A command's builder calls this for each series it
    schedules, over that command's own horizon, before it schedules anything
    (so before its trace file opens)."""
    if horizon / period > MAX_SERIES_EVENTS:
        _fail(path, f"{period!r} s over {horizon!r} s is {horizon / period:.3g} events, "
                    f"more than the limit of {MAX_SERIES_EVENTS}")


def check_count(path: str, count: int) -> None:
    """Refuse the ``count`` events that config key ``path`` sets when they
    are more than ``MAX_SERIES_EVENTS``. The builder that schedules them
    calls this before it computes anything from ``count``."""
    if count > MAX_SERIES_EVENTS:
        _fail(path, f"{count} events exceed the limit of {MAX_SERIES_EVENTS}")


# --- schema ----------------------------------------------------------------
# One node per key: its type, its bounds and its default. A default is a
# value, REQUIRED, or OPTIONAL (no value; an absent optional key stays
# absent). A Section is a mapping with its keys and no others. Its default is
# the mapping of its keys' defaults, unless it is None (the section may be
# null, which an absent one also is) or OPTIONAL (left out of DEFAULT_CONFIG,
# but an absent one still takes its keys' defaults). DEFAULT_CONFIG is the
# tree of the defaults.

REQUIRED = object()
OPTIONAL = object()
_FIELDS = object()


class Leaf(NamedTuple):
    """A scalar. ``type`` is int, float (any finite number but a bool, kept
    as a float), bool, or an Enum whose values the key takes."""

    type: type
    default: object = REQUIRED
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None


class Const(NamedTuple):
    """A key that accepts its default alone, of the same type."""

    default: object


class ListOf(NamedTuple):
    item: object
    default: object = REQUIRED
    length: Optional[int] = None


class ByOutlet(NamedTuple):
    """A mapping from outlet number to ``item``. JSON has only string keys,
    so a key is an integer >= 0 or a string of decimal digits."""

    item: object
    default: object = REQUIRED


class Section(NamedTuple):
    fields: dict
    default: object = _FIELDS


def _defaults(node):
    """``node``'s entry in DEFAULT_CONFIG."""
    if isinstance(node, Section) and node.default is _FIELDS:
        return {key: _defaults(sub) for key, sub in node.fields.items()
                if sub.default is not REQUIRED and sub.default is not OPTIONAL}
    return copy.deepcopy(node.default)


_LINK_MODELS = ("ethernet", "wifi", "threeg", "local_bus", "metering")

_MODEL = Section({
    "components": ListOf(Section({
        "weight": Leaf(float, gt=0.0),
        "location": Leaf(float, ge=0.0),
        "spread": Leaf(float, 0.0, ge=0.0),
    })),
    "hard_max": Leaf(float, gt=0.0),
    # hour-of-week multipliers of the locations; see latency.LatencyModel
    "diurnal": ListOf(Leaf(float, gt=0.0, le=1.0), list(FLAT),
                      length=HOURS_PER_WEEK),
}, default=None)  # null: the library's model of that segment

_EV = EvModel()  # the defaults of an EV's keys

_STATION = Section({
    "id": Leaf(int, 0, ge=0),
    "link": Leaf(LinkKind, "threeg"),
    "circuit_limit_a": Leaf(float, 40.0, ge=0.0),
    "voltage_v": Leaf(float, DEFAULT_VOLTAGE, ge=1.0),
    "outlets": Leaf(int, DEFAULT_OUTLETS, ge=1),
    "algorithm": Leaf(AlgorithmMode, "none"),
    "evs": ListOf(Section({
        "outlet": Leaf(int, ge=0),
        "max_current_a": Leaf(float, _EV.max_current, ge=0.0),
        "settle_t0_s": Leaf(float, _EV.settle_t0, ge=0.0),
        "settle_rate_s_per_a": Leaf(float, _EV.settle_rate, ge=0.0),
        "settle_cap_s": Leaf(float, _EV.settle_cap, ge=0.0),
    }), []),
})

_ROUND_ROBIN = sched.RoundRobinConfig()  # the defaults of the round_robin keys

SCHEMA = Section({
    "version": Const(1),
    "seed": Leaf(int, 42, ge=0),
    "duration_s": Leaf(float, 604800.0, ge=0.0),     # one week
    "probe_period_s": Leaf(float, 300.0, gt=0.0),    # five-minute probe cadence
    "trials": Leaf(int, 10000, ge=0),
    "trial_spacing_s": Leaf(float, 60.0, gt=0.0),
    # `protocol` and `legacy_pipelined` select nothing. They stay only because
    # the resolved config is hashed into every trace header.
    "protocol": Const("pic_push"),
    "push_period_s": Leaf(float, 30.0, gt=0.0),
    "serve_cache": Leaf(bool, True),
    "timeout_s": Leaf(float, 30.0, ge=0.0),
    "t_status_read_s": Leaf(float, 0.0, ge=0.0),
    "legacy_pipelined": Const(False),
    # In `budget`, only `t_3g` is read; the other five select nothing either,
    # and stay for the same reason.
    "budget": Section({
        "t_server_cloud": Leaf(float, 0.0, ge=0.0),
        "t_cloud": Leaf(float, 0.0, ge=0.0),
        "t_ethernet": Leaf(float, 0.0, ge=0.0),
        "t_wifi": Leaf(float, 0.02, ge=0.0),
        "t_3g": Leaf(float, 5.0, ge=0.0),
        "t_metering": Leaf(float, 0.5, ge=0.0),
    }),
    "latency": Section({
        **{name: _MODEL for name in _LINK_MODELS},
        "t_server_cloud": Leaf(float, 0.0, ge=0.0),
        "t_cloud": Leaf(float, 0.0, ge=0.0),
    }, default=None),  # null: latency.default_models()
    "fleet": Section({
        # Every command simulates the one station (`ExperimentConfig.station`),
        # so a second one is rejected. The default one has EVs on outlets 0-2.
        "stations": ListOf(_STATION, [{
            **_defaults(_STATION),
            "evs": [{"outlet": k, "max_current_a": 32.0} for k in range(3)],
        }], length=1),
    }),
    "round_robin": Section({
        "slot_length_s": Leaf(float, _ROUND_ROBIN.slot_length_s, gt=0.0),
        "max_concurrent": Leaf(int, _ROUND_ROBIN.max_concurrent, ge=1),
        "per_active_current_a": Leaf(float, _ROUND_ROBIN.per_active_current, ge=0.0),
    }),
    "schedule_time": Section({"windows": ByOutlet(ListOf(Section({
        "start_s": Leaf(float, ge=0.0, le=sched.SECONDS_PER_DAY),
        "end_s": Leaf(float, ge=0.0, le=sched.SECONDS_PER_DAY),
        "amps": Leaf(float, ge=0.0),
    })))}, default=None),
    "duty_sweep": Section({
        "i_final_a": Leaf(float, 32.0),
        "steps": Leaf(int, 33, ge=1),
    }),
    # What a command's checks expect. Presets carry it and apply to any
    # command, so every key is valid for every command.
    "expect": Section({
        # rtt-dist
        "threeg_modes_min": Leaf(int, 4, ge=1),
        "ethernet_rtt_band": ListOf(Leaf(float), [0.15, 0.25], length=2),  # [low, high] s
        "ethernet_rtt_frac": Leaf(float, 0.9, ge=0.0, le=1.0),
        # compare-protocols
        "legacy_wall_s": Leaf(float, OPTIONAL, ge=0.0),
        "speedup_power": Leaf(float, OPTIONAL, gt=0.0),
        "speedup_full": Leaf(float, OPTIONAL, gt=0.0),
        "speedup_tolerance": Leaf(float, 0.05, ge=0.0),
        # duty-cycle
        "fixed_wait_s": Leaf(float, OPTIONAL, ge=0.0),
    }, default=OPTIONAL),
})

DEFAULT_CONFIG: dict = _defaults(SCHEMA)

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def _fail(path: str, problem: str) -> NoReturn:
    raise ConfigError(f"{path}: {problem}")


def _walk(node, value, path: str):
    """``value`` checked against ``node``, as a new tree with every absent
    default filled in; float leaves hold floats and enum leaves members."""
    if isinstance(node, Section):
        if value is None and node.default is None:
            return None
        if not isinstance(value, dict):
            _fail(path or "config", f"expected a mapping, got {value!r}")
        for key in value:
            if key not in node.fields:
                _fail(f"{path}.{key}" if path else key, "unknown key")
        out = {}
        for key, sub in node.fields.items():
            sub_path = f"{path}.{key}" if path else key
            if key in value:
                out[key] = _walk(sub, value[key], sub_path)
            elif isinstance(sub, Section):
                out[key] = None if sub.default is None else _walk(sub, {}, sub_path)
            elif sub.default is REQUIRED:
                _fail(sub_path, "missing")
            elif sub.default is not OPTIONAL:
                out[key] = _walk(sub, sub.default, sub_path)
        return out
    if isinstance(node, ListOf):
        if not isinstance(value, list):
            _fail(path, f"expected a list, got {value!r}")
        if node.length is not None and len(value) != node.length:
            _fail(path, f"must have length {node.length}, got {len(value)}")
        return [_walk(node.item, item, f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(node, ByOutlet):
        if not isinstance(value, dict):
            _fail(path, f"expected a mapping, got {value!r}")
        out = {}
        for key, item in value.items():
            digits = isinstance(key, str) and key.isascii() and key.isdigit()
            if not digits and (type(key) is not int or key < 0):
                _fail(f"{path}.{key}", "an outlet key must be an integer >= 0")
            if int(key) in out:
                _fail(f"{path}.{key}", f"outlet {int(key)} given twice")
            out[int(key)] = _walk(node.item, item, f"{path}.{key}")
        return out
    if isinstance(node, Const):
        if value != node.default or type(value) is not type(node.default):
            _fail(path, f"only {node.default!r} is supported, got {value!r}")
        return value
    kind = node.type
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            _fail(path, f"{value!r} is not one of [{', '.join(e.value for e in kind)}]")
    # a bool is an int to Python, but never a count or a number here
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        _fail(path, f"expected {_TYPE_NAMES[kind]}, got {value!r}")
    # NaN and infinity cannot be written into a trace header (strict JSON)
    if kind is float and not abs(value) <= sys.float_info.max:
        _fail(path, f"expected a finite number, got {value!r}")
    if node.ge is not None and value < node.ge:
        _fail(path, f"must be >= {node.ge}, got {value!r}")
    if node.gt is not None and value <= node.gt:
        _fail(path, f"must be > {node.gt}, got {value!r}")
    if node.le is not None and value > node.le:
        _fail(path, f"must be <= {node.le}, got {value!r}")
    return float(value) if kind is float else value


def _fixed(location: float, hard_max: float) -> dict:
    return {"components": [{"weight": 1.0, "location": location, "spread": 0.0}],
            "hard_max": hard_max}


def _pinned(t_3g: float) -> dict:
    """Latency models with every segment pinned, the cellular one at ``t_3g``."""
    return {
        "ethernet": _fixed(1e-06, 0.001),
        "wifi": _fixed(0.02, 0.05),
        "threeg": _fixed(t_3g, t_3g),
        "local_bus": _fixed(1e-06, 0.001),
        "metering": _fixed(0.5, 0.5),
    }


# Each preset states only what differs from DEFAULT_CONFIG.
PRESETS: dict = {
    "default": {},
    # Deterministic worst-case cellular budget: every segment pinned at its
    # worst observed value, collector serving cache.
    "worst-case-3g": {
        "trials": 1,
        "latency": _pinned(4.5),
        "budget": {"t_3g": 4.5},
        "expect": {
            "legacy_wall_s": 20.0,
            "speedup_power": 4.4,
            "speedup_full": 8.4,
            "speedup_tolerance": 0.05,
        },
    },
    # Deterministic cellular timing for duty-cycle runs: round trip pinned at
    # the typical 5 s envelope, so the fixed worst-case wait is 3.5 s.
    "duty-3g": {"latency": _pinned(5.0), "expect": {"fixed_wait_s": 3.5}},
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


class StationSpec(NamedTuple):
    station_id: int
    link: LinkKind
    circuit_limit: float
    voltage: float
    outlets: int
    algorithm: AlgorithmMode
    evs: list  # (outlet, EvModel)

    def build(self) -> ChargingStation:
        """Fresh station instance with its EVs plugged. A trace simulates one
        station, so each trace builds one and every protocol acts on it."""
        station = ChargingStation(
            station_id=self.station_id,
            circuit_limit=self.circuit_limit,
            link=self.link,
            outlets=self.outlets,
            voltage=self.voltage,
            local_algorithm=self.algorithm,
        )
        for outlet, ev in self.evs:
            plug_ev(station, outlet, ev)
        return station


class ExperimentConfig(NamedTuple):
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
    station: StationSpec
    round_robin: sched.RoundRobinConfig
    schedule_time: Optional[sched.ScheduleTimeConfig]
    duty_sweep: dict   # {"i_final_a": float, "steps": int}
    expect: dict       # the schema's `expect` keys, defaults filled in


def _links(spec: Optional[dict]) -> LinkModelSet:
    defaults = default_models()
    if spec is None:
        return defaults
    changes = {"cloud": spec["t_server_cloud"] + spec["t_cloud"]}
    models = {name: spec[name] for name in _LINK_MODELS if spec[name] is not None}
    for name, model in models.items():
        try:
            changes[name] = LatencyModel(
                components=tuple(MixtureComponent(**c) for c in model["components"]),
                hard_max=model["hard_max"],
                diurnal=tuple(model["diurnal"]),
            )
        except ValueError as exc:
            raise ConfigError(f"latency.{name}: {exc}") from None
    return defaults._replace(**changes)


def from_dict(raw: dict) -> ExperimentConfig:
    """Check a resolved config dict against the schema, then the rules that
    span fields, and build the runtime objects. ``raw`` is kept as given."""
    c = _walk(SCHEMA, raw, "")

    st = c["fleet"]["stations"][0]
    outlets = st["outlets"]
    evs = {}
    for j, ev in enumerate(st["evs"]):
        outlet = ev["outlet"]
        if outlet >= outlets:
            _fail(f"fleet.stations[0].evs[{j}].outlet", f"{outlet} out of range for {outlets} outlets")
        if outlet in evs:
            _fail(f"fleet.stations[0].evs[{j}].outlet", f"outlet {outlet} already has an EV")
        evs[outlet] = EvModel(max_current=ev["max_current_a"], settle_t0=ev["settle_t0_s"],
                              settle_rate=ev["settle_rate_s_per_a"], settle_cap=ev["settle_cap_s"])
    station = StationSpec(station_id=st["id"], link=st["link"], circuit_limit=st["circuit_limit_a"],
                          voltage=st["voltage_v"], outlets=outlets, algorithm=st["algorithm"],
                          evs=list(evs.items()))

    # Scheduler configs must be provably safe for the station, whatever its
    # algorithm: `none` runs round robin, and a schedule is checked as given.
    rr = c["round_robin"]
    round_robin = sched.RoundRobinConfig(slot_length_s=rr["slot_length_s"],
                                         max_concurrent=rr["max_concurrent"],
                                         per_active_current=rr["per_active_current_a"])
    peak = sched.round_robin_peak(round_robin)
    if exceeds_limit(peak, station.circuit_limit):
        _fail("round_robin", f"{peak} A worst case exceeds station "
                             f"{station.station_id}'s {station.circuit_limit} A limit")
    schedule_time = None
    if c["schedule_time"] is None and station.algorithm is AlgorithmMode.SCHEDULE_TIME:
        _fail("schedule_time", "missing, but fleet.stations[0].algorithm is schedule_time")
    if c["schedule_time"] is not None:
        windows = c["schedule_time"]["windows"]
        for outlet in windows:
            if outlet >= outlets:
                _fail(f"schedule_time.windows.{outlet}", f"out of range for {outlets} outlets")
        schedule_time = sched.ScheduleTimeConfig(windows={
            outlet: tuple(sched.ChargeWindow(**w) for w in ws) for outlet, ws in windows.items()})
        overload = sched.schedule_overload(schedule_time, station.circuit_limit)
        if overload is not None:
            at, total = overload
            _fail("schedule_time", f"{total} A at {at:.0f} s-of-day exceeds "
                                   f"station {station.station_id}'s {station.circuit_limit} A limit")

    try:
        current_to_duty(c["duty_sweep"]["i_final_a"])
    except DutyRangeError as exc:
        _fail("duty_sweep.i_final_a", str(exc))
    band_lo, band_hi = c["expect"]["ethernet_rtt_band"]
    if band_lo > band_hi:
        _fail("expect.ethernet_rtt_band", f"low end {band_lo!r} above high end {band_hi!r}")

    return ExperimentConfig(
        raw=raw,
        # keys whose checked values are the runtime fields of the same name
        **{key: c[key] for key in ("seed", "duration_s", "probe_period_s", "trials",
                                   "trial_spacing_s", "push_period_s", "serve_cache", "timeout_s",
                                   "t_status_read_s", "duty_sweep", "expect")},
        # `budget.t_3g` keeps its name (the trace header hashes the resolved
        # config); it is the only budget term the duty-cycle wait reads
        budget=TimingBudget(t_uplink=c["budget"]["t_3g"]),
        links=_links(c["latency"]),
        station=station,
        round_robin=round_robin,
        schedule_time=schedule_time,
    )


def resolve(preset: str = "default", config_path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- preset <- config file <- explicit overrides, then
    validate. The merged dict becomes the trace-embedded config."""
    if preset not in PRESETS:
        raise ConfigError(f"preset: unknown preset {preset!r} (have: {', '.join(sorted(PRESETS))})")
    raw = _deep_merge(DEFAULT_CONFIG, PRESETS[preset])
    if config_path is not None:
        loaded = _load_file(config_path)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file: expected a mapping at the top level")
        raw = _deep_merge(raw, loaded)
    if overrides:
        raw = _deep_merge(raw, overrides)
    return from_dict(raw)
