"""Experiment harness: each command builds seeded engines, runs its
scenario, and post-processes the traces into CSV rows, a summary, and
pass/fail checks.

Every CSV row and summary figure is derived from trace records alone: a
command's post-processor is a pure function of the config and each trace's
record list, so a written trace file is sufficient to reproduce (and verify)
a run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import pic, proto, sched
from .config import ConfigError, ExperimentConfig, from_dict
from .control import (
    change_duty_cycle,
    compute_t_waiting,
    current_to_duty,
    select_algorithm_mode,
)
from .domain import (
    AlgorithmMode,
    ChargingStation,
    EvModel,
    RelayState,
    allocated_current_total,
    apply_relay,
    plug_ev,
    set_current,
    unplug_ev,
)
from .latency import LinkKind, TimingBudget, count_modes, histogram_of, worst_case_budget
from .sim import Engine, EventTrace, ParsedTrace, ordered_sum, read_trace, substream

RTT_LINKS = (LinkKind.ETHERNET, LinkKind.WIFI, LinkKind.THREE_G)
MODE_BINS = 45


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class ExperimentOutput:
    command: str
    traces: list = field(default_factory=list)   # (name, EventTrace)
    csvs: dict = field(default_factory=dict)     # filename -> (header tuple, rows)
    summary: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def truncated(self) -> bool:
        return any(trace.failed for _, trace in self.traces)


def _expect_exact(expect: dict, key: str, name: str, label: str, value) -> list:
    """The ``name`` check when ``expect`` pins ``key``: ``value`` must equal it."""
    if key not in expect or value is None:
        return []
    want = float(expect[key])
    return [Check(name, abs(value - want) < 1e-9, f"{label} {value!r} s, expected {want!r} s")]


def _expect_ratio(expect: dict, key: str, name: str, value) -> list:
    """The ``name`` check when ``expect`` gives ``key``: ``value`` must be
    within ``speedup_tolerance`` of it, relatively."""
    if key not in expect or value is None:
        return []
    want = float(expect[key])
    tol = float(expect.get("speedup_tolerance", 0.05))
    rel = abs(value - want) / want
    return [Check(name, rel <= tol, f"{value:.3f}x vs {want}x ({rel:.3%}, tol {tol:.0%})")]


# --------------------------------------------------------------------------
# rtt-dist: one week of five-minute probes per uplink kind
# --------------------------------------------------------------------------


def _trace_rtt_dist(cfg: ExperimentConfig) -> EventTrace:
    eng = Engine(cfg.seed, meta={"command": "rtt-dist", "config": cfg.raw})
    links = cfg.links
    cloud = links.t_server_cloud + links.t_cloud

    def probe(eng_: Engine, ev):
        link = LinkKind(ev.data["link"])
        rng = eng_.stream(f"rtt:{link.value}")
        seg = links.for_link(link).sample(rng, ev.at)
        met = links.metering.sample(rng, ev.at)
        return {"seg": seg, "rtt": cloud + seg + met}

    for link in RTT_LINKS:
        eng.schedule_every(cfg.probe_period_s, "rtt-probe", probe,
                           first_at=cfg.probe_period_s, data={"link": link.value})
    return eng.run_until(cfg.duration_s)


def _post_rtt_dist(cfg: ExperimentConfig, records: dict):
    links = cfg.links
    cloud = links.t_server_cloud + links.t_cloud
    csvs: dict = {}
    summary: dict = {}

    samples: dict = {link: [] for link in RTT_LINKS}
    for rec in records["trace"]:
        if rec["kind"] == "rtt-probe":
            link = LinkKind(rec["data"]["link"])
            samples[link].append((rec["at"], rec["state"]["seg"], rec["state"]["rtt"]))

    met_max = links.metering.hard_max
    for link, rows in samples.items():
        segs = [s for _, s, _ in rows]
        rtts = [r for _, _, r in rows]
        seg_hist = histogram_of(segs, MODE_BINS, 0.0, links.for_link(link).hard_max)
        rtt_hist = histogram_of(rtts, MODE_BINS, 0.0,
                                links.for_link(link).hard_max + met_max + cloud)
        csvs[f"hist_{link.value}.csv"] = (
            ("bin_low", "bin_high", "count"), rtt_hist.rows())
        csvs[f"hist_{link.value}_segment.csv"] = (
            ("bin_low", "bin_high", "count"), seg_hist.rows())
        summary[link.value] = {
            "probes": len(rows),
            "seg_min": min(segs) if segs else None,
            "seg_max": max(segs) if segs else None,
            "rtt_mean": ordered_sum(rtts) / len(rtts) if rtts else None,
            "modes": count_modes(seg_hist.counts),
        }

    # per-day breakdown of the cellular segment (day 0 = the week's first day)
    day_rows = []
    threeg = samples[LinkKind.THREE_G]
    for day in range(7):
        day_segs = [s for at, s, _ in threeg if int(at // 86400.0) % 7 == day]
        if not day_segs:
            continue
        hist = histogram_of(day_segs, MODE_BINS, 0.0, links.threeg.hard_max)
        day_rows.extend((day, lo, hi, c) for lo, hi, c in hist.rows())
    csvs["threeg_by_day.csv"] = (("day", "bin_low", "bin_high", "count"), day_rows)

    expect = cfg.expect
    modes_min = int(expect.get("threeg_modes_min", 4))
    eth = samples[LinkKind.ETHERNET]
    band_lo, band_hi = expect.get("ethernet_rtt_band", (0.15, 0.25))
    frac_needed = float(expect.get("ethernet_rtt_frac", 0.9))
    eth_rtts = [r for _, _, r in eth]
    in_band = (
        sum(1 for r in eth_rtts if band_lo <= r <= band_hi) / len(eth_rtts)
        if eth_rtts else 0.0
    )
    seg_max = summary["threeg"]["seg_max"] or 0.0
    summary["ethernet_rtt_in_band"] = in_band
    checks = [
        Check("threeg-modes", summary["threeg"]["modes"] >= modes_min,
              f"detected {summary['threeg']['modes']} modes, need >= {modes_min}"),
        Check("threeg-hard-max", seg_max <= links.threeg.hard_max + 1e-12,
              f"max sample {seg_max:.3f} s vs bound {links.threeg.hard_max} s"),
        Check("ethernet-rtt-band", in_band >= frac_needed,
              f"{in_band:.3f} of Ethernet RTTs in [{band_lo}, {band_hi}] s, need >= {frac_needed}"),
    ]
    return csvs, summary, checks


# --------------------------------------------------------------------------
# compare-protocols: matched retrieval trials plus a live push-mode station
# --------------------------------------------------------------------------


def _attach_push_station(eng: Engine, cfg: ExperimentConfig) -> None:
    """Wire a push-mode collector into the engine: periodic timer ticks drive
    collections and uplink packets into a server store; store consumption and
    probes record staleness."""
    spec = cfg.stations[0]
    station = spec.build()
    plugged = [o for o in range(len(station.meters)) if station.meters[o].ev is not None]
    per_ev = min(16.0, spec.circuit_limit / max(1, len(plugged)))
    for outlet in plugged:
        set_current(station, outlet, per_ev, 0.0)
        apply_relay(station, outlet, RelayState.ON, 0.0)
    bus = pic.MeterBus(station, cfg.links.local_bus, cfg.links.metering,
                       eng.stream(f"bus:{spec.station_id}"))
    state = pic.startup_init(bus, push_period=cfg.push_period_s,
                             push_enabled=True, serve_cache=cfg.serve_cache)
    uplink_rng = eng.stream(f"uplink:{spec.station_id}")
    sid = spec.station_id
    store = proto.ServerStore()

    def consume(eng_: Engine, ev, packet):
        packet.received_at = ev.at
        staleness = proto.push_consume(store, packet, ev.at)
        if staleness is None:
            return {"station": sid, "seq": packet.seq, "discarded": True}
        return {
            "station": sid,
            "seq": packet.seq,
            "stale_max": max(staleness.values()),
            "stale": {str(m.outlet): s for m, s in staleness.items()},
        }

    def step(eng_: Engine, ev):
        sent: list = []
        msgs = pic.main_loop_step(state, bus, sent.append, ev.at)
        for packet in sent:
            transit = 0.5 * cfg.links.threeg.sample(uplink_rng, packet.sent_at)
            eng_.schedule_at(
                packet.sent_at + transit, "push-arrive",
                data={"station": sid, "seq": packet.seq},
                fn=lambda e, ev2, p=packet: consume(e, ev2, p),
            )
        return {"station": sid, "pushes": len(sent), "messages": len(msgs)}

    def tick(eng_: Engine, ev):
        pic.on_timer_interrupt(state)
        eng_.schedule(0.0, "push-step", fn=step)
        return None

    def probe(eng_: Engine, ev):
        staleness = store.staleness_at(sid, ev.at)
        if not staleness:
            return {"station": sid, "stored": False}
        return {
            "station": sid,
            "stored": True,
            "stale_max": max(staleness.values()),
            "stale": {str(m.outlet): s for m, s in staleness.items()},
        }

    eng.schedule_every(cfg.push_period_s, "push-tick", tick)
    eng.schedule_every(cfg.probe_period_s, "stale-probe", probe)


def _trace_compare(cfg: ExperimentConfig) -> EventTrace:
    eng = Engine(cfg.seed, meta={"command": "compare-protocols", "config": cfg.raw})
    links = cfg.links
    spec = cfg.stations[0]
    st_legacy4 = spec.build()
    st_legacy8 = spec.build()

    # Aggregated-pull endpoint with its own periodic collection keeping the
    # cache fresh, so pulls are served without a metering term.
    st_pic = spec.build()
    pull_bus = pic.MeterBus(st_pic, links.local_bus, links.metering,
                            eng.stream("pull-bus"))
    pull_state = pic.startup_init(pull_bus, push_period=cfg.push_period_s,
                                  push_enabled=False, serve_cache=cfg.serve_cache)
    endpoint = pic.PicEndpoint(state=pull_state, bus=pull_bus)

    def refresh(eng_: Engine, ev):
        duration = pic.collect_all(pull_state, pull_bus, ev.at)
        return {"duration": duration}

    eng.schedule_at(0.0, "pic-collect", fn=refresh)
    eng.schedule_every(cfg.push_period_s, "pic-collect", refresh)

    def trial(eng_: Engine, ev):
        i = ev.data["trial"]
        label = f"trial:{i}"
        now = ev.at
        r4 = proto.legacy_pull(st_legacy4, links, substream(cfg.seed, label),
                               include_status=False, at=now, timeout_s=cfg.timeout_s,
                               t_status_read=cfg.t_status_read_s)
        r8 = proto.legacy_pull(st_legacy8, links, substream(cfg.seed, label),
                               include_status=True, at=now, timeout_s=cfg.timeout_s,
                               t_status_read=cfg.t_status_read_s)
        rp = proto.pic_pull(endpoint, links, substream(cfg.seed, label),
                            at=now, timeout_s=cfg.timeout_s)
        rng_push = substream(cfg.seed, label)
        cycle = ordered_sum(
            links.local_bus.sample(rng_push, now) + links.metering.sample(rng_push, now)
            for _ in range(len(st_pic.meters))
        ) + 0.5 * links.threeg.sample(rng_push, now)
        return {
            "legacy4": r4.wall_time, "rc4": r4.request_count,
            "legacy8": r8.wall_time, "rc8": r8.request_count,
            "pic": rp.wall_time, "rc1": rp.request_count,
            "push_cycle": cycle,
            "pic_stale_max": max(rp.staleness.values()) if rp.staleness else None,
        }

    for i in range(cfg.trials):
        eng.schedule_at(i * cfg.trial_spacing_s, "trial", data={"trial": i}, fn=trial)

    _attach_push_station(eng, cfg)

    horizon = cfg.trials * cfg.trial_spacing_s if cfg.trials > 0 else cfg.duration_s
    return eng.run_until(horizon)


def _post_compare(cfg: ExperimentConfig, records: dict):
    links = cfg.links
    meters = cfg.stations[0].outlets
    trace = records["trace"]

    trials = [r for r in trace if r["kind"] == "trial"]
    stale_records = [
        r for r in trace
        if r["kind"] in ("stale-probe", "push-arrive")
        and r.get("state", {}).get("stale_max") is not None
    ]

    rows = []
    counts_ok = True
    for r in trials:
        s = r["state"]
        i = r["data"]["trial"]
        rows.append((i, "legacy_pull_power", s["legacy4"], s["rc4"]))
        rows.append((i, "legacy_pull_full", s["legacy8"], s["rc8"]))
        rows.append((i, "pic_pull", s["pic"], s["rc1"]))
        rows.append((i, "pic_push_cycle", s["push_cycle"], 0))
        counts_ok = counts_ok and s["rc4"] == meters and s["rc8"] == 2 * meters and s["rc1"] == 1
    csvs = {
        "retrievals.csv": (("trial", "protocol", "wall_s", "requests"), rows),
        "staleness.csv": (
            ("at", "source", "stale_max_s"),
            [(r["at"], r["kind"], r["state"]["stale_max"]) for r in stale_records],
        ),
    }

    def mean(key):
        return ordered_sum(t["state"][key] for t in trials) / len(trials) if trials else None

    m4, m8, mp, mc = mean("legacy4"), mean("legacy8"), mean("pic"), mean("push_cycle")
    speedup_power = (m4 / mp) if (m4 is not None and mp) else None
    speedup_full = (m8 / mp) if (m8 is not None and mp) else None
    # analytic counterparts of the measured means, from the mixture models
    means = TimingBudget(t_ethernet=links.local_bus.analytic_mean(),
                         t_3g=links.threeg.analytic_mean(),
                         t_metering=links.metering.analytic_mean())
    analytic_legacy = proto.legacy_retrieval_time(means, meters)
    analytic_cycle = proto.push_cycle_time(means, meters)
    analytic_save = proto.t_save(means, meters)
    empirical_save = (m4 - mc) if (m4 is not None and mc is not None) else None
    stale_max = max((r["state"]["stale_max"] for r in stale_records), default=None)
    bound = cfg.push_period_s + proto.push_cycle_time(worst_case_budget(links), meters)

    summary = {
        "trials": len(trials),
        "mean_legacy_power_s": m4,
        "mean_legacy_full_s": m8,
        "mean_pic_pull_s": mp,
        "mean_push_cycle_s": mc,
        "analytic_legacy_power_s": analytic_legacy,
        "analytic_push_cycle_s": analytic_cycle,
        "speedup_power": speedup_power,
        "speedup_full": speedup_full,
        "savings_empirical_s": empirical_save,
        "savings_analytic_s": analytic_save,
        "staleness_max_s": stale_max,
        "staleness_bound_s": bound,
    }

    checks = [Check(
        "request-counts",
        counts_ok,
        f"legacy power={meters}, legacy full={2 * meters}, aggregated pull=1 on every trial",
    )]
    if stale_max is not None:
        checks.append(Check(
            "staleness-bound", stale_max <= bound,
            f"max staleness {stale_max:.3f} s vs bound {bound:.3f} s"))
    if len(trials) >= 1000 and analytic_save > 0 and empirical_save is not None:
        rel = abs(empirical_save - analytic_save) / analytic_save
        checks.append(Check(
            "savings-identity", rel <= 0.02,
            f"empirical {empirical_save:.3f} s vs analytic {analytic_save:.3f} s ({rel:.3%})"))
        rel4 = abs(m4 - analytic_legacy) / analytic_legacy
        relc = abs(mc - analytic_cycle) / analytic_cycle
        checks.append(Check(
            "retrieval-identities", rel4 <= 0.02 and relc <= 0.02,
            f"legacy mean {m4:.3f} s vs analytic {analytic_legacy:.3f} s ({rel4:.2%}); "
            f"push cycle {mc:.3f} s vs analytic {analytic_cycle:.3f} s ({relc:.2%})"))
    expect = cfg.expect
    checks += _expect_exact(expect, "legacy_wall_s", "legacy-worst-case",
                            "legacy power retrieval", m4)
    checks += _expect_ratio(expect, "speedup_power", "speedup-power", speedup_power)
    checks += _expect_ratio(expect, "speedup_full", "speedup-full", speedup_full)
    return csvs, summary, checks


# --------------------------------------------------------------------------
# duty-cycle: sweep current steps, adaptive vs fixed waiting
# --------------------------------------------------------------------------


def _trace_duty_cycle(cfg: ExperimentConfig) -> EventTrace:
    spec = cfg.stations[0]
    if not spec.evs:
        raise ConfigError("fleet.stations[0].evs: the duty-cycle sweep needs at least one EV")
    outlet, swept = spec.evs[0]
    i_final = cfg.duty_sweep["i_final_a"]
    # every point ends at i_final on the swept EV, with the other relays off
    for limit, what in ((swept.max_current, "fleet.stations[0].evs[0].max_current_a"),
                        (spec.circuit_limit, "fleet.stations[0].circuit_limit_a")):
        if i_final > limit:
            raise ConfigError(f"duty_sweep.i_final_a: {i_final!r} A exceeds {what} ({limit!r} A)")
    eng = Engine(cfg.seed, meta={"command": "duty-cycle", "config": cfg.raw})
    station = spec.build()
    ch = station.channel(outlet)
    steps = cfg.duty_sweep["steps"]
    duty = current_to_duty(i_final)
    fixed_wait = compute_t_waiting(ch.ev.settle_cap, cfg.budget)

    def run_point(eng_: Engine, ev):
        delta = ev.data["delta"]
        now = ev.at
        apply_relay(station, outlet, RelayState.ON, now)
        ch.settle_now(i_final - delta, now)
        rng = substream(cfg.seed, f"duty:{delta}")
        change = change_duty_cycle(station, outlet, duty, cfg.links, rng,
                                   cfg.budget, now=now, timeout_s=cfg.timeout_s)
        return {
            "delta": delta,
            "t_ev": (0.0 if delta == 0 else min(ch.ev.settle_cap,
                                                ch.ev.settle_t0 + ch.ev.settle_rate * delta)),
            "adaptive_wait": change.t_waiting,
            "fixed_wait": fixed_wait,
            "outcome": change.outcome.value,
            "reads": len(change.reads),
            "latency": change.completed_at - now,
        }

    span = i_final
    for k in range(steps):
        delta = span * k / (steps - 1) if steps > 1 else 0.0
        eng.schedule_at(k * 3600.0, "duty-point", data={"delta": delta}, fn=run_point)
    return eng.run_until(steps * 3600.0)


def _post_duty_cycle(cfg: ExperimentConfig, records: dict):
    points = [r["state"] for r in records["trace"] if r["kind"] == "duty-point"]
    csvs = {"duty_sweep.csv": (
        ("delta_a", "t_ev_s", "adaptive_wait_s", "fixed_wait_s", "outcome", "reads", "latency_s"),
        [(p["delta"], p["t_ev"], p["adaptive_wait"], p["fixed_wait"], p["outcome"],
          p["reads"], p["latency"]) for p in points],
    )}
    confirmed = all(p["outcome"] == "confirmed" for p in points)
    adaptive_ok = all(p["adaptive_wait"] <= p["fixed_wait"] + 1e-12 for p in points)
    mean_adaptive = ordered_sum(p["adaptive_wait"] for p in points) / len(points) if points else None
    fixed = points[0]["fixed_wait"] if points else None
    summary = {
        "points": len(points),
        "fixed_wait_s": fixed,
        "mean_adaptive_wait_s": mean_adaptive,
        "max_adaptive_wait_s": max((p["adaptive_wait"] for p in points), default=None),
        "all_confirmed": confirmed,
    }
    checks = [
        Check("all-confirmed", confirmed, "every sweep point ended confirmed"),
        Check("adaptive-within-fixed", adaptive_ok,
              "adaptive wait never exceeds the fixed worst-case wait"),
    ]
    if points:
        checks.append(Check(
            "adaptive-mean-below-fixed", mean_adaptive < fixed,
            f"mean adaptive {mean_adaptive:.3f} s vs fixed {fixed:.3f} s"))
    checks += _expect_exact(cfg.expect, "fixed_wait_s", "fixed-wait-value", "fixed wait", fixed)
    return csvs, summary, checks


# --------------------------------------------------------------------------
# local-sched: server-driven vs station-local round robin over one day
# --------------------------------------------------------------------------


def _trace_local_sched(cfg: ExperimentConfig, variant: str) -> EventTrace:
    raw = dict(cfg.raw)
    raw["sched_variant"] = variant
    eng = Engine(cfg.seed, meta={"command": "local-sched", "config": raw})
    spec = cfg.stations[0]
    # EVs arrive through the scenario's plug events, so start with bare outlets.
    station = ChargingStation(
        station_id=spec.station_id, circuit_limit=spec.circuit_limit,
        link=spec.link, outlets=spec.outlets, voltage=spec.voltage,
    )
    rr = cfg.round_robin
    plugged: set = set()
    last_alloc: dict = {}

    def apply_alloc(alloc: dict, now: float):
        # drop loads first so the circuit never transiently over-commits
        targets = {outlet: alloc.get(outlet, 0.0) for outlet in range(len(station.meters))}
        for outlet, amps in targets.items():
            if amps == 0.0 and station.meters[outlet].relay is RelayState.ON:
                apply_relay(station, outlet, RelayState.OFF, now)
                set_current(station, outlet, 0.0, now)
        for outlet, amps in targets.items():
            if amps > 0.0:
                set_current(station, outlet, amps, now)
                if station.meters[outlet].relay is RelayState.OFF:
                    apply_relay(station, outlet, RelayState.ON, now)

    def slot_boundary(eng_: Engine, ev):
        nonlocal last_alloc
        alloc = sched.round_robin_step(rr, plugged, ev.at)
        changed = alloc != last_alloc
        if variant == "server" and changed:
            eng_.schedule(0.0, "sched-cmd",
                          data={"station": spec.station_id,
                                "alloc": {str(o): a for o, a in alloc.items()}})
        apply_alloc(alloc, ev.at)
        last_alloc = alloc
        return {
            "alloc": {str(o): a for o, a in alloc.items()},
            "total": allocated_current_total(station),
            "limit": station.circuit_limit,
            "by": "server" if variant == "server" else "station",
            "changed": changed,
        }

    def plug_event(eng_: Engine, ev):
        outlet = ev.data["outlet"]
        plugged.add(outlet)
        plug_ev(station, outlet, EvModel(), ev.at)
        return {"plugged": sorted(plugged)}

    def unplug_event(eng_: Engine, ev):
        outlet = ev.data["outlet"]
        plugged.discard(outlet)
        unplug_ev(station, outlet, ev.at)
        return {"plugged": sorted(plugged)}

    if variant == "local":
        def set_mode(eng_: Engine, ev):
            select_algorithm_mode(station, AlgorithmMode.ROUND_ROBIN)
            return {"mode": AlgorithmMode.ROUND_ROBIN.value}
        eng.schedule_at(0.0, "mode-set", fn=set_mode)

    rng = eng.stream("plug-scenario")
    for outlet, _ in spec.evs:
        t_plug = rng.uniform(0.0, cfg.duration_s * 0.25)
        t_unplug = rng.uniform(cfg.duration_s * 0.75, cfg.duration_s)
        eng.schedule_at(t_plug, "plug", data={"outlet": outlet}, fn=plug_event)
        eng.schedule_at(t_unplug, "unplug", data={"outlet": outlet}, fn=unplug_event)

    n_slots = int(cfg.duration_s // rr.slot_length_s)
    for k in range(n_slots + 1):
        eng.schedule_at(k * rr.slot_length_s, "slot", fn=slot_boundary)
    return eng.run_until(cfg.duration_s)


def _post_local_sched(cfg: ExperimentConfig, records: dict):
    summary: dict = {}
    checks = []
    traffic_rows = []
    for variant, trace in records.items():
        slots = [r for r in trace if r["kind"] == "slot"]
        cmds = [r for r in trace if r["kind"] == "sched-cmd"]
        changes = sum(1 for r in slots if r["state"]["changed"])
        worst = max((r["state"]["total"] for r in slots), default=0.0)
        limit = slots[0]["state"]["limit"] if slots else cfg.stations[0].circuit_limit
        violations = sum(1 for r in slots if r["state"]["total"] > r["state"]["limit"] + 1e-9)
        traffic_rows.append((variant, len(slots), changes, len(cmds), worst, violations))
        summary[variant] = {
            "slots": len(slots),
            "alloc_changes": changes,
            "sched_messages": len(cmds),
            "worst_total_a": worst,
            "violations": violations,
        }
        if variant == "local":
            checks.append(Check(
                "local-zero-traffic", len(cmds) == 0,
                f"{len(cmds)} scheduling messages after mode selection"))
        else:
            checks.append(Check(
                "server-traffic-per-change", len(cmds) >= changes and changes > 0,
                f"{len(cmds)} messages for {changes} allocation changes"))
        checks.append(Check(
            f"{variant}-circuit-safety", violations == 0,
            f"worst total {worst:.1f} A vs limit {limit:.1f} A"))
    csvs = {"traffic.csv": (
        ("variant", "slots", "alloc_changes", "sched_messages", "worst_total_a", "violations"),
        traffic_rows,
    )}
    return csvs, summary, checks


# --------------------------------------------------------------------------
# the command table, the run, and replay
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """A command's traces, each built by a named builder from the config,
    and its post-processor: a pure function of the config and each trace's
    record list, returning ``(csvs, summary, checks)``."""

    builders: dict    # trace name -> (ExperimentConfig -> EventTrace)
    post: Callable


COMMANDS = {
    "rtt-dist": Command({"trace": _trace_rtt_dist}, _post_rtt_dist),
    "compare-protocols": Command({"trace": _trace_compare}, _post_compare),
    "duty-cycle": Command({"trace": _trace_duty_cycle}, _post_duty_cycle),
    # each local-sched trace records its variant in its header config
    "local-sched": Command({variant: partial(_trace_local_sched, variant=variant)
                            for variant in ("server", "local")}, _post_local_sched),
}


def run(command: str, cfg: ExperimentConfig) -> ExperimentOutput:
    """Build every trace of ``command`` and post-process their records.

    A handler exception truncates its trace; post-processing would then read
    state the failed event never recorded. Such a run skips it and gets one
    failing check that names the event that failed."""
    spec = COMMANDS[command]
    out = ExperimentOutput(command=command, traces=[
        (name, build(cfg)) for name, build in spec.builders.items()])
    for name, trace in out.traces:
        if trace.failed:
            last = trace.records[-1]
            out.checks.append(Check(
                "trace-complete", False,
                f"{name} truncated: event {last['kind']!r} at {last['at']!r} s failed: "
                f"{last['error']}"))
            return out
    out.csvs, out.summary, out.checks = spec.post(
        cfg, {name: trace.records for name, trace in out.traces})
    return out


@dataclass
class ReplayVerdict:
    identical: bool
    command: str
    expected_digest: str
    actual_digest: str


def cmd_replay(trace_path) -> ReplayVerdict:
    """Re-run a trace file's (seed, config) with the builder that wrote it
    and compare digests."""
    parsed: ParsedTrace = read_trace(trace_path)
    command = parsed.header.get("command")
    if command not in COMMANDS:
        raise ValueError(f"trace was produced by unknown command {command!r}")
    raw = parsed.header.get("config")
    if not isinstance(raw, dict):
        raise ValueError("trace header carries no config; cannot replay")
    raw = dict(raw)
    name = raw.pop("sched_variant", "trace")
    build = COMMANDS[command].builders.get(name)
    if build is None:
        raise ValueError(f"{command} writes no trace named {name!r}")
    actual = build(from_dict(raw)).digest()
    return ReplayVerdict(
        identical=actual == parsed.stored_digest,
        command=command,
        expected_digest=parsed.stored_digest,
        actual_digest=actual,
    )
