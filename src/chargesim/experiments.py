"""Experiment harness: each command schedules its scenario on seeded
engines, runs them, and folds the trace records into CSV rows, a summary,
and pass/fail checks.

Each command has a fold, built from the config. The fold is handed every
record of every trace, in order, as ``add(name, record)`` with the trace's
name, while the engine runs; ``finish()`` then returns ``(csvs, summary,
checks)``. A fold keeps tuples and counters, never record dicts, and reads
nothing but the config and the records, so a written trace file streamed
through ``read_trace`` into a fresh fold reproduces (and verifies) a run.

Two kinds of work run in a forked child when the platform has ``fork`` and
the process runs one thread (``_may_fork``), through one helper,
``_Forked``: each trace after a command's first (local-sched's ``local``),
and compare-protocols' per-trial legacy pulls and push-cycle estimates,
which the child streams back to the trial events in order, when the run
has more than one chunk (``FORK_CHUNK``) of trials. Outputs are
byte-identical either way, and no child outlives the run.
"""
from __future__ import annotations

import os
from functools import partial
from pathlib import Path
from typing import NamedTuple, NoReturn, Optional

from . import pic, proto, sched
from .config import ConfigError, ExperimentConfig, check_count, check_series, from_dict
from .control import change_duty_cycle, compute_t_waiting, current_to_duty
from .domain import (
    AlgorithmMode,
    ChargingStation,
    RelayState,
    allocated_current_total,
    apply_allocation,
    apply_relay,
    ev_settle_time,
    exceeds_limit,
    plug_ev,
    set_current,
    unplug_ev,
)
from .latency import (LatencyModel, LinkKind, TimingBudget, count_modes, histogram_of,
                      worst_case_budget)
from .sim import Engine, EventTrace, ordered_sum, read_trace, substream, substream_readers

MODE_BINS = 45


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ExperimentOutput:
    """A command's traces and what its fold made of them."""

    __slots__ = ("command", "traces", "csvs", "summary", "checks")

    def __init__(self, command: str, traces: list):
        self.command = command
        self.traces = traces     # (name, EventTrace or _ChildTrace), records not kept
        self.csvs: dict = {}     # filename -> (header tuple, rows)
        self.summary: dict = {}
        self.checks: list = []

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
    want = expect[key]
    return [Check(name, abs(value - want) < 1e-9, f"{label} {value!r} s, expected {want!r} s")]


def _expect_ratio(expect: dict, key: str, name: str, value) -> list:
    """The ``name`` check when ``expect`` gives ``key``: ``value`` must be
    within ``speedup_tolerance`` of it, relatively."""
    if key not in expect or value is None:
        return []
    want = expect[key]
    tol = expect["speedup_tolerance"]
    rel = abs(value - want) / want
    return [Check(name, rel <= tol, f"{value:.3f}x vs {want}x ({rel:.3%}, tol {tol:.0%})")]


# --------------------------------------------------------------------------
# rtt-dist: one week of five-minute probes per uplink kind
# --------------------------------------------------------------------------


def _trace_rtt_dist(eng: Engine, cfg: ExperimentConfig) -> float:
    check_series("probe_period_s", cfg.probe_period_s, cfg.duration_s)
    links = cfg.links
    cloud = links.cloud
    metering = links.metering.sample

    def series(link: LinkKind):
        """The probe handler of ``link``'s series, its model and stream bound."""
        segment = links.for_link(link).sample
        rng = eng.stream(f"rtt:{link.value}")

        def probe(at, data):
            seg = segment(rng, at)
            return {"seg": seg, "rtt": cloud + seg + metering(rng, at)}

        return probe

    for link in LinkKind:
        eng.schedule_every(cfg.probe_period_s, "rtt-probe", series(link),
                           data={"link": link.value})
    return cfg.duration_s


class _RttDistFold:
    """rtt-dist: per-link ``(at, seg, rtt)`` of every probe, filed under the
    link's value."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.samples: dict = {link.value: [] for link in LinkKind}

    def add(self, name: str, rec: dict) -> None:
        if rec["kind"] == "rtt-probe":
            state = rec["state"]
            self.samples[rec["data"]["link"]].append((rec["at"], state["seg"], state["rtt"]))

    def finish(self):
        cfg = self.cfg
        links = cfg.links
        csvs: dict = {}
        summary: dict = {}
        samples = self.samples

        met_max = links.metering.hard_max
        for link in LinkKind:
            rows = samples[link.value]
            segs = [s for _, s, _ in rows]
            rtts = [r for _, _, r in rows]
            seg_hist = histogram_of(segs, MODE_BINS, 0.0, links.for_link(link).hard_max)
            rtt_hist = histogram_of(rtts, MODE_BINS, 0.0,
                                    links.for_link(link).hard_max + met_max + links.cloud)
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
        threeg = samples[LinkKind.THREE_G.value]
        for day in range(7):
            day_segs = [s for at, s, _ in threeg if int(at // 86400.0) % 7 == day]
            if not day_segs:
                continue
            hist = histogram_of(day_segs, MODE_BINS, 0.0, links.threeg.hard_max)
            day_rows.extend((day, lo, hi, c) for lo, hi, c in hist.rows())
        csvs["threeg_by_day.csv"] = (("day", "bin_low", "bin_high", "count"), day_rows)

        expect = cfg.expect
        modes_min = expect["threeg_modes_min"]
        eth = samples[LinkKind.ETHERNET.value]
        band_lo, band_hi = expect["ethernet_rtt_band"]
        frac_needed = expect["ethernet_rtt_frac"]
        # the band is the station's, so each probe's rtt is tested less the cloud term
        cloud = links.cloud
        eth_rtts = [r - cloud for _, _, r in eth]
        tested = f"Ethernet RTTs less the {cloud:g} s cloud term" if cloud else "Ethernet RTTs"
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
                  f"{in_band:.3f} of {tested} in [{band_lo}, {band_hi}] s, need >= {frac_needed}"),
        ]
        return csvs, summary, checks


# --------------------------------------------------------------------------
# compare-protocols: matched retrieval trials and live pushes on one station
# --------------------------------------------------------------------------


def _collector(eng: Engine, cfg: ExperimentConfig, station: ChargingStation,
               stream: str) -> pic.PicEndpoint:
    """A started collector on ``station``, its meter bus drawing from the
    engine's stream named ``stream``."""
    bus = pic.MeterBus(station, cfg.links.local_bus, cfg.links.metering, eng.stream(stream))
    state = pic.startup_init(bus, push_period=cfg.push_period_s, serve_cache=cfg.serve_cache)
    return pic.PicEndpoint(state=state, bus=bus)


def _stale_state(staleness: dict) -> dict:
    """The trace state of a non-empty staleness report: its maximum and each
    outlet's value."""
    return {"stale_max": max(staleness.values()),
            "stale": {str(m.outlet): s for m, s in staleness.items()}}


def _attach_push_station(eng: Engine, cfg: ExperimentConfig, station: ChargingStation,
                         uplink: LatencyModel) -> None:
    """Wire a push-mode collector on ``station`` into the engine: periodic
    timer ticks drive collections and packets over ``uplink`` into a server
    store; store consumption and probes record staleness."""
    plugged = [o for o in range(len(station.meters)) if station.meters[o].ev is not None]
    per_ev = min(16.0, station.circuit_limit / max(1, len(plugged)))
    for outlet in plugged:
        set_current(station, outlet, per_ev, 0.0)
        apply_relay(station, outlet, RelayState.ON, 0.0)
    sid = station.station_id
    collector = _collector(eng, cfg, station, f"bus:{sid}")
    uplink_rng = eng.stream(f"uplink:{sid}")
    store = proto.ServerStore()

    def consume(at, packet):
        packet.received_at = at
        staleness = proto.push_consume(store, packet, at)
        if staleness is None:
            return {"station": sid, "seq": packet.seq, "discarded": True}
        return {"station": sid, "seq": packet.seq, **_stale_state(staleness)}

    def step(at, data):
        sent: list = []
        msgs = pic.main_loop_step(collector.state, collector.bus, sent.append, at)
        for packet in sent:
            transit = 0.5 * uplink.sample(uplink_rng, packet.sent_at)
            eng.schedule_at(
                packet.sent_at + transit, "push-arrive",
                data={"station": sid, "seq": packet.seq},
                fn=lambda at, data, p=packet: consume(at, p),
            )
        return {"station": sid, "pushes": len(sent), "messages": len(msgs)}

    def tick(at, data):
        pic.on_timer_interrupt(collector.state)
        eng.schedule_at(at, "push-step", fn=step)
        return None

    def probe(at, data):
        staleness = store.staleness_at(sid, at)
        if not staleness:
            return {"station": sid, "stored": False}
        return {"station": sid, "stored": True, **_stale_state(staleness)}

    eng.schedule_every(cfg.push_period_s, "push-tick", tick)
    eng.schedule_every(cfg.probe_period_s, "stale-probe", probe)


def _trace_compare(eng: Engine, cfg: ExperimentConfig) -> float:
    check_count("trials", cfg.trials)
    horizon = cfg.trials * cfg.trial_spacing_s if cfg.trials > 0 else cfg.duration_s
    check_series("probe_period_s", cfg.probe_period_s, horizon)
    check_series("push_period_s", cfg.push_period_s, horizon)
    links = cfg.links
    spec = cfg.station
    uplink = links.for_link(spec.link)
    # Every protocol acts on this one station. No record reads a snapshot's
    # amps or relay, so what one protocol does to them moves nothing.
    station = spec.build()

    # Aggregated-pull endpoint. In cache-serving mode its own periodic
    # collection keeps the cache fresh, so pulls are served without a
    # metering term; otherwise each pull sweeps afresh and reads no cache.
    endpoint = _collector(eng, cfg, station, "pull-bus")

    def refresh(at, data):
        duration = pic.collect_all(endpoint.state, endpoint.bus, at)
        return {"duration": duration}

    if cfg.serve_cache:
        eng.schedule_at(0.0, "pic-collect", fn=refresh)
        eng.schedule_every(cfg.push_period_s, "pic-collect", refresh)

    def outcomes(i):
        """Trial ``i``'s two legacy pulls and push-cycle estimate, as
        ``(legacy4, rc4, legacy8, rc8, push_cycle)``: they read the seed, the
        trial index and the station, which nothing changes once this builder
        has run, and no engine state, so a forked child may compute them."""
        at = i * cfg.trial_spacing_s
        # these and the trial's aggregated pull run against the same draws of its stream
        rng4, rng8, rng_push = substream_readers(cfg.seed, f"trial:{i}", 3)
        r4 = proto.legacy_pull(station, links, rng4,
                               include_status=False, at=at, timeout_s=cfg.timeout_s,
                               t_status_read=cfg.t_status_read_s)
        r8 = proto.legacy_pull(station, links, rng8,
                               include_status=True, at=at, timeout_s=cfg.timeout_s,
                               t_status_read=cfg.t_status_read_s)
        cycle = ordered_sum(
            links.local_bus.sample(rng_push, at) + links.metering.sample(rng_push, at)
            for _ in range(len(station.meters))
        ) + 0.5 * uplink.sample(rng_push, at)
        return r4.wall_time, r4.request_count, r8.wall_time, r8.request_count, cycle

    def trial(at, data):
        result = next_outcomes()
        if isinstance(result, Exception):  # what outcomes raised in the child
            raise result
        legacy4, rc4, legacy8, rc8, cycle = result
        # the pull reads the pull collector's cache, so it runs here, on a
        # fresh derivation of the trial's stream
        rp = proto.pic_pull(endpoint, links, substream(cfg.seed, f"trial:{data['trial']}"),
                            at=at, timeout_s=cfg.timeout_s)
        return {
            "legacy4": legacy4, "rc4": rc4,
            "legacy8": legacy8, "rc8": rc8,
            "pic": rp.wall_time, "rc1": rp.request_count,
            "push_cycle": cycle,
            "pic_stale_max": rp.stale_max,
        }

    for i in range(cfg.trials):
        eng.schedule_at(i * cfg.trial_spacing_s, "trial", data={"trial": i}, fn=trial)

    _attach_push_station(eng, cfg, station, uplink)
    # The station is now as every trial finds it. The trials take their
    # outcomes in order, from a child that computes them ahead of the engine
    # when this process may fork, or here, one per trial, otherwise. A run
    # of at most one chunk of trials computes them here: at that size the
    # fork, the pipe and the wait for the only chunk cost what they save.
    if cfg.trials > FORK_CHUNK and _may_fork():
        feed = _Forked(outcomes, range(cfg.trials), "computing compare-protocols trials")
        eng.closing.append(feed.close)
        next_outcomes = feed.results.__next__
    else:
        next_outcomes = map(outcomes, range(cfg.trials)).__next__
    return horizon


class _Trial(NamedTuple):
    trial: int
    legacy4: float
    rc4: int
    legacy8: float
    rc8: int
    pic: float
    rc1: int
    push_cycle: float


class _CompareFold:
    """compare-protocols: one ``_Trial`` per trial record, and one
    ``(at, source, stale_max)`` row per staleness record that has one."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.trials: list = []
        self.stale: list = []

    def add(self, name: str, rec: dict) -> None:
        kind = rec["kind"]
        if kind == "trial":
            s = rec["state"]
            self.trials.append(_Trial(rec["data"]["trial"], s["legacy4"], s["rc4"], s["legacy8"],
                                      s["rc8"], s["pic"], s["rc1"], s["push_cycle"]))
        elif kind == "stale-probe" or kind == "push-arrive":
            stale_max = rec["state"].get("stale_max")
            if stale_max is not None:
                self.stale.append((rec["at"], kind, stale_max))

    def finish(self):
        cfg = self.cfg
        links = cfg.links
        link = cfg.station.link
        uplink = links.for_link(link)
        meters = cfg.station.outlets
        trials = self.trials

        rows = []
        counts_ok = True
        for t in trials:
            rows.append((t.trial, "legacy_pull_power", t.legacy4, t.rc4))
            rows.append((t.trial, "legacy_pull_full", t.legacy8, t.rc8))
            rows.append((t.trial, "pic_pull", t.pic, t.rc1))
            rows.append((t.trial, "pic_push_cycle", t.push_cycle, 0))
            counts_ok = counts_ok and t.rc4 == meters and t.rc8 == 2 * meters and t.rc1 == 1
        csvs = {
            "retrievals.csv": (("trial", "protocol", "wall_s", "requests"), rows),
            "staleness.csv": (("at", "source", "stale_max_s"), self.stale),
        }

        def mean(key):
            return ordered_sum(getattr(t, key) for t in trials) / len(trials) if trials else None

        m4, m8, mp, mc = mean("legacy4"), mean("legacy8"), mean("pic"), mean("push_cycle")
        speedup_power = (m4 / mp) if (m4 is not None and mp) else None
        speedup_full = (m8 / mp) if (m8 is not None and mp) else None
        # analytic counterparts of the measured means, from the mixture models
        means = TimingBudget(t_ethernet=links.local_bus.analytic_mean(),
                             t_3g=uplink.analytic_mean(),
                             t_metering=links.metering.analytic_mean())
        analytic_legacy = proto.legacy_retrieval_time(means, meters, links.cloud)
        analytic_cycle = proto.push_cycle_time(means, meters)
        analytic_save = proto.t_save(means, meters, links.cloud)
        empirical_save = (m4 - mc) if (m4 is not None and mc is not None) else None
        stale_max = max((stale for _, _, stale in self.stale), default=None)
        bound = cfg.push_period_s + proto.push_cycle_time(worst_case_budget(links, link), meters)

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
        # The identities hold in the mean of C3's 10^4 trials (the 2% band is
        # only 1.8 standard errors at 1000 on the default models), and only if
        # no power request can time out.
        no_timeouts = cfg.timeout_s >= links.cloud + uplink.hard_max + links.metering.hard_max
        if len(trials) >= 10_000 and no_timeouts and analytic_save > 0:
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


def _trace_duty_cycle(eng: Engine, cfg: ExperimentConfig) -> float:
    steps = cfg.duty_sweep["steps"]
    check_count("duty_sweep.steps", steps)
    spec = cfg.station
    if not spec.evs:
        raise ConfigError("fleet.stations[0].evs: the duty-cycle sweep needs at least one EV")
    outlet, swept = spec.evs[0]
    i_final = cfg.duty_sweep["i_final_a"]
    # every point ends at i_final on the swept EV, with the other relays off
    for limit, what in ((swept.max_current, "fleet.stations[0].evs[0].max_current_a"),
                        (spec.circuit_limit, "fleet.stations[0].circuit_limit_a")):
        if i_final > limit:
            raise ConfigError(f"duty_sweep.i_final_a: {i_final!r} A exceeds {what} ({limit!r} A)")
    station = spec.build()
    ch = station.channel(outlet)
    duty = current_to_duty(i_final)
    fixed_wait = compute_t_waiting(ch.ev.settle_cap, cfg.budget)

    def run_point(at, data):
        delta = data["delta"]
        apply_relay(station, outlet, RelayState.ON, at)
        ch.settle_now(i_final - delta, at)
        rng = substream(cfg.seed, f"duty:{delta}")
        change = change_duty_cycle(station, outlet, duty, cfg.links, rng,
                                   cfg.budget, now=at, timeout_s=cfg.timeout_s)
        return {
            "delta": delta,
            "t_ev": ev_settle_time(ch.ev, 0.0, delta),
            "adaptive_wait": change.t_waiting,
            "fixed_wait": fixed_wait,
            "outcome": change.outcome.value,
            "reads": len(change.reads),
            "latency": change.completed_at - at,
        }

    for k in range(steps):
        # the clamp keeps a last point that rounds above i_final inside the sweep
        delta = min(i_final, i_final * k / (steps - 1)) if steps > 1 else 0.0
        eng.schedule_at(k * 3600.0, "duty-point", data={"delta": delta}, fn=run_point)
    return steps * 3600.0


class _DutyPoint(NamedTuple):
    delta_a: float
    t_ev_s: float
    adaptive_wait_s: float
    fixed_wait_s: float
    outcome: str
    reads: int
    latency_s: float


class _DutyCycleFold:
    """duty-cycle: one ``_DutyPoint`` (a ``duty_sweep.csv`` row) per point."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.points: list = []

    def add(self, name: str, rec: dict) -> None:
        if rec["kind"] == "duty-point":
            p = rec["state"]
            self.points.append(_DutyPoint(p["delta"], p["t_ev"], p["adaptive_wait"],
                                          p["fixed_wait"], p["outcome"], p["reads"],
                                          p["latency"]))

    def finish(self):
        points = self.points
        csvs = {"duty_sweep.csv": (_DutyPoint._fields, points)}
        confirmed = all(p.outcome == "confirmed" for p in points)
        adaptive_ok = all(p.adaptive_wait_s <= p.fixed_wait_s + 1e-12 for p in points)
        mean_adaptive = (ordered_sum(p.adaptive_wait_s for p in points) / len(points)
                         if points else None)
        fixed = points[0].fixed_wait_s if points else None
        summary = {
            "points": len(points),
            "fixed_wait_s": fixed,
            "mean_adaptive_wait_s": mean_adaptive,
            "max_adaptive_wait_s": max((p.adaptive_wait_s for p in points), default=None),
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
        checks += _expect_exact(self.cfg.expect, "fixed_wait_s", "fixed-wait-value",
                                "fixed wait", fixed)
        return csvs, summary, checks


# --------------------------------------------------------------------------
# local-sched: server-driven vs station-local round robin over one day
# --------------------------------------------------------------------------


def _trace_local_sched(eng: Engine, cfg: ExperimentConfig, variant: str) -> float:
    rr = cfg.round_robin
    check_series("round_robin.slot_length_s", rr.slot_length_s, cfg.duration_s)
    spec = cfg.station
    # EVs arrive through the scenario's plug events, so start with bare outlets.
    station = spec._replace(evs=[]).build()
    evs = dict(spec.evs)
    plugged: set = set()
    last_alloc: dict = {}

    def slot_boundary(at, data):
        nonlocal last_alloc
        mode = spec.algorithm if variant == "server" else station.local_algorithm
        alloc = sched.allocate(mode, rr, cfg.schedule_time, plugged, at)
        changed = alloc != last_alloc
        # shared by the command and the slot record: neither changes it
        by_outlet = {str(o): a for o, a in alloc.items()}
        if variant == "server" and changed:
            eng.schedule_at(at, "sched-cmd",
                            data={"station": spec.station_id, "alloc": by_outlet})
        apply_allocation(station, alloc, at)
        last_alloc = alloc
        return {
            "alloc": by_outlet,
            "total": allocated_current_total(station),
            "limit": station.circuit_limit,
            "by": "server" if variant == "server" else "station",
            "changed": changed,
        }

    def plug_event(at, data):
        outlet = data["outlet"]
        plugged.add(outlet)
        plug_ev(station, outlet, evs[outlet], at)
        return {"plugged": sorted(plugged)}

    def unplug_event(at, data):
        outlet = data["outlet"]
        plugged.discard(outlet)
        unplug_ev(station, outlet, at)
        return {"plugged": sorted(plugged)}

    if variant == "local":
        def set_mode(at, data):
            mode = spec.algorithm
            if mode is AlgorithmMode.NONE:
                mode = AlgorithmMode.ROUND_ROBIN
            station.local_algorithm = mode
            return {"mode": mode.value}
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
    return cfg.duration_s


class _SchedCounts:
    """One local-sched variant's slot and scheduling-message tallies."""

    __slots__ = ("slots", "changes", "cmds", "worst", "limit", "violations")

    def __init__(self):
        self.slots = 0
        self.changes = 0
        self.cmds = 0
        self.worst: Optional[float] = None   # the highest slot total so far
        self.limit: Optional[float] = None   # the first slot's limit
        self.violations = 0


class _LocalSchedFold:
    """local-sched: per-variant counters and the worst slot total."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.counts = {variant: _SchedCounts() for variant in SCHED_VARIANTS}

    def add(self, name: str, rec: dict) -> None:
        kind = rec["kind"]
        if kind == "slot":
            s = rec["state"]
            c = self.counts[name]
            total = s["total"]
            c.slots += 1
            c.changes += s["changed"]
            if c.worst is None or total > c.worst:
                c.worst = total
            if c.limit is None:
                c.limit = s["limit"]
            c.violations += exceeds_limit(total, s["limit"])
        elif kind == "sched-cmd":
            self.counts[name].cmds += 1

    def finish(self):
        header = ("variant", "slots", "alloc_changes", "sched_messages", "worst_total_a",
                  "violations")
        summary: dict = {}
        checks = []
        traffic_rows = []
        for variant, c in self.counts.items():
            worst = 0.0 if c.worst is None else c.worst
            limit = self.cfg.station.circuit_limit if c.limit is None else c.limit
            row = (variant, c.slots, c.changes, c.cmds, worst, c.violations)
            traffic_rows.append(row)
            summary[variant] = dict(zip(header[1:], row[1:]))
            if variant == "local":
                checks.append(Check(
                    "local-zero-traffic", c.cmds == 0,
                    f"{c.cmds} scheduling messages after mode selection"))
            else:
                checks.append(Check(
                    "server-traffic-per-change", c.cmds >= c.changes,
                    f"{c.cmds} messages for {c.changes} allocation changes"))
            checks.append(Check(
                f"{variant}-circuit-safety", c.violations == 0,
                f"worst total {worst:.1f} A vs limit {limit:.1f} A"))
        csvs = {"traffic.csv": (header, traffic_rows)}
        return csvs, summary, checks


# --------------------------------------------------------------------------
# the command table, the run, and replay
# --------------------------------------------------------------------------


class Command(NamedTuple):
    """A command's traces, each scheduled on a fresh engine by a named
    builder, and its fold: built from the config, handed every record as
    ``add(trace name, record)``, and asked for ``(csvs, summary, checks)``
    by ``finish()``.

    ``run`` builds each trace after the first in a forked child when the
    platform has ``fork`` and the process runs one thread, so the fold of a
    command with several traces keeps what each trace adds apart, in
    ``counts[name]``: that is all of the fold a child sends back. A builder
    may also hand work that reads no engine state to a child of its own, as
    compare-protocols does with its trials' legacy pulls and push-cycle
    estimates, registering the child's ``close`` in ``Engine.closing``.
    Outputs are byte-identical either way, and no child outlives the run."""

    builders: dict    # trace name -> ((Engine, ExperimentConfig) -> horizon s)
    fold: type        # ExperimentConfig -> fold


SCHED_VARIANTS = ("server", "local")

COMMANDS = {
    "rtt-dist": Command({"trace": _trace_rtt_dist}, _RttDistFold),
    "compare-protocols": Command({"trace": _trace_compare}, _CompareFold),
    "duty-cycle": Command({"trace": _trace_duty_cycle}, _DutyCycleFold),
    "local-sched": Command({variant: partial(_trace_local_sched, variant=variant)
                            for variant in SCHED_VARIANTS}, _LocalSchedFold),
}


def trace_file(name: str) -> str:
    """The file name of a command's trace ``name``."""
    return "trace.jsonl" if name == "trace" else f"trace_{name}.jsonl"


def run(command: str, cfg: ExperimentConfig, out_dir=None) -> ExperimentOutput:
    """Build every trace of ``command``, folding its records as they are
    emitted, and streaming each trace into ``out_dir`` when one is given.

    A command with several traces builds each trace after the first in a
    forked child, while this process builds the first, when the platform
    has ``fork`` and the process runs one thread; otherwise it builds them
    in turn, here. Under the same condition, and when it runs more than
    ``FORK_CHUNK`` trials, compare-protocols computes its trials' legacy
    pulls and push-cycle estimates in a forked child, which streams them to
    the trial events, and computes them at each trial event otherwise.
    Outputs are byte-identical either way: the traces keep their order, and
    an exception a child raised is raised here where it would have been. No child outlives the run: each is reaped before ``run``
    returns or raises, and killed first if the run is abandoned (which
    leaves a child's trace file without the footer ``read_trace`` needs).

    A handler exception truncates its trace; the fold would then miss state
    the failed event never recorded. Such a run skips ``finish()`` and gets
    one failing check that names the event that failed."""
    fold = COMMANDS[command].fold(cfg)
    out = ExperimentOutput(command=command, traces=_build_traces(command, cfg, fold, out_dir))
    for name, trace in out.traces:
        if trace.failed:
            last = trace.last
            out.checks.append(Check(
                "trace-complete", False,
                f"{name} truncated: event {last['kind']!r} at {last['at']!r} s failed: "
                f"{last['error']}"))
            return out
    out.csvs, out.summary, out.checks = fold.finish()
    return out


def _may_fork() -> bool:
    """Whether this process may fork: ``os.fork`` exists and no second
    thread runs (a child gets only the forking thread, so a lock another
    thread held would stay locked in it)."""
    if not hasattr(os, "fork"):
        return False
    import threading
    return threading.active_count() == 1


class _ChildTrace:
    """What ``run`` keeps of a trace a forked child built: its
    ``EventTrace``'s ``digest()``, ``count``, ``last`` and ``failed``."""

    __slots__ = ("_digest", "count", "last", "failed")

    def __init__(self, digest: str, count: int, last: Optional[dict], failed: bool):
        self._digest = digest
        self.count = count
        self.last = last
        self.failed = failed

    def digest(self) -> str:
        return self._digest


FORK_CHUNK = 256  # results a forked child pickles and sends at once


class _Forked:
    """``fn`` over ``items`` in a child forked when this is made.

    ``results`` yields, in the items' order, what each call returned or the
    ``Exception`` it raised (so ``fn`` returns no exception), as the child
    sends them in pickled chunks of ``FORK_CHUNK``. Once they end the child
    is reaped, and an exit code other than 0 raises a ``RuntimeError`` that
    names ``what`` the child was doing. ``close()`` kills the child if it
    still runs and reaps it; its owner calls it in a ``finally``, so no child
    outlives a run, however the run ends."""

    __slots__ = ("_pid", "_pipe", "_what", "results")

    def __init__(self, fn, items, what: str):
        # loaded here, before the fork, so a run that forks nothing never
        # loads it and the child finds it loaded
        import pickle  # noqa: F401

        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            os.close(read)
            _serve(fn, items, write)
        os.close(write)
        self._pid: Optional[int] = pid  # None once reaped
        self._pipe = os.fdopen(read, "rb")
        self._what = what
        self.results = self._read()

    def _read(self):
        from pickle import load

        pipe = self._pipe
        while True:
            try:
                chunk = load(pipe)
            except EOFError:
                break
            yield from chunk
        pipe.close()
        code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._pid = None
        if code != 0:
            raise RuntimeError(f"the process {self._what} exited with code {code}")

    def close(self) -> None:
        import signal

        self.results.close()
        self._pipe.close()
        pid = self._pid
        if pid is None:
            return
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # reaped just before an interrupt
            pass
        self._pid = None


def _serve(fn, items, write: int) -> NoReturn:
    """In a forked child: pickle what ``fn`` returns or raises for each of
    ``items`` to the pipe ``write``, ``FORK_CHUNK`` at a time, and leave with
    ``os._exit``, so none of the parent's ``finally`` blocks, ``atexit``
    hooks or buffered output runs twice."""
    import pickle  # loaded already, by the parent before it forked

    status = 1
    try:
        with os.fdopen(write, "wb") as pipe:
            chunk: list = []
            for item in items:
                try:
                    chunk.append(fn(item))
                except Exception as exc:  # noqa: BLE001 - the parent raises it
                    chunk.append(exc)
                if len(chunk) == FORK_CHUNK:
                    pickle.dump(chunk, pipe)
                    pipe.flush()
                    chunk = []
            if chunk:
                pickle.dump(chunk, pipe)
        status = 0
    finally:
        os._exit(status)


def _build_traces(command: str, cfg: ExperimentConfig, fold, out_dir) -> list:
    """``run``'s ``(name, trace)`` list, in the command's order. When the
    command has several traces and ``_may_fork()``, a child is forked per
    trace after the first, this process builds the first meanwhile, and
    each child's message (its trace's digest, count, last record and failed
    flag, and ``fold.counts[name]``) is then taken in turn, its fold state
    put in ``fold.counts``; otherwise this process builds every trace in
    turn."""
    names = list(COMMANDS[command].builders)
    forked = names[1:] if len(names) > 1 and _may_fork() else []

    def build_in_child(name):
        trace = build_trace(command, name, cfg, partial(fold.add, name), out_dir)
        return trace.digest(), trace.count, trace.last, trace.failed, fold.counts[name]

    children: dict = {}  # trace name -> _Forked
    try:
        for name in forked:
            children[name] = _Forked(build_in_child, (name,), f"building trace {name!r}")
        traces = [(name, build_trace(command, name, cfg, partial(fold.add, name), out_dir))
                  for name in names if name not in children]
        for name, child in children.items():
            for message in child.results:  # one message, then the child is reaped
                if isinstance(message, Exception):
                    raise message
                digest, count, last, failed, fold.counts[name] = message
                traces.append((name, _ChildTrace(digest, count, last, failed)))
        return traces
    finally:
        for child in children.values():
            child.close()


def build_trace(command: str, name: str, cfg: ExperimentConfig, consume=None,
                out_dir=None) -> EventTrace:
    """Schedule ``command``'s trace ``name`` on a fresh engine and run it,
    handing each record to ``consume``. With ``out_dir``, the trace streams
    into ``out_dir/trace_file(name)``, opened only once the builder has
    scheduled its events (a builder's ``ConfigError`` leaves no file) and
    finished with its digest footer, also when an event failed. The
    engine is closed however the run ends, so a child the builder forked
    to feed its events is reaped, or killed first, before this returns.

    The header config of a trace not named ``trace`` records its name as
    ``sched_variant``, which ``cmd_replay`` removes to find the builder."""
    raw = cfg.raw if name == "trace" else {**cfg.raw, "sched_variant": name}
    eng = Engine(cfg.seed, meta={"command": command, "config": raw})
    try:
        horizon = COMMANDS[command].builders[name](eng, cfg)
        trace = eng.trace
        trace.consume = consume
        if out_dir is None:
            return eng.run_until(horizon)
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / trace_file(name)
        trace.open(path)
        try:
            eng.run_until(horizon)
            trace.write(path)
        finally:
            trace.close()
        return trace
    finally:
        eng.close()


class ReplayVerdict(NamedTuple):
    """A replay's three digests: the footer's (``expected_digest``), the
    file's own header and record lines' (``file_digest``) and the re-run's
    (``actual_digest``). The trace is identical only when all three agree."""

    command: str
    expected_digest: str
    file_digest: str
    actual_digest: str

    @property
    def identical(self) -> bool:
        return self.expected_digest == self.file_digest == self.actual_digest


def cmd_replay(trace_path) -> ReplayVerdict:
    """Re-run a trace file's (seed, config) with the builder that wrote it
    and compare its digest with the footer's and with the file's own lines'.
    The file is read as a stream, and the re-run is only hashed."""
    parsed = read_trace(trace_path)
    command = parsed.header.get("command")
    if command not in COMMANDS:
        raise ValueError(f"trace was produced by unknown command {command!r}")
    raw = parsed.header.get("config")
    if not isinstance(raw, dict):
        raise ValueError("trace header carries no config; cannot replay")
    raw = dict(raw)
    name = raw.pop("sched_variant", "trace")
    if name not in COMMANDS[command].builders:
        raise ValueError(f"{command} writes no trace named {name!r}")
    return ReplayVerdict(
        command=command,
        expected_digest=parsed.stored_digest,
        file_digest=parsed.digest,
        actual_digest=build_trace(command, name, from_dict(raw)).digest(),
    )
