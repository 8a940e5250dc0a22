"""Experiment harness: each command schedules its scenario on seeded
engines, runs them, and folds the trace records into CSV rows, a summary,
and pass/fail checks.

Each trace of a command has its own fold, built from the config. The fold
is handed every record of its trace, in order, as ``add(record)``, while
the engine runs, and formats each CSV row as its record arrives;
``finish()`` then returns ``(csvs, summary, checks)``, each CSV as its
header and its rows' UTF-8 bytes, and ``finish(folds)`` merges those of a
command's traces. A fold keeps CSV bytes, running totals and counters,
never record dicts, and reads nothing but the config and its trace's
records, so a written trace file streamed through ``read_trace`` into a
fresh fold of its trace reproduces (and verifies) that trace's share of a
run.

Three kinds of work go through ``sim._Forked``, which runs them in a
forked child or here by the fork rule of ``sim.fork_child``: each trace
after a command's first (local-sched's ``local``), whose child sends back
each trace's fold whole; compare-protocols' per-trial draws (both legacy
pulls, the push-cycle estimate and the aggregated pull's uplink delay),
when the run has more than one chunk (``FORK_CHUNK``) of trials; and
duty-cycle's sweep points (each a duty-cycle change with its verification
reads), when the sweep has more than one chunk of points. The last two
children stream what they compute back to their events in order. A fourth
kind goes to a child by the same rule inside ``sim``: each trace's
encoding, hashing and writing, from its first full block on. All four
reach this module only through ``sim``, whose one pipe protocol streams
back what a child computed and raises here what a child raised.
"""
from __future__ import annotations

import csv
import io
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

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
from .latency import (HOURS_PER_WEEK, LatencyModel, LinkKind, TimingBudget, count_modes,
                      histogram_of, worst_case_budget)
from .sim import FORK_CHUNK, Engine, _Forked, ordered_sum, read_trace, substream

MODE_BINS = 45


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ExperimentOutput:
    """A command's traces and what their folds made of them."""

    __slots__ = ("command", "traces", "csvs", "summary", "checks")

    def __init__(self, command: str, traces: list):
        self.command = command
        self.traces = traces     # (name, BuiltTrace)
        self.csvs: dict = {}     # filename -> (header tuple, the rows' UTF-8 CSV bytes)
        self.summary: dict = {}
        self.checks: list = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def truncated(self) -> bool:
        return any(trace.failed for _, trace in self.traces)


def _csv_stream():
    """A text stream for ``csv.writer`` that keeps what it is written as
    UTF-8 bytes, which ``_csv_bytes`` then returns without a copy (a
    ``StringIO``'s ``getvalue`` copies its text, doubling its peak)."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")


def _csv_bytes(stream) -> bytes:
    """What was written to a ``_csv_stream``."""
    stream.flush()
    return stream.buffer.getvalue()


def _csv_rows(rows) -> bytes:
    """``rows`` as ``csv.writer`` writes them, in UTF-8."""
    stream = _csv_stream()
    csv.writer(stream).writerows(rows)
    return _csv_bytes(stream)


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
        rng = substream(cfg.seed, f"rtt:{link.value}")

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

    def add(self, rec: dict) -> None:
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
                ("bin_low", "bin_high", "count"), _csv_rows(rtt_hist.rows()))
            csvs[f"hist_{link.value}_segment.csv"] = (
                ("bin_low", "bin_high", "count"), _csv_rows(seg_hist.rows()))
            summary[link.value] = {
                "probes": len(rows),
                "seg_min": min(segs) if segs else None,
                "seg_max": max(segs) if segs else None,
                "rtt_mean": ordered_sum(rtts) / len(rtts) if rtts else None,
                "modes": count_modes(seg_hist.counts),
            }

        # per-day breakdown of the cellular segment (day 0 = the week's first day)
        day_rows = []
        by_day: list = [[] for _ in range(7)]
        for at, s, _ in samples[LinkKind.THREE_G.value]:
            by_day[int(at // 86400.0) % 7].append(s)
        for day, day_segs in enumerate(by_day):
            if not day_segs:
                continue
            hist = histogram_of(day_segs, MODE_BINS, 0.0, links.threeg.hard_max)
            day_rows.extend((day, lo, hi, c) for lo, hi, c in hist.rows())
        csvs["threeg_by_day.csv"] = (("day", "bin_low", "bin_high", "count"),
                                     _csv_rows(day_rows))

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


def _collector(cfg: ExperimentConfig, station: ChargingStation, stream: str) -> pic.PicEndpoint:
    """A started collector on ``station``, its meter bus drawing from the
    run's stream named ``stream``."""
    bus = pic.MeterBus(station, cfg.links.local_bus, cfg.links.metering,
                       substream(cfg.seed, stream))
    state = pic.startup_init(bus, push_period=cfg.push_period_s, serve_cache=cfg.serve_cache)
    return pic.PicEndpoint(state=state, bus=bus)


def _stale_state(staleness: dict) -> dict:
    """The trace state of a non-empty staleness report: its maximum and each
    outlet's value."""
    return {"stale_max": max(staleness.values()),
            "stale": {str(outlet): s for outlet, s in staleness.items()}}


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
    collector = _collector(cfg, station, f"bus:{sid}")
    uplink_rng = substream(cfg.seed, f"uplink:{sid}")
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
    endpoint = _collector(cfg, station, "pull-bus")

    def refresh(at, data):
        duration = pic.collect_all(endpoint.state, endpoint.bus, at)
        return {"duration": duration}

    if cfg.serve_cache:
        eng.schedule_at(0.0, "pic-collect", fn=refresh)
        eng.schedule_every(cfg.push_period_s, "pic-collect", refresh)

    def outcomes(i):
        """Trial ``i``'s draws, as ``(legacy4, rc4, legacy8, rc8, push_cycle,
        pull_link_s)``: both legacy pulls, the push-cycle estimate and the
        aggregated pull's uplink delay, each on its own fresh derivation of
        the stream ``trial:i``. They read the seed, the trial index and the
        station, which nothing changes once this builder has run, and no
        engine state, so a forked child may compute them."""
        at = i * cfg.trial_spacing_s
        label = f"trial:{i}"
        r4 = proto.legacy_pull(station, links, substream(cfg.seed, label),
                               include_status=False, at=at, timeout_s=cfg.timeout_s,
                               t_status_read=cfg.t_status_read_s)
        r8 = proto.legacy_pull(station, links, substream(cfg.seed, label),
                               include_status=True, at=at, timeout_s=cfg.timeout_s,
                               t_status_read=cfg.t_status_read_s)
        rng_push = substream(cfg.seed, label)
        cycle = ordered_sum(
            links.local_bus.sample(rng_push, at) + links.metering.sample(rng_push, at)
            for _ in range(len(station.meters))
        ) + 0.5 * uplink.sample(rng_push, at)
        pull_link_s = uplink.sample(substream(cfg.seed, label), at)
        return (r4.wall_time, r4.request_count, r8.wall_time, r8.request_count, cycle,
                pull_link_s)

    def trial(at, data):
        legacy4, rc4, legacy8, rc8, cycle, pull_link_s = next_outcomes()
        # the pull reads the pull collector's cache, so it runs here
        rp = proto.pic_pull(endpoint, links, pull_link_s, at=at, timeout_s=cfg.timeout_s)
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
    # or here, one per trial. A run of at most one chunk of trials asks for
    # no child: at that size the fork, the pipe and the wait for the only
    # chunk cost what they save.
    feed = _Forked(outcomes, range(cfg.trials), "computing compare-protocols trials",
                   fork=cfg.trials > FORK_CHUNK)
    eng.closing.append(feed.close)
    next_outcomes = feed.results.__next__
    return horizon


class _CompareFold:
    """compare-protocols: the four ``retrievals.csv`` rows of each trial
    record and the ``staleness.csv`` row of each staleness record that has a
    maximum, formatted as they arrive; running totals of the four means'
    samples, the trials' count per hour of the week, and the largest
    staleness so far."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        meters = cfg.station.outlets
        self.requests = (meters, 2 * meters, 1)  # legacy power, legacy full, aggregated
        self.retrievals = _csv_stream()
        self.write_trial = csv.writer(self.retrievals).writerows
        self.staleness = _csv_stream()
        self.write_stale = csv.writer(self.staleness).writerow
        self.hours = [0] * HOURS_PER_WEEK
        # each total adds left to right from the integer 0, as ordered_sum does
        self.legacy4 = self.legacy8 = self.pic = self.push_cycle = 0
        self.counts_ok = True
        self.stale_max: Optional[float] = None

    def add(self, rec: dict) -> None:
        kind = rec["kind"]
        if kind == "trial":
            i = rec["data"]["trial"]
            s = rec["state"]
            legacy4, legacy8, pic, cycle = s["legacy4"], s["legacy8"], s["pic"], s["push_cycle"]
            rc4, rc8, rc1 = s["rc4"], s["rc8"], s["rc1"]
            self.write_trial(((i, "legacy_pull_power", legacy4, rc4),
                              (i, "legacy_pull_full", legacy8, rc8),
                              (i, "pic_pull", pic, rc1),
                              (i, "pic_push_cycle", cycle, 0)))
            self.hours[int(rec["at"] // 3600.0) % HOURS_PER_WEEK] += 1
            self.legacy4 += legacy4
            self.legacy8 += legacy8
            self.pic += pic
            self.push_cycle += cycle
            self.counts_ok = self.counts_ok and (rc4, rc8, rc1) == self.requests
        elif kind == "stale-probe" or kind == "push-arrive":
            stale_max = rec["state"].get("stale_max")
            if stale_max is not None:
                self.write_stale((rec["at"], kind, stale_max))
                # as max() keeps the first of equal maxima
                if self.stale_max is None or stale_max > self.stale_max:
                    self.stale_max = stale_max

    def finish(self):
        cfg = self.cfg
        links = cfg.links
        link = cfg.station.link
        uplink = links.for_link(link)
        meters = cfg.station.outlets
        hours = self.hours
        n = sum(hours)

        csvs = {
            "retrievals.csv": (("trial", "protocol", "wall_s", "requests"),
                               _csv_bytes(self.retrievals)),
            "staleness.csv": (("at", "source", "stale_max_s"), _csv_bytes(self.staleness)),
        }
        m4, m8, mp, mc = ((total / n if n else None) for total in
                          (self.legacy4, self.legacy8, self.pic, self.push_cycle))
        speedup_power = (m4 / mp) if (m4 is not None and mp) else None
        speedup_full = (m8 / mp) if (m8 is not None and mp) else None
        # analytic counterparts of the measured means, from the mixture models
        # at the trials' hours of the week
        means = TimingBudget(t_bus=links.local_bus.analytic_mean(hours),
                             t_uplink=uplink.analytic_mean(hours),
                             t_metering=links.metering.analytic_mean(hours))
        analytic_legacy = proto.legacy_retrieval_time(means, meters, links.cloud)
        analytic_cycle = proto.push_cycle_time(means, meters)
        analytic_save = proto.t_save(means, meters, links.cloud)
        empirical_save = (m4 - mc) if (m4 is not None and mc is not None) else None
        stale_max = self.stale_max
        bound = cfg.push_period_s + proto.push_cycle_time(worst_case_budget(links, link), meters)

        summary = {
            "trials": n,
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
            self.counts_ok,
            f"legacy power={meters}, legacy full={2 * meters}, aggregated pull=1 on every trial",
        )]
        if stale_max is not None:
            checks.append(Check(
                "staleness-bound", stale_max <= bound,
                f"max staleness {stale_max:.3f} s vs bound {bound:.3f} s"))
        # The identities hold in the mean of C3's 10^4 trials (the 2% band is
        # only 1.8 standard errors at 1000 on the default models), and only if
        # no power request can time out. Each is relative to its analytic
        # side, so it is checked only where that is positive.
        no_timeouts = cfg.timeout_s >= links.cloud + uplink.hard_max + links.metering.hard_max
        if n >= 10_000 and no_timeouts and analytic_save > 0:
            rel = abs(empirical_save - analytic_save) / analytic_save
            checks.append(Check(
                "savings-identity", rel <= 0.02,
                f"empirical {empirical_save:.3f} s vs analytic {analytic_save:.3f} s ({rel:.3%})"))
            if analytic_legacy > 0 and analytic_cycle > 0:
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

    def delta_of(k):
        # the clamp keeps a last point that rounds above i_final inside the sweep
        return min(i_final, i_final * k / (steps - 1)) if steps > 1 else 0.0

    def point(k):
        """Point ``k``'s record values, in ``DUTY_FIELDS`` order. It reads the
        config and sets the swept outlet up afresh, and no other event
        touches this station, so a forked child may compute the points in
        order."""
        at = k * 3600.0
        delta = delta_of(k)
        apply_relay(station, outlet, RelayState.ON, at)
        # allocate i_final - delta and draw it, as if settled long ago
        amps = i_final - delta
        ch.allocated_amps = amps
        ch.pin(amps, at)
        rng = substream(cfg.seed, f"duty:{delta}")
        change = change_duty_cycle(station, outlet, duty, cfg.links, rng,
                                   cfg.budget, now=at, timeout_s=cfg.timeout_s)
        return (delta, ev_settle_time(ch.ev, 0.0, delta), change.t_waiting, fixed_wait,
                change.outcome.value, len(change.reads), change.completed_at - at)

    def run_point(at, data):
        return dict(zip(DUTY_FIELDS, next_point()))

    for k in range(steps):
        eng.schedule_at(k * 3600.0, "duty-point", data={"delta": delta_of(k)}, fn=run_point)
    # The points take their values in order, from a child that computes them
    # ahead of the engine or here, one per point; a sweep of at most one
    # chunk asks for no child, as compare-protocols' trials do.
    feed = _Forked(point, range(steps), "computing duty-cycle points", fork=steps > FORK_CHUNK)
    eng.closing.append(feed.close)
    next_point = feed.results.__next__
    return steps * 3600.0


# a duty-point record's state keys, in the order of ``duty_sweep.csv``'s columns
DUTY_FIELDS = ("delta", "t_ev", "adaptive_wait", "fixed_wait", "outcome", "reads", "latency")
DUTY_HEADER = ("delta_a", "t_ev_s", "adaptive_wait_s", "fixed_wait_s", "outcome", "reads",
               "latency_s")


class _DutyCycleFold:
    """duty-cycle: each point's ``duty_sweep.csv`` row, formatted as it
    arrives; the running total, count and maximum of the adaptive waits, the
    first point's fixed wait, and whether every point so far confirmed and
    waited no longer than the fixed wait."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.sweep = _csv_stream()
        self.write_row = csv.writer(self.sweep).writerow
        self.count = 0
        self.adaptive_total = 0  # adds left to right from the integer 0, as ordered_sum does
        self.adaptive_max: Optional[float] = None
        self.fixed: Optional[float] = None
        self.confirmed = True
        self.adaptive_ok = True

    def add(self, rec: dict) -> None:
        if rec["kind"] == "duty-point":
            p = rec["state"]
            row = [p[key] for key in DUTY_FIELDS]
            self.write_row(row)
            _, _, adaptive, fixed, outcome, _, _ = row
            if self.fixed is None:
                self.fixed = fixed
            self.count += 1
            self.adaptive_total += adaptive
            # as max() keeps the first of equal maxima
            if self.adaptive_max is None or adaptive > self.adaptive_max:
                self.adaptive_max = adaptive
            self.confirmed = self.confirmed and outcome == "confirmed"
            self.adaptive_ok = self.adaptive_ok and adaptive <= fixed + 1e-12

    def finish(self):
        n, fixed, confirmed = self.count, self.fixed, self.confirmed
        mean_adaptive = self.adaptive_total / n if n else None
        csvs = {"duty_sweep.csv": (DUTY_HEADER, _csv_bytes(self.sweep))}
        summary = {
            "points": n,
            "fixed_wait_s": fixed,
            "mean_adaptive_wait_s": mean_adaptive,
            "max_adaptive_wait_s": self.adaptive_max,
            "all_confirmed": confirmed,
        }
        checks = [
            Check("all-confirmed", confirmed, "every sweep point ended confirmed"),
            Check("adaptive-within-fixed", self.adaptive_ok,
                  "adaptive wait never exceeds the fixed worst-case wait"),
        ]
        if n:
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

    rng = substream(cfg.seed, "plug-scenario")
    for outlet, _ in spec.evs:
        t_plug = rng.uniform(0.0, cfg.duration_s * 0.25)
        t_unplug = rng.uniform(cfg.duration_s * 0.75, cfg.duration_s)
        eng.schedule_at(t_plug, "plug", data={"outlet": outlet}, fn=plug_event)
        eng.schedule_at(t_unplug, "unplug", data={"outlet": outlet}, fn=unplug_event)

    n_slots = int(cfg.duration_s // rr.slot_length_s)
    for k in range(n_slots + 1):
        eng.schedule_at(k * rr.slot_length_s, "slot", fn=slot_boundary)
    return cfg.duration_s


class _LocalSchedFold:
    """local-sched: one variant's slot and scheduling-message tallies, and
    its worst slot total; its ``traffic.csv`` row and its two checks."""

    def __init__(self, cfg: ExperimentConfig, variant: str):
        self.cfg = cfg
        self.variant = variant
        self.slots = 0
        self.changes = 0
        self.cmds = 0
        self.worst: Optional[float] = None   # the highest slot total so far
        self.limit: Optional[float] = None   # the first slot's limit
        self.violations = 0

    def add(self, rec: dict) -> None:
        kind = rec["kind"]
        if kind == "slot":
            s = rec["state"]
            total = s["total"]
            self.slots += 1
            self.changes += s["changed"]
            if self.worst is None or total > self.worst:
                self.worst = total
            if self.limit is None:
                self.limit = s["limit"]
            self.violations += exceeds_limit(total, s["limit"])
        elif kind == "sched-cmd":
            self.cmds += 1

    def finish(self):
        header = ("variant", "slots", "alloc_changes", "sched_messages", "worst_total_a",
                  "violations")
        variant, cmds, changes = self.variant, self.cmds, self.changes
        worst = 0.0 if self.worst is None else self.worst
        limit = self.cfg.station.circuit_limit if self.limit is None else self.limit
        row = (variant, self.slots, changes, cmds, worst, self.violations)
        if variant == "local":
            traffic = Check("local-zero-traffic", cmds == 0,
                            f"{cmds} scheduling messages after mode selection")
        else:
            traffic = Check("server-traffic-per-change", cmds >= changes,
                            f"{cmds} messages for {changes} allocation changes")
        checks = [traffic, Check(f"{variant}-circuit-safety", self.violations == 0,
                                 f"worst total {worst:.1f} A vs limit {limit:.1f} A")]
        return ({"traffic.csv": (header, _csv_rows([row]))},
                {variant: dict(zip(header[1:], row[1:]))}, checks)


# --------------------------------------------------------------------------
# the command table, the run, and replay
# --------------------------------------------------------------------------


SCHED_VARIANTS = ("server", "local")

# command -> {trace name: (builder, fold)}, in build order. A builder
# schedules its trace on a fresh engine, ``(Engine, ExperimentConfig) ->
# horizon s``; a fold, made from the config, is handed each of that trace's
# records as ``add(record)`` and asked for ``(csvs, summary, checks)`` by
# ``finish()``. A builder may hand work that reads no engine state to a
# ``_Forked`` of its own, registering its ``close`` in ``Engine.closing``:
# compare-protocols does with its trials' draws (legacy pulls, push-cycle
# estimates and the aggregated pulls' uplink delays), and duty-cycle with
# its sweep points.
COMMANDS = {
    "rtt-dist": {"trace": (_trace_rtt_dist, _RttDistFold)},
    "compare-protocols": {"trace": (_trace_compare, _CompareFold)},
    "duty-cycle": {"trace": (_trace_duty_cycle, _DutyCycleFold)},
    "local-sched": {variant: (partial(_trace_local_sched, variant=variant),
                              partial(_LocalSchedFold, variant=variant))
                    for variant in SCHED_VARIANTS},
}


def trace_file(name: str) -> str:
    """The file name of a command's trace ``name``."""
    return "trace.jsonl" if name == "trace" else f"trace_{name}.jsonl"


def run(command: str, cfg: ExperimentConfig, out_dir=None) -> ExperimentOutput:
    """Build every trace of ``command``, folding each trace's records into
    its own fold as they are emitted, and streaming each trace into
    ``out_dir`` when one is given; then merge what the folds finish.

    Each trace after the first, compare-protocols' trial draws and
    duty-cycle's sweep points go through ``_Forked``, which works in a
    forked child or here by its rule, with the same outputs (the draws and
    the points ask for a child past ``FORK_CHUNK``).
    The traces keep their order, and ``run`` keeps a ``BuiltTrace`` and the
    fold of each, wherever it was built. An abandoned run kills its
    children, the traces' encoder children among them, which leaves a trace
    file without the footer ``read_trace`` needs.

    A handler exception truncates its trace; its fold would then miss state
    the failed event never recorded. Such a run finishes no fold and gets
    one failing check that names the event that failed."""
    built = _build_traces(command, cfg, out_dir)
    out = ExperimentOutput(command=command, traces=[(name, trace) for name, trace, _ in built])
    for name, trace in out.traces:
        if trace.failed:
            last = trace.last
            out.checks.append(Check(
                "trace-complete", False,
                f"{name} truncated: event {last['kind']!r} at {last['at']!r} s failed: "
                f"{last['error']}"))
            return out
    out.csvs, out.summary, out.checks = finish(fold for _, _, fold in built)
    return out


def finish(folds) -> tuple:
    """``(csvs, summary, checks)`` of a command, merged from what each of its
    traces' ``folds`` finishes, in trace order: the rows of CSVs of one name
    follow one another under their header, the summaries update one dict,
    and the checks follow one another."""
    csvs: dict = {}
    summary: dict = {}
    checks: list = []
    for fold in folds:
        more_csvs, more_summary, more_checks = fold.finish()
        for fname, (header, rows) in more_csvs.items():
            csvs[fname] = (header, csvs[fname][1] + rows) if fname in csvs else (header, rows)
        summary.update(more_summary)
        checks += more_checks
    return csvs, summary, checks


class BuiltTrace(NamedTuple):
    """What ``build_trace`` returns, and ``run`` keeps, of a trace, whether
    this process or a forked child built it: its ``EventTrace``'s
    ``digest()``, ``count``, ``last`` and ``failed``."""

    digest: str
    count: int
    last: Optional[dict]
    failed: bool


def _build_traces(command: str, cfg: ExperimentConfig, out_dir) -> list:
    """``run``'s ``(name, BuiltTrace, fold)`` list, in the command's order,
    each fold made from ``cfg`` and handed its own trace's records. This
    process builds the first trace. The others go through one ``_Forked``,
    made before the first is built, so a child builds them meanwhile when
    the fork rule allows, and sends back each one's fold whole."""
    traces = COMMANDS[command]
    first, *others = traces

    def build(name):
        fold = traces[name][1](cfg)
        return name, build_trace(command, name, cfg, fold.add, out_dir), fold

    rest = _Forked(build, others, f"building trace {', '.join(map(repr, others))}",
                   fork=bool(others))
    try:
        return [build(first), *rest.results]
    finally:
        rest.close()


def build_trace(command: str, name: str, cfg: ExperimentConfig, consume=None,
                out_dir=None) -> BuiltTrace:
    """Schedule ``command``'s trace ``name`` on a fresh engine and run it,
    handing each record to ``consume`` (in a run, its own fold's ``add``),
    and return its ``BuiltTrace``. With ``out_dir``, the trace streams into
    ``out_dir/trace_file(name)``, opened only once the builder has
    scheduled its events (a builder's ``ConfigError`` leaves no file) and
    finished with its digest footer, also when an event failed. The engine,
    and with it the trace, is closed however the run ends, so a child the
    builder forked to feed its events or the trace forked to encode its
    records is reaped, or killed first, before this returns.

    The header config of a trace not named ``trace`` records its name as
    ``sched_variant``, which ``cmd_replay`` removes to find the builder."""
    raw = cfg.raw if name == "trace" else {**cfg.raw, "sched_variant": name}
    eng = Engine(cfg.seed, meta={"command": command, "config": raw})
    try:
        horizon = COMMANDS[command][name][0](eng, cfg)
        trace = eng.trace
        trace.consume = consume
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / trace_file(name)
            trace.open(path)
        eng.run_until(horizon)
        if out_dir is not None:
            trace.write(path)
        # digest() flushes the trace, so it comes before count and last
        return BuiltTrace(trace.digest(), trace.count, trace.last, trace.failed)
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
    if not isinstance(command, str) or command not in COMMANDS:
        raise ValueError(f"trace was produced by unknown command {command!r}")
    raw = parsed.header.get("config")
    if not isinstance(raw, dict):
        raise ValueError("trace header carries no config; cannot replay")
    raw = dict(raw)
    name = raw.pop("sched_variant", "trace")
    if not isinstance(name, str) or name not in COMMANDS[command]:
        raise ValueError(f"{command} writes no trace named {name!r}")
    return ReplayVerdict(
        command=command,
        expected_digest=parsed.stored_digest,
        file_digest=parsed.digest,
        actual_digest=build_trace(command, name, from_dict(raw)).digest,
    )
