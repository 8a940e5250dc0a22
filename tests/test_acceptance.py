"""Acceptance gate: the nine release criteria, one test per criterion, each
printing a PASS/FAIL line with its runtime (visible with pytest -s or in the
captured output of a failure).

Tolerances are pinned here and nowhere else:
  C1  legacy worst case exactly 20.0 s
  C2  speedups within 5% of the coarse 4.4x / 8.4x reference figures
  C3  empirical vs analytic savings within 2%; 17.5 s at the worst-case point
  C4  fixed wait exactly 3.5 s; adaptive <= 3.5 s; every sweep point confirmed
  C5  >= 4 cellular modes, samples <= 4.5 s, Ethernet RTT near 0.2 s
  C6  zero lost commands / flag-only ISRs / one push per tick batch
  C7  push staleness <= push_period + push_cycle_time, zero violations
  C8  zero circuit violations under either scheduler; round-robin counts
      match the oracle exactly
  C9  byte-identical trace digests on replay
"""
import random
import time

from chargesim.config import resolve
from chargesim.control import compute_t_waiting
from chargesim.domain import exceeds_limit
from chargesim.experiments import cmd_replay, run
from chargesim.latency import TimingBudget, worst_case_budget
from chargesim.proto import legacy_pull, pic_pull, push_cycle_time, t_save
from chargesim.sched import (
    SECONDS_PER_DAY,
    ChargeWindow,
    RoundRobinConfig,
    ScheduleTimeConfig,
    round_robin_step,
    schedule_overload,
    schedule_time_step,
)
from chargesim.sim import ordered_sum, read_trace, substream

from fw_harness import all_merges, run_interleaving
from test_proto import cache_serving_endpoint, charging_station, fixed_links, uplink_draw
from test_sched import oracle_round_robin_counts, step_counts


def report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[C{num}] {status} ({time.perf_counter() - t0:.2f}s) {detail}")
    assert ok, f"criterion C{num}: {detail}"


def test_c1_worst_case_legacy_retrieval():
    t0 = time.perf_counter()
    links = fixed_links(threeg=4.5, metering=0.5)
    result = legacy_pull(charging_station(), links, substream(1, "c1"))
    ok = result.wall_time == 20.0 and result.request_count == 4
    report(1, ok, f"four power readings took {result.wall_time!r} s (want exactly 20.0)", t0)


def test_c2_speedups_vs_legacy():
    t0 = time.perf_counter()
    links = fixed_links(threeg=4.5, metering=0.5)
    legacy4 = legacy_pull(charging_station(), links, substream(1, "a")).wall_time
    legacy8 = legacy_pull(charging_station(), links, substream(1, "b"),
                          include_status=True).wall_time
    endpoint = cache_serving_endpoint(links)
    agg = pic_pull(endpoint, links, uplink_draw(endpoint, links, substream(1, "c"))).wall_time
    sp_power = legacy4 / agg
    sp_full = legacy8 / agg
    ok = abs(sp_power - 4.4) / 4.4 <= 0.05 and abs(sp_full - 8.4) / 8.4 <= 0.05
    report(2, ok,
           f"speedups {sp_power:.3f}x (ref 4.4x) and {sp_full:.3f}x (ref 8.4x), tol 5%", t0)


def test_c3_savings_identity():
    t0 = time.perf_counter()
    cfg = resolve("default", overrides={"trials": 10000})
    out = run("compare-protocols", cfg)
    emp = out.summary["savings_empirical_s"]
    ana = out.summary["savings_analytic_s"]
    rel = abs(emp - ana) / ana
    worst = t_save(TimingBudget(t_uplink=5.0, t_bus=0.0))
    ok = rel <= 0.02 and worst == 17.5 and out.summary["trials"] == 10000
    report(3, ok,
           f"mean savings {emp:.3f} s vs analytic {ana:.3f} s ({rel:.2%}, tol 2%); "
           f"worst-case point {worst!r} s (want exactly 17.5)", t0)


def test_c4_waiting_time():
    t0 = time.perf_counter()
    exact = compute_t_waiting(6.0, TimingBudget(t_uplink=5.0))
    out = run("duty-cycle", resolve("duty-3g"))
    points = out.summary["points"]
    ok = (
        exact == 3.5
        and points == 33
        and out.summary["all_confirmed"]
        and out.summary["max_adaptive_wait_s"] <= 3.5
    )
    report(4, ok,
           f"compute_t_waiting(6, t_uplink=5) = {exact!r} (want exactly 3.5); "
           f"{points} sweep points all confirmed, max adaptive wait "
           f"{out.summary['max_adaptive_wait_s']:.3f} s", t0)


def test_c5_rtt_distribution_shape():
    t0 = time.perf_counter()
    cfg = resolve("default")  # one week at five-minute cadence
    out = run("rtt-dist", cfg)
    threeg = out.summary["threeg"]
    ok = (
        threeg["probes"] == 2016
        and threeg["modes"] >= 4
        and threeg["seg_max"] <= 4.5
        and out.summary["ethernet_rtt_in_band"] >= 0.9
    )
    report(5, ok,
           f"{threeg['probes']} probes, {threeg['modes']} modes, "
           f"max {threeg['seg_max']:.3f} s <= 4.5 s, "
           f"{out.summary['ethernet_rtt_in_band']:.1%} of Ethernet RTTs near 0.2 s", t0)


def test_c6_firmware_property_suite():
    t0 = time.perf_counter()
    scenarios = 0
    for k in range(0, 5):
        for m in range(0, 5):
            for order in all_merges(k, m):
                for mask in range(1 << (k + m)):
                    responses, expected, _ = run_interleaving(order, mask)
                    assert responses == expected, (order, mask)
                    scenarios += 1
    rng = random.Random(2024)
    randomized = 10_000
    for _ in range(randomized):
        k = rng.randint(0, 4)
        m = rng.randint(0, 4)
        merges = list(all_merges(k, m))
        order = rng.choice(merges) if merges else ""
        mask = rng.randrange(1 << max(1, k + m))
        responses, expected, _ = run_interleaving(order, mask)
        assert responses == expected, (order, mask)
    report(6, True,
           f"{scenarios} exhaustive + {randomized} randomized interleavings: "
           "no lost commands, flag-only ISRs, one push per tick batch", t0)


def test_c7_push_staleness_bound(tmp_path):
    t0 = time.perf_counter()
    cfg = resolve("default", overrides={"trials": 0, "duration_s": 86400.0})
    run("compare-protocols", cfg, tmp_path)
    records = []
    read_trace(tmp_path / "trace.jsonl", records.append)
    bound_config = cfg.push_period_s + push_cycle_time(cfg.budget, 4)
    bound_hard = cfg.push_period_s + push_cycle_time(
        worst_case_budget(cfg.links, cfg.station.link), 4)
    worst = 0.0
    checked = 0
    violations = 0
    for rec in records:
        state = rec.get("state", {})
        if rec["kind"] in ("stale-probe", "push-arrive") and "stale" in state:
            for value in state["stale"].values():
                checked += 1
                worst = max(worst, value)
                if value > min(bound_config, bound_hard):
                    violations += 1
    ok = checked > 1000 and violations == 0
    report(7, ok,
           f"{checked} per-meter staleness samples over 24 h, max {worst:.3f} s, "
           f"bound {min(bound_config, bound_hard):.3f} s, {violations} violations", t0)


def test_c8_scheduler_safety_and_fairness():
    t0 = time.perf_counter()
    rng = random.Random(7)
    limit = 40.0
    for _ in range(1000):
        width = rng.randint(1, 4)
        per = rng.uniform(1.0, limit / width)
        cfg = RoundRobinConfig(slot_length_s=600.0, max_concurrent=width,
                               per_active_current=per)
        plugged = set()
        for slot in range(40):
            if rng.random() < 0.3:
                plugged.add(rng.randrange(6))
            if plugged and rng.random() < 0.2:
                plugged.discard(rng.choice(sorted(plugged)))
            alloc = round_robin_step(cfg, plugged, slot * 600.0)
            assert sum(alloc.values()) <= limit + 1e-9

    # random daily windows; those the config's validator accepts never
    # allocate past the limit, at random instants or on their own edges
    accepted = 0
    for _ in range(1000):
        windows = {outlet: tuple(ChargeWindow(rng.uniform(0.0, SECONDS_PER_DAY),
                                              rng.uniform(0.0, SECONDS_PER_DAY),
                                              rng.uniform(0.0, limit / 2))
                                 for _ in range(rng.randint(0, 3)))
                   for outlet in range(rng.randint(1, 6))}
        cfg = ScheduleTimeConfig(windows=windows)
        if schedule_overload(cfg, limit) is not None:
            continue
        accepted += 1
        edges = [t for ws in windows.values() for w in ws for t in (w.start_s, w.end_s)]
        for _ in range(40):
            day = rng.randrange(7) * SECONDS_PER_DAY
            now = day + (rng.choice(edges) if edges and rng.random() < 0.5
                         else rng.uniform(0.0, SECONDS_PER_DAY))
            plugged = {o for o in range(6) if rng.random() < 0.8}
            alloc = schedule_time_step(cfg, plugged, now)
            assert not exceeds_limit(ordered_sum(alloc.values()), limit), (windows, now)

    instances = 0
    for bits in range(1, 64):
        plugged = {o for o in range(6) if bits & (1 << o)}
        for width in range(1, 7):
            for n_slots in range(1, 21):
                cfg = RoundRobinConfig(slot_length_s=600.0, max_concurrent=width)
                got = step_counts(cfg, plugged, n_slots)
                want = oracle_round_robin_counts(plugged, width, n_slots)
                assert got == want, (plugged, width, n_slots)
                instances += 1
    report(8, True,
           f"1000 randomized plug scenarios and {accepted} accepted random schedules "
           f"with zero violations; "
           f"{instances} instances match the enumeration oracle exactly", t0)


def test_c9_deterministic_replay(tmp_path):
    t0 = time.perf_counter()
    cfg = resolve("default", overrides={"duration_s": 21600.0})
    first = run("rtt-dist", cfg, tmp_path).traces[0][1]
    second = run("rtt-dist", cfg).traces[0][1]
    path = tmp_path / "trace.jsonl"
    stored = read_trace(path).stored_digest
    verdict = cmd_replay(path)
    ok = first.digest == second.digest and verdict.identical
    report(9, ok,
           f"two runs and a file replay all reproduce digest {stored[:16]}...", t0)
