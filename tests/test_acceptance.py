"""Acceptance gate: the nine release criteria, one test per criterion, each
printing a PASS/FAIL line with its runtime (visible with pytest -s or in the
captured output of a failure).

C1-C5, C7 and C9 run a ``chargesim`` command and read what it writes; no
command drives C6's firmware harness or C8's scheduler oracle.

Tolerances are pinned here and nowhere else:
  C1  legacy worst case exactly 20.0 s
  C2  speedups within 5% of the coarse 4.4x / 8.4x reference figures
  C3  empirical vs analytic savings within 2%; 17.5 s at the worst-case point
  C4  fixed wait exactly 3.5 s; adaptive <= 3.5 s; every sweep point confirmed
  C5  >= 4 cellular modes, samples <= 4.5 s, Ethernet RTT near 0.2 s
  C6  zero lost commands / flag-only ISRs / one push per tick batch
  C7  push staleness <= push_period + the worst-case collect-and-push cycle
      over the config's outlet count, zero violations
  C8  zero circuit violations under either scheduler; round-robin counts
      match the oracle exactly
  C9  two runs write byte-identical traces, and their replay is identical
"""
import ast
import contextlib
import io
import random
import time

import pytest

from chargesim import cli
from chargesim.domain import exceeds_limit
from chargesim.latency import TimingBudget
from chargesim.proto import t_save
from chargesim.sched import (
    SECONDS_PER_DAY,
    ChargeWindow,
    RoundRobinConfig,
    ScheduleTimeConfig,
    round_robin_step,
    schedule_overload,
    schedule_time_step,
)
from chargesim.sim import ordered_sum

from fw_harness import all_merges, run_interleaving
from test_sched import oracle_round_robin_counts, step_counts


def report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[C{num}] {status} ({time.perf_counter() - t0:.2f}s) {detail}")
    assert ok, f"criterion C{num}: {detail}"


def cli_main(*argv) -> int:
    """``chargesim *argv`` with its standard output dropped (the gate prints
    only its PASS/FAIL lines)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def shipped(out, *argv) -> dict:
    """Run ``chargesim *argv --out out`` (no ``--check``), require exit 0, and
    read its ``summary.txt`` after the command's name: each ``check NAME``
    line's text as is, every other value as a Python literal."""
    assert cli_main(*argv, "--out", str(out)) == 0, argv
    summary = {}
    for line in (out / "summary.txt").read_text(encoding="utf-8").splitlines()[1:]:
        key, value = line.split(": ", 1)
        summary[key] = value if key.startswith("check ") else ast.literal_eval(value)
    return summary


@pytest.fixture(scope="module")
def worst_case(tmp_path_factory):  # README's run for 20 s / 4.44x / 8.44x
    return shipped(tmp_path_factory.mktemp("worst-case-3g"),
                   "compare-protocols", "--preset", "worst-case-3g")


def test_c1_worst_case_legacy_retrieval(worst_case):
    t0 = time.perf_counter()
    legacy, counts = worst_case["mean_legacy_power_s"], worst_case["check request-counts"]
    ok = legacy == 20.0 and counts.startswith("PASS")
    report(1, ok, f"four power readings took {legacy!r} s (want exactly 20.0); "
                  f"request counts {counts}", t0)


def test_c2_speedups_vs_legacy(worst_case):
    t0 = time.perf_counter()
    sp_power, sp_full = worst_case["speedup_power"], worst_case["speedup_full"]
    ok = abs(sp_power - 4.4) / 4.4 <= 0.05 and abs(sp_full - 8.4) / 8.4 <= 0.05
    report(2, ok,
           f"speedups {sp_power:.3f}x (ref 4.4x) and {sp_full:.3f}x (ref 8.4x), tol 5%", t0)


def test_c3_savings_identity(tmp_path):
    t0 = time.perf_counter()
    summary = shipped(tmp_path, "compare-protocols", "--trials", "10000")
    emp, ana = summary["savings_empirical_s"], summary["savings_analytic_s"]
    rel = abs(emp - ana) / ana
    # 17.5 s needs a zero bus hop, which no shipped preset has (duty-3g's 1 us
    # gives 17.499996 s), so it stays a closed form: 4 meters, no cloud term
    worst = t_save(TimingBudget(t_uplink=5.0, t_bus=0.0), 4, 0.0)
    ok = rel <= 0.02 and worst == 17.5 and summary["trials"] == 10000
    report(3, ok,
           f"mean savings {emp:.3f} s vs analytic {ana:.3f} s ({rel:.2%}, tol 2%); "
           f"worst-case point {worst!r} s (want exactly 17.5)", t0)


def test_c4_waiting_time(tmp_path):
    t0 = time.perf_counter()
    summary = shipped(tmp_path, "duty-cycle", "--preset", "duty-3g")
    fixed, adaptive = summary["fixed_wait_s"], summary["max_adaptive_wait_s"]
    ok = fixed == 3.5 and summary["points"] == 33 and summary["all_confirmed"] and adaptive <= 3.5
    report(4, ok,
           f"fixed wait {fixed!r} s (want exactly 3.5); {summary['points']} sweep points "
           f"all confirmed, max adaptive wait {adaptive:.3f} s", t0)


def test_c5_rtt_distribution_shape(tmp_path):
    t0 = time.perf_counter()
    summary = shipped(tmp_path, "rtt-dist")  # one week at five-minute cadence
    threeg = summary["threeg"]
    ok = (threeg["probes"] == 2016 and threeg["modes"] >= 4 and threeg["seg_max"] <= 4.5
          and summary["ethernet_rtt_in_band"] >= 0.9)
    report(5, ok,
           f"{threeg['probes']} probes, {threeg['modes']} modes, "
           f"max {threeg['seg_max']:.3f} s <= 4.5 s, "
           f"{summary['ethernet_rtt_in_band']:.1%} of Ethernet RTTs near 0.2 s", t0)


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
    summary = shipped(tmp_path, "compare-protocols", "--trials", "0", "--duration", "86400")
    # one row per staleness report, a probe's or an arriving push's
    rows = len((tmp_path / "staleness.csv").read_text(encoding="utf-8").splitlines()) - 1
    worst, bound = summary["staleness_max_s"], summary["staleness_bound_s"]
    ok = rows > 1000 and worst <= bound
    report(7, ok,
           f"{rows} staleness reports over 24 h, max {worst:.3f} s vs bound {bound:.3f} s", t0)


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
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        shipped(out, "rtt-dist", "--duration", "21600")
    trace = (first / "trace.jsonl").read_bytes()
    replayed = cli_main("replay", str(first / "trace.jsonl"))
    same = trace == (second / "trace.jsonl").read_bytes()
    ok = same and replayed == 0
    report(9, ok,
           f"two runs wrote {'identical' if same else 'different'} {len(trace)}-byte traces; "
           f"replay exit {replayed} (want 0, identical)", t0)
