"""Scheduler tests: round-robin fairness against a chunking oracle, daily
windows with wraparound, config validation."""
import itertools

import pytest
from hypothesis import given, strategies as st

from chargesim.sched import (
    ChargeWindow,
    RoundRobinConfig,
    ScheduleTimeConfig,
    round_robin_peak,
    round_robin_step,
    schedule_overload,
    schedule_time_step,
)


def oracle_round_robin_counts(plugged, max_concurrent, n_slots, first_slot=0):
    """Independent formulation: lay the plugged outlets out cyclically and
    hand out consecutive chunks of size max_concurrent, one chunk per slot."""
    order = sorted(set(plugged))
    n = len(order)
    counts = {o: 0 for o in order}
    if n == 0:
        return counts
    m = min(max_concurrent, n)
    cyclic = itertools.cycle(order)
    # skip to where the first slot's chunk starts
    for _ in range((first_slot * m) % n):
        next(cyclic)
    for _ in range(n_slots):
        for o in itertools.islice(cyclic, m):
            counts[o] += 1
        # islice consumed exactly m items; the cycle continues from there
    return counts


def step_counts(config, plugged, n_slots, first_slot=0):
    counts = {o: 0 for o in sorted(set(plugged))}
    for k in range(first_slot, first_slot + n_slots):
        alloc = round_robin_step(config, plugged, k * config.slot_length_s)
        for o, amps in alloc.items():
            if amps > 0:
                counts[o] += 1
    return counts


class TestRoundRobin:
    def test_three_evs_single_slot_each_of_three(self):
        cfg = RoundRobinConfig(slot_length_s=900, max_concurrent=1, per_active_current=16.0)
        counts = step_counts(cfg, {0, 1, 2}, 3)
        assert counts == {0: 1, 1: 1, 2: 1}

    def test_single_ev_always_active(self):
        cfg = RoundRobinConfig(slot_length_s=900, max_concurrent=1)
        for k in range(10):
            alloc = round_robin_step(cfg, {2}, k * 900.0)
            assert alloc[2] == cfg.per_active_current

    def test_five_evs_two_concurrent_ten_cycles(self):
        cfg = RoundRobinConfig(slot_length_s=900, max_concurrent=2)
        plugged = {0, 1, 2, 3, 4}
        n_slots = 50  # ten full cycles of five slots
        counts = step_counts(cfg, plugged, n_slots)
        assert counts == oracle_round_robin_counts(plugged, 2, n_slots)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_exhaustive_small_instances_match_oracle(self):
        for n_outlets in range(1, 7):
            for width in range(1, n_outlets + 1):
                for n_slots in (1, 3, 7, 20):
                    for first in (0, 5):
                        cfg = RoundRobinConfig(slot_length_s=600, max_concurrent=width)
                        plugged = set(range(n_outlets))
                        got = step_counts(cfg, plugged, n_slots, first)
                        want = oracle_round_robin_counts(plugged, width, n_slots, first)
                        assert got == want, (n_outlets, width, n_slots, first)

    def test_unplugged_outlets_get_nothing(self):
        cfg = RoundRobinConfig(max_concurrent=2)
        alloc = round_robin_step(cfg, {1, 3}, 0.0)
        assert set(alloc) == {1, 3}

    def test_full_cycle_fairness_is_exact(self):
        # over n consecutive slots with stable plug state, each outlet is
        # active exactly max_concurrent times (m <= n)
        for n, m in [(3, 1), (4, 2), (5, 2), (6, 4), (5, 3)]:
            cfg = RoundRobinConfig(slot_length_s=100, max_concurrent=m)
            counts = step_counts(cfg, set(range(n)), n)
            assert all(c == m for c in counts.values()), (n, m, counts)

    @given(
        plugged=st.sets(st.integers(min_value=0, max_value=9), max_size=10),
        width=st.integers(min_value=1, max_value=4),
        slot=st.integers(min_value=0, max_value=1000),
    )
    def test_deterministic_and_respects_capacity(self, plugged, width, slot):
        cfg = RoundRobinConfig(slot_length_s=900, max_concurrent=width, per_active_current=10.0)
        now = slot * 900.0 + 13.7
        a1 = round_robin_step(cfg, plugged, now)
        a2 = round_robin_step(cfg, set(plugged), now)
        assert a1 == a2
        active = sum(1 for v in a1.values() if v > 0)
        assert active <= width
        assert sum(a1.values()) <= width * 10.0


class TestScheduleTime:
    def test_empty_config_allocates_nothing(self):
        cfg = ScheduleTimeConfig(windows={})
        assert schedule_time_step(cfg, {0, 1}, 3600.0) == {0: 0.0, 1: 0.0}

    def test_wraparound_window_active_before_midnight(self):
        # 22:00-06:00 window; query at 23:00
        cfg = ScheduleTimeConfig(windows={0: (ChargeWindow(79200.0, 21600.0, 16.0),)})
        assert schedule_time_step(cfg, {0}, 82800.0)[0] == 16.0

    def test_wraparound_window_active_after_midnight(self):
        cfg = ScheduleTimeConfig(windows={0: (ChargeWindow(79200.0, 21600.0, 16.0),)})
        # 05:00 next day (simulation time 29 h)
        assert schedule_time_step(cfg, {0}, 86400.0 + 18000.0)[0] == 16.0

    def test_wraparound_window_inactive_mid_day(self):
        cfg = ScheduleTimeConfig(windows={0: (ChargeWindow(79200.0, 21600.0, 16.0),)})
        assert schedule_time_step(cfg, {0}, 43200.0)[0] == 0.0

    def test_two_disjoint_windows_never_overlap(self):
        cfg = ScheduleTimeConfig(windows={
            0: (ChargeWindow(0.0, 21600.0, 16.0),),
            1: (ChargeWindow(21600.0, 43200.0, 16.0),),
        })
        for hour in range(24):
            alloc = schedule_time_step(cfg, {0, 1}, hour * 3600.0)
            assert not (alloc[0] > 0 and alloc[1] > 0)

    def test_unplugged_outlet_ignored(self):
        cfg = ScheduleTimeConfig(windows={0: (ChargeWindow(0.0, 86400.0, 16.0),)})
        assert schedule_time_step(cfg, set(), 100.0) == {}


class TestValidation:
    def test_two_sixteens_on_forty_ok(self):
        cfg = ScheduleTimeConfig(windows={
            0: (ChargeWindow(0.0, 43200.0, 16.0),),
            1: (ChargeWindow(0.0, 43200.0, 16.0),),
        })
        assert schedule_overload(cfg, 40.0) is None

    def test_three_sixteens_overlapping_on_forty_violate(self):
        cfg = ScheduleTimeConfig(windows={
            0: (ChargeWindow(0.0, 43200.0, 16.0),),
            1: (ChargeWindow(21600.0, 64800.0, 16.0),),
            2: (ChargeWindow(28800.0, 36000.0, 16.0),),
        })
        at, total = schedule_overload(cfg, 40.0)
        assert total == pytest.approx(48.0)
        # sweep-line oracle: minute-resolution scan agrees at the flagged instant
        alloc = schedule_time_step(cfg, {0, 1, 2}, at)
        assert sum(alloc.values()) == pytest.approx(48.0)
        worst = max(
            sum(schedule_time_step(cfg, {0, 1, 2}, m * 60.0).values())
            for m in range(1440)
        )
        assert worst == pytest.approx(48.0)

    def test_wraparound_overlap_detected(self):
        cfg = ScheduleTimeConfig(windows={
            0: (ChargeWindow(79200.0, 21600.0, 30.0),),   # 22:00-06:00
            1: (ChargeWindow(0.0, 10800.0, 30.0),),       # 00:00-03:00
        })
        assert schedule_overload(cfg, 40.0) is not None

    def test_overload_totals_agree_across_python_versions(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 summed left to right, but
        # 0.6 under the compensated sum() of Python 3.12+; the validator
        # sums as the runtime circuit check does and allows it the same margin
        cfg = ScheduleTimeConfig(windows={
            0: (ChargeWindow(0.0, 3600.0, 0.1),),
            1: (ChargeWindow(0.0, 3600.0, 0.2),),
            2: (ChargeWindow(0.0, 3600.0, 0.3),),
        })
        assert schedule_overload(cfg, 0.6) is None
        assert schedule_overload(cfg, 0.5) == (0.0, 0.6000000000000001)

    def test_empty_config_ok(self):
        assert schedule_overload(ScheduleTimeConfig(windows={}), 40.0) is None

    def test_round_robin_capacity_check(self):
        assert round_robin_peak(RoundRobinConfig(max_concurrent=2, per_active_current=16.0)) == 32.0
        assert round_robin_peak(RoundRobinConfig(max_concurrent=3, per_active_current=16.0)) == 48.0
