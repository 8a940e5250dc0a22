"""Local charging algorithms runnable on a station's control unit:
round-robin time multiplexing and fixed daily schedule windows, both under
the circuit-limit constraint.

Allocation is a pure function of (config, plugged set, now): slots align to
absolute time, so replays and restarts always agree, and plug changes take
effect at the next slot boundary rather than thrashing relays mid-slot.
"""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .domain import AlgorithmMode, exceeds_limit
from .sim import ordered_sum

SECONDS_PER_DAY = 86400.0


class RoundRobinConfig(NamedTuple):
    slot_length_s: float = 900.0
    max_concurrent: int = 1
    per_active_current: float = 16.0


class ChargeWindow(NamedTuple):
    """Daily window in seconds-of-day; start > end wraps past midnight and
    start == end is empty."""

    start_s: float
    end_s: float
    amps: float

    def active_at(self, time_of_day: float) -> bool:
        if self.start_s == self.end_s:
            return False
        if self.start_s < self.end_s:
            return self.start_s <= time_of_day < self.end_s
        return time_of_day >= self.start_s or time_of_day < self.end_s


class ScheduleTimeConfig(NamedTuple):
    """Per-outlet lists of daily charge windows; the first window matching
    the current time of day wins."""

    windows: Mapping  # outlet -> tuple[ChargeWindow, ...]


def round_robin_step(config: RoundRobinConfig, plugged: Iterable[int], now: float) -> dict:
    """Allocation for the slot containing ``now``: the next ``max_concurrent``
    plugged outlets in cyclic order get ``per_active_current``, the rest get
    zero. Deterministic in (config, plugged, now)."""
    order = sorted(set(plugged))
    n = len(order)
    alloc = {outlet: 0.0 for outlet in order}
    if n == 0:
        return alloc
    m = min(config.max_concurrent, n)
    if m <= 0:
        return alloc
    slot = int(now // config.slot_length_s)
    start = (slot * m) % n
    for j in range(m):
        alloc[order[(start + j) % n]] = config.per_active_current
    return alloc


def schedule_time_step(config: ScheduleTimeConfig, plugged: Iterable[int], now: float) -> dict:
    """Allocation from the daily windows: a plugged outlet inside one of its
    windows gets that window's current, everything else gets zero."""
    time_of_day = now % SECONDS_PER_DAY
    alloc = {}
    for outlet in sorted(set(plugged)):
        amps = 0.0
        for window in config.windows.get(outlet, ()):
            if window.active_at(time_of_day):
                amps = window.amps
                break
        alloc[outlet] = amps
    return alloc


def allocate(mode: AlgorithmMode, round_robin: RoundRobinConfig,
             schedule_time: ScheduleTimeConfig | None, plugged: Iterable[int], now: float) -> dict:
    """Allocation for ``now`` under algorithm ``mode``; ``none`` (no
    algorithm chosen) runs round robin."""
    if mode is AlgorithmMode.SCHEDULE_TIME:
        return schedule_time_step(schedule_time, plugged, now)
    return round_robin_step(round_robin, plugged, now)


def round_robin_peak(config: RoundRobinConfig) -> float:
    """The most current round robin ever allocates at once."""
    return config.max_concurrent * config.per_active_current


def schedule_overload(config: ScheduleTimeConfig, circuit_limit: float) -> tuple | None:
    """``(at, total_amps)`` at the first second-of-day whose total allocation
    exceeds ``circuit_limit`` as the runtime circuit check judges it, or None
    if none does. The total is a step function that can only change where
    some window starts or ends, so checking each boundary instant is exact;
    it is summed in outlet order, as ``ordered_sum`` gives it on every
    Python version."""
    boundaries = {0.0}
    for windows in config.windows.values():
        for w in windows:
            boundaries.add(w.start_s % SECONDS_PER_DAY)
            boundaries.add(w.end_s % SECONDS_PER_DAY)
    plugged = list(config.windows.keys())
    for t in sorted(boundaries):
        total = ordered_sum(schedule_time_step(config, plugged, t).values())
        if exceeds_limit(total, circuit_limit):
            return t, total
    return None
