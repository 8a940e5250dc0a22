"""Server-side station controller: duty-cycle changes with computed waiting
times.

A duty-cycle change is confirmed by a follow-up power read. The wait before
that read adapts to the expected settle time: by the time the change's
acknowledgment has crossed the uplink, half a round trip of settling has
already elapsed, so the server only needs to cover the remainder.
"""
from __future__ import annotations

from enum import Enum

from .domain import (
    ChargingStation,
    NoEvError,
    RelayState,
    apply_relay,
    check_circuit,
    ev_settle_time,
    meter_snapshot,
    set_current,
)
from .latency import LinkModelSet, TimingBudget

DUTY_MIN_PERCENT = 10.0
DUTY_MAX_PERCENT = 85.0
AMPS_PER_DUTY_PERCENT = 0.6
CONFIRM_TOLERANCE_A = 1.0


class DutyOutcome(Enum):
    CONFIRMED = "confirmed"
    UNSETTLED = "unsettled"
    FAILED = "failed"


class DutyRangeError(ValueError):
    """Duty percentage outside the valid pilot range."""


def duty_to_current(duty_percent: float) -> float:
    """Pilot duty ratio to advertised charging current (0.6 A per percent on
    the standard encoding's linear range)."""
    if not DUTY_MIN_PERCENT <= duty_percent <= DUTY_MAX_PERCENT:
        raise DutyRangeError(
            f"duty {duty_percent!r}% outside [{DUTY_MIN_PERCENT}, {DUTY_MAX_PERCENT}]"
        )
    return AMPS_PER_DUTY_PERCENT * duty_percent


def current_to_duty(amps: float) -> float:
    duty = amps / AMPS_PER_DUTY_PERCENT
    if not DUTY_MIN_PERCENT <= duty <= DUTY_MAX_PERCENT:
        raise DutyRangeError(f"{amps!r} A maps to duty {duty:.2f}% outside the valid range")
    return duty


def compute_t_waiting(t_ev: float, budget: TimingBudget) -> float:
    """Server-side wait between a confirmed duty change and the verification
    read: the settle time minus the uplink transit already spent, clamped at
    zero (a negative wait is physically meaningless)."""
    if t_ev < 0:
        raise ValueError(f"settle time must be non-negative, got {t_ev!r}")
    return max(0.0, t_ev - 0.5 * budget.t_uplink)


class DutyCycleChange:
    """Record of one duty-cycle change attempt and its verification."""

    __slots__ = ("t_waiting", "outcome", "reads", "completed_at")

    def __init__(self, t_waiting: float, outcome: DutyOutcome, reads: list,
                 completed_at: float):
        self.t_waiting = t_waiting
        self.outcome = outcome
        self.reads = reads  # (measured_at, amps) per verification read
        self.completed_at = completed_at


def change_duty_cycle(station: ChargingStation, outlet: int, duty_percent: float,
                      links: LinkModelSet, rng, budget: TimingBudget, now: float = 0.0,
                      timeout_s: float = 30.0) -> DutyCycleChange:
    """Send a duty-cycle change, wait the adaptive settle window, then verify
    with a power read.

    The change applies at the station when the command lands (half a round
    trip out); the ack closes the round trip. Verification reads the meter
    after ``compute_t_waiting`` and confirms when the measured current is
    within tolerance of the target. An unsettled first read triggers exactly
    one re-read after the full settle estimate; an ack timeout fails the
    operation outright.
    """
    ch = station.channel(outlet)
    if ch.ev is None:
        raise NoEvError(f"outlet {outlet} has no plugged EV")
    i_final = duty_to_current(duty_percent)

    link_model = links.for_link(station.link)
    cloud = links.cloud
    link_s = link_model.sample(rng, now)
    rtt = cloud + link_s
    if rtt > timeout_s:
        return DutyCycleChange(t_waiting=0.0, outcome=DutyOutcome.FAILED, reads=[],
                               completed_at=now + timeout_s)

    t_apply = now + 0.5 * rtt
    i_init = ch.amps_at(t_apply)
    if ch.relay is RelayState.OFF and i_final > 0:
        check_circuit(station, outlet, i_final)  # before the outlet holds the allocation
        ch.allocated_amps = i_final
        apply_relay(station, outlet, RelayState.ON, t_apply)
    else:
        set_current(station, outlet, i_final, t_apply)
    t_ack = now + rtt

    t_ev = ev_settle_time(ch.ev, i_init, ch.ev.draw(i_final))
    t_wait = compute_t_waiting(t_ev, budget)

    reads = []
    t_send = t_ack + t_wait
    outcome = DutyOutcome.UNSETTLED
    for _ in range(2):  # the verification read, then at most one re-read
        link_r = link_model.sample(rng, t_send)
        met_r = links.metering.sample(rng, t_send)
        t_measured = t_send + 0.5 * (cloud + link_r) + met_r
        amps = meter_snapshot(station, outlet, t_measured).amps
        reads.append((t_measured, amps))
        done = t_send + cloud + link_r + met_r
        if abs(amps - i_final) <= CONFIRM_TOLERANCE_A:
            outcome = DutyOutcome.CONFIRMED
            break
        t_send = done + t_ev
    return DutyCycleChange(t_waiting=t_wait, outcome=outcome, reads=reads, completed_at=done)

