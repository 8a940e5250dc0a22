"""Core charging-infrastructure entities: stations, metered outlets, relays,
and plugged EVs with current-settling behavior.

All state here is plain and synchronous; the single-threaded simulation loop
drives it, and independent instances can run on parallel engines.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .latency import LinkKind
from .sim import ordered_sum

DEFAULT_VOLTAGE = 208.0   # single-phase service typical of parking structures
DEFAULT_OUTLETS = 4
_CURRENT_TOL = 1e-9


class RelayState(Enum):
    ON = "on"
    OFF = "off"


class AlgorithmMode(Enum):
    NONE = "none"
    ROUND_ROBIN = "round_robin"
    SCHEDULE_TIME = "schedule_time"


class NoEvError(RuntimeError):
    """An operation needed a plugged EV and the outlet has none."""


class CircuitLimitError(RuntimeError):
    """An allocation change would push the station past its circuit limit."""


@dataclass(frozen=True, order=True)
class MeterId:
    station: int
    outlet: int


@dataclass
class MeterSnapshot:
    """One outlet's power sample plus relay state, the atom of all telemetry."""

    meter: MeterId
    volts: float
    amps: float
    watts: float
    energy_kwh: float
    relay: RelayState
    captured_at: float
    fault: Optional[str] = None

    def to_record(self) -> dict:
        rec = {
            "station": self.meter.station,
            "outlet": self.meter.outlet,
            "volts": self.volts,
            "amps": self.amps,
            "watts": self.watts,
            "energy_kwh": self.energy_kwh,
            "relay": self.relay.value,
            "captured_at": self.captured_at,
        }
        if self.fault is not None:
            rec["fault"] = self.fault
        return rec


@dataclass
class EvModel:
    """A plugged vehicle's charging envelope and settling behavior.

    After a pilot change the drawn current ramps to the new target over a
    settle time that grows linearly with the step size, capped at
    ``settle_cap``. The defaults make a full 0-32 A step take exactly the cap.
    """

    max_current: float = 32.0
    settle_t0: float = 1.0
    settle_rate: float = 0.15625  # seconds per ampere of step
    settle_cap: float = 6.0


def ev_settle_time(ev: EvModel, i_init: float, i_final: float) -> float:
    """Seconds for the EV to settle after a current step; symmetric in its
    arguments, zero for a zero step, never above the cap."""
    for label, amps in (("i_init", i_init), ("i_final", i_final)):
        if not 0.0 <= amps <= ev.max_current:
            raise ValueError(f"{label}={amps!r} outside [0, {ev.max_current}]")
    step = abs(i_final - i_init)
    if step == 0.0:
        return 0.0
    return min(ev.settle_cap, ev.settle_t0 + ev.settle_rate * step)


@dataclass
class MeterChannel:
    """One outlet: relay, optional EV, allocation, and cumulative energy."""

    relay: RelayState = RelayState.OFF
    ev: Optional[EvModel] = None
    allocated_amps: float = 0.0
    # physical current ramp after the latest change
    ramp_from: float = 0.0
    ramp_to: float = 0.0
    ramp_start: float = 0.0
    ramp_end: float = 0.0
    # metering accumulator
    energy_kwh: float = 0.0
    metered_at: float = 0.0
    metered_amps: float = 0.0

    def amps_at(self, now: float) -> float:
        if self.relay is RelayState.OFF or self.ev is None:
            return 0.0
        if self.ramp_end <= self.ramp_start or now >= self.ramp_end:
            return self.ramp_to
        if now <= self.ramp_start:
            return self.ramp_from
        frac = (now - self.ramp_start) / (self.ramp_end - self.ramp_start)
        return self.ramp_from + (self.ramp_to - self.ramp_from) * frac

    def ramp(self, start: float, target: float, now: float) -> None:
        """Ramp the plugged EV's current from ``start`` to ``target``,
        beginning at ``now`` and taking the EV's settle time."""
        self.ramp_from = start
        self.ramp_to = target
        self.ramp_start = now
        self.ramp_end = now + ev_settle_time(self.ev, start, target)

    def pin(self, amps: float, now: float) -> None:
        """Hold the drawn current at ``amps`` from ``now``, with no transient.
        No settle time is computed, so any EV limit is left unchecked."""
        self.ramp_from = amps
        self.ramp_to = amps
        self.ramp_start = now
        self.ramp_end = now

    def settle_now(self, amps: float, now: float) -> None:
        """Scenario setup shortcut: allocate ``amps`` and pin the drawn
        current there, as if it had settled long ago."""
        self.allocated_amps = amps
        self.pin(amps, now)


class ChargingStation:
    """A multi-outlet charging circuit with one uplink and a shared current
    budget; the sum of allocations on live relays may never exceed
    ``circuit_limit``."""

    def __init__(self, station_id: int, circuit_limit: float,
                 link: LinkKind = LinkKind.THREE_G,
                 outlets: int = DEFAULT_OUTLETS,
                 voltage: float = DEFAULT_VOLTAGE,
                 local_algorithm: AlgorithmMode = AlgorithmMode.NONE):
        if outlets < 0:
            raise ValueError(f"outlet count must be non-negative, got {outlets}")
        self.station_id = station_id
        self.circuit_limit = circuit_limit
        self.link = link
        self.voltage = voltage
        self.local_algorithm = local_algorithm
        self.meters = [MeterChannel() for _ in range(outlets)]
        self.online = True

    def channel(self, outlet: int) -> MeterChannel:
        if not 0 <= outlet < len(self.meters):
            raise IndexError(f"outlet {outlet} out of range for {len(self.meters)}-outlet station")
        return self.meters[outlet]


def allocated_current_total(station: ChargingStation) -> float:
    """Sum of allocations across outlets whose relay is live."""
    return ordered_sum(ch.allocated_amps for ch in station.meters if ch.relay is RelayState.ON)


def _check_circuit(station: ChargingStation, outlet: int, amps: float) -> None:
    others = sum(
        ch.allocated_amps
        for i, ch in enumerate(station.meters)
        if i != outlet and ch.relay is RelayState.ON
    )
    if others + amps > station.circuit_limit + _CURRENT_TOL:
        raise CircuitLimitError(
            f"station {station.station_id}: {others + amps:.3f} A would exceed "
            f"the {station.circuit_limit:.3f} A circuit limit"
        )


def meter_snapshot(station: ChargingStation, outlet: int, now: float) -> MeterSnapshot:
    """Read one outlet: updates the channel's cumulative energy (trapezoid
    over the ramp) and returns the sample. Energy never decreases."""
    ch = station.channel(outlet)
    amps = ch.amps_at(now)
    if now > ch.metered_at:
        avg = 0.5 * (ch.metered_amps + amps)
        ch.energy_kwh += station.voltage * avg * (now - ch.metered_at) / 3.6e6
        ch.metered_at = now
        ch.metered_amps = amps
    watts = station.voltage * amps
    return MeterSnapshot(
        meter=MeterId(station.station_id, outlet),
        volts=station.voltage,
        amps=amps,
        watts=watts,
        energy_kwh=ch.energy_kwh,
        relay=ch.relay,
        captured_at=now,
    )


def apply_relay(station: ChargingStation, outlet: int, state: RelayState,
                now: float = 0.0) -> MeterSnapshot:
    """Switch an outlet's relay and return the post-change snapshot.

    Turning ON checks the circuit limit and starts the EV ramp from zero;
    turning OFF meters the energy drawn so far and cuts the current to zero
    immediately. Re-applying the current state only refreshes the timestamp.
    """
    ch = station.channel(outlet)
    if state is RelayState.ON and ch.relay is RelayState.OFF:
        _check_circuit(station, outlet, ch.allocated_amps)
        ch.relay = RelayState.ON
        if ch.ev is not None:
            ch.ramp(0.0, min(ch.allocated_amps, ch.ev.max_current), now)
    elif state is RelayState.OFF and ch.relay is RelayState.ON:
        meter_snapshot(station, outlet, now)  # bank the energy up to the cut
        ch.relay = RelayState.OFF
        ch.pin(0.0, now)
        ch.metered_amps = 0.0  # current is cut instantly
    return meter_snapshot(station, outlet, now)


def set_current(station: ChargingStation, outlet: int, amps: float,
                now: float = 0.0) -> None:
    """Change an outlet's allocation; on a live relay this starts the EV's
    settling ramp toward the new target."""
    ch = station.channel(outlet)
    if amps < 0:
        raise ValueError(f"allocation must be non-negative, got {amps!r}")
    if ch.relay is RelayState.ON:
        _check_circuit(station, outlet, amps)
    meter_snapshot(station, outlet, now)
    ch.allocated_amps = amps
    if ch.relay is RelayState.ON and ch.ev is not None:
        ch.ramp(ch.amps_at(now), min(amps, ch.ev.max_current), now)


def plug_ev(station: ChargingStation, outlet: int, ev: EvModel, now: float = 0.0) -> None:
    ch = station.channel(outlet)
    meter_snapshot(station, outlet, now)
    ch.ev = ev
    if ch.relay is RelayState.ON:
        ch.ramp(0.0, min(ch.allocated_amps, ev.max_current), now)


def unplug_ev(station: ChargingStation, outlet: int, now: float = 0.0) -> None:
    ch = station.channel(outlet)
    meter_snapshot(station, outlet, now)
    ch.ev = None
    ch.pin(0.0, now)
    ch.metered_amps = 0.0
