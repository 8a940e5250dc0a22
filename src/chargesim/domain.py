"""Core charging-infrastructure entities: stations, metered outlets, relays,
and plugged EVs with current-settling behavior.

All state here is plain and synchronous; the single-threaded simulation loop
drives it, and independent instances can run on parallel engines.
"""
from __future__ import annotations

from enum import Enum
from typing import Optional

from .latency import LinkKind

DEFAULT_OUTLETS = 4
_CURRENT_TOL = 1e-9


class RelayState(Enum):
    ON = "on"
    OFF = "off"


# the states as globals: every outlet write compares against them, and a
# global is one lookup where ``RelayState.ON`` is two
_ON = RelayState.ON
_OFF = RelayState.OFF


class AlgorithmMode(Enum):
    NONE = "none"
    ROUND_ROBIN = "round_robin"
    SCHEDULE_TIME = "schedule_time"


class NoEvError(RuntimeError):
    """An operation needed a plugged EV and the outlet has none."""


class CircuitLimitError(RuntimeError):
    """An allocation change would push the station past its circuit limit."""


class MeterSnapshot:
    """One outlet's current sample plus relay state, the atom of all telemetry.

    A run simulates one station, so the outlet alone names the meter; the
    station travels on the message that carries the snapshot."""

    __slots__ = ("outlet", "amps", "relay", "captured_at")

    def __init__(self, outlet: int, amps: float, relay: RelayState, captured_at: float):
        self.outlet = outlet
        self.amps = amps
        self.relay = relay
        self.captured_at = captured_at

    def __eq__(self, other):
        if type(other) is not MeterSnapshot:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in MeterSnapshot.__slots__)


class EvModel:
    """A plugged vehicle's charging envelope and settling behavior.

    After a pilot change the drawn current ramps to the new target over a
    settle time that grows linearly with the step size, capped at
    ``settle_cap``. The defaults make a full 0-32 A step take exactly the cap.
    Every outlet write reads it, so its fields are slots, not tuple items.
    """

    __slots__ = ("max_current", "settle_t0", "settle_rate", "settle_cap")

    def __init__(self, max_current: float = 32.0, settle_t0: float = 1.0,
                 settle_rate: float = 0.15625, settle_cap: float = 6.0):
        self.max_current = max_current
        self.settle_t0 = settle_t0
        self.settle_rate = settle_rate  # seconds per ampere of step
        self.settle_cap = settle_cap

    def __eq__(self, other):
        if type(other) is not EvModel:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in EvModel.__slots__)

    def draw(self, amps: float) -> float:
        """The current the EV draws when offered ``amps``: never above its
        own maximum."""
        return min(amps, self.max_current)


def ev_settle_time(ev: EvModel, i_init: float, i_final: float) -> float:
    """Seconds for the EV to settle after a current step; symmetric in its
    arguments, zero for a zero step, never above the cap."""
    if not 0.0 <= i_init <= ev.max_current:
        raise ValueError(f"i_init={i_init!r} outside [0, {ev.max_current}]")
    if not 0.0 <= i_final <= ev.max_current:
        raise ValueError(f"i_final={i_final!r} outside [0, {ev.max_current}]")
    step = abs(i_final - i_init)
    if step == 0.0:
        return 0.0
    return min(ev.settle_cap, ev.settle_t0 + ev.settle_rate * step)


class MeterChannel:
    """One outlet: relay, optional EV, allocation and the drawn current's
    ramp after the latest change. The current at any time follows from these
    alone, so a read (``meter_snapshot``) needs no state of its own."""

    __slots__ = ("relay", "ev", "allocated_amps",
                 # physical current ramp after the latest change
                 "ramp_from", "ramp_to", "ramp_start", "ramp_end")

    def __init__(self):
        self.relay = RelayState.OFF
        self.ev: Optional[EvModel] = None
        self.allocated_amps = 0.0
        self.ramp_from = 0.0
        self.ramp_to = 0.0
        self.ramp_start = 0.0
        self.ramp_end = 0.0

    def __eq__(self, other):
        if type(other) is not MeterChannel:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in MeterChannel.__slots__)

    def amps_at(self, now: float) -> float:
        if self.relay is _OFF or self.ev is None:
            return 0.0
        if self.ramp_end <= self.ramp_start or now >= self.ramp_end:
            return self.ramp_to
        if now <= self.ramp_start:
            return self.ramp_from
        frac = (now - self.ramp_start) / (self.ramp_end - self.ramp_start)
        return self.ramp_from + (self.ramp_to - self.ramp_from) * frac

    def ramp(self, start: float, now: float) -> None:
        """Ramp the plugged EV's current from ``start`` to what it draws of
        the allocation, beginning at ``now`` and taking the EV's settle time."""
        self.ramp_from = start
        self.ramp_to = self.ev.draw(self.allocated_amps)
        self.ramp_start = now
        self.ramp_end = now + ev_settle_time(self.ev, start, self.ramp_to)

    def pin(self, amps: float, now: float) -> None:
        """Hold the drawn current at ``amps`` from ``now``, with no transient.
        No settle time is computed, so any EV limit is left unchecked."""
        self.ramp_from = amps
        self.ramp_to = amps
        self.ramp_start = now
        self.ramp_end = now


class ChargingStation:
    """A multi-outlet charging circuit with one uplink and a shared current
    budget; the sum of allocations on live relays may never exceed
    ``circuit_limit``."""

    def __init__(self, station_id: int, circuit_limit: float,
                 link: LinkKind = LinkKind.THREE_G,
                 outlets: int = DEFAULT_OUTLETS,
                 local_algorithm: AlgorithmMode = AlgorithmMode.NONE):
        if outlets < 0:
            raise ValueError(f"outlet count must be non-negative, got {outlets}")
        self.station_id = station_id
        self.circuit_limit = circuit_limit
        self.link = link
        self.local_algorithm = local_algorithm
        self.meters = [MeterChannel() for _ in range(outlets)]

    def channel(self, outlet: int) -> MeterChannel:
        if not 0 <= outlet < len(self.meters):
            raise IndexError(f"outlet {outlet} out of range for {len(self.meters)}-outlet station")
        return self.meters[outlet]


def allocated_current_total(station: ChargingStation, skip: int = -1) -> float:
    """Sum of the allocations on live relays, leaving out outlet ``skip``:
    left to right in outlet order from the integer 0, as ``ordered_sum``
    adds, but in an explicit loop, since a generator into ``ordered_sum``
    costs about 2.3 times as much on these per-write totals."""
    total = 0
    outlet = 0
    for ch in station.meters:
        if ch.relay is _ON and outlet != skip:
            total += ch.allocated_amps
        outlet += 1
    return total


def exceeds_limit(total_amps: float, limit_amps: float) -> bool:
    """Whether ``total_amps`` exceeds ``limit_amps`` by more than float
    rounding: the one comparison of a current total with a circuit limit,
    made by the runtime check and the config's scheduler validation alike."""
    return total_amps > limit_amps + _CURRENT_TOL


def check_circuit(station: ChargingStation, outlet: int, amps: float) -> None:
    """Raise ``CircuitLimitError`` unless ``outlet`` can carry ``amps`` on a
    live relay alongside the other live outlets' allocations."""
    total = allocated_current_total(station, outlet) + amps
    if exceeds_limit(total, station.circuit_limit):
        raise CircuitLimitError(
            f"station {station.station_id}: {total:.3f} A would exceed "
            f"the {station.circuit_limit:.3f} A circuit limit"
        )


def apply_allocation(station: ChargingStation, alloc: dict, now: float) -> None:
    """Apply a slot's allocation ``{outlet: amps}``; an outlet it leaves out
    gets zero. Every outlet is written in two passes: first each live load
    that falls is lowered, or cut when it falls to zero, then each non-zero
    allocation is set and its relay switched on. Lowering first means the
    circuit never carries a raised load beside one not yet lowered."""
    meters = station.meters
    for outlet, ch in enumerate(meters):
        amps = alloc.get(outlet, 0.0)
        if ch.relay is _ON and amps < ch.allocated_amps:
            if amps == 0.0:
                apply_relay(station, outlet, _OFF, now)
            set_current(station, outlet, amps, now)
    for outlet, ch in enumerate(meters):
        amps = alloc.get(outlet, 0.0)
        if amps > 0.0:
            set_current(station, outlet, amps, now)
            if ch.relay is _OFF:
                apply_relay(station, outlet, _ON, now)


def meter_snapshot(station: ChargingStation, outlet: int, now: float) -> MeterSnapshot:
    """Read one outlet at ``now``. A pure function of the channel and ``now``:
    it changes no state, so reads taken at any times, in any number, leave
    the channel and every later read as they were."""
    ch = station.channel(outlet)
    # positional, in field order: outlet, amps, relay, captured_at
    return MeterSnapshot(outlet, ch.amps_at(now), ch.relay, now)


def apply_relay(station: ChargingStation, outlet: int, state: RelayState,
                now: float = 0.0) -> None:
    """Switch an outlet's relay.

    Turning ON checks the circuit limit and starts the EV ramp from zero;
    turning OFF cuts the current to zero immediately. Re-applying the
    current state changes nothing.
    """
    ch = station.channel(outlet)
    relay = ch.relay
    if state is _ON and relay is _OFF:
        check_circuit(station, outlet, ch.allocated_amps)
        ch.relay = _ON
        if ch.ev is not None:
            ch.ramp(0.0, now)
    elif state is _OFF and relay is _ON:
        ch.relay = _OFF
        ch.pin(0.0, now)


def set_current(station: ChargingStation, outlet: int, amps: float,
                now: float = 0.0) -> None:
    """Change an outlet's allocation; on a live relay this starts the EV's
    settling ramp toward the new target."""
    ch = station.channel(outlet)
    if amps < 0:
        raise ValueError(f"allocation must be non-negative, got {amps!r}")
    live = ch.relay is _ON
    if live:
        check_circuit(station, outlet, amps)
    ch.allocated_amps = amps
    if live and ch.ev is not None:
        ch.ramp(ch.amps_at(now), now)


def plug_ev(station: ChargingStation, outlet: int, ev: EvModel, now: float = 0.0) -> None:
    ch = station.channel(outlet)
    ch.ev = ev
    if ch.relay is _ON:
        ch.ramp(0.0, now)


def unplug_ev(station: ChargingStation, outlet: int, now: float = 0.0) -> None:
    ch = station.channel(outlet)
    ch.ev = None
    ch.pin(0.0, now)
