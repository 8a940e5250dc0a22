"""Station-local power information collector: an interrupt-driven firmware
state machine.

The firmware has three contexts: startup initialization, the main loop, and
two interrupt handlers (serial command, periodic timer). Interrupt handlers
only latch flags; every action with side effects (meter I/O, responses,
pushes) happens in the main loop according to those flags, so commands are
never missed while other work runs. In the simulator, interrupts are events
delivered between main-loop steps; ISR operations are safe at any such
boundary.
"""
from __future__ import annotations

from collections import deque
from enum import Enum
from typing import NamedTuple

from .domain import ChargingStation, meter_snapshot
from .latency import LatencyModel
from .proto import Message, MessageKind, make_aggregate_packet

COMMAND_QUEUE_DEPTH = 4


class Phase(Enum):
    INIT = "init"
    IDLE = "idle"


class Opcode(Enum):
    POWER_INFO_REQUEST = "power_info_request"
    REJECT = "reject"  # pseudo-opcode latched for malformed commands


class Command(NamedTuple):
    opcode: object  # Opcode, or whatever garbage arrived on the line
    seq: int
    arg: object = None


class SerialLine:
    """Producer side of the serial link: hands out strictly increasing
    sequence numbers."""

    def __init__(self):
        self._seq = 0

    def command(self, opcode, arg=None) -> Command:
        self._seq += 1
        return Command(opcode=opcode, seq=self._seq, arg=arg)


class Flags:
    """The only state interrupt handlers may touch."""

    __slots__ = ("push_data", "pending", "overflows")

    def __init__(self):
        self.push_data = False
        self.pending: deque = deque()
        self.overflows = 0


class PicState:
    __slots__ = ("registered_meters", "cache", "flags", "push_period", "serve_cache_mode",
                 "phase", "packet_seq", "diagnostics", "overflows_noted")

    def __init__(self, registered_meters: list, push_period: float = 30.0,
                 serve_cache_mode: bool = False):
        self.registered_meters = registered_meters
        self.cache: dict = {}       # outlet -> MeterSnapshot
        self.flags = Flags()
        self.push_period = push_period
        self.serve_cache_mode = serve_cache_mode
        self.phase = Phase.INIT
        self.packet_seq = 0
        self.diagnostics: list = []
        self.overflows_noted = 0  # how many queue drops the main loop has logged


class MeterBus:
    """The collector's access path to its station's meters.

    Reads cost one in-station hop plus the meter's reading time, both drawn
    from the given models; every meter always answers.
    """

    def __init__(self, station: ChargingStation, local_bus_model: LatencyModel,
                 metering_model: LatencyModel, rng):
        self.station = station
        self.local_bus_model = local_bus_model
        self.metering_model = metering_model
        self.rng = rng

    def read(self, outlet: int, at: float):
        """Returns (snapshot, cost_seconds): the snapshot is taken when the
        read completes."""
        rng = self.rng
        cost = self.local_bus_model.sample(rng, at) + self.metering_model.sample(rng, at)
        return meter_snapshot(self.station, outlet, at + cost), cost


def startup_init(bus: MeterBus, push_period: float = 30.0,
                 serve_cache: bool = False) -> PicState:
    """Power-on initialization: arm interrupts, register every meter (by its
    outlet) of the bus's station, and settle into the idle phase."""
    state = PicState(registered_meters=list(range(len(bus.station.meters))),
                     push_period=push_period, serve_cache_mode=serve_cache)
    state.phase = Phase.IDLE
    return state


def on_serial_interrupt(state: PicState, cmd: Command) -> None:
    """Serial ISR: validate the opcode and latch the command. No meter I/O,
    no cache writes, no phase change; a malformed opcode latches a reject so
    the main loop can answer with an error instead of dropping it."""
    if isinstance(cmd.opcode, Opcode) and cmd.opcode is not Opcode.REJECT:
        latched = cmd
    else:
        latched = Command(opcode=Opcode.REJECT, seq=cmd.seq, arg=cmd.opcode)
    if len(state.flags.pending) >= COMMAND_QUEUE_DEPTH:
        state.flags.overflows += 1
        return
    state.flags.pending.append(latched)


def on_timer_interrupt(state: PicState) -> None:
    """Timer ISR: set the push flag and nothing else. The flag is a boolean,
    so back-to-back ticks coalesce into a single push."""
    state.flags.push_data = True


def collect_all(state: PicState, bus: MeterBus, now: float) -> float:
    """Refresh the cache for every registered meter, one read after the
    other; returns the total collection duration (sum of per-meter hop +
    read costs).

    A duration at or above the push period gets a budget-violation
    diagnostic, since collection must fit between ticks.
    """
    t = now
    cache = state.cache
    read = bus.read
    for outlet in state.registered_meters:
        snap, cost = read(outlet, t)
        cache[outlet] = snap
        t += cost
    duration = t - now
    if state.registered_meters and duration >= state.push_period:
        state.diagnostics.append(
            f"collection took {duration:.3f} s, at or above the {state.push_period:.3f} s push period"
        )
    return duration


def _cached_snapshots(state: PicState) -> tuple:
    return tuple(state.cache[outlet] for outlet in state.registered_meters)


def _answer_power_request(state: PicState, bus: MeterBus, now: float):
    """The snapshots answering one power-info request, and the local time
    spent on them: served from the cache in cache-serving mode once every
    meter has been collected (costing nothing, since the periodic collection
    already did the metering), otherwise after a fresh sweep."""
    if state.serve_cache_mode and all(outlet in state.cache for outlet in state.registered_meters):
        return _cached_snapshots(state), 0.0
    duration = collect_all(state, bus, now)
    return _cached_snapshots(state), duration


def main_loop_step(state: PicState, bus: MeterBus, uplink=None, now: float = 0.0) -> list:
    """One pass of the main loop, acting on latched flags in priority order:
    pending commands first (server-initiated, latency-sensitive), then the
    periodic push. Returns every message emitted this step; push packets are
    also handed to ``uplink`` when given.
    """
    if state.phase is Phase.INIT:
        raise RuntimeError("main loop entered before startup completed")
    messages: list = []
    t = now
    if state.flags.overflows > state.overflows_noted:
        dropped = state.flags.overflows - state.overflows_noted
        state.diagnostics.append(
            f"{dropped} command(s) dropped: queue depth {COMMAND_QUEUE_DEPTH} exceeded"
        )
        state.overflows_noted = state.flags.overflows
    while state.flags.pending:
        cmd = state.flags.pending.popleft()
        if cmd.opcode is Opcode.POWER_INFO_REQUEST:
            snapshots, cost = _answer_power_request(state, bus, t)
            t += cost
            messages.append(make_aggregate_packet(
                bus.station.station_id, snapshots, seq=cmd.seq, sent_at=t))
        else:
            messages.append(Message(
                kind=MessageKind.ERROR, station=bus.station.station_id,
                payload={"reason": f"unknown opcode {cmd.arg!r}"}, seq=cmd.seq, sent_at=t))
    if state.flags.push_data:
        t += collect_all(state, bus, t)
        state.packet_seq += 1
        packet = make_aggregate_packet(
            bus.station.station_id, _cached_snapshots(state),
            seq=state.packet_seq, sent_at=t)
        if uplink is not None:
            uplink(packet)
        messages.append(packet)
        state.flags.push_data = False
    return messages


class PicEndpoint(NamedTuple):
    """What the aggregated-pull protocol talks to: the collector's state plus
    its meter bus."""

    state: PicState
    bus: MeterBus

    @property
    def station(self) -> ChargingStation:
        return self.bus.station

    def serve_aggregate(self, now: float):
        """Build the reply to an aggregate request: (snapshots, local_cost),
        the local cost being charged to the caller."""
        return _answer_power_request(self.state, self.bus, now)
