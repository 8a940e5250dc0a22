"""Shared harness for firmware interleaving tests.

Drives arbitrary command/tick interleavings against the collector state
machine and checks them against a deliberately tiny reference model: a
bounded pending list plus one boolean flag. Each main-loop step must answer
every pending command in latch order and push exactly once if any tick
arrived since the last step; interrupt handlers must never touch anything
but the flags.
"""
import itertools

from chargesim.domain import ChargingStation, EvModel, RelayState, apply_relay, plug_ev, set_current
from chargesim.latency import LatencyModel, MixtureComponent
from chargesim.pic import (
    MeterBus,
    Opcode,
    PicState,
    SerialLine,
    main_loop_step,
    on_serial_interrupt,
    on_timer_interrupt,
    startup_init,
)
from chargesim.proto import MessageKind
from chargesim.sim import substream


def fixed_model(location, hard_max=None):
    return LatencyModel(
        components=(MixtureComponent(1.0, location, 0.0),),
        hard_max=hard_max if hard_max is not None else max(location * 2, 1e-6),
    )


def make_bus(outlets=4, local_bus=0.001, metering=0.2):
    station = ChargingStation(station_id=0, circuit_limit=80.0, outlets=outlets)
    for outlet in range(outlets):
        plug_ev(station, outlet, EvModel(), 0.0)
        set_current(station, outlet, 16.0, 0.0)
        apply_relay(station, outlet, RelayState.ON, 0.0)
    return MeterBus(station, fixed_model(local_bus), fixed_model(metering), substream(0, "bus"))


def state_fingerprint(state: PicState):
    """Everything an ISR must not touch (flags excluded on purpose)."""
    return (
        tuple(state.registered_meters),
        tuple(sorted((outlet, s.captured_at, s.amps) for outlet, s in state.cache.items())),
        state.push_period,
        state.serve_cache_mode,
        state.phase,
        state.packet_seq,
        tuple(state.diagnostics),
        state.overflows_noted,
    )


def run_interleaving(order, step_mask):
    """Run one interleaving of commands ('C') and ticks ('T'); after event i
    a main-loop step runs when step_mask has bit i, and trailing steps flush
    whatever is left. Returns (actual response seqs, expected response seqs,
    push count)."""
    bus = make_bus(local_bus=1e-6, metering=1e-6)
    state = startup_init(bus)
    line = SerialLine()
    responses = []
    expected_responses = []
    pushes = 0
    ref_pending = []
    ref_flag = False
    now = 0.0

    def take_step():
        nonlocal ref_flag, pushes, now
        now += 1.0
        msgs = main_loop_step(state, bus, now=now)
        n_cmds = len(ref_pending)
        expected_push = 1 if ref_flag else 0
        assert len(msgs) == n_cmds + expected_push, (order, step_mask, msgs)
        cmd_msgs, push_msgs = msgs[:n_cmds], msgs[n_cmds:]
        responses.extend(m.seq for m in cmd_msgs)
        expected_responses.extend(ref_pending)
        ref_pending.clear()
        assert all(m.kind is MessageKind.AGGREGATE_PACKET for m in push_msgs)
        pushes += len(push_msgs)
        ref_flag = False

    for i, token in enumerate(order):
        if token == "C":
            cmd = line.command(Opcode.POWER_INFO_REQUEST)
            before = state_fingerprint(state)
            on_serial_interrupt(state, cmd)
            assert state_fingerprint(state) == before, "serial ISR leaked outside flags"
            if len(ref_pending) < 4:
                ref_pending.append(cmd.seq)
        else:
            before = state_fingerprint(state)
            on_timer_interrupt(state)
            assert state_fingerprint(state) == before, "timer ISR leaked outside flags"
            ref_flag = True
        if step_mask & (1 << i):
            take_step()
    while ref_pending or ref_flag:
        take_step()
    assert main_loop_step(state, bus, now=now + 1.0) == []
    return responses, expected_responses, pushes


def all_merges(k, m):
    """Every distinct arrangement of k commands and m ticks."""
    for positions in itertools.combinations(range(k + m), k):
        order = ["T"] * (k + m)
        for p in positions:
            order[p] = "C"
        yield "".join(order)
