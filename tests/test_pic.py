"""Collector firmware tests: startup, ISR purity, flag semantics, the main
loop's priority order, and command/tick interleavings against a reference
model."""
import random

import pytest

from chargesim.domain import RelayState
from chargesim.pic import (
    Command,
    Opcode,
    Phase,
    PicState,
    SerialLine,
    collect_all,
    main_loop_step,
    on_serial_interrupt,
    on_timer_interrupt,
    startup_init,
)
from chargesim.proto import MessageKind

from fw_harness import all_merges, make_bus, run_interleaving, state_fingerprint


class TestStartup:
    def test_four_meter_bus_registers_four_and_idles(self):
        bus = make_bus(4)
        state = startup_init(bus)
        assert len(state.registered_meters) == 4
        assert state.registered_meters == [0, 1, 2, 3]
        assert state.phase is Phase.IDLE

    def test_zero_meter_bus_is_degenerate_but_idle(self):
        state = startup_init(make_bus(0))
        assert state.registered_meters == []
        assert state.phase is Phase.IDLE


class TestInterruptHandlers:
    def test_serial_isr_touches_only_flags(self):
        state = startup_init(make_bus())
        line = SerialLine()
        before = state_fingerprint(state)
        on_serial_interrupt(state, line.command(Opcode.POWER_INFO_REQUEST))
        assert state_fingerprint(state) == before
        assert len(state.flags.pending) == 1

    def test_timer_isr_touches_only_flags(self):
        state = startup_init(make_bus())
        before = state_fingerprint(state)
        on_timer_interrupt(state)
        assert state_fingerprint(state) == before
        assert state.flags.push_data is True

    def test_two_ticks_coalesce_into_one_push(self):
        state = startup_init(make_bus())
        bus = make_bus()
        on_timer_interrupt(state)
        on_timer_interrupt(state)
        msgs = main_loop_step(state, bus, now=0.0)
        assert len(msgs) == 1
        assert msgs[0].kind is MessageKind.AGGREGATE_PACKET
        assert main_loop_step(state, bus, now=1.0) == []

    def test_unknown_opcode_latches_reject_and_errors_later(self):
        # garbage on the line, and a command forging the reject pseudo-opcode
        for seq, opcode in ((1, 0x7F), (2, Opcode.REJECT)):
            state = startup_init(make_bus())
            on_serial_interrupt(state, Command(opcode=opcode, seq=seq))
            msgs = main_loop_step(state, make_bus(), now=0.0)
            assert len(msgs) == 1, opcode
            assert msgs[0].kind is MessageKind.ERROR
            assert msgs[0].seq == seq

    def test_queue_overflow_counts_and_drops(self):
        state = startup_init(make_bus())
        line = SerialLine()
        for _ in range(6):
            on_serial_interrupt(state, line.command(Opcode.POWER_INFO_REQUEST))
        assert len(state.flags.pending) == 4
        assert state.flags.overflows == 2
        msgs = main_loop_step(state, make_bus(), now=0.0)
        assert len(msgs) == 4  # the four queued commands are served
        assert state.flags.overflows == 2


class TestMainLoop:
    def test_quiescent_step_does_nothing(self):
        state = startup_init(make_bus())
        bus = make_bus()
        reads = []
        read = bus.read
        bus.read = lambda outlet, at: reads.append(outlet) or read(outlet, at)
        assert main_loop_step(state, bus, now=0.0) == []
        assert reads == []

    def test_push_packet_carries_all_meters(self):
        state = startup_init(make_bus())
        on_timer_interrupt(state)
        msgs = main_loop_step(state, make_bus(), now=0.0)
        snaps = msgs[0].payload
        assert len(snaps) == 4
        assert {s.outlet for s in snaps} == {0, 1, 2, 3}
        assert all(s.relay is RelayState.ON for s in snaps)

    def test_command_response_precedes_push(self):
        state = startup_init(make_bus())
        line = SerialLine()
        on_serial_interrupt(state, line.command(Opcode.POWER_INFO_REQUEST))
        on_timer_interrupt(state)
        msgs = main_loop_step(state, make_bus(), now=0.0)
        assert len(msgs) == 2
        assert msgs[0].seq == 1                      # the command's reply first
        assert msgs[1].kind is MessageKind.AGGREGATE_PACKET

    def test_step_before_startup_rejected(self):
        state = PicState(registered_meters=[])
        with pytest.raises(RuntimeError):
            main_loop_step(state, make_bus(), now=0.0)

    def test_uplink_receives_only_push_packets(self):
        state = startup_init(make_bus())
        line = SerialLine()
        sent = []
        on_serial_interrupt(state, line.command(Opcode.POWER_INFO_REQUEST))
        on_timer_interrupt(state)
        main_loop_step(state, make_bus(), uplink=sent.append, now=0.0)
        assert len(sent) == 1
        assert sent[0].kind is MessageKind.AGGREGATE_PACKET
        assert sent[0].seq == state.packet_seq


class TestCollectAll:
    def test_four_meters_fixed_costs(self):
        # oracle: 4 * (0.001 + 0.2) = 0.804
        state = startup_init(make_bus())
        duration = collect_all(state, make_bus(), now=10.0)
        assert duration == pytest.approx(0.804, abs=1e-12)
        assert len(state.cache) == 4

    def test_zero_meters_is_instant(self):
        state = startup_init(make_bus(0))
        assert collect_all(state, make_bus(0), now=0.0) == 0.0

    def test_collection_slower_than_period_records_diagnostic(self):
        # a collection of about 0.804 s counts one overrun against a period
        # it reaches or passes, and none against a longer one
        faster = startup_init(make_bus(), push_period=30.0)
        duration = collect_all(faster, make_bus(), now=0.0)
        assert faster.overruns == 0
        for period in (duration, 0.5):
            state = startup_init(make_bus(), push_period=period)
            collect_all(state, make_bus(), now=0.0)
            assert state.overruns == 1, period

    def test_cache_timestamps_within_collection_window(self):
        state = startup_init(make_bus())
        now = 50.0
        duration = collect_all(state, make_bus(), now=now)
        stamps = [s.captured_at for s in state.cache.values()]
        assert max(stamps) - min(stamps) <= duration
        assert all(now <= t <= now + duration for t in stamps)


class TestInterleavings:
    def test_exhaustive_small_interleavings(self):
        # commands and ticks up to 3 each here; the acceptance suite pushes
        # this to 4x4 with full step-placement enumeration
        for k in range(0, 4):
            for m in range(0, 4):
                for order in all_merges(k, m):
                    for mask in range(1 << (k + m)):
                        responses, expected, _ = run_interleaving(order, mask)
                        assert responses == expected, (order, mask)

    def test_randomized_interleavings(self):
        rng = random.Random(99)
        for _ in range(300):
            k = rng.randint(0, 4)
            m = rng.randint(0, 4)
            merges = list(all_merges(k, m))
            order = rng.choice(merges) if merges else ""
            mask = rng.randrange(1 << max(1, k + m))
            responses, expected, _ = run_interleaving(order, mask)
            assert responses == expected
