"""Controller tests: waiting-time arithmetic, duty mapping, change/verify
round trips, mode selection."""
import copy

import pytest
from hypothesis import given, strategies as st

from chargesim.control import (
    DutyOutcome,
    DutyRangeError,
    change_duty_cycle,
    compute_t_waiting,
    current_to_duty,
    duty_to_current,
)
from chargesim.domain import (
    AlgorithmMode,
    ChargingStation,
    CircuitLimitError,
    EvModel,
    NoEvError,
    RelayState,
    apply_relay,
    plug_ev,
)
from chargesim.latency import LatencyModel, LinkModelSet, MixtureComponent, TimingBudget
from chargesim.sim import substream


def fixed(location, hard_max=None):
    return LatencyModel(
        components=(MixtureComponent(1.0, location, 0.0),),
        hard_max=hard_max if hard_max is not None else max(location * 2, 1e-6),
    )


def duty_links(threeg=5.0, metering=0.5):
    return LinkModelSet(
        ethernet=fixed(1e-6),
        wifi=fixed(0.02),
        threeg=fixed(threeg, hard_max=threeg),
        local_bus=fixed(1e-6),
        metering=fixed(metering, hard_max=metering),
    )


BUDGET_5S = TimingBudget(t_uplink=5.0, t_metering=0.5)


def station_with_ev(ev=None, settled_at=0.0, amps=0.0):
    station = ChargingStation(station_id=0, circuit_limit=40.0)
    plug_ev(station, 0, ev or EvModel(), settled_at)
    apply_relay(station, 0, RelayState.ON, settled_at)
    ch = station.channel(0)
    ch.allocated_amps = amps
    ch.pin(amps, settled_at)
    return station


class TestWaitingTime:
    def test_worst_case_settle_gives_three_and_a_half(self):
        assert compute_t_waiting(6.0, BUDGET_5S) == pytest.approx(3.5, abs=1e-12)

    def test_zero_settle_clamps_to_zero(self):
        assert compute_t_waiting(0.0, BUDGET_5S) == 0.0

    def test_direct_substitution(self):
        assert compute_t_waiting(4.0, TimingBudget(t_uplink=2.0)) == pytest.approx(3.0)

    def test_negative_settle_rejected(self):
        with pytest.raises(ValueError):
            compute_t_waiting(-1.0, BUDGET_5S)

    @given(
        t_ev=st.floats(min_value=0.0, max_value=60.0),
        t_uplink=st.floats(min_value=0.0, max_value=60.0),
    )
    def test_clamped_and_above_raw_bound(self, t_ev, t_uplink):
        budget = TimingBudget(t_uplink=t_uplink)
        wait = compute_t_waiting(t_ev, budget)
        assert wait >= 0.0
        assert wait >= t_ev - 0.5 * t_uplink - 1e-12

    def test_adaptive_never_exceeds_fixed_worst_case(self):
        # default calibration: settle <= 6 s and cellular round trip <= 5 s
        ev = EvModel()
        from chargesim.domain import ev_settle_time
        for delta in range(0, 33):
            t_ev = ev_settle_time(ev, 0.0, float(delta))
            assert compute_t_waiting(t_ev, BUDGET_5S) <= 3.5 + 1e-12


class TestDutyMapping:
    def test_fifty_percent_is_thirty_amps(self):
        assert duty_to_current(50.0) == pytest.approx(30.0)

    def test_roundtrip_identity_on_valid_range(self):
        for amps in range(6, 52):
            assert duty_to_current(current_to_duty(float(amps))) == pytest.approx(float(amps))

    def test_out_of_range_duty_rejected(self):
        with pytest.raises(DutyRangeError):
            duty_to_current(5.0)
        with pytest.raises(DutyRangeError):
            duty_to_current(85.1)

    def test_boundaries_accepted(self):
        assert duty_to_current(10.0) == pytest.approx(6.0)
        assert duty_to_current(85.0) == pytest.approx(51.0)


class TestChangeDutyCycle:
    def test_step_up_confirms_with_adaptive_wait_below_fixed(self):
        station = station_with_ev(amps=8.0)
        change = change_duty_cycle(station, 0, current_to_duty(16.0),
                                   duty_links(), substream(1, "d"), BUDGET_5S)
        assert change.outcome is DutyOutcome.CONFIRMED
        assert change.t_waiting < 3.5
        # settle estimate 1 + 0.15625 * 8 = 2.25 s, uplink credit 2.5 s
        assert change.t_waiting == 0.0
        assert len(change.reads) == 1

    def test_zero_step_confirms_immediately(self):
        station = station_with_ev(amps=30.0)
        change = change_duty_cycle(station, 0, current_to_duty(30.0),
                                   duty_links(), substream(1, "d"), BUDGET_5S)
        assert change.outcome is DutyOutcome.CONFIRMED
        assert change.t_waiting == 0.0
        assert len(change.reads) == 1

    def test_adversarial_slow_settle_retries_then_confirms(self):
        # the budget credits a 2.5 s uplink that takes 0.5 s, so the first
        # read comes before the EV has settled
        station = station_with_ev(amps=0.0)
        change = change_duty_cycle(station, 0, current_to_duty(32.0),
                                   duty_links(threeg=1.0), substream(1, "d"), BUDGET_5S)
        # the first read unsettled, then one retry
        assert change.reads == [(5.5, pytest.approx(80 / 3)), (13.0, 32.0)]
        assert change.outcome is DutyOutcome.CONFIRMED

    def test_ack_timeout_fails(self):
        station = station_with_ev(amps=8.0)
        change = change_duty_cycle(station, 0, current_to_duty(16.0),
                                   duty_links(), substream(1, "d"), BUDGET_5S,
                                   timeout_s=1.0)
        assert change.outcome is DutyOutcome.FAILED
        assert change.reads == []

    def test_no_ev_raises(self):
        station = ChargingStation(station_id=0, circuit_limit=40.0)
        with pytest.raises(NoEvError):
            change_duty_cycle(station, 0, 50.0,
                              duty_links(), substream(1, "d"), BUDGET_5S)

    def test_refused_change_on_a_cut_outlet_leaves_it_untouched(self):
        # outlet 0 draws 30 A of the 40 A circuit; a 24 A change on outlet 1,
        # whose relay is off, would turn it on at 54 A
        station = station_with_ev(amps=30.0)
        plug_ev(station, 1, EvModel(), 0.0)
        before = copy.copy(station.channel(1))
        with pytest.raises(CircuitLimitError, match="54.000 A would exceed"):
            change_duty_cycle(station, 1, current_to_duty(24.0),
                              duty_links(), substream(1, "d"), BUDGET_5S)
        assert station.channel(1) == before
        assert station.channel(1).allocated_amps == 0.0
        assert station.channel(1).relay is RelayState.OFF

    def test_confirmation_soundness(self):
        # a confirmed outcome means the measured current is within tolerance
        for target in (6.0, 16.0, 24.0, 32.0):
            station = station_with_ev(amps=0.0)
            duty = current_to_duty(target)
            change = change_duty_cycle(station, 0, duty, duty_links(), substream(3, "d"),
                                       BUDGET_5S)
            if change.outcome is DutyOutcome.CONFIRMED:
                assert abs(change.reads[-1][1] - duty_to_current(duty)) <= 1.0


class TestStoreAndModes:
    def test_mode_change_mid_cycle_takes_effect_next_boundary(self):
        # three EVs charging under a server-pushed allocation; switching to
        # the local algorithm mid-slot must not disturb the running slot,
        # because allocations are only evaluated at slot boundaries
        from chargesim.domain import set_current
        from chargesim.sched import RoundRobinConfig, round_robin_step

        rr = RoundRobinConfig(slot_length_s=900.0, max_concurrent=1, per_active_current=16.0)
        station = ChargingStation(station_id=0, circuit_limit=40.0)
        plugged = {0, 1, 2}
        for outlet in plugged:
            plug_ev(station, outlet, EvModel(), 0.0)

        def apply(alloc, now):
            for outlet, amps in alloc.items():
                if amps == 0.0:
                    apply_relay(station, outlet, RelayState.OFF, now)
                    set_current(station, outlet, 0.0, now)
            for outlet, amps in alloc.items():
                if amps > 0.0:
                    set_current(station, outlet, amps, now)
                    apply_relay(station, outlet, RelayState.ON, now)

        apply(round_robin_step(rr, plugged, 0.0), 0.0)
        in_force = {o: station.meters[o].allocated_amps for o in plugged}
        station.local_algorithm = AlgorithmMode.ROUND_ROBIN
        assert {o: station.meters[o].allocated_amps for o in plugged} == in_force
        apply(round_robin_step(rr, plugged, 900.0), 900.0)
        after = {o: station.meters[o].allocated_amps for o in plugged}
        assert after != in_force  # the rotation advanced at the boundary

    def test_staleness_at_tracks_age(self):
        from chargesim.proto import ServerStore, make_aggregate_packet, push_consume
        from chargesim.domain import MeterSnapshot
        store = ServerStore()
        snap = MeterSnapshot(outlet=0, volts=208.0, amps=0.0,
                             relay=RelayState.OFF, captured_at=10.0)
        push_consume(store, make_aggregate_packet(0, [snap], seq=1, sent_at=10.0), now=12.0)
        assert store.staleness_at(0, 20.0)[0] == pytest.approx(10.0)
        assert store.staleness_at(9, 20.0) == {}
