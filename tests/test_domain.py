"""Domain tests: settle times, relays, snapshots, circuit safety."""
import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from chargesim.domain import (
    ChargingStation,
    CircuitLimitError,
    EvModel,
    MeterId,
    RelayState,
    allocated_current_total,
    apply_relay,
    ev_settle_time,
    meter_snapshot,
    plug_ev,
    set_current,
    unplug_ev,
)


def make_station(outlets=4, limit=40.0):
    return ChargingStation(station_id=0, circuit_limit=limit, outlets=outlets)


class TestSettleTime:
    def test_zero_step_is_zero(self):
        assert ev_settle_time(EvModel(), 16.0, 16.0) == 0.0

    def test_max_step_hits_cap_with_defaults(self):
        # 1.0 + 0.15625 * 32 = 6.0, exactly the cap
        assert ev_settle_time(EvModel(), 0.0, 32.0) == 6.0

    def test_linear_model_hand_value(self):
        # oracle: 1 + 0.15625 * |16 - 8| = 2.25
        ev = EvModel(settle_t0=1.0, settle_rate=0.15625, settle_cap=6.0)
        assert ev_settle_time(ev, 8.0, 16.0) == pytest.approx(2.25, abs=1e-12)

    def test_out_of_range_current_raises(self):
        with pytest.raises(ValueError):
            ev_settle_time(EvModel(max_current=32.0), 0.0, 33.0)

    @given(
        a=st.floats(min_value=0.0, max_value=32.0),
        b=st.floats(min_value=0.0, max_value=32.0),
    )
    def test_symmetry_and_cap(self, a, b):
        ev = EvModel()
        t_ab = ev_settle_time(ev, a, b)
        assert t_ab == ev_settle_time(ev, b, a)
        assert 0.0 <= t_ab <= ev.settle_cap


class TestRelayAndSnapshots:
    def test_off_forces_zero_draw(self):
        st_ = make_station()
        plug_ev(st_, 0, EvModel(), 0.0)
        set_current(st_, 0, 16.0, 0.0)
        apply_relay(st_, 0, RelayState.ON, 0.0)
        snap = apply_relay(st_, 0, RelayState.OFF, 100.0)
        assert snap.amps == 0.0 and snap.watts == 0.0

    def test_on_with_ev_reaches_allocation_after_settle(self):
        st_ = make_station()
        plug_ev(st_, 0, EvModel(), 0.0)
        set_current(st_, 0, 16.0, 0.0)
        apply_relay(st_, 0, RelayState.ON, 0.0)
        settle = ev_settle_time(EvModel(), 0.0, 16.0)
        snap = meter_snapshot(st_, 0, settle + 1.0)
        assert snap.amps == pytest.approx(16.0)
        assert snap.watts == pytest.approx(3328.0)  # 16 A * 208 V

    def test_mid_settle_current_is_between_endpoints(self):
        st_ = make_station()
        plug_ev(st_, 0, EvModel(), 0.0)
        set_current(st_, 0, 16.0, 0.0)
        apply_relay(st_, 0, RelayState.ON, 0.0)
        settle = ev_settle_time(EvModel(), 0.0, 16.0)
        amps = meter_snapshot(st_, 0, settle / 2).amps
        assert 0.0 < amps < 16.0

    def test_off_off_idempotent_except_timestamp(self):
        st_ = make_station()
        plug_ev(st_, 0, EvModel(), 0.0)
        s1 = apply_relay(st_, 0, RelayState.OFF, 1.0)
        s2 = apply_relay(st_, 0, RelayState.OFF, 2.0)
        assert (s1.amps, s1.watts, s1.energy_kwh, s1.relay) == (s2.amps, s2.watts, s2.energy_kwh, s2.relay)
        assert s2.captured_at > s1.captured_at

    def test_invalid_outlet_raises_index_error(self):
        st_ = make_station()
        with pytest.raises(IndexError):
            apply_relay(st_, 4, RelayState.ON, 0.0)
        with pytest.raises(IndexError):
            apply_relay(st_, -1, RelayState.ON, 0.0)

    def test_snapshot_of_an_outlet_out_of_range_raises_index_error(self):
        # meter_ids[-1] exists, so only the bounds check keeps outlet -1 out
        st_ = make_station()
        for outlet in (-1, len(st_.meters)):
            with pytest.raises(IndexError):
                meter_snapshot(st_, outlet, 0.0)
        assert meter_snapshot(st_, 3, 0.0).meter == MeterId(0, 3)

    def test_watts_tracks_volts_times_amps_when_on(self):
        st_ = make_station()
        plug_ev(st_, 1, EvModel(), 0.0)
        set_current(st_, 1, 10.0, 0.0)
        apply_relay(st_, 1, RelayState.ON, 0.0)
        for t in (0.5, 2.0, 7.0, 30.0):
            snap = meter_snapshot(st_, 1, t)
            if snap.relay is RelayState.ON:
                assert snap.watts == pytest.approx(snap.volts * snap.amps, rel=0.01)

    def test_snapshot_timestamp_is_the_read_time(self):
        st_ = make_station()
        assert meter_snapshot(st_, 0, 123.0).captured_at == 123.0


class TestMeterIdentity:
    def test_meter_ids_sort_by_station_then_outlet(self):
        ids = [MeterId(1, 0), MeterId(0, 3), MeterId(0, 1)]
        assert sorted(ids) == [MeterId(0, 1), MeterId(0, 3), MeterId(1, 0)]

    def test_equal_ids_hash_equal_and_collapse_in_a_set(self):
        assert hash(MeterId(0, 1)) == hash(MeterId(0, 1)) == hash((0, 1))
        assert {MeterId(0, 1), MeterId(0, 1), MeterId(0, 2)} == {MeterId(0, 1), MeterId(0, 2)}

    def test_meter_id_is_immutable(self):
        mid = MeterId(0, 1)
        with pytest.raises(AttributeError):
            mid.outlet = 2
        assert mid.outlet == 1

    def test_meter_id_repr(self):
        assert repr(MeterId(station=0, outlet=1)) == "MeterId(station=0, outlet=1)"

    def test_replace_marks_a_snapshot_faulty(self):
        snap = meter_snapshot(make_station(), 1, 5.0)
        faulty = dataclasses.replace(snap, fault="bus-timeout")
        assert faulty.fault == "bus-timeout" and snap.fault is None
        assert dataclasses.replace(faulty, fault=None) == snap

    def test_snapshot_rejects_a_misspelt_field(self):
        snap = meter_snapshot(make_station(), 0, 0.0)
        with pytest.raises(AttributeError):
            snap.captured = 1.0


class TestAllocatedTotal:
    def test_all_off_is_zero(self):
        assert allocated_current_total(make_station()) == 0.0

    def test_two_at_sixteen_sum_to_thirty_two(self):
        st_ = make_station()
        for outlet in (0, 1):
            plug_ev(st_, outlet, EvModel(), 0.0)
            set_current(st_, outlet, 16.0, 0.0)
            apply_relay(st_, outlet, RelayState.ON, 0.0)
        assert allocated_current_total(st_) == 32.0

    def test_randomized_matches_brute_force_sum(self):
        rng = random.Random(11)
        for _ in range(200):
            st_ = make_station(outlets=6, limit=1000.0)
            for outlet in range(6):
                plug_ev(st_, outlet, EvModel(), 0.0)
                set_current(st_, outlet, rng.uniform(0, 30), 0.0)
                if rng.random() < 0.5:
                    apply_relay(st_, outlet, RelayState.ON, 0.0)
            # oracle: explicit per-outlet walk
            expected = 0.0
            for ch in st_.meters:
                if ch.relay is RelayState.ON:
                    expected += ch.allocated_amps
            assert allocated_current_total(st_) == pytest.approx(expected, abs=1e-12)


class TestCircuitSafety:
    def test_set_current_over_limit_raises(self):
        st_ = make_station(limit=40.0)
        for outlet in (0, 1):
            plug_ev(st_, outlet, EvModel(), 0.0)
            set_current(st_, outlet, 20.0, 0.0)
            apply_relay(st_, outlet, RelayState.ON, 0.0)
        with pytest.raises(CircuitLimitError):
            set_current(st_, 1, 21.0, 1.0)

    def test_relay_on_over_limit_raises(self):
        st_ = make_station(limit=30.0)
        for outlet in (0, 1):
            plug_ev(st_, outlet, EvModel(), 0.0)
        set_current(st_, 0, 20.0, 0.0)
        apply_relay(st_, 0, RelayState.ON, 0.0)
        set_current(st_, 1, 16.0, 0.0)
        with pytest.raises(CircuitLimitError):
            apply_relay(st_, 1, RelayState.ON, 0.0)

    def test_total_never_exceeds_limit_under_random_load(self):
        rng = random.Random(23)
        st_ = make_station(outlets=4, limit=40.0)
        for outlet in range(4):
            plug_ev(st_, outlet, EvModel(), 0.0)
        t = 0.0
        for _ in range(500):
            t += rng.random()
            outlet = rng.randrange(4)
            action = rng.random()
            try:
                if action < 0.4:
                    set_current(st_, outlet, rng.uniform(0, 40), t)
                elif action < 0.7:
                    apply_relay(st_, outlet, RelayState.ON, t)
                else:
                    apply_relay(st_, outlet, RelayState.OFF, t)
            except CircuitLimitError:
                pass
            assert allocated_current_total(st_) <= st_.circuit_limit + 1e-9


class TestEnergyMonotonicity:
    def test_energy_never_decreases_across_random_sequences(self):
        rng = random.Random(5)
        st_ = make_station()
        plug_ev(st_, 2, EvModel(), 0.0)
        last = 0.0
        t = 0.0
        for _ in range(300):
            t += rng.random() * 10
            op = rng.random()
            if op < 0.3:
                apply_relay(st_, 2, RelayState.ON, t)
            elif op < 0.5:
                apply_relay(st_, 2, RelayState.OFF, t)
            elif op < 0.7:
                try:
                    set_current(st_, 2, rng.uniform(0, 32), t)
                except CircuitLimitError:
                    pass
            snap = meter_snapshot(st_, 2, t)
            assert snap.energy_kwh >= last - 1e-15
            last = snap.energy_kwh

    def test_plug_unplug_cycle_keeps_energy(self):
        st_ = make_station()
        plug_ev(st_, 0, EvModel(), 0.0)
        set_current(st_, 0, 16.0, 0.0)
        apply_relay(st_, 0, RelayState.ON, 0.0)
        e1 = meter_snapshot(st_, 0, 3600.0).energy_kwh
        assert e1 > 0
        unplug_ev(st_, 0, 3600.0)
        assert meter_snapshot(st_, 0, 7200.0).energy_kwh == pytest.approx(e1)
