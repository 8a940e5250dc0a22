"""Domain tests: settle times, relays, snapshots, circuit safety."""
import copy
import random

import pytest
from hypothesis import given, strategies as st

from chargesim.domain import (
    ChargingStation,
    CircuitLimitError,
    EvModel,
    RelayState,
    allocated_current_total,
    apply_allocation,
    apply_relay,
    check_circuit,
    ev_settle_time,
    meter_snapshot,
    plug_ev,
    set_current,
    unplug_ev,
)
from chargesim.sched import (
    SECONDS_PER_DAY,
    ChargeWindow,
    RoundRobinConfig,
    ScheduleTimeConfig,
    round_robin_step,
    schedule_time_step,
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
        ev = EvModel(max_current=32.0)
        with pytest.raises(ValueError, match=r"^i_final=33\.0 outside \[0, 32\.0\]$"):
            ev_settle_time(ev, 0.0, 33.0)
        with pytest.raises(ValueError, match=r"^i_init=-1\.0 outside \[0, 32\.0\]$"):
            ev_settle_time(ev, -1.0, 16.0)
        # both out of range: i_init is checked first
        with pytest.raises(ValueError, match=r"^i_init=33\.0 "):
            ev_settle_time(ev, 33.0, -1.0)

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
        apply_relay(st_, 0, RelayState.OFF, 100.0)
        snap = meter_snapshot(st_, 0, 100.0)
        assert snap.amps == 0.0 and snap.relay is RelayState.OFF

    def test_on_with_ev_reaches_allocation_after_settle(self):
        st_ = make_station()
        plug_ev(st_, 0, EvModel(), 0.0)
        set_current(st_, 0, 16.0, 0.0)
        apply_relay(st_, 0, RelayState.ON, 0.0)
        settle = ev_settle_time(EvModel(), 0.0, 16.0)
        snap = meter_snapshot(st_, 0, settle + 1.0)
        assert snap.amps == pytest.approx(16.0)

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
        apply_relay(st_, 0, RelayState.OFF, 1.0)
        s1, before = meter_snapshot(st_, 0, 1.0), copy.copy(st_.channel(0))
        apply_relay(st_, 0, RelayState.OFF, 2.0)
        s2 = meter_snapshot(st_, 0, 2.0)
        assert st_.channel(0) == before
        assert (s1.amps, s1.relay) == (s2.amps, s2.relay)
        assert s2.captured_at > s1.captured_at

    def test_invalid_outlet_raises_index_error(self):
        st_ = make_station()
        with pytest.raises(IndexError):
            apply_relay(st_, 4, RelayState.ON, 0.0)
        with pytest.raises(IndexError):
            apply_relay(st_, -1, RelayState.ON, 0.0)

    def test_snapshot_of_an_outlet_out_of_range_raises_index_error(self):
        # meters[-1] exists, so only the bounds check keeps outlet -1 out
        st_ = make_station()
        for outlet in (-1, len(st_.meters)):
            with pytest.raises(IndexError):
                meter_snapshot(st_, outlet, 0.0)
        assert meter_snapshot(st_, 3, 0.0).outlet == 3

    def test_volts_is_the_station_voltage(self):
        st_ = ChargingStation(station_id=0, circuit_limit=40.0, voltage=230.0)
        plug_ev(st_, 1, EvModel(), 0.0)
        set_current(st_, 1, 10.0, 0.0)
        apply_relay(st_, 1, RelayState.ON, 0.0)
        for t in (0.5, 2.0, 7.0, 30.0):
            assert meter_snapshot(st_, 1, t).volts == 230.0

    def test_snapshot_timestamp_is_the_read_time(self):
        st_ = make_station()
        assert meter_snapshot(st_, 0, 123.0).captured_at == 123.0


class TestMeterSnapshot:
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
            # oracle: explicit per-outlet walk, left to right from the integer 0
            # (never sum(), which is compensated from Python 3.12 on)
            expected = 0
            for ch in st_.meters:
                if ch.relay is RelayState.ON:
                    expected += ch.allocated_amps
            assert allocated_current_total(st_) == expected


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

    def test_a_load_that_fills_the_limit_exactly_is_accepted(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right: within the margin
        st_ = make_station(limit=0.6)
        for outlet, amps in ((0, 0.1), (1, 0.2)):
            plug_ev(st_, outlet, EvModel(), 0.0)
            set_current(st_, outlet, amps, 0.0)
            apply_relay(st_, outlet, RelayState.ON, 0.0)
        check_circuit(st_, 2, 0.3)
        with pytest.raises(CircuitLimitError) as refused:
            check_circuit(st_, 2, 0.31)
        assert str(refused.value) == ("station 0: 0.610 A would exceed the 0.600 A "
                                      "circuit limit")

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


def _write(station, op, outlet, amps, now):
    """Apply one write; a write the circuit limit refuses is skipped."""
    try:
        if op == "set":
            set_current(station, outlet, amps, now)
        elif op == "plug":
            plug_ev(station, outlet, EvModel(), now)
        elif op == "unplug":
            unplug_ev(station, outlet, now)
        else:
            apply_relay(station, outlet, RelayState(op), now)
    except CircuitLimitError:
        pass


# a random write sequence: (seconds since the previous write, write, outlet,
# amps for "set", reads inserted after the write as (outlet, any time))
_STEPS = st.lists(st.tuples(
    st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from(["set", "on", "off", "plug", "unplug"]),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=40.0),
    st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                       st.floats(min_value=0.0, max_value=300.0)), max_size=3),
), max_size=40)


class TestPureReads:
    @given(steps=_STEPS)
    def test_reads_inserted_anywhere_change_nothing(self, steps):
        plain, read = make_station(), make_station()
        t = 0.0
        for dt, op, outlet, amps, reads in steps:
            t += dt
            _write(plain, op, outlet, amps, t)
            _write(read, op, outlet, amps, t)
            for r_outlet, at in reads:
                meter_snapshot(read, r_outlet, at)
            assert read.meters == plain.meters
        later = [t + dt for dt in (0.0, 0.5, 3.0, 60.0)]
        assert ([meter_snapshot(read, o, at) for o in range(4) for at in later]
                == [meter_snapshot(plain, o, at) for o in range(4) for at in later])

    def test_refused_write_leaves_the_station_untouched(self):
        st_ = make_station(limit=30.0)
        for outlet in (0, 1):
            plug_ev(st_, outlet, EvModel(), 0.0)
        set_current(st_, 0, 20.0, 0.0)
        apply_relay(st_, 0, RelayState.ON, 0.0)
        set_current(st_, 1, 16.0, 1.0)
        before = [copy.copy(ch) for ch in st_.meters]
        with pytest.raises(CircuitLimitError):
            apply_relay(st_, 1, RelayState.ON, 2.0)  # 20 + 16 A on a 30 A circuit
        with pytest.raises(CircuitLimitError):
            set_current(st_, 0, 31.0, 3.0)  # one outlet over the limit
        with pytest.raises(ValueError):
            set_current(st_, 0, -1.0, 4.0)
        assert st_.meters == before


def _reference_apply(station, alloc, now):
    """Slot application written out per outlet over a ``targets`` dict: the
    reference that ``apply_allocation`` must match write for write."""
    targets = {outlet: alloc.get(outlet, 0.0) for outlet in range(len(station.meters))}
    for outlet, amps in targets.items():
        ch = station.meters[outlet]
        if ch.relay is RelayState.ON and amps < ch.allocated_amps:
            if amps == 0.0:
                apply_relay(station, outlet, RelayState.OFF, now)
            set_current(station, outlet, amps, now)
    for outlet, amps in targets.items():
        if amps > 0.0:
            set_current(station, outlet, amps, now)
            if station.meters[outlet].relay is RelayState.OFF:
                apply_relay(station, outlet, RelayState.ON, now)


def _refusal(apply, station, alloc, now):
    """The ``CircuitLimitError`` message of one slot application, or None."""
    try:
        apply(station, alloc, now)
    except CircuitLimitError as exc:
        return str(exc)
    return None


class TestApplyAllocation:
    def test_matches_the_per_outlet_reference(self):
        rng = random.Random(31)
        refused = applied = 0
        for _ in range(80):
            outlets = rng.randint(1, 6)
            limit = rng.choice([0.6, 16.0, 32.0, 40.0])
            fast, ref = make_station(outlets, limit), make_station(outlets, limit)
            rr = RoundRobinConfig(slot_length_s=300.0, max_concurrent=rng.randint(1, 3),
                                  per_active_current=rng.choice([0.1, 0.2, 8.0, 16.0]))
            windows = ScheduleTimeConfig({
                outlet: (ChargeWindow(rng.uniform(0, SECONDS_PER_DAY),
                                      rng.uniform(0, SECONDS_PER_DAY),
                                      rng.choice([0.1, 0.2, 0.3, rng.uniform(0, 20)])),)
                for outlet in range(outlets)})
            evs = [EvModel(max_current=rng.choice([10.0, 32.0])) for _ in range(outlets)]
            plugged = set()
            now = 0.0
            for _ in range(40):
                # a plug change lands between two slots
                outlet = rng.randrange(outlets)
                at = now + rng.uniform(0.0, 300.0)
                if outlet in plugged and rng.random() < 0.3:
                    plugged.discard(outlet)
                    for station in (fast, ref):
                        unplug_ev(station, outlet, at)
                elif outlet not in plugged:
                    plugged.add(outlet)
                    for station in (fast, ref):
                        plug_ev(station, outlet, evs[outlet], at)
                now += 300.0
                kind = rng.random()
                if kind < 0.4:
                    alloc = round_robin_step(rr, plugged, now)
                elif kind < 0.8:
                    alloc = schedule_time_step(windows, plugged, now)
                else:  # often over the limit, so refused part way through
                    alloc = {o: rng.uniform(0.0, limit) for o in plugged}
                message = _refusal(_reference_apply, ref, alloc, now)
                assert _refusal(apply_allocation, fast, alloc, now) == message
                for got, want in zip(fast.meters, ref.meters):
                    assert (got.relay, got.allocated_amps, got.ramp_from, got.ramp_to,
                            got.ramp_start, got.ramp_end) == \
                        (want.relay, want.allocated_amps, want.ramp_from, want.ramp_to,
                         want.ramp_start, want.ramp_end)
                refused += message is not None
                applied += message is None
        assert refused > 50 and applied > 1000
