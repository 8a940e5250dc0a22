"""Protocol tests: wall-time arithmetic, request accounting, push consumption."""
import pytest

from chargesim.domain import ChargingStation, EvModel, MeterSnapshot, RelayState, apply_relay, plug_ev, set_current
from chargesim.latency import LatencyModel, LinkModelSet, MixtureComponent, TimingBudget
from chargesim.pic import MeterBus, PicEndpoint, startup_init
from chargesim.proto import (
    Message,
    MessageKind,
    ServerStore,
    legacy_pull,
    legacy_retrieval_time,
    make_aggregate_packet,
    pic_pull,
    push_consume,
    push_cycle_time,
    t_save,
)
from chargesim.sim import substream


def fixed(location, hard_max=None):
    return LatencyModel(
        components=(MixtureComponent(1.0, location, 0.0),),
        hard_max=hard_max if hard_max is not None else max(location * 2, 1e-6),
    )


def fixed_links(threeg=4.5, metering=0.5, local_bus=1e-6, ethernet=1e-6):
    return LinkModelSet(
        ethernet=fixed(ethernet),
        wifi=fixed(0.02),
        threeg=fixed(threeg, hard_max=threeg or 1e-6),
        local_bus=fixed(local_bus),
        metering=fixed(metering, hard_max=metering or 1e-6),
    )


def charging_station(outlets=4):
    station = ChargingStation(station_id=0, circuit_limit=64.0, outlets=outlets)
    for outlet in range(outlets):
        plug_ev(station, outlet, EvModel(), 0.0)
        set_current(station, outlet, 16.0, 0.0)
        apply_relay(station, outlet, RelayState.ON, 0.0)
    return station


def cache_serving_endpoint(links, outlets=4):
    station = charging_station(outlets)
    bus = MeterBus(station, links.local_bus, links.metering, substream(0, "bus"))
    state = startup_init(bus, serve_cache=True)
    from chargesim.pic import collect_all
    collect_all(state, bus, 0.0)
    return PicEndpoint(state=state, bus=bus)


def uplink_draw(endpoint, links, rng, at=0.0):
    """An aggregated pull's one round trip, drawn from the endpoint station's
    uplink model at ``at``."""
    return links.for_link(endpoint.station.link).sample(rng, at)


def power_responses(result):
    """A pull's power-reading responses, in emission order."""
    return [m for m in result.messages if m.kind is MessageKind.METER_POWER_RESP]


class TestLegacyPull:
    def test_worst_case_four_readings_take_twenty_seconds(self):
        links = fixed_links(threeg=4.5, metering=0.5)
        result = legacy_pull(charging_station(), links, substream(1, "t"))
        assert result.wall_time == pytest.approx(20.0, abs=1e-12)
        assert result.request_count == 4

    def test_zero_latency_gives_zero_wall_and_four_snapshots(self):
        links = fixed_links(threeg=1e-9, metering=1e-9, local_bus=1e-9)
        result = legacy_pull(charging_station(), links, substream(1, "t"))
        assert result.wall_time == pytest.approx(0.0, abs=1e-6)
        responses = power_responses(result)
        assert [m.outlet for m in responses] == [0, 1, 2, 3]
        for m in responses:
            (snap,) = m.payload
            assert isinstance(snap, MeterSnapshot) and snap.outlet == m.outlet

    def test_with_status_fixed_rtt_costs_eight_round_trips(self):
        # every request pinned to the same 2.0 s round trip: metering folded
        # to zero and the status read given the same register cost
        links = fixed_links(threeg=2.0, metering=1e-9)
        result = legacy_pull(charging_station(), links, substream(1, "t"),
                             include_status=True, t_status_read=1e-9)
        # oracle: enumerate the eight requests and sum their costs
        expected = sum(2.0 + 1e-9 for _ in range(8))
        assert result.wall_time == pytest.approx(expected, rel=1e-9)
        assert result.request_count == 8

    def test_timeout_yields_partial_result_with_markers(self):
        links = fixed_links(threeg=4.5, metering=0.5)
        result = legacy_pull(charging_station(), links, substream(1, "t"), timeout_s=1.0)
        assert result.request_count == 4
        assert len(result.errors) == 4
        assert power_responses(result) == []
        assert result.stale_max is None
        assert result.wall_time == pytest.approx(4.0)  # four timeouts charged

    def test_every_request_has_exactly_one_outcome(self):
        # mixed fates: some requests inside the timeout, some beyond
        links = fixed_links(threeg=4.5, metering=0.5)
        for timeout in (0.1, 5.0, 30.0):
            result = legacy_pull(charging_station(), links, substream(2, "t"),
                                 include_status=True, timeout_s=timeout)
            # the wire trail: one request message and one terminal (response
            # or error) message per issued request, and one error message per
            # entry of errors
            requests = [m for m in result.messages
                        if m.kind in (MessageKind.METER_POWER_REQ, MessageKind.METER_STATUS_REQ)]
            terminals = [m for m in result.messages
                         if m.kind in (MessageKind.METER_POWER_RESP,
                                       MessageKind.METER_STATUS_RESP, MessageKind.ERROR)]
            assert len(requests) == result.request_count
            assert len(terminals) == result.request_count
            assert sorted(m.seq for m in terminals) == list(range(1, result.request_count + 1))
            errors = [m for m in result.messages if m.kind is MessageKind.ERROR]
            assert [m.outlet for m in errors] == [outlet for outlet, _ in result.errors]
            for m in result.messages:
                if m.received_at:
                    assert m.received_at >= m.sent_at

    def test_staleness_reflects_return_path(self):
        links = fixed_links(threeg=4.0, metering=0.5)
        at = 7.0
        result = legacy_pull(charging_station(), links, substream(1, "t"), at=at)
        end = at + result.wall_time
        ages = [end - m.payload[0].captured_at for m in power_responses(result)]
        # last meter's reading is freshest: it only ages by its uplink leg
        assert power_responses(result)[-1].outlet == 3
        assert ages[-1] == pytest.approx(2.0)  # half of 4.0 s link
        # the first reading is the oldest, and stale_max is its age
        assert result.stale_max == max(ages) == ages[0]


# legacy_pull on the library's default (stochastic) links at a 3 s timeout,
# which the cellular link sometimes exceeds: (wall_time, errors as
# (outlet, marker), sha256 prefix of the wire trail) per (include_status,
# seed). The trail is the message log: each message's fields, with each
# snapshot's outlet, amps, relay and captured_at. The repr and the trail pin
# every float to the last bit, so a reordered draw or float operation in the
# request loop shows here.
PINNED_LEGACY_PULLS = {
    (False, 0): ('4.687343021876445', [], '50ae6398210eb643'),
    (False, 1): ('8.828514338658806', [(1, 'timeout')], '569ffadabb2bf211'),
    (False, 2): ('6.3456461629966725', [], 'db2fa8254711b328'),
    (False, 3): ('8.823736655374887', [], 'b85bf57b1ad4be93'),
    (False, 4): ('4.56980157632097', [], '3686909cb567e1c4'),
    (False, 5): ('9.561669453174545', [(0, 'timeout'), (3, 'timeout')], 'f898e76ca7eae3fd'),
    (True, 0): ('11.125973129466514', [], '834d9919e208fa28'),
    (True, 1): ('15.216821896975034', [(0, 'status-timeout'), (1, 'status-timeout')],
                '81a433678e2fffcf'),
    (True, 2): ('17.411736198262588', [(2, 'status-timeout')], '2cc9c620e3a57d29'),
    (True, 3): ('15.58804986710311', [], '3bcbd556f9b7e570'),
    (True, 4): ('10.640311924562411', [], '9b207189c3573bb9'),
    (True, 5): ('16.11415778349692', [(0, 'timeout'), (2, 'timeout')], '01bf83b38f8c783e'),
}


@pytest.mark.parametrize("include_status,seed", sorted(PINNED_LEGACY_PULLS))
def test_legacy_pull_pinned_on_default_links(include_status, seed):
    import hashlib
    import json

    from chargesim.latency import default_models

    result = legacy_pull(charging_station(), default_models(), substream(seed, "pin"),
                         include_status=include_status, at=3600.0 * seed,
                         timeout_s=3.0, t_status_read=0.25)

    def body(payload):
        if isinstance(payload, tuple):  # a power reading's snapshot
            return [[s.outlet, s.amps, s.relay.value, s.captured_at] for s in payload]
        return payload

    trail = json.dumps([[m.kind.value, m.station, m.outlet, body(m.payload), m.seq,
                         m.sent_at, m.received_at] for m in result.messages], sort_keys=True)
    actual = (
        repr(result.wall_time),
        result.errors,
        hashlib.sha256(trail.encode()).hexdigest()[:16],
    )
    assert actual == PINNED_LEGACY_PULLS[(include_status, seed)]


class TestPicPull:
    def test_worst_case_single_request_wall_time(self):
        links = fixed_links(threeg=4.5, metering=0.5)
        endpoint = cache_serving_endpoint(links)
        result = pic_pull(endpoint, links, uplink_draw(endpoint, links, substream(1, "t")))
        assert result.wall_time == pytest.approx(4.5, abs=1e-12)
        assert result.request_count == 1

    def test_speedups_against_legacy_at_same_budget(self):
        links = fixed_links(threeg=4.5, metering=0.5)
        legacy4 = legacy_pull(charging_station(), links, substream(1, "a")).wall_time
        legacy8 = legacy_pull(charging_station(), links, substream(1, "b"),
                              include_status=True).wall_time
        endpoint = cache_serving_endpoint(links)
        agg = pic_pull(endpoint, links, uplink_draw(endpoint, links, substream(1, "c"))).wall_time
        assert legacy4 / agg == pytest.approx(4.444, rel=0.01)
        assert legacy8 / agg == pytest.approx(8.444, rel=0.01)
        # both inside 5% of the coarse 4.4x / 8.4x figures
        assert abs(legacy4 / agg - 4.4) / 4.4 < 0.05
        assert abs(legacy8 / agg - 8.4) / 8.4 < 0.05

    def test_zero_latency_uplink_gives_zero_wall(self):
        links = fixed_links(threeg=1e-9, metering=0.5)
        endpoint = cache_serving_endpoint(links)
        result = pic_pull(endpoint, links, uplink_draw(endpoint, links, substream(1, "t")))
        assert result.wall_time == pytest.approx(0.0, abs=1e-6)

    def test_timeout_fails_whole_request(self):
        # a timed-out aggregate request is an outcome, charged like a
        # legacy per-meter timeout: no reading, one marker, the timeout spent
        links = fixed_links(threeg=4.5, metering=0.5)
        endpoint = cache_serving_endpoint(links)
        link_s = uplink_draw(endpoint, links, substream(1, "t"), at=10.0)
        result = pic_pull(endpoint, links, link_s, at=10.0, timeout_s=1.0)
        assert result.wall_time == 1.0
        assert result.request_count == 1
        assert result.errors == [(None, "timeout")]
        assert result.stale_max is None
        assert [m.kind for m in result.messages] == [MessageKind.AGGREGATE_REQ, MessageKind.ERROR]
        assert result.messages[1].received_at == 11.0

    def test_a_round_trip_of_exactly_the_timeout_is_served(self):
        links = fixed_links(threeg=4.5, metering=0.5)
        endpoint = cache_serving_endpoint(links)
        result = pic_pull(endpoint, links, 1.0, at=10.0, timeout_s=1.0)
        assert result.wall_time == 1.0
        assert result.errors == []
        assert result.stale_max is not None
        assert [m.kind for m in result.messages] == [MessageKind.AGGREGATE_REQ,
                                                     MessageKind.AGGREGATE_PACKET]
        assert result.messages[1].received_at == 11.0

    def test_stale_max_is_the_oldest_served_readings_age_on_arrival(self):
        links = fixed_links(threeg=4.5, metering=0.5)
        endpoint = cache_serving_endpoint(links)  # collected from t = 0
        link_s = uplink_draw(endpoint, links, substream(1, "t"), at=100.0)
        result = pic_pull(endpoint, links, link_s, at=100.0)
        packet = result.messages[-1]
        assert packet.kind is MessageKind.AGGREGATE_PACKET
        assert packet.received_at == 100.0 + result.wall_time
        ages = [packet.received_at - s.captured_at for s in packet.payload]
        assert result.stale_max == max(ages) == ages[0]

    def test_fresh_mode_charges_collection_to_wall(self):
        links = fixed_links(threeg=4.5, metering=0.2, local_bus=0.001)
        station = charging_station()
        bus = MeterBus(station, links.local_bus, links.metering, substream(0, "bus"))
        state = startup_init(bus, serve_cache=False)
        endpoint = PicEndpoint(state=state, bus=bus)
        result = pic_pull(endpoint, links, uplink_draw(endpoint, links, substream(1, "t")))
        assert result.wall_time == pytest.approx(4.5 + 4 * 0.201, abs=1e-9)


class TestTimingIdentities:
    def test_push_cycle_time_hand_value(self):
        # 4 * (0 + 0.5) + 0.5 * 5 = 4.5
        budget = TimingBudget(t_uplink=5.0, t_metering=0.5, t_bus=0.0)
        assert push_cycle_time(budget, 4) == pytest.approx(4.5)

    def test_push_cycle_zero_budget(self):
        assert push_cycle_time(TimingBudget(), 4) == 0.0

    def test_retrieval_minus_cycle_is_seventeen_and_a_half(self):
        budget = TimingBudget(t_uplink=5.0, t_metering=0.5, t_bus=0.0)
        saving = legacy_retrieval_time(budget, 4, 0.0) - push_cycle_time(budget, 4)
        assert saving == pytest.approx(17.5)
        # the same identity at other meter counts and cloud terms:
        # (N - 1/2) * t_uplink + N * cloud - N * t_bus
        budget = TimingBudget(t_uplink=2.0, t_metering=0.3, t_bus=0.001)
        for n in (1, 4, 6, 8):
            for cloud in (0.0, 0.15):
                saving = legacy_retrieval_time(budget, n, cloud) - push_cycle_time(budget, n)
                assert saving == pytest.approx(t_save(budget, n, cloud)), (n, cloud)

    def test_t_save_worst_case(self):
        assert t_save(TimingBudget(t_uplink=5.0, t_bus=0.0), 4, 0.0) == pytest.approx(17.5)

    def test_t_save_zero(self):
        assert t_save(TimingBudget(), 4, 0.0) == 0.0

    def test_t_save_direct_substitution(self):
        # 3.5 * 2 - 4 * 0.001 = 6.996
        assert t_save(TimingBudget(t_uplink=2.0, t_bus=0.001), 4, 0.0) == pytest.approx(6.996)
        # plus one 0.15 s cloud term per legacy round trip: 6.996 + 4 * 0.15
        assert t_save(TimingBudget(t_uplink=2.0, t_bus=0.001), 4, 0.15) == pytest.approx(7.596)

    def test_negative_meter_count_rejected(self):
        with pytest.raises(ValueError):
            push_cycle_time(TimingBudget(), -1)


def snapshot(outlet, captured_at, amps=16.0):
    return MeterSnapshot(
        outlet=outlet, amps=amps, relay=RelayState.ON,
        captured_at=captured_at,
    )


class TestPushConsume:
    def test_fresh_packet_staleness_is_transit_plus_offsets(self):
        # collection at t=100 with per-meter offsets, delivered at t=103
        snaps = [snapshot(i, 100.0 + 0.2 * (i + 1)) for i in range(4)]
        packet = make_aggregate_packet(0, snaps, seq=1, sent_at=100.8)
        store = ServerStore()
        staleness = push_consume(store, packet, now=103.0)
        # oracle: now - captured_at, meter by meter
        for i in range(4):
            assert staleness[i] == pytest.approx(103.0 - (100.0 + 0.2 * (i + 1)))

    def test_duplicate_seq_is_noop_with_diagnostic(self):
        store = ServerStore()
        packet = make_aggregate_packet(0, [snapshot(0, 1.0)], seq=5, sent_at=1.0)
        assert push_consume(store, packet, 2.0) is not None
        before = store.stations[0]
        assert push_consume(store, packet, 3.0) is None
        assert store.stations[0] is before
        assert store.discarded == 1

    def test_stale_seq_discarded(self):
        store = ServerStore()
        push_consume(store, make_aggregate_packet(0, [snapshot(0, 2.0)], seq=7, sent_at=2.0), 3.0)
        old = make_aggregate_packet(0, [snapshot(0, 1.0)], seq=6, sent_at=1.0)
        assert push_consume(store, old, 4.0) is None
        assert store.stations[0].packet_seq == 7
        assert store.discarded == 1

    def test_duplicate_meter_entries_rejected(self):
        with pytest.raises(ValueError):
            make_aggregate_packet(0, [snapshot(0, 1.0), snapshot(0, 2.0)], seq=1, sent_at=2.0)

    def test_non_packet_kind_rejected(self):
        store = ServerStore()
        msg = Message(kind=MessageKind.ERROR, station=0, payload={"reason": "x"})
        with pytest.raises(ValueError):
            push_consume(store, msg, 1.0)


class TestMessage:
    def test_received_before_sent_rejected(self):
        with pytest.raises(ValueError):
            Message(kind=MessageKind.AGGREGATE_REQ, station=0, sent_at=5.0, received_at=4.0)
