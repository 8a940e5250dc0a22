"""Wire messages and the three retrieval protocols: legacy per-meter pull,
aggregated single-request pull, and periodic push into the server store.

Wall times come from sampled link delays; the protocols themselves are pure
event generators the simulation engine drives. A retrieval's messages stay
in memory: the trace is the one record format the package writes, and
docs/wire.md documents it and what a retrieval returns.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .domain import ChargingStation, MeterSnapshot, meter_snapshot
from .latency import LinkModelSet, TimingBudget


class MessageKind(Enum):
    METER_POWER_REQ = "meter_power_req"
    METER_STATUS_REQ = "meter_status_req"
    METER_POWER_RESP = "meter_power_resp"
    METER_STATUS_RESP = "meter_status_resp"
    AGGREGATE_REQ = "aggregate_req"
    AGGREGATE_PACKET = "aggregate_packet"
    ERROR = "error"


# legacy-pull request and response kinds, keyed by "is a power reading"
_REQUEST_KIND = {True: MessageKind.METER_POWER_REQ, False: MessageKind.METER_STATUS_REQ}
_RESPONSE_KIND = {True: MessageKind.METER_POWER_RESP, False: MessageKind.METER_STATUS_RESP}


class Message:
    __slots__ = ("kind", "station", "outlet", "payload", "seq", "sent_at", "received_at")

    def __init__(self, kind: MessageKind, station: int, outlet: Optional[int] = None,
                 payload: object = None, seq: int = 0, sent_at: float = 0.0,
                 received_at: float = 0.0):
        if received_at and received_at < sent_at:
            raise ValueError("received_at precedes sent_at")
        self.kind = kind
        self.station = station
        self.outlet = outlet
        self.payload = payload
        self.seq = seq
        self.sent_at = sent_at
        self.received_at = received_at  # set on arrival


def make_aggregate_packet(station_id: int, snapshots, seq: int, sent_at: float) -> Message:
    """Aggregate packet carrying exactly one snapshot (with relay state) per
    registered meter."""
    snaps = tuple(snapshots)
    outlets = [s.outlet for s in snaps]
    if len(set(outlets)) != len(outlets):
        raise ValueError("aggregate packet has duplicate meter entries")
    return Message(
        kind=MessageKind.AGGREGATE_PACKET,
        station=station_id,
        payload=snaps,
        seq=seq,
        sent_at=sent_at,
    )


class RetrievalResult:
    """Outcome of one retrieval as seen from the server.

    Every issued request ends in exactly one terminal message in the log: a
    response, or an ``error`` message matching one entry of ``errors``.
    """

    __slots__ = ("wall_time", "request_count", "stale_max", "errors", "log")

    def __init__(self, wall_time: float, request_count: int, stale_max: Optional[float],
                 errors: list, log: list):
        self.wall_time = wall_time
        self.request_count = request_count
        self.stale_max = stale_max          # oldest reading's age at the end; None if none
        self.errors = errors                # (outlet | None, marker) per failed request
        # each wire Message's field tuple, in emission order; a caller that
        # reads no messages pays for none
        self.log = log

    @property
    def messages(self) -> list:
        """The wire ``Message``s, in emission order, built on each read."""
        return [Message(*fields) for fields in self.log]


def staleness(snapshots: dict, now: float) -> dict:
    """Age at ``now`` of each snapshot in ``snapshots`` (outlet -> snapshot or
    None), skipping outlets with no snapshot."""
    return {m: now - s.captured_at for m, s in snapshots.items() if s is not None}


def legacy_pull(station: ChargingStation, links: LinkModelSet, rng,
                include_status: bool = False, at: float = 0.0,
                timeout_s: float = 30.0, t_status_read: float = 0.0) -> RetrievalResult:
    """Per-meter pull: one full round trip per reading, issued sequentially.

    Each power reading costs cloud hops + link transit + metering; a relay
    status request is a register read, so it costs a round trip plus
    ``t_status_read`` (default 0). A request whose round trip exceeds the
    timeout yields a per-meter marker and charges the timeout to the wall
    clock; the rest of the retrieval continues.
    """
    link_model = links.for_link(station.link)
    metering = links.metering
    cloud = links.cloud
    sid = station.station_id
    errors: list = []
    log: list = []
    emit = log.append
    kinds = (True, False) if include_status else (True,)
    requests = 0
    oldest = None  # the first power reading's capture time: readings only get newer
    t = at
    for outlet in range(len(station.meters)):
        for power in kinds:
            requests += 1
            link_s = link_model.sample(rng, t)
            local_s = metering.sample(rng, t) if power else t_status_read
            rtt = cloud + link_s + local_s
            emit((_REQUEST_KIND[power], sid, outlet, None, requests, t))
            if rtt > timeout_s:
                errors.append((outlet, "timeout" if power else "status-timeout"))
                emit((MessageKind.ERROR, sid, outlet, {"reason": "timeout"}, requests,
                      t, t + timeout_s))
                t += timeout_s
                continue
            if power:
                replied_at = t + 0.5 * (cloud + link_s) + local_s
                snap = meter_snapshot(station, outlet, replied_at)
                if oldest is None:
                    oldest = snap.captured_at
                payload = (snap,)
            else:
                replied_at = t + 0.5 * (cloud + link_s)
                payload = {"relay": station.channel(outlet).relay.value}
            emit((_RESPONSE_KIND[power], sid, outlet, payload, requests,
                  replied_at, t + rtt))
            t += rtt
    wall = t - at
    return RetrievalResult(
        wall_time=wall,
        request_count=requests,
        stale_max=None if oldest is None else at + wall - oldest,
        errors=errors,
        log=log,
    )


def pic_pull(pic, links: LinkModelSet, link_s: float, at: float = 0.0,
             timeout_s: float = 30.0) -> RetrievalResult:
    """Aggregated pull: one request over the station uplink only.

    ``pic`` is a collector endpoint exposing ``station`` and
    ``serve_aggregate(now) -> (snapshots, serve_cost)``; in cache-serving
    mode the cost is zero and no metering term reaches the server's wall
    clock. ``link_s``, the request's one uplink transit, is drawn by the
    caller; its round trip adds the ``cloud`` hops. ``stale_max`` is the
    oldest served snapshot's age when the reply lands. A round trip longer
    than ``timeout_s`` fails whole: no reading, so no ``stale_max``, one
    ``(None, "timeout")`` error, and the timeout charged to the wall clock,
    as in ``legacy_pull``.
    """
    sid = pic.station.station_id
    rtt = links.cloud + link_s
    if rtt > timeout_s:
        return RetrievalResult(
            wall_time=timeout_s,
            request_count=1,
            stale_max=None,
            errors=[(None, "timeout")],
            log=[(MessageKind.AGGREGATE_REQ, sid, None, None, 1, at),
                 (MessageKind.ERROR, sid, None, {"reason": "timeout"}, 1, at, at + timeout_s)],
        )
    arrive = at + 0.5 * rtt
    snaps, serve_cost = pic.serve_aggregate(arrive)
    wall = rtt + serve_cost
    done = at + wall
    return RetrievalResult(
        wall_time=wall,
        request_count=1,
        stale_max=done - min(s.captured_at for s in snaps) if snaps else None,
        errors=[],
        log=[(MessageKind.AGGREGATE_REQ, sid, None, None, 1, at),
             (MessageKind.AGGREGATE_PACKET, sid, None, snaps, 1, arrive + serve_cost, done)],
    )


def push_cycle_time(budget: TimingBudget, meter_count: int) -> float:
    """Time for one full collect-and-push cycle: per-meter in-station hop plus
    metering, then the uplink transit."""
    if meter_count < 0:
        raise ValueError(f"meter count must be non-negative, got {meter_count}")
    return meter_count * (budget.t_bus + budget.t_metering) + 0.5 * budget.t_uplink


def legacy_retrieval_time(budget: TimingBudget, meter_count: int, cloud: float) -> float:
    """Analytic wall time of a sequential per-meter power pull: each reading
    is one round trip carrying the ``cloud`` hops, the link and metering."""
    return meter_count * (budget.t_uplink + budget.t_metering + cloud)


def t_save(budget: TimingBudget, meter_count: int, cloud: float) -> float:
    """Analytic saving of push over an N-meter sequential pull:
    ``legacy_retrieval_time - push_cycle_time`` with the metering terms
    cancelled, leaving N - 1/2 uplink round trips plus the N round trips'
    ``cloud`` hops, minus N in-station hops (3.5 round trips for the paper's
    four meters and no cloud term)."""
    return ((meter_count - 0.5) * budget.t_uplink + meter_count * cloud
            - meter_count * budget.t_bus)


class ServerStore:
    """The server's latest per-station telemetry, fed by ``push_consume``.

    Push consumption replaces a station record wholesale (one assignment),
    so a reader never sees a torn record, and it discards packets at or below
    the stored sequence, so per-station sequence numbers stay monotone;
    ``discarded`` counts the packets it discarded.
    """

    def __init__(self):
        self.stations: dict = {}           # station_id -> _StationRecord
        self.discarded = 0

    def staleness_at(self, station_id: int, now: float) -> dict:
        """Age of each stored snapshot at ``now``; empty if nothing stored."""
        record = self.stations.get(station_id)
        return {} if record is None else staleness(record.snapshots, now)


class _StationRecord(NamedTuple):
    """Latest per-station server-side state."""

    snapshots: dict
    packet_seq: int


def push_consume(store: ServerStore, packet: Message, now: float):
    """Fold a pushed aggregate packet into the server store.

    The per-station record is replaced in a single assignment (atomic from
    the store's point of view). Packets at or below the stored sequence are
    discarded and counted in ``store.discarded``; duplicates are therefore
    no-ops. Returns the per-outlet staleness report, or None for a discarded
    packet.
    """
    if packet.kind is not MessageKind.AGGREGATE_PACKET:
        raise ValueError(f"cannot consume {packet.kind.value} as a push packet")
    snaps = packet.payload
    if not isinstance(snaps, (list, tuple)) or not all(isinstance(s, MeterSnapshot) for s in snaps):
        raise ValueError("aggregate packet payload must be meter snapshots")
    current = store.stations.get(packet.station)
    if current is not None and packet.seq <= current.packet_seq:
        store.discarded += 1
        return None
    record = store.stations[packet.station] = _StationRecord(
        snapshots={s.outlet: s for s in snaps}, packet_seq=packet.seq)
    return staleness(record.snapshots, now)
