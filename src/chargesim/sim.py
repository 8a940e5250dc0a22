"""Seeded discrete-event engine: total event ordering, virtual time, named
random streams, and replayable traces.

Virtual time is double-precision seconds, which comfortably spans the
microsecond-to-week range this testbed needs. Events execute in
``(at, seq)`` order; ``seq`` breaks ties in schedule order. Nothing on the
simulation path calls platform-dependent math (no libm transcendentals), so
identical ``(seed, config)`` inputs produce byte-identical traces on any
machine.

An event is its heap entry ``(at, seq, kind, data, fn)``. When it fires,
the engine calls ``fn(at, data)``; a handler that needs the engine (to
schedule more events or draw from a stream) closes over it. A dict the
handler returns is recorded as the event's ``state``; ``data`` and
``state`` enter the trace as-is and must be JSON-serializable.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

TRACE_FORMAT = "chargesim-trace/1"


class TraceParseError(ValueError):
    """Trace file is structurally invalid; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def canonical_json(obj: Any) -> str:
    """Stable one-line JSON used for trace records and digests."""
    return _encode(obj)


def ordered_sum(values):
    """Left-to-right sum from the integer 0, as ``sum()`` computed it before
    Python 3.12 made float sums compensated. Totals that reach a trace or a
    summary use it, so they stay bit-identical across interpreter versions."""
    total = 0
    for v in values:
        total += v
    return total


def config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def substream(master_seed: int, label: str) -> random.Random:
    """Random stream bound to (master_seed, label).

    Distinct labels yield independent streams, and a stream depends only on
    its own label, so adding entities to a scenario never perturbs anyone
    else's draws. Re-deriving the same label gives a fresh stream that
    replays the same sequence; protocol A/B comparisons rely on this to run
    against identical latency draws.
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


Handler = Callable[[float, Optional[dict]], Optional[dict]]


@dataclass
class EventTrace:
    """Ordered record of executed events.

    The trace digest is a pure function of (seed, config, scheduled work):
    replaying the same experiment reproduces it byte for byte.
    """

    seed: int
    config_digest: str = ""
    meta: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    failed: bool = False

    def header(self) -> dict:
        head = {"format": TRACE_FORMAT, "seed": self.seed, "config_digest": self.config_digest}
        head.update(self.meta)
        return head

    def _chunks(self):
        """The digested bytes in pieces, each record encoded once: the header
        line, then ``"\\n" + line`` per record. Joined, they are the header
        and record lines separated by one newline, with none at the end."""
        yield canonical_json(self.header()).encode("utf-8")
        for record in self.records:
            yield ("\n" + canonical_json(record)).encode("utf-8")

    def digest(self) -> str:
        h = hashlib.sha256()
        for chunk in self._chunks():
            h.update(chunk)
        return h.hexdigest()

    def write(self, path) -> str:
        """Write header, one record per line, and a digest footer. Returns the
        digest, hashed from the same bytes as they are written."""
        h = hashlib.sha256()
        with open(path, "wb") as fh:
            for chunk in self._chunks():
                h.update(chunk)
                fh.write(chunk)
            digest = h.hexdigest()
            fh.write(("\n" + canonical_json({"trace_digest": digest}) + "\n").encode("utf-8"))
        return digest


@dataclass
class ParsedTrace:
    """A trace file read back for replay: header, records, and the stored digest."""

    header: dict
    records: list
    stored_digest: str


def read_trace(path) -> ParsedTrace:
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    if not raw_lines:
        raise TraceParseError("empty trace file", 1)
    parsed = []
    for i, line in enumerate(raw_lines, start=1):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"bad JSON ({exc.msg})", i) from exc
    header = parsed[0]
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceParseError("missing or unrecognized trace header", 1)
    footer = parsed[-1]
    if not isinstance(footer, dict) or "trace_digest" not in footer:
        raise TraceParseError("missing digest footer", len(raw_lines))
    return ParsedTrace(header=header, records=parsed[1:-1], stored_digest=footer["trace_digest"])


class Engine:
    """Single-threaded discrete-event engine.

    Strictly one thread may drive an engine at a time; run many engines on
    independent seeds for parallel experiments.
    """

    def __init__(self, seed: int, meta: dict | None = None):
        self.seed = seed
        self.meta = dict(meta or {})
        self.clock = 0.0
        self._heap: list[tuple] = []  # (at, seq, kind, data, fn)
        self._next_seq = 0
        self._streams: dict[str, random.Random] = {}
        cfg = self.meta.get("config")
        self.trace = EventTrace(
            seed=seed,
            config_digest=config_digest(cfg) if cfg is not None else "",
            meta=self.meta,
        )

    def stream(self, label: str) -> random.Random:
        """Named random stream; the same label always returns the same stream."""
        if label not in self._streams:
            self._streams[label] = substream(self.seed, label)
        return self._streams[label]

    def schedule_at(self, at: float, kind: str, data: dict | None = None,
                    fn: Handler | None = None) -> tuple:
        """Queue an event; returns its heap entry ``(at, seq, kind, data, fn)``."""
        if at < self.clock:
            raise ValueError(f"cannot schedule at {at!r}, clock is {self.clock!r}")
        entry = (at, self._next_seq, kind, data, fn)
        self._next_seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_every(self, period: float, kind: str, fn: Handler,
                       data: dict | None = None) -> tuple:
        """Self-rescheduling periodic event, first one period from now.
        ``data`` rides along on every occurrence."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")

        def tick(at: float, data):
            self.schedule_at(at + period, kind, data, tick)
            return fn(at, data)

        return self.schedule_at(self.clock + period, kind, data, tick)

    def run_until(self, t_end: float) -> EventTrace:
        """Execute every event with at <= t_end; on a handler exception the
        trace is truncated with a failure record and the run stops."""
        if t_end < self.clock:
            raise ValueError(f"t_end {t_end!r} is before clock {self.clock!r}")
        while self._heap and self._heap[0][0] <= t_end:
            at, seq, kind, data, fn = heapq.heappop(self._heap)
            self.clock = at
            record: dict = {"at": at, "seq": seq, "kind": kind}
            if data is not None:
                record["data"] = data
            try:
                state = fn(at, data) if fn is not None else None
            except Exception as exc:  # noqa: BLE001 - failures become trace records
                record["error"] = f"{type(exc).__name__}: {exc}"
                self.trace.records.append(record)
                self.trace.failed = True
                return self.trace
            if isinstance(state, dict) and state:
                record["state"] = state
            self.trace.records.append(record)
        self.clock = t_end
        return self.trace
