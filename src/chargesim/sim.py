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
schedule more events) or a stream (from ``substream``) closes over it. A
dict the handler returns is recorded as the event's ``state``; ``data``
and ``state`` enter the trace as-is and must be JSON-serializable.

Traces stream: the engine hands each finished record to its ``EventTrace``
sink, which gathers at most ``BLOCK_RECORDS`` of them, then encodes, hashes
and (when a file is open) writes the block at once and passes its records on
to a consumer in order; every ``run_until`` flushes the last block before it
returns, so no run holds more than one block of records. A record is encoded
after later events have run, so its ``data`` and ``state`` must not change
once its event has finished. ``read_trace`` streams a written file back
through a consumer the same way. It hashes every record line, so a caller
can tell whether the file's records still match its footer, and decodes them
only for a consumer or when they fail to match.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import random
from typing import Any, Callable, NamedTuple, Optional

TRACE_FORMAT = "chargesim-trace/1"
BLOCK_RECORDS = 256  # records an EventTrace gathers before it encodes them


class TraceParseError(ValueError):
    """Trace file is structurally invalid; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _make_encode() -> Callable[[Any], str]:
    """The canonical encoder: sorted keys, no spaces, ASCII only, and a
    ``ValueError`` on NaN or infinity. ``JSONEncoder.encode`` builds a fresh
    C encoder for every call; this builds one, once, and falls back to
    ``JSONEncoder.encode`` where the C accelerator is missing. Records are
    trees, so neither checks for circular references."""
    enc = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                           check_circular=False)
    make = json.encoder.c_make_encoder
    if make is None:
        return enc.encode
    c_encode = make(None, enc.default, json.encoder.encode_basestring_ascii, enc.indent,
                    enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys,
                    enc.allow_nan)

    def encode(obj: Any) -> str:
        """Stable one-line JSON used for trace records and digests."""
        return "".join(c_encode(obj, 0))

    return encode


canonical_json = _make_encode()


def ordered_sum(values):
    """Left-to-right sum from the integer 0, as ``sum()`` computed it before
    Python 3.12 made float sums compensated. Totals that reach a trace or a
    summary use it, so they stay bit-identical across interpreter versions.
    The circuit totals taken on every outlet write
    (``domain.allocated_current_total``) add the same way in an explicit
    loop instead, because a generator into this function costs about 2.3
    times as much per call; neither form may use ``sum()``."""
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
    replays the same sequence, and that is the one way to replay one: each
    consumer that must see a stream's draws from the first derives it
    afresh. compare-protocols' protocols draw a trial's latencies this way,
    each from its own derivation of ``trial:i``, so they run against
    identical delays.
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


Handler = Callable[[float, Optional[dict]], Optional[dict]]


class _Taken:
    """``len()`` of this is the number of records a trace has flushed."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count

    def __len__(self) -> int:
        return self.count


class EventTrace:
    """The sink an engine hands each finished record to.

    ``take(record)`` adds the record to a pending block. ``flush()``, called
    when the block holds ``BLOCK_RECORDS`` records and by the engine before
    each ``run_until`` returns, encodes the block once, as
    ``"\\n" + canonical_json`` of each record, adds those bytes to the running
    SHA-256 of the header line and every record so far, writes them to the
    trace file if one is open, and hands the records to ``consume`` in order
    if one is set. ``fail(record)`` flushes, marks the trace ``failed``,
    drops ``consume`` and takes and flushes the failed event's record, which
    is thus written and hashed but not consumed. The trace keeps only the
    pending block, the flushed record count, the last flushed record and
    ``failed``: no record outlives its block.

    A record is encoded only when its block is flushed, so its ``data`` and
    ``state`` must not change after its event. The digest is a pure function
    of (seed, config, scheduled work), so replaying the same experiment
    reproduces it byte for byte.
    """

    def __init__(self, seed: int, config_digest: str = "", meta: dict | None = None):
        self.seed = seed
        self.config_digest = config_digest
        self.meta = {} if meta is None else meta
        self.failed = False
        self.count = 0
        self.last: Optional[dict] = None
        self.consume: Optional[Callable[[dict], None]] = None
        self._pending: list = []
        self._head = canonical_json(self.header()).encode("utf-8")
        self._hash = hashlib.sha256(self._head)
        self._update = self._hash.update
        self._file = None
        self._write = None

    def header(self) -> dict:
        head = {"format": TRACE_FORMAT, "seed": self.seed, "config_digest": self.config_digest}
        head.update(self.meta)
        return head

    @property
    def records(self) -> _Taken:
        """The records flushed so far, as a count: ``len(trace.records)``, the
        form the benchmark's tracer reads; new code reads ``count``."""
        return _Taken(self.count)

    def open(self, path) -> None:
        """Stream the trace into a new file at ``path``: the header line now,
        each block of records as it is flushed, the digest footer at
        ``write(path)``."""
        if self.count or self._pending:
            raise ValueError("a trace file must be opened before the first record")
        self._file = open(path, "wb")
        self._write = self._file.write
        self._write(self._head)

    def take(self, record: dict) -> None:
        pending = self._pending
        pending.append(record)
        if len(pending) >= BLOCK_RECORDS:
            self.flush()

    def flush(self) -> None:
        """Encode, hash, write and consume the pending block, in take order."""
        block = self._pending
        if not block:
            return
        self._pending = []
        data = ("\n" + "\n".join(map(canonical_json, block))).encode("utf-8")
        self._update(data)
        if self._write is not None:
            self._write(data)
        consume = self.consume
        if consume is not None:
            for record in block:
                consume(record)
        self.count += len(block)
        self.last = block[-1]

    def fail(self, record: dict) -> None:
        """Take the record of the event that failed, without consuming it;
        the trace ends with it."""
        self.flush()
        self.failed = True
        self.consume = None
        self.take(record)
        self.flush()

    def digest(self) -> str:
        """SHA-256 of the header line and the ``"\\n"``-prefixed records so
        far, the pending ones flushed first."""
        self.flush()
        return self._hash.hexdigest()

    def write(self, path) -> str:
        """Finish the file opened on ``path``: append the digest footer and
        close it. Returns the digest."""
        if self._file is None:
            raise ValueError(f"no trace file is open on {path}")
        digest = self.digest()
        self._write(("\n" + canonical_json({"trace_digest": digest}) + "\n").encode("utf-8"))
        self.close()
        return digest

    def close(self) -> None:
        """Close the trace file, if one is open, without a footer: a file
        left so is incomplete, and ``read_trace`` rejects it."""
        if self._file is not None:
            self._file.close()
            self._file = self._write = None


class ParsedTrace(NamedTuple):
    """A trace file's header, its footer's stored digest, and the SHA-256 of
    the header and record lines as read (``digest``): the two agree unless
    the file was edited after it was written."""

    header: dict
    stored_digest: str
    digest: str


def _load(line: str, n: int):
    """``json.loads(line)``, or a ``TraceParseError`` on line ``n``."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"bad JSON ({exc.msg})", n) from exc


def read_trace(path, consume: Optional[Callable[[dict], None]] = None) -> ParsedTrace:
    """Stream the trace file at ``path`` line by line: check the header, hand
    each record to ``consume`` in order (when given), and return the header,
    the footer's stored digest and the digest of the lines before the
    footer. Neither the file nor its records are held; a structural error
    raises ``TraceParseError`` with its line.

    Every record line is hashed, but decoded only for ``consume``: without
    one, only the header and the footer are. When the footer is missing or
    unreadable, or the lines do not hash to it, the file is read once more
    with a consumer that drops each record, so a line that is not JSON is
    reported as it would be with one."""
    header = record = None
    n = 0
    hashed = hashlib.sha256()
    update = hashed.update
    sep = ""  # what joins the held line to the ones before it
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if n == 1:
                header = record = _load(line, 1)
                if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
                    raise TraceParseError("missing or unrecognized trace header", 1)
            else:
                # the held line is not the footer: hash it as EventTrace did
                update((sep + text[:-1]).encode("utf-8"))
                sep = "\n"
                if consume is not None:
                    obj = _load(line, n)
                    if n > 2:
                        consume(record)
                    record = obj
            text = line  # the last line held back: it must be the footer
    if n == 0:
        raise TraceParseError("empty trace file", 1)
    digest = hashed.hexdigest()
    if consume is None:
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            record = None
        if not isinstance(record, dict) or record.get("trace_digest") != digest:
            return read_trace(path, lambda record: None)
    if not isinstance(record, dict) or "trace_digest" not in record:
        raise TraceParseError("missing digest footer", n)
    return ParsedTrace(header=header, stored_digest=record["trace_digest"], digest=digest)


class Engine:
    """Single-threaded discrete-event engine.

    Strictly one thread may drive an engine at a time; run many engines on
    independent seeds for parallel experiments, as ``experiments.run`` does
    with a command's traces, each after the first in a forked child.

    A builder that holds something for the run's handlers (a forked child
    that feeds them, say) appends its release to ``closing``; whoever runs
    the engine calls ``close()`` once the run is over, however it ended.
    """

    def __init__(self, seed: int, meta: dict | None = None):
        self.seed = seed
        self.meta = dict(meta or {})
        self.clock = 0.0
        self.closing: list = []  # callables close() calls, latest first
        self._heap: list[tuple] = []  # (at, seq, kind, data, fn)
        self._next_seq = 0
        cfg = self.meta.get("config")
        self.trace = EventTrace(
            seed=seed,
            config_digest=config_digest(cfg) if cfg is not None else "",
            meta=self.meta,
        )

    def close(self) -> None:
        """Call each callable in ``closing``, latest first, once."""
        closing = self.closing
        while closing:
            closing.pop()()

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
        """Execute every event with at <= t_end, handing each record to the
        trace as the event finishes, and flush the trace before returning; on
        a handler exception the trace ends with a failure record and the run
        stops."""
        if t_end < self.clock:
            raise ValueError(f"t_end {t_end!r} is before clock {self.clock!r}")
        heap = self._heap
        take = self.trace.take
        while heap and heap[0][0] <= t_end:
            at, seq, kind, data, fn = heapq.heappop(heap)
            self.clock = at
            record: dict = {"at": at, "seq": seq, "kind": kind}
            if data is not None:
                record["data"] = data
            try:
                state = fn(at, data) if fn is not None else None
            except Exception as exc:  # noqa: BLE001 - failures become trace records
                record["error"] = f"{type(exc).__name__}: {exc}"
                self.trace.fail(record)
                return self.trace
            if isinstance(state, dict) and state:
                record["state"] = state
            take(record)
        self.trace.flush()
        self.clock = t_end
        return self.trace
