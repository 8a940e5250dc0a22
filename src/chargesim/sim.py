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
sink, which gathers at most ``BLOCK_RECORDS`` of them, then has the block
encoded, hashed and (when a file is open) written at once, and passes its
records on to a consumer in order; every ``run_until`` flushes the last
block before it returns, so no run holds more than one block of records. A
trace of more than one block hands that byte work to an encoder child it
forks by the fork rule (``fork_child``), but encodes here each block that
comes while the child is still behind; without a child it does all of it
here, with the same bytes. A record is encoded after later events have
run, so its ``data`` and ``state`` must not change once its event has
finished.
``read_trace`` streams a written file back through a consumer the same
way. It hashes every record line, so a caller can tell whether the file's
records still match its footer, and decodes them only for a consumer or
when they fail to match.

Every child the package forks (``fork_child``) speaks one protocol: what
its ``serve`` generator yields, ``Child.results`` yields here in order, and
it raises here, in its place, what ended ``serve``. An encoder child
reads its trace's requests as pickles too and yields the digest each one
asks for, and ``_Forked`` yields its results in chunks of ``FORK_CHUNK``.
``experiments`` forks through ``_Forked`` for the traces after a command's
first, and through ``Engine.feed`` for the work a builder hands its events
(compare-protocols' trial draws, duty-cycle's sweep points), past one chunk
of it. Each child runs off the CPU its parent ran on when it forked, so the
CPU the fork rule counted for it is the one it gets.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import sys
from functools import partial
from itertools import chain
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


# This run's processes at work, as this process counts them: itself, the
# children it has forked and not yet reaped and, in a child, every process
# its parent counted when it forked (the child among them).
_at_work = 1


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """The fork rule: this process may fork when ``os.fork`` exists, no
    second thread runs (a child gets only the forking thread, so a lock
    another thread held would stay locked in it), and it may run on more
    CPUs than the run has processes at work, so the child has a CPU of its
    own instead of slowing those processes down. ``fork_child`` applies it
    to every child the package forks, and moves the child off this
    process's CPU (``_leave_cpu``)."""
    if not hasattr(os, "fork") or _cpus() <= _at_work:
        return False
    import threading
    return threading.active_count() == 1


class Child:
    """A child that ``fork_child`` forked, and this process's ends of the two
    pipes to it: ``send`` writes what the child reads, ``results`` yields
    what it sends back. ``what`` says what the child does, for errors."""

    __slots__ = ("pid", "what", "recv", "send", "results")

    def __init__(self, pid: int, what: str, recv, send):
        self.pid: Optional[int] = pid  # until the child is reaped
        self.what = what
        self.recv = recv
        self.send = send
        self.results = self._results()

    def _results(self):
        """What the child's ``serve`` yielded, in order; then the exception
        that ended it, raised once the child is reaped, or the end of the
        stream, where ``wait`` reaps the child. A stream cut short inside a
        result ends there too, so a child killed as it wrote is named with
        its exit code; the ``UnpicklingError`` stands only if it exited 0."""
        from pickle import UnpicklingError, load  # loaded by fork_child, before it forked

        recv = self.recv
        while True:
            try:
                obj = load(recv)
            except EOFError:
                break
            except UnpicklingError:
                self.wait()
                raise
            if isinstance(obj, Exception):  # what ended serve in the child
                self.end()
                raise obj
            yield obj
        self.wait()

    def _close_pipes(self) -> None:
        try:
            self.send.close()
        except BrokenPipeError:  # the child has gone: what it did not read is dropped
            pass
        self.recv.close()

    def _reaped(self) -> None:
        global _at_work
        self.pid = None
        _at_work -= 1

    def wait(self) -> None:
        """Close the pipes and reap the child, which has ended or is ending;
        an exit code other than 0 raises a ``RuntimeError`` naming ``what``."""
        self._close_pipes()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self._reaped()
        if code != 0:
            raise RuntimeError(f"the process {self.what} exited with code {code}")

    def end(self) -> None:
        """Close the pipes, kill the child if it still runs and reap it. Its
        owner calls this in a ``finally``, so no child outlives its work,
        however the work ends; a child already reaped is left alone."""
        self._close_pipes()
        pid = self.pid
        if pid is None:
            return
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        except ChildProcessError:  # reaped just before an interrupt
            pass
        self._reaped()


def _cpu_now() -> Optional[int]:
    """The CPU this process runs on, the 39th field of Linux's
    ``/proc/self/stat``, or ``None`` where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: Optional[int]) -> None:
    """In a forked child: run on the CPUs this process may use other than
    ``cpu``, the one its parent ran on at the fork, if there are any. The
    kernel can keep a child on its parent's CPU while another CPU idles, and
    then the two take turns on one; the fork rule counted a CPU for the
    child, and this puts it there. A refusal leaves the child where it is."""
    if cpu is None:
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (AttributeError, OSError):  # not Linux, or refused
        pass


def fork_child(what: str, serve: Callable) -> Optional[Child]:
    """Fork a child that runs the generator ``serve(inp)``, where ``inp``
    reads what is written to the returned ``Child.send``. The child pickles
    each object ``serve`` yields to ``Child.results`` at once, and last the
    exception that ends ``serve``, which ``Child.results`` raises in its
    place (so ``serve`` yields no exception).

    The child first leaves the CPU this process runs on (``_leave_cpu``).
    Returns ``None``, having forked nothing, when ``_may_fork()`` is false or
    ``os.pipe`` or ``os.fork`` raises ``OSError``: the caller then does the
    work itself, so a refused fork costs a run its overlap, not its outputs.
    The child leaves with ``os._exit``, with 0 once ``serve`` returns and 1
    if it raises, so none of this process's ``finally`` blocks, ``atexit``
    hooks or buffered output runs twice."""
    global _at_work
    if not _may_fork():
        return None
    import pickle  # before the fork, so only a run that forks loads it

    fds: list = []
    try:
        fds.extend(os.pipe())  # child -> here
        fds.extend(os.pipe())  # here -> child
        cpu = _cpu_now()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    _at_work += 1  # here and in the child alike
    recv, out, inp, send = fds
    if pid == 0:
        status = 1
        try:
            _leave_cpu(cpu)
            os.close(recv)
            os.close(send)
            with os.fdopen(out, "wb") as out, os.fdopen(inp, "rb") as inp:
                try:
                    for obj in serve(inp):
                        pickle.dump(obj, out)
                        out.flush()
                except Exception as exc:  # noqa: BLE001 - Child.results raises it
                    out.write(pickle.dumps(exc))
                    raise
            status = 0
        finally:
            os._exit(status)
    os.close(out)
    os.close(inp)
    return Child(pid, what, os.fdopen(recv, "rb"), os.fdopen(send, "wb"))


FORK_CHUNK = 256  # results a forked child pickles and sends at once


class _Forked:
    """``fn`` over ``items``, in a child forked when this is made or here.

    It forks, through ``fork_child`` and its fork rule, only when ``fork`` is
    true, and works here when ``fork_child`` forks nothing: outputs are
    byte-identical either way. Here, ``results`` is the lazy
    ``map(fn, items)``; from a child, it is the child's ``Child.results``
    unchunked, so it raises at an item's position what that call raised
    (and ``fn`` returns no exception), and at its end what ``Child.wait``
    raises. ``close()`` kills a child that still runs and reaps it; its
    owner calls it in a ``finally``, so no child outlives a run, however
    the run ends."""

    __slots__ = ("_child", "results")

    def __init__(self, fn, items, what: str, fork: bool):
        self._child = fork_child(what, partial(_serve, fn, items)) if fork else None
        self.results = (map(fn, items) if self._child is None
                        else chain.from_iterable(self._child.results))

    def close(self) -> None:
        if self._child is not None:
            self._child.end()


def _serve(fn, items, _inp):
    """In a forked child: what ``fn`` returns for each of ``items``, in
    lists of at most ``FORK_CHUNK``; a call that raises ends it, once the
    results before it are yielded."""
    chunk: list = []
    try:
        for item in items:
            chunk.append(fn(item))
            if len(chunk) == FORK_CHUNK:
                yield chunk
                chunk = []
    except Exception:
        yield chunk
        raise
    yield chunk


Handler = Callable[[float, Optional[dict]], Optional[dict]]


def _encode(block: list) -> bytes:
    """A block's bytes as its trace holds them: ``"\\n" + canonical_json`` of
    each record."""
    return ("\n" + "\n".join(map(canonical_json, block))).encode("utf-8")


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

    The first time it flushes a full block, the trace forks an encoder child
    by the fork rule (``fork_child``), which inherits the running SHA-256 and
    the open file. From then on each request to the child is one pickle of
    ``(tag, body)``: ``flush`` sends ``("block", records)``, and the child
    encodes, hashes and writes them as ``flush`` does here. A block that
    comes while the pipe still holds requests the child has not read, or
    that pickle refuses, is encoded here and sent as ``("bytes", encoded)``,
    which the child only hashes and writes: the child takes the encoding it
    keeps up with, and neither process waits for the other while there is a
    block to encode. ``digest()`` sends ``("digest", None)`` for the digest
    so far, and ``write()`` sends ``("footer", None)`` to have the child
    append the footer and leave. ``count``, ``last``, ``failed`` and
    ``consume`` stay in this process, and the bytes are the same either way.
    An error the child meets (an ``OSError`` writing the file, say) is raised
    here at the next block or request; a child that dies raises a
    ``RuntimeError`` naming the trace. ``close()`` ends the child.

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
        self._path = None  # the open file's, to name the trace in errors
        self._awaiting_full_block = True  # the encoder forks at the first one
        self._encoder: Optional[Child] = None  # the encoder child, once forked
        self._written: Optional[str] = None  # the digest its footer holds

    def header(self) -> dict:
        head = {"format": TRACE_FORMAT, "seed": self.seed, "config_digest": self.config_digest}
        head.update(self.meta)
        return head

    @property
    def records(self) -> range:
        """The records flushed so far, as ``range(count)``: ``len(trace.records)``
        is the form the benchmark's tracer reads; new code reads ``count``."""
        return range(self.count)

    def open(self, path) -> None:
        """Stream the trace into a new file at ``path``: the header line now,
        each block of records as it is flushed, the digest footer at
        ``write(path)``."""
        if self.count or self._pending:
            raise ValueError("a trace file must be opened before the first record")
        self._file = open(path, "wb")
        self._write = self._file.write
        self._write(self._head)
        self._path = path

    def take(self, record: dict) -> None:
        pending = self._pending
        pending.append(record)
        if len(pending) >= BLOCK_RECORDS:
            self.flush()

    def flush(self) -> None:
        """Encode, hash, write and consume the pending block, in take order:
        the byte work here or, from the first full block on, in the encoder
        child, if the fork rule lets the trace fork one and the child has
        read every request sent before."""
        block = self._pending
        if not block:
            return
        self._pending = []
        if self._awaiting_full_block and len(block) == BLOCK_RECORDS:
            self._awaiting_full_block = False
            self._fork_encoder()
        if self._encoder is None:
            self._put(_encode(block))
        elif _unread(self._encoder.send):  # the child is behind: this block is encoded here
            self._send("bytes", _encode(block))
        else:
            self._send("block", block)
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
        if self._encoder is None:
            return self._hash.hexdigest()
        return self._written or self._ask("digest")

    def write(self, path) -> str:
        """Finish the file opened on ``path``: append the digest footer and
        close it. Returns the digest."""
        if self._file is None:
            raise ValueError(f"no trace file is open on {path}")
        if self._encoder is None:
            digest = self.digest()
            self._write(_footer(digest))
        else:
            self.flush()
            digest = self._written = self._ask("footer")
            self._encoder.wait()
        self.close()
        return digest

    def close(self) -> None:
        """Close the trace file, if one is open, without a footer: a file
        left so is incomplete, and ``read_trace`` rejects it. An encoder
        child still running is killed and reaped, so a trace closed so takes
        no more records, and has a digest only if ``write`` finished it."""
        if self._encoder is not None:
            self._encoder.end()
        if self._file is not None:
            self._file.close()
            self._file = self._write = None

    def _put(self, data: bytes) -> None:
        """Hash an encoded block and write it to the file, if one is open."""
        self._update(data)
        if self._write is not None:
            self._write(data)

    def _fork_encoder(self) -> None:
        if self._file is not None:
            self._file.flush()  # the child writes on from what is written
        name = (self._path if self._path is not None
                else f"of {self.meta.get('command', 'a command')!r} with seed {self.seed}")
        self._encoder = fork_child(f"encoding trace {name}", self._encode_apart)

    def _encode_apart(self, inp):
        """The encoder child's loop: take each request from ``inp`` and do
        what ``flush``, ``digest`` and ``write`` would do here, yielding the
        digest each request asks for, until the footer is written or the
        pipe ends."""
        from pickle import load  # loaded by fork_child, before it forked

        while True:
            try:
                tag, body = load(inp)
            except EOFError:
                return  # the trace's process has gone
            if tag == "block":
                self._put(_encode(body))
            elif tag == "bytes":
                self._put(body)
            elif tag == "digest":
                yield self._hash.hexdigest()
            else:  # "footer"
                digest = self._hash.hexdigest()
                self._write(_footer(digest))
                self._file.close()
                yield digest
                return

    def _send(self, tag: str, body=None) -> None:
        """Send the encoder child one request, ``(tag, body)`` pickled whole."""
        from pickle import dumps  # loaded by fork_child, before it forked

        encoder = self._encoder
        if encoder.pid is None:
            raise ValueError("the trace is closed: its encoder child has ended")
        try:
            request = dumps((tag, body), 5)
        except Exception:  # noqa: BLE001 - pickle refuses a block: encode it as in process
            request = dumps(("bytes", _encode(body)), 5)
        try:
            encoder.send.write(request)
            encoder.send.flush()
        except BrokenPipeError:
            # the child has ended, having answered every request: the rest
            # of its stream raises what ended it
            for _ in encoder.results:
                pass
            raise

    def _ask(self, tag: str) -> str:
        self._send(tag)
        return next(self._encoder.results)


def _unread(pipe) -> int:
    """The bytes written to ``pipe`` that its reader has not yet taken
    (``FIONREAD``), or 0 where that cannot be asked."""
    try:
        import fcntl
        import termios
        return int.from_bytes(fcntl.ioctl(pipe.fileno(), termios.FIONREAD, bytes(4)),
                              sys.byteorder)
    except (ImportError, AttributeError, OSError):  # not a POSIX pipe: no backlog seen
        return 0


def _footer(digest: str) -> bytes:
    return ("\n" + canonical_json({"trace_digest": digest}) + "\n").encode("utf-8")


class ParsedTrace(NamedTuple):
    """A trace file's header, its footer's stored digest, and the SHA-256 of
    the header and record lines as read (``digest``): the two agree unless
    the file was edited after it was written."""

    header: dict
    stored_digest: str
    digest: str


def _load(line: bytes, n: int):
    """The JSON value on line ``n``, or a ``TraceParseError`` naming the line."""
    try:
        return json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"not UTF-8 (byte {exc.start + 1}: {exc.reason})", n) from exc
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"bad JSON ({exc.msg})", n) from exc


def read_trace(path, consume: Optional[Callable[[dict], None]] = None) -> ParsedTrace:
    """Stream the trace file at ``path`` line by line: check the header, hand
    each record to ``consume`` in order (when given), and return the header,
    the footer's stored digest and the digest of the lines before the
    footer. Neither the file nor its records are held; a structural error,
    a line that is not UTF-8 among them, raises ``TraceParseError`` with its
    line.

    Lines are read as bytes and end at ``"\\n"`` alone, so a line that
    ends in ``"\\r\\n"`` hashes with its ``"\\r"``. Every record line is
    hashed, but decoded only for ``consume``: without one, only the header
    and the footer are. When the footer is missing or unreadable, or the
    lines do not hash to it, the file is read once more with a consumer that
    drops each record, so a line that is not JSON is reported as it would be
    with one."""
    header = record = None
    n = 0
    hashed = hashlib.sha256()
    update = hashed.update
    # the last two lines are held back: the footer, unhashed, and the line
    # before it, hashed without its "\n" as EventTrace did
    before = held = b""
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            if n == 1:
                header = record = _load(line, 1)
                if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
                    raise TraceParseError("missing or unrecognized trace header", 1)
            else:
                update(before)
                if consume is not None:
                    obj = _load(line, n)
                    if n > 2:
                        consume(record)
                    record = obj
            before, held = held, line
    if n == 0:
        raise TraceParseError("empty trace file", 1)
    update(before[:-1])
    digest = hashed.hexdigest()
    if consume is None:
        try:
            record = _load(held, n)
        except TraceParseError:
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

    A builder that holds something for the run's handlers appends its
    release to ``closing``, as ``feed`` does for the child that feeds them;
    whoever runs the engine calls ``close()`` once the run is over, however
    it ended, and that also closes the trace (and so ends its encoder
    child).
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
        """Call each callable in ``closing``, latest first, once; then close
        the trace."""
        closing = self.closing
        try:
            while closing:
                closing.pop()()
        finally:
            self.trace.close()

    def feed(self, fn, count: int, what: str) -> Callable[[], Any]:
        """A function whose calls return ``fn(0)``, ``fn(1)``, ...,
        ``fn(count - 1)`` in turn: computed ahead of the run in a child doing
        ``what`` (``_Forked``, by the fork rule) when ``count`` passes one
        chunk (``FORK_CHUNK``), or here, one per call. At one chunk or fewer
        the fork, the pipe and the wait for the only chunk cost what they
        save. ``fn`` must read no state an event changes, so a child may run
        it; ``close()`` ends the child."""
        forked = _Forked(fn, range(count), what, fork=count > FORK_CHUNK)
        self.closing.append(forked.close)
        return forked.results.__next__

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
