"""Engine tests: ordering, determinism, streams, trace files and their
encoder child."""
import contextlib
import errno
import hashlib
import json
import math
import os
import pickle
import random
import re
import select
import signal
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from chargesim import sim
from chargesim.sim import Engine, TraceParseError, canonical_json, read_trace, substream


def test_schedule_before_clock_rejected():
    eng = Engine(seed=1)
    eng.schedule_at(5.0, "x")
    eng.run_until(5.0)
    with pytest.raises(ValueError):
        eng.schedule_at(4.0, "late")


def test_zero_delay_runs_after_current_event_same_timestamp():
    eng = Engine(seed=1)
    order = []

    def first(at, data):
        order.append("first")
        eng.schedule_at(at, "second", fn=lambda at2, data2: order.append("second") or {"t": at2})

    eng.schedule_at(1.0, "first", fn=first)
    records = []
    eng.trace.consume = records.append
    eng.run_until(2.0)
    assert order == ["first", "second"]
    assert [r["at"] for r in records] == [1.0, 1.0]
    assert records[0]["seq"] < records[1]["seq"]


def test_same_time_events_run_in_schedule_order():
    eng = Engine(seed=1)
    seen = []
    for name in ("a", "b", "c"):
        eng.schedule_at(3.0, name, fn=lambda at, data, n=name: seen.append(n))
    eng.run_until(3.0)
    assert seen == ["a", "b", "c"]


def test_pop_order_matches_sort_oracle():
    # independent oracle: stable sort of (at, seq) must equal execution order
    rng = random.Random(7)
    eng = Engine(seed=1)
    scheduled = []
    for _ in range(100_000):
        at, seq, *_ = eng.schedule_at(rng.random() * 1000.0, "e")
        scheduled.append((at, seq))
    records = []
    eng.trace.consume = records.append
    try:
        eng.run_until(1001.0)
    finally:
        eng.close()
    oracle = sorted(scheduled)
    got = [(r["at"], r["seq"]) for r in records]
    assert got == oracle


def test_empty_queue_advances_clock():
    eng = Engine(seed=1)
    records = []
    eng.trace.consume = records.append
    eng.run_until(10.0)
    assert records == []
    assert eng.clock == 10.0


def test_week_at_five_minute_cadence_gives_2016_probes():
    eng = Engine(seed=1)
    eng.schedule_every(300.0, "probe", lambda at, data: None)
    try:
        assert len(eng.run_until(604800.0).records) == 2016
    finally:
        eng.close()


def test_causality_handler_sees_event_time():
    eng = Engine(seed=1)
    seen = []
    eng.schedule_at(4.0, "x", fn=lambda at, data: seen.append((eng.clock, at)))
    eng.run_until(10.0)
    assert seen == [(4.0, 4.0)]


def test_identical_seed_and_config_reproduce_digest():
    def build():
        eng = Engine(seed=9, meta={"command": "t", "config": {"a": 1}})
        rng = substream(9, "s")
        def h(at, data):
            return {"draw": rng.random()}
        for i in range(50):
            eng.schedule_at(float(i), "h", fn=h)
        return eng.run_until(100.0)

    assert build().digest() == build().digest()


def test_handler_failure_truncates_trace():
    eng = Engine(seed=1)
    eng.schedule_at(1.0, "ok", fn=lambda at, data: {"fine": 1})
    eng.schedule_at(2.0, "boom", fn=lambda at, data: 1 / 0)
    eng.schedule_at(3.0, "never", fn=lambda at, data: {"fine": 1})
    trace = eng.run_until(10.0)
    assert trace.failed
    assert len(trace.records) == 2
    assert "ZeroDivisionError" in trace.last["error"]


def test_stream_labels_do_not_collide():
    firsts = {substream(42, f"label-{i}").random() for i in range(5000)}
    assert len(firsts) == 5000


def test_stream_is_stable_and_label_scoped():
    a1 = substream(42, "link:threeg").random()
    a2 = substream(42, "link:threeg").random()
    b = substream(42, "link:wifi").random()
    c = substream(43, "link:threeg").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_trace_write_read_roundtrip(tmp_path):
    eng = Engine(seed=3, meta={"command": "t", "config": {"k": 1}})
    eng.schedule_at(1.0, "a", data={"n": 1})
    eng.schedule_at(2.0, "b")
    path = tmp_path / "t.jsonl"
    eng.trace.open(path)
    trace = eng.run_until(5.0)
    digest = trace.write(path)
    records = []
    parsed = read_trace(path, records.append)
    assert parsed.stored_digest == digest
    assert parsed.header["seed"] == 3
    assert len(records) == 2


def test_corrupt_trace_reports_line_number(tmp_path):
    eng = Engine(seed=3, meta={"command": "t", "config": {}})
    eng.schedule_at(1.0, "a")
    eng.trace.open(tmp_path / "t.jsonl")
    eng.run_until(5.0).write(tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    lines[1] = lines[1][:4]
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError) as err:
        read_trace(tmp_path / "bad.jsonl")
    assert err.value.line == 2


def _reference_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]),
    st.text(),  # non-ASCII included: the encoder escapes it
)
_RECORDS = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
), max_leaves=24)


def _fallback_encode(obj):
    """Encode ``obj`` with the encoder built where the C accelerator is absent."""
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        encode = sim._make_encode()
        assert getattr(encode, "__func__", None) is json.JSONEncoder.encode
        return encode(obj)


@given(_RECORDS)
def test_canonical_json_matches_json_dumps(obj):
    assert canonical_json(obj) == _reference_json(obj)


@given(_RECORDS)
def test_fallback_encoder_gives_the_same_bytes(obj):
    assert _fallback_encode(obj) == canonical_json(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("encode", [canonical_json, _fallback_encode], ids=["c", "fallback"])
def test_non_finite_floats_are_rejected(encode, bad):
    for obj in (bad, {"a": [1, {"b": bad}]}):
        with pytest.raises(ValueError):
            encode(obj)
    # a failed encoding leaves nothing behind for the next record
    assert encode({"a": [1, {"b": 2.5}]}) == '{"a":[1,{"b":2.5}]}'


def _run_taking(eng, t_end, path):
    """Run ``eng`` streaming into ``path``; returns the trace and every
    record it took, the failure record (which is not consumed) included."""
    taken = []
    eng.trace.consume = taken.append
    eng.trace.open(path)
    trace = eng.run_until(t_end)
    return trace, taken + ([trace.last] if trace.failed else [])


def _empty_trace(path):
    return _run_taking(Engine(seed=4, meta={"command": "t", "config": {}}), 10.0, path)


def _normal_trace(path):
    eng = Engine(seed=5, meta={"command": "t", "config": {"k": [1, 2.5]}})
    rng = substream(5, "s")
    eng.schedule_every(1.0, "tick", lambda at, data: {"draw": rng.random()},
                       data={"label": "caf\u00e9"})
    return _run_taking(eng, 50.0, path)


def _truncated_trace(path):
    eng = Engine(seed=6, meta={"command": "t", "config": {}})
    eng.schedule_at(1.0, "ok", fn=lambda at, data: {"v": 0.1})
    eng.schedule_at(2.0, "boom", fn=lambda at, data: 1 / 0)
    eng.schedule_at(3.0, "never")
    trace, taken = _run_taking(eng, 10.0, path)
    assert trace.failed
    return trace, taken


@pytest.mark.parametrize("build", [_empty_trace, _normal_trace, _truncated_trace],
                         ids=["empty", "normal", "truncated"])
def test_streamed_trace_matches_joined_lines(tmp_path, build):
    path = tmp_path / "t.jsonl"
    trace, records = build(path)
    lines = [_reference_json(trace.header())] + [_reference_json(r) for r in records]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert trace.digest() == digest

    assert trace.write(path) == digest
    expected = "\n".join(lines) + "\n" + _reference_json({"trace_digest": digest}) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")

    parsed_records = []
    parsed = read_trace(path, parsed_records.append)
    assert parsed.header == trace.header()
    assert parsed_records == records
    assert parsed.stored_digest == parsed.digest == digest
    assert read_trace(path) == parsed


# --- the block sink against a sink that flushes every record --------------


class _PerRecordTrace(sim.EventTrace):
    """The reference sink: each record is encoded, hashed, written and
    consumed as it is taken, with no block pending."""

    def take(self, record):
        super().take(record)
        self.flush()


def _numbered_events(n, fail_at=None):
    """A scenario of ``n`` events, one a second, whose records carry data and
    a state with a stream draw; event number ``fail_at`` raises."""
    def schedule(eng):
        rng = substream(eng.seed, "s")

        def handler(at, data):
            if data["i"] == fail_at:
                raise RuntimeError(f"event {data['i']}")
            return {"draw": rng.random(), "sq": data["i"] ** 2}
        for i in range(n):
            eng.schedule_at(float(i), "e", data={"i": i}, fn=handler)
    return schedule


@contextlib.contextmanager
def encoders_forked():
    """Each encoder child a trace forks meanwhile, in fork order."""
    forked = []
    fork_child = sim.fork_child

    def recorded(what, serve):
        child = fork_child(what, serve)
        if child is not None:
            forked.append(child)
        return child

    with mock.patch.object(sim, "fork_child", recorded):
        yield forked


def no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _engine(sink=sim.EventTrace):
    eng = Engine(seed=8, meta={"command": "t", "config": {"n": 1}})
    eng.trace = sink(eng.seed, eng.trace.config_digest, eng.meta)
    return eng


def _run_each_sink(tmp_path, monkeypatch, schedule, ends):
    """Run ``schedule`` streaming into a file with three sinks: the block
    sink, which forks an encoder child at its first full block; the block
    sink with ``os.fork`` deleted, which encodes here; and the per-record
    sink. Each calls ``run_until`` at each of ``ends`` and ``digest()``
    after each. Returns each one's file bytes, final ``digest()``, consumed
    records, ``(count, last, digest())`` after each run and ``failed``,
    and what each encoder child forked did."""
    def outcome(sink, name):
        eng = _engine(sink)
        schedule(eng)
        trace = eng.trace
        consumed = []
        trace.consume = consumed.append
        path = tmp_path / f"{name}.jsonl"
        trace.open(path)
        try:
            after_each = []
            for t_end in ends:
                eng.run_until(t_end)
                after_each.append((trace.count, trace.last, trace.digest()))
            digest = trace.digest()
            assert trace.write(path) == digest
        finally:
            eng.close()
        no_child_left()
        return path.read_bytes(), trace.digest(), consumed, after_each, trace.failed

    with encoders_forked() as forked:
        block = outcome(sim.EventTrace, "block")
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        in_process = outcome(sim.EventTrace, "in-process")
    reference = outcome(_PerRecordTrace, "per-record")
    return [block, in_process, reference], [child.what for child in forked]


def _forks_at_a_full_block(tmp_path, n):
    """The encoder a block sink of ``n`` records into ``block.jsonl`` forks."""
    return [f"encoding trace {tmp_path / 'block.jsonl'}"] if n >= sim.BLOCK_RECORDS else []


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
def test_block_sink_matches_a_per_record_sink(tmp_path, monkeypatch, n):
    (block, in_process, reference), forked = _run_each_sink(
        tmp_path, monkeypatch, _numbered_events(n), [float(n)])
    assert forked == _forks_at_a_full_block(tmp_path, n)
    assert block == in_process == reference
    _, _, consumed, [(count, last, _)], failed = block
    assert count == len(consumed) == n and not failed
    assert [r["data"]["i"] for r in consumed] == list(range(n))
    assert last == (consumed[-1] if n else None)


def test_block_sink_holds_at_most_one_block():
    # while event i runs, the i records before it are flushed in whole blocks
    eng = Engine(seed=1)
    seen = []
    for i in range(600):
        eng.schedule_at(float(i), "e", fn=lambda at, data: seen.append(eng.trace.count))
    try:
        assert len(eng.run_until(600.0).records) == 600
    finally:
        eng.close()
    assert seen == [i // sim.BLOCK_RECORDS * sim.BLOCK_RECORDS for i in range(600)]


def test_failure_with_records_pending_ends_the_trace(tmp_path, monkeypatch):
    # 290 records are taken, 34 of them pending, when event 290 raises
    (block, in_process, reference), forked = _run_each_sink(
        tmp_path, monkeypatch, _numbered_events(300, fail_at=290), [300.0])
    assert forked == _forks_at_a_full_block(tmp_path, 300)
    assert block == in_process == reference
    data, _, consumed, [(count, last, _)], failed = block
    assert failed and count == 291
    assert [r["data"]["i"] for r in consumed] == list(range(290))
    assert last["error"] == "RuntimeError: event 290" and last["data"] == {"i": 290}
    lines = data.decode("utf-8").splitlines()
    assert [json.loads(line) for line in lines[1:-1]] == consumed + [last]


def test_successive_runs_each_flush(tmp_path, monkeypatch):
    # the first run ends with 101 records, none of them in a full block;
    # the encoder forks at the second run's first full block, and digest()
    # is asked between the runs
    outcomes, forked = _run_each_sink(tmp_path, monkeypatch, _numbered_events(401),
                                      [100.5, 400.5])
    assert forked == _forks_at_a_full_block(tmp_path, 401)
    block, in_process, reference = outcomes
    assert block == in_process == reference
    _, digest, consumed, after_each, _ = block
    assert [(count, last) for count, last, _ in after_each] == \
        [(101, consumed[100]), (401, consumed[400])]
    assert after_each[-1][2] == digest != after_each[0][2]
    one_run, _ = _run_each_sink(tmp_path, monkeypatch, _numbered_events(401), [400.5])
    assert all(outcome[:3] == block[:3] for outcome in one_run)


def _forking_run(tmp_path, name, schedule, t_end=600.0):
    """The file bytes and digest of ``schedule`` run to ``t_end`` with the
    block sink, streaming into ``name``, and the encoders it forked."""
    eng = _engine()
    schedule(eng)
    path = tmp_path / name
    eng.trace.open(path)
    with encoders_forked() as forked:
        try:
            eng.run_until(t_end)
            digest = eng.trace.write(path)
        finally:
            eng.close()
    no_child_left()
    return path.read_bytes(), digest, [child.what for child in forked]


@contextlib.contextmanager
def _second_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive()


def _fork_refused(*args):
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("how", ["no-fork", "fork-refused", "second-thread", "one-cpu"])
def test_an_encoder_the_fork_rule_refuses_leaves_the_same_bytes(tmp_path, monkeypatch, how):
    data, digest, forked = _forking_run(tmp_path, "forked.jsonl", _numbered_events(513))
    assert forked == [f"encoding trace {tmp_path / 'forked.jsonl'}"]
    with monkeypatch.context() as patch:
        refused = contextlib.nullcontext()
        if how == "no-fork":
            patch.delattr(os, "fork")
        elif how == "fork-refused":
            patch.setattr(os, "fork", _fork_refused)
        elif how == "one-cpu":  # the process at work has the only CPU
            patch.setattr(sim, "_cpus", lambda: 1)
        else:
            patch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
            refused = _second_thread()
        with refused:
            assert _forking_run(tmp_path, "here.jsonl", _numbered_events(513)) == \
                (data, digest, [])


def test_a_block_pickle_refuses_is_encoded_here_with_the_same_bytes(tmp_path, monkeypatch):
    class Label(str):
        """A string ``canonical_json`` writes as any other, and pickle
        refuses: its class is local to this test."""

    with pytest.raises((AttributeError, pickle.PicklingError), match="local object"):
        pickle.dumps(Label("outlet"))

    def schedule(eng):
        _numbered_events(513)(eng)
        eng.schedule_at(300.5, "label", data={"name": Label("outlet")})

    data, digest, forked = _forking_run(tmp_path, "forked.jsonl", schedule)
    assert forked == [f"encoding trace {tmp_path / 'forked.jsonl'}"]
    monkeypatch.delattr(os, "fork")
    assert _forking_run(tmp_path, "here.jsonl", schedule) == (data, digest, [])
    assert b'"data":{"name":"outlet"}' in data


def test_every_block_is_sent_for_the_encoder_child_to_encode_with_the_same_bytes(
        tmp_path, monkeypatch):
    requests = []
    send = sim.EventTrace._send

    def recorded(trace, tag, body=None):
        requests.append(tag)
        send(trace, tag, body)

    monkeypatch.setattr(sim.EventTrace, "_send", recorded)
    data, digest, forked = _forking_run(tmp_path, "forked.jsonl", _numbered_events(1000),
                                        t_end=1000.0)
    assert forked == [f"encoding trace {tmp_path / 'forked.jsonl'}"]
    assert requests == ["block"] * 4 + ["footer"]
    monkeypatch.delattr(os, "fork")
    assert _forking_run(tmp_path, "here.jsonl", _numbered_events(1000), t_end=1000.0) == \
        (data, digest, [])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="CPU affinity is Linux's")
def test_a_forked_child_leaves_the_cpu_its_parent_runs_on(monkeypatch):
    cpus = os.sched_getaffinity(0)
    assert sim._cpu_now() in cpus
    cpu = min(cpus)
    monkeypatch.setattr(sim, "_cpu_now", lambda: cpu)

    def serve(inp):
        yield os.sched_getaffinity(0)

    child = sim.fork_child("reporting its CPUs", serve)
    assert child is not None
    try:
        # with one CPU to run on, the child shares it
        assert list(child.results) == [cpus - {cpu} or cpus]
    finally:
        child.end()
    no_child_left()
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("value, error", [(object(), TypeError), (math.nan, ValueError)],
                         ids=["object", "json-refuses"])
def test_a_record_that_cannot_be_encoded_raises_what_it_raises_here(tmp_path, monkeypatch,
                                                                    value, error):
    # pickle takes both values, so the record reaches the encoder child,
    # whose error is raised here at the next block or request
    def schedule(eng):
        _numbered_events(600)(eng)
        eng.schedule_at(300.5, "bad", fn=lambda at, data: {"v": value})

    def raised():
        with pytest.raises(error) as info:
            _forking_run(tmp_path, "t.jsonl", schedule)
        no_child_left()
        return str(info.value)

    parent = os.getpid()
    encode = sim._encode
    encoded_here = []

    def recorded(block):
        if os.getpid() == parent:
            encoded_here.append(block)
        return encode(block)

    with monkeypatch.context() as patch:
        patch.setattr(sim, "_encode", recorded)
        with encoders_forked() as forked:
            message = raised()
    assert len(forked) == 1
    assert encoded_here == []
    monkeypatch.delattr(os, "fork")
    assert raised() == message


def test_an_os_error_in_the_encoder_child_is_raised_here(tmp_path, monkeypatch):
    # a full disk, say: the CLI reports an OSError as an output error, exit 2
    parent = os.getpid()
    encode = sim._encode

    def full(block):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return encode(block)

    monkeypatch.setattr(sim, "_encode", full)
    with encoders_forked() as forked, pytest.raises(OSError) as info:
        _forking_run(tmp_path, "t.jsonl", _numbered_events(600))
    assert len(forked) == 1
    assert info.value.errno == errno.ENOSPC
    no_child_left()


def test_an_interrupt_once_the_encoder_runs_leaves_no_child(tmp_path):
    def interrupt(at, data):
        raise KeyboardInterrupt

    eng = _engine()
    _numbered_events(600)(eng)
    eng.schedule_at(300.5, "interrupt", fn=interrupt)
    path = tmp_path / "t.jsonl"
    eng.trace.open(path)
    with encoders_forked() as forked, pytest.raises(KeyboardInterrupt):
        try:
            eng.run_until(600.0)
        finally:
            eng.close()
    assert [child.what for child in forked] == [f"encoding trace {path}"]
    no_child_left()
    with pytest.raises(TraceParseError, match="missing digest footer"):
        read_trace(path)


@pytest.mark.parametrize("file", [True, False], ids=["written", "hashed-only"])
def test_a_killed_encoder_is_an_error_naming_its_trace(tmp_path, file):
    eng = _engine()
    _numbered_events(2000)(eng)
    path = tmp_path / "t.jsonl"
    if file:
        eng.trace.open(path)
    name = path if file else "of 't' with seed 8"
    with encoders_forked() as forked:
        eng.schedule_at(300.5, "kill", fn=lambda at, data: os.kill(forked[0].pid, signal.SIGKILL))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=rf"^the process encoding trace {re.escape(str(name))}"
                                               r" exited with code -9$"):
            try:
                eng.run_until(2000.0)
                eng.trace.write(path) if file else eng.trace.digest()
            finally:
                eng.close()
    assert time.monotonic() - start < 30.0
    no_child_left()


def test_a_child_killed_as_it_writes_a_result_is_named_with_its_exit_code():
    # the result outgrows the pipe, so the child blocks inside it, and the
    # stream it leaves is cut short mid-result
    def serve(inp):
        yield b"x" * (8 << 20)

    child = sim.fork_child("writing a large result", serve)
    assert child is not None
    try:
        assert select.select([child.recv], [], [], 30.0)[0], "the child wrote nothing"
        os.kill(child.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError,
                           match="^the process writing a large result exited with code -9$"):
            next(child.results)
    finally:
        child.end()
    no_child_left()


@pytest.mark.parametrize("count, forks", [(0, 0), (sim.FORK_CHUNK, 0), (sim.FORK_CHUNK + 1, 1)],
                         ids=["empty", "one-chunk", "one-chunk-and-one"])
def test_a_feed_forks_only_past_one_chunk_and_its_engine_ends_it(count, forks):
    parent = os.getpid()
    eng = Engine(seed=1)
    with encoders_forked() as children:
        take = eng.feed(lambda k: (k * k, os.getpid() != parent), count, "computing squares")
    assert [child.what for child in children] == ["computing squares"] * forks
    assert [take() for _ in range(count)] == [(k * k, forks == 1) for k in range(count)]
    with pytest.raises(StopIteration):
        take()
    eng.close()
    no_child_left()


def test_a_closed_trace_whose_encoder_ran_takes_no_more_records():
    eng = _engine()
    _numbered_events(300)(eng)
    eng.run_until(299.0)
    digest = eng.trace.digest()
    eng.close()
    no_child_left()
    with pytest.raises(ValueError, match="encoder child has ended"):
        eng.trace.digest()
    # the in-process sink agrees on the digest
    reference = _engine(_PerRecordTrace)
    _numbered_events(300)(reference)
    assert reference.run_until(299.0).digest() == digest


def test_open_after_an_unflushed_take_raises(tmp_path):
    trace = sim.EventTrace(seed=1)
    trace.take({"at": 0.0, "kind": "x", "seq": 0})
    assert trace.count == 0  # the record is pending, not yet flushed
    with pytest.raises(ValueError, match="before the first record"):
        trace.open(tmp_path / "t.jsonl")
    assert not (tmp_path / "t.jsonl").exists()


# --- reading a trace with and without a consumer ---------------------------


@st.composite
def _trace_lines(draw):
    """A line as a trace file might hold it: a JSON value as the encoder or
    ``json.dumps`` writes it, perhaps cut short, with perhaps whitespace or a
    BOM before it and whitespace or garbage after it."""
    obj = draw(_RECORDS)
    text = canonical_json(obj) if draw(st.booleans()) else json.dumps(obj)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    lead = draw(st.sampled_from(["", " ", "\t", "  ", "\ufeff", " \ufeff"]))
    trail = draw(st.sampled_from(["", " ", "\t ", "x", "]", "}", ",1", " {}", "\r"]))
    return lead + text + trail + draw(st.sampled_from(["\n", ""]))


def _read_outcome(path, consume=None):
    try:
        parsed = read_trace(path, consume)
    except TraceParseError as exc:
        return "error", str(exc), exc.line
    return "ok", repr(parsed)


@given(_trace_lines(), st.integers(0, 3))
def test_read_trace_matches_a_json_loads_reader(line, where):
    # the mutated line goes in as the header, a record or the footer; read
    # with a consumer, every line goes through json.loads
    lines = [canonical_json({"format": sim.TRACE_FORMAT, "seed": 1}) + "\n",
             canonical_json({"at": 1.0, "kind": "a", "seq": 0}) + "\n",
             canonical_json({"at": 2.0, "kind": "b", "seq": 1}) + "\n",
             canonical_json({"trace_digest": "0" * 64}) + "\n"]
    lines[where] = line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        records = []
        assert _read_outcome(path) == _read_outcome(path, records.append)


def test_unparsable_record_under_a_recomputed_footer_is_only_hashed(tmp_path):
    # the one file the two reads tell apart: its lines hash to its footer,
    # so without a consumer no record line is decoded
    path = tmp_path / "t.jsonl"
    trace, _ = _normal_trace(path)
    trace.write(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:6] + "\n"
    digest = hashlib.sha256("".join(lines[:-1])[:-1].encode("utf-8")).hexdigest()
    lines[-1] = canonical_json({"trace_digest": digest}) + "\n"
    path.write_text("".join(lines))
    parsed = read_trace(path)
    assert parsed.stored_digest == parsed.digest == digest
    with pytest.raises(TraceParseError, match="^line 3: bad JSON"):
        read_trace(path, lambda record: None)


@pytest.mark.parametrize("line", [1, 3, 52], ids=["header", "record", "footer"])
def test_a_line_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, line):
    path = tmp_path / "t.jsonl"
    trace, _ = _normal_trace(path)
    trace.write(path)
    lines = path.read_bytes().split(b"\n")
    assert len(lines) == 53 and lines[-1] == b""  # 50 records, header, footer
    lines[line - 1] = lines[line - 1][:4] + b"\xff" + lines[line - 1][4:]
    path.write_bytes(b"\n".join(lines))
    for consume in (None, lambda record: None):
        with pytest.raises(TraceParseError,
                           match=rf"^line {line}: not UTF-8 \(byte 5: invalid start byte\)$"):
            read_trace(path, consume)


def test_read_trace_digest_is_the_written_digest_of_the_lines_read(tmp_path):
    path = tmp_path / "t.jsonl"
    trace, _ = _normal_trace(path)
    digest = trace.write(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace('"draw":', '"draw":1,"was":', 1)
    path.write_text("".join(lines))
    parsed = read_trace(path)
    assert parsed.stored_digest == digest
    assert parsed.digest == hashlib.sha256("".join(lines[:-1])[:-1].encode("utf-8")).hexdigest()
    assert parsed.digest != digest
