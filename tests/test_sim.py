"""Engine tests: ordering, determinism, streams, trace files."""
import hashlib
import json
import math
import random
import tempfile
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
    eng.run_until(1001.0)
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
    trace = eng.run_until(604800.0)
    assert len(trace.records) == 2016


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


def _run_both_sinks(tmp_path, schedule, ends):
    """Run ``schedule`` streaming into a file, on an engine with the block
    sink and on one with the per-record sink, calling ``run_until`` at each
    of ``ends``. Returns, for each: the file bytes, ``digest()``, the
    consumed records, ``(count, last)`` after each run, and ``failed``."""
    outcomes = []
    for sink in (sim.EventTrace, _PerRecordTrace):
        eng = Engine(seed=8, meta={"command": "t", "config": {"n": 1}})
        eng.trace = sink(eng.seed, eng.trace.config_digest, eng.meta)
        schedule(eng)
        trace = eng.trace
        consumed = []
        trace.consume = consumed.append
        path = tmp_path / f"{sink.__name__}.jsonl"
        trace.open(path)
        after_each = []
        for t_end in ends:
            eng.run_until(t_end)
            after_each.append((trace.count, trace.last))
        digest = trace.digest()
        trace.write(path)
        outcomes.append((path.read_bytes(), digest, consumed, after_each, trace.failed))
    return outcomes


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
def test_block_sink_matches_a_per_record_sink(tmp_path, n):
    block, reference = _run_both_sinks(tmp_path, _numbered_events(n), [float(n)])
    assert block == reference
    _, _, consumed, [(count, last)], failed = block
    assert count == len(consumed) == n and not failed
    assert [r["data"]["i"] for r in consumed] == list(range(n))
    assert last == (consumed[-1] if n else None)


def test_block_sink_holds_at_most_one_block():
    # while event i runs, the i records before it are flushed in whole blocks
    eng = Engine(seed=1)
    seen = []
    for i in range(600):
        eng.schedule_at(float(i), "e", fn=lambda at, data: seen.append(eng.trace.count))
    assert len(eng.run_until(600.0).records) == 600
    assert seen == [i // sim.BLOCK_RECORDS * sim.BLOCK_RECORDS for i in range(600)]


def test_failure_with_records_pending_ends_the_trace(tmp_path):
    # 290 records are taken, 34 of them pending, when event 290 raises
    block, reference = _run_both_sinks(tmp_path, _numbered_events(300, fail_at=290), [300.0])
    assert block == reference
    data, _, consumed, [(count, last)], failed = block
    assert failed and count == 291
    assert [r["data"]["i"] for r in consumed] == list(range(290))
    assert last["error"] == "RuntimeError: event 290" and last["data"] == {"i": 290}
    lines = data.decode("utf-8").splitlines()
    assert [json.loads(line) for line in lines[1:-1]] == consumed + [last]


def test_successive_runs_each_flush(tmp_path):
    block, reference = _run_both_sinks(tmp_path, _numbered_events(401), [100.5, 400.5])
    assert block == reference
    _, _, consumed, after_each, _ = block
    assert after_each == [(101, consumed[100]), (401, consumed[400])]
    one_run, _ = _run_both_sinks(tmp_path, _numbered_events(401), [400.5])
    assert one_run[:3] == block[:3]


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
