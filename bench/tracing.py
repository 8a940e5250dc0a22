"""Per-layer tracing for the chargesim benchmark.

Run as a script, this is a drop-in for ``python -m chargesim.cli``: it wraps
the public functions of each chargesim module in spans and counters, runs
the CLI with the remaining arguments, and writes the aggregated per-layer
figures as JSON::

    python bench/tracing.py --stats stats.json -- compare-protocols --check --out out/

Nothing is added to the program's own source: every wrapper is installed
from this file by replacing module and class attributes before the CLI
runs. The wrappers draw no randomness and return what the wrapped function
returned, so a traced run must reproduce the untraced trace digests.

A span is aggregated as soon as it closes: per name, the recorder keeps the
call count, the total duration and the self time (duration minus the time
covered by child spans). Individual spans are not stored, so the reference
workload's million-odd spans cost no memory.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time


class SpanRecorder:
    """Nested spans aggregated by name, plus plain counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._stack: list = []  # [name, start_ns, child_ns] per open span
        self.spans: dict = {}  # name -> [count, total_ns, self_ns]
        self.counters: dict = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span called ``name``; ``after(result, args)`` runs
        once the span has closed and may update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "spans": {k: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                      for k, (c, t, s) in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def _patch(rec: SpanRecorder, name: str, targets, attr: str, after=None) -> None:
    """Wrap ``attr`` once and bind the wrapper on every object in ``targets``
    that refers to it, so calls through imported names are traced too."""
    wrapped = rec.wrap(name, getattr(targets[0], attr), after)
    for target in targets:
        setattr(target, attr, wrapped)


def install(rec: SpanRecorder) -> None:
    """Wrap the public calls of every chargesim layer in ``rec``'s spans."""
    from chargesim import cli, config, control, domain, experiments, latency, pic, proto, sched, sim

    _patch(rec, "config.resolve", [config, cli], "resolve")
    _patch(rec, "cli.emit", [cli], "_emit")
    for command, fn in list(cli._RUNNERS.items()):
        cli._RUNNERS[command] = rec.wrap("experiments.cmd", fn)
    _patch(rec, "experiments.cmd", [cli, experiments], "cmd_replay")

    # sim: engine dispatch, handler time, streams, trace encoding and reading
    run_until = sim.Engine.run_until

    @functools.wraps(run_until)
    def run_until_traced(self, t_end):
        before = len(self.trace.records)
        rec.enter("sim.run_until")
        try:
            trace = run_until(self, t_end)
        finally:
            rec.exit()
        rec.count("sim.events", len(trace.records) - before)
        return trace

    sim.Engine.run_until = run_until_traced

    schedule_at = sim.Engine.schedule_at

    @functools.wraps(schedule_at)
    def schedule_at_traced(self, at, kind, data=None, fn=None):
        if fn is not None:
            fn = rec.wrap("sim.handler", fn)
        return schedule_at(self, at, kind, data, fn)

    sim.Engine.schedule_at = schedule_at_traced

    _patch(rec, "sim.substream", [sim, experiments], "substream")
    _patch(rec, "sim.digest", [sim.EventTrace], "digest")

    def count_bytes(_digest, args):
        rec.count("sim.trace_bytes", os.path.getsize(args[1]))

    _patch(rec, "sim.trace_write", [sim.EventTrace], "write", count_bytes)
    _patch(rec, "sim.read_trace", [sim, experiments], "read_trace")

    # latency: every mixture draw
    _patch(rec, "latency.sample", [latency.LatencyModel], "sample")

    # domain: reads are snapshots taken by other layers (a write's internal
    # snapshot stays inside the write); writes are set_current + apply_relay
    _patch(rec, "domain.snapshot", [proto, pic, control], "meter_snapshot")
    _patch(rec, "domain.write", [domain, experiments, control], "set_current")
    _patch(rec, "domain.write", [domain, experiments, control], "apply_relay")

    # proto: pulls, the wire messages they build, and push consumption
    def count_retrieval(result, _args):
        rec.count("proto.messages_built", len(result.messages))
        rec.count("proto.requests", result.request_count)
        rec.count("proto.request_errors", len(result.errors))

    _patch(rec, "proto.legacy_pull", [proto], "legacy_pull", count_retrieval)
    pic_pull = proto.pic_pull

    @functools.wraps(pic_pull)
    def pic_pull_counted(*args, **kwargs):
        try:
            return pic_pull(*args, **kwargs)
        except proto.RequestTimeout:
            rec.count("proto.requests")
            rec.count("proto.request_errors")
            raise

    proto.pic_pull = rec.wrap("proto.pic_pull", pic_pull_counted, count_retrieval)

    def count_discard(staleness, _args):
        rec.count("proto.push_discards", staleness is None)

    _patch(rec, "proto.push_consume", [proto], "push_consume", count_discard)

    # pic: sweeps, bus reads, main-loop passes, cache-served pulls
    _patch(rec, "pic.collect_all", [pic], "collect_all")
    _patch(rec, "pic.main_loop_step", [pic], "main_loop_step")
    bus_read = pic.MeterBus.read

    @functools.wraps(bus_read)
    def bus_read_counted(self, outlet, at):
        rec.count("pic.bus_reads")
        return bus_read(self, outlet, at)

    pic.MeterBus.read = bus_read_counted

    def count_served(reply, _args):
        rec.count("pic.cache_served", reply[1] == 0.0)

    _patch(rec, "pic.serve_aggregate", [pic.PicEndpoint], "serve_aggregate", count_served)

    # control: duty-cycle changes and their verification reads
    def count_change(change, _args):
        rec.count("control.verification_reads", len(change.reads))
        confirmed = change.outcome is control.DutyOutcome.CONFIRMED
        rec.count("control.first_read_confirms", confirmed and len(change.reads) == 1)

    _patch(rec, "control.change_duty_cycle", [control, experiments], "change_duty_cycle",
           count_change)

    # sched: round-robin allocation steps
    _patch(rec, "sched.round_robin_step", [sched], "round_robin_step")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--stats" or argv[2] != "--":
        print("usage: tracing.py --stats FILE -- CHARGESIM_ARGS...", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[1], argv[3:]
    rec = SpanRecorder()
    install(rec)
    from chargesim import cli

    rec.enter("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        rec.exit()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(rec.to_dict(), fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
