"""Reader audit: every trace record field and every config leaf is read by
something, or is listed in ``UNREAD`` with the reason it stays.

Each command runs once on a small config that sets every optional section.
Its config is loaded through ``from_dict`` with the checked tree wrapped so
that every key the loader, the builders and the folds read is logged; a
fresh fold of each trace is then handed every record of that trace, each
wrapped the same way.
"""
import re

import pytest

from chargesim import config
from chargesim.config import SCHEMA, ByOutlet, ListOf, Section, from_dict
from chargesim.experiments import COMMANDS, build_trace, finish

# Unread keys, each with why it stays and the ROADMAP item that ends it.
# Trace fields are ``kind.data.key`` or ``kind.state.key`` (a map keyed by
# outlet is one field); config leaves are schema paths, ``[]`` standing for
# a list item and ``<outlet>`` for an outlet key.
UNREAD = {
    # compare-protocols
    "trial.state.pic_stale_max":
        "the aggregated pull's staleness; item 2 gives it a staleness.csv row",
    "pic-collect.state.duration":
        "the pull collector's sweep time; item 2 deletes the refresh and its record",
    "push-step.state.station": "the push station; item 4 merges push-tick into push-step",
    "push-step.state.pushes": "packets sent per main-loop pass; item 4 decides it",
    "push-step.state.messages": "messages per main-loop pass; item 4 decides it",
    "push-arrive.data.station": "context for a human reader; item 4 decides it",
    "push-arrive.data.seq": "context for a human reader; item 4 decides it",
    "push-arrive.state.station": "repeats data.station; item 4 drops it",
    "push-arrive.state.seq": "repeats data.seq; item 4 drops it",
    "push-arrive.state.stale": "per-outlet staleness; item 4 folds it or drops it",
    "stale-probe.state.station": "context for a human reader; item 4 decides it",
    "stale-probe.state.stored": "whether the store held a packet; item 4 decides it",
    "stale-probe.state.stale": "per-outlet staleness; item 4 folds it or drops it",
    # duty-cycle
    "duty-point.data.delta": "repeats state.delta; item 4 drops it",
    # local-sched
    "slot.state.alloc": "each outlet's allocation; item 4 decides it",
    "slot.state.by": "the variant, which the trace name gives; item 4 drops it",
    "sched-cmd.data.station": "the station commanded; item 4 decides it",
    "sched-cmd.data.alloc": "the allocation the server sends; item 4 decides it",
    "plug.data.outlet": "the outlet plugged; item 4 decides it",
    "plug.state.plugged": "the plugged outlets after the event; item 4 decides it",
    "unplug.data.outlet": "the outlet unplugged; item 4 decides it",
    "unplug.state.plugged": "the plugged outlets after the event; item 4 decides it",
    "mode-set.state.mode": "the station's local algorithm; item 4 decides it",
    # config
    "version": "the config format's version, checked at load; item 9 keeps it",
    "protocol": "selects nothing, hashed into each trace header; item 4 deletes it with R3",
    "legacy_pipelined":
        "selects nothing, hashed into each trace header; item 4 deletes it with R3",
    "budget.t_server_cloud": "accepts only its default; item 7 deletes budget",
    "budget.t_cloud": "accepts only its default; item 7 deletes budget",
    "budget.t_wifi": "accepts only its default; item 7 deletes budget",
    "budget.t_ethernet": "accepts only its default; item 7 deletes budget",
    "budget.t_metering": "accepts only its default; item 7 deletes budget",
    "fleet.stations[].voltage_v":
        "nothing carries a voltage; accepts only its default, and item 4 deletes the Const "
        "keys with R3",
}


def _fixed(location):
    return {"components": [{"weight": 1.0, "location": location, "spread": 0.0}],
            "hard_max": 2 * location}


# Small runs with every optional section set, so every schema leaf is there
# to be read and every record kind is written.
AUDIT_CONFIG = {
    "duration_s": 7200.0,
    "trials": 20,
    "latency": {"ethernet": _fixed(0.1), "wifi": _fixed(0.02), "threeg": _fixed(2.0),
                "local_bus": _fixed(0.001), "metering": _fixed(0.5),
                "t_server_cloud": 0.01, "t_cloud": 0.02},
    "schedule_time": {"windows": {"0": [{"start_s": 0.0, "end_s": 3600.0, "amps": 16.0}]}},
    "duty_sweep": {"steps": 3},
    "expect": {"legacy_wall_s": 10.0, "speedup_power": 4.0, "speedup_full": 8.0,
               "fixed_wait_s": 3.5},
}


class _Logged(dict):
    """A dict that adds to ``reads`` the path of each key read from it, and
    hands out its dicts and lists wrapped so that reads below it are logged
    too. Iterating over it reads every key."""

    def __init__(self, items, path, reads):
        super().__init__(items)
        self.path = path
        self.reads = reads

    def _read(self, key, value):
        path = f"{self.path}.{key}" if self.path else str(key)
        self.reads.add(path)
        return _wrap(value, path, self.reads)

    def __getitem__(self, key):
        return self._read(key, super().__getitem__(key))

    def get(self, key, default=None):
        return self[key] if key in self else default

    def __contains__(self, key):
        self._read(key, None)
        return super().__contains__(key)

    def __iter__(self):
        return iter(self.keys())

    def keys(self):
        for key in super().keys():
            self._read(key, None)
        return super().keys()

    def items(self):
        return [(key, self._read(key, value)) for key, value in super().items()]

    def values(self):
        return [value for _, value in self.items()]


def _wrap(value, path, reads):
    if type(value) is dict:
        return _Logged(value, path, reads)
    if type(value) is list:
        return [_wrap(item, f"{path}[]", reads) for item in value]
    return value


def _outlets(path):
    """``path`` with each outlet number written as ``<outlet>``."""
    return re.sub(r"\.\d+(?=[.\[]|$)", ".<outlet>", path)


def _fields(value: dict, path: str):
    """The field paths under ``value``: each key's, or, for a dict of named
    fields, those of its keys. A dict keyed by outlet is one field."""
    for key, sub in value.items():
        sub_path = f"{path}.{key}"
        if type(sub) is dict and sub and not all(str(k).isdigit() for k in sub):
            yield from _fields(sub, sub_path)
        else:
            yield _outlets(sub_path)


def _leaves(node, path=""):
    """The schema's leaf paths: a scalar, or a list of scalars, is a leaf."""
    if isinstance(node, Section):
        for key, sub in node.fields.items():
            yield from _leaves(sub, f"{path}.{key}" if path else key)
    elif isinstance(node, ByOutlet):
        yield from _leaves(node.item, f"{path}.<outlet>")
    elif isinstance(node, ListOf) and isinstance(node.item, (Section, ByOutlet, ListOf)):
        yield from _leaves(node.item, f"{path}[]")
    else:
        yield path


@pytest.fixture(scope="module")
def audit():
    """``(unread trace fields, unread config leaves)`` over every command."""
    config_reads: set = set()
    field_reads: set = set()
    fields: set = set()
    walk = config._walk

    def logged_walk(node, value, path):
        out = walk(node, value, path)
        return _Logged(out, "", config_reads) if path == "" else out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_walk", logged_walk)
        cfg = from_dict(AUDIT_CONFIG)
    for command, traces in COMMANDS.items():
        folds = []
        for name, (_, make_fold) in traces.items():
            records = []
            trace = build_trace(command, name, cfg, records.append)
            assert not trace.failed, trace.last
            fold = make_fold(cfg)
            for rec in records:
                fold.add(_Logged(rec, rec["kind"], field_reads))
                body = {part: rec[part] for part in ("data", "state") if part in rec}
                fields.update(_fields(body, rec["kind"]))
            folds.append(fold)
        finish(folds)
    # a field read on any record of its kind is read
    unread_fields = fields - {_outlets(path) for path in field_reads}
    read_leaves = {_outlets(path) for path in config_reads}
    unread_leaves = {leaf for leaf in _leaves(SCHEMA) if leaf not in read_leaves}
    return unread_fields, unread_leaves


def test_every_record_field_is_read_or_listed(audit):
    unread_fields, _ = audit
    assert sorted(unread_fields - set(UNREAD)) == []


def test_every_config_leaf_is_read_or_listed(audit):
    _, unread_leaves = audit
    assert sorted(unread_leaves - set(UNREAD)) == []


def test_every_listed_key_is_still_unread(audit):
    # a key that gained a reader, or is gone, leaves the list
    unread_fields, unread_leaves = audit
    assert sorted(set(UNREAD) - unread_fields - unread_leaves) == []


def test_every_listed_key_names_the_item_that_ends_it():
    assert [path for path, why in UNREAD.items() if not re.search(r"\bitem \d+\b", why)] == []


def test_the_audit_sees_a_read_and_an_unread_field():
    # the wrapper logs what a fold reads, nested dicts and outlet maps included
    reads: set = set()
    body = {"data": {"a": 1}, "state": {"b": 2, "c": {"d": 3, "e": 4}, "f": {"0": 5}}}
    rec = _Logged({"kind": "k", **body}, "k", reads)
    assert rec["state"].get("b") == 2 and rec["state"]["c"]["d"] == 3
    assert sorted(_fields(body, "k")) == [
        "k.data.a", "k.state.b", "k.state.c.d", "k.state.c.e", "k.state.f"]
    assert {"k.state.b", "k.state.c.d"} <= reads
    assert not {"k.data.a", "k.state.c.e", "k.state.f"} & reads
