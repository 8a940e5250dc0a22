"""Config fuzzing: a config dict drawn from DEFAULT_CONFIG and the merged
presets, with sizes kept small and the values at key paths drawn from the
schema replaced by wrong types, negatives, zeros, None or unknown keys, must
end in a ConfigError or in a complete trace whose checks evaluate, for every
command. It must never raise anything else or truncate a trace.

A drawn path may lead through sections the base config lacks (a latency
model, `expect`, a schedule window, an EV's settle keys); each missing one is
filled in with content that passes its own checks before the mutation."""
import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chargesim.config import (
    OPTIONAL,
    PRESETS,
    REQUIRED,
    SCHEMA,
    ByOutlet,
    ConfigError,
    ListOf,
    Section,
    from_dict,
    resolve,
)
from chargesim.experiments import COMMANDS, run

DAY_S = 86400.0

# The merged presets; the "default" one is DEFAULT_CONFIG itself.
BASES = [resolve(name).raw for name in sorted(PRESETS)]

# Replacement values. 60.5 is a wrong type where an integer is expected and
# at least the 60 s minimum where a period or slot length is, so no mutation
# can shrink a period into a long run.
MUTANTS = (None, 0, 0.0, -1, -0.5, 60.5, float("nan"), float("inf"), True, "x", [], {}, [1],
           {"unknown": 1})
UNKNOWN_KEYS = ("unknown", "trails", "extra_s")
ENTRY = "[]"  # a list entry or an outlet key in a schema path


def schema_paths(node, prefix=()):
    """The path of ``node`` and of every key inside it."""
    yield prefix
    if isinstance(node, Section):
        for key, sub in node.fields.items():
            yield from schema_paths(sub, prefix + (key,))
    elif isinstance(node, (ListOf, ByOutlet)):
        yield from schema_paths(node.item, prefix + (ENTRY,))


PATHS = list(schema_paths(SCHEMA))[1:]


def valid(node):
    """Content that passes ``node``'s own checks: its required keys only."""
    if isinstance(node, Section):
        return {key: valid(sub) for key, sub in node.fields.items() if sub.default is REQUIRED}
    if isinstance(node, ListOf):
        if node.default is REQUIRED or node.default is OPTIONAL:
            return [valid(node.item)]
        return copy.deepcopy(node.default)
    if isinstance(node, ByOutlet):
        return {"0": valid(node.item)}
    return 1 if node.type is int else 1.0


def entry_key(draw, container, node):
    """A key of an existing entry of ``container``, adding one if it has none."""
    if not container:
        if isinstance(container, list):
            container.append(valid(node.item))
        else:
            container["0"] = valid(node.item)
    if isinstance(container, list):
        return draw(st.integers(0, len(container) - 1))
    return draw(st.sampled_from(sorted(container, key=str)))


def mutate(draw, raw: dict, path: tuple) -> None:
    container, node = raw, SCHEMA
    for depth, step in enumerate(path):
        key = step if step != ENTRY else entry_key(draw, container, node)
        node = node.item if step == ENTRY else node.fields[step]
        if depth == len(path) - 1:
            break
        child = container[key] if step == ENTRY else container.get(key)
        if not isinstance(child, list if isinstance(node, ListOf) else dict):
            child = container[key] = valid(node)
        container = child
    target = container[key] if step == ENTRY else container.get(key)
    if isinstance(target, dict) and draw(st.booleans()):
        target[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(st.sampled_from(MUTANTS))
    else:
        container[key] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))


@st.composite
def configs(draw):
    raw = copy.deepcopy(draw(st.sampled_from(BASES)))
    raw["duration_s"] = draw(st.floats(0.0, 2 * DAY_S))
    raw["probe_period_s"] = draw(st.floats(60.0, DAY_S))
    raw["push_period_s"] = draw(st.floats(60.0, 3600.0))
    raw["trial_spacing_s"] = draw(st.floats(60.0, 3600.0))
    raw["trials"] = draw(st.integers(0, 50))
    raw["round_robin"]["slot_length_s"] = draw(st.floats(60.0, DAY_S))
    raw["duty_sweep"]["steps"] = draw(st.integers(1, 20))
    for _ in range(draw(st.integers(0, 3))):
        mutate(draw, raw, draw(st.sampled_from(PATHS)))
    return raw


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs())
def test_config_ends_in_config_error_or_a_complete_run(command, raw):
    try:
        out = run(command, from_dict(raw))
    except ConfigError:
        return
    assert not out.truncated, [c.detail for c in out.checks]
    assert out.checks and all(isinstance(c.ok, bool) for c in out.checks)
