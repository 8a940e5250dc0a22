"""Config fuzzing: a config dict derived from DEFAULT_CONFIG, with sizes kept
small and some values replaced by wrong types, negatives, zeros, None or
unknown keys, must end in a ConfigError or in a complete trace whose checks
evaluate, for every command. It must never raise anything else or truncate a
trace."""
import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chargesim.config import DEFAULT_CONFIG, ConfigError, from_dict
from chargesim.experiments import COMMANDS, run

DAY_S = 86400.0

# Replacement values. 60.5 is a wrong type where an integer is expected and
# at least the 60 s minimum where a period or slot length is, so no mutation
# can shrink a period into a long run.
MUTANTS = (None, 0, 0.0, -1, -0.5, 60.5, float("nan"), float("inf"), True, "x", [], {}, [1],
           {"unknown": 1})
UNKNOWN_KEYS = ("unknown", "trails", "extra_s")


def paths(node, prefix=()):
    """The path of ``node`` and of every value inside it."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from paths(value, prefix + (key,))


@st.composite
def configs(draw):
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["duration_s"] = draw(st.floats(0.0, 2 * DAY_S))
    raw["probe_period_s"] = draw(st.floats(60.0, DAY_S))
    raw["push_period_s"] = draw(st.floats(60.0, 3600.0))
    raw["trial_spacing_s"] = draw(st.floats(60.0, 3600.0))
    raw["trials"] = draw(st.integers(0, 50))
    raw["round_robin"]["slot_length_s"] = draw(st.floats(60.0, DAY_S))
    raw["duty_sweep"]["steps"] = draw(st.integers(1, 20))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(paths(raw))[1:]))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        if isinstance(target, dict) and draw(st.booleans()):
            target[draw(st.sampled_from(UNKNOWN_KEYS))] = draw(st.sampled_from(MUTANTS))
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
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
