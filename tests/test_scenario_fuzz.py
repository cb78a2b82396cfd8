"""Property test of the scenario loader: one field of a bundled scenario is
replaced by an arbitrary JSON value or deleted, and the loader must answer
with a :class:`Scenario` or a :class:`ScenarioError`, never anything else."""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from deceptive_nes.scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    scenario_from_dict,
)

BUNDLED = json.loads(bundled_scenario_path("three_firm_deception").read_text())
DELETE = object()


def _paths(node, prefix=()):
    """Every key and list position of a JSON document, outermost first."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BUNDLED))

# Strings from a small alphabet (the full unicode one costs seconds to set
# up), with the scenario's own keys mixed in so objects can look valid.
TEXT = st.text(alphabet="0123456789abcdefghijklmnopqrstuvwxyz_.- é", max_size=6) \
    | st.sampled_from([str(k) for path in PATHS for k in path if isinstance(k, str)])

# What json.loads can return: NaN, infinities and integers of any size too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=8,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(path=st.sampled_from(PATHS), value=st.just(DELETE) | JSON_VALUES)
def test_loader_answers_one_edited_field_with_scenario_or_scenario_error(
        path, value):
    doc = copy.deepcopy(BUNDLED)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        result = scenario_from_dict(doc)
    except ScenarioError:
        return
    assert isinstance(result, Scenario)
