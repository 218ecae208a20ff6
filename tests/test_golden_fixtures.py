"""Recorded results pin the simulator's output across commits.

``tests/golden/`` holds one ``SimulationResult.to_dict()`` per scheme x
replacement-policy point (see ``tests/golden/record.py`` for the points
and how to regenerate them).  Each test re-simulates its point and
requires the same parsed JSON, naming the first field that differs.
"""

from __future__ import annotations

import json
from typing import Optional

import pytest

from tests.golden.record import POINTS, fixture_path, simulate


def first_difference(expected, actual, path: str = "result") -> Optional[str]:
    """Where two parsed JSON values first differ, or ``None`` if equal.

    Dict keys are visited in sorted order.  ``1`` and ``1.0`` differ:
    a result that changes a field's type has changed.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys()):
            if key not in actual:
                return f"{path}.{key}: missing"
            if key not in expected:
                return f"{path}.{key}: not in the fixture"
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = first_difference(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)}, fixture has {len(expected)}"
        return None
    if type(expected) is not type(actual) or expected != actual:
        return f"{path}: {actual!r}, fixture has {expected!r}"
    return None


@pytest.mark.parametrize("scheme, policy", POINTS)
def test_result_matches_fixture(scheme, policy):
    expected = json.loads(fixture_path(scheme, policy).read_text(encoding="utf-8"))
    difference = first_difference(expected, simulate(scheme, policy))
    assert difference is None, f"{scheme}/{policy}: {difference}"


def test_first_difference_names_the_field():
    expected = {"a": 1, "b": {"c": [1.0, 2.0]}}
    assert first_difference(expected, json.loads(json.dumps(expected))) is None
    assert first_difference(expected, {"a": 1, "b": {"c": [1.0, 2.5]}}) == (
        "result.b.c[1]: 2.5, fixture has 2.0"
    )
    assert first_difference(expected, {"a": 1.0, "b": {"c": [1.0, 2.0]}}) == (
        "result.a: 1.0, fixture has 1"
    )
    assert first_difference(expected, {"b": {"c": [1.0]}}) == "result.a: missing"
    assert first_difference(expected, {"a": 1, "b": {"c": [1.0]}}) == (
        "result.b.c: length 1, fixture has 2"
    )
