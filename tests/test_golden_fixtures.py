"""Recorded results pin the simulator's output across commits.

``tests/golden/`` holds one ``SimulationResult.to_dict()`` per recorded
point: the scheme x replacement-policy matrix on ``can_ccomp``, three
switching, walk-heavy ``ccomp`` runs, and three CSALT-CD runs whose
partition profilers read the replacement policy's estimated stack
positions (see ``tests/golden/record.py`` for the points and how to
regenerate them).  Each test re-simulates its point and requires the
same parsed JSON, naming the first field that differs.  The fixtures
are the oracle for every replacement policy, which has no second
implementation to compare against.

``tests/golden/exhibits-gups.json`` pins the arithmetic of every report
exhibit the same way: each exhibit renders on the ``gups`` mix and must
reproduce its recorded rows exactly.
"""

from __future__ import annotations

import json
from typing import Optional

import pytest

from repro.experiments import runner
from repro.experiments.report import EXPERIMENTS
from tests.golden.record import (
    ESTIMATE,
    EXHIBIT_FIXTURE,
    MATRIX,
    SWITCHING,
    fixture_path,
    render_exhibit,
    simulate,
)


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


def check_fixture(point) -> None:
    expected = json.loads(fixture_path(point).read_text(encoding="utf-8"))
    difference = first_difference(expected, simulate(point))
    assert difference is None, f"{fixture_path(point).name}: {difference}"


@pytest.mark.parametrize(
    "point", MATRIX, ids=lambda point: f"{point.scheme}-{point.policy}"
)
def test_result_matches_fixture(point):
    check_fixture(point)


@pytest.mark.parametrize(
    "point", SWITCHING, ids=lambda point: f"{point.mix}-{point.scheme}"
)
def test_switching_run_matches_fixture(point):
    check_fixture(point)


@pytest.mark.parametrize("point", ESTIMATE, ids=lambda point: point.policy)
def test_estimated_positions_match_fixture(point):
    check_fixture(point)


@pytest.mark.parametrize("name", [name for name, _ in EXPERIMENTS])
def test_exhibit_matches_fixture(name):
    expected = json.loads(EXHIBIT_FIXTURE.read_text(encoding="utf-8"))
    assert name in expected, f"{name} has no recorded rendering"
    runner.set_store(None)
    try:
        difference = first_difference(expected[name], render_exhibit(name), name)
    finally:
        runner.clear_cache()
    assert difference is None, f"{EXHIBIT_FIXTURE.name}: {difference}"


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
