"""``src/`` holds no code that only tests call.

Every function, method and class that ``src/repro`` defines must be
named somewhere besides its own definition in the code that ships or
drives the simulator: ``src/``, ``perf/``, ``examples/`` and the
top-level ``benchmarks/*.py``.  A name whose one whole-word occurrence
there is its definition is reached from ``tests/`` or from nowhere.

The scan is textual, so a method sharing its name with another
definition (``reset_stats`` on several classes, say) counts at least
twice and slips through; the check trades those misses for needing no
allowlist.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_WORD = re.compile(r"\w+")


def _caller_files():
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield from sorted((ROOT / "perf").rglob("*.py"))
    yield from sorted((ROOT / "examples").rglob("*.py"))
    yield from sorted((ROOT / "benchmarks").glob("*.py"))


def _source_definitions():
    """``{name: "path:line"}`` of every non-dunder def and class."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            found.setdefault(name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_every_source_definition_is_named_outside_tests():
    # A token of ``\w+`` is a maximal word run, so counting tokens
    # equal to a name counts its whole-word occurrences.
    words = Counter()
    for path in _caller_files():
        words.update(_WORD.findall(path.read_text()))
    test_only = sorted(
        f"{where}: {name}"
        for name, where in _source_definitions().items()
        if words[name] == 1
    )
    assert not test_only, (
        "defined in src/ but named nowhere in src/, perf/, examples/ or "
        "benchmarks/*.py except at the definition (only tests call it; "
        "delete it, or move it into the tests):\n  " + "\n  ".join(test_only)
    )
