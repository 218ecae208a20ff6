"""``src/`` holds no code that only tests call, and no unused import.

Every function, method and class that ``src/repro`` defines must be
named somewhere besides its own definition in the code that ships or
drives the simulator: ``src/``, ``perf/``, ``examples/`` and the
top-level ``benchmarks/*.py``.  A name whose one whole-word occurrence
there is its definition is reached from ``tests/`` or from nowhere.

The scan is textual, so a method sharing its name with another
definition (``reset_stats`` on several classes, say) counts at least
twice and slips through; the check trades those misses for needing no
allowlist.

Every name a ``src/repro`` module imports must be used in that module,
as a name or inside a string annotation (``"PomTlb"``); docstrings and
comments do not count.  ``__init__.py`` re-exports and ``__future__``
imports are exempt.
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


def _imported_names(tree):
    """``(name, line)`` of every binding an import statement makes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is not None:
            yield annotation


def _used_names(tree):
    """Every ``Name`` in ``tree``, string annotations parsed."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_every_source_import_is_used():
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused.extend(
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imported_names(tree)
            if name not in used
        )
    assert not unused, (
        "imported in src/ but never used in the importing module (delete "
        "the import):\n  " + "\n  ".join(unused)
    )
