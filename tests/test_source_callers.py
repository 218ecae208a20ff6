"""``src/`` holds no code that only tests call, and no unused import.

Every function, method and class that ``src/repro`` defines must be
named somewhere besides its own definition in the code that ships or
drives the simulator: ``src/``, ``perf/``, ``examples/`` and the
top-level ``benchmarks/*.py``.  A name whose one occurrence there is its
definition is reached from ``tests/`` or from nowhere.

The scan counts code, not prose: the Python tokens of those files, with
comments and docstrings skipped.  A name token counts, and so does each
word inside any other string literal, since ``__all__`` entries and
``getattr`` names call code by string.  f-strings count word by word on
every Python version (3.12 splits them into tokens, 3.10 and 3.11 do
not).  A name listed in ``_TEST_ONLY_ALLOWED`` may be named by tests
alone; each entry says why, and an entry that gains a caller fails the
check until it is removed.  A method sharing its name with another
definition (``reset_stats`` on several classes, say) still counts at
least twice and slips through.

Every name a ``src/repro`` module imports must be used in that module,
as a name or inside a string annotation (``"PomTlb"``); docstrings and
comments do not count.  ``__init__.py`` re-exports and ``__future__``
imports are exempt.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_WORD = re.compile(r"\w+")

#: A string token's prefix letters (``rb``, ``f``), not words of it.
_STRING_PREFIX = re.compile(r"^[A-Za-z]*")

#: ``src/`` definitions that tests alone may call, and why.
_TEST_ONLY_ALLOWED = {
    "map_page": (
        "reference implementation: tests compare the production "
        "PageTable.lookup_or_map against lookup followed by map_page"
    ),
}


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


def _docstring_spans(tree):
    """``(start, end)`` positions of every bare string statement."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            yield (
                (node.lineno, node.col_offset),
                (node.end_lineno, node.end_col_offset),
            )


def _code_words(source):
    """Whole words of ``source``'s code, comments and docstrings skipped."""
    docstrings = list(_docstring_spans(ast.parse(source)))
    # Token type names that only exist from 3.12 on.
    fstring_middle = getattr(tokenize, "FSTRING_MIDDLE", None)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            yield token.string
        elif token.type == tokenize.STRING:
            if any(
                start <= token.start and token.end <= end
                for start, end in docstrings
            ):
                continue
            yield from _WORD.findall(
                _STRING_PREFIX.sub("", token.string)
            )
        elif token.type == fstring_middle:
            yield from _WORD.findall(token.string)


def test_every_source_definition_is_named_outside_tests():
    words = Counter()
    for path in _caller_files():
        words.update(_code_words(path.read_text()))
    definitions = _source_definitions()
    test_only = {name for name in definitions if words[name] == 1}
    unexpected = sorted(
        f"{definitions[name]}: {name}"
        for name in test_only - _TEST_ONLY_ALLOWED.keys()
    )
    assert not unexpected, (
        "defined in src/ but named nowhere in the code of src/, perf/, "
        "examples/ or benchmarks/*.py except at the definition (only "
        "tests call it; delete it, or move it into the tests):\n  "
        + "\n  ".join(unexpected)
    )
    stale = sorted(_TEST_ONLY_ALLOWED.keys() - test_only)
    assert not stale, (
        "allowlisted as test-only but now named outside tests, or no "
        "longer defined (drop the allowlist entry): " + ", ".join(stale)
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
