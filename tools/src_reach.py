"""Print every statement of `src/minmaxlab/` that a pytest run never executes.

A pytest plugin on the stdlib `sys.settrace`, for finding code that no test
reaches without a coverage package.  Run from the repository root:

    PYTHONPATH=src:tools python -m pytest -p src_reach -q -p no:cacheprovider

Append test paths or `-k` to trace part of the suite.  The run is slower
than an untraced one: the whole suite took 175 s against 73 s untraced on a
2-core host.  After the tests it
prints one line per statement never executed, as `path:line: source`, and
a count.  A statement counts as executed when a line event fell on its
header: for a compound statement (def, class, if, for, with, try, ...) the
lines from its first decorator to its body, for any other statement all of
its lines.  Docstrings, `global` and `nonlocal` have no code and are not
listed.  Only this process is traced: code that runs in a subprocess or in
a thread started before the run counts as never executed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minmaxlab"

_hits: dict[str, set[int]] = {}      # package file -> lines with a line event
_local: dict[str, object] = {}       # co_filename -> its frames' local tracer, or None


def _tracer(frame, event, arg):
    """The global tracer: a local tracer for frames of package files, else None."""
    filename = frame.f_code.co_filename
    if filename not in _local:
        path = Path(filename).resolve()
        _local[filename] = None
        if path.is_relative_to(PACKAGE):
            lines = _hits.setdefault(str(path), set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            _local[filename] = local
    return _local[filename]


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, header lines) of every statement that has code, in line order."""
    out = []
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, child in enumerate(block):
                if (not isinstance(child, ast.stmt) or isinstance(child, (ast.Global, ast.Nonlocal))
                        or (i == 0 and field == "body" and _is_docstring(child))):
                    continue
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                inner = getattr(child, "body", None)
                last = inner[0].lineno if isinstance(inner, list) else child.end_lineno + 1
                out.append((first, range(first, max(last, first + 1))))
    return sorted(out, key=lambda s: s[0])


def unreached() -> tuple[list[tuple[Path, int, str]], int]:
    """(file, line, source) of each package statement no line event reached,
    and the number of statements."""
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = _hits.get(str(path), set())
        found = statements(source)
        total += len(found)
        missed += [(path, first, lines[first - 1].strip())
                   for first, header in found if not hit.intersection(header)]
    return missed, total


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    """Start tracing before any conftest imports the package."""
    threading.settrace(_tracer)
    sys.settrace(_tracer)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed, total = unreached()
    root = PACKAGE.parents[1]
    terminalreporter.section("src statements never executed")
    for path, line, text in missed:
        terminalreporter.write_line(f"{path.relative_to(root)}:{line}: {text}")
    terminalreporter.write_line(f"{len(missed)} of {total} statements never executed")
