"""Every module-level import is used.

Each module under `src/minmaxlab/` except `__init__.py` (which re-exports
the public API) must use every name it imports at module level.  A name
counts as used when it appears as a name anywhere else in the module,
including inside annotations.
"""

import ast
from pathlib import Path

import minmaxlab

PACKAGE = Path(minmaxlab.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]
    assert unused_imports("from a import b as c, d\nx: d = c\n") == []
    assert unused_imports("import a.b\na.b.f()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("def f():\n    import os\n") == []


def test_no_module_imports_a_name_it_does_not_use():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}, f"unused imports: {found}"
