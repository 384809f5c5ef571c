"""`src/` keeps only what the package runs.

Every top-level definition in `src/minmaxlab/` (a def, a class or an
assigned name) must be referenced somewhere in the package outside its own
definition, or from `perfbench/`, or from `tests/test_acceptance.py`.  A
reference is a name or an attribute; an import into `__init__.py` is an
export, not a use.  `perfbench/`'s tracer patches functions by their string
names, so a string there that is an identifier counts too.  The few
definitions kept for another reason are listed in KEPT with that reason.
"""

import ast
from pathlib import Path

import minmaxlab

PACKAGE = Path(minmaxlab.__file__).parent
ROOT = PACKAGE.parent.parent
KEPT = {
    "evaluate_utility": "public API: one player's expected payoff, on the deviation kernel",
    "nashgap_audit": "public API: the raising wrapper of measure_nashgap (README example)",
    "nonsym_instance": "the FNP builder; ROADMAP item 10 gives it its CLI caller",
    "team_value_curve": "executable section 3.2 argument that the equilibrium is irrational",
    "induced_matrix": "executable section 3.2 argument; ROADMAP item 15 retires both",
}


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level def, class and assigned names, each with its defining node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def references(tree: ast.AST, skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names and attributes read (not assigned) in `tree` outside the node `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced(package: dict[str, str], outside: set[str]) -> list[str]:
    """`module.name` of every definition in `package` that nothing references."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    out = []
    for module, tree in trees.items():
        for name, node in definitions(tree).items():
            if name in outside:
                continue
            if not any(
                name in references(t, skip=node if m == module else None) for m, t in trees.items()
            ):
                out.append(f"{module}.{name}")
    return sorted(out)


def test_the_guard_sees_an_unused_definition():
    package = {
        "a": "def used():\n    return 1\n\ndef dead():\n    return dead()\n\nX = used()\n",
        "b": "from .a import dead\nimport a\n\nY = a.X\n",
    }
    assert unreferenced(package, set()) == ["a.dead", "b.Y"]
    assert unreferenced(package, {"Y"}) == ["a.dead"]
    assert references(ast.parse("f = 'dead'"), strings=True) == {"dead"}
    assert references(ast.parse("f = 'not a name'\ng(f)"), strings=True) == {"f", "g"}


def test_every_definition_in_src_is_used_or_kept_for_a_stated_reason():
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    outside = references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text("utf-8")))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= references(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    dead = unreferenced(package, outside)
    assert sorted(d for d in dead if d.split(".")[1] not in KEPT) == []
    assert {d.split(".")[1] for d in dead} == set(KEPT), "a kept name is in use again"


def string_literals(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_report_anchor_names_a_record_that_src_can_emit():
    """An anchor whose key no code outside fileio.py writes documents a bound
    that no report carries."""
    from minmaxlab.fileio import REPORT_ANCHORS

    literals = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "fileio.py":
            literals |= string_literals(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(REPORT_ANCHORS) - literals) == []
