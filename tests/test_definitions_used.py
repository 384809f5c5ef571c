"""`src/` keeps only what the package runs.

Every top-level definition in `src/minmaxlab/` (a def, a class or an
assigned name) must be referenced somewhere in the package outside its own
definition, or from `perfbench/`, or from `tests/test_acceptance.py`.  A
reference is a name or an attribute; an import into `__init__.py` is an
export, not a use, and a name a function binds (a parameter, or an
assignment, loop, `with` or comprehension target not declared `global`) is
that function's own local, not a use.  `perfbench/`'s tracer patches functions by their string
names, so a string there that is an identifier counts too.  The few
definitions kept for another reason are listed in KEPT with that reason.
"""

import ast
from collections import Counter
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_names(function: ast.AST) -> set[str]:
    """Names `function` binds: its parameters and every name it stores
    (assignment, loop, `with` and comprehension targets), outside nested
    functions and classes, less the names it declares `global`."""
    args = function.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    names = {a.arg for a in params if a is not None}
    declared = set()
    stack = list(function.body) if isinstance(function.body, list) else [function.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def reference_counts(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name or attribute is read (not assigned) in `tree`; a
    name a function binds is its own local in its body, not a reference."""
    found = Counter()
    stack = [(tree, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, FUNCTIONS):  # defaults, decorators and annotations stay outside
            inner = local | bound_names(node)
            body = {id(b) for b in (node.body if isinstance(node.body, list) else [node.body])}
            stack.extend((c, inner if id(c) in body else local) for c in children)
        else:
            stack.extend((c, local) for c in children)
    return found


def references(tree: ast.AST, strings: bool = False) -> set[str]:
    """The names and attributes `reference_counts` finds in `tree`."""
    return set(reference_counts(tree, strings))


def unreferenced(package: dict[str, str], outside: set[str]) -> list[str]:
    """`module.name` of every definition in `package` that nothing references.

    A definition is a top-level statement, walked from no enclosing locals,
    so its module's references outside it are the module's counts less its
    own: one walk per module and one per definition, not one per pair.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    counts = {name: reference_counts(tree) for name, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for name, node in definitions(tree).items():
            if name in outside:
                continue
            own = reference_counts(node)[name]
            if not any(c[name] > (own if m == module else 0) for m, c in counts.items()):
                out.append(f"{module}.{name}")
    return sorted(out)


def test_the_guard_sees_an_unused_definition():
    package = {
        "a": "def used():\n    return 1\n\ndef dead():\n    return dead()\n\nX = used()\n",
        "b": "from .a import dead\nimport a\n\nY = a.X\n",
    }
    assert unreferenced(package, set()) == ["a.dead", "b.Y"]
    assert unreferenced(package, {"Y"}) == ["a.dead"]
    # a local that shadows a top-level name is not a use of it; a global is
    shadowed = {
        "a": "def dead():\n    return 1\n\ndef kept():\n    return 2\n",
        "b": "def f(hits, kept):\n    for p, dead in hits:\n        g(dead, kept)\n",
        "c": "X = 0\n\ndef set_x():\n    global X\n    X = 1\n    return X\n",
    }
    assert unreferenced(shadowed, {"f", "set_x"}) == ["a.dead", "a.kept"]
    assert unreferenced({**shadowed, "d": "import a\nY = [a.kept for _ in ()]\n"},
                        {"f", "set_x", "Y"}) == ["a.dead"]
    # a default and an annotation are read outside the function's own names
    assert references(ast.parse("def f(x=dead, *, y: Kept):\n    dead = y\n")) == {"dead", "Kept"}
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
