"""One verdict rule: every float verdict in `src/` is `checks.within`.

`checks.within(measured, bound)` is the one place a margin is added to a
bound, so outside it no module may make an ordering comparison that adds a
slack to a bound: `<measured> <= <bound> + <name or float>` (or the same
with <, >= or >).  A tolerance must have a name, so no comparison may take
a float literal of magnitude in (0, 1e-3) as an operand either.  And the
CLI decides no lemma verdict of its own: it calls `within` only in
`_eps_bound`, the record of the user's optional --eps.  Nor does it measure
or decide a back-map of its own: every back-map in `gadgets.py` measures its
source regret with `symmetric_regret` and returns its own records, and every
`cmd_backmap_*` handler passes that report to `_backmap_output`.  So no
handler builds a game or a `BoundRecord`, the CLI never names
`exact_max_regret`, `symmetric_regret` or `bound_record`, and only
`cmd_check_ne` calls `epsilon_ne_report`.
"""

import ast
from pathlib import Path

import minmaxlab
from minmaxlab import cli

SRC = Path(minmaxlab.__file__).parent
CLI = SRC / "cli.py"
ALLOWED = {"within"}
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
TOLERANCE_BELOW = 1e-3
GAME_CONSTRUCTORS = ("BimatrixGame", "NormalFormGame", "PolymatrixGame")
VERDICT_BUILDERS = GAME_CONSTRUCTORS + ("BoundRecord", "bound_record")
BACKMAPS = ("team_backmap", "symmetric_backmap", "median_backmap", "measure_team3v3")


def _is_slack(node) -> bool:
    """A name, an attribute or a float literal, as a slack term is written."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return True
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _adds_slack(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and _is_slack(node.right)


def slack_comparisons(source: str) -> list[int]:
    """Line numbers of every ordering comparison with `bound + slack` as an operand,
    outside the functions in ALLOWED."""
    lines = []

    def visit(node, allowed: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name in ALLOWED
        if (
            not allowed
            and isinstance(node, ast.Compare)
            and any(isinstance(op, ORDERINGS) for op in node.ops)
            and any(_adds_slack(x) for x in [node.left, *node.comparators])
        ):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return sorted(lines)


def _float_literals(node):
    """The float literals of an operand's arithmetic, not inside a call."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        yield node.value
    elif isinstance(node, ast.UnaryOp):
        yield from _float_literals(node.operand)
    elif isinstance(node, ast.BinOp):
        yield from _float_literals(node.left)
        yield from _float_literals(node.right)


def unnamed_tolerances(source: str) -> list[int]:
    """Line numbers of every comparison with a float literal of magnitude in
    (0, TOLERANCE_BELOW) in an operand."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(
            0 < abs(v) < TOLERANCE_BELOW
            for x in [node.left, *node.comparators]
            for v in _float_literals(x)
        )
    )


def _callers(source: str, name: str) -> set[str]:
    """The top-level functions of `source` that call `name`, or "<module>"."""
    found = set()

    def visit(node, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def _references(source: str, name: str) -> list[int]:
    """Line numbers where `source` imports, reads or calls `name`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if getattr(node, "id", None) == name
        or getattr(node, "attr", None) == name
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    )


def _backmap_verdict_builders(source: str) -> set[str]:
    """The `cmd_backmap_*` functions of `source` that call a game constructor
    or build a verdict record."""
    return {
        owner
        for name in VERDICT_BUILDERS
        for owner in _callers(source, name)
        if owner.startswith("cmd_backmap_")
    }


def _modules():
    return sorted(SRC.glob("*.py"))


def test_the_guard_sees_a_slack_and_allows_within():
    assert slack_comparisons("ok = measured <= bound + SLACK\n") == [1]
    assert slack_comparisons("ok = m <= report.bound + 1e-9\n") == [1]
    assert slack_comparisons("ok = b + checks.VERDICT_SLACK < m\n") == [1]
    assert slack_comparisons("def f():\n    return x <= y + slack\n") == [2]
    assert slack_comparisons("def _eps_bound(m, eps, slack):\n    return m <= eps + slack\n") == [2]
    assert slack_comparisons("def within(m, b):\n    return m <= b + VERDICT_SLACK\n") == []
    assert slack_comparisons("ok = n <= k + 1\n") == []  # an integer offset is not a slack
    assert slack_comparisons("ok = measured <= bound\n") == []
    assert slack_comparisons("total = bound + SLACK\n") == []


def test_the_guard_sees_an_unnamed_tolerance():
    assert unnamed_tolerances("if mismatch > 1e-9:\n    pass\n") == [1]
    assert unnamed_tolerances("ok = structural and worst <= 1e-10\n") == [1]
    assert unnamed_tolerances("ok = 0 < eps <= cap + 1e-12\n") == [1]
    assert unnamed_tolerances("ok = v.min() >= -1e-12\n") == [1]
    assert unnamed_tolerances("ok = x < 2 * 1e-9\n") == [1]
    assert unnamed_tolerances("ok = mismatch > TOL\n") == []
    assert unnamed_tolerances("ok = gap <= 0.0 or mass > 0.5\n") == []
    assert unnamed_tolerances("ok = np.allclose(a, b, atol=1e-12)\n") == []  # not a comparison
    assert unnamed_tolerances("ok = n == max(k, 1e-9)\n") == []  # inside a call


def test_no_module_adds_a_slack_outside_within():
    found = {p.name: slack_comparisons(p.read_text(encoding="utf-8")) for p in _modules()}
    assert found == {p.name: [] for p in _modules()}


def test_every_tolerance_in_a_comparison_has_a_name():
    found = {p.name: unnamed_tolerances(p.read_text(encoding="utf-8")) for p in _modules()}
    assert found == {p.name: [] for p in _modules()}


def test_the_cli_decides_only_the_user_eps():
    source = CLI.read_text(encoding="utf-8")
    assert slack_comparisons(source) == []
    assert _callers(source, "within") == {"_eps_bound"}


def test_the_guard_sees_a_back_map_measured_in_the_cli():
    parent = (
        "from .oracle import exact_max_regret\n"
        "def cmd_backmap_team(args, inputs):\n"
        "    target = games.BimatrixGame(a, a, (MINIMIZE, MINIMIZE))\n"
        "def _residual(m, s):\n"
        "    return checks.epsilon_ne_report(target, profile).regrets[0]\n"
        "def cmd_backmap_median(args, inputs):\n"
        "    median, bound = median_backmap(matrix, x, y, args.gap, args.delta)\n"
        "    bounds = [bound_record('median_regret', bound, symmetric_regret(matrix, median))]\n"
        "def cmd_backmap_symmetric(args, inputs):\n"
        "    return [BoundRecord('symmetric_vi', b, m, True)], {}\n"
    )
    assert _backmap_verdict_builders(parent) == {
        "cmd_backmap_team", "cmd_backmap_median", "cmd_backmap_symmetric"}
    assert _references(parent, "exact_max_regret") == [1]
    assert _references(parent, "symmetric_regret") == [8]
    assert _references(parent, "bound_record") == [8]
    assert _callers(parent, "epsilon_ne_report") == {"_residual"}
    other = "def cmd_gadget_clique(args, inputs):\n    game = BimatrixGame(m, m)\n"
    assert _backmap_verdict_builders(other) == set()


def test_every_back_map_reads_the_one_source_regret():
    source = CLI.read_text(encoding="utf-8")
    assert _backmap_verdict_builders(source) == set()
    for name in ("exact_max_regret", "symmetric_regret", "bound_record"):
        assert _references(source, name) == [], name
    assert _callers(source, "epsilon_ne_report") == {"cmd_check_ne"}
    handlers = {c.handler.__name__ for c in cli.COMMANDS if c.name.startswith("backmap ")}
    assert handlers == _callers(source, "_backmap_output")
    assert len(handlers) == len(BACKMAPS)
    library = (SRC / "gadgets.py").read_text(encoding="utf-8")
    for backmap in BACKMAPS:
        assert {backmap} <= _callers(library, "symmetric_regret"), backmap
