"""Orientation is folded in one place, and only the kernel multiplies floats.

Outside `games.py` no module may branch on a player's direction by comparing
a value with MAXIMIZE or MINIMIZE (or their strings); a caller folds its
values with `games.oriented` or uses the deviation kernel instead.
Membership tests such as `o not in (MAXIMIZE, MINIMIZE)` and comparisons
with a whole orientation tuple are format checks and stay allowed.

Nor may it read a game's float payoff mirrors (`float_payoffs`,
`pair_floats`, `kernel_plan`, `row_float`, `col_float`): every float
product of a game's payoffs goes through `games.deviation_kernel`.
"""

import ast
from pathlib import Path

import minmaxlab

PACKAGE = Path(minmaxlab.__file__).parent
NAMES = {"MAXIMIZE", "MINIMIZE"}
STRINGS = {"maximize", "minimize"}


def _is_orientation(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in NAMES
    return isinstance(node, ast.Constant) and node.value in STRINGS


def orientation_branches(source: str) -> list[int]:
    """Line numbers of every == / != that has MAXIMIZE or MINIMIZE as an operand."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        if any(_is_orientation(x) for x in [node.left, *node.comparators]):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_a_branch_and_allows_format_checks():
    assert orientation_branches("if o == MAXIMIZE:\n    pass\n") == [1]
    assert orientation_branches("ok = games.MINIMIZE != o\n") == [1]
    assert orientation_branches("ok = o == 'minimize'\n") == [1]
    assert orientation_branches("ok = o not in (MAXIMIZE, MINIMIZE)\n") == []
    assert orientation_branches("ok = o != (MINIMIZE, MAXIMIZE)\n") == []
    assert orientation_branches("ok = o[0] != o[1]\n") == []


def test_no_module_outside_games_branches_on_orientation():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "games.py":
            continue
        lines = orientation_branches(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}, f"orientation branches outside games.py: {found}"


FLOAT_MIRRORS = {"float_payoffs", "pair_floats", "kernel_plan", "row_float", "col_float"}


def float_mirror_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of every read of a game's float payoff mirror, as an
    attribute or a string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FLOAT_MIRRORS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in FLOAT_MIRRORS:
            found.append((node.lineno, node.value))
    return sorted(found)


def test_the_mirror_guard_sees_attribute_and_string_reads():
    assert float_mirror_reads("v = game.float_payoffs[0] @ x\n") == [(1, "float_payoffs")]
    assert float_mirror_reads("p = g.pair_floats\nq = getattr(g, 'kernel_plan')\n") == [
        (1, "pair_floats"), (2, "kernel_plan")
    ]
    assert float_mirror_reads("v = deviation_vectors(game, [x, x])[0]\n") == []


def test_only_games_multiplies_a_games_float_payoffs():
    """Every float contraction of a game's payoffs goes through the kernel."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "games.py":
            continue
        reads = float_mirror_reads(path.read_text(encoding="utf-8"))
        if reads:
            found[path.name] = reads
    assert found == {}, f"float payoff mirrors read outside games.py: {found}"
