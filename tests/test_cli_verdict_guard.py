"""The CLI decides no lemma verdict of its own.

Every bound record the CLI emits is decided by the library audit that
measured it.  The one exception is `_eps_bound`, the record of the user's
optional --eps.  So outside `_eps_bound`, `cli.py` may make no comparison
that adds a slack to a bound: `<measured> <= <bound> + <name or float>`
(or the same with <, >= or >).
"""

import ast
from pathlib import Path

import minmaxlab

CLI = Path(minmaxlab.__file__).parent / "cli.py"
ALLOWED = {"_eps_bound"}
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


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


def test_the_guard_sees_a_slack_and_allows_eps_bound():
    assert slack_comparisons("ok = measured <= bound + SLACK\n") == [1]
    assert slack_comparisons("ok = m <= report.bound + 1e-9\n") == [1]
    assert slack_comparisons("ok = b + checks.BOUND_SLACK < m\n") == [1]
    assert slack_comparisons("def f():\n    return x <= y + slack\n") == [2]
    assert slack_comparisons("def _eps_bound(m, eps, slack):\n    return m <= eps + slack\n") == []
    assert slack_comparisons("ok = n <= k + 1\n") == []  # an integer offset is not a slack
    assert slack_comparisons("ok = measured <= bound\n") == []
    assert slack_comparisons("total = bound + SLACK\n") == []


def test_the_cli_decides_only_the_user_eps():
    assert slack_comparisons(CLI.read_text(encoding="utf-8")) == []
