"""One owner for each game file's kind: the CLI checks what a file holds in
three functions only.

`_require_problem` takes a quadratic problem, `_require_game` a tensor or
polymatrix game, and `_source_matrix` the shared matrix of a two-player
tensor file whose players have the orientation of the command's source
game.  `solve enumerate` and `check wsne` hand their file to the library's
`checks.require_symmetric_game`.  So no `cmd_*` handler calls `isinstance`
or compares an `orientation`, `cli.py` compares an orientation only in
`_source_matrix`, and every handler of a command that reads a game file
calls one of the four checks.
"""

import ast
from pathlib import Path

import minmaxlab
from minmaxlab import cli
from test_cli_verdict_guard import _callers

CLI = Path(minmaxlab.__file__).parent / "cli.py"
FILE_CHECKS = ("_require_problem", "_require_game", "_source_matrix", "require_symmetric_game")


def _names_orientation(node) -> bool:
    return any(
        getattr(n, "attr", None) == "orientation" or getattr(n, "id", None) == "orientation"
        for n in ast.walk(node)
    )


def orientation_comparisons(source: str) -> dict[str, list[int]]:
    """The top-level functions of `source` that compare an orientation, with
    the line numbers of those comparisons."""
    found: dict[str, list[int]] = {}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                _names_orientation(x) for x in [node.left, *node.comparators]
            ):
                found.setdefault(getattr(top, "name", "<module>"), []).append(node.lineno)
    return found


def handler_kind_checks(source: str) -> set[str]:
    """The `cmd_*` functions of `source` that call `isinstance` or compare an
    orientation."""
    owners = _callers(source, "isinstance") | set(orientation_comparisons(source))
    return {owner for owner in owners if owner.startswith("cmd_")}


def test_the_guard_sees_a_handler_that_checks_a_file_itself():
    parent = (
        "def cmd_solve_enumerate(args, inputs):\n"
        "    game = args.game\n"
        "    if game.orientation[0] != game.orientation[1]:\n"
        "        raise FormatError('symmetric enumeration needs one orientation')\n"
        "def cmd_solve_2x2(args, inputs):\n"
        "    if args.game.orientation != (MINIMIZE, MAXIMIZE):\n"
        "        raise FormatError('the closed form fixes orientation')\n"
        "def cmd_check_ne(args, inputs):\n"
        "    if not isinstance(args.game, NormalFormGame):\n"
        "        raise FormatError('a game')\n"
        "def _source_matrix(game, orientation):\n"
        "    return game.orientation == orientation\n"
    )
    assert handler_kind_checks(parent) == {"cmd_solve_enumerate", "cmd_solve_2x2", "cmd_check_ne"}
    assert orientation_comparisons(parent) == {
        "cmd_solve_enumerate": [3], "cmd_solve_2x2": [6], "_source_matrix": [12]}
    reads = "def cmd_check_wsne(args, inputs):\n    o = args.game.orientation[0]\n"
    assert handler_kind_checks(reads) == set()  # reading an orientation is not a check


def test_only_the_file_checks_decide_what_a_game_file_holds():
    source = CLI.read_text(encoding="utf-8")
    assert handler_kind_checks(source) == set()
    assert set(orientation_comparisons(source)) == {"_source_matrix"}
    # the command table names each artifact's writer, so no type is tested to pick one
    assert _callers(source, "isinstance") == {
        "_require_problem", "_require_game", "_source_matrix"}


def test_every_command_that_reads_a_game_file_checks_it():
    source = CLI.read_text(encoding="utf-8")
    checked = set().union(*(_callers(source, name) for name in FILE_CHECKS))
    readers = {
        c.handler.__name__ for c in cli.COMMANDS if any(a.kind == cli.GAME for a in c.args)
    }
    assert len(readers) == 20
    assert readers - checked == set()
