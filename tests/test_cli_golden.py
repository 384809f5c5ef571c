"""Golden CLI reports: every subcommand on small fixed inputs, compared with
reports recorded once from an earlier implementation of the CLI.

Each case writes the input files it names into a temporary directory, runs
``cli.main`` in process and compares the parsed report, the process exit
code and the artifact written by ``-o`` with ``tests/data/cli_golden.json``.
``command``, ``inputs_hash``, ``exit_code``, bound names, anchors and
verdicts and every non-float value must match exactly; floats must match
within a relative tolerance of 1e-12.  The parser's surface (options,
required flags, defaults, choices, types, help) must match as well.

The golden file is a fixed reference.  ``python tests/test_cli_golden.py``
rewrites it; do that only for an intended change of a report, and say so.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from minmaxlab import cli, fileio, gadgets, oracle
from minmaxlab.cliques import Graph, unique_ne_game
from minmaxlab.games import MAXIMIZE, MINIMIZE, MixedProfile, MixedStrategy
from minmaxlab.rational import fmat
from trajectory_csv import load_trajectory_rows

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
REL_TOL = 1e-12

FIG1_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
PATH3_EDGES = [(0, 1), (1, 2)]
TEAM_EPS = Fraction(1, 20)


def _tensor(rows, orientation):
    return {
        "players": 2,
        "action_counts": [len(rows), len(rows[0])],
        "orientation": orientation,
        "payoff": {"tensor": [[str(e) for e in row] for row in rows]},
    }


def _profile(rows):
    return {"strategies": rows}


def _team_matrix():
    return gadgets.shift_to_gadget_range(fmat([[3, 5], [5, 4]]))[0]


def _team_ne():
    return gadgets.canonical_team_ne(gadgets.team_gadget(_team_matrix(), TEAM_EPS))


def _team3v3_ne():
    inst = gadgets.team3v3_gadget(fmat([["1/2", 0], [0, "1/2"]]), TEAM_EPS)
    s = MixedStrategy.from_exact(
        oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)[0].probs
    )
    anchor = MixedStrategy.pure(5, 4)
    return MixedProfile((s, s, anchor, s, s, anchor))


def _bordered():
    return unique_ne_game(Graph.from_edges(5, FIG1_EDGES), 4)


def _bordered_ne():
    eqs = oracle.symmetric_support_enumeration(_bordered().row_payoff, orientation=MAXIMIZE)
    return MixedProfile((MixedStrategy.from_exact(eqs[0].probs),))


def _quadratic():
    return gadgets.quadratic_gadget(fmat([["1/2", "-1/4"], ["1/4", "1/2"]]))


# file name -> (kind, builder); kinds: "json" document, "game", "profile", "graph"
INPUTS = {
    "diag.json": ("json", lambda: _tensor([[2, 0], [0, 1]], ["max", "max"])),
    "sym.json": ("json", lambda: _tensor([[0, 1], [1, 0]], ["max", "max"])),
    "mp.json": ("json", lambda: _tensor([[1, -1], [-1, 1]], ["min", "max"])),
    "r.json": ("json", lambda: _tensor([["1/2", "-1/4"], ["1/4", "1/2"]], ["max", "max"])),
    "r3v3.json": ("json", lambda: _tensor([["1/2", 0], [0, "1/2"]], ["max", "max"])),
    "team_matrix.json": ("json", lambda: _tensor(_team_matrix(), ["min", "min"])),
    "pure.json": ("json", lambda: _profile([["1", "0"], ["1", "0"]])),
    "uniform2.json": ("json", lambda: _profile([["1/2", "1/2"], ["1/2", "1/2"]])),
    "half.json": ("json", lambda: _profile([["1/2", "1/2"]])),
    "half_float.json": ("json", lambda: _profile([[0.5, 0.5]])),
    "near_pure.json": ("json", lambda: _profile([[0.999, 0.001], [1, 0]])),
    "start.json": ("json", lambda: _profile([["9/10", "1/10"], ["1/2", "1/2"]])),
    "pair.json": ("json", lambda: _profile([["3/4", "1/4"], ["1/2", "1/2"]])),
    "band_pair.json": ("json", lambda: _profile([[0.6, 0.4], [0.5, 0.5]])),
    "quad.json": ("game", _quadratic),
    "bordered.json": ("game", _bordered),
    "team_ne.json": ("profile", _team_ne),
    "team3v3_ne.json": ("profile", _team3v3_ne),
    "bordered_ne.json": ("profile", _bordered_ne),
    "fig1.txt": ("graph", lambda: Graph.from_edges(5, FIG1_EDGES)),
    "path3.txt": ("graph", lambda: Graph.from_edges(3, PATH3_EDGES)),
}

# case id -> argv; "{name}" is an input file, "{out}/name" an artifact path
CASES = {
    "gadget-team": ["gadget", "team", "--game", "{team_matrix.json}", "--eps", "1/20",
                    "-o", "{out}/team_gadget.json"],
    "gadget-quadratic": ["gadget", "quadratic", "--game", "{r.json}", "-o", "{out}/quad.json"],
    "gadget-coupled-eps": ["gadget", "coupled", "--game", "{r.json}", "--eps", "1/100",
                           "-o", "{out}/coupled.json"],
    "gadget-coupled-delta": ["gadget", "coupled", "--game", "{r.json}", "--delta", "1/4"],
    "gadget-team3v3": ["gadget", "team3v3", "--game", "{r3v3.json}", "--eps", "1/20",
                       "-o", "{out}/team3v3.json"],
    "gadget-clique-base": ["gadget", "clique", "--graph", "{fig1.txt}", "--variant", "base",
                           "-o", "{out}/clique_base.json"],
    "gadget-clique-delta": ["gadget", "clique", "--graph", "{fig1.txt}", "--variant", "delta",
                            "--delta", "1/3"],
    "gadget-clique-unique": ["gadget", "clique", "--graph", "{fig1.txt}", "--variant", "unique",
                             "--k", "3", "-o", "{out}/clique_unique.json"],
    "gadget-clique-robust": ["gadget", "clique", "--graph", "{fig1.txt}", "--variant", "robust"],
    "check-ne-pure": ["check", "ne", "--game", "{diag.json}", "--profile", "{pure.json}",
                      "--eps", "1e-9"],
    "check-ne-uniform": ["check", "ne", "--game", "{diag.json}", "--profile",
                         "{uniform2.json}", "--eps", "1/10"],
    "check-ne-no-eps": ["check", "ne", "--game", "{diag.json}", "--profile", "{uniform2.json}"],
    "check-wsne-exact": ["check", "wsne", "--game", "{sym.json}", "--profile", "{half.json}",
                         "--eps", "1/10"],
    "check-wsne-float": ["check", "wsne", "--game", "{diag.json}", "--profile",
                         "{half_float.json}", "--eps", "1/10"],
    "check-wsne-negative-eps": ["check", "wsne", "--game", "{sym.json}", "--profile",
                                "{half.json}", "--eps", "-1"],
    "check-fone": ["check", "fone", "--game", "{quad.json}", "--profile", "{pair.json}",
                   "--eps", "1/10"],
    "check-gap": ["check", "gap", "--game", "{quad.json}", "--profile", "{pair.json}",
                  "--eps", "1", "--stepsize", "1/2"],
    "backmap-team": ["backmap", "team", "--game", "{team_matrix.json}", "--eps", "1/20",
                     "--profile", "{team_ne.json}", "-o", "{out}/team_back.json"],
    "backmap-symmetric": ["backmap", "symmetric", "--game", "{sym.json}", "--profile",
                          "{half.json}", "--gap", "1/100", "-o", "{out}/sym_back.json"],
    "backmap-median": ["backmap", "median", "--game", "{r.json}", "--profile",
                       "{band_pair.json}", "--gap", "1/1000", "--delta", "1/5",
                       "-o", "{out}/median.json"],
    "backmap-team3v3": ["backmap", "team3v3", "--game", "{r3v3.json}", "--eps", "1/20",
                        "--profile", "{team3v3_ne.json}", "-o", "{out}/team3v3_back.json"],
    "audit-gadget-structure": ["audit", "gadget-structure", "--game", "{team_matrix.json}",
                               "--eps", "1/20", "--profile", "{team_ne.json}"],
    "audit-nashgap-fig1": ["audit", "nashgap", "--graph", "{fig1.txt}"],
    "audit-nashgap-path3": ["audit", "nashgap", "--graph", "{path3.txt}"],
    "audit-wsne-value": ["audit", "wsne-value", "--graph", "{path3.txt}"],
    "audit-wsne-value-violated": ["audit", "wsne-value", "--graph", "{path3.txt}",
                                  "--delta", "99/100"],
    "audit-classify": ["audit", "classify", "--game", "{bordered.json}", "--profile",
                       "{bordered_ne.json}", "--k", "4"],
    "audit-classify-wsne": ["audit", "classify", "--game", "{bordered.json}", "--profile",
                            "{bordered_ne.json}", "--k", "4", "--eps", "1/1000", "--wsne"],
    "audit-mass-bound": ["audit", "mass-bound", "--game", "{diag.json}", "--profile",
                         "{near_pure.json}", "--eps", "1/10"],
    "solve-enumerate": ["solve", "enumerate", "--game", "{diag.json}"],
    "solve-grid": ["solve", "grid", "--game", "{mp.json}", "--resolution", "1/4",
                   "--eps", "1/10"],
    "solve-refine": ["solve", "refine", "--game", "{mp.json}", "--profile", "{start.json}",
                     "--target", "1/10", "-o", "{out}/refined.json"],
    "solve-refine-cut-short": ["solve", "refine", "--game", "{mp.json}", "--profile",
                               "{start.json}", "--target", "1e-12", "--max-iters", "1"],
    "solve-2x2": ["solve", "2x2", "--game", "{mp.json}"],
    "solve-max-clique": ["solve", "max-clique", "--graph", "{fig1.txt}"],
    "dynamics-run": ["dynamics", "run", "--problem", "{quad.json}", "--algo", "ogda",
                     "--steps", "30", "--stepsize", "1/20", "--init", "{pair.json}",
                     "-o", "{out}/traj.csv"],
    "analytic-irrational": ["analytic", "irrational", "--verify", "-o", "{out}/irrational.json"],
}


def _write_input(name: str, directory: Path) -> str:
    kind, build = INPUTS[name]
    path = str(directory / name)
    obj = build()
    if kind == "json":
        Path(path).write_text(json.dumps(obj), encoding="utf-8")
    elif kind == "game":
        fileio.save_game(obj, path)
    elif kind == "profile":
        fileio.save_profile(obj, path)
    else:
        fileio.save_graph(obj, path)
    return path


def _read_artifact(path: str):
    if path.endswith(".csv"):
        return [[int(r[0]), *r[1:]] for r in load_trajectory_rows(path)]
    return json.loads(Path(path).read_text(encoding="utf-8"))


def run_case(case: str, directory: Path, capsys) -> dict:
    """Run one case; returns its exit code, parsed report and artifact."""
    out = directory / "out"
    out.mkdir(exist_ok=True)
    argv = []
    for arg in CASES[case]:
        if arg.startswith("{out}/"):
            arg = str(out / arg[len("{out}/"):])
        elif arg.startswith("{"):
            arg = _write_input(arg[1:-1], directory)
        argv.append(arg)
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    artifact = None
    output = report.get("data", {}).get("output")
    if output is not None:
        artifact = _read_artifact(output)
        report["data"]["output"] = os.path.basename(output)
    return {"exit": code, "report": report, "artifact": artifact}


def _action_record(action: argparse.Action) -> dict:
    return {
        "options": list(action.option_strings),
        "dest": action.dest,
        "required": action.required,
        "default": action.default,
        "choices": list(action.choices) if action.choices is not None else None,
        "type": getattr(action.type, "__name__", None),
        "nargs": action.nargs,
        "help": action.help,
    }


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def parser_surface() -> dict:
    """Every subcommand's help text and options, from ``cli.build_parser``."""
    parser = cli.build_parser()
    top = _subparsers(parser)
    surface = {
        "prog": parser.prog,
        "description": parser.description,
        "groups": {c.dest: c.help for c in top._choices_actions},
        "commands": {},
    }
    for group, group_parser in top.choices.items():
        kinds = _subparsers(group_parser)
        helps = {c.dest: c.help for c in kinds._choices_actions}
        for kind, sub in kinds.choices.items():
            surface["commands"][f"{group} {kind}"] = {
                "help": helps.get(kind),
                "actions": [_action_record(a) for a in sub._actions],
            }
    return surface


def _assert_same(actual, expected, where: str) -> None:
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL) or (
            math.isnan(actual) and math.isnan(expected)
        ), f"{where}: {actual!r} != {expected!r}"
        return
    assert type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, golden, tmp_path, capsys):
    _assert_same(run_case(case, tmp_path, capsys), golden["cases"][case], case)


def test_parser_surface_matches_golden(golden):
    _assert_same(parser_surface(), golden["surface"], "surface")


class _Capture:
    """Minimal stand-in for pytest's capsys when recording outside pytest."""

    def __init__(self):
        import io

        self.buffer = io.StringIO()

    def readouterr(self):
        value = self.buffer.getvalue()
        self.buffer.seek(0)
        self.buffer.truncate()
        return argparse.Namespace(out=value, err="")


def record() -> None:
    import contextlib
    import tempfile

    capture = _Capture()
    cases = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(capture.buffer):
            cases[case] = run_case(case, Path(tmp), capture)
    doc = {"cases": cases, "surface": parser_surface()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
