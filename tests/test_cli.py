"""End-to-end CLI runs, in process: exit codes, report shape, artifacts."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from minmaxlab import cli, fileio, gadgets, oracle
from minmaxlab.cliques import unique_ne_game
from minmaxlab.errors import BoundViolationError
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
)
from minmaxlab.minmax import QuadraticMinMaxProblem
from minmaxlab.rational import exact_array, fmat
from trajectory_csv import load_trajectory_rows


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_game(tmp_path, name, tensor, orientation, counts=None):
    counts = counts or [len(tensor), len(tensor[0])]
    doc = {
        "players": 2,
        "action_counts": counts,
        "orientation": orientation,
        "payoff": {"tensor": tensor},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_profile(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"strategies": rows}), encoding="utf-8")
    return str(path)


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    fileio.save_graph(graph, str(path))
    return str(path)


def test_irrational_verify_passes(capsys):
    code, report, _ = run_cli(capsys, ["analytic", "irrational", "--verify"])
    assert code == 0
    assert report["exit_code"] == 0
    names = {b["name"]: b for b in report["bounds"]}
    assert names["irrational_exact"]["satisfied"]
    assert names["irrational_regret"]["measured"] <= 1e-9
    assert report["data"]["value_float"] == pytest.approx(0.98931409, abs=1e-6)


def test_irrational_writes_the_game_file(capsys, tmp_path):
    out = tmp_path / "team.json"
    code, report, _ = run_cli(capsys, ["analytic", "irrational", "-o", str(out)])
    assert code == 0
    game = fileio.load_game(str(out))
    assert game.n_players == 3
    assert game.orientation == ("minimize", "minimize", "maximize")


def test_nashgap_audit_fig1(capsys, tmp_path, fig1):
    gpath = write_graph(tmp_path, "fig1.txt", fig1)
    code, report, _ = run_cli(capsys, ["audit", "nashgap", "--graph", gpath])
    assert code == 0
    assert report["data"]["k"] == 4
    assert report["data"]["max_value"] == "-1/4"
    names = {b["name"] for b in report["bounds"]}
    assert "nashgap_max" in names
    assert all(b["satisfied"] for b in report["bounds"])


def test_wsne_value_audit_refuses_an_eps_it_never_reads(capsys, tmp_path, path3):
    # the audit reads the regime's n, k and delta only, so --eps is not an option
    gpath = write_graph(tmp_path, "p3.txt", path3)
    with pytest.raises(SystemExit) as info:
        cli.main(["audit", "wsne-value", "--graph", gpath, "--eps", "1/100"])
    assert info.value.code == 2
    assert "unrecognized arguments: --eps 1/100" in capsys.readouterr().err


def test_wsne_value_audit_names_the_violated_clause(capsys, tmp_path, path3):
    gpath = write_graph(tmp_path, "p3.txt", path3)
    code, report, err = run_cli(
        capsys, ["audit", "wsne-value", "--graph", gpath, "--delta", "99/100"]
    )
    assert code == 1 and report["exit_code"] == 1
    failed = [b for b in report["bounds"] if not b["satisfied"]]
    assert [b["name"] for b in failed] == ["wsne_nonclique_value"]
    assert failed[0]["value"] == float(Fraction(157, 160))
    assert failed[0]["measured"] == float(Fraction(10199, 10300))
    assert [b["name"] for b in report["bounds"]] == [
        "wsne_clique_value", "wsne_nonclique_value", "wsne_closeness"
    ]
    data = report["data"]
    assert data["candidates"] == 53
    assert data["offenders"][0] == {
        "clause": "wsne_nonclique_value",
        "candidate": ["1/103", "101/103", "1/103"],
        "measured": "10199/10300",
        "bound": "157/160",
    }
    assert data["detail"] in err and "non-clique candidate" in err


def test_nashgap_audit_flags_path3(capsys, tmp_path, path3):
    gpath = write_graph(tmp_path, "p3.txt", path3)
    code, report, err = run_cli(capsys, ["audit", "nashgap", "--graph", gpath])
    assert code == 1
    assert "violation" in err
    assert report["exit_code"] == 1


def test_check_ne_accepts_a_pure_equilibrium(capsys, tmp_path):
    game = write_game(
        tmp_path, "diag.json", [["2", "0"], ["0", "1"]], ["max", "max"]
    )
    profile = write_profile(tmp_path, "pure.json", [["1", "0"], ["1", "0"]])
    code, report, _ = run_cli(
        capsys,
        ["check", "ne", "--game", game, "--profile", profile, "--eps", "1e-9"],
    )
    assert code == 0
    assert max(report["data"]["regrets"]) <= 1e-9


def test_check_ne_rejects_the_uniform_profile(capsys, tmp_path):
    game = write_game(
        tmp_path, "diag.json", [["2", "0"], ["0", "1"]], ["max", "max"]
    )
    profile = write_profile(
        tmp_path, "uniform.json", [["1/2", "1/2"], ["1/2", "1/2"]]
    )
    code, report, _ = run_cli(
        capsys,
        ["check", "ne", "--game", game, "--profile", profile, "--eps", "1/10"],
    )
    assert code == 1
    assert max(report["data"]["regrets"]) == pytest.approx(0.25)


def _eps_argv(tmp_path, command):
    """A command that takes --eps, on inputs where it measures a finite value."""
    pair = write_profile(tmp_path, "pair.json", [["3/4", "1/4"], ["1/2", "1/2"]])
    if command in ("check ne", "audit mass-bound"):
        game = write_game(tmp_path, "diag.json", [["2", "0"], ["0", "1"]], ["max", "max"])
        pure = write_profile(tmp_path, "pure.json", [["1", "0"], ["1", "0"]])
        return command.split() + ["--game", game, "--profile", pure]
    quad = tmp_path / "quad.json"
    fileio.save_game(gadgets.quadratic_gadget(fmat([["1/2", "-1/4"], ["1/4", "1/2"]])), str(quad))
    return command.split() + ["--game", str(quad), "--profile", pair]


@pytest.mark.parametrize("command", ["check ne", "check fone", "check gap", "audit mass-bound"])
def test_negative_eps_exits_2(capsys, tmp_path, command):
    argv = _eps_argv(tmp_path, command)
    code, report, _ = run_cli(capsys, argv + ["--eps", "10"])
    assert code == 0
    code, report, err = run_cli(capsys, argv + ["--eps", "-0.1"])
    assert code == 2
    assert err.startswith("error:")
    assert report["exit_code"] == 2
    assert report["bounds"] == []
    assert "non-negative" in report["error"]


def test_grid_search_with_a_negative_eps_exits_2(capsys, tmp_path):
    game = str(tmp_path / "irr.json")
    assert run_cli(capsys, ["analytic", "irrational", "-o", game])[0] == 0
    argv = ["solve", "grid", "--game", game, "--resolution", "1/4"]
    code, report, _ = run_cli(capsys, argv + ["--eps=1/2"])
    assert code == 0 and report["data"]["hits"]
    code, report, err = run_cli(capsys, argv + ["--eps=-1/2"])
    assert code == 2
    assert err.startswith("error:")
    assert report["exit_code"] == 2
    assert report["error"] == "--eps must be non-negative, got -1/2"


def test_grid_search_with_a_huge_eps_returns_every_profile(capsys, tmp_path):
    game = str(tmp_path / "irr.json")
    assert run_cli(capsys, ["analytic", "irrational", "-o", game])[0] == 0
    argv = ["solve", "grid", "--game", game, "--resolution", "1/4"]
    code, report, _ = run_cli(capsys, argv + ["--eps", str(10**400)])
    assert code == 0
    assert len(report["data"]["hits"]) == 5**3  # five points a player
    assert report["data"] == run_cli(capsys, argv + ["--eps", "100"])[1]["data"]


@pytest.mark.parametrize("profile", [["1/2", "1/2"], [0.5, 0.5]], ids=["exact", "float"])
@pytest.mark.parametrize(
    "tensor, orientation, reason",
    [
        ([["0", "1"], ["0", "0"]], ["max", "max"], "symmetric"),
        ([["1", "0"], ["0", "1"]], ["min", "max"], "orientation"),
    ],
    ids=["non-symmetric", "mixed-orientation"],
)
def test_check_wsne_rejects_games_one_strategy_cannot_describe(
    capsys, tmp_path, tensor, orientation, reason, profile
):
    game = write_game(tmp_path, "g.json", tensor, orientation)
    x = write_profile(tmp_path, "x.json", [profile])
    code, report, _ = run_cli(capsys, ["check", "wsne", "--game", game, "--profile", x])
    assert code == 2
    assert report["bounds"] == []
    assert reason in report["error"]


def test_malformed_game_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    profile = write_profile(tmp_path, "p.json", [["1", "0"], ["1", "0"]])
    code, report, err = run_cli(
        capsys,
        ["check", "ne", "--game", str(bad), "--profile", profile, "--eps", "0.1"],
    )
    assert code == 2
    assert "error" in err
    assert report["exit_code"] == 2
    assert report["error"]


@pytest.mark.parametrize(
    "fields",
    [{"team_partition": [[0, 1.9], [2]]}, {"team_partition": [[0, True], [2]]}, {"players": 3.7}],
    ids=["float-index", "bool-index", "float-players"],
)
def test_non_integer_game_fields_exit_2(capsys, tmp_path, fields):
    doc = {
        "players": 3,
        "action_counts": [1, 1, 1],
        "orientation": ["min", "min", "max"],
        "payoff": {"polymatrix": [{"i": 0, "j": 2, "matrix": [["1"]]}]},
        "team_partition": [[0, 1], [2]],
    }
    game = tmp_path / "team.json"
    profile = write_profile(tmp_path, "p.json", [["1"], ["1"], ["1"]])
    argv = ["check", "ne", "--game", str(game), "--profile", profile, "--eps", "0.1"]
    game.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_cli(capsys, argv)
    assert code == 0 and report["exit_code"] == 0
    game.write_text(json.dumps({**doc, **fields}), encoding="utf-8")
    code, report, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert report["exit_code"] == 2 and report["bounds"] == []
    assert "must be an integer" in report["error"]


@pytest.mark.parametrize(
    "field",
    [("delta", "true"), ("smoothness_bound", "true"), ("lipschitz_bound", "true"),
     ("delta", "1e400")],
    ids=["bool-delta", "bool-smoothness", "bool-lipschitz", "overflowing-delta"],
)
def test_bool_or_non_finite_real_fields_exit_2(capsys, tmp_path, field):
    doc = fileio.game_to_dict(gadgets.coupled_gadget(fmat([["1/2", "-1/4"], ["1/4", "1/2"]]), 0.25))
    game = tmp_path / "quad.json"
    profile = write_profile(tmp_path, "p.json", [["1/2", "1/2"], ["1/2", "1/2"]])
    argv = ["check", "gap", "--game", str(game), "--profile", profile, "--eps", "1"]
    game.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_cli(capsys, argv)
    assert code in (0, 1) and report["exit_code"] == code
    key, raw = field
    doc["payoff"]["quadratic"][key] = "@"
    game.write_text(json.dumps(doc).replace('"@"', raw), encoding="utf-8")
    code, report, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    assert report["exit_code"] == 2 and report["bounds"] == []
    assert key in report["error"]


def _game_doc(**fields):
    """A valid two-player tensor game document with `fields` replaced."""
    return {"players": 2, "action_counts": [2, 2], "orientation": ["max", "max"],
            "payoff": {"tensor": [["1", "0"], ["0", "1"]]}, **fields}


def _polymatrix(*blocks):
    return _game_doc(payoff={"polymatrix": list(blocks)})


QUADRATIC = fileio.game_to_dict(gadgets.quadratic_gadget(fmat([["1/2", "0"], ["0", "1/4"]])))
# (file kind, contents: a JSON document or the text of a graph file, the
# loader's message, with {path} for the file's path)
FILE_REFUSALS = {
    "rational-entry": (cli.GAME, _game_doc(payoff={"tensor": [[0.5, "0"], ["0", "1"]]}),
                       "expected a rational string or integer, got 0.5"),
    "empty-matrix": (cli.GAME, _polymatrix({"i": 0, "j": 1, "matrix": []}),
                     "pair (0, 1) matrix must be a non-empty list of rows"),
    "matrix-row": (cli.GAME, _polymatrix({"i": 0, "j": 1, "matrix": [1, 2]}),
                   "bad pair (0, 1) matrix: 'int' object is not iterable"),
    "orientation-count": (cli.GAME, _game_doc(orientation=["max"]),
                          "orientation must list one entry per player"),
    "orientation-word": (cli.GAME, _game_doc(orientation=["max", "up"]),
                         "unknown orientation 'up'"),
    "partition-shape": (cli.GAME, _game_doc(team_partition=[[0]]),
                        "team_partition must be two lists of player indices"),
    "partition-player": (cli.GAME, _game_doc(team_partition=[[0], [5]]),
                         "team_partition names an unknown player"),
    "tensor-level": (cli.GAME, _game_doc(payoff={"tensor": [["1", "0"]]}),
                     "tensor level has 1 entries, expected 2"),
    "not-an-object": (cli.GAME, [], "game file must hold a JSON object"),
    "zero-actions": (cli.GAME, _game_doc(action_counts=[0, 2]),
                     "action_counts must list a positive count per player"),
    "no-variant": (cli.GAME, _game_doc(payoff={}), "payoff must hold exactly one variant"),
    "polymatrix-body": (cli.GAME, _game_doc(payoff={"polymatrix": {}}),
                        "polymatrix payoff must be a list of pair blocks"),
    "polymatrix-block": (cli.GAME, _polymatrix({"i": 0, "j": 1}),
                         "bad polymatrix block: 'matrix'"),
    "polymatrix-pair": (cli.GAME, _polymatrix(*[{"i": 0, "j": 1, "matrix": [["1", "0"]] * 2}] * 2),
                        "duplicate polymatrix pair (0, 1)"),
    "quadratic-players": (cli.GAME, {**QUADRATIC, "players": 3, "action_counts": [2, 2, 2],
                                     "orientation": ["min", "max", "max"]},
                          "quadratic payoffs describe two-player problems"),
    "quadratic-orientation": (cli.GAME, {**QUADRATIC, "orientation": ["max", "max"]},
                              "quadratic problems fix orientation [minimize, maximize]"),
    "quadratic-body": (cli.GAME, {**QUADRATIC, "payoff": {"quadratic": []}},
                       "quadratic payoff must be an object"),
    "quadratic-counts": (cli.GAME, {**QUADRATIC, "action_counts": [3, 3]},
                         "action_counts disagree with the quadratic blocks"),
    "unknown-variant": (cli.GAME, _game_doc(payoff={"cubic": []}),
                        "unknown payoff variant 'cubic'"),
    "graph-header": (cli.GRAPH, "a b\n", "{path}: non-integer header 'a b'"),
    "graph-edge-line": (cli.GRAPH, "3 1\n1 2 3\n", "{path}: bad edge line '1 2 3'"),
    "graph-edge-int": (cli.GRAPH, "3 1\n1 x\n", "{path}: non-integer edge '1 x'"),
    "graph-duplicate": (cli.GRAPH, "3 2\n1 2\n2 1\n", "{path}: duplicate edge '2 1'"),
    "profile-list": (cli.PROFILE, {"strategy": []},
                     "{path}: profile file needs a 'strategies' list"),
    "profile-empty": (cli.PROFILE, {"strategies": [[]]}, "each strategy must be a non-empty list"),
    "profile-entry": (cli.PROFILE, {"strategies": [[None, 1]]}, "bad probability entry None"),
}


@pytest.mark.parametrize("kind, contents, message", FILE_REFUSALS.values(), ids=list(FILE_REFUSALS))
def test_a_malformed_file_exits_2_with_its_loaders_message(
    capsys, tmp_path, kind, contents, message
):
    path = tmp_path / "input"
    path.write_text(contents if kind == cli.GRAPH else json.dumps(contents), encoding="utf-8")
    if kind == cli.GRAPH:
        argv = ["solve", "max-clique", "--graph", str(path)]
    elif kind == cli.PROFILE:
        game = write_game(tmp_path, "g.json", SYMMETRIC, ["max", "max"])
        argv = ["check", "ne", "--game", game, "--profile", str(path)]
    else:
        argv = ["check", "ne", "--game", str(path), "--profile", str(path)]
    code, report, _ = run_cli(capsys, argv)
    assert (code, report["exit_code"], report["bounds"]) == (2, 2, [])
    assert report["error"] == message.format(path=path)


def test_missing_file_exits_2(capsys, tmp_path):
    profile = write_profile(tmp_path, "p.json", [["1", "0"]])
    code, report, err = run_cli(
        capsys,
        [
            "check", "ne",
            "--game", str(tmp_path / "nowhere.json"),
            "--profile", profile,
            "--eps", "0.1",
        ],
    )
    assert code == 2
    assert "error" in err
    assert report["exit_code"] == 2 and report["error"]


def test_solve_enumerate_lists_all_symmetric_equilibria(capsys, tmp_path):
    game = write_game(
        tmp_path, "diag.json", [["2", "0"], ["0", "1"]], ["max", "max"]
    )
    code, report, _ = run_cli(capsys, ["solve", "enumerate", "--game", game])
    assert code == 0
    values = sorted(eq["value"] for eq in report["data"]["equilibria"])
    assert values == ["1", "2", "2/3"]


def test_solve_enumerate_refuses_a_shared_tensor_that_is_not_symmetric(capsys, tmp_path):
    # the file holds (M, M): at (1/2, 1/2) the row player's payoffs Mx tie at
    # 3/2, but the column player's, M^T x, are 1/2 and 5/2, a regret of 1
    game = write_game(tmp_path, "lopsided.json", [["0", "3"], ["1", "2"]], ["max", "max"])
    code, report, err = run_cli(capsys, ["solve", "enumerate", "--game", game])
    assert code == 2
    assert "symmetric payoff matrix" in err
    assert report["exit_code"] == 2 and "symmetric payoff matrix" in report["error"]


def _refine_inputs(tmp_path):
    game = write_game(
        tmp_path, "mp.json", [["1", "-1"], ["-1", "1"]], ["min", "max"]
    )
    profile = write_profile(tmp_path, "start.json", [["9/10", "1/10"], ["1/2", "1/2"]])
    return ["solve", "refine", "--game", game, "--profile", profile]


def test_solve_refine_converges(capsys, tmp_path):
    code, report, _ = run_cli(capsys, _refine_inputs(tmp_path) + ["--target", "1/10"])
    assert code == 0
    assert report["exit_code"] == 0
    assert report["data"]["converged"] is True
    assert report["data"]["iterations"] >= 1
    (bound,) = report["bounds"]
    assert bound["name"] == "refine_target"
    assert bound["value"] == pytest.approx(0.1)
    assert bound["satisfied"] and bound["measured"] <= 0.1


def test_solve_refine_cut_short_exits_1(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, _refine_inputs(tmp_path) + ["--target", "1e-12", "--max-iters", "1"]
    )
    assert code == 1
    assert report["data"]["converged"] is False
    assert report["data"]["iterations"] == 1
    assert report["data"]["stalled_at"] is None
    assert not report["bounds"][0]["satisfied"]


def test_solve_refine_reports_a_stalled_start(capsys, tmp_path):
    code, report, _ = run_cli(
        capsys, _refine_inputs(tmp_path) + ["--target", "1e-12", "--max-iters", "700"]
    )
    assert code == 1
    assert report["data"]["converged"] is False
    assert report["data"]["stalled_at"] == report["data"]["iterations"] == 500
    assert not report["bounds"][0]["satisfied"]
    # the rule compared the best regrets at 250 and 500: falling at that rate,
    # the regret would reach 1e-12 far beyond 4 * 700 iterations
    (t0, b0), (t1, b1) = report["data"]["checkpoints"]
    assert (t0, t1) == (250, 500) and b0 > b1 == report["bounds"][0]["measured"]


def test_audit_mass_bound_squares_the_exact_eps(capsys, tmp_path):
    game = write_game(tmp_path, "diag.json", [["2", "0"], ["0", "1"]], ["max", "max"])
    uniform = write_profile(tmp_path, "uniform.json", [["1/2", "1/2"], ["1/2", "1/2"]])
    code, report, _ = run_cli(
        capsys,
        ["audit", "mass-bound", "--game", game, "--profile", uniform, "--eps", "1/20"],
    )
    assert code == 2
    assert report["error"].startswith("profile is not a certified 0.0025-equilibrium:")


def test_solve_refine_rejects_damping_above_one(capsys, tmp_path):
    code, report, err = run_cli(
        capsys, _refine_inputs(tmp_path) + ["--target", "1/10", "--damping", "2"]
    )
    assert code == 2
    assert "damping" in err
    assert report["exit_code"] == 2 and "damping" in report["error"]


def test_solve_2x2_closed_form(capsys, tmp_path):
    game = write_game(
        tmp_path, "mp.json", [["1", "-1"], ["-1", "1"]], ["min", "max"]
    )
    code, report, _ = run_cli(capsys, ["solve", "2x2", "--game", game])
    assert code == 0
    assert report["data"]["value"] == "0"
    assert report["data"]["row_strategy"] == ["1/2", "1/2"]


def test_solve_2x2_requires_minmax_orientation(capsys, tmp_path):
    game = write_game(
        tmp_path, "mp.json", [["1", "-1"], ["-1", "1"]], ["max", "max"]
    )
    code, _, err = run_cli(capsys, ["solve", "2x2", "--game", game])
    assert code == 2 and "orientation" in err


def test_solve_max_clique_reports_one_indexed(capsys, tmp_path, fig1):
    gpath = write_graph(tmp_path, "fig1.txt", fig1)
    code, report, _ = run_cli(capsys, ["solve", "max-clique", "--graph", gpath])
    assert code == 0
    assert report["data"]["size"] == 4
    assert report["data"]["clique"] == [1, 2, 3, 4]


CLIQUE_VALUES = {"--k": "2", "--delta": "1/3", "--eps": "1/200000"}


@pytest.mark.parametrize("variant, reads", [
    ("base", []), ("delta", ["--delta"]), ("unique", ["--k"]),
    ("robust", ["--k", "--delta", "--eps"]),
])
def test_gadget_clique_refuses_the_options_its_variant_drops(capsys, tmp_path, path3,
                                                             variant, reads):
    argv = ["gadget", "clique", "--graph", write_graph(tmp_path, "path3.txt", path3),
            "--variant", variant]
    read = [word for option in reads for word in (option, CLIQUE_VALUES[option])]
    code, report, _ = run_cli(capsys, argv + read)
    assert code == 0 and report["data"]["variant"] == variant
    dropped = [option for option in CLIQUE_VALUES if option not in reads]
    for option in dropped:
        code, report, err = run_cli(capsys, argv + read + [option, CLIQUE_VALUES[option]])
        message = f"gadget clique --variant {variant} does not read {option}"
        assert code == 2 and report["bounds"] == []
        assert report["error"] == message and message in err
    if dropped:  # every dropped option is named, in one report
        everything = [word for option, value in CLIQUE_VALUES.items() for word in (option, value)]
        code, report, _ = run_cli(capsys, argv + everything)
        assert code == 2
        assert report["error"].endswith(f"does not read {', '.join(dropped)}")


def test_gadget_quadratic_roundtrip(capsys, tmp_path):
    game = write_game(
        tmp_path, "r.json", [["1/2", "-1/4"], ["1/4", "1/2"]], ["max", "max"]
    )
    out = tmp_path / "quad.json"
    code, report, _ = run_cli(
        capsys, ["gadget", "quadratic", "--game", game, "-o", str(out)]
    )
    assert code == 0
    prob = fileio.load_game(str(out))
    assert isinstance(prob, QuadraticMinMaxProblem)
    assert prob.n_x == 2
    assert report["data"]["smoothness_bound"] == prob.smoothness_bound


def test_backmap_symmetric_bound_holds_at_equilibrium(capsys, tmp_path):
    # symmetric matrix whose symmetric game has the uniform equilibrium
    game = write_game(
        tmp_path, "sym.json", [["0", "1"], ["1", "0"]], ["max", "max"]
    )
    profile = write_profile(tmp_path, "x.json", [["1/2", "1/2"]])
    code, report, _ = run_cli(
        capsys,
        [
            "backmap", "symmetric",
            "--game", game,
            "--profile", profile,
            "--gap", "1/100",
        ],
    )
    assert code == 0
    bound = report["bounds"][0]
    assert bound["name"] == "symmetric_vi"
    assert bound["satisfied"]
    assert bound["value"] == pytest.approx(2 ** 0.5 * 0.01 * 5)


@pytest.mark.parametrize("rows", [[[1 / 3, 2 / 3], ["1/3", "2/3"]], [["1/3", "2/3"], [1 / 3, 2 / 3]]],
                         ids=["float-first", "exact-first"])
def test_backmap_symmetric_reads_a_pair_of_identical_strategies_as_one(capsys, tmp_path, rows):
    # (1/3, 2/3) is a symmetric equilibrium of diag(1, 1/2); of the two
    # strategies of a symmetric pair, the exact one is used
    game = write_game(tmp_path, "diag.json", [["1", "0"], ["0", "1/2"]], ["max", "max"])
    argv = ["backmap", "symmetric", "--game", game, "--gap", "1/100", "--profile"]
    one = run_cli(capsys, argv + [write_profile(tmp_path, "one.json", [["1/3", "2/3"]])])[1]
    pair = run_cli(capsys, argv + [write_profile(tmp_path, "pair.json", rows)])[1]
    assert pair["exit_code"] == 0
    assert pair["data"]["strategy"] == ["1/3", "2/3"]
    assert {**pair, "inputs_hash": None} == {**one, "inputs_hash": None}


def test_the_quadratic_back_maps_refuse_a_matrix_their_gadget_refuses(capsys, tmp_path):
    # an entry outside [-1, 1]: no quadratic gadget exists, so no bound is stated
    game = write_game(tmp_path, "big.json", [["5", "0"], ["0", "0"]], ["max", "max"])
    one = write_profile(tmp_path, "one.json", [["1/2", "1/2"]])
    pair = write_profile(tmp_path, "pair.json", [["1/2", "1/2"]] * 2)
    for argv in (
        ["gadget", "quadratic", "--game", game],
        ["backmap", "symmetric", "--game", game, "--profile", one, "--gap", "0"],
        ["backmap", "median", "--game", game, "--profile", pair, "--gap", "0", "--delta", "1/10"],
    ):
        code, report, _ = run_cli(capsys, argv)
        assert (code, report["error"]) == (2, "entries of R must lie in [-1, 1]")


def test_gadget_coupled_refuses_a_zero_delta(capsys, tmp_path):
    game = write_game(tmp_path, "r.json", [["0", "-1"], ["1", "0"]], ["max", "max"])
    code, report, _ = run_cli(capsys, ["gadget", "coupled", "--game", game, "--delta", "0"])
    assert (code, report["error"]) == (2, "delta must be finite and positive, got 0.0")


def test_gadget_coupled_refuses_delta_together_with_eps(capsys, tmp_path):
    # --delta alone is read; with --eps beside it, one of the two would be dropped
    game = write_game(tmp_path, "r.json", [["0", "-1"], ["1", "0"]], ["max", "max"])
    argv = ["gadget", "coupled", "--game", game, "--delta", "1/4"]
    assert run_cli(capsys, argv)[0] == 0
    for eps in ("1/100", "1/20"):
        code, report, err = run_cli(capsys, argv + ["--eps", eps])
        assert (code, report["bounds"]) == (2, [])
        assert report["error"] == "gadget coupled reads --delta or --eps, not both"
        assert report["error"] in err


def test_backmap_symmetric_refuses_a_file_oriented_for_minimizing(capsys, tmp_path):
    # (1, 0) is a symmetric equilibrium of diag(1, 1/2) for maximizers, but
    # both minimizers regret it by 1: the file is not the (R, R^T) the
    # back-map's bound is about, so it is refused, not judged as maximizing
    game = write_game(tmp_path, "diag.json", [["1", "0"], ["0", "1/2"]], ["min", "min"])
    x = write_profile(tmp_path, "x.json", [["1", "0"]])
    code, report, _ = run_cli(capsys, ["check", "ne", "--game", game, "--profile",
                                       write_profile(tmp_path, "xx.json", [["1", "0"]] * 2)])
    assert (code, report["data"]["regrets"]) == (0, [1.0, 1.0])
    code, report, _ = run_cli(
        capsys, ["backmap", "symmetric", "--game", game, "--profile", x, "--gap", "0"])
    assert code == 2
    assert report["bounds"] == []
    assert report["error"] == (
        "this command needs a two-player tensor game file with orientation [maximize, maximize]"
    )


def _check_ne_max_regret(capsys, tmp_path, game, strategy: MixedStrategy) -> float:
    profile = tmp_path / "pair.json"
    fileio.save_profile(MixedProfile((strategy, strategy)), str(profile))
    code, report, _ = run_cli(capsys, ["check", "ne", "--game", game, "--profile", str(profile)])
    assert code == 0
    return max(report["data"]["regrets"])


def test_backmap_symmetric_measures_what_check_ne_measures_at_x_x(capsys, tmp_path):
    # R x = (1/4, 3/8) at x = (1/4, 3/4), so (x, x) has regret 3/8 - 11/32 = 1/32
    game = write_game(tmp_path, "diag.json", [["1", "0"], ["0", "1/2"]], ["max", "max"])
    x = write_profile(tmp_path, "x.json", [["1/4", "3/4"]])
    code, report, _ = run_cli(
        capsys, ["backmap", "symmetric", "--game", game, "--profile", x, "--gap", "1/100"])
    assert code == 0
    measured = report["bounds"][0]["measured"]
    assert measured == 1 / 32
    assert measured == _check_ne_max_regret(capsys, tmp_path, game, fileio.load_profile(x)[0])


def test_backmap_team_measures_what_check_ne_measures_at_y_y(capsys, tmp_path):
    # A = [[-4, -2], [-2, -3]], both players minimizing; y* = (1 - t, t) with
    # t = 1/1024 keeps the gadget profile certified and has regret t (2 - 3t)
    a = gadgets.shift_to_gadget_range(fmat([[3, 5], [5, 4]]))[0]
    game = write_game(tmp_path, "a.json", [[str(e) for e in row] for row in a], ["min", "min"])
    instance = gadgets.team_gadget(a, Fraction(1, 20))
    x, _, anchor = gadgets.canonical_team_ne(instance)
    t = Fraction(1, 1024)
    y = MixedStrategy.from_exact((1 - t, t))
    profile = tmp_path / "team.json"
    fileio.save_profile(MixedProfile((x, y, anchor)), str(profile))
    code, report, _ = run_cli(capsys, ["backmap", "team", "--game", game, "--eps", "1/20",
                                       "--profile", str(profile)])
    assert code == 0
    measured = report["bounds"][0]["measured"]
    assert measured == float(t * (2 - 3 * t))
    assert measured == _check_ne_max_regret(capsys, tmp_path, game, y)


def test_dynamics_run_writes_a_trajectory(capsys, tmp_path):
    game = write_game(
        tmp_path, "r.json", [["0", "-1"], ["1", "0"]], ["max", "max"]
    )
    out_quad = tmp_path / "quad.json"
    run_cli(capsys, ["gadget", "quadratic", "--game", game, "-o", str(out_quad)])
    out_csv = tmp_path / "traj.csv"
    code, report, _ = run_cli(
        capsys,
        [
            "dynamics", "run",
            "--problem", str(out_quad),
            "--algo", "gda",
            "--steps", "25",
            "-o", str(out_csv),
        ],
    )
    assert code == 0
    rows = load_trajectory_rows(str(out_csv))
    assert len(rows) == 25


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_dynamics_run_on_a_rectangular_problem_reports_no_drift(capsys, tmp_path):
    problem = QuadraticMinMaxProblem(
        qx=fmat([[1, 0], [0, 1]]),
        qy=fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
        m=fmat([[1, -1], [0, "1/2"], [-1, 0]]),
    )
    path = tmp_path / "rect.json"
    fileio.save_game(problem, str(path))
    code = cli.main(["dynamics", "run", "--problem", str(path), "--algo", "gda", "--steps", "5"])
    report = _strict_json(capsys.readouterr().out)
    assert code == 0
    assert report["data"]["max_drift"] is None
    assert report["data"]["min_gap"] >= 0.0


def test_reports_refuse_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_report({"value": float("inf")}, str(tmp_path / "r.json"))
    with pytest.raises(ValueError):
        fileio.write_report({"value": float("nan")}, None)


def test_report_file_flag(capsys, tmp_path, fig1):
    gpath = write_graph(tmp_path, "fig1.txt", fig1)
    rpath = tmp_path / "report.json"
    code = cli.main(
        ["solve", "max-clique", "--graph", gpath, "--report", str(rpath)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(rpath.read_text(encoding="utf-8"))
    assert report["data"]["size"] == 4
    assert len(report["inputs_hash"]) == 64


def test_usage_errors_exit_via_argparse(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["solve", "no-such-solver"])


FILE_KINDS = (cli.GAME, cli.PROFILE, cli.GRAPH)
MALFORMED_CASES = cli.COMMANDS  # one malformed-input case per table entry
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
)


def _required_argv(command, files: dict):
    """Required options of a command, each file option naming files[its kind]."""
    argv = command.name.split()
    for arg in command.args:
        if not arg.options.get("required"):
            continue
        if arg.kind in files:
            value = files[arg.kind]
        elif "choices" in arg.options:
            value = arg.options["choices"][0]
        else:
            value = "3" if arg.options.get("type") is int else "1/20"
        argv += [arg.flag, value]
    return argv


def _malformed_argv(command, tmp_path):
    """Required options of a command, every file holding malformed JSON."""
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    argv = _required_argv(command, dict.fromkeys(FILE_KINDS, str(bad)))
    if not any(arg.kind in FILE_KINDS for arg in command.args):
        argv += ["-o", str(tmp_path)]  # a directory: the artifact cannot be written
    return argv


@pytest.mark.parametrize("command", MALFORMED_CASES, ids=lambda c: c.name)
def test_malformed_input_reports_exit_2(capsys, tmp_path, command):
    code, report, err = run_cli(capsys, _malformed_argv(command, tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert report["command"] == command.name
    assert report["exit_code"] == 2
    assert report["bounds"] == []
    assert report["error"]


SYMMETRIC = [["1/2", "0"], ["0", "1/4"]]  # symmetric, entries in [-1, 1]
ORIENTED = {"max-max": ["max", "max"], "min-min": ["min", "min"], "min-max": ["min", "max"]}
GAME_FILE_KINDS = (*ORIENTED, "three-player", "polymatrix", "quadratic")


def _source(orientation: str):
    """A source-matrix command: the one oriented kind it reads, and its refusal."""
    words = ", ".join("minimize" if w == "min" else "maximize" for w in ORIENTED[orientation])
    return {orientation}, {
        f"this command needs a two-player tensor game file with orientation [{words}]"}


ANY_GAME = set(GAME_FILE_KINDS) - {"quadratic"}, {
    "this command needs a tensor or polymatrix game file"}
PROBLEM = {"quadratic"}, {"this command needs a quadratic problem file"}
SYMMETRIC_GAME = {"max-max", "min-min"}, {
    "expected an identical-payoff two-player game", "players must share an orientation"}
# command -> (the game file kinds it reads, the errors it refuses the others with)
READS = {
    "gadget team": _source("min-min"),
    "gadget quadratic": _source("max-max"),
    "gadget coupled": _source("max-max"),
    "gadget team3v3": _source("max-max"),
    "check ne": ANY_GAME,
    "check wsne": SYMMETRIC_GAME,
    "check fone": PROBLEM,
    "check gap": PROBLEM,
    "backmap team": _source("min-min"),
    "backmap symmetric": _source("max-max"),
    "backmap median": _source("max-max"),
    "backmap team3v3": _source("max-max"),
    "audit gadget-structure": _source("min-min"),
    "audit classify": _source("max-max"),
    "audit mass-bound": ANY_GAME,
    "solve enumerate": SYMMETRIC_GAME,
    "solve grid": ANY_GAME,
    "solve refine": ANY_GAME,
    "solve 2x2": _source("min-max"),
    "dynamics run": PROBLEM,
}
GAME_FILE_COMMANDS = [c for c in cli.COMMANDS if any(a.kind == cli.GAME for a in c.args)]


def _game_file(tmp_path, kind: str) -> str:
    """A file of one kind a --game or --problem option may name, two actions a player."""
    if kind in ORIENTED:
        return write_game(tmp_path, f"{kind}.json", SYMMETRIC, ORIENTED[kind])
    if kind == "three-player":
        game = NormalFormGame((exact_array([SYMMETRIC] * 2),) * 3, (MINIMIZE, MINIMIZE, MAXIMIZE))
    elif kind == "polymatrix":
        pairs = {(0, 1): fmat(SYMMETRIC), (1, 2): fmat(SYMMETRIC)}
        game = PolymatrixGame((2, 2, 2), pairs, (MINIMIZE, MINIMIZE, MAXIMIZE))
    else:
        game = gadgets.quadratic_gadget(fmat(SYMMETRIC))
    path = tmp_path / f"{kind}.json"
    fileio.save_game(game, str(path))
    return str(path)


def _file_kind_argv(command, tmp_path, kind: str):
    """Required options of a command, its game file of `kind`, its profile a
    uniform pair of strategies."""
    return _required_argv(command, {
        cli.GAME: _game_file(tmp_path, kind),
        cli.PROFILE: write_profile(tmp_path, "uniform.json", [["1/2", "1/2"]] * 2),
    })


def test_every_command_that_reads_a_game_file_says_which_kinds():
    assert {c.name for c in GAME_FILE_COMMANDS} == set(READS)


@pytest.mark.parametrize("kind", GAME_FILE_KINDS)
@pytest.mark.parametrize("command", GAME_FILE_COMMANDS, ids=lambda c: c.name)
def test_every_game_file_kind_gets_a_report_and_only_its_kinds_are_read(
    capsys, tmp_path, command, kind
):
    code, report, _ = run_cli(capsys, _file_kind_argv(command, tmp_path, kind))
    assert code in (0, 1, 2)
    assert report["command"] == command.name and report["exit_code"] == code
    accepted, refusals = READS[command.name]
    if kind in accepted:
        assert report.get("error") not in refusals
    else:
        assert (code, report["bounds"]) == (2, [])
        assert report["error"] in refusals


def test_a_profile_of_the_wrong_size_or_a_coupled_gadget_without_a_width_exits_2(
    capsys, tmp_path
):
    game, problem = _game_file(tmp_path, "max-max"), _game_file(tmp_path, "quadratic")
    three = write_profile(tmp_path, "three.json", [["1/2", "1/2"]] * 3)
    one = write_profile(tmp_path, "one.json", [["1/2", "1/2"]])
    for argv, error in (
        (["check", "wsne", "--game", game, "--profile", three],
         "expected a profile with one strategy (or two identical ones)"),
        (["check", "fone", "--game", problem, "--profile", one],
         "expected a two-strategy profile"),
        (["gadget", "coupled", "--game", game], "gadget coupled needs --delta or --eps"),
    ):
        code, report, _ = run_cli(capsys, argv)
        assert (code, report["bounds"], report["error"]) == (2, [], error)


@pytest.mark.parametrize("row, error", [
    (["1/3", "1/3", "1/3"], "strategy length does not match the matrix"),
    ([0.5, 0.25, 0.25], "strategy length does not match the game"),
], ids=["exact", "float"])
def test_check_wsne_refuses_a_strategy_of_the_wrong_length(capsys, tmp_path, row, error):
    game = _game_file(tmp_path, "max-max")
    x = write_profile(tmp_path, "x.json", [row])
    code, report, err = run_cli(capsys, ["check", "wsne", "--game", game, "--profile", x])
    assert (code, report["bounds"], report["error"]) == (2, [], error)
    assert err == f"error: {error}\n"


def test_every_command_has_a_golden_case_and_a_malformed_case():
    table = {c.name for c in cli.COMMANDS}
    golden = {case["report"]["command"] for case in GOLDEN["cases"].values()}
    malformed = {c.name for c in MALFORMED_CASES}
    assert table == golden == malformed == set(GOLDEN["surface"]["commands"])


def test_unwritable_report_path_prints_the_error_report(capsys, tmp_path, fig1):
    gpath = write_graph(tmp_path, "fig1.txt", fig1)
    code, report, err = run_cli(
        capsys, ["solve", "max-clique", "--graph", gpath, "--report", str(tmp_path)]
    )
    assert code == 2
    assert "error" in err
    assert report["exit_code"] == 2 and report["error"]
    assert report["inputs_hash"] == fileio.hash_inputs({"graph": fileio.graph_to_dict(fig1)})


def test_escaped_violation_reports_exit_1(capsys, tmp_path, fig1, monkeypatch):
    def violated(graph):
        raise BoundViolationError("planted violation")

    monkeypatch.setattr(cli, "max_clique", violated)
    gpath = write_graph(tmp_path, "fig1.txt", fig1)
    code, report, err = run_cli(capsys, ["solve", "max-clique", "--graph", gpath])
    assert code == 1
    assert err.startswith("violation: planted violation")
    assert report["exit_code"] == 1
    assert report["bounds"] == []
    assert report["error"] == "planted violation"


def test_backmap_team3v3_reports_a_violated_structure_bound(capsys, tmp_path, monkeypatch):
    r = [["1/2", "0"], ["0", "1/2"]]
    game = write_game(tmp_path, "r.json", r, ["max", "max"])
    inst = gadgets.team3v3_gadget(fmat(r), Fraction(1, 20))
    eq = oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)[0]
    s, anchor = MixedStrategy.from_exact(eq.probs), MixedStrategy.pure(5, 4)
    profile = tmp_path / "team.json"
    fileio.save_profile(MixedProfile((s, s, anchor, s, s, anchor)), str(profile))
    measure = cli.measure_team3v3
    monkeypatch.setattr(
        cli, "measure_team3v3",
        lambda *a: dataclasses.replace(measure(*a), max_pair_gap=0.5),
    )
    code, report, _ = run_cli(
        capsys,
        ["backmap", "team3v3", "--game", game, "--eps", "1/20", "--profile", str(profile)],
    )
    assert code == 1
    bounds = {b["name"]: b for b in report["bounds"]}
    assert bounds["pair_gap"]["measured"] == 0.5
    assert not bounds["pair_gap"]["satisfied"]
    assert bounds["mirror_mass"]["satisfied"]
    assert bounds["team3v3_backmap"]["satisfied"]


@pytest.mark.parametrize("swap", [False, True], ids=["equal-first", "nudged-first"])
def test_symmetric_profile_strategies_must_agree_to_1e_12(capsys, tmp_path, swap):
    # the two strategies differ by 4e-6: within numpy's default relative
    # tolerance, far outside the stated absolute one
    game = write_game(tmp_path, "id.json", [["1", "0"], ["0", "1"]], ["max", "max"])
    rows = [[0.5, 0.5], [0.500004, 0.499996]]
    x = write_profile(tmp_path, "x.json", rows[::-1] if swap else rows)
    code, report, _ = run_cli(capsys, ["check", "wsne", "--game", game, "--profile", x])
    assert code == 2
    assert report["bounds"] == []
    assert "must agree" in report["error"]


def _classify_argv(tmp_path, fig1):
    game = unique_ne_game(fig1, 4)
    eq = oracle.symmetric_support_enumeration(game.row_payoff, orientation=MAXIMIZE)[0]
    gpath, ppath = tmp_path / "bordered.json", tmp_path / "x.json"
    fileio.save_game(game, str(gpath))
    fileio.save_profile(MixedProfile((MixedStrategy.from_exact(eq.probs),)), str(ppath))
    return ["audit", "classify", "--game", str(gpath), "--profile", str(ppath), "--k", "4"]


def test_classify_at_eps_zero_is_the_default(capsys, tmp_path, fig1):
    argv = _classify_argv(tmp_path, fig1)
    default = run_cli(capsys, argv)
    assert default[0] == 0
    assert run_cli(capsys, argv + ["--eps", "0"]) == default


@pytest.mark.parametrize("wsne", [[], ["--wsne"]], ids=["ne", "wsne"])
def test_classify_rejects_a_negative_eps(capsys, tmp_path, fig1, wsne):
    code, report, err = run_cli(capsys, _classify_argv(tmp_path, fig1) + ["--eps", "-1"] + wsne)
    assert code == 2
    assert err.startswith("error:")
    assert report["exit_code"] == 2
    assert report["bounds"] == []
    assert "non-negative" in report["error"]


def _hash_pair(tmp_path, fig1, path3, case):
    """Two argv of one command that differ in one option main does not record."""
    if case.startswith("refine"):
        game = write_game(tmp_path, "mp.json", [["1", "-1"], ["-1", "1"]], ["min", "max"])
        start = write_profile(tmp_path, "start.json", [["9/10", "1/10"], ["1/5", "4/5"]])
        base = ["solve", "refine", "--game", game, "--profile", start, "--target", "1e-12"]
        if case == "refine-iters":
            return base + ["--max-iters", "1"], base + ["--max-iters", "50"]
        return base + ["--damping", "0.1"], base + ["--damping", "0.5"]
    if case == "classify-eps":
        argv = _classify_argv(tmp_path, fig1)
        return argv, argv + ["--eps", "0"]
    if case == "coupled-width":
        game = write_game(tmp_path, "r.json", SYMMETRIC, ["max", "max"])
        base = ["gadget", "coupled", "--game", game]
        return base + ["--eps", "1/20"], base + ["--delta", repr(gadgets.coupling_width(0.05, 2))]
    if case == "wsne-value-k":
        argv = ["audit", "wsne-value", "--graph", write_graph(tmp_path, "path3.txt", path3)]
        return argv, argv + ["--k", str(oracle.max_clique(path3)[0])]
    base = ["gadget", "clique", "--graph", write_graph(tmp_path, "fig1.txt", fig1),
            "--variant", "unique"]
    return base + ["--k", "2"], base + ["--k", "3"]


@pytest.mark.parametrize("case, same", [
    ("refine-iters", False), ("refine-damping", False), ("classify-eps", True),
    ("coupled-width", True), ("wsne-value-k", True), ("clique-k", False),
])
def test_two_reports_share_an_inputs_hash_exactly_when_they_are_the_same_report(
    capsys, tmp_path, fig1, path3, case, same
):
    """The options main does not record are those a handler records in a
    derived form, so the hash of the recorded inputs names the report."""
    pair = _hash_pair(tmp_path, fig1, path3, case)
    command = next(c for c in cli.COMMANDS if c.name.split() == pair[0][:2])
    out = tmp_path / "artifact"
    results = []
    for argv in pair:
        code, report, _ = run_cli(capsys, argv + (["-o", str(out)] if command.output else []))
        assert code in (0, 1)
        artifact = out.read_bytes() if command.output else None
        results.append((report.pop("inputs_hash"), report, artifact))
    (hash_a, report_a, artifact_a), (hash_b, report_b, artifact_b) = results
    assert (report_a == report_b and artifact_a == artifact_b) is same
    assert (hash_a == hash_b) is same
