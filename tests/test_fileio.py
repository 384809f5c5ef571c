"""Serialization: exact round trips, strict parsing, deterministic reports."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from minmaxlab import dynamics, gadgets
from minmaxlab.checks import BoundRecord
from minmaxlab.dynamics import GDA, DynamicsConfig
from minmaxlab.errors import FormatError
from minmaxlab.fileio import (
    REPORT_ANCHORS,
    canonical_json,
    game_from_dict,
    game_to_dict,
    graph_to_dict,
    hash_inputs,
    load_game,
    load_graph,
    load_profile,
    make_report,
    parse_rational,
    profile_to_dict,
    rational_str,
    record_to_dict,
    save_game,
    save_graph,
    save_profile,
    save_trajectory,
    write_report,
)
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
)
from minmaxlab.rational import fmat
from trajectory_csv import load_trajectory_rows


def test_parse_rational_forms():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(4) == Fraction(4)
    with pytest.raises(FormatError):
        parse_rational("1/0")
    with pytest.raises(FormatError):
        parse_rational("spam")


def test_rational_str_round_trips():
    for f in (Fraction(-3, 7), Fraction(5), Fraction(0), Fraction(1, 1000000)):
        assert parse_rational(rational_str(f)) == f


def test_shared_payoff_game_round_trip(tmp_path):
    r = fmat([["1/3", -2], [0, "7/5"]])
    game = BimatrixGame(r, r, (MINIMIZE, MINIMIZE))
    path = tmp_path / "game.json"
    save_game(game, str(path))
    back = load_game(str(path))
    assert np.array_equal(back.payoffs[0], r)
    assert np.array_equal(back.payoffs[1], r)
    assert back.orientation == game.orientation


def test_distinct_payoffs_do_not_fit_the_tensor_format():
    game = BimatrixGame(fmat([[1]]), fmat([[2]]), (MINIMIZE, MAXIMIZE))
    with pytest.raises(FormatError):
        game_to_dict(game)


def test_team_game_round_trip(tmp_path):
    game = gadgets.team3v3_gadget(fmat([["1/2", 0], [0, "1/2"]]), Fraction(1, 20)).game
    path = tmp_path / "team.json"
    save_game(game, str(path))
    back = load_game(str(path))
    assert {key: m.tolist() for key, m in back.pair_matrices.items()} == {
        key: m.tolist() for key, m in game.pair_matrices.items()
    }
    assert back.action_counts == game.action_counts
    assert back.team_partition == game.team_partition
    assert back.orientation == game.orientation


def test_quadratic_problem_round_trip(tmp_path):
    prob = gadgets.quadratic_gadget(fmat([["1/2", "-1/4"], ["1/4", "1/2"]]))
    path = tmp_path / "quad.json"
    save_game(prob, str(path))
    back = load_game(str(path))
    assert [back.qx.tolist(), back.qy.tolist(), back.m.tolist()] == [
        prob.qx.tolist(), prob.qy.tolist(), prob.m.tolist()
    ]
    assert back.smoothness_bound == prob.smoothness_bound
    assert back.lipschitz_bound == prob.lipschitz_bound
    if prob.domain is not None:
        assert back.domain.delta == pytest.approx(prob.domain.delta, abs=0)


def test_game_dict_is_json_ready():
    game = BimatrixGame(fmat([[1]]), fmat([[1]]), (MINIMIZE, MAXIMIZE))
    doc = game_to_dict(game)
    json.dumps(doc)  # must not raise
    assert game_from_dict(doc).payoffs[0] == game.row_payoff


def test_malformed_game_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_game(str(bad))
    bad.write_text(json.dumps({"players": 2}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_game(str(bad))
    bad.write_text(
        json.dumps(
            {
                "payoffs": [[["1/2"]], [["1/2"]]],
                "orientation": ["min", "sideways"],
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(FormatError):
        load_game(str(bad))


def team_doc(**fields):
    """A valid three-player polymatrix team game file, with `fields` replaced."""
    doc = {
        "players": 3,
        "action_counts": [1, 1, 1],
        "orientation": ["min", "min", "max"],
        "payoff": {"polymatrix": [{"i": 0, "j": 2, "matrix": [["1"]]}]},
        "team_partition": [[0, 1], [2]],
    }
    doc.update(fields)
    return doc


BAD_INTEGER_FIELDS = {
    "float index": {"team_partition": [[0, 1.9], [2]]},
    "bool index": {"team_partition": [[0, True], [2]]},
    "float players": {"players": 3.7},
    "string players": {"players": "3"},
    "bool count": {"action_counts": [1, True, 1]},
    "float count": {"action_counts": [1, 1.0, 1]},
    "counts not a list": {"action_counts": "111"},
    "float pair index": {"payoff": {"polymatrix": [{"i": 0.0, "j": 2, "matrix": [["1"]]}]}},
    "bool pair index": {"payoff": {"polymatrix": [{"i": 0, "j": True, "matrix": [["1"]]}]}},
}


def test_the_team_document_loads():
    game = game_from_dict(team_doc())
    assert game.team_partition == (frozenset({0, 1}), frozenset({2}))
    tensor = game_from_dict(TENSOR_DOC)
    assert tensor.team_partition == (frozenset({0}), frozenset({1}))


@pytest.mark.parametrize("fields", BAD_INTEGER_FIELDS.values(), ids=list(BAD_INTEGER_FIELDS))
def test_integer_fields_are_read_strictly(fields):
    with pytest.raises(FormatError, match="integer|list"):
        game_from_dict(team_doc(**fields))


def quadratic_text(key: str, raw: str) -> str:
    """A coupled quadratic problem file whose `key` field is the JSON text `raw`."""
    doc = game_to_dict(gadgets.coupled_gadget(fmat([["1/2", "-1/4"], ["1/4", "1/2"]]), 0.25))
    doc["payoff"]["quadratic"][key] = "@"
    return json.dumps(doc).replace('"@"', raw)


BAD_REAL_FIELDS = {
    "bool delta": ("delta", "true"),
    "bool smoothness": ("smoothness_bound", "true"),
    "bool lipschitz": ("lipschitz_bound", "true"),
    "overflowing delta": ("delta", "1e400"),
    "overflowing smoothness": ("smoothness_bound", "-1e400"),
    "overflowing rational": ("lipschitz_bound", '"1e400"'),
    "NaN lipschitz": ("lipschitz_bound", "NaN"),
    "list delta": ("delta", "[1]"),
}


def test_the_quadratic_document_loads():
    problem = game_from_dict(json.loads(quadratic_text("delta", '"1/4"')))
    assert problem.domain.delta == 0.25 and problem.smoothness_bound == 8.0


@pytest.mark.parametrize("field", BAD_REAL_FIELDS.values(), ids=list(BAD_REAL_FIELDS))
def test_real_fields_are_finite_numbers(field):
    with pytest.raises(FormatError, match="must be"):
        game_from_dict(json.loads(quadratic_text(*field)))


TENSOR_DOC = {
    "players": 2,
    "action_counts": [1, 1],
    "orientation": ["min", "max"],
    "payoff": {"tensor": [["1"]]},
    "team_partition": [[0], [1]],
}
REFUSED_BY_A_CONSTRUCTOR = {
    "negative smoothness": (
        json.loads(quadratic_text("smoothness_bound", "-1")),
        "smoothness_bound must be finite and nonnegative, got -1.0",
    ),
    "negative delta": (
        json.loads(quadratic_text("delta", '"-1/4"')),
        "delta must be finite and nonnegative, got -0.25",
    ),
    "non-square qx": (
        json.loads(quadratic_text("qx", '[["1", "0"]]')),
        "Qx and Qy must be square",
    ),
    "asymmetric qx": (
        json.loads(quadratic_text("qx", '[["1", "1"], ["0", "1"]]')),
        "Qx and Qy must be symmetric (exactly)",
    ),
    "polymatrix self pair": (
        team_doc(payoff={"polymatrix": [{"i": 0, "j": 0, "matrix": [["1"]]}]}),
        "bad player pair (0, 0)",
    ),
    "polymatrix block shape": (
        team_doc(payoff={"polymatrix": [{"i": 0, "j": 2, "matrix": [["1", "2"]]}]}),
        "pair (0, 2) matrix has shape (1, 2)",
    ),
    "teams pulling one way": (
        {**TENSOR_DOC, "orientation": ["min", "min"]},
        "the two teams must pull the shared payoff in opposite directions",
    ),
}


@pytest.mark.parametrize(
    "doc, message", REFUSED_BY_A_CONSTRUCTOR.values(), ids=list(REFUSED_BY_A_CONSTRUCTOR)
)
def test_a_constructor_refusal_is_a_format_error_with_its_message(doc, message):
    with pytest.raises(FormatError) as caught:
        game_from_dict(doc)
    assert str(caught.value) == message


def test_graph_round_trip(tmp_path, fig1):
    path = tmp_path / "g.txt"
    save_graph(fig1, str(path))
    back = load_graph(str(path))
    assert back.n == fig1.n
    assert back.edges == fig1.edges
    # the dict form is 1-indexed
    doc = graph_to_dict(fig1)
    assert doc["n"] == 5
    assert sorted(tuple(e) for e in doc["edges"]) == sorted(
        (i + 1, j + 1) for i, j in fig1.edges
    )


def test_graph_file_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n1 5\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_graph(str(path))
    path.write_text("3 2\n1 2\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_graph(str(path))  # header promises two edges
    path.write_text("", encoding="utf-8")
    with pytest.raises(FormatError):
        load_graph(str(path))


@pytest.mark.parametrize("header", ["0 0", "-2 0"])
def test_a_graph_without_vertices_is_a_format_error(tmp_path, header):
    path = tmp_path / "g.txt"
    path.write_text(header + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="^graph needs at least one vertex$"):
        load_graph(str(path))


def test_profile_round_trip_keeps_fractions(tmp_path):
    profile = MixedProfile(
        (
            MixedStrategy.from_exact([Fraction(1, 3), Fraction(2, 3)]),
            MixedStrategy([0.25, 0.75]),
        )
    )
    path = tmp_path / "p.json"
    save_profile(profile, str(path))
    back = load_profile(str(path))
    assert back.strategies[0].exact == (Fraction(1, 3), Fraction(2, 3))
    assert back.strategies[1].probs == pytest.approx([0.25, 0.75], abs=0)
    # the on-disk form keeps the exact strategy as strings
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["strategies"][0] == ["1/3", "2/3"]


def prior_dump(doc, path):
    """How save_game and save_profile wrote before they shared write_report."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def test_saved_games_and_profiles_keep_the_prior_bytes(tmp_path):
    games = [
        BimatrixGame(fmat([["1/3", -2]]), fmat([["1/3", -2]]), (MINIMIZE, MAXIMIZE)),
        gadgets.team3v3_gadget(fmat([[1, "-1/2"], [0, 2]]), "1/20").game,
        gadgets.coupled_gadget(fmat([["1/2", "-1/4"], ["1/4", "1/2"]]), 0.25),
    ]
    profile = MixedProfile((MixedStrategy.from_exact(["1/3", "2/3"]), MixedStrategy([0.1, 0.9])))
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    for game in games:
        save_game(game, str(new))
        prior_dump(game_to_dict(game), str(old))
        assert new.read_bytes() == old.read_bytes()
    save_profile(profile, str(new))
    prior_dump(profile_to_dict(profile), str(old))
    assert new.read_bytes() == old.read_bytes()


def test_save_game_refuses_a_non_finite_field(tmp_path):
    # constructors reject such a bound; one forced past them must not be
    # written as the token Infinity, which load_game would refuse
    problem = gadgets.coupled_gadget(fmat([["1/2", "-1/4"], ["1/4", "1/2"]]), 0.25)
    object.__setattr__(problem, "smoothness_bound", math.inf)
    path = tmp_path / "g.json"
    with pytest.raises(ValueError, match="JSON"):
        save_game(problem, str(path))
    assert not path.exists()


def test_profile_rejects_non_distributions(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"strategies": [["1/2", "1/3"]]}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_profile(str(path))


def test_a_profile_without_strategies_is_a_format_error(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"strategies": []}), encoding="utf-8")
    with pytest.raises(FormatError, match="^empty profile$"):
        load_profile(str(path))


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert hash_inputs({"b": 1, "a": [1, 2]}) == hash_inputs({"a": [1, 2], "b": 1})
    assert hash_inputs({"a": 1}) != hash_inputs({"a": 2})
    assert len(hash_inputs({})) == 64


def test_make_report_shape():
    rec = BoundRecord("regret", "1/100", "0", True)
    report = make_report("check", {"file": "x"}, [rec], 0, data={"note": "ok"})
    assert report["command"] == "check"
    assert report["exit_code"] == 0
    assert report["bounds"][0]["name"] == "regret"
    assert report["bounds"][0]["satisfied"] is True
    assert report["data"] == {"note": "ok"}
    json.dumps(report)


def test_write_report_to_file_and_stdout(tmp_path, capsys):
    report = make_report("noop", {}, [], 0)
    out = tmp_path / "r.json"
    write_report(report, str(out))
    assert json.loads(out.read_text(encoding="utf-8")) == report
    write_report(report, None)
    assert json.loads(capsys.readouterr().out) == report


def test_report_anchors_cover_emitted_bounds():
    for key in (
        "epsilon_ne",
        "wsne",
        "fone",
        "team_backmap",
        "median_regret",
        "nashgap_max",
        "mass_bound",
        "irrational_regret",
    ):
        assert key in REPORT_ANCHORS
        assert REPORT_ANCHORS[key]
    # unknown bound names still serialize, marked as local plumbing
    rec = BoundRecord("no_such_bound", None, None, True)
    assert record_to_dict(rec)["paper_anchor"] == "invented — artifact plumbing"


def test_trajectory_round_trip(tmp_path):
    prob = gadgets.quadratic_gadget(fmat([[0, -1], [1, 0]]))
    traj = dynamics.run(prob, DynamicsConfig(algorithm=GDA, stepsize=0.1, horizon=7))
    path = tmp_path / "t.csv"
    save_trajectory(traj, str(path))
    rows = load_trajectory_rows(str(path))
    assert len(rows) == 7
    assert [r[0] for r in rows] == list(range(7))
    for t, gap, drift, util in rows:
        assert gap == traj.gaps[t]
        assert drift == traj.drifts[t]
        assert util == traj.utilities[t]
