"""Wire formats: game, graph, profile, and report files plus trajectory CSV.

Rationals travel as strings ("3/4", "2") so golden files round-trip without
float drift; profile files may also carry plain decimals.  All loaders raise
FormatError on malformed input so callers can map it to an input-error exit.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Sequence
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from .checks import BoundRecord
from .cliques import Graph
from .dynamics import Trajectory
from .errors import FormatError
from .games import (
    MAXIMIZE,
    MINIMIZE,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
)
from .geometry import JointDomain
from .minmax import QuadraticMinMaxProblem
from .rational import fmat

GameLike = NormalFormGame | PolymatrixGame | QuadraticMinMaxProblem

_ORIENTATIONS = {
    "minimize": MINIMIZE,
    "maximize": MAXIMIZE,
    "min": MINIMIZE,
    "max": MAXIMIZE,
}


def parse_rational(value) -> Fraction:
    """Exact scalar from a wire value: "p/q" or decimal string, or an int."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise FormatError(f"expected a rational string or integer, got {value!r}")
    return Fraction(int(value))


def _integer(value, what: str) -> int:
    """A JSON integer field: an int that is not a bool, else FormatError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """A JSON real field: a rational string or a number, not a bool, and finite."""
    if isinstance(value, bool) or not isinstance(value, (str, Real)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    try:
        number = float(parse_rational(value) if isinstance(value, str) else value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise FormatError(f"{what} must be finite, got {value!r}")
    return number


def rational_str(value: Fraction) -> str:
    return str(Fraction(value))


def _parse_matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise FormatError(f"{what} must be a non-empty list of rows")
    try:
        return fmat([[parse_rational(e) for e in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad {what}: {exc}") from None


def _parse_orientation(values, players: int) -> tuple[str, ...]:
    if not isinstance(values, list) or len(values) != players:
        raise FormatError("orientation must list one entry per player")
    out = []
    for v in values:
        if not isinstance(v, str) or v.lower() not in _ORIENTATIONS:
            raise FormatError(f"unknown orientation {v!r}")
        out.append(_ORIENTATIONS[v.lower()])
    return tuple(out)


def _parse_team_partition(value, players: int):
    if value is None:
        return None
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(t, list) for t in value)
    ):
        raise FormatError("team_partition must be two lists of player indices")
    teams = tuple(frozenset(_integer(p, "team_partition index") for p in t) for t in value)
    if any(not (0 <= p < players) for t in teams for p in t):
        raise FormatError("team_partition names an unknown player")
    return teams


def _parse_tensor(node, counts):
    """Nested lists of rationals -> nested lists of Fractions, shape-checked against counts."""
    if not counts:
        return parse_rational(node)
    if not isinstance(node, list) or len(node) != counts[0]:
        raise FormatError(
            f"tensor level has {len(node) if isinstance(node, list) else 'no'} entries,"
            f" expected {counts[0]}"
        )
    return [_parse_tensor(child, counts[1:]) for child in node]


def _tensor_obj(node):
    if isinstance(node, np.ndarray):
        node = node.tolist()
    if isinstance(node, list):
        return [_tensor_obj(child) for child in node]
    return rational_str(node)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from None


def load_game(path: str) -> GameLike:
    """Read a game file; the payoff variant decides the returned type."""
    return game_from_dict(_load_json(path))


def _build(constructor, **fields):
    """constructor(**fields), with a refusal of the file's data re-raised as
    FormatError under the constructor's own message."""
    try:
        return constructor(**fields)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def game_from_dict(doc) -> GameLike:
    if not isinstance(doc, dict):
        raise FormatError("game file must hold a JSON object")
    try:
        players = _integer(doc["players"], "players")
        counts = doc["action_counts"]
        payoff = doc["payoff"]
    except KeyError as exc:
        raise FormatError(f"missing game field: {exc}") from None
    if not isinstance(counts, list):
        raise FormatError("action_counts must be a list")
    counts = tuple(_integer(c, "action count") for c in counts)
    if players < 1 or len(counts) != players or any(c < 1 for c in counts):
        raise FormatError("action_counts must list a positive count per player")
    orientation = _parse_orientation(doc.get("orientation"), players)
    partition = _parse_team_partition(doc.get("team_partition"), players)
    if not isinstance(payoff, dict) or len(payoff) != 1:
        raise FormatError("payoff must hold exactly one variant")
    (variant, body), = payoff.items()
    if variant == "tensor":
        tensor = _parse_tensor(body, counts)
        return _build(
            NormalFormGame,
            payoffs=tuple(tensor for _ in range(players)),
            orientation=orientation,
            team_partition=partition,
        )
    if variant == "polymatrix":
        if not isinstance(body, list):
            raise FormatError("polymatrix payoff must be a list of pair blocks")
        pairs = {}
        for block in body:
            try:
                i, j = _integer(block["i"], "pair index"), _integer(block["j"], "pair index")
                m = _parse_matrix(block["matrix"], f"pair ({i}, {j}) matrix")
            except (KeyError, TypeError) as exc:
                raise FormatError(f"bad polymatrix block: {exc}") from None
            if (i, j) in pairs:
                raise FormatError(f"duplicate polymatrix pair ({i}, {j})")
            pairs[(i, j)] = m
        return _build(
            PolymatrixGame,
            action_counts=counts,
            pair_matrices=pairs,
            orientation=orientation,
            team_partition=partition,
        )
    if variant == "quadratic":
        if players != 2:
            raise FormatError("quadratic payoffs describe two-player problems")
        if orientation != (MINIMIZE, MAXIMIZE):
            raise FormatError("quadratic problems fix orientation [minimize, maximize]")
        if not isinstance(body, dict):
            raise FormatError("quadratic payoff must be an object")
        qx = _parse_matrix(body.get("qx"), "qx")
        qy = _parse_matrix(body.get("qy"), "qy")
        m = _parse_matrix(body.get("m"), "m")
        domain = None
        if body.get("delta") is not None:
            domain = _build(JointDomain, n=qx.shape[0], delta=_finite(body["delta"], "delta"))
        kwargs = {}
        for key in ("smoothness_bound", "lipschitz_bound"):
            if body.get(key) is not None:
                kwargs[key] = _finite(body[key], key)
        problem = _build(QuadraticMinMaxProblem, qx=qx, qy=qy, m=m, domain=domain, **kwargs)
        if problem.n_x != counts[0] or problem.n_y != counts[1]:
            raise FormatError("action_counts disagree with the quadratic blocks")
        return problem
    raise FormatError(f"unknown payoff variant {variant!r}")


def game_to_dict(game: GameLike) -> dict:
    """JSON-ready dict for any serializable game; inverse of game_from_dict."""
    if isinstance(game, (NormalFormGame, PolymatrixGame)):
        if isinstance(game, NormalFormGame):
            if not game.identical_payoff():
                raise FormatError("only shared-payoff games fit the single-tensor format")
            payoff = {"tensor": _tensor_obj(game.payoffs[0])}
        else:
            payoff = {"polymatrix": [
                {"i": i, "j": j, "matrix": _tensor_obj(m)}
                for (i, j), m in sorted(game.pair_matrices.items())
            ]}
        doc = {
            "players": game.n_players,
            "action_counts": list(game.action_counts),
            "orientation": list(game.orientation),
            "payoff": payoff,
        }
        if game.team_partition is not None:
            doc["team_partition"] = [sorted(t) for t in game.team_partition]
        return doc
    if isinstance(game, QuadraticMinMaxProblem):
        body = {
            "qx": _tensor_obj(game.qx),
            "qy": _tensor_obj(game.qy),
            "m": _tensor_obj(game.m),
        }
        if game.domain is not None:
            body["delta"] = game.domain.delta
        if game.smoothness_bound is not None:
            body["smoothness_bound"] = game.smoothness_bound
        if game.lipschitz_bound is not None:
            body["lipschitz_bound"] = game.lipschitz_bound
        return {
            "players": 2,
            "action_counts": [game.n_x, game.n_y],
            "orientation": [MINIMIZE, MAXIMIZE],
            "payoff": {"quadratic": body},
        }
    raise FormatError(f"cannot serialize {type(game).__name__}")


def save_game(game: GameLike, path: str) -> None:
    write_report(game_to_dict(game), path)


# ---------------------------------------------------------------------------
# graphs


def load_graph(path: str) -> Graph:
    """Edge-list file: header "n m", then m lines "i j" with 1-indexed ends."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise FormatError(f"{path}: empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"{path}: header must read 'n <edge count>'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"{path}: non-integer header {rows[0]!r}") from None
    if len(rows) - 1 != m:
        raise FormatError(f"{path}: header promises {m} edges, found {len(rows) - 1}")
    edges = set()
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"{path}: bad edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"{path}: non-integer edge {ln!r}") from None
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise FormatError(f"{path}: edge {ln!r} out of range for {n} vertices")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in edges:
            raise FormatError(f"{path}: duplicate edge {ln!r}")
        edges.add(key)
    return _build(Graph.from_edges, n=n, edges=edges)


def save_graph(graph: Graph, path: str) -> None:
    lines = [f"{graph.n} {len(graph.edges)}"]
    lines += [f"{i + 1} {j + 1}" for i, j in sorted(graph.edges)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def graph_to_dict(graph: Graph) -> dict:
    return {"n": graph.n, "edges": [[i + 1, j + 1] for i, j in sorted(graph.edges)]}


# ---------------------------------------------------------------------------
# profiles


def load_profile(path: str) -> MixedProfile:
    """Profile file: {"strategies": [[...], ...]}, rationals or decimals."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("strategies"), list):
        raise FormatError(f"{path}: profile file needs a 'strategies' list")
    strategies = []
    for row in doc["strategies"]:
        if not isinstance(row, list) or not row:
            raise FormatError("each strategy must be a non-empty list")
        exact = True
        values = []
        for entry in row:
            if isinstance(entry, str) or isinstance(entry, Integral):
                values.append(parse_rational(entry))
            elif isinstance(entry, Real):
                values.append(float(entry))
                exact = False
            else:
                raise FormatError(f"bad probability entry {entry!r}")
        try:
            if exact:
                strategies.append(MixedStrategy.from_exact(values))
            else:
                strategies.append(MixedStrategy([float(v) for v in values]))
        except ValueError as exc:
            raise FormatError(f"invalid strategy {row!r}: {exc}") from None
    return _build(MixedProfile, strategies=tuple(strategies))


def strategy_obj(strategy: MixedStrategy) -> list:
    """A strategy on the wire: rational strings when exact, else floats."""
    if strategy.exact is not None:
        return [rational_str(p) for p in strategy.exact]
    return [float(p) for p in strategy.probs]


def profile_to_dict(profile: MixedProfile) -> dict:
    return {"strategies": [strategy_obj(s) for s in profile.strategies]}


def save_profile(profile: MixedProfile, path: str) -> None:
    write_report(profile_to_dict(profile), path)


# ---------------------------------------------------------------------------
# reports

# Anchor strings the report format attaches to each emitted bound; they are
# stable identifiers consumed by downstream tooling and must not be edited.
REPORT_ANCHORS = {
    "epsilon_ne": 'Def. "ε-Nash equilibrium of (R, C)"',
    "wsne": 'Def. well-supported NE, "x_i > 0 ⟹ (Āx)_i ≥ max_j (Āx)_j − ε"',
    "fone": 'Def. "ε-first-order Nash equilibrium"',
    "gda_gap": 'Eq. tagged "Fixed points of GDA"',
    "gradient mapping": 'Appendix Lemma, "Define the gradient mapping" — bound ε(L+1)',
    "safe gradient mapping": 'Appendix Lemma, "(the safe version) of GDA" — K = (L+1)√(G+4√2)',
    "team_backmap": 'Theorem with quote "symmetric, two-player game (A, A)"',
    "pair_gap": 'Lemma "Equilibrium forces symmetry" ("‖x* − y*‖∞ ≤ 2ε")',
    "mirror_mass": 'Lemma "Most probability mass in a_{2n+1}" ("z_j ≤ 9ε for all j ∈ [2n]")',
    "symmetric_vi": 'Eq. tagged "VI for NE", "⟨x − x*, (A+C)x*⟩ ≤ √2 ε(2n+1)"',
    "median_regret": 'Eq. tagged "VImedian" and final bound "2n²δ + 2Kn^{3/2}√ε/δ"',
    "team3v3_backmap": 'Theorem "6-player (3 vs. 3) team zero-sum polymatrix games"',
    "nashgap_max": 'Lemma with "attains value −1/k"',
    "nashgap_gap": 'Lemma with "attains value −1/k" and "has value at most −1/(k−1)"',
    "wsne_clique_value": 'Lemma "supported on a max clique of size k"',
    "wsne_closeness": 'Lemma "supported on a max clique of size k", "‖x̂ − x*‖∞ ≤ ((k−δ)/(1−δ))ε"',
    "wsne_nonclique_value": 'Lemma "not supported on a clique of size k"',
    "classify_distance": 'Appendix Lemma "‖x̂ − x*‖∞ ≤ 2n⁶ε" / Theorem "‖x − x*‖∞ ≤ n⁶√ε"',
    "mass_bound": 'Lemma with quote "any action of player i", conclusion x*_i(a_k) ≤ ε²/c',
    "irrational_regret": '§3.2 equilibrium values, e.g. "x* = ((3 − √3)/6, (3 + √3)/6)"',
    "irrational_exact": '§3.2 proof: "x* = ((3 − √3)/6, (3 + √3)/6)"',
    "refine_target": 'Def. "ε-Nash equilibrium of (R, C)"',
}


def record_to_dict(record: BoundRecord) -> dict:
    """One bound line of a report: the record with its paper anchor."""
    return {
        "name": record.name,
        "paper_anchor": REPORT_ANCHORS.get(record.name, "invented — artifact plumbing"),
        "value": record.value,
        "measured": record.measured,
        "satisfied": bool(record.satisfied),
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def hash_inputs(inputs: dict) -> str:
    """Order- and whitespace-independent sha256 over canonicalized inputs."""
    return hashlib.sha256(canonical_json(inputs).encode("utf-8")).hexdigest()


def make_report(
    command: str,
    inputs: dict,
    bounds: Sequence[BoundRecord],
    exit_code: int,
    data: dict | None = None,
) -> dict:
    report = {
        "command": command,
        "inputs_hash": hash_inputs(inputs),
        "bounds": [record_to_dict(b) for b in bounds],
        "exit_code": int(exit_code),
    }
    if data is not None:
        report["data"] = data
    return report


def write_report(report: dict, path: str | None) -> None:
    """Print the report, or write it to `path`, as strict JSON.

    Games and profiles are saved through here too.  A non-finite float
    raises ValueError instead of being written as the non-JSON tokens
    Infinity or NaN, which load_game and load_profile would refuse.
    """
    text = json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    if path is None:
        print(text, end="")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# trajectories


def save_trajectory(trajectory: Trajectory, path: str) -> None:
    """CSV with header t,gap,drift,utility and one row per recorded step."""
    lines = ["t,gap,drift,utility"]
    for t in range(len(trajectory)):
        lines.append(
            f"{t},{trajectory.gaps[t]!r},{trajectory.drifts[t]!r},{trajectory.utilities[t]!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
