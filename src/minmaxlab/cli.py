"""Command-line surface: build gadgets, check certificates, audit lemma bounds.

Every command emits a JSON report (stdout or --report PATH) whose exit code
matches the process exit: 0 when all checked bounds hold, 1 when a bound or
lemma is violated, 2 on malformed or out-of-scope input; a report of an
exit by exception carries ``error``.  Artifact outputs (games, profiles,
trajectories) go to -o.  Vertices in command output are 1-indexed, matching
the graph file format.

Commands are declared in one table, ``COMMANDS``; ``main`` does the loading,
input recording, artifact saving and reporting for all of them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, fileio
from .analytic import (
    irrational_equilibrium,
    irrational_game,
    solve_2x2,
    verify_irrational_equilibrium,
)
from .checks import (
    BoundRecord,
    epsilon_ne_report,
    mass_bound_audit,
    require_symmetric_game,
    within,
    wsne_eps_exact,
    wsne_report,
)
from .cliques import (
    OTHER,
    ParameterRegime,
    classify_symmetric_profile,
    graph_from_bordered_game,
    measure_nashgap,
    measure_wsne_value,
    payoff_from_graph,
    payoff_from_graph_delta,
    robust_unique_ne_game,
    unique_ne_game,
)
from .errors import BoundViolationError, CapExceededError, FormatError, PreconditionError
from .fileio import make_report, write_report
from .gadgets import (
    coupled_gadget,
    coupling_width,
    measure_gadget_structure,
    measure_team3v3,
    median_backmap,
    quadratic_gadget,
    symmetric_backmap,
    team3v3_gadget,
    team_backmap,
    team_gadget,
)
from .games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    Game,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
)
from .minmax import QuadraticMinMaxProblem, check_fone, gda_gap
from .oracle import (
    REFINE_DAMPING,
    REFINE_MAX_ITERS,
    grid_ne_search,
    local_ne_refine,
    max_clique,
    symmetric_support_enumeration,
)

ALGO_NAMES = {
    "gda": dynamics.GDA,
    "eg": dynamics.EXTRAGRADIENT,
    "ogda": dynamics.OPTIMISTIC_GDA,
    "omwu": dynamics.OMWU,
    "alt-gda": dynamics.ALTERNATING_GDA,
}


def _require_problem(game) -> QuadraticMinMaxProblem:
    if not isinstance(game, QuadraticMinMaxProblem):
        raise FormatError("this command needs a quadratic problem file")
    return game


def _require_game(game) -> Game:
    if not isinstance(game, Game):
        raise FormatError("this command needs a tensor or polymatrix game file")
    return game


def _source_matrix(game, orientation: tuple[str, str]) -> np.ndarray:
    """The shared matrix of a tensor game file whose players have the orientation
    pair of the command's source game; FormatError for any other file."""
    if not isinstance(game, NormalFormGame) or game.orientation != orientation:
        raise FormatError(
            f"this command needs a two-player tensor game file with orientation "
            f"[{', '.join(orientation)}]"
        )
    return game.payoffs[0]


def _single_strategy(profile: MixedProfile) -> MixedStrategy:
    """One strategy from a 1- or 2-entry profile, requiring agreement."""
    if len(profile) == 1:
        return profile[0]
    if len(profile) == 2:
        if profile[0].probs.shape == profile[1].probs.shape and np.allclose(
            profile[0].probs, profile[1].probs, rtol=0, atol=1e-12
        ):
            return profile[0] if profile[0].exact is not None else profile[1]
        raise FormatError("the two strategies of a symmetric profile must agree")
    raise FormatError("expected a profile with one strategy (or two identical ones)")


def _pair(profile: MixedProfile) -> tuple[MixedStrategy, MixedStrategy]:
    if len(profile) != 2:
        raise FormatError("expected a two-strategy profile")
    return profile[0], profile[1]


def _equilibrium_obj(eq) -> dict:
    return {
        "probs": [str(p) for p in eq.probs],
        "value": str(eq.value),
        "support": [v + 1 for v in eq.support],
    }


def _check_user_eps(eps: float | None) -> None:
    if eps is not None and eps < 0:
        raise PreconditionError(f"--eps must be non-negative, got {eps}")


def _eps_bound(name: str, eps: float | None, measured: float):
    """Bound record against an optional --eps; without one it only measures.
    The only verdict the CLI decides: the library's audits decide the rest."""
    _check_user_eps(eps)
    return BoundRecord(name, eps, measured, eps is None or within(measured, eps))


# ---------------------------------------------------------------------------
# gadget


def cmd_gadget_team(args, inputs):
    instance = team_gadget(_source_matrix(args.game, (MINIMIZE, MINIMIZE)), args.eps)
    data = {
        "n": instance.n,
        "players": 3,
        "anchor_action": instance.anchor_action + 1,
        "penalty_scale": str(instance.penalty_scale),
    }
    return [], data, instance.game


def cmd_gadget_quadratic(args, inputs):
    problem = quadratic_gadget(_source_matrix(args.game, (MAXIMIZE, MAXIMIZE)))
    data = {
        "n": problem.n_x,
        "smoothness_bound": problem.smoothness_bound,
        "lipschitz_bound": problem.lipschitz_bound,
    }
    return [], data, problem


def cmd_gadget_coupled(args, inputs):
    matrix = _source_matrix(args.game, (MAXIMIZE, MAXIMIZE))
    n = len(matrix)
    if args.delta is not None and args.eps is not None:
        raise FormatError("gadget coupled reads --delta or --eps, not both")
    if args.delta is None and args.eps is None:
        raise FormatError("gadget coupled needs --delta or --eps")
    delta = args.delta if args.delta is not None else coupling_width(args.eps, n)
    inputs["delta"] = repr(delta)
    return [], {"n": n, "delta": delta}, coupled_gadget(matrix, delta)


def cmd_gadget_team3v3(args, inputs):
    instance = team3v3_gadget(_source_matrix(args.game, (MAXIMIZE, MAXIMIZE)), args.eps)
    data = {
        "n": instance.n,
        "players": 6,
        "shift": str(instance.shift),
        "penalty_scale": str(instance.penalty_scale),
    }
    return [], data, instance.game


def _default_regime(graph, k, delta, eps) -> ParameterRegime:
    if k is None:
        k, _ = max_clique(graph)
    if delta is None:
        delta = Fraction(1, 2)
    if eps is None:
        eps = delta * (1 - delta) / (12 * graph.n**7)
    return ParameterRegime(n=graph.n, k=k, delta=delta, epsilon=eps)


def _regime_obj(regime: ParameterRegime) -> dict:
    return {
        "n": regime.n,
        "k": regime.k,
        "delta": str(regime.delta),
        "eps": str(regime.epsilon),
    }


# the regime options each clique variant reads; any other one is refused
CLIQUE_OPTIONS = {"base": (), "delta": ("delta",), "unique": ("k",),
                  "robust": ("k", "delta", "eps")}


def cmd_gadget_clique(args, inputs):
    graph = args.graph
    dropped = [f"--{option}" for option in ("k", "delta", "eps")
               if getattr(args, option) is not None and option not in CLIQUE_OPTIONS[args.variant]]
    if dropped:
        raise FormatError(
            f"gadget clique --variant {args.variant} does not read {', '.join(dropped)}")
    data: dict = {"variant": args.variant}
    if args.variant == "base":
        matrix = payoff_from_graph(graph)
        game = BimatrixGame(matrix, matrix, (MAXIMIZE, MAXIMIZE))
    elif args.variant == "delta":
        delta = args.delta if args.delta is not None else Fraction(1, 2)
        inputs["delta"] = data["delta"] = str(delta)
        matrix = payoff_from_graph_delta(graph, delta)
        game = BimatrixGame(matrix, matrix, (MAXIMIZE, MAXIMIZE))
    elif args.variant == "unique":
        k = args.k if args.k is not None else max_clique(graph)[0]
        inputs["k"] = data["k"] = k
        game = unique_ne_game(graph, k)
    else:  # robust
        regime = _default_regime(graph, args.k, args.delta, args.eps)
        inputs["regime"] = data["regime"] = _regime_obj(regime)
        game = robust_unique_ne_game(graph, regime)
    data["actions"] = game.action_counts[0]
    return [], data, game


# ---------------------------------------------------------------------------
# check


def cmd_check_ne(args, inputs):
    cert = epsilon_ne_report(_require_game(args.game), args.profile)
    data = {
        "regrets": list(cert.regrets),
        "witnesses": [list(w) for w in cert.witnesses],
    }
    return [_eps_bound("epsilon_ne", args.eps, max(cert.regrets))], data


def cmd_check_wsne(args, inputs):
    game = args.game
    require_symmetric_game(game)
    x = _single_strategy(args.profile)
    data: dict = {}
    if x.exact is not None:
        exact = wsne_eps_exact(game.payoffs[0], x.exact, game.orientation[0])
        measured = float(exact)
        data["measured_exact"] = str(exact)
    else:
        measured = wsne_report(game, x)
    return [_eps_bound("wsne", args.eps, measured)], data


def cmd_check_fone(args, inputs):
    x, y = _pair(args.profile)
    eps_x, eps_y = check_fone(_require_problem(args.game), x, y)
    return [_eps_bound("fone", args.eps, max(eps_x, eps_y))], {"eps_x": eps_x, "eps_y": eps_y}


def cmd_check_gap(args, inputs):
    x, y = _pair(args.profile)
    report = gda_gap(_require_problem(args.game), x, y, stepsize=args.stepsize)
    bounds = [_eps_bound("gda_gap", args.eps, report.gap)]
    data: dict = {"gap": report.gap, "stepsize": args.stepsize}
    if report.vi_bound is not None:
        bounds.append(BoundRecord(report.bound_name, report.vi_bound, report.gap, True))
        data["vi_bound"] = report.vi_bound
        data["vi_bound_name"] = report.bound_name
    return bounds, data


# ---------------------------------------------------------------------------
# backmap


def _backmap_output(report):
    strategy = report.strategy
    return report.bounds, {"strategy": fileio.strategy_obj(strategy)}, MixedProfile((strategy,))


def cmd_backmap_team(args, inputs):
    instance = team_gadget(_source_matrix(args.game, (MINIMIZE, MINIMIZE)), args.eps)
    return _backmap_output(team_backmap(instance, args.profile, float(args.eps) ** 2))


def cmd_backmap_symmetric(args, inputs):
    matrix = _source_matrix(args.game, (MAXIMIZE, MAXIMIZE))
    return _backmap_output(symmetric_backmap(matrix, _single_strategy(args.profile), args.gap))


def cmd_backmap_median(args, inputs):
    matrix = _source_matrix(args.game, (MAXIMIZE, MAXIMIZE))
    return _backmap_output(median_backmap(matrix, *_pair(args.profile), args.gap, args.delta))


def cmd_backmap_team3v3(args, inputs):
    instance = team3v3_gadget(_source_matrix(args.game, (MAXIMIZE, MAXIMIZE)), args.eps)
    return _backmap_output(measure_team3v3(instance, args.profile, float(args.eps)))


# ---------------------------------------------------------------------------
# audit


def cmd_audit_gadget_structure(args, inputs):
    instance = team_gadget(_source_matrix(args.game, (MINIMIZE, MINIMIZE)), args.eps)
    report = measure_gadget_structure(instance, args.profile, float(args.eps))
    return report.bounds, None


def _add_violation(report, data: dict, offenders: list) -> None:
    """Name a measured report's violation, if any, in the data and on stderr."""
    if report.violation is not None:
        print(f"violation: {report.violation}", file=sys.stderr)
        data["detail"] = report.violation
        data["offenders"] = offenders


def cmd_audit_nashgap(args, inputs):
    report = measure_nashgap(args.graph)
    data = {
        "k": report.k,
        "max_value": str(report.max_value),
        "max_cliques": [[v + 1 for v in c] for c in report.max_cliques],
        "clique_form_count": report.clique_form_count,
        "equilibria": [_equilibrium_obj(eq) for eq in report.equilibria],
    }
    _add_violation(report, data, [_equilibrium_obj(eq) for eq in report.offenders])
    return report.bounds, data


def cmd_audit_wsne_value(args, inputs):
    regime = _default_regime(args.graph, args.k, args.delta, None)  # the audit reads no epsilon
    inputs["regime"] = _regime_obj(regime)
    report = measure_wsne_value(args.graph, regime, args.resolution)
    data = {"k": report.k, "candidates": report.candidates}
    _add_violation(report, data, [
        {"clause": o.clause, "candidate": [str(p) for p in o.probs],
         "measured": str(o.measured), "bound": str(o.bound)}
        for o in report.offenders
    ])
    return report.bounds, data


def cmd_audit_classify(args, inputs):
    game = args.game
    _source_matrix(game, (MAXIMIZE, MAXIMIZE))  # bordered games are written maximizing
    x_hat = _single_strategy(args.profile)
    eps = float(args.eps) if args.eps is not None else 0.0
    inputs["eps"] = repr(eps)
    inputs["well_supported"] = args.wsne
    _check_user_eps(eps)
    regime = _default_regime(graph_from_bordered_game(game), args.k, None, None)
    result = classify_symmetric_profile(
        game, args.k, regime, x_hat, eps, well_supported=args.wsne
    )
    bounds = [
        BoundRecord("classify_distance", result.bound, result.distance, result.form != OTHER)
    ]
    data = {
        "form": result.form,
        "clique": [v + 1 for v in result.clique] if result.clique is not None else None,
        "distance": result.distance,
    }
    return bounds, data


def cmd_audit_mass_bound(args, inputs):
    violations = mass_bound_audit(_require_game(args.game), args.profile, args.eps)
    worst = max((v.mass - v.bound for v in violations), default=0.0)
    bounds = [BoundRecord("mass_bound", 0.0, worst, not violations)]
    data = {
        "violations": [
            {"player": v.player, "action": v.action, "mass": v.mass,
             "gap": v.gap, "bound": v.bound}
            for v in violations
        ]
    }
    return bounds, data


# ---------------------------------------------------------------------------
# solve


def cmd_solve_enumerate(args, inputs):
    game = args.game
    # the file's game is (M, M); the enumeration's equilibria are those of
    # (M, M^T), which is the same game only when M = M^T
    require_symmetric_game(game)
    equilibria = symmetric_support_enumeration(game.payoffs[0], game.orientation[0])
    data = {
        "equilibria": [
            {**_equilibrium_obj(eq), "value_float": float(eq.value)} for eq in equilibria
        ]
    }
    return [], data


def cmd_solve_grid(args, inputs):
    _check_user_eps(args.eps)
    hits = grid_ne_search(_require_game(args.game), args.resolution, args.eps)
    data = {
        "hits": [
            {
                "strategies": [fileio.strategy_obj(s) for s in profile.strategies],
                "max_regret": regret,
            }
            for profile, regret in hits
        ]
    }
    return [], data


def cmd_solve_refine(args, inputs):
    result = local_ne_refine(
        _require_game(args.game), args.profile, args.target,
        max_iters=args.max_iters, damping=args.damping,
    )
    bounds = [BoundRecord("refine_target", args.target, result.max_regret, result.converged)]
    data = {
        "iterations": result.iterations,
        "converged": result.converged,
        "stalled_at": result.stalled_at,
        "checkpoints": result.checkpoints,
        "strategies": [fileio.strategy_obj(s) for s in result.profile.strategies],
    }
    return bounds, data, result.profile


def cmd_solve_2x2(args, inputs):
    value, x, z = solve_2x2(_source_matrix(args.game, (MINIMIZE, MAXIMIZE)))
    data = {
        "value": str(value),
        "value_float": float(value),
        "row_strategy": [str(p) for p in x],
        "col_strategy": [str(p) for p in z],
    }
    return [], data


def cmd_solve_max_clique(args, inputs):
    size, clique = max_clique(args.graph)
    return [], {"size": size, "clique": [v + 1 for v in clique]}


# ---------------------------------------------------------------------------
# dynamics and analytic


def cmd_dynamics_run(args, inputs):
    config = dynamics.DynamicsConfig(
        algorithm=ALGO_NAMES[args.algo],
        stepsize=args.stepsize,
        horizon=args.steps,
        init=_pair(args.init) if args.init is not None else None,
    )
    trajectory = dynamics.run(_require_problem(args.problem), config)
    data = {
        "algorithm": config.algorithm,
        "final_gap": trajectory.gaps[-1],
        "min_gap": dynamics.min_gap(trajectory),
        "max_drift": dynamics.symmetry_drift(trajectory),
        "final_utility": trajectory.utilities[-1],
    }
    return [], data, trajectory


def cmd_analytic_irrational(args, inputs):
    def surd_obj(s):
        return {"p": str(s.p), "q": str(s.q)}

    profile = irrational_equilibrium()
    data = {
        "profile": [[surd_obj(c) for c in coords] for coords in profile],
        "float_profile": [[float(c) for c in coords] for coords in profile],
    }
    bounds = []
    if args.verify:
        report = verify_irrational_equilibrium()
        cert = report.certificate
        bounds = [
            BoundRecord("irrational_exact", 0.0, 0.0, report.exact),
            BoundRecord("irrational_regret", cert.epsilon, max(cert.regrets), cert.satisfied),
        ]
        data["regrets"] = list(report.certificate.regrets)
        data["value"] = surd_obj(report.game_value)
        data["value_float"] = float(report.game_value)
    return bounds, data, irrational_game()


# ---------------------------------------------------------------------------
# the command table

# option kinds that main converts: each maps the option's text to a value
# and the value to its record in the report's inputs.  Files are loaded
# through the fileio module attributes at call time.
GAME, PROFILE, GRAPH, EXACT, FLOAT = "game", "profile", "graph", "exact", "float"
KINDS = {
    GAME: (lambda text: fileio.load_game(text), fileio.game_to_dict),
    PROFILE: (lambda text: fileio.load_profile(text), fileio.profile_to_dict),
    GRAPH: (lambda text: fileio.load_graph(text), fileio.graph_to_dict),
    EXACT: (fileio.parse_rational, str),
    FLOAT: (lambda text: float(fileio.parse_rational(text)), repr),
}


class Arg:
    """One declared option: its kind (None when argparse alone converts it,
    as for ints, flags and choices), whether main records it in the inputs
    (not when its handler records a derived form), and argparse settings."""

    def __init__(self, flag: str, kind: str | None = None, record: bool = True, **options):
        self.flag, self.kind, self.record, self.options = flag, kind, record, options
        self.dest = flag.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    """One subcommand.  Its handler takes the parsed options (files loaded,
    rationals parsed) and the inputs record, to which it adds only derived
    inputs, and returns (bounds, data), plus the artifact when it has -o:
    ``output`` is the fileio writer of that artifact."""

    name: str  # "group kind"
    handler: Callable
    args: tuple[Arg, ...]
    output: Callable | None = None
    help: str | None = None


GROUPS = {
    "gadget": "build reduction instances",
    "check": "certificates for a given profile",
    "backmap": "pull gadget solutions back",
    "audit": "lemma-level structure audits",
    "solve": "oracles and closed forms",
    "dynamics": "learning trajectories",
    "analytic": "closed-form exhibits",
}

_GAME = Arg("--game", GAME, required=True)
_PROFILE = Arg("--profile", PROFILE, required=True)
_GRAPH = Arg("--graph", GRAPH, required=True)
_EPS_EXACT = Arg("--eps", EXACT, required=True)
_EPS_FLOAT = Arg("--eps", FLOAT, default=None)
_REGIME = (  # derived into a ParameterRegime and recorded by the handler
    Arg("--k", record=False, type=int, default=None),
    Arg("--delta", EXACT, record=False, default=None),
    Arg("--eps", EXACT, record=False, default=None),
)

COMMANDS = (
    Command("gadget team", cmd_gadget_team, (_GAME, _EPS_EXACT), output=fileio.save_game,
            help="two team players vs one adversary"),
    Command("gadget quadratic", cmd_gadget_quadratic, (_GAME,), output=fileio.save_game,
            help="antisymmetric quadratic min-max"),
    Command("gadget coupled", cmd_gadget_coupled,
            (_GAME, Arg("--delta", FLOAT, record=False, default=None),
             Arg("--eps", FLOAT, record=False, default=None)),
            output=fileio.save_game, help="quadratic gadget on the coupled domain"),
    Command("gadget team3v3", cmd_gadget_team3v3, (_GAME, _EPS_EXACT), output=fileio.save_game,
            help="three-vs-three polymatrix gadget"),
    Command("gadget clique", cmd_gadget_clique,
            (_GRAPH, Arg("--variant", required=True, choices=["base", "delta", "unique", "robust"]),
             *_REGIME),
            output=fileio.save_game, help="clique-detection payoff families"),
    Command("check ne", cmd_check_ne, (_GAME, _PROFILE, _EPS_FLOAT)),
    Command("check wsne", cmd_check_wsne, (_GAME, _PROFILE, _EPS_FLOAT)),
    Command("check fone", cmd_check_fone, (_GAME, _PROFILE, _EPS_FLOAT)),
    Command("check gap", cmd_check_gap,
            (_GAME, _PROFILE, _EPS_FLOAT, Arg("--stepsize", FLOAT, default="1"))),
    Command("backmap team", cmd_backmap_team, (_GAME, _EPS_EXACT, _PROFILE),
            output=fileio.save_profile),
    Command("backmap symmetric", cmd_backmap_symmetric,
            (_GAME, _PROFILE, Arg("--gap", FLOAT, required=True)), output=fileio.save_profile),
    Command("backmap median", cmd_backmap_median,
            (_GAME, _PROFILE, Arg("--gap", FLOAT, required=True),
             Arg("--delta", FLOAT, required=True)),
            output=fileio.save_profile),
    Command("backmap team3v3", cmd_backmap_team3v3, (_GAME, _EPS_EXACT, _PROFILE),
            output=fileio.save_profile),
    Command("audit gadget-structure", cmd_audit_gadget_structure, (_GAME, _EPS_EXACT, _PROFILE)),
    Command("audit nashgap", cmd_audit_nashgap, (_GRAPH,)),
    Command("audit wsne-value", cmd_audit_wsne_value,
            (_GRAPH, *_REGIME[:2], Arg("--resolution", EXACT, default="1/6"))),
    Command("audit classify", cmd_audit_classify,
            (_GAME, _PROFILE, Arg("--k", type=int, required=True),
             Arg("--eps", EXACT, record=False, default=None),
             Arg("--wsne", record=False, action="store_true", help="input is well-supported"))),
    Command("audit mass-bound", cmd_audit_mass_bound,
            (_GAME, _PROFILE, _EPS_EXACT)),
    Command("solve enumerate", cmd_solve_enumerate, (_GAME,)),
    Command("solve grid", cmd_solve_grid,
            (_GAME, Arg("--resolution", EXACT, required=True), _EPS_EXACT)),
    Command("solve refine", cmd_solve_refine,
            (_GAME, _PROFILE, Arg("--target", FLOAT, required=True),
             Arg("--max-iters", type=int, default=REFINE_MAX_ITERS),
             Arg("--damping", type=float, default=REFINE_DAMPING)),
            output=fileio.save_profile),
    Command("solve 2x2", cmd_solve_2x2, (_GAME,)),
    Command("solve max-clique", cmd_solve_max_clique, (_GRAPH,)),
    Command("dynamics run", cmd_dynamics_run,
            (Arg("--problem", GAME, required=True),
             Arg("--algo", required=True, choices=sorted(ALGO_NAMES)),
             Arg("--steps", type=int, default=100),
             Arg("--stepsize", FLOAT, default="0.1"),
             Arg("--init", PROFILE, default=None)),
            output=fileio.save_trajectory),
    Command("analytic irrational", cmd_analytic_irrational,
            (Arg("--verify", action="store_true"),), output=fileio.save_game),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of COMMANDS, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="minmaxlab",
        description="gadget builders, equilibrium checkers, and lemma audits",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        name: top.add_parser(name, help=text).add_subparsers(dest="kind", required=True)
        for name, text in GROUPS.items()
    }
    for command in COMMANDS:
        group, kind = command.name.split()
        sub = groups[group].add_parser(kind, help=command.help)
        for arg in command.args:
            sub.add_argument(arg.flag, **arg.options)
        if command.output:
            sub.add_argument("-o", "--output", default=None, help="artifact output path")
        sub.add_argument("--report", default=None, help="report JSON path (default stdout)")
        sub.set_defaults(command=command)
    return parser


# ---------------------------------------------------------------------------
# the dispatcher


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    inputs: dict = {}
    try:
        for arg in command.args:
            value = getattr(args, arg.dest)
            parse, record = KINDS.get(arg.kind, (None, None))
            if parse is not None and value is not None:
                value = parse(value)
                setattr(args, arg.dest, value)
            # an absent file is not recorded; an absent FLOAT rational is, as "None"
            if arg.record and (value is not None or arg.kind not in (GAME, PROFILE, GRAPH)):
                inputs[arg.dest] = record(value) if record is not None else value
        bounds, data, *artifact = command.handler(args, inputs)
        if command.output:
            if args.output:
                command.output(artifact[0], args.output)
            data["output"] = args.output
        code = 0 if all(b.satisfied for b in bounds) else 1
        write_report(make_report(command.name, inputs, bounds, code, data), args.report)
        return code
    except BoundViolationError as exc:
        code, label, error = 1, "violation", exc
    except (ValueError, CapExceededError, OverflowError, OSError) as exc:
        # ValueError covers the input errors: FormatError, DimensionError,
        # PreconditionError, DegenerateGameError, UnsupportedDomainError
        code, label, error = 2, "error", exc
    print(f"{label}: {error}", file=sys.stderr)
    report = make_report(command.name, inputs, [], code)
    report["error"] = str(error) or type(error).__name__
    try:
        write_report(report, args.report)
    except OSError:  # the report path itself is unwritable
        write_report(report, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
