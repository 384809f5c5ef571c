"""The four benchmark workloads: seeded inputs, tasks, and exact output checks.

Each workload has a ``generate(rng, workdir, rounds)`` that builds the inputs
of one task batch per round from a seeded generator (this is the timed
set-up) and a ``tasks(batch)`` that returns a batch as ``Task`` objects.
Every batch of a workload has the same composition; only the seeded draws
differ, and parameters drawn from a range are spread evenly over the range
across the rounds of a run.  A
task returns an ``Outcome``: the list of verification failures (empty when
every output checked out) and any findings, counts that are facts about the
paper's bounds or the heuristics rather than failures.

census graphs, team_refine trials and grid_sweep cases are drawn by the seed
from fixed menus whose reference outputs (equilibrium-set digests, findings,
refinement outcomes, grid hit sets) are recorded in ``digests.json`` by
``record_digests.py``.  Every such task is compared with its record, so a
dropped equilibrium, a changed finding or a start that no longer converges
is a failed task.

The library is always called through module attributes (``oracle.max_clique``)
so that the tracer's wrappers, installed on those attributes, see the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from minmaxlab.errors import BoundViolationError
from minmaxlab import (
    analytic,
    checks,
    cli,
    cliques,
    dynamics,
    fileio,
    gadgets,
    games,
    minmax,
    oracle,
    rational,
)

MAXIMIZE = games.MAXIMIZE
MINIMIZE = games.MINIMIZE
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
POOL_SEED = 2502_08519  # generator of the census and team_refine menus
POOL_ROUNDS = 6         # a menu holds this many rounds' worth of each slot


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    findings: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Task:
    kind: str
    size: int
    run: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# census: exact symmetric-equilibrium census of clique-detection games

# Graph sizes of one batch: mostly small graphs, a tail of larger ones.  The
# counts put the median task in the middle of the n = 5 group and the task
# with ten beyond it (over two rounds) inside the n = 6 group, not at the
# edge of a group, where the statistic would jump between sizes.
CENSUS_SIZES = [4] * 7 + [5] * 8 + [6] * 3 + [7] + [8] * 2 + [9]
CENSUS_DENSITY = (0.3, 0.7)
CENSUS_WSNE_MAX_N = 7
CENSUS_CLI_SIZE = 4      # every other graph of this size also goes through the CLI
CENSUS_PERTURBED = 3     # perturbed equilibria per graph for ne_to_wsne
CENSUS_PROBE_SIZES = (8, 10, 11)  # enumeration probes of the traced run


def spread(rng, values: list, count: int) -> list:
    """`count` draws that use every value equally often, in random order.

    A run's rounds then cover the same values whatever the seed, which keeps
    the work of a run from swinging with the draw (stratified sampling).
    """
    cycle = [values[i] for i in rng.permutation(len(values))]
    return [cycle[i % len(cycle)] for i in range(count)]


def draw_from_menu(rng, menu_size: int, count: int) -> list[int]:
    """`count` menu indices, one from each of `count` equal strata, shuffled.

    Menus are ordered by the parameter they spread (census edge density), so
    a run's draw covers its range evenly whatever the seed.
    """
    picks = [
        int(rng.integers(j * menu_size // count,
                         max((j + 1) * menu_size // count, j * menu_size // count + 1)))
        for j in range(count)
    ]
    return [picks[i] for i in rng.permutation(count)]


def random_graph(rng, n: int, density: float) -> cliques.Graph:
    """Uniform graph on n vertices with round(density * n(n-1)/2) edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(pairs), size=round(density * len(pairs)), replace=False)
    return cliques.Graph.from_edges(n, [pairs[k] for k in chosen])


def census_menu_size(n: int) -> int:
    return CENSUS_SIZES.count(n) * POOL_ROUNDS


def census_menu() -> list[tuple[int, int]]:
    """Every (n, index) graph a seed can draw, for the digests."""
    return [(n, i) for n in sorted(set(CENSUS_SIZES)) for i in range(census_menu_size(n))]


def census_entry(n: int, i: int) -> dict:
    """Menu graph i of size n; densities rise evenly with i over CENSUS_DENSITY."""
    rng = np.random.default_rng([POOL_SEED, 0, n, i])
    lo, hi = CENSUS_DENSITY
    g = random_graph(rng, n, lo + (hi - lo) * (i + 0.5) / census_menu_size(n))
    return {
        "key": f"{n}/{i}",
        "graph": g,
        "a": cliques.payoff_from_graph(g),
        "perturb": [
            (float(rng.choice([0.0, 1e-4, 1e-3, 1e-2])), float(rng.uniform(1.05, 3.0)))
            for _ in range(CENSUS_PERTURBED)
        ],
        "cli": None,
        "expected": None,
    }


def census_generate(rng, workdir: str, rounds: int) -> list[dict]:
    expected = load_digests()["census"]
    picks = {
        n: draw_from_menu(rng, census_menu_size(n), CENSUS_SIZES.count(n) * rounds)
        for n in sorted(set(CENSUS_SIZES))
    }
    batches = []
    for r in range(rounds):
        graphs = []
        for index, n in enumerate(CENSUS_SIZES):
            entry = census_entry(n, picks[n].pop())
            entry["expected"] = expected.get(entry["key"])
            g, a = entry["graph"], entry["a"]
            if n == CENSUS_CLI_SIZE and index % 2 == 0:
                stem = os.path.join(workdir, f"r{r}-g{index}")
                fileio.save_graph(g, stem + "-graph.txt")
                fileio.save_game(
                    games.NormalFormGame(payoffs=(a, a), orientation=(MAXIMIZE, MAXIMIZE)),
                    stem + "-game.json",
                )
                entry["cli"] = (stem + "-graph.txt", stem + "-game.json", stem + "-report.json")
            graphs.append(entry)
        batches.append({"graphs": graphs})
    return batches


def census_probes(rng) -> list:
    """A(G) matrices at the ROADMAP baseline sizes, for the traced run only."""
    return [cliques.payoff_from_graph(random_graph(rng, n, 0.5)) for n in CENSUS_PROBE_SIZES]


def verify_equilibria(matrix, equilibria) -> list[str]:
    """Every reported symmetric equilibrium re-checked in exact arithmetic."""
    failures = []
    for eq in equilibria:
        probs = eq.probs
        support = tuple(i for i, p in enumerate(probs) if p != 0)
        if any(p < 0 for p in probs) or sum(probs) != 1 or support != tuple(eq.support):
            failures.append(f"equilibrium {probs} is not positive exactly on its support")
            continue
        if checks.wsne_eps_exact(matrix, probs, MAXIMIZE) != 0:
            failures.append(f"{probs} is not an exact symmetric equilibrium")
        value = rational.vec_dot(probs, rational.mat_vec(matrix, probs))
        if value != eq.value:
            failures.append(f"{probs} reports value {eq.value}, exact value is {value}")
    return failures


def verify_census(g: cliques.Graph, a, k: int, maxima, equilibria) -> list[str]:
    """Exact checks of the A(G) census: equilibria, best value, clique profiles."""
    failures = verify_equilibria(a, equilibria)
    if not equilibria:
        return failures + ["census found no equilibrium"]
    best = max(eq.value for eq in equilibria)
    if best != Fraction(-1, k):
        failures.append(f"best equilibrium value {best} != -1/{k}")
    values = {eq.probs: eq.value for eq in equilibria}
    for clique in maxima:
        probs = tuple(Fraction(1, k) if v in clique else Fraction(0) for v in range(g.n))
        if values.get(probs) != Fraction(-1, k):
            failures.append(f"uniform play on maximum clique {clique} is missing")
    return failures


def census_digest(found: dict) -> str:
    """Digest of the equilibrium sets of one graph, keyed by game."""
    lines = sorted(
        f"{game}|{','.join(str(p) for p in eq.probs)}|{eq.value}"
        for game, equilibria in found.items() for eq in equilibria
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def verify_census_record(want, found: dict, findings: dict) -> list[str]:
    """The graph's equilibrium sets and findings against the recorded census."""
    if want is None:
        return ["no recorded census for this graph"]
    failures = []
    if census_digest(found) != want["digest"]:
        failures.append("equilibrium sets differ from the recorded census")
    if findings != want["findings"]:
        failures.append(f"findings {findings} differ from the recorded {want['findings']}")
    return failures


def _census_task(entry: dict) -> Outcome:
    out, found = census_run(entry)
    out.failures += verify_census_record(entry["expected"], found, out.findings)
    return out


def census_run(entry: dict) -> tuple[Outcome, dict]:
    """The census of one graph; returns the outcome and the equilibria by game."""
    g, a = entry["graph"], entry["a"]
    out = Outcome()
    fail = out.failures
    k, witness = oracle.max_clique(g)
    if len(witness) != k or not g.is_clique(witness) or oracle.cliques_of_size(g, k + 1):
        fail.append(f"max_clique returned {witness} of size {k}, not a maximum clique")
    maxima = oracle.cliques_of_size(g, k)
    equilibria = oracle.symmetric_support_enumeration(a, orientation=MAXIMIZE)
    found = {"A": equilibria}
    fail += verify_census(g, a, k, maxima, equilibria)
    # criterion-03 gap clause: a finding about the stated bound, not a failure
    gap_offenders = 0
    if k >= 2:
        bound = Fraction(-1, k - 1)
        gap_offenders = sum(
            1 for eq in equilibria
            if not cliques._is_clique_uniform(g, eq.probs) and eq.value > bound
        )
    # criterion-04 bordered games: iff and uniqueness must hold, distance is a finding
    strays = 0
    for kk in (max(k, 2), max(k, 2) + 1):
        if kk > g.n:
            continue
        game = cliques.unique_ne_game(g, kk)
        regime = cliques.ParameterRegime(
            n=g.n, k=kk, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9)
        )
        bordered = oracle.symmetric_support_enumeration(game.row_payoff, orientation=MAXIMIZE)
        found[f"k={kk}"] = bordered
        fail += verify_equilibria(game.row_payoff, bordered)
        classes = [
            cliques.classify_symmetric_profile(
                game, kk, regime, games.MixedStrategy.from_exact(eq.probs), 0.0
            )
            for eq in bordered
        ]
        forms = [c.form for c in classes]
        has_clique = bool(oracle.cliques_of_size(g, kk))
        sees = any(f in (cliques.CLIQUE_UNIFORM, cliques.HALF_MIX) for f in forms)
        if sees != has_clique:
            fail.append(f"k={kk}: clique form seen={sees} but clique exists={has_clique}")
        if not has_clique and forms != [cliques.TRIVIAL_LAST]:
            fail.append(f"k={kk}: no clique yet equilibria classify as {forms}")
        strays += sum(1 for c in classes if c.form == cliques.OTHER or c.distance > 1e-9)
    out.findings = {"gap_offenders": gap_offenders, "distance_strays": strays}
    if g.n <= CENSUS_WSNE_MAX_N and k >= 2:
        _census_wsne(entry, g, k, out)
    if entry["cli"] is not None:
        _census_cli(entry, k, witness, equilibria, out)
    return out, found


def _census_wsne(entry: dict, g: cliques.Graph, k: int, out: Outcome) -> None:
    delta = Fraction(1, 2)
    regime = cliques.ParameterRegime(
        n=g.n, k=k, delta=delta, epsilon=delta * (1 - delta) / (12 * g.n**7)
    )
    report = cliques.wsne_value_audit(g, regime)  # raises on a violated bound
    out.findings["wsne_construction_violations"] = 0
    abar = cliques.payoff_from_graph_delta(g, delta)
    game = games.BimatrixGame(abar, abar, (MAXIMIZE, MAXIMIZE))
    exact_ne = [r.probs for r in report.records if r.wsne_eps == 0]
    uniform = np.full(g.n, 1.0 / g.n)
    for probs, (w, stretch) in zip(exact_ne, entry["perturb"]):
        base = np.array([float(p) for p in probs])
        mixed = (1 - w) * base + w * uniform
        x = games.MixedStrategy(mixed / mixed.sum())
        profile = games.MixedProfile((x, x))
        regret = max(max(checks.epsilon_ne_report(game, profile).regrets), 0.0)
        eps = max(math.sqrt(8 * regret) * stretch, 1e-6)
        try:
            wsne = checks.ne_to_wsne(game, profile, eps)
        except BoundViolationError:
            # The construction's own a-posteriori check refused its output: a
            # finding about the stated bound once it is confirmed here.
            if _pruned_profile_misses_bound(game, x, eps):
                out.findings["wsne_construction_violations"] += 1
            else:
                out.failures.append(f"ne_to_wsne raised at eps {eps} but its output holds")
            continue
        measured = checks.wsne_report(game, wsne[0])
        if measured > eps + 1e-12:
            out.failures.append(f"ne_to_wsne output is a {measured}-WSNE, wanted {eps}")
        drift = max(float(np.abs(wsne[p].probs - profile[p].probs).max()) for p in range(2))
        if drift > eps / 4 + 1e-12:
            out.failures.append(f"ne_to_wsne moved mass by {drift} > eps/4")


def _pruned_profile_misses_bound(game, x, eps: float) -> bool:
    """Redo the NE-to-WSNE pruning of (x, x) and test its two stated bounds."""
    payoffs = game.row_float @ x.probs
    probs = x.probs.copy()
    probs[payoffs.max() - payoffs > eps] = 0.0
    probs /= probs.sum()
    measured = checks.wsne_report(game, games.MixedStrategy(probs))
    drift = float(np.abs(probs - x.probs).max())
    return measured > eps + 1e-12 or drift > eps / 4 + 1e-12


def _run_cli(argv: list[str], report_path: str) -> dict:
    code = cli.main(argv + ["--report", report_path])
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if code != 0 or report["exit_code"] != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return report["data"]


def _census_cli(entry: dict, k: int, witness, equilibria, out: Outcome) -> None:
    graph_path, game_path, report_path = entry["cli"]
    data = _run_cli(["solve", "max-clique", "--graph", graph_path], report_path)
    if data["size"] != k or data["clique"] != [v + 1 for v in witness]:
        out.failures.append(f"CLI max-clique {data} disagrees with the library ({k}, {witness})")
    data = _run_cli(["solve", "enumerate", "--game", game_path], report_path)
    from_cli = sorted((tuple(e["probs"]), e["value"]) for e in data["equilibria"])
    from_lib = sorted(
        (tuple(str(p) for p in eq.probs), str(eq.value)) for eq in equilibria
    )
    if from_cli != from_lib:
        out.failures.append("CLI enumerate disagrees with the library census")


def census_tasks(inputs: dict) -> list[Task]:
    return [
        Task("graph", entry["graph"].n, lambda entry=entry: _census_task(entry))
        for entry in inputs["graphs"]
    ]


# ---------------------------------------------------------------------------
# dynamics: symmetric learning dynamics on quadratic gadgets

DYNAMICS_DIMS = (2, 3, 8, 16, 32, 64)
DYNAMICS_HORIZON = 1400
DYNAMICS_STEPSIZE = 0.05


def _rational_matrix(rng, n: int):
    return rational.fmat(
        [[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)] for _ in range(n)]
    )


def dynamics_generate(rng, workdir: str, rounds: int) -> list[dict]:
    return [
        {"matrices": [_rational_matrix(rng, n) for n in DYNAMICS_DIMS]} for _ in range(rounds)
    ]


def _dynamics_task(r, algorithm: str, check_antisymmetry: bool, seed: int) -> Outcome:
    out = Outcome()
    problem = gadgets.quadratic_gadget(r)
    if check_antisymmetry:
        sanity = minmax.antisymmetry_check(problem, samples=50, seed=seed)
        if not sanity.ok or sanity.max_violation > 1e-12:
            out.failures.append(f"gadget is not antisymmetric ({sanity.max_violation})")
    config = dynamics.DynamicsConfig(
        algorithm=algorithm, stepsize=DYNAMICS_STEPSIZE, horizon=DYNAMICS_HORIZON
    )
    trajectory = dynamics.run(problem, config)
    drift = dynamics.symmetry_drift(trajectory)
    if len(trajectory) != DYNAMICS_HORIZON or drift > 1e-12:
        out.failures.append(f"{algorithm} at n={len(r)}: drift {drift} over {len(trajectory)} steps")
    if not math.isfinite(dynamics.min_gap(trajectory)):
        out.failures.append(f"{algorithm} at n={len(r)}: non-finite gap")
    return out


def _witness_task() -> Outcome:
    problem, config = dynamics.drift_witness_instance()
    drift = dynamics.symmetry_drift(dynamics.run(problem, config))
    if drift <= 1e-3:
        return Outcome([f"alternating GDA witness drifted only {drift}"])
    return Outcome()


def dynamics_tasks(inputs: dict) -> list[Task]:
    tasks = []
    for index, r in enumerate(inputs["matrices"]):
        for j, algorithm in enumerate(dynamics.SYMMETRIC_ALGORITHMS):
            tasks.append(Task(
                algorithm, len(r),
                lambda r=r, a=algorithm, first=(j == 0), s=index: _dynamics_task(r, a, first, s),
            ))
    tasks.append(Task("witness", 3, _witness_task))
    return tasks


# ---------------------------------------------------------------------------
# team_refine: team-gadget round trip with multi-start refinement

TEAM_TRIALS = 8
TEAM_EPS = 0.05
# Iterations per start.  Criterion 05 allows 25,000; a run cannot afford
# starts that long.  In 60 sampled trials, converging starts from the uniform
# profile took 4,300 to 6,200 iterations and no other uniform start converged
# within 12,000, so a cap just above 6,200 still tells stalls from
# convergence, and keeps a stall from swinging the batch time.
TEAM_REFINE_CAP = 6500
TEAM_WARM = 0.7  # weight of the canonical profile in the warm start of criterion 05
TEAM_3V3 = 2


def _rand_sym_matrix(rng, n, lo, hi, den):
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(int(rng.integers(lo, hi + 1)), den)
    return rational.fmat(m)


def team_menu_size() -> int:
    return TEAM_TRIALS // 2 * POOL_ROUNDS


def team_menu() -> list[tuple[int, int]]:
    """Every (n, index) trial a seed can draw, for the digests."""
    return [(n, i) for n in (2, 3) for i in range(team_menu_size())]


def team_entry(n: int, i: int) -> dict:
    rng = np.random.default_rng([POOL_SEED, 1, n, i])
    return {
        "key": f"{n}/{i}",
        "a": _rand_sym_matrix(rng, n, 100, 200, -100),  # entries in [-2, -1]
        "expected": None,
    }


def team_generate(rng, workdir: str, rounds: int) -> list[dict]:
    expected = load_digests()["team"]
    per_size = TEAM_TRIALS // 2
    picks = {n: draw_from_menu(rng, team_menu_size(), per_size * rounds) for n in (2, 3)}
    batches = []
    for _ in range(rounds):
        trials = []
        for t in range(TEAM_TRIALS):
            entry = team_entry(2 + t % 2, picks[2 + t % 2].pop())
            entry["expected"] = expected.get(entry["key"])
            trials.append(entry)
        batches.append({"trials": trials, "teams3v3": _teams3v3(rng)})
    return batches


def _teams3v3(rng) -> list[dict]:
    teams3v3 = []
    for t in range(TEAM_3V3):
        n = int(rng.integers(2, 4))
        m = [[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)] for _ in range(n)]
        symmetric = t % 2 == 0
        if symmetric:
            for i in range(n):
                for j in range(i, n):
                    m[j][i] = m[i][j]
        teams3v3.append({"r": rational.fmat(m), "symmetric": symmetric, "seed": t})
    return teams3v3


def verify_team_record(want, converged: list[bool]) -> list[str]:
    """Which starts converged, against the recorded trial."""
    if want is None:
        return ["no recorded outcome for this trial"]
    if converged != want["converged"]:
        return [f"starts converged {converged}, recorded {want['converged']}"]
    return []


def _team_trial(entry: dict) -> Outcome:
    out, converged = team_run(entry["a"])
    out.failures += verify_team_record(entry["expected"], converged)
    return out


def team_run(a) -> tuple[Outcome, list[bool]]:
    """Criterion-05 round trip; returns the outcome and which starts converged.

    The starts are the uniform and the warm profile, and both always run, so
    that a batch holds the same refinements whatever converges.  The protocol
    keeps the first start that converged, and a trial where none does fails.
    """
    out = Outcome()
    inst = gadgets.team_gadget(a, Fraction(1, 20))
    canonical = gadgets.canonical_team_ne(inst)
    cert = checks.epsilon_ne_report(inst.game, canonical, 1e-9)
    if not cert.satisfied:
        out.failures.append(f"canonical profile regrets {cert.regrets}")
    counts = inst.game.action_counts

    def refine_from(weight: float):
        """Refine from `weight` on the canonical profile, the rest uniform."""
        start = games.MixedProfile(tuple(
            games.MixedStrategy(weight * canonical[p].probs + (1 - weight) * np.ones(c) / c)
            for p, c in enumerate(counts)
        ))
        return oracle.local_ne_refine(inst.game, start, TEAM_EPS**2, max_iters=TEAM_REFINE_CAP)

    results = [refine_from(0.0), refine_from(TEAM_WARM)]
    for r in results:
        # the reported regret must match a fresh certificate (up to rounding)
        # and the flag must match the reported regret
        measured = max(checks.epsilon_ne_report(inst.game, r.profile).regrets)
        if abs(measured - r.max_regret) > 1e-12 or r.converged != (r.max_regret <= TEAM_EPS**2):
            out.failures.append(
                f"refine reported regret {r.max_regret} (converged={r.converged}), "
                f"recomputed {measured}"
            )
    converged = [r.converged for r in results]
    result = next((r for r in results if r.converged), None)
    if result is None:
        out.failures.append(f"no start converged; regrets {[r.max_regret for r in results]}")
        return out, converged
    gadgets.gadget_structure_audit(inst, result.profile, TEAM_EPS)  # raises if off
    y_star, bound = gadgets.team_backmap(inst, result.profile, TEAM_EPS**2)
    expected = (21 * inst.n + 1) * float(inst.penalty_scale) * TEAM_EPS
    if not math.isclose(bound, expected, rel_tol=1e-9):
        out.failures.append(f"backmap bound {bound} != {expected}")
    source = games.NormalFormGame(payoffs=(inst.a, inst.a), orientation=(MINIMIZE, MINIMIZE))
    back = checks.epsilon_ne_report(source, games.MixedProfile((y_star, y_star)), bound)
    if not back.satisfied:
        out.failures.append(f"back-mapped profile regrets {back.regrets} exceed {bound}")
    return out, converged


def _team3v3_task(entry: dict) -> Outcome:
    out = Outcome()
    inst = gadgets.team3v3_gadget(entry["r"], TEAM_EPS)
    worst = games.max_team_inconsistency(inst.game, samples=100, seed=entry["seed"])
    if worst > 1e-12:
        out.failures.append(f"team inconsistency {worst}")
    if not entry["symmetric"]:
        return out
    equilibria = oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)
    if not equilibria:
        out.failures.append("no symmetric equilibrium of A")
        return out
    n = inst.n
    s = games.MixedStrategy.from_exact(equilibria[0].probs)
    anchor = games.MixedStrategy.pure(2 * n + 1, 2 * n)
    report = gadgets.team3v3_audit_and_backmap(
        inst, games.MixedProfile((s, s, anchor, s, s, anchor)), TEAM_EPS
    )
    if report.max_pair_gap != 0.0 or report.max_mirror_mass != 0.0:
        out.failures.append("3v3 audit found a pair gap or mirror mass")
    if max(report.certificate.regrets) > 1e-9:
        out.failures.append(f"3v3 certificate regrets {report.certificate.regrets}")
    game = games.BimatrixGame(inst.r, rational.transpose(inst.r), (MINIMIZE, MAXIMIZE))
    cert = checks.epsilon_ne_report(
        game, games.MixedProfile((report.strategy, report.strategy))
    )
    if max(cert.regrets) > report.bound + 1e-9:
        out.failures.append(f"3v3 back-map regrets {cert.regrets} exceed {report.bound}")
    return out


def team_tasks(inputs: dict) -> list[Task]:
    tasks = [
        Task("trial", len(entry["a"]), lambda e=entry: _team_trial(e)) for entry in inputs["trials"]
    ]
    for entry in inputs["teams3v3"]:
        tasks.append(Task("3v3", len(entry["r"]), lambda e=entry: _team3v3_task(e)))
    return tasks


# ---------------------------------------------------------------------------
# grid_sweep: grid equilibrium search with exact re-checks

COARSE_EPS = Fraction(1, 20)
TIGHT_EPS = Fraction(1, 10000)
TEAM_GRID_EPS = Fraction(1, 10)
# Per slot: base resolution denominator; the seed moves each by a small step.
# Coarse slots carry most of a batch's time; tight ones stay below m = 145,
# where the float pass still fits in about 100 MB.  With 3 team slots below
# and 4 coarse slots above, the median task falls inside the tight group.
COARSE_BASES = (35, 39, 42, 45)
COARSE_JITTER = (-1, 0, 1)
TIGHT_BASES = (80, 92, 104, 116, 128, 140)
TIGHT_JITTER = (-4, 0, 4)
TEAM_GRID_RES = (9, 10, 11, 12)
TEAM_GRID_SLOTS = 3
TEAM_GRID_MATRIX = ((Fraction(-2), Fraction(-3, 2)), (Fraction(-3, 2), Fraction(-1)))


def grid_menu() -> list[tuple[str, int]]:
    """Every (game, resolution denominator) a seed can draw, for the digests."""
    menu = [("irrational-coarse", b + j) for b in COARSE_BASES for j in COARSE_JITTER]
    menu += [("irrational-tight", b + j) for b in TIGHT_BASES for j in TIGHT_JITTER]
    menu += [("team", m) for m in TEAM_GRID_RES]
    return sorted(set(menu))


def grid_games() -> dict:
    inst = gadgets.team_gadget(TEAM_GRID_MATRIX, Fraction(1, 10))
    return {
        "irrational": analytic.irrational_game(),
        "team": games.to_normal_form(inst.game),
    }


def grid_case(games_by_name: dict, family: str, m: int):
    if family == "team":
        return games_by_name["team"], Fraction(1, m), TEAM_GRID_EPS
    eps = COARSE_EPS if family == "irrational-coarse" else TIGHT_EPS
    return games_by_name["irrational"], Fraction(1, m), eps


def grid_digest(hits) -> str:
    lines = sorted(
        ";".join(",".join(str(p) for p in s.exact) for s in profile.strategies)
        + "|" + repr(regret)
        for profile, regret in hits
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def verify_grid(expected: dict, family: str, m: int, hits) -> list[str]:
    key = f"{family}/{m}"
    want = expected.get(key)
    if want is None:
        return [f"no recorded digest for {key}"]
    if len(hits) != want["hits"] or grid_digest(hits) != want["digest"]:
        return [f"{key}: {len(hits)} hits do not match the recorded hit set ({want['hits']})"]
    return []


def grid_generate(rng, workdir: str, rounds: int) -> list[dict]:
    slots = [("irrational-coarse", [b + j for j in COARSE_JITTER]) for b in COARSE_BASES]
    slots += [("irrational-tight", [b + j for j in TIGHT_JITTER]) for b in TIGHT_BASES]
    slots += [("team", list(TEAM_GRID_RES))] * TEAM_GRID_SLOTS
    columns = [(family, spread(rng, ms, rounds)) for family, ms in slots]
    shared = {"games": grid_games(), "digests": load_digests()["grid"]}
    return [
        dict(shared, cases=[(family, ms[r]) for family, ms in columns]) for r in range(rounds)
    ]


def _grid_task(inputs: dict, family: str, m: int) -> Outcome:
    game, resolution, eps = grid_case(inputs["games"], family, m)
    hits = oracle.grid_ne_search(game, resolution, eps)
    return Outcome(verify_grid(inputs["digests"], family, m, hits))


def grid_tasks(inputs: dict) -> list[Task]:
    return [
        Task(family, m, lambda f=family, m=m: _grid_task(inputs, f, m))
        for family, m in inputs["cases"]
    ]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable
    tasks: Callable
    nominal_batch_s: float  # one batch on the reference machine; sets the round count
    predicted_dominant: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", census_generate, census_tasks, 11.5,
                 ("rational.solve_linear", "checks.wsne_eps_exact")),
        Workload("dynamics", dynamics_generate, dynamics_tasks, 8.0, ("minmax.gda_gap",)),
        Workload("team_refine", team_generate, team_tasks, 8.0,
                 ("oracle.refine", "games.deviation_payoffs")),
        Workload("grid_sweep", grid_generate, grid_tasks, 6.0, ("oracle.exact_max_regret",)),
    )
}
