"""Planted-wrong-output check of the benchmark's own verifiers.

The census, team_refine and grid_sweep verifiers are run on true outputs,
which must pass, and on planted wrong ones, which must each be reported as
failures: a census missing its maximum-clique equilibria, a census with a
non-equilibrium added, a census missing the equilibria that are not uniform
on a clique (what a wrong support prefilter would give), a census finding
off by one, a team trial whose first start no longer converges, and a grid
hit set with one hit removed.  Every benchmark run calls
:func:`run_selftest`; it can also be run alone from the repository root
with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from minmaxlab import cliques, games, oracle, rational  # noqa: E402

FIG1_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]


def run_selftest(digests: dict) -> dict[str, bool]:
    """Name -> whether the verifier behaved as required on that case."""
    g = cliques.Graph.from_edges(5, FIG1_EDGES)
    a = cliques.payoff_from_graph(g)
    k, _ = oracle.max_clique(g)
    maxima = oracle.cliques_of_size(g, k)
    equilibria = oracle.symmetric_support_enumeration(a, orientation=games.MAXIMIZE)

    missing = [eq for eq in equilibria if eq.value != Fraction(-1, k)]
    uniform = tuple(Fraction(1, g.n) for _ in range(g.n))
    fake = oracle.SymmetricEquilibrium(
        uniform, rational.vec_dot(uniform, rational.mat_vec(a, uniform)), tuple(range(g.n))
    )

    # the first recorded census graph with equilibria that are not uniform on a clique
    key = next(f"{n}/{i}" for n, i in workloads.census_menu()
               if digests["census"][f"{n}/{i}"]["findings"]["gap_offenders"])
    entry = workloads.census_entry(*map(int, key.split("/")))
    want = digests["census"][key]
    outcome, found = workloads.census_run(entry)
    pruned = dict(found, A=[eq for eq in found["A"]
                            if cliques._is_clique_uniform(entry["graph"], eq.probs)])
    off_by_one = dict(outcome.findings, gap_offenders=outcome.findings["gap_offenders"] - 1)

    team_want = next(iter(digests["team"].values()))
    flipped = [not team_want["converged"][0]] + team_want["converged"][1:]

    family = "irrational-coarse"
    m = min(res for fam, res in workloads.grid_menu() if fam == family)
    game, resolution, eps = workloads.grid_case(workloads.grid_games(), family, m)
    hits = oracle.grid_ne_search(game, resolution, eps)

    return {
        "census_true_passes": not workloads.verify_census(g, a, k, maxima, equilibria),
        "census_missing_clique_flagged": bool(workloads.verify_census(g, a, k, maxima, missing)),
        "census_fake_equilibrium_flagged": bool(
            workloads.verify_census(g, a, k, maxima, equilibria + [fake])
        ),
        "census_record_true_passes": not outcome.failures and not workloads.verify_census_record(
            want, found, outcome.findings
        ),
        "census_non_clique_dropped_flagged": bool(
            workloads.verify_census_record(want, pruned, outcome.findings)
        ),
        "census_finding_changed_flagged": bool(
            workloads.verify_census_record(want, found, off_by_one)
        ),
        "team_start_changed_flagged": bool(workloads.verify_team_record(team_want, flipped)),
        "grid_true_passes": not workloads.verify_grid(digests["grid"], family, m, hits),
        "grid_missing_hit_flagged": bool(
            workloads.verify_grid(digests["grid"], family, m, hits[:-1])
        ),
    }


if __name__ == "__main__":
    results = run_selftest(workloads.load_digests())
    for name, ok in results.items():
        print(f"{name}: {'ok' if ok else 'FAILED'}")
    sys.exit(0 if all(results.values()) else 1)
