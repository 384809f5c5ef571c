"""Record the reference outputs of every menu entry a seed can draw.

Run from the repository root:

    python3 perfbench/record_digests.py

It writes ``perfbench/digests.json``, which the workloads compare every task
against, in three sections:

- ``grid``: the hit-set digest of every grid_sweep case;
- ``census``: the equilibrium-set digest and the findings of every census graph;
- ``team``: which refinement starts converge on every team_refine trial.

An entry whose own exact checks fail is not recorded, and the script exits
with code 1.  Re-record only when a change is meant to alter these outputs,
and say so with the change.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from minmaxlab import oracle  # noqa: E402


def record_grid() -> dict:
    games_by_name = workloads.grid_games()
    out = {}
    for family, m in workloads.grid_menu():
        game, resolution, eps = workloads.grid_case(games_by_name, family, m)
        hits = oracle.grid_ne_search(game, resolution, eps)
        out[f"{family}/{m}"] = {"hits": len(hits), "digest": workloads.grid_digest(hits)}
    return out


def record_census() -> dict:
    out = {}
    for n, i in workloads.census_menu():
        entry = workloads.census_entry(n, i)
        outcome, found = workloads.census_run(entry)
        if outcome.failures:
            raise RuntimeError(f"census {entry['key']}: {outcome.failures}")
        out[entry["key"]] = {"digest": workloads.census_digest(found),
                             "findings": outcome.findings}
    return out


def record_team() -> dict:
    out = {}
    for n, i in workloads.team_menu():
        entry = workloads.team_entry(n, i)
        outcome, converged = workloads.team_run(entry["a"])
        if outcome.failures:
            raise RuntimeError(f"team {entry['key']}: {outcome.failures}")
        out[entry["key"]] = {"converged": converged}
    return out


SECTIONS = {"grid": record_grid, "census": record_census, "team": record_team}


def main() -> int:
    digests = {}
    for name, record in SECTIONS.items():
        t = time.perf_counter()
        try:
            digests[name] = record()
        except RuntimeError as exc:
            print(f"{name}: not recorded, {exc}", file=sys.stderr)
            return 1
        print(f"{name}: {len(digests[name])} entries in {time.perf_counter() - t:.1f} s",
              flush=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
