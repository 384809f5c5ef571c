"""Record benchmark medians for one or more checkouts in a BENCH_*.json file.

Run from the repository root:

    python3 tools/bench_record.py --out BENCH_8.json --seeds 1-10 \\
        --checkout parent=/path/to/parent/clone --checkout change=.

For every seed, each checkout runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in its own directory, for each of BENCHMARK.json's workloads in turn, with
its `run_seconds` as T.  The checkouts run in the given order at even
positions of the seed list and in reverse at odd ones, so that with two of
them each goes first equally often.  After the benchmark runs, each checkout
runs its acceptance gate once, in the given order:

    python3 -m pytest tests/test_acceptance.py -q --durations=0 --durations-min=0 -p no:cacheprovider

with its own `src` on PYTHONPATH.  The file records the machine (cores,
Python and numpy versions), the commit of each checkout (for one whose code
has uncommitted changes, also the sha256 of that diff), the median, quartiles
and IQR of each end-to-end metric that BENCHMARK.json names, every run's
value, how many runs were correct and how many tasks failed, the call
time of each `test_criterion_*` test with the gate's exit status, and the
line count of the checkout's `src/minmaxlab/*.py` (as `wc -l` counts it).
With two checkouts it also counts, per metric, the pairs the second one won,
and gives each (workload, metric) the change of the median, as a fraction
of the first checkout's, and a verdict (`verdict`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEASURED = ("src", "perfbench")  # the code a benchmark run executes
RUN_TIMEOUT_S = 900
GATE_TIMEOUT_S = 1800
CRITERION_CALL = re.compile(r"^\s*([0-9.]+)s call\s+\S+::(test_criterion_\S+)")


def parse_seeds(text: str) -> list[int]:
    """'1-4,7' -> [1, 2, 3, 4, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="BENCH_*.json file to write")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                   help="a labelled checkout to run; repeat for a comparison")
    args = p.parse_args(argv)
    args.checkout = [tuple(c.split("=", 1)) for c in args.checkout]
    if any(len(c) != 2 for c in args.checkout):
        p.error("--checkout takes LABEL=DIR")
    args.workloads = [w["name"] for w in spec["workloads"]]
    args.seconds = spec["run_seconds"]
    args.metrics = spec["end_to_end"]
    return args


def commit_of(path: str) -> dict:
    """HEAD of a git checkout and, if its measured code differs, the sha256 of the diff.

    The diff is `git diff --binary HEAD -- src perfbench`, so a later commit C
    with the same code gives the same hash for
    `git diff --binary <commit> C -- src perfbench | sha256sum`.  Files git
    does not track are not part of it.
    """
    if not os.path.isdir(os.path.join(path, ".git")):
        return {"commit": "unavailable", "code_diff_sha256": None}

    def git(*cmd) -> bytes:
        return subprocess.run(["git", "-C", path, "--no-pager", *cmd], capture_output=True,
                              check=True).stdout

    diff = git("diff", "--no-color", "--no-ext-diff", "--binary", "HEAD", "--", *MEASURED)
    return {"commit": git("rev-parse", "HEAD").decode().strip(),
            "code_diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def src_lines(path: str) -> int:
    """Newlines in the checkout's src/minmaxlab/*.py, the total `wc -l` prints."""
    package = os.path.join(path, "src", "minmaxlab")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def run_once(path: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; the JSON lines it prints, keyed by their first key."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {path} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    out = {next(iter(line)): line for line in lines}
    return {"provenance": out["provenance"]["provenance"], "result": lines[-1]}


def criterion_times(path: str) -> dict:
    """One run of the checkout's acceptance gate: each criterion's call time and the exit status."""
    cmd = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "--durations=0",
           "--durations-min=0", "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(path), "src")}
    proc = subprocess.run(cmd, cwd=path, env=env, capture_output=True, text=True,
                          timeout=GATE_TIMEOUT_S)
    seconds = {m[2]: float(m[1]) for m in map(CRITERION_CALL.match, proc.stdout.splitlines()) if m}
    return {"exit_code": proc.returncode, "seconds": dict(sorted(seconds.items()))}


def summary(values: list[float]) -> dict:
    points = values if len(values) > 1 else values * 2  # quantiles() needs two
    q1, median, q3 = statistics.quantiles(points, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def wins(base: list[float], new: list[float], better: str) -> int:
    """The pairs in which the new run reads better; a tie counts for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (b - n) > 0 for b, n in zip(base, new))


def verdict(base: dict, new: dict, metric: dict) -> dict:
    """The median change and the verdict on one metric, from two `summary`s.

    `gain` when the new runs win at least nine tenths of the pairs and the
    medians differ, in the better direction, by more than the base runs'
    IQR; `worse` when the new median is worse by more than the metric's
    `bound`, a fraction of the base median; `unresolved` when the base IQR
    is wider than that bound, unless every new run reads better than every
    base run; `within_bound` otherwise.
    """
    lower = metric["better"] == "lower"
    b, n = base["values"], new["values"]
    better_by = (base["median"] - new["median"]) * (1 if lower else -1)
    bound = metric["bound"] * abs(base["median"])
    if 10 * wins(b, n, metric["better"]) >= 9 * len(b) and better_by > base["iqr"]:
        outcome = "gain"
    elif -better_by > bound:
        outcome = "worse"
    elif base["iqr"] > bound and not (max(n) < min(b) if lower else min(n) > max(b)):
        outcome = "unresolved"
    else:
        outcome = "within_bound"
    change = (new["median"] - base["median"]) / base["median"] if base["median"] else None
    return {"median_change": change, "verdict": outcome}


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = {label: {w: [] for w in args.workloads} for label, _ in args.checkout}
    machine = None
    for k, seed in enumerate(args.seeds):
        order = args.checkout if k % 2 == 0 else args.checkout[::-1]
        for workload in args.workloads:
            for label, path in order:
                started = time.time()
                run = run_once(path, workload, seed, args.seconds)
                prov = run["provenance"]
                machine = machine or {"nproc": prov["nproc"], "python": prov["python"],
                                      "numpy": prov["numpy"], "platform": platform.platform()}
                runs[label][workload].append(run["result"])
                wall = run["result"]["metrics"]["wall_s"]["value"]
                print(f"seed {seed} {workload} {label}: wall_s {wall:.3f} "
                      f"correct {run['result']['correct']} ({time.time() - started:.0f} s)",
                      flush=True)

    criteria = {}
    for label, path in args.checkout:
        started = time.time()
        criteria[label] = criterion_times(path)
        print(f"{label}: acceptance gate exit {criteria[label]['exit_code']} "
              f"({time.time() - started:.0f} s)", flush=True)

    entries = []
    for label, path in args.checkout:
        workloads = {}
        for workload, results in runs[label].items():
            workloads[workload] = {
                "runs": len(results),
                "correct": sum(bool(r["correct"]) for r in results),
                "failed": sum(r["failed"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "metrics": {
                    m["name"]: {"unit": m["unit"], **summary(
                        [r["metrics"][m["name"]]["value"] for r in results])}
                    for m in args.metrics
                },
            }
        entries.append({"label": label, **commit_of(path), "src_lines": src_lines(path),
                        "workloads": workloads, "criteria": criteria[label]})

    doc = {
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "seeds": args.seeds,
        "order": "alternating by seed" if len(args.checkout) > 1 else "single checkout",
        "entries": entries,
    }
    if len(args.checkout) == 2:
        (base, _), (new, _) = args.checkout
        doc["pairs"] = {"base": base, "new": new, "wins_of_new": {
            workload: {
                m["name"]: wins(*(e["workloads"][workload]["metrics"][m["name"]]["values"]
                                  for e in entries), m["better"])
                for m in args.metrics
            }
            for workload in args.workloads
        }, "verdicts": {
            workload: {
                m["name"]: verdict(*(e["workloads"][workload]["metrics"][m["name"]]
                                     for e in entries), m)
                for m in args.metrics
            }
            for workload in args.workloads
        }}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
