"""minmaxlab benchmark: one seeded workload per run, every output checked exactly.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``census``,
``dynamics``, ``team_refine``, ``grid_sweep``.  A run is a closed loop: one
client in this one process runs one task at a time, with BLAS pinned to one
thread.  Set-up (import plus seeded generation of the inputs of every round)
is timed here and in four fresh interpreters, and ``setup_s`` is the median
of the five.  The run then measures rounds.  Each round is one task batch of
the workload's fixed composition drawn from the seed, so that a run covers
several independent draws.  The number of rounds is ``--seconds`` divided by
the workload's nominal batch time on the reference machine (a shared 2-core
host, Python 3.11, numpy 2.4), so it depends on the arguments only and two
versions of the program always run the same inputs.  ``wall_s`` is the time
to finish all rounds' tasks; ``task_p50_ms`` and ``task_tail_ms`` are taken
over the tasks of all rounds.

Times are wall-clock seconds rescaled to the reference machine's speed.  On
a shared host the speed of one core swings by 10-25% within seconds, which
would swamp the differences the benchmark exists to show.  A fixed
calibration loop that does not use minmaxlab runs before the first task and
after every task; each task's time is multiplied by ``CAL_REF_S`` over the
mean calibration time around it, and set-up times likewise.  The raw total
is kept in the results file as ``raw_wall_s``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run makes a warm-up round, then one untraced and one
traced round of the first batch; the last line carries the per-layer
metrics, including the tracing overhead (traced minus untraced time).
Earlier stdout lines hold provenance, findings and, when traced, the
dominant layers and the ROADMAP baseline cross-check.  Full results (and the
spans of a traced run) are written under ``.perfbench_out/`` in the working
directory.
"""

import os
import sys
import time

SCRIPT_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_CHILDREN = 4
PROBE_STREAM = 1_000_000  # generator stream of the census probes, apart from the rounds
TAIL_BEYOND = 10
CAL_REF_S = 0.0030  # calibrate() on the reference machine, between tasks
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter, print it and exit")
    return p.parse_args(argv)


def import_library():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "minmaxlab", "__init__.py")):
        sys.exit(f"perfbench: no minmaxlab sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import workloads

    return workloads


def seeded_rng(workloads, args, *stream):
    import numpy as np

    index = sorted(workloads.WORKLOADS).index(args.workload)
    return np.random.default_rng([args.seed, index, *stream])


def round_count(workload, seconds: float) -> int:
    return max(1, int(seconds // workload.nominal_batch_s))


def setup(workloads, args, workdir: str):
    """Import and seeded input generation; returns (batches, rescaled seconds)."""
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(workdir, exist_ok=True)
    rounds = round_count(workload, args.seconds)
    batches = workload.generate(seeded_rng(workloads, args, 0), workdir, rounds)
    return batches, (time.perf_counter() - SCRIPT_START) * CAL_REF_S / calibrate()


def child_setup_times(args) -> list[float]:
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def calibrate() -> float:
    """Seconds this host takes for a fixed piece of Python, Fraction and numpy work.

    The three parts mimic the workloads' inner loops: exact rational
    arithmetic, small-vector numpy steps, and plain interpreted loops.  The
    best of three repeats counts, so that an interrupt does not.  The loop
    uses nothing from minmaxlab, so a change to the program cannot move it.
    """
    import numpy as np

    m = np.arange(25.0).reshape(5, 5) / 25.0
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i, i + 3) * Fraction(3, i + 1)
        v = np.full(5, 0.2)
        for _ in range(60):
            d = m @ v
            best_action = int(np.argmax(d))
            w = np.array(v, dtype=float)
            if not np.all(np.isfinite(w)) or float(d @ v) < 0.0:
                raise ArithmeticError("calibration diverged")
            v = 0.9 * w / w.sum()
            v[best_action] += 0.1
        total = 0
        for i in range(8000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_round(tasks, tracer=None) -> dict:
    """Run every task once; returns rescaled and raw task times, failures, findings.

    A calibration runs before the first task and after every task; a task's
    time is rescaled by the mean of the two calibrations around it.
    """
    times, raw, cals, failures, findings = [], [], [], [], {}
    cal_before = calibrate()
    for task_id, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = task.run()
            else:
                with tracer.task_span(task_id):
                    outcome = task.run()
            problems = outcome.failures
            for key, value in outcome.findings.items():
                findings[key] = findings.get(key, 0) + value
        except Exception as exc:  # a raising task is a failed task, and the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        cals.append(cal_after)
        raw.append(elapsed)
        times.append(elapsed * CAL_REF_S / ((cal_before + cal_after) / 2))
        cal_before = cal_after
        if problems:
            failures.append({"task": task_id, "kind": task.kind, "size": task.size,
                             "problems": problems[:3]})
    return {"wall_s": sum(times), "raw_wall_s": sum(raw), "calibrations": cals,
            "times": times, "failures": failures, "findings": findings}


def tail(times: list[float]) -> tuple[float, float]:
    """Value with exactly TAIL_BEYOND tasks above it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit() -> str:
    """HEAD of the git checkout in the working directory, if it is one."""
    if not os.path.isdir(".git"):  # keeps git from searching the parent directories
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def provenance(args, tasks: int, percentile: float, rounds: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "loop": "closed, 1 client, 1 process, 1 task at a time",
        "rounds": rounds,
        "task_tail_tasks": tasks,
        "task_tail_percentile": round(percentile, 2),
        "task_tail_tasks_beyond": min(TAIL_BEYOND, tasks - 1),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[dict], setup_s: float) -> tuple[dict, float]:
    times = [t for r in rounds for t in r["times"]]
    tail_s, percentile = tail(times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(r["wall_s"] for r in rounds), "s"),
        "task_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "task_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    return metrics, percentile


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        batches, setup_main = setup(workloads, args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        setup_s = statistics.median([setup_main] + child_setup_times(args))
        return measure(workloads, args, batches, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workloads, args, batches, setup_s: float) -> int:
    import selftest

    workload = workloads.WORKLOADS[args.workload]
    checks = selftest.run_selftest(workloads.load_digests())
    tracer = None
    if args.trace:
        # The first batch three times: a warm-up, then untraced and traced for the
        # overhead.  A process's first round runs slower, which would otherwise
        # be charged to whichever of the two came first.
        import tracing

        run_round(workload.tasks(batches[0]))
        rounds = [run_round(workload.tasks(batches[0]))]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_round(workload.tasks(batches[0]), tracer)
        finally:
            tracer.uninstall()
        all_rounds = rounds + [traced]
    else:
        rounds = [run_round(workload.tasks(batch)) for batch in batches]
        all_rounds = rounds

    attempted = sum(len(r["times"]) for r in all_rounds)
    failed = sum(len(r["failures"]) for r in all_rounds)
    findings: dict[str, int] = {}
    for r in rounds:
        for key, value in r["findings"].items():
            findings[key] = findings.get(key, 0) + value
    e2e, percentile = end_to_end(rounds, setup_s)
    correct = failed == 0 and all(checks.values())
    prov = provenance(args, sum(len(r["times"]) for r in rounds), percentile, len(rounds))
    record = {
        "provenance": prov,
        "findings": findings,
        "selftest": checks,
        "failed_frac": failed / attempted,
        "failures": [f for r in all_rounds for f in r["failures"]][:20],
        "end_to_end": e2e,
        "raw_wall_s": sum(r["raw_wall_s"] for r in rounds),
        "calibration_median_s": statistics.median(c for r in rounds for c in r["calibrations"]),
        "task_seconds": [r["times"] for r in all_rounds],
    }
    if tracer is not None:
        layers = per_layer(tracer, traced, rounds[0])
        layers.update(layer_probes(workloads, args))
        record["per_layer"] = layers
        record["dominant"] = dominant(tracer, workload.predicted_dominant)
        record["roadmap_cross_check"] = roadmap_cross_check(layers, args.workload)
        metrics = layers
    else:
        metrics = e2e

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for key in ("provenance", "findings", "selftest", "failures", "dominant", "roadmap_cross_check"):
        if key in record:
            print(json.dumps({key: record[key]}))
    print(json.dumps({"failed_frac": record["failed_frac"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def layer_probes(workloads, args) -> dict:
    """Enumeration seconds at the ROADMAP baseline sizes, for the cross-check.

    The probes run after the traced batch with the tracer removed, so they add
    nothing to the batch's per-layer figures.  Every workload reports them
    (as 0 outside census) so that the traced metrics are the same everywhere.
    """
    out = {f"oracle.enum.s_n{n}": metric(0.0, "s") for n in workloads.CENSUS_PROBE_SIZES}
    if args.workload != "census":
        return out
    from minmaxlab import oracle

    for a in workloads.census_probes(seeded_rng(workloads, args, PROBE_STREAM)):
        t0 = time.perf_counter()
        oracle.symmetric_support_enumeration(a, orientation="maximize")
        out[f"oracle.enum.s_n{len(a)}"] = metric(time.perf_counter() - t0, "s")
    return out


PER_LAYER_UNITS = {"calls": "count", "self_s": "s"}


def per_layer(tracer, traced: dict, untraced: dict) -> dict:
    times = tracer.layer_times()
    counts = tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = metric(float(value), unit)

    def calls_self(layer, *fields):
        for f in fields:
            put(f"{layer}.{f}", times[layer][f], PER_LAYER_UNITS[f])

    def ratio(num, den):
        return num / den if den else 0.0

    calls_self("rational.solve_linear", "calls", "self_s")
    put("rational.solve_linear.singular", counts["rational.solve_linear.singular"], "count")
    calls_self("rational.mat_vec", "self_s")

    calls_self("oracle.enum", "calls", "self_s")
    tried = times["rational.solve_linear"]["in_enum"]  # support systems solved
    found = counts["oracle.enum.equilibria"]
    put("oracle.enum.supports_tried", tried, "count")
    put("oracle.enum.equilibria", found, "count")
    put("oracle.enum.useful_ratio", ratio(found, tried), "ratio")

    calls_self("oracle.grid", "self_s")
    exact_checks = times["oracle.exact_max_regret"]["in_grid"]
    hits = counts["oracle.grid.hits"]
    put("oracle.grid.profiles", counts["oracle.grid.profiles"], "count")
    put("oracle.grid.exact_checks", exact_checks, "count")
    put("oracle.grid.hits", hits, "count")
    put("oracle.grid.exact_per_hit", ratio(exact_checks, hits), "ratio")
    calls_self("oracle.exact_max_regret", "self_s")

    iterations = counts["oracle.refine.iterations"]
    put("oracle.refine.starts", times["oracle.refine"]["calls"], "count")
    put("oracle.refine.converged", counts["oracle.refine.converged"], "count")
    put("oracle.refine.iterations", iterations, "count")
    put("oracle.refine.wasted_iterations", counts["oracle.refine.wasted_iterations"], "count")
    calls_self("oracle.refine", "self_s")
    put("oracle.refine.us_per_iter",
        ratio(counts["oracle.refine.inclusive_s"] * 1e6, iterations), "us")

    calls_self("games.deviation_payoffs", "calls", "self_s")
    put("games.MixedStrategy.built", counts["games.MixedStrategy.built"], "count")
    calls_self("games.max_team_inconsistency", "self_s")

    calls_self("checks.epsilon_ne_report", "calls", "self_s")
    calls_self("checks.ne_to_wsne", "self_s")
    calls_self("checks.wsne_report", "self_s")
    calls_self("checks.wsne_eps_exact", "calls", "self_s")

    calls_self("cliques.wsne_value_audit", "self_s")
    put("cliques.wsne_value_audit.candidates", counts["cliques.wsne_value_audit.candidates"],
        "count")
    calls_self("cliques.classify", "self_s")

    calls_self("gadgets.build", "self_s")
    calls_self("gadgets.audit", "self_s")

    calls_self("minmax.gda_gap", "calls", "self_s")
    calls_self("minmax.f_value", "self_s")

    steps = counts["dynamics.steps"]
    calls_self("dynamics.run", "self_s")
    put("dynamics.steps", steps, "count")
    put("dynamics.us_per_step", ratio(counts["dynamics.inclusive_s"] * 1e6, steps), "us")
    n3 = [v for (n, algorithm), runs in tracer.runs.items()
          if n == 3 and algorithm != "AlternatingGDA" for v in runs]
    put("dynamics.us_per_step_n3",
        ratio(sum(d for d, _ in n3) * 1e6, sum(s for _, s in n3)), "us")

    calls_self("geometry.project", "calls", "self_s")
    put("geometry.simplex_grid.points", counts["geometry.simplex_grid.points"], "count")

    calls_self("cli.main", "calls", "self_s")
    calls_self("fileio.load", "self_s")
    calls_self("fileio.report", "self_s")

    calls_self("task", "self_s")
    overhead = traced["wall_s"] - untraced["wall_s"]
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_frac", ratio(overhead, untraced["wall_s"]), "ratio")
    put("trace.spans", len(tracer.start), "count")
    return m


def dominant(tracer, predicted) -> dict:
    """Layers ranked by self time, against the workload's predicted hot layers.

    Confirmed means the predicted layers are exactly the top ones by self time;
    inclusive times of the predicted layers are listed for the comparison.
    """
    times = tracer.layer_times()
    ranked = sorted(
        ((name, t["self_s"]) for name, t in times.items() if name != "task"),
        key=lambda item: -item[1],
    )
    top = [name for name, _ in ranked[: len(predicted)]]
    return {
        "predicted": list(predicted),
        "top_self_s": [[name, round(s, 4)] for name, s in ranked[:6]],
        "predicted_inclusive_s": {name: round(times[name]["total_s"], 4) for name in predicted},
        "confirmed": set(top) == set(predicted),
    }


ROADMAP_BASELINE = {
    "dynamics": [("dynamics.us_per_step_n3", 140.0, "us per step at n = 3")],
    "team_refine": [("oracle.refine.us_per_iter", 100.0, "us per refinement iteration")],
    "census": [
        ("oracle.enum.s_n8", 0.12, "s enumeration at n = 8"),
        ("oracle.enum.s_n10", 0.69, "s enumeration at n = 10"),
        ("oracle.enum.s_n11", 1.95, "s enumeration at n = 11"),
    ],
}


def roadmap_cross_check(layers: dict, name: str) -> list:
    """Traced figures next to the ROADMAP baseline; gaps are reported, not tuned."""
    return [
        {"metric": key, "measured": layers[key]["value"], "roadmap": base,
         "ratio": layers[key]["value"] / base, "what": what}
        for key, base, what in ROADMAP_BASELINE.get(name, [])
    ]


if __name__ == "__main__":
    sys.exit(main())
