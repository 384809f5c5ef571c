"""Per-layer tracing of minmaxlab, installed from outside the package.

A :class:`Tracer` replaces a layer's public functions with timing wrappers
at every ``minmaxlab.*`` module attribute that holds them, which is the
attribute each caller actually looks up (``oracle.solve_linear``,
``cli.symmetric_support_enumeration``, ...).  No source file changes; the
originals are put back by :meth:`Tracer.uninstall`.

Each wrapped call records one span: layer name, start, end, parent span and
the id of the benchmark task that caused it.  Spans stay in typed arrays in
memory and are written once, at the end, by :meth:`Tracer.save`.  Self time
is a span's duration minus the time covered by its direct child spans.
Some layers are counters only (``MixedStrategy.__post_init__``, points
yielded by ``simplex_grid``): counting them as spans would cost more than
the work they measure.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer name -> (module, function names) of the public functions it covers
SPAN_LAYERS = {
    "rational.solve_linear": ("rational", ["solve_linear"]),
    "rational.mat_vec": ("rational", ["mat_vec"]),
    "oracle.enum": ("oracle", ["symmetric_support_enumeration"]),
    "oracle.grid": ("oracle", ["grid_ne_search"]),
    "oracle.exact_max_regret": ("oracle", ["exact_max_regret"]),
    "oracle.refine": ("oracle", ["local_ne_refine"]),
    "games.deviation_payoffs": ("games", ["deviation_payoffs"]),
    "games.max_team_inconsistency": ("games", ["max_team_inconsistency"]),
    "checks.epsilon_ne_report": ("checks", ["epsilon_ne_report"]),
    "checks.ne_to_wsne": ("checks", ["ne_to_wsne"]),
    "checks.wsne_report": ("checks", ["wsne_report"]),
    "checks.wsne_eps_exact": ("checks", ["wsne_eps_exact"]),
    "cliques.wsne_value_audit": ("cliques", ["wsne_value_audit"]),
    "cliques.classify": ("cliques", ["classify_symmetric_profile"]),
    "gadgets.build": (
        "gadgets",
        ["team_gadget", "team3v3_gadget", "quadratic_gadget", "canonical_team_ne"],
    ),
    "gadgets.audit": (
        "gadgets",
        ["gadget_structure_audit", "team3v3_audit_and_backmap", "team_backmap"],
    ),
    "minmax.gda_gap": ("minmax", ["gda_gap"]),
    "minmax.f_value": ("minmax", ["f_value"]),
    "dynamics.run": ("dynamics", ["run"]),
    "geometry.project": ("geometry", ["_project_simplex_raw"]),
    "cli.main": ("cli", ["main"]),
    "fileio.load": ("fileio", ["load_game", "load_graph", "load_profile"]),
    "fileio.report": ("fileio", ["make_report", "write_report"]),
}

TASK = "task"


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names = [TASK] + list(SPAN_LAYERS)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("h")
        self.task = array("l")
        self._stack: list[int] = []
        self._task_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.runs: dict[tuple[int, str], list[tuple[float, int]]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.task.append(self._task_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        self._stack.pop()
        t = time.perf_counter()
        self.end[idx] = t
        return t - self.start[idx]

    @contextlib.contextmanager
    def task_span(self, task_id: int):
        """The root span of one benchmark task."""
        self._task_id = task_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self._task_id = -1

    def _span_wrapper(self, layer: str, fn):
        name_id = self._name_id[layer]
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(idx)
            if after is not None:
                after(duration, result, args, kwargs)
            return result

        return wrapper

    # -- counters attached to spans ----------------------------------------

    def _after_rational_solve_linear(self, duration, result, args, kwargs):
        if result is None:
            self.counts["rational.solve_linear.singular"] += 1

    def _after_oracle_enum(self, duration, result, args, kwargs):
        self.counts["oracle.enum.equilibria"] += len(result)

    def _after_oracle_grid(self, duration, result, args, kwargs):
        from minmaxlab import geometry

        game, resolution = args[0], args[1]
        self.counts["oracle.grid.profiles"] += math.prod(
            geometry.grid_size(c, resolution) for c in game.action_counts
        )
        self.counts["oracle.grid.hits"] += len(result)

    def _after_oracle_refine(self, duration, result, args, kwargs):
        self.counts["oracle.refine.iterations"] += result.iterations
        if result.converged:
            self.counts["oracle.refine.converged"] += 1
        else:
            self.counts["oracle.refine.wasted_iterations"] += result.iterations
        self.counts["oracle.refine.inclusive_s"] += duration

    def _after_dynamics_run(self, duration, result, args, kwargs):
        steps = len(result)
        self.counts["dynamics.steps"] += steps
        self.counts["dynamics.inclusive_s"] += duration
        self.runs[(args[0].n_x, args[1].algorithm)].append((duration, steps))

    def _after_cliques_wsne_value_audit(self, duration, result, args, kwargs):
        self.counts["cliques.wsne_value_audit.candidates"] += result.candidates

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "minmaxlab" or mod_name.startswith("minmaxlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        from minmaxlab import games, geometry

        for layer, (module, functions) in SPAN_LAYERS.items():
            mod = sys.modules["minmaxlab." + module]
            for fn_name in functions:
                original = getattr(mod, fn_name)
                self._replace_everywhere(original, self._span_wrapper(layer, original))

        counts = self.counts
        post_init = games.MixedStrategy.__post_init__

        def counted_post_init(strategy):
            counts["games.MixedStrategy.built"] += 1
            post_init(strategy)

        self._patched.append((games.MixedStrategy, "__post_init__", post_init))
        games.MixedStrategy.__post_init__ = counted_post_init

        simplex_grid = geometry.simplex_grid

        @functools.wraps(simplex_grid)
        def counted_grid(*args, **kwargs):
            inner = simplex_grid(*args, **kwargs)

            def stream():
                for point in inner:
                    counts["geometry.simplex_grid.points"] += 1
                    yield point

            return stream()

        self._replace_everywhere(simplex_grid, counted_grid)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.parent, dtype=np.int64),
            np.array(self.name, dtype=np.int16),
            np.array(self.task, dtype=np.int64),
        )

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name.

        Two layers also count the calls made directly by another layer:
        exact re-checks of the grid search and support systems solved by the
        enumeration.
        """
        start, end, parent, name, _ = self._arrays()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        out = {}
        for i, layer in enumerate(self.names):
            mask = name == i
            out[layer] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }

        def calls_under(layer: str, caller: str) -> int:
            mask = (name == self._name_id[layer]) & has_parent
            mask[mask] = name[parent[mask]] == self._name_id[caller]
            return int(mask.sum())

        out["oracle.exact_max_regret"]["in_grid"] = calls_under(
            "oracle.exact_max_regret", "oracle.grid"
        )
        out["rational.solve_linear"]["in_enum"] = calls_under("rational.solve_linear", "oracle.enum")
        return out

    def save(self, path: str) -> None:
        start, end, parent, name, task = self._arrays()
        np.savez_compressed(
            path, start=start, end=end, parent=parent, name=name, task=task,
            names=np.array(self.names),
        )
