"""Learning dynamics for quadratic min-max problems on simplex products.

Five update rules share one interface: the players' points form a list
[x, y], `problem.feedbacks` maps it to their feedback list [grad_x f,
-grad_y f], and every player descends on its own entry.  Each rule is
written once and applied to every entry, so both players run the *same*
deterministic rule, operation for operation.  Four of the rules (GDA,
ExtraGradient, OptimisticGDA, OMWU) update simultaneously; with an
antisymmetric objective and a shared starting point the two feedback
vectors are bitwise identical, so the two iterates never separate — the
recorded symmetry drift stays exactly zero.  AlternatingGDA deliberately
breaks the pattern by updating the players in turn, each reacting to the
moves already made, which is enough to pull the iterates apart on
ordinary bilinear problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from .errors import DimensionError, PreconditionError, UnsupportedDomainError
from .games import MixedStrategy
from .geometry import _project_simplex_raw
from .minmax import QuadraticMinMaxProblem, _f_rows, _simplex_gda_gaps

GDA = "GDA"
EXTRAGRADIENT = "ExtraGradient"
OPTIMISTIC_GDA = "OptimisticGDA"
OMWU = "OMWU"
ALTERNATING_GDA = "AlternatingGDA"
ALGORITHMS = (GDA, EXTRAGRADIENT, OPTIMISTIC_GDA, OMWU, ALTERNATING_GDA)
SYMMETRIC_ALGORITHMS = (GDA, EXTRAGRADIENT, OPTIMISTIC_GDA, OMWU)
# gaps, drifts and utilities are computed in one array pass per block of steps,
# sized so that a block holds about this many coordinates per player
RECORD_CELLS = 1024


@dataclass(frozen=True)
class DynamicsConfig:
    """Algorithm choice, stepsize, horizon, and optional starting profile.

    Stepsizes are capped at 1 because the fixed-point-gap certificates are
    only stated there; the default init is the symmetric uniform profile.
    """

    algorithm: str
    stepsize: float = 0.1
    horizon: int = 100
    init: tuple[MixedStrategy, MixedStrategy] | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise PreconditionError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if isinstance(self.stepsize, bool) or not isinstance(self.stepsize, Real):
            raise PreconditionError(f"stepsize must be a real number, got {self.stepsize!r}")
        if not (0 < self.stepsize <= 1):
            raise PreconditionError("stepsize must lie in (0, 1]")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, Integral):
            raise PreconditionError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 1:
            raise PreconditionError("horizon must be at least 1")
        # an exact stepsize would turn every iterate into an object array
        object.__setattr__(self, "stepsize", float(self.stepsize))
        object.__setattr__(self, "horizon", int(self.horizon))


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: T points with their gaps, drifts, and utilities."""

    points: tuple[tuple[np.ndarray, np.ndarray], ...]
    gaps: tuple[float, ...]
    drifts: tuple[float, ...]
    utilities: tuple[float, ...]

    def __post_init__(self):
        t = len(self.points)
        if not (len(self.gaps) == len(self.drifts) == len(self.utilities) == t):
            raise DimensionError("trajectory records have mismatched lengths")

    def __len__(self) -> int:
        return len(self.points)


def _init_point(
    problem: QuadraticMinMaxProblem, config: DynamicsConfig
) -> tuple[np.ndarray, np.ndarray]:
    if config.init is None:
        x = np.full(problem.n_x, 1.0 / problem.n_x)
        y = np.full(problem.n_y, 1.0 / problem.n_y)
        return x, y
    x_strat, y_strat = config.init
    x, y = x_strat.probs.copy(), y_strat.probs.copy()
    if x.size != problem.n_x or y.size != problem.n_y:
        raise DimensionError("initial point does not match problem dimensions")
    return x, y


def _record_pending(
    problem: QuadraticMinMaxProblem,
    points: list,
    gaps: list,
    drifts: list,
    utilities: list,
) -> None:
    """Append gaps, drifts and utilities for the points not yet recorded."""
    pending = points[len(gaps):]
    if not pending:
        return
    xs = np.array([x for x, _ in pending])
    ys = np.array([y for _, y in pending])
    gaps.extend(_simplex_gda_gaps(problem, xs, ys, stepsize=1.0).tolist())
    if problem.n_x == problem.n_y:
        drifts.extend(np.abs(xs - ys).max(axis=1).tolist())
    else:
        drifts.extend([float("inf")] * len(pending))
    utilities.extend(_f_rows(problem, xs, ys).tolist())


def run(problem: QuadraticMinMaxProblem, config: DynamicsConfig) -> Trajectory:
    """Run the configured dynamics and record one entry per step.

    The first recorded point is the initialization; each later point is one
    update of its predecessor, so a horizon of T performs T - 1 updates.
    Gaps are fixed-point gaps at stepsize 1 regardless of the stepsize the
    dynamics use, making traces comparable across configurations.  Only
    plain simplex products are supported, and OMWU additionally needs a
    strictly positive starting profile since zeros are absorbing under
    multiplicative updates.  Records are computed from raw arrays in blocks
    of about `RECORD_CELLS` coordinates, with the gap kernel of
    `minmax.gda_gap`.
    """
    if problem.domain is not None:
        raise UnsupportedDomainError(
            "dynamics run on the simplex product; coupled domains are not supported"
        )
    points = list(_init_point(problem, config))
    eta = config.stepsize
    algo = config.algorithm
    if algo == OMWU and min(p.min() for p in points) <= 0:
        raise PreconditionError("OMWU requires a strictly positive initialization")

    feedbacks = problem.feedbacks
    # the module global, read per call: a tracer may have patched it
    project = _project_simplex_raw
    previous = [np.zeros_like(p) for p in points]
    block = max(1, RECORD_CELLS // max(p.size for p in points))
    visited, gaps, drifts, utilities = [], [], [], []
    for t in range(config.horizon):
        # each rule replaces the entries of `points` with fresh arrays, so a
        # recorded tuple keeps its own
        visited.append(tuple(points))
        if len(visited) - len(gaps) == block:
            _record_pending(problem, visited, gaps, drifts, utilities)
        if t == config.horizon - 1:
            break
        if algo == GDA:
            for i, g in enumerate(feedbacks(points)):
                points[i] = project(points[i] - eta * g)
        elif algo == EXTRAGRADIENT:
            half = points.copy()
            for i, g in enumerate(feedbacks(points)):
                half[i] = project(points[i] - eta * g)
            for i, g in enumerate(feedbacks(half)):
                points[i] = project(points[i] - eta * g)
        elif algo == OPTIMISTIC_GDA:
            current = feedbacks(points)
            for i, g in enumerate(current):
                points[i] = project(points[i] - eta * (2.0 * g - previous[i]))
            previous = current
        elif algo == OMWU:
            current = feedbacks(points)
            with np.errstate(over="ignore", invalid="ignore"):
                for i, g in enumerate(current):
                    w = points[i] * np.exp(-eta * (2.0 * g - previous[i]))
                    total = np.add.reduce(w)
                    if not (np.isfinite(w).all() and total > 0):
                        raise OverflowError(
                            f"multiplicative update overflowed at step {t + 1}"
                        )
                    points[i] = w / total
            previous = current
        else:  # AlternatingGDA: GDA with each player's feedback read on its turn
            for i in range(len(points)):
                points[i] = project(points[i] - eta * feedbacks(points)[i])
    _record_pending(problem, visited, gaps, drifts, utilities)
    return Trajectory(
        points=tuple(visited),
        gaps=tuple(gaps),
        drifts=tuple(drifts),
        utilities=tuple(utilities),
    )


def symmetry_drift(trajectory: Trajectory) -> float | None:
    """Largest recorded ||x^t - y^t||_inf over the run.

    None when x and y differ in length: such a run has no drift, and records
    inf at every step.
    """
    if not trajectory.points:
        raise PreconditionError("empty trajectory")
    x, y = trajectory.points[0]
    if x.size != y.size:
        return None
    return max(trajectory.drifts)


def min_gap(trajectory: Trajectory) -> float:
    """Best (smallest) fixed-point gap achieved over the run."""
    if not trajectory.points:
        raise PreconditionError("empty trajectory")
    return min(trajectory.gaps)


def drift_witness_instance() -> tuple[QuadraticMinMaxProblem, DynamicsConfig]:
    """A bilinear problem and config on which AlternatingGDA separates.

    Rock-paper-scissors coupling from a symmetric non-equilibrium start:
    the four simultaneous rules keep x = y forever here, while the
    alternating rule lets y react to the already-moved x and the iterates
    split by far more than 1e-3 within a couple hundred steps.
    """
    zero = np.zeros((3, 3), dtype=object)
    m = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    problem = QuadraticMinMaxProblem(qx=zero, qy=zero, m=m)
    init = (
        MixedStrategy.from_exact([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]),
        MixedStrategy.from_exact([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]),
    )
    config = DynamicsConfig(
        algorithm=ALTERNATING_GDA, stepsize=0.1, horizon=200, init=init
    )
    return problem, config
