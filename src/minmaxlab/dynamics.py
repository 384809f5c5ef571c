"""Learning dynamics for quadratic min-max problems on simplex products.

Five update rules share one interface: the players' points are the two
segments of one flat row z = (x, y), `problem.feedbacks` maps it to the
flat feedback (grad_x f, -grad_y f), and every player descends on its own
segment.  Each stage of a rule is one operation over the whole row, so
both players run the *same* deterministic rule, operation for operation.
Four of the rules (GDA, ExtraGradient, OptimisticGDA, OMWU) update
simultaneously; with an antisymmetric objective and a shared starting
point the two feedback segments are bitwise identical, so the two iterates
never separate — the recorded symmetry drift stays exactly zero.  While the
segments hold the same bytes, a projection's threshold and OMWU's total are
computed once and applied to the whole row; a deterministic function of the
same bytes gives the same bits, so this changes no result, and the drift is
still measured from the path.
AlternatingGDA deliberately breaks the pattern by updating the players in
turn, each reacting to the moves already made, which is enough to pull the
iterates apart on ordinary bilinear problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from .errors import DimensionError, PreconditionError, UnsupportedDomainError
from .games import MixedStrategy
from .geometry import _simplex_threshold
from .minmax import QuadraticMinMaxProblem, _f_rows, _simplex_gda_gaps

GDA = "GDA"
EXTRAGRADIENT = "ExtraGradient"
OPTIMISTIC_GDA = "OptimisticGDA"
OMWU = "OMWU"
ALTERNATING_GDA = "AlternatingGDA"
ALGORITHMS = (GDA, EXTRAGRADIENT, OPTIMISTIC_GDA, OMWU, ALTERNATING_GDA)
SYMMETRIC_ALGORITHMS = (GDA, EXTRAGRADIENT, OPTIMISTIC_GDA, OMWU)
# gaps, drifts and utilities are computed in one array pass per block of steps,
# sized so that a block holds about this many coordinates per player; the
# blocks set the bits of the BLAS products (docs/decisions.md, "Float loops")
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
        if self.init is not None and not (
            isinstance(self.init, tuple)
            and len(self.init) == 2
            and all(isinstance(s, MixedStrategy) for s in self.init)
        ):
            raise PreconditionError(f"init must be a pair of MixedStrategy, got {self.init!r}")
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


def run(problem: QuadraticMinMaxProblem, config: DynamicsConfig) -> Trajectory:
    """Run the configured dynamics and record one entry per step.

    The first recorded point is the initialization; each later point is one
    update of its predecessor, so a horizon of T performs T - 1 updates.
    Gaps are fixed-point gaps at stepsize 1 regardless of the stepsize the
    dynamics use, making traces comparable across configurations.  Only
    plain simplex products are supported, and OMWU additionally needs a
    strictly positive starting profile since zeros are absorbing under
    multiplicative updates.  Row t of one (T, n_x + n_y) buffer holds the
    point after t updates, and the returned points are read-only views of
    it.  After the loop, records are computed from its columns in blocks of
    about `RECORD_CELLS` coordinates, with the gap kernel of `minmax.gda_gap`.
    """
    if problem.domain is not None:
        raise UnsupportedDomainError(
            "dynamics run on the simplex product; coupled domains are not supported"
        )
    nx, horizon = problem.n_x, config.horizon
    path = np.empty((horizon, nx + problem.n_y))
    path[0] = np.concatenate(_init_point(problem, config))
    eta = config.stepsize
    algo = config.algorithm
    if algo == OMWU and path[0].min() <= 0:
        raise PreconditionError("OMWU requires a strictly positive initialization")

    feedbacks = problem.feedbacks
    segments = (slice(0, nx), slice(nx, None))
    v, half, previous = np.empty_like(path[0]), np.empty_like(path[0]), np.zeros_like(path[0])
    v_segments = v_x, v_y = [v[s] for s in segments]

    def project(out):
        """out = the projection of each segment of v, the step's target; segments
        with the same bytes share one threshold and one subtraction."""
        theta = _simplex_threshold(v_x)
        if v_x.tobytes() == v_y.tobytes():
            np.subtract(v, theta, out=v)
        else:
            np.subtract(v_x, theta, out=v_x)
            np.subtract(v_y, _simplex_threshold(v_y), out=v_y)
        np.maximum(v, 0.0, out=out)

    def descend(z, direction):
        np.subtract(z, np.multiply(direction, eta, out=v), out=v)

    for t in range(horizon - 1):
        z, nxt = path[t], path[t + 1]
        if algo == GDA:
            descend(z, feedbacks(z))
            project(nxt)
        elif algo == EXTRAGRADIENT:
            descend(z, feedbacks(z))
            project(half)
            descend(z, feedbacks(half))
            project(nxt)
        elif algo == OPTIMISTIC_GDA:
            g = feedbacks(z)
            descend(z, np.subtract(np.multiply(g, 2.0, out=half), previous, out=half))
            previous[:] = g
            project(nxt)
        elif algo == OMWU:
            g = feedbacks(z)
            with np.errstate(over="ignore", invalid="ignore"):
                w = np.subtract(np.multiply(g, 2.0, out=v), previous, out=v)
                np.multiply(z, np.exp(np.multiply(w, -eta, out=w), out=w), out=w)
            previous[:] = g
            # w is v: segments with the same bytes share one total and one divide
            shared = v_x.tobytes() == v_y.tobytes()
            totals = [np.add.reduce(w[s]) for s in (segments[:1] if shared else segments)]
            if not (np.isfinite(w).all() and min(totals) > 0):
                raise OverflowError(f"multiplicative update overflowed at step {t + 1}")
            if shared:
                np.divide(w, totals[0], out=nxt)
            else:
                for s, total in zip(segments, totals):
                    np.divide(w[s], total, out=nxt[s])
        else:  # AlternatingGDA: GDA on one segment per turn, its feedback read on the turn
            nxt[:] = z
            for s, w in zip(segments, v_segments):
                descend(nxt, feedbacks(nxt))
                w -= _simplex_threshold(w)
                np.maximum(w, 0.0, out=nxt[s])
    gaps, drifts, utilities = _record(problem, path)
    path.flags.writeable = False
    return Trajectory(
        points=tuple((row[:nx], row[nx:]) for row in path),
        gaps=gaps,
        drifts=drifts,
        utilities=utilities,
    )


def _record(problem: QuadraticMinMaxProblem, path: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """Gaps, drifts and utilities of every row of the path, a block of rows at a time."""
    nx, ny = problem.n_x, problem.n_y
    block = max(1, RECORD_CELLS // max(nx, ny))
    gaps, drifts, utilities = [], [], []
    for start in range(0, len(path), block):
        # column blocks of the buffer: BLAS reads them with their row stride
        xs, ys = path[start : start + block, :nx], path[start : start + block, nx:]
        gaps += _simplex_gda_gaps(problem, xs, ys, stepsize=1.0).tolist()
        if nx == ny:
            drifts += np.abs(xs - ys).max(axis=1).tolist()
        else:
            drifts += [float("inf")] * len(xs)
        utilities += _f_rows(problem, xs, ys).tolist()
    return tuple(gaps), tuple(drifts), tuple(utilities)


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
