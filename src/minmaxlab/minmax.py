"""Quadratic min-max problems on simplex products, GDA maps, and gap bounds.

The objective has the fixed shape

    f(x, y) = 1/2 y^T Qy y - 1/2 x^T Qx x + y^T M x,

with x the minimizer and y the maximizer, each on a probability simplex
(optionally coupled through a JointDomain band).  Qx and Qy must be
symmetric, exactly, in rational arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .checks import require_finite_nonnegative, within
from .errors import DimensionError, PreconditionError, UnsupportedDomainError
from .games import MAXIMIZE, MINIMIZE, MixedStrategy, best_deviation
from .geometry import JointDomain, _project_simplex_rows, project_joint
from .rational import fmat, scale_to_integers, scaled_to_exact, scaled_to_float


def _spectral_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True, eq=False)
class QuadraticMinMaxProblem:
    """Min-max quadratic with exact rational data and float evaluation mirrors.

    `smoothness_bound` (L) and `lipschitz_bound` (G) are conservative upper
    bounds used by the gap-to-VI translations; constructors of specific
    instances may pass tighter or customary values, otherwise spectral-norm
    estimates are filled in.  The exact data is scaled to integers once, for
    the symmetry checks and the float mirrors `qx_float`, `qy_float` and
    `m_float`.
    """

    qx: np.ndarray
    qy: np.ndarray
    m: np.ndarray
    domain: JointDomain | None = None
    smoothness_bound: float | None = None
    lipschitz_bound: float | None = None
    qx_float: np.ndarray = field(init=False, repr=False)
    qy_float: np.ndarray = field(init=False, repr=False)
    m_float: np.ndarray = field(init=False, repr=False)
    _scaled: tuple = field(init=False, repr=False)  # (cells, d) of qx, qy and m

    def __post_init__(self):
        for name in ("smoothness_bound", "lipschitz_bound"):
            value = getattr(self, name)
            if value is not None and not (0.0 <= value < math.inf):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        qx = fmat(self.qx)
        qy = qx if self.qy is self.qx else fmat(self.qy)  # scaled and mirrored once
        mm = fmat(self.m)
        nx, nx2 = qx.shape
        ny, ny2 = qy.shape
        if nx != nx2 or ny != ny2:
            raise DimensionError("Qx and Qy must be square")
        qx_scaled = scale_to_integers(qx)
        qy_scaled = qx_scaled if qy is qx else scale_to_integers(qy)
        if any((cells != cells.T).any() for cells, _ in (qx_scaled, qy_scaled)):
            raise DimensionError("Qx and Qy must be symmetric (exactly)")
        if mm.shape != (ny, nx):
            raise DimensionError(f"M must have shape ({ny}, {nx}), got {mm.shape}")
        if self.domain is not None and (self.domain.n != nx or nx != ny):
            raise DimensionError("a coupled domain needs matching x and y dimensions")
        self._store(qx, qy, mm, (qx_scaled, qy_scaled, scale_to_integers(mm)))
        if self.smoothness_bound is None:
            l_est = 2.0 * (
                _spectral_norm(self.qx_float)
                + _spectral_norm(self.qy_float)
                + _spectral_norm(self.m_float)
            )
            object.__setattr__(self, "smoothness_bound", l_est)
        if self.lipschitz_bound is None:
            a = _spectral_norm(self.qx_float) + _spectral_norm(self.m_float)
            b = _spectral_norm(self.qy_float) + _spectral_norm(self.m_float)
            object.__setattr__(self, "lipschitz_bound", math.hypot(a, b))

    def _store(self, qx: np.ndarray, qy: np.ndarray, m: np.ndarray, scaled: tuple) -> None:
        """Set Qx, Qy and M, their integer forms `scaled` ((cells, d) each) and the
        float mirrors of those; Qy is Qx shares its mirror."""
        qx_float = scaled_to_float(*scaled[0])
        qy_float = qx_float if qy is qx else scaled_to_float(*scaled[1])
        for name, value in zip(("qx", "qy", "m", "qx_float", "qy_float", "m_float", "_scaled"),
                               (qx, qy, m, qx_float, qy_float, scaled_to_float(*scaled[2]), scaled)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_scaled(cls, q_cells: np.ndarray, m_cells: np.ndarray, d: int,
                   domain: JointDomain | None, bound: float) -> "QuadraticMinMaxProblem":
        """Qx = Qy = q_cells / d and M = m_cells / d with L = G = bound, built
        unchecked: the caller guarantees q_cells symmetric and m_cells skew, of
        one square shape.  Only `gadgets._quadratic_problem` calls this.  d may
        exceed the lcm: int true division rounds as float(Fraction) does."""
        problem = object.__new__(cls)
        for name, value in zip(("domain", "smoothness_bound", "lipschitz_bound"), (domain, bound, bound)):
            object.__setattr__(problem, name, value)
        q = scaled_to_exact(q_cells, d)
        problem._store(q, q, scaled_to_exact(m_cells, d), ((q_cells, d), (q_cells, d), (m_cells, d)))
        return problem

    @property
    def n_x(self) -> int:
        return len(self.qx)

    @property
    def n_y(self) -> int:
        return len(self.qy)

    @cached_property
    def mt_float(self) -> np.ndarray:
        # contiguous transpose so both players' feedbacks run the same kernel
        return np.ascontiguousarray(self.m_float.T)

    @cached_property
    def neg_m_float(self) -> np.ndarray:
        return np.ascontiguousarray(-self.m_float)

    def antisymmetric(self) -> bool:
        """Structural test for f(x, y) = -f(y, x): Qx = Qy and M skew, exactly,
        decided on the integer cells.  Unless Qy is Qx, each d is the lcm of
        its matrix's denominators, so equal matrices have equal cells."""
        (qx, dx), (qy, dy), (m, _) = self._scaled
        return (
            self.n_x == self.n_y
            and (qy is qx or (dx == dy and bool((qx == qy).all())))
            and bool((m == -m.T).all())
        )

    @cached_property
    def feedbacks(self) -> Callable[[np.ndarray], np.ndarray]:
        """The players' feedbacks at the flat point z = (x, y): the flat
        (grad_x f, -grad_y f), each player descending on its own segment.

        The closure holds the bound products, writes each into a segment of
        a buffer it owns, and returns that buffer, which the next call overwrites.
        """
        nx = self.n_x
        mt, qx = self.mt_float.dot, self.qx_float.dot
        neg_m, qy = self.neg_m_float.dot, self.qy_float.dot
        out, own = np.empty(nx + self.n_y), np.empty(nx + self.n_y)
        out_x, out_y, own_x, own_y = out[:nx], out[nx:], own[:nx], own[nx:]

        def feedbacks(z):
            x, y = z[:nx], z[nx:]
            mt(y, out=out_x)
            neg_m(x, out=out_y)
            qx(x, out=own_x)
            qy(y, out=own_y)
            return np.subtract(out, own, out=out)

        return feedbacks


def _point(problem: QuadraticMinMaxProblem, x, y) -> tuple[np.ndarray, np.ndarray]:
    xv = x.probs if isinstance(x, MixedStrategy) else np.asarray(x, dtype=float).reshape(-1)
    yv = y.probs if isinstance(y, MixedStrategy) else np.asarray(y, dtype=float).reshape(-1)
    if xv.size != problem.n_x or yv.size != problem.n_y:
        raise DimensionError("point does not match problem dimensions")
    return xv, yv


def _f_rows(
    problem: QuadraticMinMaxProblem, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """f at each row pair of stacked points xs (T, n_x) and ys (T, n_y)."""
    return (
        0.5 * ((ys @ problem.qy_float) * ys).sum(axis=1)
        - 0.5 * ((xs @ problem.qx_float) * xs).sum(axis=1)
        + ((xs @ problem.mt_float) * ys).sum(axis=1)
    )


def f_value(problem: QuadraticMinMaxProblem, x, y) -> float:
    xv, yv = _point(problem, x, y)
    return float(_f_rows(problem, xv[None], yv[None])[0])


def gradient(problem: QuadraticMinMaxProblem, x, y) -> tuple[np.ndarray, np.ndarray]:
    """(grad_x f, grad_y f) at the point: the players' feedbacks, the
    maximizer's negated as 0.0 - v so that a zero component stays +0.0."""
    g = problem.feedbacks(np.concatenate(_point(problem, x, y)))
    return g[: problem.n_x].copy(), 0.0 - g[problem.n_x :]


def _simplex_gda_rows(
    problem: QuadraticMinMaxProblem, xs: np.ndarray, ys: np.ndarray, stepsize: float
) -> tuple[np.ndarray, np.ndarray]:
    """GDA image of each row pair of stacked points on the plain simplex product;
    targets with the same bytes are projected once, for both players."""
    gx = ys @ problem.m_float - xs @ problem.qx_float
    gy = ys @ problem.qy_float + xs @ problem.mt_float
    vx, vy = xs - stepsize * gx, ys + stepsize * gy
    x2 = _project_simplex_rows(vx)
    if vx.shape == vy.shape and vx.tobytes() == vy.tobytes():
        return x2, x2
    return x2, _project_simplex_rows(vy)


def _simplex_gda_gaps(
    problem: QuadraticMinMaxProblem,
    xs: np.ndarray,
    ys: np.ndarray,
    stepsize: float = 1.0,
) -> np.ndarray:
    """Euclidean GDA gap of each row pair of stacked points (T, n_x), (T, n_y).

    Plain simplex product only; `gda_gap` and the trajectory record of
    `dynamics.run` both measure the gap here.
    """
    x2, y2 = _simplex_gda_rows(problem, xs, ys, stepsize)
    return np.hypot(np.linalg.norm(xs - x2, axis=1), np.linalg.norm(ys - y2, axis=1))


def gda_map(
    problem: QuadraticMinMaxProblem, x, y, stepsize: float = 1.0
) -> tuple[MixedStrategy, MixedStrategy]:
    """One projected gradient-descent-ascent step.

    On a plain simplex product each block projects independently; on a
    coupled domain the stacked update is projected jointly (safe variant).
    """
    if not (math.isfinite(stepsize) and stepsize > 0):
        raise PreconditionError(f"stepsize must be finite and positive, got {stepsize}")
    xv, yv = _point(problem, x, y)
    if problem.domain is None:
        xs, ys = _simplex_gda_rows(problem, xv[None], yv[None], stepsize)
        return MixedStrategy(xs[0]), MixedStrategy(ys[0])
    gx, gy = gradient(problem, x, y)
    x_new = xv - stepsize * gx
    y_new = yv + stepsize * gy
    if not problem.domain.contains(xv, yv):
        raise PreconditionError("input point is not feasible for the coupled domain")
    return project_joint(x_new, y_new, problem.domain)


@dataclass(frozen=True)
class GapReport:
    """Distance moved by one GDA step, with the matching VI bound when stepsize is 1."""

    gap: float
    stepsize: float
    vi_bound: float | None
    bound_name: str | None


def gap_to_vi_bound(gap: float, smoothness: float) -> float:
    """First-order suboptimality implied by a unit-stepsize gap: gap * (L + 1)."""
    require_finite_nonnegative("gap", gap)
    require_finite_nonnegative("smoothness", smoothness)
    return gap * (smoothness + 1.0)


def safe_gap_to_vi_bound(gap: float, smoothness: float, lipschitz: float) -> float:
    """VI bound for the jointly projected (safe) step: sqrt(gap) * K.

    K = (L + 1) * sqrt(G + 4 sqrt(2)); loose but valid at any scale.
    """
    for name, value in (("gap", gap), ("smoothness", smoothness), ("lipschitz", lipschitz)):
        require_finite_nonnegative(name, value)
    k = (smoothness + 1.0) * math.sqrt(lipschitz + 4.0 * math.sqrt(2.0))
    return math.sqrt(gap) * k


def gda_gap(
    problem: QuadraticMinMaxProblem, x, y, stepsize: float = 1.0
) -> GapReport:
    """Euclidean distance between (x, y) and its GDA image.

    The VI translation is only certified at stepsize 1 (the lemmas are
    stated there); other stepsizes report the raw gap with no bound.
    """
    if not (math.isfinite(stepsize) and stepsize > 0):
        raise PreconditionError(f"stepsize must be finite and positive, got {stepsize}")
    xv, yv = _point(problem, x, y)
    if problem.domain is None:
        gap = float(_simplex_gda_gaps(problem, xv[None], yv[None], stepsize)[0])
    else:
        x2, y2 = gda_map(problem, xv, yv, stepsize)
        gap = float(
            math.hypot(np.linalg.norm(xv - x2.probs), np.linalg.norm(yv - y2.probs))
        )
    vi_bound = None
    bound_name = None
    if stepsize == 1.0:
        if problem.domain is None:
            vi_bound = gap_to_vi_bound(gap, problem.smoothness_bound)
            bound_name = "gradient mapping"
        else:
            vi_bound = safe_gap_to_vi_bound(
                gap, problem.smoothness_bound, problem.lipschitz_bound
            )
            bound_name = "safe gradient mapping"
    return GapReport(
        gap=gap,
        stepsize=float(stepsize),
        vi_bound=vi_bound,
        bound_name=bound_name,
    )


def check_fone(problem: QuadraticMinMaxProblem, x, y) -> tuple[float, float]:
    """Smallest (eps_x, eps_y) making (x, y) a first-order Nash point.

    eps_x = max over simplex vertices v of <x - v, grad_x f> and likewise
    eps_y = max over vertices w of <w - y, grad_y f>; linearity makes the
    vertex scan exact.  Only defined on the plain simplex product.
    """
    if problem.domain is not None:
        raise UnsupportedDomainError(
            "first-order certificates on the coupled domain are not supported"
        )
    xv, yv = _point(problem, x, y)
    gx, gy = gradient(problem, x, y)
    return best_deviation(gx, xv, MINIMIZE)[1], best_deviation(gy, yv, MAXIMIZE)[1]


@dataclass(frozen=True)
class AntisymmetryReport:
    structural: bool
    max_violation: float

    @property
    def ok(self) -> bool:
        return self.structural and within(self.max_violation, 0.0)


def antisymmetry_check(
    problem: QuadraticMinMaxProblem, samples: int = 100, seed: int = 0
) -> AntisymmetryReport:
    """Structural antisymmetry plus the largest |f(x, y) + f(y, x)| at the
    witness points, read exactly; `samples` and `seed` are ignored.

    With D = Qy - Qx and N = M + M^T, f(x, y) + f(y, x) = x^T D x / 2 +
    y^T D y / 2 + y^T N x.  It vanishes on every strategy pair iff it does at
    the witnesses, the vertex pairs (e_i, e_j) and the midpoints x = y =
    (e_i + e_j)/2 (docs/decisions.md, "Antisymmetry witnesses"): 0 is exact.
    """
    if problem.n_x != problem.n_y:
        return AntisymmetryReport(False, math.inf)
    if problem.antisymmetric():
        return AntisymmetryReport(True, 0.0)
    d, n = problem.qy - problem.qx, problem.m + problem.m.T
    vertex = (d.diagonal()[:, None] + d.diagonal()) / 2 + n  # its diagonal is D + N's
    midpoint = (vertex.diagonal()[:, None] + vertex.diagonal()) / 4 + (d + n) / 2
    return AntisymmetryReport(False, float(np.abs(np.stack([vertex, midpoint])).max()))
