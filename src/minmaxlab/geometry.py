"""Feasible sets and projections: simplexes, coupled strategy pairs, grids."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ConvergenceError, DimensionError
from .games import MixedStrategy
from .rational import FVec, to_fraction

PROJECT_JOINT_TOL = 1e-10
PROJECT_JOINT_MAX_SWEEPS = 100_000
FEASIBILITY_TOL = 1e-8
SIMPLEX_GRID_CAP = 10_000_000
# the largest n at which the scalar threshold beats numpy's (measured in
# docs/decisions.md, "Float loops")
_SCALAR_PROJECTION_MAX_N = 40
_NO_THRESHOLD = (
    "simplex projection found no threshold: an entry is NaN or +inf, or too large for 1 to register"
)


def _simplex_threshold(v: np.ndarray) -> float:
    """The theta of the Euclidean projection of v onto the probability simplex.

    theta = css[k] / (k + 1) at the last k with u[k] > css[k] / (k + 1), where
    u is v sorted descending and css its cumulative sums less 1.  Up to
    `_SCALAR_PROJECTION_MAX_N` entries, where numpy's fixed cost per call
    dominates, theta is found by one sequential pass over Python floats with
    the same operations in the same order, so both ways give the same bits.
    Raises ValueError when no k passes, as with a NaN or +inf entry.
    """
    if v.size > _SCALAR_PROJECTION_MAX_N:
        u = np.sort(v)[::-1]
        css = u.cumsum()
        css -= 1.0
        passing = (u > css / np.arange(1, v.size + 1)).nonzero()[0]
        if passing.size == 0:
            raise ValueError(_NO_THRESHOLD)
        k = passing[-1]
        return css[k] / (k + 1)
    s = 0.0
    theta = None
    for k, u in enumerate(sorted(v.tolist(), reverse=True), 1):
        s += u
        t = (s - 1.0) / k
        if u > t:
            theta = t
    # a NaN total means a NaN entry (which Python's sort may place anywhere)
    # or inf + -inf; numpy's order then lets no k pass
    if theta is None or s != s:
        raise ValueError(_NO_THRESHOLD)
    return theta


def _project_simplex_raw(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex: max(v - theta, 0)."""
    return np.maximum(v - _simplex_threshold(v), 0.0)


def _project_simplex_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise `_project_simplex_raw` of a 2-D array, bit-identical per row.

    Raises the same ValueError when some row has no threshold.
    """
    u = np.sort(v, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    css -= 1.0
    ind = np.arange(1, v.shape[1] + 1)
    rho = ((u > css / ind) * ind).max(axis=1)
    if not rho.all():
        raise ValueError(_NO_THRESHOLD)
    theta = css[np.arange(v.shape[0]), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def project_simplex(point) -> MixedStrategy:
    """Project an arbitrary real vector onto the simplex."""
    v = np.asarray(point, dtype=float)
    if v.ndim > 1:
        raise DimensionError(f"expected one vector, got an array of shape {v.shape}")
    v = v.reshape(-1)
    if v.size == 0:
        raise DimensionError("empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return MixedStrategy(_project_simplex_raw(v))


@dataclass(frozen=True)
class JointDomain:
    """Pairs (x, y) of n-simplex points with |x_i - y_i| <= delta for all i."""

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("need at least one action")
        if not (0.0 <= self.delta < math.inf):
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        object.__setattr__(self, "delta", float(self.delta))

    def violation(self, x, y) -> float:
        """Largest constraint violation of the pair (simplex and band)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.size != self.n or y.size != self.n:
            raise DimensionError("point does not match domain dimension")
        worst = 0.0
        for v in (x, y):
            worst = max(worst, abs(v.sum() - 1.0), float(np.maximum(-v, 0.0).max()))
        worst = max(worst, float(np.maximum(np.abs(x - y) - self.delta, 0.0).max()))
        return worst

    def contains(self, x, y) -> bool:
        return self.violation(x, y) <= FEASIBILITY_TOL


def _project_band(z: np.ndarray, n: int, delta: float) -> np.ndarray:
    """Project stacked (x, y) onto the band |x_i - y_i| <= delta, coordinatewise."""
    x, y = z[:n].copy(), z[n:].copy()
    diff = x - y
    excess = (np.abs(diff) - delta) / 2.0
    np.clip(excess, 0.0, None, out=excess)
    shift = np.sign(diff) * excess
    x -= shift
    y += shift
    return np.concatenate([x, y])


def project_joint(x, y, domain: JointDomain) -> tuple[MixedStrategy, MixedStrategy]:
    """Euclidean projection of a strategy pair onto a JointDomain.

    Dykstra alternating projections between the simplex product and the
    coordinate band; unlike plain alternating projection this converges to
    the true nearest point of the intersection.  Stops when an entire sweep
    moves the iterate by no more than PROJECT_JOINT_TOL and the iterate is
    feasible to FEASIBILITY_TOL; raises ConvergenceError (carrying the last
    residual) after PROJECT_JOINT_MAX_SWEEPS sweeps otherwise.
    """
    n = domain.n
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != n or y.size != n:
        raise DimensionError("point does not match domain dimension")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("point contains non-finite entries")
    cur = np.concatenate([x, y])
    p = np.zeros(2 * n)
    q = np.zeros(2 * n)
    residual = math.inf
    for _ in range(PROJECT_JOINT_MAX_SWEEPS):
        prev = cur
        t = prev + q
        b = _project_band(t, n, domain.delta)
        q = t - b
        t = b + p
        cur = np.concatenate([_project_simplex_raw(t[:n]), _project_simplex_raw(t[n:])])
        p = t - cur
        residual = float(np.linalg.norm(cur - prev))
        if residual <= PROJECT_JOINT_TOL and domain.contains(cur[:n], cur[n:]):
            return MixedStrategy(cur[:n]), MixedStrategy(cur[n:])
    raise ConvergenceError(
        f"projection did not settle within {PROJECT_JOINT_MAX_SWEEPS} sweeps", residual=residual
    )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_size(n: int, resolution) -> int:
    """Number of grid points of the n-simplex at spacing `resolution` = 1/m."""
    m = _resolution_denominator(resolution)
    return math.comb(m + n - 1, n - 1)


def _resolution_denominator(resolution) -> int:
    r = to_fraction(resolution)
    if r <= 0 or r > 1 or r.numerator != 1:
        raise ValueError(f"resolution must be 1/m for a positive integer m, got {resolution}")
    return r.denominator


def _grid_denominator(n: int, resolution) -> int:
    """m for `resolution` = 1/m, once the n-simplex grid is known to hold at
    most SIMPLEX_GRID_CAP points."""
    if n < 1:
        raise DimensionError("need at least one coordinate")
    m = _resolution_denominator(resolution)
    count = grid_size(n, resolution)
    if count > SIMPLEX_GRID_CAP:
        raise CapExceededError(f"grid holds {count} points, cap is {SIMPLEX_GRID_CAP}")
    return m


def simplex_grid(n: int, resolution) -> Iterator[FVec]:
    """Stream all points of the n-simplex with coordinates in multiples of 1/m.

    Yields exact rational vectors in a fixed (first-coordinate descending)
    order.  Raises CapExceededError when the grid would hold more than
    SIMPLEX_GRID_CAP points; nothing is materialized.
    """
    m = _grid_denominator(n, resolution)

    def _stream() -> Iterator[FVec]:
        for comp in _compositions(m, n):
            yield tuple(Fraction(c, m) for c in comp)

    return _stream()
