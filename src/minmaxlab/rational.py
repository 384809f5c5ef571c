"""Exact rational matrices, and the integer core that decides on them.

Payoff data is kept as nested tuples of Fraction; exact decisions scale it to
integers over a common denominator.  `mat_vec` and `vec_dot` are the plain
Fraction products, kept as the reference the integer core is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, index
from typing import Iterable, Sequence

import numpy as np

FVec = tuple[Fraction, ...]
FMat = tuple[FVec, ...]

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def to_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/4', floats, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (float, np.floating)):
        # exact binary value of the float, not a decimal approximation
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def fvec(values: Iterable) -> FVec:
    return tuple(to_fraction(v) for v in values)


def fmat(rows: Iterable[Iterable]) -> FMat:
    out = tuple(fvec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def shape(m: FMat) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: FMat) -> FMat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: FMat, v: Sequence[Fraction]) -> FVec:
    if m and len(m[0]) != len(v):
        raise ValueError("matrix-vector shape mismatch")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def to_float_matrix(m: FMat) -> np.ndarray:
    """One float(Fraction) per cell.  From Fractions, scaling first gives the same bits
    at about the same cost (bordered A(G) payoffs, 2-core x86_64 host: 19-25 vs 28-29 us
    at 5 actions, 63-71 vs 66-71 at 9, 287-323 vs 268-293 at 20); it pays on held cells."""
    return np.array([[float(x) for x in row] for row in m], dtype=float)


def scale_to_integers(cells) -> tuple[np.ndarray, int]:
    """Exact cells (any nesting) times the lcm D of their denominators, as Python ints, and D."""
    a = np.array(cells, dtype=object)
    flat = a.ravel().tolist()
    dens = list(map(_denominator, flat))
    d = math.lcm(*dens)
    nums = list(map(_numerator, flat))
    scaled = nums if d == 1 else [p * (d // q) for p, q in zip(nums, dens)]
    return np.array(scaled, dtype=object).reshape(a.shape), d


def scaled_to_float(cells: np.ndarray, d: int) -> np.ndarray:
    """to_float_matrix of the exact matrix cells / d, from scale_to_integers' output.

    Python's int true division rounds correctly, as float(Fraction) does, so
    the bits are the same; with the cells at hand, as QuadraticMinMaxProblem
    holds them for its symmetry check, it is about ten times faster.
    """
    return (cells / d).astype(float)


def solve_linear(a: Sequence[Sequence[int]], b: Sequence[int]):
    """Solve the integer system A x = b by fraction-free (Bareiss) elimination.

    Returns None when A is singular, else integer numerators `num` over the
    positive denominator `det` = |det A|, with A num = b det.  A batch of one
    of `solve_stacked`; see docs/decisions.md, "Exact integer core".
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    # index() refuses a Fraction or a float
    rows = [[index(x) for x in row] + [index(rhs)] for row, rhs in zip(a, b)]
    num, det = solve_stacked(np.array(rows, dtype=object).reshape(1, n, n + 1))
    if not det[0]:
        return None
    return tuple(num[0].tolist()), int(det[0])


def _bareiss_dtype(systems: np.ndarray):
    """int64 when Hadamard's bound proves every Bareiss intermediate fits, else object.

    Every entry the elimination produces, and every numerator and det, is a
    minor of some system's augmented matrix [A | b], so at most H, the product
    over rows of max(1, |row|) taken with each position's largest magnitude in
    the stack.  Products of two minors and sums of n of them stay below
    (n + 1) H^2.
    """
    n = systems.shape[1]
    if systems.size == 0:
        return np.int64
    hi, lo = systems.max(axis=0).ravel().tolist(), systems.min(axis=0).ravel().tolist()
    peak = [max(x, -y) for x, y in zip(hi, lo)]
    h2 = math.prod(max(1, sum(v * v for v in peak[i:i + n + 1]))
                   for i in range(0, len(peak), n + 1))
    return np.int64 if (n + 1) * h2 < 2**63 else object


def solve_stacked(systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bareiss elimination of a stack of augmented integer systems [A | b].

    `systems` is a (batch, n, n + 1) integer array (int64 or Python ints).
    Each system is eliminated as `solve_linear` would: the pivot of column k
    is its first nonzero entry from row k down, and a column without one
    makes the system singular.  Returns (num, det), of shapes (batch, n) and
    (batch,): for a nonsingular system det = |det A| > 0 and A num = b det;
    a singular one has det = 0 and num = 0.  The arrays are int64 when
    `_bareiss_dtype` proves that int64 holds every intermediate, else
    Python ints.
    """
    dtype = _bareiss_dtype(systems)
    a = systems.astype(dtype)
    batch, n = a.shape[:2]
    live = np.arange(batch)  # the systems still being eliminated
    prev = np.ones(batch, dtype)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        found = nonzero.any(axis=1)
        if not found.all():
            a, prev, live, nonzero = a[found], prev[found], live[found], nonzero[found]
        pivot = k + nonzero.argmax(axis=1)
        idx = (pivot != k).nonzero()[0]  # the systems that swap rows k and pivot
        top = a[idx, pivot[idx]]
        a[idx, pivot[idx]] = a[idx, k]
        a[idx, k] = top
        p = a[:, k, k]
        below = a[:, k + 1:, k + 1:]
        below *= p[:, None, None]
        below -= a[:, k + 1:, k, None] * a[:, k, None, k + 1:]
        below //= prev[:, None, None]
        prev = p
    num = np.zeros((len(a), n), dtype)  # det x, back-substituted; prev is det A up to sign
    for i in range(n - 1, -1, -1):
        rest = (a[:, i, i + 1:n] * num[:, i + 1:]).sum(axis=1)
        num[:, i] = (prev * a[:, i, n] - rest) // a[:, i, i]
    sign = np.where(prev > 0, 1, -1)
    out_num = np.zeros((batch, n), dtype)
    out_det = np.zeros(batch, dtype)
    out_num[live] = num * sign[:, None]
    out_det[live] = prev * sign
    return out_num, out_det
