"""Exact rational vectors and matrices on top of fractions.Fraction.

Payoff data is kept as nested tuples of Fraction so that audits and
support enumeration can compare values exactly; float mirrors are taken
only at evaluation boundaries.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

FVec = tuple[Fraction, ...]
FMat = tuple[FVec, ...]


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


def quad_form(x: Sequence[Fraction], m: FMat, y: Sequence[Fraction]) -> Fraction:
    """x^T M y with exact arithmetic."""
    return vec_dot(x, mat_vec(m, y))


def mat_add(a: FMat, b: FMat) -> FMat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: FMat, c: Fraction) -> FMat:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_min(m: FMat) -> Fraction:
    return min(x for row in m for x in row)


def mat_max(m: FMat) -> Fraction:
    return max(x for row in m for x in row)


def to_float_matrix(m: FMat) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m], dtype=float)


def solve_linear(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> FVec | None:
    """Solve A x = b exactly by Gaussian elimination with partial pivoting.

    Returns None when A is singular (no unique solution).
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    # augmented working copy
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[n] for row in rows)
