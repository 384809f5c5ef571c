"""Exact rational matrices, and the integer core that decides on them.

Payoff data is kept as nested tuples of Fraction; exact decisions scale it to
integers over a common denominator.  `mat_vec` and `vec_dot` are the plain
Fraction products, kept as the reference the integer core is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
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


def scale_to_integers(cells) -> tuple[np.ndarray, int]:
    """Exact cells (any nesting) times the lcm D of their denominators, as Python ints, and D."""
    a = np.array(cells, dtype=object)
    d = math.lcm(*(x.denominator for x in a.flat))
    scaled = [x.numerator * (d // x.denominator) for x in a.flat]
    return np.array(scaled, dtype=object).reshape(a.shape), d


def scaled_to_float(cells: np.ndarray, d: int) -> np.ndarray:
    """to_float_matrix of the exact matrix cells / d, from scale_to_integers' output.

    Python's int true division rounds correctly, as float(Fraction) does, so
    the bits are the same; with the cells at hand it is about ten times faster.
    """
    return (cells / d).astype(float)


def solve_linear(a: Sequence[Sequence[int]], b: Sequence[int]):
    """Solve the integer system A x = b by fraction-free (Bareiss) elimination.

    Returns None when A is singular, else integer numerators `num` over the
    positive denominator `det` = |det A|, with A num = b det.  Every division
    is exact; see docs/decisions.md, "Exact integer core".
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    # augmented working copy; index() refuses a Fraction or a float
    rows = [[index(x) for x in row] + [index(rhs)] for row, rhs in zip(a, b)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top, p = rows[k][k + 1:], rows[k][k]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = p
    num = [0] * n  # det x, back-substituted; prev is det A up to sign
    for i in range(n - 1, -1, -1):
        row = rows[i]
        num[i] = (prev * row[n] - sum(row[j] * num[j] for j in range(i + 1, n))) // row[i]
    sign = 1 if prev > 0 else -1
    return tuple(sign * x for x in num), sign * prev
